//! MPI-IO over the POSIX layer (ROMIO's shape: MPI-IO functions are a
//! library over `open`/`pread`/`pwrite`), with a PMPI-interposable layer.
//!
//! [`DefaultMpiIo`] emits one probe event per MPI-IO call on the rank's
//! spine, beside the POSIX events of the descriptor I/O beneath it, so a
//! Darshan runtime attached to the rank records both layers, as parallel
//! Darshan does with its MPI-IO and POSIX modules (paper §III).

use posix_sim::{Fd, OpenFlags, PosixResult, Process};
use probe::{EventKind, PathId};
use simrt::SimTime;
use storage_sim::WritePayload;

use crate::comm::Comm;

/// An open MPI file from one rank's perspective.
pub struct MpiFile {
    /// Path the file was opened with.
    pub path: String,
    path_id: PathId,
    pub(crate) fd: Fd,
    /// Whether the open was collective.
    pub collective: bool,
}

/// The interposable MPI-IO surface (PMPI: a profiler links its wrappers
/// ahead of the MPI library and forwards to `PMPI_*`).
#[allow(missing_docs)]
pub trait MpiIoLayer: Send + Sync {
    fn file_open(
        &self,
        comm: &Comm,
        path: &str,
        write: bool,
        collective: bool,
    ) -> PosixResult<MpiFile>;
    fn read_at(&self, comm: &Comm, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64>;
    fn write_at(&self, comm: &Comm, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64>;
    /// Collective read: all ranks call; completion is synchronized.
    fn read_at_all(&self, comm: &Comm, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64>;
    /// Collective write.
    fn write_at_all(&self, comm: &Comm, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64>;
    fn file_close(&self, comm: &Comm, fh: MpiFile) -> PosixResult<()>;
}

/// The stock MPI-IO implementation: forwards to the rank's POSIX process
/// (so Darshan's POSIX module still sees the underlying descriptor I/O,
/// exactly as with ROMIO on a real system) and emits one event per call.
///
/// A collective call runs between two barriers, and every rank completes
/// both whatever its own result, so a failure on one rank cannot leave its
/// peers waiting.
pub struct DefaultMpiIo;

/// Emit `kind` for a call on `fh` that started at `t0`.
fn emit(p: &Process, t0: Option<SimTime>, fh: &MpiFile, kind: EventKind) {
    if let Some(t0) = t0 {
        p.probe_emit(t0, fh.path_id, kind);
    }
}

/// Read or write `len` bytes at `offset` on this rank (between the
/// collective's barriers when `collective`) and emit the call's event.
fn access(
    comm: &Comm,
    fh: &MpiFile,
    (offset, len): (u64, u64),
    (write, collective): (bool, bool),
) -> PosixResult<u64> {
    let p = comm.process();
    let t0 = p.probe_t0();
    if collective {
        comm.barrier();
    }
    let n = if write {
        p.pwrite(fh.fd, offset, WritePayload::Synthetic(len))
    } else {
        p.pread(fh.fd, offset, len, None)
    };
    if collective {
        comm.barrier();
    }
    let len = n?;
    let kind = EventKind::MpiIo {
        offset,
        len,
        write,
        collective,
    };
    emit(&p, t0, fh, kind);
    Ok(len)
}

impl MpiIoLayer for DefaultMpiIo {
    fn file_open(
        &self,
        comm: &Comm,
        path: &str,
        write: bool,
        collective: bool,
    ) -> PosixResult<MpiFile> {
        let p = comm.process();
        let t0 = p.probe_t0();
        let flags = if write {
            OpenFlags {
                read: true,
                write: true,
                create: true,
                ..Default::default()
            }
        } else {
            OpenFlags::rdonly()
        };
        if collective {
            comm.barrier();
        }
        let fd = p.open(path, flags);
        if collective {
            comm.barrier();
        }
        let fd = fd?;
        let fh = MpiFile {
            path: path.to_string(),
            path_id: probe::intern(path),
            fd,
            collective,
        };
        emit(&p, t0, &fh, EventKind::MpiOpen { collective });
        Ok(fh)
    }

    fn read_at(&self, comm: &Comm, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64> {
        access(comm, fh, (offset, len), (false, false))
    }

    fn write_at(&self, comm: &Comm, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64> {
        access(comm, fh, (offset, len), (true, false))
    }

    fn read_at_all(&self, comm: &Comm, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64> {
        access(comm, fh, (offset, len), (false, true))
    }

    fn write_at_all(&self, comm: &Comm, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64> {
        access(comm, fh, (offset, len), (true, true))
    }

    fn file_close(&self, comm: &Comm, fh: MpiFile) -> PosixResult<()> {
        let p = comm.process();
        let t0 = p.probe_t0();
        if fh.collective {
            comm.barrier();
        }
        p.close(fh.fd)?;
        emit(&p, t0, &fh, EventKind::MpiClose);
        Ok(())
    }
}

impl Comm {
    /// `MPI_File_open` (collective).
    pub fn file_open(&self, path: &str, write: bool) -> PosixResult<MpiFile> {
        let layer = self.world.inner.layer.read().clone();
        layer.file_open(self, path, write, true)
    }

    /// `MPI_File_read_at` (independent).
    pub fn file_read_at(&self, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64> {
        let layer = self.world.inner.layer.read().clone();
        layer.read_at(self, fh, offset, len)
    }

    /// `MPI_File_write_at` (independent).
    pub fn file_write_at(&self, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64> {
        let layer = self.world.inner.layer.read().clone();
        layer.write_at(self, fh, offset, len)
    }

    /// `MPI_File_read_at_all` (collective).
    pub fn file_read_at_all(&self, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64> {
        let layer = self.world.inner.layer.read().clone();
        layer.read_at_all(self, fh, offset, len)
    }

    /// `MPI_File_write_at_all` (collective).
    pub fn file_write_at_all(&self, fh: &MpiFile, offset: u64, len: u64) -> PosixResult<u64> {
        let layer = self.world.inner.layer.read().clone();
        layer.write_at_all(self, fh, offset, len)
    }

    /// `MPI_File_close` (collective if opened collectively).
    pub fn file_close(&self, fh: MpiFile) -> PosixResult<()> {
        let layer = self.world.inner.layer.read().clone();
        layer.file_close(self, fh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{MpiWorld, NetworkModel};
    use std::sync::Arc;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
    };

    fn fixture() -> (simrt::Sim, StorageStack, Arc<LocalFs>) {
        let sim = simrt::Sim::new();
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd("ssd0")),
            Arc::new(PageCache::new(1 << 30)),
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/pfs", fs.clone() as Arc<dyn FileSystem>);
        (sim, stack, fs)
    }

    #[test]
    fn collective_write_produces_disjoint_blocks() {
        let (sim, stack, fs) = fixture();
        let world = MpiWorld::new(&stack, 4, NetworkModel::default());
        let block = 1u64 << 20;
        world.spawn_ranks(&sim, move |comm| {
            let fh = comm.file_open("/pfs/ckpt", true).unwrap();
            let off = comm.rank() as u64 * block;
            assert_eq!(comm.file_write_at_all(&fh, off, block).unwrap(), block);
            comm.file_close(fh).unwrap();
        });
        sim.run();
        // All four blocks landed: the file is 4 MiB.
        assert_eq!(fs.content_info("/pfs/ckpt").unwrap().0, 4 * block);
    }

    #[test]
    fn a_rank_failing_a_collective_write_does_not_strand_its_peers() {
        let sim = simrt::Sim::new();
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd("ssd0")),
            Arc::new(PageCache::new(1 << 30)),
            LocalFsParams {
                capacity: 2 << 20,
                ..Default::default()
            },
        );
        let stack = StorageStack::new();
        stack.mount("/pfs", fs as Arc<dyn FileSystem>);
        let world = MpiWorld::new(&stack, 4, NetworkModel::default());
        let handles = world.spawn_ranks(&sim, |comm| {
            let fh = comm.file_open("/pfs/ckpt", true).unwrap();
            let block = 1u64 << 20;
            let r = comm.file_write_at_all(&fh, comm.rank() as u64 * block, block);
            comm.file_close(fh).unwrap();
            r
        });
        sim.run();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(results[0], Ok(1 << 20));
        for r in &results[1..] {
            assert_eq!(*r, Err(posix_sim::Errno::ENOSPC));
        }
    }

    #[test]
    fn independent_reads_share_one_file() {
        let (sim, stack, fs) = fixture();
        fs.create_synthetic("/pfs/data", 8 << 20, 7).unwrap();
        let world = MpiWorld::new(&stack, 4, NetworkModel::default());
        let total = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let t2 = total.clone();
        world.spawn_ranks(&sim, move |comm| {
            let fh = comm.file_open("/pfs/data", false).unwrap();
            let chunk = (8u64 << 20) / 4;
            let n = comm
                .file_read_at(&fh, comm.rank() as u64 * chunk, chunk)
                .unwrap();
            t2.fetch_add(n, std::sync::atomic::Ordering::SeqCst);
            comm.file_close(fh).unwrap();
        });
        sim.run();
        assert_eq!(total.load(std::sync::atomic::Ordering::SeqCst), 8 << 20);
    }

    #[test]
    fn pmpi_interposition_counts_calls() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct CountingPmpi {
            orig: Arc<dyn MpiIoLayer>,
            coll_writes: AtomicU64,
            indep_reads: AtomicU64,
        }
        impl MpiIoLayer for CountingPmpi {
            fn file_open(&self, c: &Comm, p: &str, w: bool, coll: bool) -> PosixResult<MpiFile> {
                self.orig.file_open(c, p, w, coll)
            }
            fn read_at(&self, c: &Comm, f: &MpiFile, o: u64, l: u64) -> PosixResult<u64> {
                self.indep_reads.fetch_add(1, Ordering::Relaxed);
                self.orig.read_at(c, f, o, l)
            }
            fn write_at(&self, c: &Comm, f: &MpiFile, o: u64, l: u64) -> PosixResult<u64> {
                self.orig.write_at(c, f, o, l)
            }
            fn read_at_all(&self, c: &Comm, f: &MpiFile, o: u64, l: u64) -> PosixResult<u64> {
                self.orig.read_at_all(c, f, o, l)
            }
            fn write_at_all(&self, c: &Comm, f: &MpiFile, o: u64, l: u64) -> PosixResult<u64> {
                self.coll_writes.fetch_add(1, Ordering::Relaxed);
                self.orig.write_at_all(c, f, o, l)
            }
            fn file_close(&self, c: &Comm, f: MpiFile) -> PosixResult<()> {
                self.orig.file_close(c, f)
            }
        }

        let (sim, stack, fs) = fixture();
        fs.create_synthetic("/pfs/data", 1 << 20, 1).unwrap();
        let world = MpiWorld::new(&stack, 2, NetworkModel::default());
        let counter = Arc::new(CountingPmpi {
            orig: world.pmpi_interpose(Arc::new(DefaultMpiIo)), // placeholder
            coll_writes: AtomicU64::new(0),
            indep_reads: AtomicU64::new(0),
        });
        world.pmpi_interpose(counter.clone() as Arc<dyn MpiIoLayer>);
        assert!(world.pmpi_interposed());
        world.spawn_ranks(&sim, move |comm| {
            let fh = comm.file_open("/pfs/data", true).unwrap();
            comm.file_read_at(&fh, 0, 1024).unwrap();
            comm.file_write_at_all(&fh, comm.rank() as u64 * 4096, 4096)
                .unwrap();
            comm.file_close(fh).unwrap();
        });
        sim.run();
        assert_eq!(counter.indep_reads.load(Ordering::Relaxed), 2);
        assert_eq!(counter.coll_writes.load(Ordering::Relaxed), 2);
    }
}
