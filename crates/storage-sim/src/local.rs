//! Local (ext4-like) cost model: one block device under the page cache.
//!
//! This models the Greendog workstation's storage: cheap metadata (dentry/
//! inode caches), extent-based allocation so a file streams contiguously
//! from its device, buffered (write-back) writes flushed at `fsync`/`close`.
//! The filesystem itself is the shared [`Fs`]; [`Disk`] only says how
//! each operation is charged.

use std::sync::Arc;
use std::time::Duration;

use simrt::sleep;

use crate::cache::PageCache;
use crate::device::{Device, Dir};
use crate::fs::{Fs, FsError, FsResult, Media, MetaOp};

/// Timing parameters of the local filesystem.
#[derive(Clone, Debug)]
pub struct LocalFsParams {
    /// Path resolution + inode lookup on open (dentry cache warm).
    pub open_latency: Duration,
    /// Inode allocation on create.
    pub create_latency: Duration,
    /// `stat(2)` service time.
    pub stat_latency: Duration,
    /// Memory bandwidth for page-cache hits and user-space copies.
    pub mem_bandwidth: f64,
    /// Usable capacity in bytes.
    pub capacity: u64,
}

impl Default for LocalFsParams {
    fn default() -> Self {
        LocalFsParams {
            open_latency: Duration::from_micros(6),
            create_latency: Duration::from_micros(60),
            stat_latency: Duration::from_micros(2),
            mem_bandwidth: 8.0e9,
            capacity: 1 << 41, // 2 TiB
        }
    }
}

/// Size of the inode block read on a cold-cache open.
const INODE_BYTES: u64 = 512;

/// Device byte region of the inode table: far from the data extents, so a
/// cold open seeks to the table and the following data read seeks back
/// (ext4 block groups put inode tables away from most file data).
const INODE_TABLE_BASE: u64 = 1 << 45;

/// The ext4-like cost model: fixed metadata latencies and one device.
pub struct Disk {
    device: Arc<Device>,
    params: LocalFsParams,
}

/// An ext4-like filesystem on a single device.
pub type LocalFs = Fs<Disk>;

impl LocalFs {
    /// Create a filesystem on `device`, sharing `cache` with other mounts
    /// of the same machine (one OS page cache).
    pub fn new(device: Arc<Device>, cache: Arc<PageCache>, params: LocalFsParams) -> Arc<Self> {
        Fs::with_media(Disk { device, params }, cache)
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<Device> {
        &self.media.device
    }
}

impl Media for Disk {
    const KIND: &'static str = "local";

    fn devices(&self) -> &[Arc<Device>] {
        std::slice::from_ref(&self.device)
    }

    fn capacity(&self) -> u64 {
        self.params.capacity
    }

    fn mem_bandwidth(&self) -> f64 {
        self.params.mem_bandwidth
    }

    fn meta(&self, op: MetaOp) {
        sleep(match op {
            MetaOp::Open => self.params.open_latency,
            MetaOp::Create => self.params.create_latency,
            MetaOp::Stat => self.params.stat_latency,
        });
    }

    /// Cold inode/dentry: after drop_caches, opening a file reads its inode
    /// block from the device — a per-file seek that hits small-file
    /// workloads hardest (part of why the paper's staging optimization
    /// pays off).
    fn open_existing(&self, cache: &PageCache, instance: u64, id: u64) -> FsResult<()> {
        let ikey = (instance, id | 1 << 63);
        for run in cache.plan_read(ikey, 0, INODE_BYTES) {
            if !run.hit {
                self.transfer(
                    Dir::Read,
                    0,
                    INODE_TABLE_BASE + id * INODE_BYTES,
                    INODE_BYTES,
                )?;
                cache.insert(ikey, 0, INODE_BYTES, false);
            }
        }
        Ok(())
    }

    fn transfer(&self, dir: Dir, _dev: usize, addr: u64, len: u64) -> FsResult<()> {
        self.device
            .transfer(dir, addr, len)
            .map_err(|_| FsError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::fs::{FileSystem, OpenOptions, WritePayload};
    use parking_lot::Mutex;
    use simrt::Sim;

    fn fixture(capacity: u64) -> (Sim, Arc<LocalFs>) {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::hdd("hdd0"));
        let cache = Arc::new(PageCache::new(1 << 30));
        let fs = LocalFs::new(
            dev,
            cache,
            LocalFsParams {
                capacity,
                ..Default::default()
            },
        );
        (sim, fs)
    }

    #[test]
    fn write_read_roundtrip_through_cache_and_device() {
        let (sim, fs) = fixture(1 << 30);
        let fs2 = fs.clone();
        sim.spawn("t", move || {
            let h = fs2.open("/f", &OpenOptions::writing()).unwrap();
            fs2.write_at(h, 0, WritePayload::Bytes(b"the quick brown fox"))
                .unwrap();
            fs2.close(h).unwrap();

            let h = fs2.open("/f", &OpenOptions::reading()).unwrap();
            let mut buf = [0u8; 19];
            let n = fs2.read_at(h, 0, 19, Some(&mut buf)).unwrap();
            assert_eq!(n, 19);
            assert_eq!(&buf, b"the quick brown fox");
            // EOF probe returns 0.
            assert_eq!(fs2.read_at(h, 19, 100, None).unwrap(), 0);
            fs2.close(h).unwrap();
        });
        sim.run();
        let dev = fs.device().snapshot();
        assert_eq!(dev.bytes_written, 19, "close flushed the dirty range");
    }

    #[test]
    fn second_read_hits_cache_and_is_faster() {
        let (sim, fs) = fixture(1 << 30);
        fs.create_synthetic("/data", 4 << 20, 99).unwrap();
        let fs2 = fs.clone();
        let times = Arc::new(Mutex::new((0u64, 0u64)));
        let t2 = times.clone();
        sim.spawn("t", move || {
            let h = fs2.open("/data", &OpenOptions::reading()).unwrap();
            let t0 = simrt::now();
            fs2.read_at(h, 0, 4 << 20, None).unwrap();
            let t1 = simrt::now();
            fs2.read_at(h, 0, 4 << 20, None).unwrap();
            let t_end = simrt::now();
            *t2.lock() = ((t1 - t0).as_nanos() as u64, (t_end - t1).as_nanos() as u64);
            fs2.close(h).unwrap();
        });
        sim.run();
        let (cold, warm) = *times.lock();
        assert!(
            warm * 10 < cold,
            "cached read should be ≫ faster: cold={cold}ns warm={warm}ns"
        );
        // 4 MiB of data + one cold inode block.
        assert_eq!(fs.device().snapshot().bytes_read, (4 << 20) + 512);
    }

    #[test]
    fn cached_content_equals_uncached_content() {
        let (sim, fs) = fixture(1 << 30);
        fs.create_synthetic("/data", 64 * 1024, 7).unwrap();
        let fs2 = fs.clone();
        sim.spawn("t", move || {
            let h = fs2.open("/data", &OpenOptions::reading()).unwrap();
            let mut cold = vec![0u8; 64 * 1024];
            fs2.read_at(h, 0, 64 * 1024, Some(&mut cold)).unwrap();
            let mut warm = vec![0u8; 64 * 1024];
            fs2.read_at(h, 0, 64 * 1024, Some(&mut warm)).unwrap();
            assert_eq!(cold, warm);
            assert_eq!(
                crate::content::checksum(7, 0, 64 * 1024),
                crate::content::checksum_bytes(&cold)
            );
            fs2.close(h).unwrap();
        });
        sim.run();
    }

    #[test]
    fn enospc_on_exhausted_capacity() {
        let (sim, fs) = fixture(1 << 20); // 1 MiB
        let fs2 = fs.clone();
        sim.spawn("t", move || {
            let h = fs2.open("/big", &OpenOptions::writing()).unwrap();
            let r = fs2.write_at(h, 0, WritePayload::Synthetic(4 << 20));
            assert_eq!(r, Err(FsError::NoSpace));
        });
        sim.run();
        assert_eq!(
            fs.create_synthetic("/big2", 4 << 20, 0),
            Err(FsError::NoSpace)
        );
    }

    #[test]
    fn open_missing_and_exclusive_create() {
        let (sim, fs) = fixture(1 << 30);
        let fs2 = fs.clone();
        sim.spawn("t", move || {
            assert_eq!(
                fs2.open("/nope", &OpenOptions::reading()).unwrap_err(),
                FsError::NotFound
            );
            let opts = OpenOptions {
                write: true,
                create_new: true,
                create: true,
                ..Default::default()
            };
            let h = fs2.open("/x", &opts).unwrap();
            fs2.close(h).unwrap();
            assert_eq!(fs2.open("/x", &opts).unwrap_err(), FsError::Exists);
        });
        sim.run();
    }

    #[test]
    fn unlinked_file_readable_via_open_handle() {
        let (sim, fs) = fixture(1 << 30);
        fs.create_synthetic("/gone", 1024, 5).unwrap();
        let fs2 = fs.clone();
        sim.spawn("t", move || {
            let h = fs2.open("/gone", &OpenOptions::reading()).unwrap();
            fs2.unlink("/gone").unwrap();
            assert_eq!(fs2.stat("/gone").unwrap_err(), FsError::NotFound);
            assert_eq!(fs2.read_at(h, 0, 1024, None).unwrap(), 1024);
            fs2.close(h).unwrap();
        });
        sim.run();
    }

    #[test]
    fn stat_reports_size() {
        let (sim, fs) = fixture(1 << 30);
        fs.create_synthetic("/s", 12345, 1).unwrap();
        let fs2 = fs.clone();
        sim.spawn("t", move || {
            assert_eq!(fs2.stat("/s").unwrap().size, 12345);
        });
        sim.run();
    }

    #[test]
    fn truncate_on_open_resets_size() {
        let (sim, fs) = fixture(1 << 30);
        let fs2 = fs.clone();
        sim.spawn("t", move || {
            let h = fs2.open("/t", &OpenOptions::writing()).unwrap();
            fs2.write_at(h, 0, WritePayload::Bytes(b"aaaa")).unwrap();
            fs2.close(h).unwrap();
            assert_eq!(fs2.stat("/t").unwrap().size, 4);
            let h = fs2.open("/t", &OpenOptions::writing()).unwrap();
            assert_eq!(fs2.fstat(h).unwrap().size, 0);
            fs2.close(h).unwrap();
        });
        sim.run();
    }
}
