//! # darshan-sim — a Darshan-style I/O characterization runtime
//!
//! A from-scratch reproduction of the parts of Darshan 3.2.0-pre (the
//! non-MPI experimental version the paper builds on) that tf-Darshan
//! needs:
//!
//! * per-file POSIX, STDIO and MPI-IO module records with Darshan's
//!   counter set ([`counters`]) and bounded record memory, folded from the
//!   probe spine's events ([`sink`]);
//! * DXT extended tracing (per-operation segments);
//! * instrumented symbol implementations that wrap the previous GOT
//!   bindings ([`wrappers`]);
//! * the classic post-mortem binary log with writer and parser ([`log`]);
//! * **the paper's addition**: runtime extraction of module buffers
//!   ([`runtime::DarshanRuntime::snapshot`]) and name lookup, so an
//!   instrumented application can analyze I/O *while running*.
//!
//! The crate exposes [`DarshanLibrary`], the object a process obtains via
//! `dlopen("libdarshan.so")`, bundling the runtime plus attach helpers —
//! the moral equivalent of the shared library's exported symbols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
mod idmap;
pub mod log;
pub mod names;
pub mod reduce;
pub mod runtime;
pub mod sink;
pub mod summary;
pub mod wrappers;

use std::sync::Arc;

use parking_lot::Mutex;
use posix_sim::{GotError, Process};

pub use counters::{
    record_id, size_bucket, CommonValues, Module, Mpiio, MpiioCounter, MpiioFCounter, Posix,
    PosixCounter, PosixFCounter, PosixRecord, Record, Stdio, StdioCounter, StdioFCounter,
    StdioRecord, SIZE_BUCKET_LABELS,
};
pub use log::{DarshanLog, LogError};
pub use names::Names;
pub use reduce::reduce_job;
pub use runtime::{DarshanConfig, DarshanRuntime, DxtOp, DxtSegment, Snapshot, Totals};
pub use sink::DarshanSink;
pub use summary::JobSummary;
pub use wrappers::{DarshanIo, DarshanStdio};

/// Name under which the library registers itself for `dlopen`.
pub const SONAME: &str = "libdarshan.so";

/// POSIX symbols Darshan instruments.
pub const INSTRUMENTED_POSIX: &[&str] = &[
    "open", "close", "read", "pread", "write", "pwrite", "lseek", "stat", "fstat", "fsync", "mmap",
    "munmap", "msync",
];

/// STDIO symbols Darshan instruments.
pub const INSTRUMENTED_STDIO: &[&str] = &["fopen", "fclose", "fread", "fwrite", "fflush", "fseek"];

/// Saved original bindings, for detaching.
struct AttachState {
    posix_orig: Vec<(String, Arc<dyn posix_sim::LibcIo>)>,
    stdio_orig: Vec<(String, Arc<dyn posix_sim::LibcStdio>)>,
    /// The record-fold consumer registered on the process's event spine.
    sink: probe::SinkId,
}

/// The loaded Darshan shared library: runtime + attachment bookkeeping.
///
/// `attach` scans the process GOT for the instrumented symbols and patches
/// them to Darshan's wrappers (paper Fig. 2); `detach` restores the saved
/// bindings. Both are idempotent.
pub struct DarshanLibrary {
    runtime: Arc<DarshanRuntime>,
    attach: Mutex<Option<AttachState>>,
}

impl DarshanLibrary {
    /// Initialize the library ("load libdarshan.so") with `config`.
    pub fn new(config: DarshanConfig) -> Arc<Self> {
        Arc::new(DarshanLibrary {
            runtime: Arc::new(DarshanRuntime::new(config)),
            attach: Mutex::new(None),
        })
    }

    /// Initialize and register with the process's dynamic loader, so later
    /// `process.dlopen(SONAME)` finds it.
    pub fn load_into(process: &Process, config: DarshanConfig) -> Arc<Self> {
        let lib = Self::new(config);
        process.register_library(SONAME, lib.clone());
        lib
    }

    /// The instrumentation runtime (the extraction API lives here).
    pub fn runtime(&self) -> &Arc<DarshanRuntime> {
        &self.runtime
    }

    /// True if currently attached to a GOT.
    pub fn is_attached(&self) -> bool {
        self.attach.lock().is_some()
    }

    /// Patch the process GOT so the instrumented symbols dispatch through
    /// Darshan, and fold the process's events into the POSIX, STDIO and
    /// MPI-IO modules (an MPI rank's MPI-IO library emits its calls on the
    /// same spine, so no PMPI layer is needed). Idempotent: a second
    /// attach is a no-op.
    pub fn attach(&self, process: &Process) -> Result<(), GotError> {
        let mut guard = self.attach.lock();
        if guard.is_some() {
            return Ok(());
        }
        let got = process.got();
        // One wrapper instance serves all POSIX symbols so that its
        // fd→record map is shared, exactly like the real library's globals.
        let posix_wrapper = DarshanIo::new(self.runtime.clone(), got.posix_sym("open"));
        let stdio_wrapper = DarshanStdio::new(self.runtime.clone(), got.stdio_sym("fopen"));
        // Record mutation happens in the event fold: register the sink on
        // the process's spine alongside patching the symbols.
        let sink = process
            .probe()
            .register(sink::DarshanSink::new(self.runtime.clone()));
        let mut st = AttachState {
            posix_orig: Vec::new(),
            stdio_orig: Vec::new(),
            sink,
        };
        for &sym in INSTRUMENTED_POSIX {
            let old = got.patch_posix(sym, posix_wrapper.clone())?;
            st.posix_orig.push((sym.to_string(), old));
        }
        for &sym in INSTRUMENTED_STDIO {
            let old = got.patch_stdio(sym, stdio_wrapper.clone())?;
            st.stdio_orig.push((sym.to_string(), old));
        }
        *guard = Some(st);
        Ok(())
    }

    /// Restore the original bindings. Idempotent.
    pub fn detach(&self, process: &Process) -> Result<(), GotError> {
        let mut guard = self.attach.lock();
        let Some(st) = guard.take() else {
            return Ok(());
        };
        let got = process.got();
        for (sym, orig) in st.posix_orig {
            got.restore_posix(&sym, orig)?;
        }
        for (sym, orig) in st.stdio_orig {
            got.restore_stdio(&sym, orig)?;
        }
        // Unregister last; this flushes the calling thread's buffer first,
        // so every operation completed before detach reaches the records —
        // a mid-session detach loses nothing.
        process.probe().unregister(st.sink);
        Ok(())
    }

    /// Classic Darshan shutdown: detach, reduce, and produce the binary
    /// log (returned as a [`DarshanLog`]; callers persist it as they wish).
    pub fn shutdown(&self, process: &Process) -> Result<DarshanLog, GotError> {
        self.detach(process)?;
        let snap = self.runtime.snapshot();
        let mut dxt = std::collections::HashMap::new();
        for r in &snap.posix {
            let segs = self.runtime.dxt_of(r.rec_id);
            if !segs.is_empty() {
                dxt.insert(r.rec_id, segs);
            }
        }
        // The log owns its records: unwrap the snapshot's `Arc` sharing
        // (clone only here, at the classic post-mortem boundary).
        Ok(DarshanLog {
            job_start: 0.0,
            job_end: snap.taken_at,
            nprocs: 1,
            names: snap.names.to_map(),
            posix: snap.posix.iter().map(|r| (**r).clone()).collect(),
            posix_partial: snap.posix_partial,
            stdio: snap.stdio.iter().map(|r| (**r).clone()).collect(),
            stdio_partial: snap.stdio_partial,
            dxt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posix_sim::OpenFlags;
    use simrt::Sim;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
        WritePayload,
    };

    fn fixture() -> (Sim, Arc<Process>, Arc<LocalFs>) {
        let sim = Sim::new();
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd("ssd0")),
            Arc::new(PageCache::new(1 << 30)),
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/data", fs.clone() as Arc<dyn FileSystem>);
        (sim, Process::new(stack), fs)
    }

    #[test]
    fn attach_records_detach_stops() {
        let (sim, p, fs) = fixture();
        fs.create_synthetic("/data/f", 88 * 1024, 1).unwrap();
        sim.spawn("t", move || {
            let lib = DarshanLibrary::load_into(&p, DarshanConfig::default());
            // dlopen path works and returns the same library.
            let dl = p.dlopen(SONAME).unwrap();
            let dl = dl.downcast::<DarshanLibrary>().unwrap();
            assert!(!dl.is_attached());
            dl.attach(&p).unwrap();
            assert!(dl.is_attached());
            assert!(p.got().any_patched());

            // TensorFlow-style whole-file read loop: pread until 0.
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            let mut off = 0;
            loop {
                let n = p.pread(fd, off, 1 << 20, None).unwrap();
                if n == 0 {
                    break;
                }
                off += n;
            }
            p.close(fd).unwrap();

            let snap = lib.runtime().snapshot();
            let r = snap.posix_by_path("/data/f").unwrap();
            assert_eq!(r.get(PosixCounter::POSIX_OPENS), 1);
            assert_eq!(r.get(PosixCounter::POSIX_READS), 2, "data read + EOF probe");
            assert_eq!(r.get(PosixCounter::POSIX_BYTES_READ), 88 * 1024);
            assert_eq!(r.get(PosixCounter::POSIX_SEQ_READS), 2);
            assert_eq!(r.get(PosixCounter::POSIX_CONSEC_READS), 2);
            // Fig. 8 signature: a zero-length read trails every file.
            assert_eq!(r.get(PosixCounter::POSIX_SIZE_READ_0_100), 1);
            let segs = lib.runtime().dxt_of(r.rec_id);
            assert_eq!(segs.len(), 2);
            assert_eq!(segs.last().unwrap().length, 0);

            dl.detach(&p).unwrap();
            assert!(!p.got().any_patched());
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            p.pread(fd, 0, 1024, None).unwrap();
            p.close(fd).unwrap();
            let snap2 = lib.runtime().snapshot();
            let r2 = snap2.posix_by_path("/data/f").unwrap();
            assert_eq!(
                r2.get(PosixCounter::POSIX_READS),
                2,
                "no recording after detach"
            );
        });
        sim.run();
    }

    #[test]
    fn attach_is_idempotent() {
        let (sim, p, fs) = fixture();
        fs.create_synthetic("/data/f", 1024, 1).unwrap();
        sim.spawn("t", move || {
            let lib = DarshanLibrary::load_into(&p, DarshanConfig::default());
            lib.attach(&p).unwrap();
            lib.attach(&p).unwrap(); // no double wrap
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            p.pread(fd, 0, 1024, None).unwrap();
            p.close(fd).unwrap();
            let snap = lib.runtime().snapshot();
            assert_eq!(
                snap.posix_by_path("/data/f")
                    .unwrap()
                    .get(PosixCounter::POSIX_READS),
                1
            );
            lib.detach(&p).unwrap();
            lib.detach(&p).unwrap();
            assert!(!p.got().any_patched());
        });
        sim.run();
    }

    #[test]
    fn stdio_checkpoint_traffic_on_stdio_module_only() {
        let (sim, p, _fs) = fixture();
        sim.spawn("t", move || {
            let lib = DarshanLibrary::load_into(&p, DarshanConfig::default());
            lib.attach(&p).unwrap();
            let s = p.fopen("/data/ckpt", "w").unwrap();
            for _ in 0..140 {
                p.fwrite(s, WritePayload::Synthetic(100_000)).unwrap();
            }
            p.fclose(s).unwrap();
            let snap = lib.runtime().snapshot();
            let sr = snap
                .stdio
                .iter()
                .find(|r| r.rec_id == record_id("/data/ckpt"))
                .unwrap();
            assert_eq!(sr.get(StdioCounter::STDIO_OPENS), 1);
            assert_eq!(sr.get(StdioCounter::STDIO_WRITES), 140);
            assert_eq!(sr.get(StdioCounter::STDIO_BYTES_WRITTEN), 14_000_000);
            // The descriptor traffic under fwrite is glibc-internal: the
            // POSIX module must NOT have a record for the checkpoint.
            assert!(snap.posix_by_path("/data/ckpt").is_none());
            lib.detach(&p).unwrap();
        });
        sim.run();
    }

    #[test]
    fn pre_attachment_fd_is_tracked_lazily() {
        let (sim, p, fs) = fixture();
        fs.create_synthetic("/data/early", 4096, 1).unwrap();
        sim.spawn("t", move || {
            let fd = p.open("/data/early", OpenFlags::rdonly()).unwrap();
            let lib = DarshanLibrary::load_into(&p, DarshanConfig::default());
            lib.attach(&p).unwrap();
            p.pread(fd, 0, 4096, None).unwrap();
            p.close(fd).unwrap();
            let snap = lib.runtime().snapshot();
            let r = snap.posix_by_path("/data/early").unwrap();
            assert_eq!(r.get(PosixCounter::POSIX_OPENS), 0, "open predates attach");
            assert_eq!(r.get(PosixCounter::POSIX_READS), 1);
            lib.detach(&p).unwrap();
        });
        sim.run();
    }

    #[test]
    fn fd_position_read_lseek_fstat_are_attributed() {
        let (sim, p, fs) = fixture();
        fs.create_synthetic("/data/f", 10_000, 1).unwrap();
        sim.spawn("t", move || {
            let lib = DarshanLibrary::load_into(&p, DarshanConfig::default());
            lib.attach(&p).unwrap();
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            // Position-based reads: offsets recorded from the fd position.
            p.read(fd, 4_000, None).unwrap();
            p.read(fd, 4_000, None).unwrap(); // consecutive
            p.lseek(fd, 0, posix_sim::Whence::Set).unwrap();
            p.read(fd, 1_000, None).unwrap(); // rewind: not sequential
            p.fstat(fd).unwrap();
            p.close(fd).unwrap();
            let snap = lib.runtime().snapshot();
            let r = snap.posix_by_path("/data/f").unwrap();
            assert_eq!(r.get(PosixCounter::POSIX_READS), 3);
            assert_eq!(r.get(PosixCounter::POSIX_SEEKS), 1);
            assert_eq!(r.get(PosixCounter::POSIX_STATS), 1);
            assert_eq!(r.get(PosixCounter::POSIX_CONSEC_READS), 2);
            assert_eq!(
                r.get(PosixCounter::POSIX_SEQ_READS),
                2,
                "rewound read is not sequential"
            );
            assert_eq!(r.get(PosixCounter::POSIX_BYTES_READ), 9_000);
            // DXT recorded the rewound offset correctly.
            let segs = lib.runtime().dxt_of(r.rec_id);
            assert_eq!(segs[2].offset, 0);
            lib.detach(&p).unwrap();
        });
        sim.run();
    }

    #[test]
    fn shutdown_produces_parsable_log() {
        let (sim, p, fs) = fixture();
        fs.create_synthetic("/data/f", 10_000, 1).unwrap();
        sim.spawn("t", move || {
            let lib = DarshanLibrary::load_into(&p, DarshanConfig::default());
            lib.attach(&p).unwrap();
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            p.pread(fd, 0, 10_000, None).unwrap();
            p.close(fd).unwrap();
            let log = lib.shutdown(&p).unwrap();
            assert!(!p.got().any_patched(), "shutdown detaches");
            let bytes = log.encode();
            let back = DarshanLog::decode(&bytes).unwrap();
            let id = record_id("/data/f");
            assert_eq!(back.names[&id], "/data/f");
            let r = back.posix.iter().find(|r| r.rec_id == id).unwrap();
            assert_eq!(r.get(PosixCounter::POSIX_BYTES_READ), 10_000);
            assert_eq!(back.dxt[&id].len(), 1);
        });
        sim.run();
    }

    #[test]
    fn instrumentation_overhead_is_charged() {
        let (sim, p, fs) = fixture();
        fs.create_synthetic("/data/f", 1 << 20, 1).unwrap();
        let elapsed = {
            let p = p.clone();
            move |attach: bool| {
                // One open+read+close with/without instrumentation.
                let lib = DarshanLibrary::new(DarshanConfig::default());
                if attach {
                    lib.attach(&p).unwrap();
                }
                let t0 = simrt::now();
                let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
                p.pread(fd, 0, 1024, None).unwrap();
                p.close(fd).unwrap();
                let dt = simrt::now() - t0;
                lib.detach(&p).unwrap();
                dt
            }
        };
        sim.spawn("t", move || {
            let with = elapsed(true);
            let without = elapsed(false);
            assert!(
                with > without,
                "instrumented path must cost more: {with:?} vs {without:?}"
            );
        });
        sim.run();
    }
}
