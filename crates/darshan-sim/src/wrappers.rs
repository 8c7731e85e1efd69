//! Instrumented symbol implementations — the `_open`, `_read`, `_pread`,
//! `_fwrite`, … entry points of `libdarshan.so` (paper Fig. 2, right box).
//!
//! Since the probe backplane was introduced, the wrappers no longer touch
//! the module records at all: the terminal libc emits one event per
//! completed operation and [`crate::sink::DarshanSink`] folds the stream
//! into the records at context-switch boundaries. What remains here is the
//! *time* cost of instrumentation, which must be charged synchronously on
//! the calling thread, exactly where the real library would spend it:
//!
//! * every wrapped call pays the per-operation overhead and stalls at the
//!   extraction gate ([`DarshanRuntime::charge_op`]);
//! * the first `open`/`fopen` of a path pays the new-record allocation
//!   cost ([`DarshanRuntime::charge_new_record`]).
//!
//! This split is what removes per-consumer locking from the syscall fast
//! path: the wrapper takes no module lock, and the fold amortizes one lock
//! acquisition over a whole batch of events.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use storage_sim::{Metadata, WritePayload};

use posix_sim::{Fd, LibcIo, LibcStdio, MapId, OpenFlags, PosixResult, Process, StreamId, Whence};

use crate::counters::record_id;
use crate::runtime::DarshanRuntime;

/// The instrumented symbols of one libc interface `L`, forwarding to
/// its previous GOT binding: [`DarshanIo`] for POSIX, [`DarshanStdio`] for
/// STDIO.
pub struct Wrapper<L: ?Sized> {
    rt: Arc<DarshanRuntime>,
    orig: Arc<L>,
    /// Record ids whose allocation cost was already charged.
    seen: Mutex<HashSet<u64>>,
}

/// The instrumented POSIX symbols.
pub type DarshanIo = Wrapper<dyn LibcIo>;

/// The instrumented STDIO symbols.
pub type DarshanStdio = Wrapper<dyn LibcStdio>;

impl<L: ?Sized> Wrapper<L> {
    /// Wrap the previous GOT binding `orig`.
    pub fn new(rt: Arc<DarshanRuntime>, orig: Arc<L>) -> Arc<Self> {
        Arc::new(Wrapper {
            rt,
            orig,
            seen: Mutex::new(HashSet::new()),
        })
    }

    /// The original binding this wrapper forwards to.
    pub fn orig(&self) -> Arc<L> {
        self.orig.clone()
    }

    /// Charge a wrapped `open`/`fopen`: the new-record cost the first time
    /// `path` is seen, then the per-operation cost.
    fn charge_open(&self, path: &str) {
        if self.seen.lock().insert(record_id(path)) {
            self.rt.charge_new_record();
        }
        self.rt.charge_op();
    }
}

impl LibcIo for DarshanIo {
    fn open(&self, p: &Process, path: &str, flags: OpenFlags) -> PosixResult<Fd> {
        let r = self.orig.open(p, path, flags);
        self.charge_open(path);
        r
    }

    fn close(&self, p: &Process, fd: Fd) -> PosixResult<()> {
        let r = self.orig.close(p, fd);
        self.rt.charge_op();
        r
    }

    #[inline]
    fn read(&self, p: &Process, fd: Fd, len: u64, buf: Option<&mut [u8]>) -> PosixResult<u64> {
        let r = self.orig.read(p, fd, len, buf);
        self.rt.charge_op();
        r
    }

    #[inline]
    fn pread(
        &self,
        p: &Process,
        fd: Fd,
        offset: u64,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> PosixResult<u64> {
        let r = self.orig.pread(p, fd, offset, len, buf);
        self.rt.charge_op();
        r
    }

    #[inline]
    fn write(&self, p: &Process, fd: Fd, data: WritePayload<'_>) -> PosixResult<u64> {
        let r = self.orig.write(p, fd, data);
        self.rt.charge_op();
        r
    }

    #[inline]
    fn pwrite(&self, p: &Process, fd: Fd, offset: u64, data: WritePayload<'_>) -> PosixResult<u64> {
        let r = self.orig.pwrite(p, fd, offset, data);
        self.rt.charge_op();
        r
    }

    #[inline]
    fn lseek(&self, p: &Process, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        let r = self.orig.lseek(p, fd, offset, whence);
        self.rt.charge_op();
        r
    }

    fn stat(&self, p: &Process, path: &str) -> PosixResult<Metadata> {
        let r = self.orig.stat(p, path);
        self.rt.charge_op();
        r
    }

    fn fstat(&self, p: &Process, fd: Fd) -> PosixResult<Metadata> {
        let r = self.orig.fstat(p, fd);
        self.rt.charge_op();
        r
    }

    fn fsync(&self, p: &Process, fd: Fd) -> PosixResult<()> {
        let r = self.orig.fsync(p, fd);
        self.rt.charge_op();
        r
    }

    fn unlink(&self, p: &Process, path: &str) -> PosixResult<()> {
        self.rt.charge_op();
        self.orig.unlink(p, path)
    }

    fn mmap(&self, p: &Process, fd: Fd, offset: u64, len: u64) -> PosixResult<MapId> {
        let r = self.orig.mmap(p, fd, offset, len);
        self.rt.charge_op();
        r
    }

    fn munmap(&self, p: &Process, map: MapId) -> PosixResult<()> {
        self.rt.charge_op();
        self.orig.munmap(p, map)
    }

    fn msync(&self, p: &Process, map: MapId) -> PosixResult<()> {
        let r = self.orig.msync(p, map);
        self.rt.charge_op();
        r
    }

    fn rename(&self, p: &Process, from: &str, to: &str) -> PosixResult<()> {
        self.rt.charge_op();
        self.orig.rename(p, from, to)
    }
}

impl LibcStdio for DarshanStdio {
    fn fopen(&self, p: &Process, path: &str, mode: &str) -> PosixResult<StreamId> {
        let r = self.orig.fopen(p, path, mode);
        self.charge_open(path);
        r
    }

    fn fclose(&self, p: &Process, s: StreamId) -> PosixResult<()> {
        let r = self.orig.fclose(p, s);
        self.rt.charge_op();
        r
    }

    #[inline]
    fn fread(
        &self,
        p: &Process,
        s: StreamId,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> PosixResult<u64> {
        let r = self.orig.fread(p, s, len, buf);
        self.rt.charge_op();
        r
    }

    #[inline]
    fn fwrite(&self, p: &Process, s: StreamId, data: WritePayload<'_>) -> PosixResult<u64> {
        let r = self.orig.fwrite(p, s, data);
        self.rt.charge_op();
        r
    }

    fn fflush(&self, p: &Process, s: StreamId) -> PosixResult<()> {
        let r = self.orig.fflush(p, s);
        self.rt.charge_op();
        r
    }

    fn fseek(&self, p: &Process, s: StreamId, offset: i64, whence: Whence) -> PosixResult<u64> {
        let r = self.orig.fseek(p, s, offset, whence);
        self.rt.charge_op();
        r
    }
}
