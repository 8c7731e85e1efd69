//! The Darshan event-fold consumer: turns the probe spine's [`IoEvent`]
//! stream into POSIX/STDIO module records and DXT segments.
//!
//! Before the backplane existed, each wrapper updated the module records
//! inline, taking the module locks on every syscall. Now the wrappers only
//! charge instrumentation *time*; all record mutation happens here, folding
//! batches of buffered events at context-switch boundaries. Because simrt
//! runs one simulated thread at a time and every descheduling point flushes,
//! events arrive in op-completion order — the same order the inline updates
//! observed — so order-sensitive counters (SEQ/CONSEC flags, RW_SWITCHES,
//! access-size histograms) are reproduced exactly.
//!
//! The fold keeps the same descriptor bookkeeping the wrappers kept:
//!
//! * `fd → record` is seeded by observed `open`s and recovered lazily for
//!   descriptors opened before attachment (the runtime-attachment gap);
//! * `close` on an unknown descriptor records nothing (as before);
//! * any non-application origin is skipped entirely: stdio-internal POSIX
//!   traffic ([`Origin::StdioInternal`]; interposed `read` never sees
//!   `fread`'s buffer refills) and staging-daemon I/O ([`Origin::Prefetch`];
//!   a background copier does not run through the app's patched GOT);
//! * [`EventKind::MmapFault`]s are skipped: faults are not syscalls, so
//!   symbol-level instrumentation stays blind to them (paper §VII).
//!
//! Every runtime mutator this fold calls stamps the touched record with the
//! current extraction epoch, which is what lets
//! [`DarshanRuntime::snapshot`] copy only the records this fold dirtied
//! since the previous extraction (O(dirty), not O(total)).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use probe::{EventKind, IoEvent, Origin, PathId, ProbeSink};

use crate::counters::{PosixCounter as P, StdioCounter as S};
use crate::runtime::DarshanRuntime;

/// Folds probe events into a [`DarshanRuntime`]'s module buffers.
pub struct DarshanSink {
    rt: Arc<DarshanRuntime>,
    /// fd → record id (lazily recovered for pre-attachment descriptors).
    fds: Mutex<HashMap<i32, u64>>,
    /// mapping → record id (for msync attribution).
    maps: Mutex<HashMap<u64, u64>>,
    /// stream → record id.
    streams: Mutex<HashMap<u64, u64>>,
    /// interned path → POSIX record id. Filled the first time a path is
    /// seen; module records are never evicted, so a hit means the record
    /// exists and the fold can skip resolving the string and re-hashing
    /// it into a record id.
    posix_recs: Mutex<HashMap<PathId, u64>>,
    /// interned path → STDIO record id (separate module, separate map:
    /// a path opened via POSIX may have no STDIO record yet).
    stdio_recs: Mutex<HashMap<PathId, u64>>,
}

impl DarshanSink {
    /// New sink folding into `rt`.
    pub fn new(rt: Arc<DarshanRuntime>) -> Arc<Self> {
        Arc::new(DarshanSink {
            rt,
            fds: Mutex::new(HashMap::new()),
            maps: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            posix_recs: Mutex::new(HashMap::new()),
            stdio_recs: Mutex::new(HashMap::new()),
        })
    }

    /// Resolve the record id of `fd`, registering lazily for descriptors
    /// opened before attachment (their `open` predates the sink, so the
    /// path travels on the event instead — à la `/proc/self/fd`).
    fn rec_of(&self, fd: i32, path: PathId) -> Option<u64> {
        if let Some(id) = self.fds.lock().get(&fd) {
            return Some(*id);
        }
        let id = memo_open(
            &self.posix_recs,
            path,
            |_| {},
            |p| self.rt.posix_register_existing(p),
        )?;
        self.fds.lock().insert(fd, id);
        Some(id)
    }

    fn fold(&self, ev: &IoEvent) {
        // Symbol-level instrumentation only sees what the *application*
        // called: libc-internal descriptor traffic, background prefetch
        // daemon I/O, and page faults never reach the wrapped symbols.
        if ev.origin != Origin::App {
            return;
        }
        let rt = &self.rt;
        let (t0, t1) = (ev.t0, ev.t1);
        let fd_meta = |fd, counter| {
            if let Some(id) = self.rec_of(fd, ev.target) {
                rt.posix_meta(id, counter, t0, t1);
            }
        };
        let stream_rec = |stream| self.streams.lock().get(&stream).copied();
        let stream_meta = |stream, counter| {
            if let Some(id) = stream_rec(stream) {
                rt.stdio_meta(id, counter, t0, t1);
            }
        };
        match ev.kind {
            EventKind::Open { fd } => {
                let reopen = |id| rt.posix_reopen(id, t0, t1);
                let open = |p: &str| rt.posix_open(p, t0, t1);
                if let Some(id) = memo_open(&self.posix_recs, ev.target, reopen, open) {
                    self.fds.lock().insert(fd, id);
                }
            }
            EventKind::Close { fd } => {
                // No lazy registration on close (mirrors the old wrapper):
                // a descriptor first seen at close has nothing to record.
                if let Some(id) = self.fds.lock().remove(&fd) {
                    rt.posix_close(id, t0, t1);
                }
            }
            EventKind::Read { fd, offset, len } => {
                if let Some(id) = self.rec_of(fd, ev.target) {
                    rt.posix_read(id, offset, len, t0, t1);
                }
            }
            EventKind::Write { fd, offset, len } => {
                if let Some(id) = self.rec_of(fd, ev.target) {
                    rt.posix_write(id, offset, len, t0, t1);
                }
            }
            EventKind::Seek { fd, .. } => fd_meta(fd, P::POSIX_SEEKS),
            EventKind::Stat => {
                let stat = |id| rt.posix_meta(id, P::POSIX_STATS, t0, t1);
                let stat_path = |p: &str| rt.posix_stat_path(p, t0, t1);
                memo_open(&self.posix_recs, ev.target, stat, stat_path);
            }
            EventKind::Fstat { fd } => fd_meta(fd, P::POSIX_STATS),
            EventKind::Fsync { fd } => fd_meta(fd, P::POSIX_FSYNCS),
            EventKind::Mmap { map, fd, .. } => {
                if let Some(id) = self.rec_of(fd, ev.target) {
                    rt.posix_meta(id, P::POSIX_MMAPS, t0, t1);
                    self.maps.lock().insert(map, id);
                }
            }
            EventKind::Msync { map } => {
                let rec = self.maps.lock().get(&map).copied();
                if let Some(id) = rec {
                    rt.posix_meta(id, P::POSIX_MSYNCS, t0, t1);
                }
            }
            EventKind::Munmap { map } => {
                self.maps.lock().remove(&map);
            }
            EventKind::MmapFault { .. } => {} // not a syscall: blind spot
            EventKind::StdioOpen { stream } => {
                let reopen = |id| rt.stdio_reopen(id, t0, t1);
                let open = |p: &str| rt.stdio_open(p, t0, t1);
                if let Some(id) = memo_open(&self.stdio_recs, ev.target, reopen, open) {
                    self.streams.lock().insert(stream, id);
                }
            }
            EventKind::StdioClose { stream } => {
                if let Some(id) = self.streams.lock().remove(&stream) {
                    rt.stdio_close(id, t0, t1);
                }
            }
            EventKind::StdioRead { stream, pos, len } => {
                if let Some(id) = stream_rec(stream) {
                    rt.stdio_read(id, pos, len, t0, t1);
                }
            }
            EventKind::StdioWrite { stream, pos, len } => {
                if let Some(id) = stream_rec(stream) {
                    rt.stdio_write(id, pos, len, t0, t1);
                }
            }
            EventKind::StdioSeek { stream, .. } => stream_meta(stream, S::STDIO_SEEKS),
            EventKind::StdioFlush { stream } => stream_meta(stream, S::STDIO_FLUSHES),
            EventKind::TraceSpan { .. } => {} // profiler-side, not I/O
            EventKind::Sync { .. } => {}      // ordering metadata, not I/O
        }
    }
}

/// Open `target` on one module through its interned-path memo: a hit
/// hands the known record id to `hit`; a miss resolves the path, lets
/// `miss` find or create the record, and memoizes the id it returns.
fn memo_open(
    memo: &Mutex<HashMap<PathId, u64>>,
    target: PathId,
    hit: impl FnOnce(u64),
    miss: impl FnOnce(&str) -> Option<u64>,
) -> Option<u64> {
    let known = memo.lock().get(&target).copied();
    if let Some(id) = known {
        hit(id);
        return Some(id);
    }
    let id = miss(&target.resolve())?;
    memo.lock().insert(target, id);
    Some(id)
}

impl ProbeSink for DarshanSink {
    fn on_events(&self, events: &[IoEvent]) {
        for ev in events {
            self.fold(ev);
        }
    }
}
