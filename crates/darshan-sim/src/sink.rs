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
//! * `fd → record slot` is seeded by observed `open`s and recovered lazily for
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
//!
//! # Cost per event
//!
//! A delivered batch takes the sink's memo lock and the runtime's module
//! lock once (`DarshanRuntime::bufs`), not once per event. The
//! memos map interned paths, descriptors, streams and mappings to record
//! *slots* in integer-keyed maps, so a read, write, seek or close on a
//! known file is a memo lookup plus indexed writes into its record and
//! its DXT list. A path is resolved and hashed into a record id only the
//! first time this sink sees it, and its name is registered with the
//! interner's shared `Arc<str>`.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use parking_lot::Mutex;
use probe::{EventKind, IoEvent, Origin, PathId, ProbeSink};

use crate::counters::{PosixCounter as P, StdioCounter as S};
use crate::idmap::IdMap;
use crate::runtime::{Bufs, DarshanRuntime, DxtOp};

/// Folds probe events into a [`DarshanRuntime`]'s module buffers.
pub struct DarshanSink {
    rt: Arc<DarshanRuntime>,
    memo: Mutex<Memo>,
}

/// The fold's descriptor bookkeeping, all keyed to record slots.
#[derive(Default)]
struct Memo {
    /// fd → POSIX slot (lazily recovered for pre-attachment descriptors).
    fds: IdMap<i32, u32>,
    /// mapping → POSIX slot (for msync attribution).
    maps: IdMap<u64, u32>,
    /// stream → STDIO slot.
    streams: IdMap<u64, u32>,
    /// interned path → POSIX slot. Filled the first time a path is seen;
    /// records are never evicted, so a hit means the record exists.
    posix_paths: IdMap<PathId, u32>,
    /// interned path → STDIO slot (separate module, separate map: a path
    /// opened via POSIX may have no STDIO record yet).
    stdio_paths: IdMap<PathId, u32>,
}

impl DarshanSink {
    /// New sink folding into `rt`.
    pub fn new(rt: Arc<DarshanRuntime>) -> Arc<Self> {
        Arc::new(DarshanSink {
            rt,
            memo: Mutex::default(),
        })
    }
}

impl Memo {
    /// The POSIX slot of `path`, creating its record on first sight; `None`
    /// while the module is out of record memory (not memoized, so a later
    /// event retries, as the runtime's own mutators do).
    fn posix_path(&mut self, b: &mut Bufs<'_>, path: PathId) -> Option<u32> {
        match self.posix_paths.entry(path) {
            Entry::Occupied(slot) => Some(*slot.get()),
            Entry::Vacant(memo) => Some(*memo.insert(b.posix_slot(path.resolve())?)),
        }
    }

    fn stdio_path(&mut self, b: &mut Bufs<'_>, path: PathId) -> Option<u32> {
        match self.stdio_paths.entry(path) {
            Entry::Occupied(slot) => Some(*slot.get()),
            Entry::Vacant(memo) => Some(*memo.insert(b.stdio_slot(path.resolve())?)),
        }
    }

    /// The POSIX slot of `fd`, registering lazily for descriptors opened
    /// before attachment (their `open` predates the sink, so the path
    /// travels on the event instead — à la `/proc/self/fd`).
    fn fd_slot(&mut self, b: &mut Bufs<'_>, fd: i32, path: PathId) -> Option<u32> {
        if let Some(&slot) = self.fds.get(&fd) {
            return Some(slot);
        }
        let slot = self.posix_path(b, path)?;
        self.fds.insert(fd, slot);
        Some(slot)
    }

    fn fold(&mut self, b: &mut Bufs<'_>, ev: &IoEvent) {
        let (t0, t1) = (ev.t0, ev.t1);
        let mut fd_meta = |m: &mut Self, fd, counter| {
            if let Some(slot) = m.fd_slot(b, fd, ev.target) {
                b.posix_meta(slot, counter, t0, t1);
            }
        };
        match ev.kind {
            EventKind::Open { fd } => {
                b.count_open();
                if let Some(slot) = self.posix_path(b, ev.target) {
                    b.posix_opened(slot, t0, t1);
                    self.fds.insert(fd, slot);
                }
            }
            EventKind::Close { fd } => {
                // No lazy registration on close (mirrors the old wrapper):
                // a descriptor first seen at close has nothing to record.
                if let Some(slot) = self.fds.remove(&fd) {
                    b.posix_closed(slot, t0, t1);
                }
            }
            EventKind::Read { fd, offset, len } => {
                if let Some(slot) = self.fd_slot(b, fd, ev.target) {
                    b.posix_io(slot, DxtOp::Read, offset, len, t0, t1);
                }
            }
            EventKind::Write { fd, offset, len } => {
                if let Some(slot) = self.fd_slot(b, fd, ev.target) {
                    b.posix_io(slot, DxtOp::Write, offset, len, t0, t1);
                }
            }
            EventKind::Seek { fd, .. } => fd_meta(self, fd, P::POSIX_SEEKS),
            EventKind::Stat => {
                if let Some(slot) = self.posix_path(b, ev.target) {
                    b.posix_meta(slot, P::POSIX_STATS, t0, t1);
                }
            }
            EventKind::Fstat { fd } => fd_meta(self, fd, P::POSIX_STATS),
            EventKind::Fsync { fd } => fd_meta(self, fd, P::POSIX_FSYNCS),
            EventKind::Mmap { map, fd, .. } => {
                if let Some(slot) = self.fd_slot(b, fd, ev.target) {
                    b.posix_meta(slot, P::POSIX_MMAPS, t0, t1);
                    self.maps.insert(map, slot);
                }
            }
            EventKind::Msync { map } => {
                if let Some(&slot) = self.maps.get(&map) {
                    b.posix_meta(slot, P::POSIX_MSYNCS, t0, t1);
                }
            }
            EventKind::Munmap { map } => {
                self.maps.remove(&map);
            }
            EventKind::StdioOpen { stream } => {
                if let Some(slot) = self.stdio_path(b, ev.target) {
                    b.stdio_opened(slot, t0, t1);
                    self.streams.insert(stream, slot);
                }
            }
            EventKind::StdioClose { stream } => {
                if let Some(slot) = self.streams.remove(&stream) {
                    b.stdio_closed(slot, t0, t1);
                }
            }
            EventKind::StdioRead { stream, pos, len } => {
                if let Some(&slot) = self.streams.get(&stream) {
                    b.stdio_io(slot, false, pos, len, t0, t1);
                }
            }
            EventKind::StdioWrite { stream, pos, len } => {
                if let Some(&slot) = self.streams.get(&stream) {
                    b.stdio_io(slot, true, pos, len, t0, t1);
                }
            }
            EventKind::StdioSeek { stream, .. } => {
                if let Some(&slot) = self.streams.get(&stream) {
                    b.stdio_meta(slot, S::STDIO_SEEKS, t0, t1);
                }
            }
            EventKind::StdioFlush { stream } => {
                if let Some(&slot) = self.streams.get(&stream) {
                    b.stdio_meta(slot, S::STDIO_FLUSHES, t0, t1);
                }
            }
            // Never folded; `on_events` skips them before taking locks.
            EventKind::MmapFault { .. } | EventKind::TraceSpan { .. } | EventKind::Sync { .. } => {}
        }
    }
}

impl ProbeSink for DarshanSink {
    fn on_events(&self, events: &[IoEvent]) {
        let mut memo = self.memo.lock();
        let mut bufs = None;
        for ev in events {
            // Symbol-level instrumentation only sees what the *application*
            // called: libc-internal descriptor traffic, background prefetch
            // daemon I/O, page faults (not syscalls: a blind spot), and the
            // profiler's own spans and sync edges never reach the wrapped
            // symbols.
            let folded = !matches!(
                ev.kind,
                EventKind::MmapFault { .. } | EventKind::TraceSpan { .. } | EventKind::Sync { .. }
            );
            if ev.origin == Origin::App && folded {
                memo.fold(bufs.get_or_insert_with(|| self.rt.bufs()), ev);
            }
        }
    }
}
