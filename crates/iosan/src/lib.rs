//! # iosan — a happens-before race detector and I/O sanitizer
//!
//! Consumes the probe spine ([`probe::IoEvent`] stream, including the
//! [`probe::EventKind::Sync`] events bridged from `simrt`) and reports
//! correctness violations as a structured [`SanitizerReport`]:
//!
//! * **File-range data races** — Eraser-style lockset analysis combined with
//!   a vector-clock happens-before engine. Two accesses race when their DXT
//!   byte ranges overlap, they come from different simulated threads, at
//!   least one is a write, no ordering edge connects them and they share no
//!   lock. Because the spine delivers events in global op-completion order,
//!   a single forward pass with one clock per task suffices (the FastTrack
//!   epoch test).
//! * **FD-lifecycle violations** — use-after-close, double-close, and
//!   descriptors still open when their opening task finished.
//! * **Symtab imbalance** — GOT symbols left patched after detach (the
//!   paper's reversibility guarantee), via [`IoSanitizer::note_patched_symbols`].
//! * **Origin leaks** — Prefetch/stdio-internal bytes folded into App-only
//!   statistics, via [`IoSanitizer::audit_app_fold`].
//! * **Predicted deadlocks** — cycles in the lock-order graph built from
//!   acquire events, reported even when this run's interleaving got lucky.
//!
//! ## Happens-before edges
//!
//! Ordering is rebuilt from sync events conservatively: every earlier
//! release-half ([`SyncOp::Signal`], mutex [`SyncOp::Release`]) on an object
//! happens-before every later acquire-half ([`SyncOp::Wait`],
//! [`SyncOp::Acquire`]) on the same object, plus spawn/join/finish edges.
//! This over-approximates the true ordering of FIFO channels and semaphores,
//! which can only suppress races, never invent them — the right bias for a
//! gate that must be quiet on clean runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hb;
mod report;
mod vc;

pub use hb::HbIndex;
pub use report::{Category, Finding, SanitizerReport, SanitizerSummary, Segment, Severity};
pub use vc::VectorClock;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use probe::{EventKind, IoEvent, Origin, PathId, ProbeBus, ProbeSink, SinkId, SyncBridge};
use simrt::{Sim, SyncOp};

/// One byte-range access retained for race checking. Stores the FastTrack
/// epoch (`task`, `own`) instead of a full clock: the earlier access `a`
/// happens-before the current one iff `a.own <= clock_now[a.task]`.
#[derive(Clone, Debug)]
struct Access {
    task: u64,
    own: u64,
    offset: u64,
    len: u64,
    write: bool,
    t0: f64,
    t1: f64,
    event: u64,
    /// Sorted ids of locks held across the access.
    locks: Vec<u64>,
}

impl Access {
    fn overlaps(&self, offset: u64, len: u64) -> bool {
        self.len > 0 && len > 0 && self.offset < offset + len && offset < self.offset + self.len
    }

    fn segment(&self) -> Segment {
        Segment {
            task: self.task,
            offset: self.offset,
            len: self.len,
            write: self.write,
            start: self.t0,
            end: self.t1,
            event: self.event,
        }
    }
}

#[derive(Default)]
struct FileHistory {
    writes: Vec<Access>,
    reads: Vec<Access>,
}

struct FdState {
    path: PathId,
    opened_by: u64,
    open_event: u64,
    closed: Option<u64>,
    /// Event id of the opener's Finish, when it finished with the fd open.
    opener_finish: Option<u64>,
}

#[derive(Default)]
struct Inner {
    next_event: u64,
    clocks: HashMap<u64, VectorClock>,
    /// Locks currently held per task (insertion order = acquisition order).
    held: HashMap<u64, Vec<u64>>,
    /// Accumulated release clocks per lock id.
    rel_clocks: HashMap<u64, VectorClock>,
    /// Accumulated signal clocks per sync object id.
    sig_clocks: HashMap<u64, VectorClock>,
    /// Final clocks of finished tasks (join targets).
    finish_clocks: HashMap<u64, VectorClock>,
    /// Lock-order graph: (held, then-acquired) → first witness event id.
    lock_edges: BTreeMap<(u64, u64), u64>,
    /// Labels of sync objects, from event targets (interned ids; resolved
    /// only when a finding is rendered).
    obj_labels: HashMap<u64, PathId>,
    files: HashMap<PathId, FileHistory>,
    /// Descriptor state keyed by `(pid, fd)`: a sanitizer watching a
    /// job's rank buses folds several processes, each with its own fd
    /// namespace, so fd numbers collide across them.
    fds: HashMap<(u32, i32), FdState>,
    /// Race dedup: one finding per (file, task pair).
    reported_races: HashSet<(PathId, u64, u64)>,
    findings: Vec<Finding>,
    app_bytes: u64,
    prefetch_bytes: u64,
    stdio_internal_bytes: u64,
    tasks_seen: BTreeSet<u64>,
    locks_seen: BTreeSet<u64>,
}

impl Inner {
    fn clock(&mut self, task: u64) -> &mut VectorClock {
        self.clocks.entry(task).or_insert_with(|| {
            let mut c = VectorClock::new();
            c.tick(task);
            c
        })
    }

    fn lockset(&self, task: u64) -> Vec<u64> {
        let mut ls = self.held.get(&task).cloned().unwrap_or_default();
        ls.sort_unstable();
        ls
    }

    fn fold(&mut self, ev: &IoEvent) {
        let eid = self.next_event;
        self.next_event += 1;
        let task = ev.task.0;
        self.tasks_seen.insert(task);
        match &ev.kind {
            EventKind::Sync { op, obj } => self.fold_sync(task, *op, *obj, ev.target, eid),
            EventKind::Open { fd } => {
                self.fds.insert(
                    (ev.pid, *fd),
                    FdState {
                        path: ev.target,
                        opened_by: task,
                        open_event: eid,
                        closed: None,
                        opener_finish: None,
                    },
                );
            }
            EventKind::Close { fd } => {
                if let Some(st) = self.fds.get_mut(&(ev.pid, *fd)) {
                    match st.closed {
                        Some(prev) => {
                            let path = st.path.to_string();
                            self.findings.push(Finding {
                                severity: Severity::Error,
                                category: Category::DoubleClose,
                                message: format!(
                                    "t{} closed fd {} ({}) twice (first closed at event #{})",
                                    task, fd, path, prev
                                ),
                                file: path,
                                tasks: vec![task],
                                segments: vec![],
                                witnesses: vec![prev, eid],
                            });
                        }
                        None => st.closed = Some(eid),
                    }
                }
            }
            EventKind::Read { fd, offset, len } => {
                self.ledger(ev.origin, *len);
                self.check_use_after_close(task, ev.pid, *fd, "read", eid);
                self.record_access(ev, task, *offset, *len, false, eid);
            }
            EventKind::Write { fd, offset, len } => {
                self.ledger(ev.origin, *len);
                self.check_use_after_close(task, ev.pid, *fd, "write", eid);
                self.record_access(ev, task, *offset, *len, true, eid);
            }
            EventKind::MmapFault {
                offset, len, write, ..
            } => {
                // Faults are real data movement on the file's byte range but
                // not descriptor operations: race-checked, no fd lifecycle.
                self.record_access(ev, task, *offset, *len, *write, eid);
            }
            EventKind::Seek { fd, .. } => {
                self.check_use_after_close(task, ev.pid, *fd, "lseek", eid)
            }
            EventKind::Fstat { fd } => self.check_use_after_close(task, ev.pid, *fd, "fstat", eid),
            EventKind::Fsync { fd } => self.check_use_after_close(task, ev.pid, *fd, "fsync", eid),
            EventKind::Mmap { fd, .. } => {
                self.check_use_after_close(task, ev.pid, *fd, "mmap", eid)
            }
            // Stream-level events live in stream-position space, not file
            // offsets; the underlying descriptor traffic arrives separately
            // as stdio-internal Read/Write events with true offsets. MPI-IO
            // calls likewise arrive with the descriptor I/O beneath them.
            EventKind::Msync { .. }
            | EventKind::Munmap { .. }
            | EventKind::Stat
            | EventKind::StdioOpen { .. }
            | EventKind::StdioClose { .. }
            | EventKind::StdioRead { .. }
            | EventKind::StdioWrite { .. }
            | EventKind::StdioSeek { .. }
            | EventKind::StdioFlush { .. }
            | EventKind::MpiOpen { .. }
            | EventKind::MpiClose
            | EventKind::MpiIo { .. } => {}
        }
    }

    fn ledger(&mut self, origin: Origin, len: u64) {
        match origin {
            Origin::App => self.app_bytes += len,
            Origin::Prefetch => self.prefetch_bytes += len,
            Origin::StdioInternal => self.stdio_internal_bytes += len,
        }
    }

    fn fold_sync(&mut self, task: u64, op: SyncOp, obj: u64, label: PathId, eid: u64) {
        match op {
            SyncOp::Acquire => {
                self.obj_labels.insert(obj, label);
                self.locks_seen.insert(obj);
                if let Some(rel) = self.rel_clocks.get(&obj).cloned() {
                    self.clock(task).join(&rel);
                }
                let held = self.held.entry(task).or_default();
                let order_edges: Vec<(u64, u64)> = held
                    .iter()
                    .map(|&h| (h, obj))
                    .filter(|(h, o)| h != o)
                    .collect();
                held.push(obj);
                for e in order_edges {
                    self.lock_edges.entry(e).or_insert(eid);
                }
            }
            SyncOp::Release => {
                if let Some(held) = self.held.get_mut(&task) {
                    if let Some(pos) = held.iter().rposition(|&h| h == obj) {
                        held.remove(pos);
                    }
                }
                let snap = self.clock(task).clone();
                self.rel_clocks.entry(obj).or_default().join(&snap);
                self.clock(task).tick(task);
            }
            SyncOp::Signal => {
                self.obj_labels.insert(obj, label);
                let snap = self.clock(task).clone();
                self.sig_clocks.entry(obj).or_default().join(&snap);
                self.clock(task).tick(task);
            }
            SyncOp::Wait => {
                if let Some(sig) = self.sig_clocks.get(&obj).cloned() {
                    self.clock(task).join(&sig);
                }
            }
            SyncOp::Spawn => {
                // `obj` is the child task id: the child starts with the
                // parent's knowledge plus its own component.
                let snap = self.clock(task).clone();
                self.clock(obj).join(&snap);
                self.clock(task).tick(task);
            }
            SyncOp::Join => {
                if let Some(fin) = self.finish_clocks.get(&obj).cloned() {
                    self.clock(task).join(&fin);
                }
            }
            SyncOp::Finish => {
                let snap = self.clock(task).clone();
                self.finish_clocks.insert(task, snap);
                for st in self.fds.values_mut() {
                    if st.opened_by == task && st.closed.is_none() {
                        st.opener_finish = Some(eid);
                    }
                }
            }
        }
    }

    fn check_use_after_close(&mut self, task: u64, pid: u32, fd: i32, opname: &str, eid: u64) {
        if let Some(st) = self.fds.get(&(pid, fd)) {
            if let Some(closed_at) = st.closed {
                let path = st.path.to_string();
                self.findings.push(Finding {
                    severity: Severity::Error,
                    category: Category::UseAfterClose,
                    message: format!(
                        "t{} called {} on fd {} ({}) after it was closed at event #{}",
                        task, opname, fd, path, closed_at
                    ),
                    file: path,
                    tasks: vec![task],
                    segments: vec![],
                    witnesses: vec![closed_at, eid],
                });
            }
        }
    }

    fn record_access(
        &mut self,
        ev: &IoEvent,
        task: u64,
        offset: u64,
        len: u64,
        write: bool,
        eid: u64,
    ) {
        if len == 0 {
            return;
        }
        let access = Access {
            task,
            own: self.clock(task).get(task),
            offset,
            len,
            write,
            t0: ev.t0.as_secs_f64(),
            t1: ev.t1.as_secs_f64(),
            event: eid,
            locks: self.lockset(task),
        };
        let clock_now = self.clock(task).clone();
        let path = ev.target;
        // Writes race with everything; reads race only with writes, so a
        // read is never compared against the (much larger) read history.
        let hist = self.files.entry(path).or_default();
        let mut race_with: Vec<Access> = Vec::new();
        {
            let candidates = if write {
                hist.writes.iter().chain(hist.reads.iter())
            } else {
                #[allow(clippy::iter_on_empty_collections)]
                hist.writes.iter().chain([].iter())
            };
            for prior in candidates {
                if prior.task == task || !prior.overlaps(offset, len) {
                    continue;
                }
                let ordered = prior.own <= clock_now.get(prior.task);
                if ordered {
                    continue;
                }
                let common_lock = prior
                    .locks
                    .iter()
                    .any(|l| access.locks.binary_search(l).is_ok());
                if common_lock {
                    continue;
                }
                race_with.push(prior.clone());
            }
        }
        if write {
            hist.writes.push(access.clone());
        } else {
            hist.reads.push(access.clone());
        }
        for prior in race_with {
            let key = (path, prior.task.min(task), prior.task.max(task));
            if !self.reported_races.insert(key) {
                continue;
            }
            self.findings.push(Finding {
                severity: Severity::Error,
                category: Category::DataRace,
                message: format!(
                    "unordered {} by t{} overlaps {} by t{} on {} (no happens-before edge, no common lock)",
                    if write { "write" } else { "read" },
                    task,
                    if prior.write { "write" } else { "read" },
                    prior.task,
                    path
                ),
                file: path.to_string(),
                tasks: vec![prior.task, task],
                segments: vec![prior.segment(), access.segment()],
                witnesses: vec![prior.event, access.event],
            });
        }
    }

    /// Lock-order cycle detection over the acquired-while-holding graph.
    /// Every traversal order here is sorted — roots, children, and the
    /// color/reported bookkeeping — so the chosen witness cycle and its
    /// event ids are identical across runs (see
    /// `lock_cycle_witnesses_are_stable_across_runs`).
    fn detect_lock_cycles(&mut self) {
        let mut adj: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(a, b) in self.lock_edges.keys() {
            adj.entry(a).or_default().push(b);
        }
        for children in adj.values_mut() {
            children.sort_unstable();
            children.dedup();
        }
        // Iterative DFS with colors; report each cycle once by its sorted
        // node set.
        let mut reported: BTreeSet<Vec<u64>> = BTreeSet::new();
        let mut color: BTreeMap<u64, u8> = BTreeMap::new(); // 0 white 1 grey 2 black
        for &start in adj.keys() {
            if color.get(&start).copied().unwrap_or(0) != 0 {
                continue;
            }
            // stack of (node, next-child-index), plus the grey path.
            let mut stack: Vec<(u64, usize)> = vec![(start, 0)];
            let mut path: Vec<u64> = vec![start];
            color.insert(start, 1);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let children = adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
                if *idx >= children.len() {
                    color.insert(node, 2);
                    stack.pop();
                    path.pop();
                    continue;
                }
                let child = children[*idx];
                *idx += 1;
                match color.get(&child).copied().unwrap_or(0) {
                    0 => {
                        color.insert(child, 1);
                        stack.push((child, 0));
                        path.push(child);
                    }
                    1 => {
                        // Back edge: the cycle is the path suffix from child.
                        let from = path.iter().position(|&n| n == child).unwrap_or(0);
                        let mut cycle: Vec<u64> = path[from..].to_vec();
                        let mut key = cycle.clone();
                        key.sort_unstable();
                        if reported.insert(key) {
                            cycle.push(child); // close the loop for display
                            let names: Vec<String> = cycle
                                .iter()
                                .map(|l| {
                                    self.obj_labels
                                        .get(l)
                                        .map(|s| s.to_string())
                                        .unwrap_or_else(|| format!("lock#{l}"))
                                })
                                .collect();
                            let witnesses: Vec<u64> = cycle
                                .windows(2)
                                .filter_map(|w| self.lock_edges.get(&(w[0], w[1])).copied())
                                .collect();
                            self.findings.push(Finding {
                                severity: Severity::Warning,
                                category: Category::LockOrderCycle,
                                message: format!(
                                    "lock-order cycle (potential deadlock): {}",
                                    names.join(" -> ")
                                ),
                                file: String::new(),
                                tasks: vec![],
                                segments: vec![],
                                witnesses,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn finalize(&mut self) -> SanitizerReport {
        // FD leaks: opener finished with the fd open, and nobody ever
        // closed it before the run ended. `fds` is a HashMap, so sort the
        // survivors by open event id — execution order — to keep finding
        // order (and thus the report) deterministic across runs.
        let mut leaks: Vec<(i32, PathId, u64, u64, u64)> = self
            .fds
            .iter()
            .filter_map(|((_pid, fd), st)| match (st.closed, st.opener_finish) {
                (None, Some(fin)) => Some((*fd, st.path, st.opened_by, st.open_event, fin)),
                _ => None,
            })
            .collect();
        leaks.sort_unstable_by_key(|&(fd, _, _, open_event, _)| (open_event, fd));
        for (fd, path, opener, open_event, fin) in leaks {
            self.findings.push(Finding {
                severity: Severity::Warning,
                category: Category::FdLeak,
                message: format!(
                    "fd {} ({}) opened by t{} was still open when the task finished and was never closed",
                    fd, path, opener
                ),
                file: path.to_string(),
                tasks: vec![opener],
                segments: vec![],
                witnesses: vec![open_event, fin],
            });
        }
        self.detect_lock_cycles();
        let mut findings = std::mem::take(&mut self.findings);
        findings.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.category.name().cmp(b.category.name()))
                .then_with(|| a.file.cmp(&b.file))
        });
        SanitizerReport {
            findings,
            events_analyzed: self.next_event,
            tasks_seen: self.tasks_seen.len() as u64,
            files_tracked: self.files.len() as u64,
            locks_tracked: self.locks_seen.len() as u64,
            app_bytes: self.app_bytes,
            prefetch_bytes: self.prefetch_bytes,
            stdio_internal_bytes: self.stdio_internal_bytes,
        }
    }
}

/// The sanitizer: a [`ProbeSink`] that folds the event spine into
/// happens-before, lockset, fd-lifecycle and lock-order state.
#[derive(Default)]
pub struct IoSanitizer {
    inner: Mutex<Inner>,
}

impl IoSanitizer {
    /// New sanitizer with empty state.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Register the sanitizer on every bus in `buses` (one process's, or
    /// each rank's of a job) and bridge `sim`'s sync events onto the first.
    /// The probe ring delivers runs across buses in emission order, so the
    /// sanitizer folds one interleaved I/O and sync stream. Call before
    /// `sim.run()`; call [`SanitizerHandle::finalize`] after it returns.
    pub fn install(sim: &Sim, buses: &[&ProbeBus]) -> SanitizerHandle {
        assert!(!buses.is_empty(), "the sanitizer needs a bus to watch");
        let san = Self::new();
        let sinks = buses
            .iter()
            .map(|&bus| (bus.clone(), bus.register(san.clone())))
            .collect();
        SyncBridge::install(sim, buses[0].clone());
        SanitizerHandle {
            sim: sim.clone(),
            sinks,
            san,
        }
    }

    /// Record the symtab balance check: `patched` is the list of GOT
    /// symbols still patched after detach (from
    /// `Got::patched_symbols`). Non-empty means the paper's reversibility
    /// guarantee is broken.
    pub fn note_patched_symbols(&self, patched: &[String]) {
        if patched.is_empty() {
            return;
        }
        self.inner.lock().findings.push(Finding {
            severity: Severity::Error,
            category: Category::SymtabImbalance,
            message: format!(
                "{} GOT symbol(s) left patched after detach: [{}]",
                patched.len(),
                patched.join(", ")
            ),
            file: String::new(),
            tasks: vec![],
            segments: vec![],
            witnesses: vec![],
        });
    }

    /// Origin audit: Darshan's App-only fold claims `folded_bytes` of POSIX
    /// read+write traffic. If that exceeds the App-origin bytes the spine
    /// actually carried, non-application events (prefetch daemon,
    /// stdio-internal) leaked into application statistics.
    pub fn audit_app_fold(&self, folded_bytes: u64) {
        let mut inner = self.inner.lock();
        if folded_bytes > inner.app_bytes {
            let (app, pf, si) = (
                inner.app_bytes,
                inner.prefetch_bytes,
                inner.stdio_internal_bytes,
            );
            inner.findings.push(Finding {
                severity: Severity::Error,
                category: Category::OriginLeak,
                message: format!(
                    "App-only statistics claim {} B but the spine carried only {} B of App-origin traffic ({} B prefetch, {} B stdio-internal are candidates for the leak)",
                    folded_bytes, app, pf, si
                ),
                file: String::new(),
                tasks: vec![],
                segments: vec![],
                witnesses: vec![],
            });
        }
    }

    /// Finalize without a handle (for streams fed manually via
    /// [`ProbeSink::on_events`]). Consumes accumulated state.
    pub fn finalize_report(&self) -> SanitizerReport {
        self.inner.lock().finalize()
    }
}

impl ProbeSink for IoSanitizer {
    fn on_events(&self, events: &[IoEvent]) {
        let mut inner = self.inner.lock();
        for ev in events {
            inner.fold(ev);
        }
    }
}

/// Keeps the sanitizer wired to a live simulation; finalize after
/// `Sim::run` to unhook and collect the report.
pub struct SanitizerHandle {
    sim: Sim,
    sinks: Vec<(ProbeBus, SinkId)>,
    san: Arc<IoSanitizer>,
}

impl SanitizerHandle {
    /// The underlying sanitizer (for audits before finalize).
    pub fn sanitizer(&self) -> &Arc<IoSanitizer> {
        &self.san
    }

    /// Unhook from the buses and scheduler and produce the report.
    pub fn finalize(self) -> SanitizerReport {
        for (bus, id) in &self.sinks {
            bus.unregister(*id); // flushes the calling thread
        }
        self.sim.clear_sync_observer();
        self.san.finalize_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probe::Origin;
    use simrt::{SimTime, TaskId};
    use std::time::Duration;

    fn ev(task: u64, kind: EventKind) -> IoEvent {
        IoEvent {
            task: TaskId(task),
            pid: 0,
            t0: SimTime::ZERO,
            t1: SimTime::ZERO + Duration::from_nanos(10),
            origin: Origin::App,
            target: probe::intern("/f"),
            kind,
        }
    }

    fn sync(task: u64, op: SyncOp, obj: u64) -> IoEvent {
        ev(task, EventKind::Sync { op, obj })
    }

    fn write(task: u64, fd: i32, offset: u64, len: u64) -> IoEvent {
        ev(task, EventKind::Write { fd, offset, len })
    }

    #[test]
    fn unordered_overlapping_writes_race() {
        let san = IoSanitizer::new();
        san.on_events(&[write(1, 3, 0, 100), write(2, 4, 50, 100)]);
        let r = san.finalize_report();
        assert_eq!(r.of_category(Category::DataRace).len(), 1);
        let f = &r.findings[0];
        assert_eq!(f.tasks, vec![1, 2]);
        assert_eq!(f.segments.len(), 2);
    }

    #[test]
    fn disjoint_ranges_do_not_race() {
        let san = IoSanitizer::new();
        san.on_events(&[write(1, 3, 0, 50), write(2, 4, 50, 50)]);
        assert!(san.finalize_report().is_clean());
    }

    #[test]
    fn signal_wait_edge_orders_accesses() {
        let san = IoSanitizer::new();
        san.on_events(&[
            write(1, 3, 0, 100),
            sync(1, SyncOp::Signal, 77),
            sync(2, SyncOp::Wait, 77),
            write(2, 4, 0, 100),
        ]);
        assert!(san.finalize_report().is_clean());
    }

    #[test]
    fn access_after_signal_still_races() {
        let san = IoSanitizer::new();
        san.on_events(&[
            sync(1, SyncOp::Signal, 77),
            write(1, 3, 0, 100), // after the signal: not covered by the edge
            sync(2, SyncOp::Wait, 77),
            write(2, 4, 0, 100),
        ]);
        let r = san.finalize_report();
        assert_eq!(r.of_category(Category::DataRace).len(), 1);
    }

    #[test]
    fn common_lock_suppresses_race() {
        let san = IoSanitizer::new();
        san.on_events(&[
            sync(1, SyncOp::Acquire, 9),
            write(1, 3, 0, 100),
            sync(1, SyncOp::Release, 9),
            // Task 2 acquires the same lock — both HB (release->acquire)
            // and lockset say this is fine; drop the HB edge by using a
            // different release order would still leave the common lock.
            sync(2, SyncOp::Acquire, 9),
            write(2, 4, 0, 100),
            sync(2, SyncOp::Release, 9),
        ]);
        assert!(san.finalize_report().is_clean());
    }

    #[test]
    fn reads_do_not_race_with_reads() {
        let san = IoSanitizer::new();
        san.on_events(&[
            ev(
                1,
                EventKind::Read {
                    fd: 3,
                    offset: 0,
                    len: 100,
                },
            ),
            ev(
                2,
                EventKind::Read {
                    fd: 4,
                    offset: 0,
                    len: 100,
                },
            ),
        ]);
        assert!(san.finalize_report().is_clean());
    }

    #[test]
    fn spawn_and_join_create_edges() {
        let san = IoSanitizer::new();
        san.on_events(&[
            write(1, 3, 0, 100),
            sync(1, SyncOp::Spawn, 2), // child 2 inherits parent's clock
            write(2, 4, 0, 100),       // ordered after parent's write
            sync(2, SyncOp::Finish, 2),
            sync(1, SyncOp::Join, 2),
            write(1, 3, 0, 100), // ordered after child's write
        ]);
        assert!(san.finalize_report().is_clean());
    }

    #[test]
    fn double_close_and_use_after_close() {
        let san = IoSanitizer::new();
        san.on_events(&[
            ev(1, EventKind::Open { fd: 3 }),
            ev(1, EventKind::Close { fd: 3 }),
            ev(1, EventKind::Close { fd: 3 }),
            ev(
                1,
                EventKind::Read {
                    fd: 3,
                    offset: 0,
                    len: 10,
                },
            ),
        ]);
        let r = san.finalize_report();
        assert_eq!(r.of_category(Category::DoubleClose).len(), 1);
        assert_eq!(r.of_category(Category::UseAfterClose).len(), 1);
        assert_eq!(r.errors(), 2);
    }

    #[test]
    fn fd_open_at_task_exit_leaks() {
        let san = IoSanitizer::new();
        san.on_events(&[ev(1, EventKind::Open { fd: 3 }), sync(1, SyncOp::Finish, 1)]);
        let r = san.finalize_report();
        assert_eq!(r.of_category(Category::FdLeak).len(), 1);
    }

    #[test]
    fn fd_closed_by_another_task_does_not_leak() {
        let san = IoSanitizer::new();
        san.on_events(&[
            ev(1, EventKind::Open { fd: 3 }),
            sync(1, SyncOp::Finish, 1),
            ev(2, EventKind::Close { fd: 3 }),
        ]);
        let r = san.finalize_report();
        assert!(r.of_category(Category::FdLeak).is_empty());
    }

    #[test]
    fn fd_namespaces_are_per_process() {
        // A sanitizer on several rank buses folds several fd tables: rank
        // A closing its fd 7 must not poison rank B's (different pid) fd 7.
        let at = |mut e: IoEvent, pid: u32| {
            e.pid = pid;
            e
        };
        let san = IoSanitizer::new();
        san.on_events(&[
            at(ev(1, EventKind::Open { fd: 7 }), 1),
            at(ev(1, EventKind::Close { fd: 7 }), 1),
            at(ev(2, EventKind::Open { fd: 7 }), 2),
            at(
                ev(
                    2,
                    EventKind::Read {
                        fd: 7,
                        offset: 0,
                        len: 8,
                    },
                ),
                2,
            ),
            at(ev(2, EventKind::Close { fd: 7 }), 2),
        ]);
        let r = san.finalize_report();
        assert!(r.of_category(Category::UseAfterClose).is_empty());
        assert!(r.of_category(Category::DoubleClose).is_empty());
    }

    #[test]
    fn lock_order_inversion_predicted() {
        let san = IoSanitizer::new();
        // t1: A then B; t2: B then A — no actual deadlock in this
        // interleaving, but the graph has a cycle.
        san.on_events(&[
            sync(1, SyncOp::Acquire, 1),
            sync(1, SyncOp::Acquire, 2),
            sync(1, SyncOp::Release, 2),
            sync(1, SyncOp::Release, 1),
            sync(2, SyncOp::Acquire, 2),
            sync(2, SyncOp::Acquire, 1),
            sync(2, SyncOp::Release, 1),
            sync(2, SyncOp::Release, 2),
        ]);
        let r = san.finalize_report();
        assert_eq!(r.of_category(Category::LockOrderCycle).len(), 1);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn consistent_lock_order_is_quiet() {
        let san = IoSanitizer::new();
        san.on_events(&[
            sync(1, SyncOp::Acquire, 1),
            sync(1, SyncOp::Acquire, 2),
            sync(1, SyncOp::Release, 2),
            sync(1, SyncOp::Release, 1),
            sync(2, SyncOp::Acquire, 1),
            sync(2, SyncOp::Acquire, 2),
            sync(2, SyncOp::Release, 2),
            sync(2, SyncOp::Release, 1),
        ]);
        assert!(san.finalize_report().is_clean());
    }

    #[test]
    fn symtab_and_origin_audits() {
        let san = IoSanitizer::new();
        san.on_events(&[write(1, 3, 0, 100)]);
        san.note_patched_symbols(&["read".to_string(), "open".to_string()]);
        san.audit_app_fold(150); // claims more than the 100 App bytes seen
        let r = san.finalize_report();
        assert_eq!(r.of_category(Category::SymtabImbalance).len(), 1);
        assert_eq!(r.of_category(Category::OriginLeak).len(), 1);
        assert_eq!(r.app_bytes, 100);
    }

    #[test]
    fn origin_audit_within_budget_is_quiet() {
        let san = IoSanitizer::new();
        san.on_events(&[write(1, 3, 0, 100)]);
        san.audit_app_fold(100);
        assert!(san.finalize_report().is_clean());
    }

    #[test]
    fn report_roundtrip_and_render() {
        let san = IoSanitizer::new();
        san.on_events(&[write(1, 3, 0, 100), write(2, 4, 0, 100)]);
        let r = san.finalize_report();
        let json = r.to_json();
        let text = r.render_ascii();
        assert!(text.contains("data-race"));
        assert!(json.contains("DataRace"));
        let s = r.summary();
        assert_eq!(s.findings, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.categories, vec!["data-race".to_string()]);
    }

    /// Acquire `b` while holding `a`, then release both: one a→b edge.
    fn nested(task: u64, a: u64, b: u64) -> Vec<IoEvent> {
        vec![
            sync(task, SyncOp::Acquire, a),
            sync(task, SyncOp::Acquire, b),
            sync(task, SyncOp::Release, b),
            sync(task, SyncOp::Release, a),
        ]
    }

    /// Regression test for the determinism of lock-order cycle prediction:
    /// with two overlapping cycles in the held→acquired graph, the chosen
    /// witness cycles, their order, and their witness event ids must be
    /// identical on every run over the same stream (the DFS iterates only
    /// sorted structures — no HashMap order anywhere in the walk).
    #[test]
    fn lock_cycle_witnesses_are_stable_across_runs() {
        let mut stream = Vec::new();
        stream.extend(nested(1, 1, 2)); // 1→2
        stream.extend(nested(2, 2, 1)); // 2→1: cycle {1,2}
        stream.extend(nested(3, 2, 3)); // 2→3
        stream.extend(nested(4, 3, 2)); // 3→2: cycle {2,3}
        let run = || {
            let san = IoSanitizer::new();
            san.on_events(&stream);
            san.finalize_report()
        };
        let a = run();
        let b = run();
        let cycles_a = a.of_category(Category::LockOrderCycle);
        assert_eq!(
            cycles_a.len(),
            2,
            "both cycles predicted: {}",
            a.render_ascii()
        );
        // Byte-identical reports run to run: same cycles, same order, same
        // witness event ids.
        assert_eq!(a.to_json(), b.to_json());
        // And the witnesses are the expected first-edge event ids, not
        // whatever a hash order happened to visit.
        for f in &cycles_a {
            assert!(!f.witnesses.is_empty(), "cycle carries edge witnesses");
        }
        assert_eq!(
            cycles_a[0].fingerprint(),
            b.of_category(Category::LockOrderCycle)[0].fingerprint()
        );
    }

    /// FD leak findings come out sorted by open event id (execution order),
    /// not HashMap order.
    #[test]
    fn fd_leak_findings_are_ordered_by_open_event() {
        let run = || {
            let san = IoSanitizer::new();
            san.on_events(&[
                ev(1, EventKind::Open { fd: 9 }),
                ev(1, EventKind::Open { fd: 3 }),
                ev(1, EventKind::Open { fd: 7 }),
                sync(1, SyncOp::Finish, 1),
            ]);
            san.finalize_report()
        };
        let a = run();
        let leaks = a.of_category(Category::FdLeak);
        assert_eq!(leaks.len(), 3);
        let fds: Vec<u64> = leaks.iter().map(|f| f.witnesses[0]).collect();
        let mut sorted = fds.clone();
        sorted.sort_unstable();
        assert_eq!(fds, sorted, "leaks ordered by open event id");
        assert!(leaks[0].message.contains("fd 9"));
        assert!(leaks[1].message.contains("fd 3"));
        assert!(leaks[2].message.contains("fd 7"));
        assert_eq!(a.to_json(), run().to_json(), "stable across runs");
    }

    /// The fingerprint identifies a finding across schedules: shifting
    /// every event id (a different interleaving exposing the same bug)
    /// leaves it unchanged; changing the access shape does not.
    #[test]
    fn fingerprints_are_schedule_independent() {
        let race = |prefix: Vec<IoEvent>, offset: u64| {
            let san = IoSanitizer::new();
            let mut stream = prefix;
            stream.push(write(1, 3, offset, 100));
            stream.push(write(2, 4, offset + 50, 100));
            san.on_events(&stream);
            let r = san.finalize_report();
            r.of_category(Category::DataRace)[0].fingerprint()
        };
        // An unrelated leading event shifts all witness ids but must not
        // change the identity of the race.
        let plain = race(vec![], 0);
        let shifted = race(vec![sync(9, SyncOp::Signal, 42)], 0);
        assert_eq!(plain, shifted);
        // A genuinely different race shape gets a different identity.
        assert_ne!(plain, race(vec![], 4096));
    }
}
