//! Sleep-set-style partial-order reduction over the probe event stream.
//!
//! When the DFS considers swapping the task chosen at a decision point for
//! an alternative candidate, it asks: could that swap possibly change what
//! the sanitizer sees? The answer is approximated at *block* granularity —
//! each candidate's next maximal run of consecutive events in the FIFO
//! execution stands in for "what it would do next" — and a swap is pruned
//! when the two blocks are independent (no conflicting operation pair) or
//! when every conflicting pair is already happens-before ordered by edges
//! that do not pass through the blocks themselves.
//!
//! Two deliberate conservatisms keep the reduction from hiding bugs:
//!
//! - A sync operation on an object that appears in *both* blocks (a lock
//!   both candidates are about to take, a channel they both touch) always
//!   forces exploration: reversing a lock-handoff is exactly the kind of
//!   coarse interleaving change the checker exists to try, and the HB edges
//!   the handoff itself creates must not be used to justify skipping its
//!   reversal.
//! - Conflicts are detected on operation *targets and byte ranges*, not on
//!   sanitizer verdicts, so a swap is kept whenever the two candidates
//!   touch overlapping state at all.
//!
//! The remaining approximation (a candidate with no further events prunes;
//! blocks only look one run ahead) is documented in DESIGN.md §3.9 — it
//! trades exhaustiveness the preemption bound already gave up for schedule
//! counts that fit a CI budget.

use iosan::HbIndex;
use probe::{EventKind, IoEvent};
use simrt::SyncOp;

use crate::policy::DecisionRec;

/// Byte range of a data access: `(offset, len, write)`. Stdio positions
/// share the namespace of file offsets on the same target, which is the
/// conservative direction (more perceived overlap, fewer prunes).
fn data_range(kind: &EventKind) -> Option<(u64, u64, bool)> {
    match *kind {
        EventKind::Read { offset, len, .. } => Some((offset, len, false)),
        EventKind::Write { offset, len, .. } => Some((offset, len, true)),
        EventKind::MmapFault {
            offset, len, write, ..
        } => Some((offset, len, write)),
        EventKind::StdioRead { pos, len, .. } => Some((pos, len, false)),
        EventKind::StdioWrite { pos, len, .. } => Some((pos, len, true)),
        _ => None,
    }
}

/// The sync object of a lock/channel-domain sync op. Spawn/join/finish
/// edges are thread lifecycle, not contended state — they never conflict.
fn sync_obj(ev: &IoEvent) -> Option<u64> {
    match ev.kind {
        EventKind::Sync {
            op: SyncOp::Acquire | SyncOp::Release | SyncOp::Signal | SyncOp::Wait,
            obj,
        } => Some(obj),
        _ => None,
    }
}

/// Events that reorder freely against any other.
fn commutes(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::Sync { .. }
            | EventKind::MpiOpen { .. }
            | EventKind::MpiClose
            | EventKind::MpiIo { .. }
    )
}

/// Would reordering `a` and `b` be observable? (Same-task pairs are never
/// asked about — callers compare blocks of *different* candidates.)
pub(crate) fn conflicts(a: &IoEvent, b: &IoEvent) -> bool {
    match (sync_obj(a), sync_obj(b)) {
        (Some(x), Some(y)) => return x == y,
        (Some(_), None) | (None, Some(_)) => return false,
        (None, None) => {}
    }
    // Lifecycle sync edges and profiler annotations commute with
    // everything, and so do MPI-IO calls: the POSIX events beneath them
    // carry their conflicts.
    if commutes(&a.kind) || commutes(&b.kind) {
        return false;
    }
    // File operations on different targets are independent.
    if a.target != b.target {
        return false;
    }
    match (data_range(&a.kind), data_range(&b.kind)) {
        (Some((ao, al, aw)), Some((bo, bl, bw))) => {
            (aw || bw) && ao < bo.saturating_add(bl) && bo < ao.saturating_add(al)
        }
        // A metadata op (open/close/seek/fsync/stat/mmap) against anything
        // on the same file is order-sensitive.
        _ => true,
    }
}

/// First maximal run of consecutive events by `task` at stream index
/// `>= from`, as a half-open index range.
pub(crate) fn next_block(events: &[IoEvent], from: usize, task: u64) -> Option<(usize, usize)> {
    let start = (from..events.len()).find(|&i| events[i].task.0 == task)?;
    let mut end = start + 1;
    while end < events.len() && events[end].task.0 == task {
        end += 1;
    }
    Some((start, end))
}

/// Decide whether the swap "run `rec.tasks[alt]` instead of the chosen
/// candidate at this decision point" can be skipped, given the FIFO
/// execution's event stream and its happens-before index.
pub(crate) fn can_prune(events: &[IoEvent], hb: &HbIndex, rec: &DecisionRec, alt: usize) -> bool {
    let chosen_task = rec.tasks[rec.chosen as usize];
    let alt_task = rec.tasks[alt];
    let (Some((cs, ce)), Some((bs, be))) = (
        next_block(events, rec.watermark, chosen_task),
        next_block(events, rec.watermark, alt_task),
    ) else {
        // A candidate that emits nothing further cannot change the stream.
        return true;
    };
    for i in cs..ce {
        for j in bs..be {
            let (a, b) = (&events[i], &events[j]);
            if let (Some(x), Some(y)) = (sync_obj(a), sync_obj(b)) {
                if x == y {
                    // The blocks hand a sync object between them: the
                    // handoff order is itself the choice under test.
                    return false;
                }
            }
            if conflicts(a, b) && !hb.ordered_either(i, j) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use probe::{intern, IoEvent, Origin};
    use simrt::{SimTime, TaskId};

    fn ev(task: u64, path: &str, kind: EventKind) -> IoEvent {
        IoEvent {
            task: TaskId(task),
            pid: 0,
            t0: SimTime::ZERO,
            t1: SimTime::ZERO,
            origin: Origin::App,
            target: intern(path),
            kind,
        }
    }

    fn write(task: u64, path: &str, offset: u64, len: u64) -> IoEvent {
        ev(task, path, EventKind::Write { fd: 3, offset, len })
    }

    fn sync(task: u64, op: SyncOp, obj: u64) -> IoEvent {
        ev(task, "lock", EventKind::Sync { op, obj })
    }

    fn rec(tasks: &[u64], chosen: u32, watermark: usize) -> DecisionRec {
        DecisionRec {
            tasks: tasks.to_vec(),
            chosen,
            watermark,
        }
    }

    #[test]
    fn disjoint_files_prune() {
        let events = vec![write(1, "/a", 0, 10), write(2, "/b", 0, 10)];
        let hb = HbIndex::from_events(&events);
        assert!(can_prune(&events, &hb, &rec(&[1, 2], 0, 0), 1));
    }

    #[test]
    fn overlapping_unordered_writes_do_not_prune() {
        let events = vec![write(1, "/a", 0, 10), write(2, "/a", 5, 10)];
        let hb = HbIndex::from_events(&events);
        assert!(!can_prune(&events, &hb, &rec(&[1, 2], 0, 0), 1));
    }

    #[test]
    fn disjoint_ranges_on_same_file_prune() {
        let events = vec![write(1, "/a", 0, 10), write(2, "/a", 100, 10)];
        let hb = HbIndex::from_events(&events);
        assert!(can_prune(&events, &hb, &rec(&[1, 2], 0, 0), 1));
    }

    #[test]
    fn shared_lock_handoff_never_prunes() {
        // Both blocks take lock 7; the writes are HB-ordered *through that
        // very handoff*, which must not justify skipping its reversal.
        let events = vec![
            sync(1, SyncOp::Acquire, 7),
            write(1, "/a", 0, 10),
            sync(1, SyncOp::Release, 7),
            sync(2, SyncOp::Acquire, 7),
            write(2, "/a", 0, 10),
            sync(2, SyncOp::Release, 7),
        ];
        let hb = HbIndex::from_events(&events);
        assert!(!can_prune(&events, &hb, &rec(&[1, 2], 0, 0), 1));
    }

    #[test]
    fn join_ordered_conflict_prunes() {
        // Task 2 joined task 1 before its write: the conflicting pair is
        // ordered by a lifecycle edge outside any shared sync object, so
        // the swap cannot actually reverse it.
        let events = vec![
            write(1, "/a", 0, 10),
            sync(1, SyncOp::Finish, 1),
            sync(2, SyncOp::Join, 1),
            write(2, "/a", 0, 10),
        ];
        let hb = HbIndex::from_events(&events);
        assert!(can_prune(&events, &hb, &rec(&[1, 2], 0, 0), 1));
    }

    #[test]
    fn candidate_with_no_events_prunes() {
        let events = vec![write(1, "/a", 0, 10)];
        let hb = HbIndex::from_events(&events);
        assert!(can_prune(&events, &hb, &rec(&[1, 2], 0, 0), 1));
    }

    #[test]
    fn metadata_vs_data_on_same_file_conflicts() {
        let a = ev(1, "/a", EventKind::Close { fd: 3 });
        let b = write(2, "/a", 0, 10);
        assert!(conflicts(&a, &b));
        let c = ev(1, "/b", EventKind::Close { fd: 3 });
        assert!(!conflicts(&c, &b));
    }
}
