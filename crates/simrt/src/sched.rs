//! The deterministic virtual-time scheduler.
//!
//! # Execution model
//!
//! A [`Sim`] hosts any number of *simulated threads* in two flavors behind
//! one calendar:
//!
//! * **Carrier tasks** ([`Sim::spawn`]) are carried by a real OS thread.
//!   User code reads like ordinary blocking code (plain POSIX-shaped calls
//!   on a real stack), which is what the GOT-patched instrumentation
//!   wrappers need.
//! * **Event tasks** ([`Sim::spawn_event`]) are state machines resumed
//!   inline by the discrete-event loop — no OS thread, no stack. Each
//!   resumption is one [`EventTask::poll`] call that returns what the task
//!   does next ([`EventPoll`]). Timers, samplers, and collective waiters
//!   scale to tens of thousands of these for the cost of a heap entry each.
//!
//! **Exactly one simulated thread executes at any moment.** The scheduler
//! is a priority-queue discrete-event core: a single dispatch loop pops
//! `(wake_time, seq)` from the run calendar, advances the clock, and runs
//! the task — resuming a carrier by waking its parked OS thread, or
//! polling an event task right there on whichever OS thread is inside the
//! scheduler (a blocking carrier, or the host in [`Sim::run`]). Equal wake
//! times run in FIFO spawn/push order, which makes the whole simulation
//! deterministic: same program, same schedule, same virtual timestamps, on
//! every run, regardless of the carrier/event mix.
//!
//! The one-runnable-at-a-time invariant also means synchronization
//! primitives built on the scheduler need no atomicity tricks: between a
//! task's decision to block and the block itself, no other simulated
//! task can run. Event tasks get the same guarantee: a waiter-list
//! registration made during a poll is visible before any other task runs.
//!
//! # Why not async?
//!
//! tf-Darshan instruments *synchronous* POSIX calls made from a thread pool;
//! the instrumentation, the GOT patching, and the Darshan wrappers must look
//! like their real counterparts (plain function calls on a thread's stack).
//! Thread carriers preserve that shape exactly — and the event-task flavor
//! exists precisely for the code that does *not* need it (pure coordination:
//! timers, tickers, barrier waiters), so scale experiments are not capped by
//! OS thread counts.

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard as PlMutexGuard, RwLock};

use crate::time::SimTime;

/// Process-wide hook fired just before control *genuinely* hands over
/// (slow-path sleep, yield, block, task finish — and after every event-task
/// poll, which is a resumption boundary of exactly the same kind). Fast-path
/// virtual-time advances — where the sleeper keeps the carrier — do not fire
/// it, so a hook installed here runs only at real context switches.
///
/// Instrumentation layers use this to drain per-thread event buffers at
/// deterministic points. The hook runs while the calling thread is still
/// the sole running simulated thread and **no scheduler lock is held**; it
/// may inspect virtual time but must not sleep, block, or yield.
static SWITCH_HOOK: std::sync::OnceLock<fn()> = std::sync::OnceLock::new();

/// Install the context-switch hook. First caller wins; later installs of
/// the same function pointer are no-ops, which makes installation idempotent
/// for a single instrumentation backplane.
pub fn set_context_switch_hook(hook: fn()) {
    let _ = SWITCH_HOOK.set(hook);
}

#[inline]
fn run_switch_hook() {
    if let Some(h) = SWITCH_HOOK.get() {
        h();
    }
}

/// What a synchronization event did. Emitted by the scheduler
/// (spawn/join/finish) and by the primitives in [`crate::sync`]; consumed
/// through a [`SyncObserver`] registered via [`Sim::set_sync_observer`]
/// (e.g. the probe crate's bridge, which folds these into the I/O event
/// spine for happens-before analysis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncOp {
    /// A [`crate::sync::Mutex`] was acquired (`obj` = lock id). The only op
    /// that grows a thread's lockset.
    Acquire,
    /// A [`crate::sync::Mutex`] was released (`obj` = lock id).
    Release,
    /// A release-half edge on a non-lock primitive: channel send, semaphore
    /// release, `Event::set`, `Notify::notify_one`, condvar signal, barrier
    /// arrival. Happens-before flows from this op to every later [`SyncOp::Wait`]
    /// on the same object.
    Signal,
    /// An acquire-half edge: successful channel recv, semaphore acquire,
    /// event/notify/condvar wakeup, barrier departure.
    Wait,
    /// The current task spawned simulated thread `obj`.
    Spawn,
    /// The current task completed a join on simulated thread `obj`.
    Join,
    /// The current task is about to finish (its closure returned or
    /// panicked, or its event machine returned [`EventPoll::Done`]). Its
    /// clock is final after this event.
    Finish,
}

/// One synchronization event, as seen by a [`SyncObserver`].
#[derive(Clone, Debug)]
pub struct SyncEvent {
    /// Task that performed the operation.
    pub task: TaskId,
    /// Virtual time of the operation.
    pub time: SimTime,
    /// What happened.
    pub op: SyncOp,
    /// Object id: a sync-primitive id from [`new_sync_obj_id`] for
    /// acquire/release/signal/wait, or the other task's id for
    /// spawn/join (and the finishing task's own id for finish).
    pub obj: u64,
    /// Human-readable label of the object ("mutex#3", "chan#7 'batches'",
    /// the spawned task's name, …).
    pub label: Arc<str>,
}

/// A consumer of [`SyncEvent`]s. Registered per-[`Sim`]; called on the
/// carrier thread of the task performing the operation (or the thread
/// currently polling an event task), which may hold primitive-internal
/// locks — the observer must not sleep, block, yield, or touch scheduler
/// state (reading the event's fields is always safe).
pub trait SyncObserver: Send + Sync {
    /// Observe one synchronization event.
    fn on_sync(&self, ev: &SyncEvent);
}

/// One runnable task offered to a [`SchedulePolicy`] at a decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The runnable task.
    pub task: TaskId,
    /// True when the task would wake by timeout (a timed block whose
    /// deadline fired) rather than by an explicit notify.
    pub timeout: bool,
}

/// A scheduling decision point: more than one task is runnable at the same
/// virtual instant. `candidates` is ordered by calendar sequence — index 0
/// is the task the default FIFO tie-break would run, so a policy that
/// always answers `0` reproduces the uncontrolled schedule exactly.
#[derive(Debug)]
pub struct DecisionPoint<'a> {
    /// The virtual instant being dispatched.
    pub now: SimTime,
    /// The runnable tasks, in FIFO (sequence) order. Always ≥ 2 entries.
    pub candidates: &'a [Candidate],
}

/// A pluggable scheduler oracle, consulted at every point where more than
/// one task is runnable at the same virtual instant ([`Sim::set_schedule_policy`]).
/// This is the hook the `explore` model checker drives to enumerate
/// interleavings; with no policy installed the scheduler takes the FIFO
/// fast path and behaves byte-identically to an uncontrolled run.
///
/// `choose` runs **with the scheduler state lock held**: it must be pure —
/// no scheduler calls (spawn/sleep/now/wake), no sync primitives, no
/// blocking — and should return quickly. Out-of-range indices are clamped
/// to the last candidate.
pub trait SchedulePolicy: Send + Sync {
    /// Pick which candidate to dispatch, by index into `point.candidates`.
    fn choose(&self, point: &DecisionPoint<'_>) -> usize;
}

/// Allocate a process-wide unique id for a synchronization object.
/// Allocation order is deterministic within a simulation because only one
/// simulated thread runs at a time.
pub fn new_sync_obj_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Emit a synchronization event for the calling simulated thread. No-op when
/// the caller is not a simulated thread (host-side construction/drop) or the
/// task's [`Sim`] has no observer registered. Used by [`crate::sync`]; public
/// so higher layers can mark custom ordering edges. During an event-task
/// poll, events are attributed to the event task, not the thread pumping it.
pub fn emit_sync(op: SyncOp, obj: u64, label: &Arc<str>) {
    CURRENT.with(|c| {
        let b = c.borrow();
        let Some((inner, tid)) = b.as_ref() else {
            return;
        };
        if !inner.sync_active.load(Ordering::Relaxed) {
            return;
        }
        let Some(obs) = inner.sync_observer.read().clone() else {
            return;
        };
        let time = SimTime::from_nanos(inner.clock.load(Ordering::Relaxed));
        obs.on_sync(&SyncEvent {
            task: *tid,
            time,
            op,
            obj,
            label: Arc::clone(label),
        });
    });
}

/// Describe what the calling simulated thread is about to block on, for the
/// deadlock wait-for dump ("recv on chan#3", "mutex#1 'ckpt' held by t2").
/// Cleared automatically when the thread resumes (for event tasks: at their
/// next poll). No-op off sim threads.
pub fn set_wait_context(ctx: impl Into<String>) {
    store_wait_context(Some(ctx.into()));
}

/// Forget the calling task's wait context: a timed wait that gives up
/// without blocking again must not leave it to a later bare [`block`].
pub(crate) fn clear_wait_context() {
    store_wait_context(None);
}

fn store_wait_context(ctx: Option<String>) {
    CURRENT.with(|c| {
        let b = c.borrow();
        if let Some((inner, tid)) = b.as_ref() {
            if let Some(info) = inner.state.lock().tasks.get_mut(tid) {
                info.wait_ctx = ctx;
            }
        }
    });
}

/// Identifier of a simulated thread. Allocation order is deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Why a blocked task resumed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeReason {
    /// Another task called [`wake`] (via a sync primitive).
    Notified,
    /// The block's deadline elapsed.
    Timeout,
}

// ---------------------------------------------------------------------------
// Event tasks
// ---------------------------------------------------------------------------

/// What an event task does next, returned from [`EventTask::poll`].
#[derive(Debug)]
pub enum EventPoll {
    /// The task is finished; its machine is dropped and joiners wake.
    Done,
    /// Advance virtual time by the given duration, then poll again.
    Sleep(Duration),
    /// Poll again at the given virtual instant (clamped to now if past).
    SleepUntil(SimTime),
    /// Deschedule until another task [`wake`]s this one — the event-task
    /// analogue of [`block`]. Register in a primitive's wait list first
    /// (e.g. via the `poll_*` methods in [`crate::sync`]); the optional
    /// deadline bounds the wait, reported as [`WakeReason::Timeout`] at the
    /// next poll.
    Block {
        /// Latest instant to resume regardless of notification.
        deadline: Option<SimTime>,
    },
    /// Re-enter the calendar at the current time, letting equal-time peers
    /// run first.
    Yield,
}

/// Per-poll context handed to [`EventTask::poll`].
pub struct EventCx {
    sim: Sim,
    tid: TaskId,
    now: SimTime,
    wake_reason: WakeReason,
}

impl EventCx {
    /// The simulation this task belongs to (e.g. to spawn follow-up tasks).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// This event task's id.
    pub fn task(&self) -> TaskId {
        self.tid
    }

    /// Virtual time of this poll.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Why the task was resumed: [`WakeReason::Timeout`] when a
    /// [`EventPoll::Block`] deadline fired, [`WakeReason::Notified`]
    /// otherwise (first poll, sleeps, yields, and wakes all count as
    /// notified).
    pub fn wake_reason(&self) -> WakeReason {
        self.wake_reason
    }
}

/// A lightweight simulated thread: a state machine resumed inline by the
/// discrete-event loop. No OS thread, no stack — ten thousand of these cost
/// ten thousand heap entries.
///
/// Rules of the poll:
///
/// * `poll` runs as the current simulated task: [`emit_sync`], [`wake`],
///   [`now`], [`set_wait_context`], and spawning are all attributed to it.
/// * `poll` must **not** call the inline-blocking APIs ([`sleep`],
///   [`yield_now`], [`block`], blocking `sync` methods) — return the
///   matching [`EventPoll`] instead. Violations panic, poisoning the sim
///   with a message naming the task.
/// * Any guard acquired during a poll (e.g. from `sync::Mutex::poll_lock`)
///   must be dropped before the poll returns.
/// * A panic inside `poll` finishes the task and poisons the simulation,
///   exactly like a carrier panic.
pub trait EventTask: Send {
    /// Resume the task; runs at the task's wake time on the thread driving
    /// the scheduler.
    fn poll(&mut self, cx: &mut EventCx) -> EventPoll;
}

/// Closures are event tasks: each call is one poll.
impl<F> EventTask for F
where
    F: FnMut(&mut EventCx) -> EventPoll + Send,
{
    fn poll(&mut self, cx: &mut EventCx) -> EventPoll {
        self(cx)
    }
}

/// Which execution flavor a task uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Flavor {
    /// Parked OS thread, resumed by condvar handover.
    Carrier,
    /// Stackless state machine, polled inline by the dispatch loop.
    Event,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskState {
    /// Has a valid entry in the run heap.
    Ready,
    /// Currently executing (on its carrier thread, or mid-poll).
    Running,
    /// Waiting for a wake; `timed` blocks also hold a heap entry for their
    /// deadline.
    Blocked,
    /// The task finished (closure returned/panicked, or the event machine
    /// returned [`EventPoll::Done`]).
    Finished,
}

struct TaskInfo {
    name: String,
    state: TaskState,
    flavor: Flavor,
    /// Generation counter: bumped on every transition. Heap entries carry
    /// the generation at push time; entries whose generation no longer
    /// matches are stale and skipped on pop (and lazily compacted away,
    /// see `maybe_compact`).
    gen: u64,
    /// True while a heap entry with the task's *current* generation exists.
    /// Together with `SchedState::valid_entries` this lets the scheduler
    /// know the stale fraction of the heap without scanning it.
    has_entry: bool,
    wake_reason: WakeReason,
    /// Tasks blocked in a join on this task.
    join_waiters: Vec<TaskId>,
    /// What the task is blocked on, set by sync primitives via
    /// [`set_wait_context`]; dumped by the deadlock diagnostic.
    wait_ctx: Option<String>,
    /// The state machine of an event task, parked here between polls.
    /// Taken out (so the scheduler lock can be released) while polling.
    machine: Option<Box<dyn EventTask>>,
}

/// An entry in the run calendar. Ordered by (wake time, sequence) so that
/// equal-time wakes run in FIFO order — the tie-break that makes the whole
/// simulation deterministic.
#[derive(PartialEq, Eq)]
struct Entry {
    wake: SimTime,
    seq: u64,
    tid: TaskId,
    gen: u64,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry is on top.
        (other.wake, other.seq).cmp(&(self.wake, self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Scheduler counters, cheap enough to maintain unconditionally. Snapshot
/// via [`Sim::stats`]; surfaced through `RunOutput` and the report JSON so
/// scale experiments can see scheduler cost next to I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Carrier context switches (parked-thread handovers).
    pub switches: u64,
    /// Fast-path time advances (sleeps that kept the carrier).
    pub fast_advances: u64,
    /// Event-task polls (inline resumptions; the DES loop's unit of work).
    pub event_polls: u64,
    /// Carrier tasks spawned over the simulation's lifetime.
    pub carrier_spawns: u64,
    /// Event tasks spawned over the simulation's lifetime.
    pub event_spawns: u64,
    /// High-water mark of the run calendar (valid + stale entries).
    pub peak_heap_depth: usize,
    /// High-water mark of concurrently live tasks.
    pub peak_live_tasks: usize,
    /// Lazy compactions of the run calendar (stale fraction exceeded ½).
    pub heap_compactions: u64,
    /// Decision points: dispatches where >1 task was runnable at the same
    /// virtual instant and an installed [`SchedulePolicy`] was consulted.
    /// Always 0 without a policy (the FIFO fast path does not look).
    pub decision_points: u64,
    /// Schedules executed by an exploration harness. A single `Sim` never
    /// fills this; the `explore` crate aggregates it across runs so the
    /// report and the ascii overview share one source of truth.
    pub schedules_run: u64,
    /// Schedules skipped by partial-order reduction during exploration.
    pub schedules_pruned: u64,
    /// Maximum number of non-FIFO picks (preemptions) any explored
    /// schedule used.
    pub max_preemptions_used: u64,
}

struct SchedState {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Entry>,
    /// Heap entries whose generation still matches their task. The rest of
    /// the heap is stale tombstones awaiting pop or compaction.
    valid_entries: usize,
    running: Option<TaskId>,
    tasks: HashMap<TaskId, TaskInfo>,
    next_tid: u64,
    /// Number of spawned-but-not-finished tasks.
    live: usize,
    /// Set once `Sim::run` dispatches the first task.
    started: bool,
    /// First panic message observed in any simulated task; poisons the sim.
    poison: Option<String>,
    stats: SchedStats,
}

/// What `dispatch_next` produced.
enum Dispatch {
    /// A carrier was marked running; its parked thread must be notified.
    Carrier,
    /// An event task was marked running; the caller must poll its machine.
    Event(Box<dyn EventTask>),
    /// Nothing runnable.
    Idle,
}

pub(crate) struct SimInner {
    state: Mutex<SchedState>,
    cv: Condvar,
    /// Observer for synchronization events ([`Sim::set_sync_observer`]).
    sync_observer: RwLock<Option<Arc<dyn SyncObserver>>>,
    /// Cheap pre-check so [`emit_sync`] costs one relaxed load when no
    /// observer is registered (the common case).
    sync_active: AtomicBool,
    /// Scheduling oracle for equal-instant dispatch ([`Sim::set_schedule_policy`]).
    schedule_policy: RwLock<Option<Arc<dyn SchedulePolicy>>>,
    /// Cheap pre-check so `dispatch_next` costs one relaxed load when no
    /// policy is installed (the common case — byte-identical FIFO).
    policy_active: AtomicBool,
    /// Mirror of `state.now` in nanoseconds, refreshed at every point the
    /// clock advances (dispatch, sleep fast path). Lets [`now`]/[`try_now`]
    /// on the running simulated thread read the clock without taking the
    /// scheduler lock: the store always happens-before the running task's
    /// reads (the dispatch handshake goes through the state mutex/condvar),
    /// and nothing can advance the clock while that task runs.
    clock: AtomicU64,
}

impl SimInner {
    /// Bump `tid`'s generation, tombstoning any live heap entry it has.
    fn bump_gen(st: &mut SchedState, tid: TaskId) {
        let info = st.tasks.get_mut(&tid).expect("unknown task");
        info.gen += 1;
        if info.has_entry {
            info.has_entry = false;
            st.valid_entries -= 1;
        }
    }

    /// Push a heap entry for `tid` at `wake` against its *current*
    /// generation. The task must not already hold a valid entry.
    fn push_entry(st: &mut SchedState, tid: TaskId, wake: SimTime) {
        let info = st.tasks.get_mut(&tid).expect("unknown task");
        debug_assert!(!info.has_entry, "one valid entry per task");
        info.has_entry = true;
        let gen = info.gen;
        st.valid_entries += 1;
        st.seq += 1;
        let seq = st.seq;
        st.heap.push(Entry {
            wake,
            seq,
            tid,
            gen,
        });
        if st.heap.len() > st.stats.peak_heap_depth {
            st.stats.peak_heap_depth = st.heap.len();
        }
        Self::maybe_compact(st);
    }

    /// Push a Ready entry for `tid` at `wake`, bumping its generation.
    /// Caller must hold the state lock and have set `tasks[tid].state`.
    fn push_ready(st: &mut SchedState, tid: TaskId, wake: SimTime) {
        Self::bump_gen(st, tid);
        Self::push_entry(st, tid, wake);
    }

    /// Lazily compact the run calendar when more than half of it is stale
    /// tombstones (timeout-then-notify churn is the classic producer).
    /// Keeps heap length O(live tasks) at amortized O(1) per push; rebuild
    /// order is irrelevant because pop order is fully determined by the
    /// (wake, seq) comparator.
    fn maybe_compact(st: &mut SchedState) {
        let len = st.heap.len();
        if len < 64 || len <= st.valid_entries * 2 {
            return;
        }
        let heap = std::mem::take(&mut st.heap);
        let live: Vec<Entry> = heap
            .into_vec()
            .into_iter()
            .filter(|e| st.tasks.get(&e.tid).is_some_and(|i| i.gen == e.gen))
            .collect();
        debug_assert_eq!(live.len(), st.valid_entries);
        st.heap = BinaryHeap::from(live);
        st.stats.heap_compactions += 1;
    }

    /// Pop the next valid entry and make its task Running. Caller must hold
    /// the lock; `running` must be `None`. With a [`SchedulePolicy`]
    /// installed, every set of dispatchable entries sharing the earliest
    /// instant becomes a decision point and the policy picks the winner;
    /// otherwise the FIFO (wake, seq) pop order decides, exactly as before.
    fn dispatch_next(inner: &SimInner, st: &mut SchedState) -> Dispatch {
        debug_assert!(st.running.is_none());
        while let Some(e) = st.heap.pop() {
            let Some(info) = st.tasks.get(&e.tid) else {
                continue;
            };
            if info.gen != e.gen {
                continue; // stale tombstone
            }
            if matches!(info.state, TaskState::Running | TaskState::Finished) {
                continue;
            }
            let e = if inner.policy_active.load(Ordering::Relaxed) {
                Self::choose_at_instant(inner, st, e)
            } else {
                e
            };
            let info = st.tasks.get_mut(&e.tid).expect("validated above");
            match info.state {
                TaskState::Ready => {
                    info.state = TaskState::Running;
                    info.wake_reason = WakeReason::Notified;
                }
                TaskState::Blocked => {
                    // A timed block whose deadline fired.
                    info.state = TaskState::Running;
                    info.wake_reason = WakeReason::Timeout;
                }
                TaskState::Running | TaskState::Finished => unreachable!("validated above"),
            }
            info.gen += 1;
            info.has_entry = false;
            info.wait_ctx = None;
            st.valid_entries -= 1;
            debug_assert!(e.wake >= st.now, "time must not run backwards");
            st.now = st.now.max(e.wake);
            st.running = Some(e.tid);
            let info = st.tasks.get_mut(&e.tid).expect("just seen");
            match info.flavor {
                Flavor::Carrier => {
                    st.stats.switches += 1;
                    return Dispatch::Carrier;
                }
                Flavor::Event => {
                    st.stats.event_polls += 1;
                    return Dispatch::Event(
                        info.machine.take().expect("event task machine present"),
                    );
                }
            }
        }
        Dispatch::Idle
    }

    /// With a [`SchedulePolicy`] installed: collect every other
    /// dispatchable entry at the same virtual instant as `first` (pop
    /// order = sequence order = FIFO, so candidate index 0 is the default
    /// choice), consult the policy when there is a genuine choice, and
    /// push the losers back untouched — same generation and sequence, so
    /// their FIFO priority is preserved for the next decision and the
    /// calendar accounting (`has_entry`/`valid_entries`) is unchanged.
    fn choose_at_instant(inner: &SimInner, st: &mut SchedState, first: Entry) -> Entry {
        let mut cands: Vec<Entry> = vec![first];
        while let Some(top) = st.heap.peek() {
            if top.wake != cands[0].wake {
                break;
            }
            let e = st.heap.pop().expect("peeked above");
            let Some(info) = st.tasks.get(&e.tid) else {
                continue;
            };
            if info.gen != e.gen || matches!(info.state, TaskState::Running | TaskState::Finished) {
                continue; // stale tombstone: drop, as the pop loop would
            }
            cands.push(e);
        }
        if cands.len() == 1 {
            return cands.pop().expect("one candidate");
        }
        st.stats.decision_points += 1;
        let idx = match inner.schedule_policy.read().clone() {
            Some(policy) => {
                let view: Vec<Candidate> = cands
                    .iter()
                    .map(|e| Candidate {
                        task: e.tid,
                        timeout: matches!(st.tasks[&e.tid].state, TaskState::Blocked),
                    })
                    .collect();
                let point = DecisionPoint {
                    now: cands[0].wake,
                    candidates: &view,
                };
                policy.choose(&point).min(cands.len() - 1)
            }
            None => 0, // raced clear: fall back to FIFO
        };
        let chosen = cands.swap_remove(idx);
        for e in cands {
            st.heap.push(e);
        }
        chosen
    }

    /// Detect deadlock: simulation started, nothing running, nothing
    /// runnable, yet live tasks remain. The panic message dumps the
    /// wait-for graph: every blocked task (carrier **and** event flavor),
    /// what it is waiting on (the context recorded by [`set_wait_context`]),
    /// and who is joined on it.
    fn check_deadlock(st: &mut SchedState) {
        if st.started && st.running.is_none() && st.live > 0 && st.poison.is_none() {
            let mut ids: Vec<TaskId> = st
                .tasks
                .iter()
                .filter(|(_, i)| i.state == TaskState::Blocked)
                .map(|(id, _)| *id)
                .collect();
            ids.sort();
            let mut graph = String::new();
            for id in ids {
                let info = &st.tasks[&id];
                let waits_on = info
                    .wait_ctx
                    .as_deref()
                    .unwrap_or("<unknown: bare block()>");
                let tag = match info.flavor {
                    Flavor::Carrier => "",
                    Flavor::Event => " [event]",
                };
                graph.push_str(&format!(
                    "\n  {} ({}){}: blocked on {}",
                    id, info.name, tag, waits_on
                ));
                if !info.join_waiters.is_empty() {
                    let waiters: Vec<String> =
                        info.join_waiters.iter().map(|w| w.to_string()).collect();
                    graph.push_str(&format!(" [joined by: {}]", waiters.join(", ")));
                }
            }
            st.poison = Some(format!(
                "virtual-time deadlock: {} live task(s), none runnable; wait-for graph:{}",
                st.live, graph
            ));
        }
    }

    fn poison_check(st: &SchedState) {
        if let Some(msg) = &st.poison {
            panic!("simulation poisoned: {msg}");
        }
    }
}

/// The discrete-event dispatch loop. Pops the calendar and runs what comes
/// out: event tasks are polled inline on the calling OS thread (scheduler
/// lock released for the poll, [`run_switch_hook`] fired after each — a
/// poll boundary is a genuine handover); the loop returns `true` as soon as
/// a carrier is dispatched (the caller notifies its parked thread) and
/// `false` when nothing is runnable (the caller runs the deadlock check).
///
/// Every handover point pumps: blocking carriers, finishing tasks, and the
/// host in [`Sim::run`]. That is what lets a 10k-event-task workload run on
/// a constant-size pool of OS threads — whichever thread is in the
/// scheduler drains the event queue as part of handing over.
fn pump(inner: &Arc<SimInner>, st: &mut PlMutexGuard<'_, SchedState>) -> bool {
    loop {
        if st.poison.is_some() {
            return false;
        }
        let dispatched = SimInner::dispatch_next(inner, st);
        if !matches!(dispatched, Dispatch::Idle) {
            // Publish the (possibly advanced) clock before the dispatched
            // task can observe it; the mutex/condvar handshake orders the
            // store ahead of the task's relaxed reads.
            inner.clock.store(st.now.as_nanos(), Ordering::Relaxed);
        }
        let mut machine = match dispatched {
            Dispatch::Carrier => return true,
            Dispatch::Idle => return false,
            Dispatch::Event(m) => m,
        };
        let tid = st.running.expect("event task is running");
        let now = st.now;
        let info = st.tasks.get(&tid).expect("dispatched task exists");
        let wake_reason = info.wake_reason;
        let label: Arc<str> = Arc::from(info.name.as_str());
        let outcome = st.unlocked(|| {
            // Run the machine as the current simulated task so emit_sync /
            // wake / spawn / set_wait_context attribute to it, then restore
            // the pumping thread's own identity (a carrier mid-block, or
            // the host in `Sim::run`).
            let prev = CURRENT.with(|c| c.borrow_mut().replace((inner.clone(), tid)));
            let mut cx = EventCx {
                sim: Sim {
                    inner: inner.clone(),
                },
                tid,
                now,
                wake_reason,
            };
            let r = catch_unwind(AssertUnwindSafe(|| machine.poll(&mut cx)));
            if matches!(r, Ok(EventPoll::Done) | Err(_)) {
                // The task's clock is final after this point; joiners
                // inherit it through the Join edge.
                emit_sync(SyncOp::Finish, tid.0, &label);
            }
            // Event-task resumption boundary: a genuine handover, so the
            // instrumentation backplane flushes this thread's buffers at a
            // deterministic point.
            run_switch_hook();
            CURRENT.with(|c| *c.borrow_mut() = prev);
            r
        });
        // Relocked. No other task ran meanwhile: `running` stayed on this
        // event task, so carriers kept waiting and wake() could not touch it.
        st.running = None;
        match outcome {
            Err(e) => {
                finish_common(st, tid, Some(panic_message(&e)));
                // Poison is set; the loop head returns false and callers
                // propagate through poison_check.
            }
            Ok(EventPoll::Done) => {
                finish_common(st, tid, None);
            }
            Ok(EventPoll::Sleep(d)) => {
                let wake = st.now + d;
                requeue_event(st, tid, machine, wake);
            }
            Ok(EventPoll::SleepUntil(t)) => {
                let wake = t.max(st.now);
                requeue_event(st, tid, machine, wake);
            }
            Ok(EventPoll::Yield) => {
                let wake = st.now;
                requeue_event(st, tid, machine, wake);
            }
            Ok(EventPoll::Block { deadline }) => {
                let info = st.tasks.get_mut(&tid).expect("unknown task");
                info.state = TaskState::Blocked;
                info.machine = Some(machine);
                SimInner::bump_gen(st, tid);
                if let Some(dl) = deadline {
                    let wake = dl.max(st.now);
                    SimInner::push_entry(st, tid, wake);
                }
            }
        }
    }
}

/// Park `machine` back in its task and re-enter the calendar at `wake`.
fn requeue_event(st: &mut SchedState, tid: TaskId, machine: Box<dyn EventTask>, wake: SimTime) {
    let info = st.tasks.get_mut(&tid).expect("unknown task");
    info.state = TaskState::Ready;
    info.machine = Some(machine);
    SimInner::push_ready(st, tid, wake);
}

/// A deterministic virtual-time simulation.
///
/// Cloning is cheap and shares the underlying scheduler.
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<SimInner>, TaskId)>> =
        const { std::cell::RefCell::new(None) };
}

/// Access the calling simulated thread's context, or panic if the caller is
/// not a simulated thread. The thread-local borrow is released before `f`
/// runs so that `f` may re-enter the scheduler (the pump swaps `CURRENT`
/// while polling event tasks).
fn with_current<R>(f: impl FnOnce(&Arc<SimInner>, TaskId) -> R) -> R {
    let (inner, tid) = CURRENT.with(|c| {
        let b = c.borrow();
        let (inner, tid) = b
            .as_ref()
            .expect("not on a simulated thread: call from within Sim::spawn");
        (inner.clone(), *tid)
    });
    f(&inner, tid)
}

/// Like [`with_current`] but runs `f` *inside* the thread-local borrow,
/// skipping the `Arc` refcount round-trip. Only valid when `f` cannot
/// re-enter the scheduler (no pump, no event-task dispatch): the pump swaps
/// `CURRENT` via `borrow_mut` and would panic under this outstanding borrow.
#[inline]
fn with_current_borrowed<R>(f: impl FnOnce(&Arc<SimInner>, TaskId) -> R) -> R {
    CURRENT.with(|c| {
        let b = c.borrow();
        let (inner, tid) = b
            .as_ref()
            .expect("not on a simulated thread: call from within Sim::spawn");
        f(inner, *tid)
    })
}

/// True if the calling OS thread carries a simulated thread (or is mid-poll
/// of an event task).
pub fn on_sim_thread() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// True if the calling OS thread carries a simulated thread of *this* sim.
fn current_matches(inner: &Arc<SimInner>) -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|(cur, _)| Arc::ptr_eq(cur, inner))
    })
}

/// Panic (poisoning the sim) when an event task reaches an inline-blocking
/// API from inside its poll. Event tasks have no stack to park: they must
/// return the matching [`EventPoll`] instead.
fn forbid_event_inline(st: &SchedState, tid: TaskId, what: &str) {
    if let Some(info) = st.tasks.get(&tid) {
        if info.flavor == Flavor::Event {
            panic!(
                "event task {} ('{}') called {what} inline from poll(); \
                 event tasks must return the matching EventPoll instead",
                tid, info.name
            );
        }
    }
}

impl Sim {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Self {
        Sim {
            inner: Arc::new(SimInner {
                state: Mutex::new(SchedState {
                    now: SimTime::ZERO,
                    seq: 0,
                    heap: BinaryHeap::new(),
                    valid_entries: 0,
                    running: None,
                    tasks: HashMap::new(),
                    next_tid: 0,
                    live: 0,
                    started: false,
                    poison: None,
                    stats: SchedStats::default(),
                }),
                cv: Condvar::new(),
                sync_observer: RwLock::new(None),
                sync_active: AtomicBool::new(false),
                schedule_policy: RwLock::new(None),
                policy_active: AtomicBool::new(false),
                clock: AtomicU64::new(0),
            }),
        }
    }

    /// Register a [`SyncObserver`] receiving every synchronization event of
    /// this simulation (lock acquire/release, signal/wait edges,
    /// spawn/join/finish). Replaces any previous observer.
    pub fn set_sync_observer(&self, obs: Arc<dyn SyncObserver>) {
        *self.inner.sync_observer.write() = Some(obs);
        self.inner.sync_active.store(true, Ordering::Relaxed);
    }

    /// Remove the registered observer, if any.
    pub fn clear_sync_observer(&self) {
        self.inner.sync_active.store(false, Ordering::Relaxed);
        *self.inner.sync_observer.write() = None;
    }

    /// Install a [`SchedulePolicy`], turning every equal-instant dispatch
    /// into a decision point the policy resolves. Replaces any previous
    /// policy. Install before [`Sim::run`]; the policy is consulted with
    /// the scheduler lock held and must not call back into the sim.
    pub fn set_schedule_policy(&self, policy: Arc<dyn SchedulePolicy>) {
        *self.inner.schedule_policy.write() = Some(policy);
        self.inner.policy_active.store(true, Ordering::Relaxed);
    }

    /// Remove the installed policy, restoring the FIFO fast path.
    pub fn clear_schedule_policy(&self) {
        self.inner.policy_active.store(false, Ordering::Relaxed);
        *self.inner.schedule_policy.write() = None;
    }

    /// Spawn a carrier task: a simulated thread carried by a real OS thread,
    /// for code that must look like blocking POSIX. It becomes runnable at
    /// the current virtual time but does not execute until [`Sim::run`]
    /// dispatches it (or, when called from a running simulated thread, until
    /// the spawner blocks).
    ///
    /// For pure coordination work (timers, tickers, collective waiters) use
    /// [`Sim::spawn_event`]: same calendar, same determinism, no OS thread.
    pub fn spawn<T, F>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let name = name.into();
        let inner = self.inner.clone();
        let tid = {
            let mut st = self.inner.state.lock();
            let tid = TaskId(st.next_tid);
            st.next_tid += 1;
            st.live += 1;
            st.stats.carrier_spawns += 1;
            if st.live > st.stats.peak_live_tasks {
                st.stats.peak_live_tasks = st.live;
            }
            st.tasks.insert(
                tid,
                TaskInfo {
                    name: name.clone(),
                    state: TaskState::Ready,
                    flavor: Flavor::Carrier,
                    gen: 0,
                    has_entry: false,
                    wake_reason: WakeReason::Notified,
                    join_waiters: Vec::new(),
                    wait_ctx: None,
                    machine: None,
                },
            );
            let now = st.now;
            SimInner::push_ready(&mut st, tid, now);
            tid
        };
        let task_label: Arc<str> = Arc::from(name.as_str());
        // Record the spawn edge when the spawner is itself a simulated
        // thread of this simulation (host-side spawns have no task to
        // attribute the edge to).
        if current_matches(&inner) {
            emit_sync(SyncOp::Spawn, tid.0, &task_label);
        }
        let result: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
        let slot = result.clone();
        let carrier_inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name(format!("sim:{name}"))
            .spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((carrier_inner.clone(), tid)));
                // Wait for our first dispatch.
                {
                    let mut st = carrier_inner.state.lock();
                    while st.running != Some(tid) && st.poison.is_none() {
                        carrier_inner.cv.wait(&mut st);
                    }
                    if st.poison.is_some() && st.running != Some(tid) {
                        // Simulation died before we ever ran; unwind quietly.
                        finish_task(&carrier_inner, tid, None);
                        return;
                    }
                }
                let r = catch_unwind(AssertUnwindSafe(f));
                // The task's clock is final after this point; joiners
                // inherit it through the Join edge.
                emit_sync(SyncOp::Finish, tid.0, &task_label);
                // Final deterministic flush point for this task's
                // instrumentation buffers (also after a panic, so events
                // emitted before the unwind are not lost).
                run_switch_hook();
                let panic_msg = r.as_ref().err().map(panic_message);
                *slot.lock() = Some(r);
                finish_task(&carrier_inner, tid, panic_msg);
            })
            .expect("failed to spawn carrier thread");
        JoinHandle {
            inner,
            tid,
            result,
            carrier: Some(handle),
        }
    }

    /// Spawn an event task: a stackless state machine resumed inline by the
    /// dispatch loop. Shares the task-id space, calendar, sync-event
    /// attribution, join protocol, and deadlock diagnostics with carrier
    /// tasks — it just never owns an OS thread.
    ///
    /// The machine is polled first at the current virtual time (in FIFO
    /// order with everything else scheduled for that instant).
    pub fn spawn_event<M>(&self, name: impl Into<String>, machine: M) -> EventHandle
    where
        M: EventTask + 'static,
    {
        let name = name.into();
        let tid = {
            let mut st = self.inner.state.lock();
            let tid = TaskId(st.next_tid);
            st.next_tid += 1;
            st.live += 1;
            st.stats.event_spawns += 1;
            if st.live > st.stats.peak_live_tasks {
                st.stats.peak_live_tasks = st.live;
            }
            st.tasks.insert(
                tid,
                TaskInfo {
                    name: name.clone(),
                    state: TaskState::Ready,
                    flavor: Flavor::Event,
                    gen: 0,
                    has_entry: false,
                    wake_reason: WakeReason::Notified,
                    join_waiters: Vec::new(),
                    wait_ctx: None,
                    machine: Some(Box::new(machine)),
                },
            );
            let now = st.now;
            SimInner::push_ready(&mut st, tid, now);
            tid
        };
        let label: Arc<str> = Arc::from(name.as_str());
        if current_matches(&self.inner) {
            emit_sync(SyncOp::Spawn, tid.0, &label);
        }
        EventHandle {
            inner: self.inner.clone(),
            tid,
        }
    }

    /// Run the simulation to completion: dispatch tasks in virtual-time
    /// order until every simulated task has finished. Event tasks scheduled
    /// while no carrier is runnable are polled right here on the host
    /// thread — a simulation of nothing but event tasks never spawns an OS
    /// thread at all.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised in any simulated task, and panics
    /// on virtual-time deadlock (live tasks, none runnable).
    pub fn run(&self) {
        {
            let mut st = self.inner.state.lock();
            assert!(!st.started, "Sim::run called twice");
            st.started = true;
            if st.running.is_none() {
                if pump(&self.inner, &mut st) {
                    self.inner.cv.notify_all();
                } else {
                    SimInner::check_deadlock(&mut st);
                }
            }
        }
        let mut st = self.inner.state.lock();
        while st.live > 0 && st.poison.is_none() {
            self.inner.cv.wait(&mut st);
            // Belt and braces: if we were woken with the scheduler idle
            // (e.g. a host-side spawn while everything was parked), drive
            // the calendar from here.
            if st.running.is_none() && st.live > 0 && st.poison.is_none() {
                if pump(&self.inner, &mut st) {
                    self.inner.cv.notify_all();
                } else {
                    SimInner::check_deadlock(&mut st);
                }
            }
        }
        if let Some(msg) = st.poison.clone() {
            drop(st);
            // Release any carriers still parked so their OS threads exit.
            self.inner.cv.notify_all();
            panic!("{msg}");
        }
    }

    /// Current virtual time. Callable from the host (between/after `run`)
    /// or from simulated threads.
    pub fn now(&self) -> SimTime {
        self.inner.state.lock().now
    }

    /// Number of carrier context switches performed so far (a measure of
    /// scheduler work; used by the engine micro-benchmarks).
    pub fn context_switches(&self) -> u64 {
        self.inner.state.lock().stats.switches
    }

    /// Number of fast-path time advances (sleeps that did not require a
    /// carrier switch because the sleeper remained the earliest task).
    pub fn fast_advances(&self) -> u64 {
        self.inner.state.lock().stats.fast_advances
    }

    /// Snapshot of the scheduler counters (switches, fast advances, event
    /// polls, peak heap depth, peak live tasks, compactions).
    pub fn stats(&self) -> SchedStats {
        self.inner.state.lock().stats
    }

    /// Number of tasks spawned and not yet finished.
    pub fn live_tasks(&self) -> usize {
        self.inner.state.lock().live
    }
}

fn panic_message(e: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Shared finish bookkeeping for both flavors: mark Finished, wake joiners,
/// decrement live, record the first panic as poison. Caller handles the
/// running-slot handover.
fn finish_common(st: &mut SchedState, tid: TaskId, panic_msg: Option<String>) {
    let waiters = if let Some(info) = st.tasks.get_mut(&tid) {
        info.state = TaskState::Finished;
        info.machine = None;
        std::mem::take(&mut info.join_waiters)
    } else {
        Vec::new()
    };
    SimInner::bump_gen(st, tid);
    for w in waiters {
        if let Some(info) = st.tasks.get_mut(&w) {
            if info.state == TaskState::Blocked {
                info.state = TaskState::Ready;
                let now = st.now;
                SimInner::push_ready(st, w, now);
            }
        }
    }
    st.live -= 1;
    if let Some(msg) = panic_msg {
        if st.poison.is_none() {
            let name = st
                .tasks
                .get(&tid)
                .map(|i| i.name.clone())
                .unwrap_or_default();
            st.poison = Some(format!("simulated thread '{name}' panicked: {msg}"));
        }
    }
}

fn finish_task(inner: &Arc<SimInner>, tid: TaskId, panic_msg: Option<String>) {
    let mut st = inner.state.lock();
    finish_common(&mut st, tid, panic_msg);
    if st.running == Some(tid) {
        st.running = None;
        if !pump(inner, &mut st) {
            SimInner::check_deadlock(&mut st);
        }
    }
    inner.cv.notify_all();
}

/// Handle to a spawned carrier task.
pub struct JoinHandle<T> {
    inner: Arc<SimInner>,
    tid: TaskId,
    result: Arc<Mutex<Option<std::thread::Result<T>>>>,
    carrier: Option<std::thread::JoinHandle<()>>,
}

impl<T> JoinHandle<T> {
    /// The simulated thread's id.
    pub fn id(&self) -> TaskId {
        self.tid
    }

    /// Block (in virtual time when called from a simulated thread, in real
    /// time when called from the host after `run`) until the thread
    /// finishes, returning its result.
    ///
    /// # Panics
    ///
    /// Panics if the joined thread panicked.
    pub fn join(mut self) -> T {
        if on_sim_thread() {
            join_sim_side(&self.inner, self.tid);
        }
        if let Some(c) = self.carrier.take() {
            let _ = c.join();
        }
        match self.result.lock().take() {
            Some(Ok(v)) => v,
            Some(Err(e)) => std::panic::resume_unwind(e),
            None => panic!("joined thread produced no result (never ran?)"),
        }
    }
}

/// Handle to a spawned event task.
pub struct EventHandle {
    inner: Arc<SimInner>,
    tid: TaskId,
}

impl EventHandle {
    /// The event task's id (same id space as carrier tasks).
    pub fn id(&self) -> TaskId {
        self.tid
    }

    /// True once the machine returned [`EventPoll::Done`] (or panicked).
    pub fn is_finished(&self) -> bool {
        self.inner
            .state
            .lock()
            .tasks
            .get(&self.tid)
            .map(|i| i.state == TaskState::Finished)
            .unwrap_or(true)
    }

    /// Block in virtual time until the event task finishes. Callable from
    /// carrier tasks of the same sim; from the host it asserts the task has
    /// already finished (meaningful only after [`Sim::run`]).
    pub fn join(&self) {
        if on_sim_thread() && current_matches(&self.inner) {
            join_sim_side(&self.inner, self.tid);
        } else {
            assert!(
                self.is_finished(),
                "EventHandle::join off the simulation requires the task to have finished"
            );
        }
    }
}

/// Virtual-time half of a join: wait for `tid` to finish, then record the
/// Join edge. Shared by carrier and event joins.
fn join_sim_side(inner: &Arc<SimInner>, tid: TaskId) {
    let me = current_task();
    loop {
        let finished = {
            let mut st = inner.state.lock();
            match st.tasks.get_mut(&tid) {
                None => true,
                Some(i) if i.state == TaskState::Finished => true,
                Some(i) => {
                    i.join_waiters.push(me);
                    false
                }
            }
        };
        if finished {
            break;
        }
        // Safe check-then-block: no other simulated thread can run
        // between the registration above and this block.
        set_wait_context(format!("join on {}", tid));
        block(None);
    }
    if current_matches(inner) {
        let label: Arc<str> = {
            let st = inner.state.lock();
            Arc::from(st.tasks.get(&tid).map(|i| i.name.as_str()).unwrap_or(""))
        };
        emit_sync(SyncOp::Join, tid.0, &label);
    }
}

// ---------------------------------------------------------------------------
// Free functions usable from within simulated threads.
// ---------------------------------------------------------------------------

/// Current virtual time (from within a simulated thread). Lock-free: reads
/// the scheduler's published clock mirror, which cannot move while the
/// calling task is the one running.
#[inline]
pub fn now() -> SimTime {
    with_current_borrowed(|inner, _| SimTime::from_nanos(inner.clock.load(Ordering::Relaxed)))
}

/// Current virtual time, or `None` when called off a simulated thread
/// (e.g. during host-side construction before the simulation starts).
/// Lock-free, like [`now`].
#[inline]
pub fn try_now() -> Option<SimTime> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|(inner, _)| SimTime::from_nanos(inner.clock.load(Ordering::Relaxed)))
    })
}

/// The calling simulated thread's id.
#[inline]
pub fn current_task() -> TaskId {
    with_current_borrowed(|_, tid| tid)
}

/// The calling simulated thread's name.
pub fn current_task_name() -> String {
    with_current(|inner, tid| {
        inner
            .state
            .lock()
            .tasks
            .get(&tid)
            .map(|i| i.name.clone())
            .unwrap_or_default()
    })
}

/// Advance virtual time by `d` for the calling thread. Carrier tasks only —
/// an event task returns [`EventPoll::Sleep`] from its poll instead.
///
/// Fast path: when the sleeper would still be the earliest runnable task at
/// its wake time, the clock simply jumps forward without a carrier switch.
pub fn sleep(d: Duration) {
    // Fast path resolved entirely under the thread-local borrow: no Arc
    // refcount traffic, no switch hook, no pump. Safe because nothing here
    // re-enters the scheduler.
    let wake = with_current_borrowed(|inner, tid| {
        let mut st = inner.state.lock();
        SimInner::poison_check(&st);
        forbid_event_inline(&st, tid, "sleep()");
        debug_assert_eq!(st.running, Some(tid), "sleeping thread must be running");
        let wake = st.now + d;
        // Fast path: nothing else can legally run before `wake`. A peeked
        // entry with wake time strictly earlier must run first; an equal
        // wake time also runs first because its sequence number is older.
        let must_switch = match st.heap.peek() {
            Some(top) => top.wake <= wake,
            None => false,
        };
        if !must_switch {
            st.now = wake;
            inner.clock.store(wake.as_nanos(), Ordering::Relaxed);
            st.stats.fast_advances += 1;
            return None;
        }
        Some(wake)
    });
    let Some(wake) = wake else { return };
    // A genuine handover: let instrumentation drain its buffers while we
    // are still the sole running thread and no scheduler lock is held.
    run_switch_hook();
    with_current(|inner, tid| {
        let mut st = inner.state.lock();
        SimInner::poison_check(&st);
        // Slow path: hand over and wait for our turn. Unconditionally valid
        // even though the lock was dropped — no other simulated thread can
        // have run meanwhile, and the pump may simply pick us again.
        let info = st.tasks.get_mut(&tid).expect("unknown task");
        info.state = TaskState::Ready;
        SimInner::push_ready(&mut st, tid, wake);
        st.running = None;
        pump(inner, &mut st);
        inner.cv.notify_all();
        while st.running != Some(tid) && st.poison.is_none() {
            inner.cv.wait(&mut st);
        }
        SimInner::poison_check(&st);
    });
}

/// Sleep until the given virtual instant (no-op if already past).
pub fn sleep_until(t: SimTime) {
    let n = now();
    if t > n {
        sleep(t - n);
    }
}

/// Let equal-time peers run before continuing. Carrier tasks only — an
/// event task returns [`EventPoll::Yield`] from its poll instead.
pub fn yield_now() {
    with_current(|inner, tid| {
        {
            let st = inner.state.lock();
            SimInner::poison_check(&st);
            forbid_event_inline(&st, tid, "yield_now()");
            if st.heap.peek().is_none() {
                return; // nobody to yield to
            }
        }
        run_switch_hook();
        let mut st = inner.state.lock();
        SimInner::poison_check(&st);
        let info = st.tasks.get_mut(&tid).expect("unknown task");
        info.state = TaskState::Ready;
        let now = st.now;
        SimInner::push_ready(&mut st, tid, now);
        st.running = None;
        pump(inner, &mut st);
        inner.cv.notify_all();
        while st.running != Some(tid) && st.poison.is_none() {
            inner.cv.wait(&mut st);
        }
        SimInner::poison_check(&st);
    });
}

/// Deschedule the calling thread until another thread calls [`wake`] on it,
/// or until `deadline` (if given) elapses. Returns how it was woken.
/// Carrier tasks only — an event task returns [`EventPoll::Block`] from its
/// poll instead.
///
/// This is the primitive on which all of [`crate::sync`] is built. The
/// single-running-thread invariant makes the check-then-block pattern safe:
/// no other simulated thread can run between a caller registering itself in
/// a wait list and this call descheduling it.
pub fn block(deadline: Option<SimTime>) -> WakeReason {
    with_current(|inner, tid| {
        // Blocking always deschedules: fire the switch hook up front, before
        // any scheduler state changes. The single-running-thread invariant
        // keeps the pattern safe — a non-sleeping hook cannot let another
        // thread run between a wait-list registration and this block.
        {
            let st = inner.state.lock();
            SimInner::poison_check(&st);
            forbid_event_inline(&st, tid, "block()");
        }
        run_switch_hook();
        let mut st = inner.state.lock();
        SimInner::poison_check(&st);
        debug_assert_eq!(st.running, Some(tid));
        {
            let info = st.tasks.get_mut(&tid).expect("unknown task");
            info.state = TaskState::Blocked;
        }
        SimInner::bump_gen(&mut st, tid);
        if let Some(dl) = deadline {
            // Register the timeout as a heap entry against the *blocked*
            // generation; the dispatcher interprets popping a Blocked task
            // as a timeout firing.
            let wake = dl.max(st.now);
            SimInner::push_entry(&mut st, tid, wake);
        }
        st.running = None;
        if !pump(inner, &mut st) {
            SimInner::check_deadlock(&mut st);
        }
        inner.cv.notify_all();
        while st.running != Some(tid) && st.poison.is_none() {
            inner.cv.wait(&mut st);
        }
        SimInner::poison_check(&st);
        let info = st.tasks.get_mut(&tid).expect("unknown task");
        info.wait_ctx = None;
        info.wake_reason
    })
}

/// Make a blocked task runnable at the current virtual time. Returns true
/// if the task was indeed blocked (a no-op on any other state returns
/// false — e.g. a waiter already woken by its timeout). Works identically
/// on carrier and event tasks: the woken event task is polled when its
/// calendar entry surfaces.
///
/// Callable only from simulated threads, with one exception: after
/// [`Sim::run`] returns, destructors of sync primitives may run on the host
/// thread; at that point no task can be blocked (the run would have
/// deadlocked otherwise), so an off-sim `wake` is a sound no-op.
pub fn wake(tid: TaskId) -> bool {
    if !on_sim_thread() {
        return false;
    }
    with_current(|inner, _| {
        let mut st = inner.state.lock();
        let Some(info) = st.tasks.get_mut(&tid) else {
            return false;
        };
        if info.state != TaskState::Blocked {
            return false;
        }
        info.state = TaskState::Ready;
        let now = st.now;
        SimInner::push_ready(&mut st, tid, now);
        // The waker keeps running; the woken task enters the calendar.
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn single_thread_advances_clock() {
        let sim = Sim::new();
        let s2 = sim.clone();
        sim.spawn("a", move || {
            assert_eq!(now(), SimTime::ZERO);
            sleep(Duration::from_millis(5));
            assert_eq!(now().as_nanos(), 5_000_000);
            assert!(on_sim_thread());
            let _ = s2; // keep a handle alive inside the sim
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 5_000_000);
        assert!(!on_sim_thread());
    }

    #[test]
    fn two_threads_interleave_in_time_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, step_ms) in [("a", 10u64), ("b", 15u64)] {
            let log = log.clone();
            sim.spawn(name, move || {
                for i in 0..3 {
                    sleep(Duration::from_millis(step_ms));
                    log.lock().push((name, i, now().as_nanos() / 1_000_000));
                }
            });
        }
        sim.run();
        let got = log.lock().clone();
        // At the t=30 tie, b's calendar entry was pushed (at t=15) before
        // a's (at t=20), so FIFO order runs b first.
        assert_eq!(
            got,
            vec![
                ("a", 0, 10),
                ("b", 0, 15),
                ("a", 1, 20),
                ("b", 1, 30),
                ("a", 2, 30),
                ("b", 2, 45),
            ]
        );
    }

    #[test]
    fn equal_time_fifo_order_is_deterministic() {
        for _ in 0..20 {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..8 {
                let log = log.clone();
                sim.spawn(format!("t{i}"), move || {
                    sleep(Duration::from_millis(1));
                    log.lock().push(i);
                });
            }
            sim.run();
            assert_eq!(*log.lock(), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn equal_time_fifo_order_holds_across_flavors() {
        // Alternating carrier/event tasks all wake at t=1ms; the calendar
        // must run them in spawn order regardless of flavor.
        for _ in 0..10 {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..8usize {
                let log = log.clone();
                if i % 2 == 0 {
                    sim.spawn(format!("c{i}"), move || {
                        sleep(Duration::from_millis(1));
                        log.lock().push(i);
                    });
                } else {
                    let mut slept = false;
                    sim.spawn_event(format!("e{i}"), move |_cx: &mut EventCx| {
                        if !slept {
                            slept = true;
                            return EventPoll::Sleep(Duration::from_millis(1));
                        }
                        log.lock().push(i);
                        EventPoll::Done
                    });
                }
            }
            sim.run();
            assert_eq!(*log.lock(), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn spawn_from_sim_thread() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let hit = Arc::new(AtomicU64::new(0));
        let hit2 = hit.clone();
        sim.spawn("parent", move || {
            sleep(Duration::from_millis(1));
            let h = sim2.spawn("child", move || {
                sleep(Duration::from_millis(2));
                hit2.store(now().as_nanos(), Ordering::SeqCst);
                42u32
            });
            assert_eq!(h.join(), 42);
        });
        sim.run();
        assert_eq!(hit.load(Ordering::SeqCst), 3_000_000);
    }

    #[test]
    fn block_and_wake() {
        let sim = Sim::new();
        let slot: Arc<Mutex<Option<TaskId>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        sim.spawn("sleeper", move || {
            *slot2.lock() = Some(current_task());
            let r = block(None);
            assert_eq!(r, WakeReason::Notified);
            o1.lock().push(("woken", now().as_nanos()));
        });
        sim.spawn("waker", move || {
            sleep(Duration::from_millis(7));
            let tid = slot.lock().expect("sleeper registered");
            wake(tid);
            o2.lock().push(("waker-done", now().as_nanos()));
        });
        sim.run();
        let got = order.lock().clone();
        assert_eq!(
            got,
            vec![("waker-done", 7_000_000), ("woken", 7_000_000)],
            "waker continues; woken thread runs when waker blocks/finishes"
        );
    }

    #[test]
    fn block_timeout_fires() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let dl = now() + Duration::from_millis(3);
            let r = block(Some(dl));
            assert_eq!(r, WakeReason::Timeout);
            assert_eq!(now().as_nanos(), 3_000_000);
        });
        sim.run();
    }

    #[test]
    fn wake_beats_timeout() {
        let sim = Sim::new();
        let slot: Arc<Mutex<Option<TaskId>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        sim.spawn("sleeper", move || {
            *slot2.lock() = Some(current_task());
            let r = block(Some(now() + Duration::from_secs(10)));
            assert_eq!(r, WakeReason::Notified);
            assert_eq!(now().as_nanos(), 1_000_000);
            // The stale timeout entry must not fire later.
            sleep(Duration::from_secs(20));
        });
        sim.spawn("waker", move || {
            sleep(Duration::from_millis(1));
            wake(slot.lock().unwrap());
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 20_001_000_000);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected() {
        let sim = Sim::new();
        sim.spawn("stuck", || {
            block(None);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "t0 (stuck): blocked on a latch that nobody sets")]
    fn deadlock_dumps_wait_for_graph() {
        let sim = Sim::new();
        sim.spawn("stuck", || {
            set_wait_context("a latch that nobody sets");
            block(None);
        });
        sim.run();
    }

    #[test]
    fn mixed_flavor_deadlock_names_both_parties() {
        // A carrier and an event task, each blocked on something the other
        // never provides: the wait-for dump must name both, tagging the
        // event task's flavor.
        let sim = Sim::new();
        sim.spawn("stuck-carrier", || {
            set_wait_context("a token from the ticker");
            block(None);
        });
        let mut registered = false;
        sim.spawn_event("stuck-ticker", move |_cx: &mut EventCx| {
            if !registered {
                registered = true;
            }
            set_wait_context("an ack from the carrier");
            EventPoll::Block { deadline: None }
        });
        let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("deadlock must panic");
        let msg = panic_message(&err);
        assert!(
            msg.contains("t0 (stuck-carrier): blocked on a token from the ticker"),
            "carrier missing from dump: {msg}"
        );
        assert!(
            msg.contains("t1 (stuck-ticker) [event]: blocked on an ack from the carrier"),
            "event task missing from dump: {msg}"
        );
    }

    #[test]
    fn sync_observer_sees_spawn_join_finish() {
        struct Rec(Mutex<Vec<(TaskId, SyncOp, u64)>>);
        impl SyncObserver for Rec {
            fn on_sync(&self, ev: &SyncEvent) {
                self.0.lock().push((ev.task, ev.op, ev.obj));
            }
        }
        let rec = Arc::new(Rec(Mutex::new(Vec::new())));
        let sim = Sim::new();
        sim.set_sync_observer(rec.clone());
        let sim2 = sim.clone();
        sim.spawn("parent", move || {
            let h = sim2.spawn("child", || sleep(Duration::from_millis(1)));
            h.join();
        });
        sim.run();
        let got = rec.0.lock().clone();
        let parent = TaskId(0);
        let child = TaskId(1);
        assert!(got.contains(&(parent, SyncOp::Spawn, child.0)));
        assert!(got.contains(&(child, SyncOp::Finish, child.0)));
        assert!(got.contains(&(parent, SyncOp::Join, child.0)));
        // Finish of the child precedes the parent's join completion.
        let fin = got
            .iter()
            .position(|e| *e == (child, SyncOp::Finish, child.0))
            .unwrap();
        let join = got
            .iter()
            .position(|e| *e == (parent, SyncOp::Join, child.0))
            .unwrap();
        assert!(fin < join);
    }

    #[test]
    fn sync_observer_sees_event_task_edges() {
        struct Rec(Mutex<Vec<(TaskId, SyncOp, u64)>>);
        impl SyncObserver for Rec {
            fn on_sync(&self, ev: &SyncEvent) {
                self.0.lock().push((ev.task, ev.op, ev.obj));
            }
        }
        let rec = Arc::new(Rec(Mutex::new(Vec::new())));
        let sim = Sim::new();
        sim.set_sync_observer(rec.clone());
        let sim2 = sim.clone();
        sim.spawn("parent", move || {
            let mut ticks = 0;
            let h = sim2.spawn_event("ticker", move |_cx: &mut EventCx| {
                ticks += 1;
                if ticks < 3 {
                    EventPoll::Sleep(Duration::from_millis(1))
                } else {
                    EventPoll::Done
                }
            });
            h.join();
        });
        sim.run();
        let got = rec.0.lock().clone();
        let parent = TaskId(0);
        let ticker = TaskId(1);
        assert!(got.contains(&(parent, SyncOp::Spawn, ticker.0)));
        assert!(got.contains(&(ticker, SyncOp::Finish, ticker.0)));
        assert!(got.contains(&(parent, SyncOp::Join, ticker.0)));
        let fin = got
            .iter()
            .position(|e| *e == (ticker, SyncOp::Finish, ticker.0))
            .unwrap();
        let join = got
            .iter()
            .position(|e| *e == (parent, SyncOp::Join, ticker.0))
            .unwrap();
        assert!(fin < join);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_propagates() {
        let sim = Sim::new();
        sim.spawn("bad", || panic!("boom"));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "event boom")]
    fn event_task_panic_propagates() {
        let sim = Sim::new();
        sim.spawn_event("bad", |_cx: &mut EventCx| -> EventPoll {
            panic!("event boom")
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "called sleep() inline")]
    fn event_task_may_not_sleep_inline() {
        let sim = Sim::new();
        sim.spawn_event("naughty", |_cx: &mut EventCx| {
            sleep(Duration::from_millis(1)); // panics: no stack to park
            EventPoll::Done
        });
        sim.run();
    }

    #[test]
    fn lone_event_task_runs_on_host_thread() {
        // A pure event-task simulation must complete without spawning any
        // carrier; the host thread in Sim::run drives the calendar.
        let sim = Sim::new();
        let mut left = 1000u32;
        sim.spawn_event("timer", move |cx: &mut EventCx| {
            assert_eq!(cx.wake_reason(), WakeReason::Notified);
            if left == 0 {
                return EventPoll::Done;
            }
            left -= 1;
            EventPoll::Sleep(Duration::from_micros(10))
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 1000 * 10_000);
        let stats = sim.stats();
        assert_eq!(stats.event_spawns, 1);
        assert_eq!(stats.carrier_spawns, 0);
        assert!(stats.event_polls >= 1001, "one poll per tick plus Done");
        assert_eq!(stats.switches, 0, "no carrier ever dispatched");
    }

    #[test]
    fn event_task_block_wake_and_timeout() {
        let sim = Sim::new();
        let slot: Arc<Mutex<Option<TaskId>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        let mut phase = 0;
        sim.spawn_event("waiter", move |cx: &mut EventCx| {
            phase += 1;
            match phase {
                1 => {
                    *slot2.lock() = Some(cx.task());
                    // First a bounded wait that nobody answers...
                    EventPoll::Block {
                        deadline: Some(cx.now() + Duration::from_millis(2)),
                    }
                }
                2 => {
                    assert_eq!(cx.wake_reason(), WakeReason::Timeout);
                    log2.lock().push(("timeout", cx.now().as_nanos()));
                    // ...then an unbounded wait the carrier answers.
                    EventPoll::Block { deadline: None }
                }
                _ => {
                    assert_eq!(cx.wake_reason(), WakeReason::Notified);
                    log2.lock().push(("notified", cx.now().as_nanos()));
                    EventPoll::Done
                }
            }
        });
        sim.spawn("waker", move || {
            sleep(Duration::from_millis(5));
            wake(slot.lock().expect("registered"));
        });
        sim.run();
        assert_eq!(
            *log.lock(),
            vec![("timeout", 2_000_000), ("notified", 5_000_000)]
        );
    }

    #[test]
    fn event_handle_join_from_carrier_inherits_clock() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.spawn("main", move || {
            let mut done = false;
            let h = sim2.spawn_event("slow", move |_cx: &mut EventCx| {
                if done {
                    return EventPoll::Done;
                }
                done = true;
                EventPoll::Sleep(Duration::from_millis(4))
            });
            assert!(!h.is_finished());
            h.join();
            assert!(h.is_finished());
            assert_eq!(now().as_nanos(), 4_000_000);
        });
        sim.run();
    }

    #[test]
    fn ten_thousand_event_tasks_one_os_thread() {
        // The scale contract in miniature: 10k simulated tasks, zero
        // carriers. Each sleeps a staggered amount twice, then finishes.
        let sim = Sim::new();
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..10_000u64 {
            let done = done.clone();
            let mut phase = 0;
            sim.spawn_event(format!("e{i}"), move |_cx: &mut EventCx| {
                phase += 1;
                if phase <= 2 {
                    EventPoll::Sleep(Duration::from_micros(1 + i % 97))
                } else {
                    done.fetch_add(1, Ordering::Relaxed);
                    EventPoll::Done
                }
            });
        }
        sim.run();
        assert_eq!(done.load(Ordering::Relaxed), 10_000);
        let stats = sim.stats();
        assert_eq!(stats.peak_live_tasks, 10_000);
        assert_eq!(stats.switches, 0, "no OS-thread handover anywhere");
    }

    #[test]
    fn heap_stays_compact_under_timeout_then_notify_churn() {
        // Each round: the waiter blocks with a far deadline, the waker
        // notifies long before it fires. Without compaction every round
        // leaves a stale hour-out tombstone and the heap grows to ~10k;
        // with lazy compaction it stays O(live tasks).
        const ROUNDS: usize = 10_000;
        let sim = Sim::new();
        let slot: Arc<Mutex<Option<TaskId>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        sim.spawn("waiter", move || {
            *slot2.lock() = Some(current_task());
            for _ in 0..ROUNDS {
                let r = block(Some(now() + Duration::from_secs(3600)));
                assert_eq!(r, WakeReason::Notified);
            }
        });
        sim.spawn("waker", move || {
            for _ in 0..ROUNDS {
                sleep(Duration::from_micros(1));
                let tid = slot.lock().expect("waiter registered");
                wake(tid);
            }
        });
        sim.run();
        let stats = sim.stats();
        assert!(
            stats.peak_heap_depth <= 64,
            "heap must stay O(live tasks) under churn, peaked at {}",
            stats.peak_heap_depth
        );
        assert!(
            stats.heap_compactions > 0,
            "churn at this volume must trigger compaction"
        );
    }

    #[test]
    fn stats_track_peaks_and_flavors() {
        let sim = Sim::new();
        for i in 0..3 {
            sim.spawn(format!("c{i}"), || sleep(Duration::from_millis(1)));
        }
        let mut done = false;
        sim.spawn_event("e0", move |_cx: &mut EventCx| {
            if done {
                return EventPoll::Done;
            }
            done = true;
            EventPoll::Sleep(Duration::from_millis(1))
        });
        sim.run();
        let stats = sim.stats();
        assert_eq!(stats.carrier_spawns, 3);
        assert_eq!(stats.event_spawns, 1);
        assert_eq!(stats.peak_live_tasks, 4);
        assert!(stats.peak_heap_depth >= 4);
        assert!(stats.event_polls >= 2);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn fast_path_is_used_for_lone_sleeper() {
        let sim = Sim::new();
        sim.spawn("t", || {
            for _ in 0..100 {
                sleep(Duration::from_micros(10));
            }
        });
        sim.run();
        assert!(
            sim.fast_advances() >= 100,
            "lone sleeper should use the fast path, got {}",
            sim.fast_advances()
        );
    }

    #[test]
    fn try_now_and_names() {
        assert_eq!(try_now(), None, "host thread has no virtual clock");
        let sim = Sim::new();
        sim.spawn("pipeline-worker", || {
            assert_eq!(try_now(), Some(SimTime::ZERO));
            assert_eq!(current_task_name(), "pipeline-worker");
            sleep(Duration::from_millis(2));
            sleep_until(SimTime::from_nanos(1_000_000)); // already past: no-op
            assert_eq!(now().as_nanos(), 2_000_000);
            sleep_until(SimTime::from_nanos(5_000_000));
            assert_eq!(now().as_nanos(), 5_000_000);
        });
        sim.run();
    }

    #[test]
    fn join_returns_value_and_time() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.spawn("main", move || {
            let h = sim2.spawn("worker", || {
                sleep(Duration::from_millis(4));
                "done"
            });
            assert_eq!(h.join(), "done");
            assert!(now().as_nanos() >= 4_000_000);
        });
        sim.run();
    }

    /// Record the order tasks run in for a two-writer equal-instant rendezvous.
    fn race_order(policy: Option<Arc<dyn SchedulePolicy>>) -> (Vec<&'static str>, SchedStats) {
        let sim = Sim::new();
        if let Some(p) = policy {
            sim.set_schedule_policy(p);
        }
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for name in ["a", "b", "c"] {
            let order = order.clone();
            sim.spawn(name, move || {
                sleep(Duration::from_millis(1)); // all three wake at t=1ms
                order.lock().push(name);
            });
        }
        sim.run();
        let o = order.lock().clone();
        (o, sim.stats())
    }

    /// Pick `choice` at the t=1ms rendezvous, FIFO everywhere else (the
    /// spawn instant t=0 is a decision point too; keeping it FIFO keeps
    /// the calendar sequence order predictable for the assertion).
    struct PickAtRendezvous(usize);
    impl SchedulePolicy for PickAtRendezvous {
        fn choose(&self, point: &DecisionPoint<'_>) -> usize {
            if point.now.as_nanos() == 1_000_000 {
                self.0
            } else {
                0
            }
        }
    }

    #[test]
    fn schedule_policy_reorders_equal_instant_wakes() {
        let (fifo, st) = race_order(None);
        assert_eq!(fifo, vec!["a", "b", "c"]);
        assert_eq!(st.decision_points, 0, "no policy: FIFO fast path");

        let (same, st) = race_order(Some(Arc::new(PickAtRendezvous(0))));
        assert_eq!(same, fifo, "index-0 policy reproduces FIFO exactly");
        assert!(st.decision_points >= 2, "policy consulted at t=0 and t=1ms");

        // Picking the last candidate at every 1ms decision reverses the
        // order; the non-chosen entries keep their FIFO priority.
        let (rev, _) = race_order(Some(Arc::new(PickAtRendezvous(usize::MAX - 1))));
        assert_eq!(rev, vec!["c", "b", "a"], "losers keep FIFO priority");
    }

    #[test]
    fn schedule_policy_out_of_range_choice_is_clamped() {
        let (order, _) = race_order(Some(Arc::new(PickAtRendezvous(usize::MAX))));
        assert_eq!(order, vec!["c", "b", "a"]);
    }
}
