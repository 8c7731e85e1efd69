//! Instrumentation backplane: a single event spine between the simulated
//! syscall layer and every instrumentation consumer.
//!
//! The terminal libc/stdio bindings in `posix-sim` emit exactly one
//! [`IoEvent`] per completed operation into **one ring per OS thread**,
//! shared by every bus that thread emits on — a slot append, no
//! allocation, no lock shared with any consumer. The ring is bus-tagged:
//! each run of consecutive same-bus slots carries the index of its bus in
//! a table of the buses with pending events, so staying on the previous
//! event's bus costs one pointer compare and a bus change one lookup in
//! that table. Event targets are interned [`PathId`]s (see [`intern`]), so
//! an event is `Copy`-cheap to construct: no `Arc` refcount traffic on
//! the hot path. The ring is drained at deterministic points only:
//!
//! * whenever the simulated thread actually context-switches (simrt's
//!   switch hook — fast-path virtual-time advances do *not* flush),
//! * when a carrier task finishes,
//! * explicitly via [`flush_current_thread`] at extraction points
//!   (Darshan snapshot/totals, profiler start/stop, detach),
//! * inline, when a ring fills before any of the above (a thread emitting
//!   more than [`RING_CAPACITY`] events between switches) — the full ring
//!   is delivered immediately so emission is lossless and memory-bounded.
//!
//! A drain delivers the ring run-wise in emission order: each maximal run
//! of same-bus events is one batch to that bus's sinks. Because simrt runs
//! exactly one simulated thread at any moment and every descheduling point
//! flushes, each bus sees its events in op-completion order, a sink
//! registered on several buses sees them in global emission order, and all
//! *parked* threads always have empty rings.
//!
//! # Sink rules
//!
//! [`ProbeSink::on_events`] runs inside the scheduler's switch path. It must
//! not call [`simrt::sleep`], [`simrt::block`] or [`simrt::yield_now`]
//! (a wake delivered to a Running task is lost, so sleeping here can deadlock
//! a primitive that registered a waiter before blocking). Charge simulated
//! overhead at the emission site instead. Sinks that need the event's path
//! resolve it with [`PathId::resolve`] — wait-free, safe from the switch
//! path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod intern;

pub use intern::{intern, intern_arc, PathId};

use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simrt::{SimTime, SyncEvent, SyncObserver, SyncOp, TaskId};

/// Who performed the underlying POSIX operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The application called the (possibly interposed) symbol itself.
    App,
    /// The simulated stdio layer issued this descriptor operation internally
    /// (buffer refills, spills, stream open/close). POSIX-level consumers
    /// that model `LD_PRELOAD` interposition must ignore these: a real
    /// wrapped `read` never sees libc-internal `fread` traffic.
    StdioInternal,
    /// A background staging/prefetch daemon issued this operation while
    /// warming or draining a faster storage tier. Application-attributed
    /// consumers (the Darshan modules) must ignore these — daemon traffic
    /// would otherwise inflate the application's POSIX counters — while
    /// system-wide consumers (dstat) still see it, as a real block-level
    /// monitor would.
    Prefetch,
}

/// What happened. Descriptor, stream and map handles are raw integers so the
/// spine does not depend on `posix-sim` (which depends on this crate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// `open()` succeeded, returning `fd`.
    Open {
        /// Descriptor returned by the open.
        fd: i32,
    },
    /// `close(fd)` succeeded.
    Close {
        /// Descriptor closed.
        fd: i32,
    },
    /// `read()`/`pread()` returned `len` bytes from `offset`.
    Read {
        /// Descriptor read from.
        fd: i32,
        /// File offset the transfer started at.
        offset: u64,
        /// Bytes actually transferred (may be short at EOF, may be 0).
        len: u64,
    },
    /// `write()`/`pwrite()` wrote `len` bytes at `offset`.
    Write {
        /// Descriptor written to.
        fd: i32,
        /// File offset the transfer started at.
        offset: u64,
        /// Bytes actually transferred.
        len: u64,
    },
    /// `lseek()` repositioned `fd` to absolute offset `to`.
    Seek {
        /// Descriptor repositioned.
        fd: i32,
        /// Resulting absolute file position.
        to: u64,
    },
    /// `stat()` on the event's `target` path (no descriptor involved).
    Stat,
    /// `fstat(fd)`.
    Fstat {
        /// Descriptor queried.
        fd: i32,
    },
    /// `fsync(fd)`.
    Fsync {
        /// Descriptor synced.
        fd: i32,
    },
    /// `mmap()` established mapping `map` over `fd`.
    Mmap {
        /// Opaque mapping handle.
        map: u64,
        /// Descriptor backing the mapping.
        fd: i32,
        /// File offset of the mapping.
        offset: u64,
        /// Length of the mapping.
        len: u64,
    },
    /// `msync()` on mapping `map`.
    Msync {
        /// Mapping handle.
        map: u64,
    },
    /// `munmap()` tore down mapping `map`.
    Munmap {
        /// Mapping handle.
        map: u64,
    },
    /// A page fault serviced through a memory mapping — I/O that is
    /// invisible to syscall interposition (the Caffe/LMDB blind spot).
    MmapFault {
        /// Mapping handle.
        map: u64,
        /// File offset of the faulting page run.
        offset: u64,
        /// Bytes paged in/out.
        len: u64,
        /// True for a dirty-page write-back path, false for a read fault.
        write: bool,
    },
    /// `fopen()` succeeded, returning `stream`.
    StdioOpen {
        /// Opaque stream handle.
        stream: u64,
    },
    /// `fclose(stream)`.
    StdioClose {
        /// Stream handle closed.
        stream: u64,
    },
    /// `fread()` returned `len` bytes at stream position `pos`.
    StdioRead {
        /// Stream handle.
        stream: u64,
        /// Stream position before the call.
        pos: u64,
        /// Bytes actually transferred.
        len: u64,
    },
    /// `fwrite()` accepted `len` bytes at stream position `pos`.
    StdioWrite {
        /// Stream handle.
        stream: u64,
        /// Stream position before the call.
        pos: u64,
        /// Bytes actually transferred.
        len: u64,
    },
    /// `fseek()` repositioned the stream to absolute offset `to`.
    StdioSeek {
        /// Stream handle.
        stream: u64,
        /// Resulting absolute stream position.
        to: u64,
    },
    /// `fflush(stream)`.
    StdioFlush {
        /// Stream handle.
        stream: u64,
    },
    /// A host-side profiler annotation span (TraceMe). `target` carries the
    /// span name; `label` the "thread (tid)" line it belongs to.
    TraceSpan {
        /// Timeline line label, `"{task_name} ({task_id})"` (interned).
        label: PathId,
        /// Extra key/value annotations attached to the span.
        stats: Vec<(String, String)>,
    },
    /// A synchronization operation (lock acquire/release, signal/wait edge,
    /// spawn/join/finish), bridged from `simrt` by [`SyncBridge`]. `target`
    /// carries the sync object's label. Interleaved with the I/O events in
    /// execution order, these give happens-before analyzers (`iosan`) the
    /// ordering edges of the run.
    Sync {
        /// What the operation did.
        op: SyncOp,
        /// Sync-object id (or peer task id for spawn/join/finish).
        obj: u64,
    },
}

/// One completed instrumented operation: who, when, on what, and what kind.
/// `Eq` compares every field; replay harnesses (the `explore` crate) use it
/// to assert two schedules produced byte-identical event streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoEvent {
    /// Simulated thread that performed the operation.
    pub task: TaskId,
    /// Process the operation belongs to (0 = unattributed, e.g. sync
    /// bridge events). Fd numbers are only unique per process, so
    /// consumers of a shared multi-process bus (a job spine) must key any
    /// per-descriptor state by `(pid, fd)`, never by fd alone.
    pub pid: u32,
    /// Virtual time at operation entry (includes modeled syscall overhead).
    pub t0: SimTime,
    /// Virtual time at operation completion.
    pub t1: SimTime,
    /// Application-issued or stdio-internal.
    pub origin: Origin,
    /// Interned path the operation targets (span name for
    /// [`EventKind::TraceSpan`]). Resolve to the string with
    /// [`PathId::resolve`] at fold/snapshot time; never on the hot path.
    pub target: PathId,
    /// Operation payload.
    pub kind: EventKind,
}

/// A consumer of the event spine.
pub trait ProbeSink: Send + Sync {
    /// Fold a batch of events into this consumer's state.
    ///
    /// Called on the sim thread that *emitted* the batch, at one of the
    /// deterministic flush points. Must not sleep, block or yield (see
    /// crate docs); take only the sink's own locks.
    fn on_events(&self, events: &[IoEvent]);
}

/// Handle returned by [`ProbeBus::register`]; pass to [`ProbeBus::unregister`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkId(u64);

/// Immutable sink snapshot; swapped wholesale on (un)register so a flush
/// is one `Arc` clone, never a `Vec` allocation.
type SinkList = Arc<Vec<(SinkId, Arc<dyn ProbeSink>)>>;

struct BusInner {
    sinks: RwLock<SinkList>,
    /// Cached `sinks.len()`, so the emission fast path is one relaxed load.
    active: AtomicUsize,
    next_id: Mutex<u64>,
    /// Live [`ProbeBus`] handles over this spine. Thread-local rings hold
    /// only the `Arc<BusInner>`, not a handle — when this drops to zero the
    /// bus is *defunct*: nobody can register, unregister or extract from it
    /// again, so any events still buffered for it are dead and must be
    /// discarded, not delivered into whatever simulation runs next on the
    /// same host thread.
    handles: AtomicUsize,
}

impl BusInner {
    fn is_defunct(&self) -> bool {
        self.handles.load(Ordering::Acquire) == 0
    }
}

/// Deliver one batch to every sink of `bus`. The sink list is an immutable
/// snapshot behind an `Arc`, so this takes a read lock for the duration of
/// one pointer clone and allocates nothing.
fn deliver(bus: &BusInner, events: &[IoEvent]) {
    if events.is_empty() {
        return;
    }
    let sinks: SinkList = Arc::clone(&bus.sinks.read());
    for (_, sink) in sinks.iter() {
        sink.on_events(events);
    }
}

/// The per-process event spine. Emission appends to a thread-local ring
/// tagged with this bus; no consumer lock is touched until a flush point.
///
/// Each simulated [`Process`](../posix_sim/struct.Process.html) owns its own
/// bus, so concurrently running simulations (e.g. parallel tests) never see
/// each other's events.
pub struct ProbeBus {
    inner: Arc<BusInner>,
}

impl Clone for ProbeBus {
    /// Cloning is cheap and shares the underlying spine: clones see the
    /// same sinks, and the ring tags their events as one bus.
    fn clone(&self) -> Self {
        self.inner.handles.fetch_add(1, Ordering::AcqRel);
        ProbeBus {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for ProbeBus {
    fn drop(&mut self) {
        self.inner.handles.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Default for ProbeBus {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeBus {
    /// Create an empty bus and make sure the scheduler flush hook is in
    /// place so buffered events drain at every real context switch.
    pub fn new() -> Self {
        simrt::set_context_switch_hook(flush_current_thread);
        ProbeBus {
            inner: Arc::new(BusInner {
                sinks: RwLock::new(Arc::new(Vec::new())),
                active: AtomicUsize::new(0),
                next_id: Mutex::new(0),
                handles: AtomicUsize::new(1),
            }),
        }
    }

    /// True when at least one sink is registered. The emission layer checks
    /// this before capturing timestamps or building an event, so an
    /// uninstrumented run pays only this atomic load per operation.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.active.load(Ordering::Relaxed) != 0
    }

    /// Number of registered sinks.
    pub fn sink_count(&self) -> usize {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Register a sink. Events already buffered on the current thread are
    /// flushed first so the new sink only sees operations that complete
    /// after registration.
    pub fn register(&self, sink: Arc<dyn ProbeSink>) -> SinkId {
        flush_current_thread();
        let id = {
            let mut n = self.inner.next_id.lock();
            *n += 1;
            SinkId(*n)
        };
        let mut sinks = self.inner.sinks.write();
        let mut next = Vec::with_capacity(sinks.len() + 1);
        next.extend(sinks.iter().cloned());
        next.push((id, sink));
        self.inner.active.store(next.len(), Ordering::Relaxed);
        *sinks = Arc::new(next);
        id
    }

    /// Unregister a sink, first flushing the current thread's ring so the
    /// departing sink receives every event emitted before this call. (All
    /// parked threads flushed when they descheduled, so nothing else is
    /// pending.)
    pub fn unregister(&self, id: SinkId) {
        flush_current_thread();
        let mut sinks = self.inner.sinks.write();
        let next: Vec<_> = sinks
            .iter()
            .filter(|(sid, _)| *sid != id)
            .cloned()
            .collect();
        self.inner.active.store(next.len(), Ordering::Relaxed);
        *sinks = Arc::new(next);
    }

    /// Append one event, tagged with this bus, to the current thread's
    /// ring. No-op when no sink is registered. If the ring is full (more
    /// than [`RING_CAPACITY`] events since the last flush point) the whole
    /// ring is delivered inline — lossless, bounded memory.
    #[inline]
    pub fn emit(&self, event: IoEvent) {
        if !self.is_active() {
            return;
        }
        if let Some(event) = RING.with(|r| r.borrow_mut().push(&self.inner, event)) {
            self.emit_overflow(event);
        }
    }

    /// Ring-full slow path: take every pending event (all buses) and the
    /// bus table out of the ring, append the overflowing event (it is the
    /// newest, so emission order is preserved) and deliver inline. The
    /// `RefCell` borrow is released before any sink runs, so sinks may
    /// themselves emit — their events land in the now-empty ring and flush
    /// at the next flush point.
    #[cold]
    fn emit_overflow(&self, event: IoEvent) {
        let mut pending = RING.with(|r| r.borrow_mut().take());
        pending.append(&self.inner, event);
        pending.deliver_runs();
    }

    /// Deliver a pre-built batch straight to this bus's sinks, bypassing
    /// the per-thread ring. The merge stage for sharded topologies: a
    /// relay draining several shard buses re-emits each drained batch onto
    /// a downstream bus with one call. Events arrive in batch order, but
    /// nothing orders *across* batches from different shards — only
    /// order-insensitive consumers (commutative counters, gauges) should
    /// sit downstream; strict happens-before consumers need a bus the
    /// events were emitted to directly.
    pub fn deliver_batch(&self, events: &[IoEvent]) {
        if events.is_empty() || !self.is_active() {
            return;
        }
        deliver(&self.inner, events);
    }

    /// Whether two handles refer to the same underlying bus (one ring tag,
    /// same sink snapshot). Cloned handles compare equal; two buses from
    /// separate [`ProbeBus::new`] calls never do.
    pub fn same_bus(&self, other: &ProbeBus) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Events a sim thread can buffer between flush points before the ring
/// delivers itself inline.
pub const RING_CAPACITY: usize = 1024;

/// An OS thread's pending events, bus-tagged run by run. The thread's own
/// ring keeps `RING_CAPACITY` event slots for its lifetime; a drain moves
/// the events, their runs and the bus table out into a detached `Ring` of
/// the same shape and delivers from there.
#[derive(Default)]
struct Ring {
    /// Pending events, emission order.
    events: Vec<IoEvent>,
    /// `(bus tag, first slot)` of each maximal run of same-bus events; a
    /// run ends where the next one starts.
    runs: Vec<(u16, usize)>,
    /// The buses with pending events, indexed by tag. Cleared at every
    /// drain, so it never outgrows the ring and holds one `Arc` per bus
    /// per flush window, not per event.
    buses: Vec<Arc<BusInner>>,
}

impl Ring {
    /// Append `event` for `bus`, or hand it back when the ring is full.
    #[inline]
    fn push(&mut self, bus: &Arc<BusInner>, event: IoEvent) -> Option<IoEvent> {
        if self.events.len() == RING_CAPACITY {
            return Some(event);
        }
        self.append(bus, event);
        None
    }

    /// Append without a capacity check. Staying on the bus of the previous
    /// event is one pointer compare; a bus change opens a new run.
    #[inline]
    fn append(&mut self, bus: &Arc<BusInner>, event: IoEvent) {
        let same = matches!(self.runs.last(),
            Some(&(tag, _)) if Arc::ptr_eq(&self.buses[tag as usize], bus));
        if !same {
            self.open_run(bus);
        }
        self.events.push(event);
    }

    /// Start a run for `bus`: one lookup in the table of buses pending
    /// since the last drain, adding `bus` on its first event there.
    fn open_run(&mut self, bus: &Arc<BusInner>) {
        let tag = match self.buses.iter().position(|b| Arc::ptr_eq(b, bus)) {
            Some(tag) => tag,
            None => {
                self.buses.push(Arc::clone(bus));
                self.buses.len() - 1
            }
        };
        // The table never outgrows the ring (RING_CAPACITY + 1), so tags fit.
        self.runs.push((tag as u16, self.events.len()));
    }

    /// Move every pending event, run and bus out, leaving an empty ring
    /// that keeps its slots. The detached ring has room for one more event
    /// (the overflow path appends the newest one).
    fn take(&mut self) -> Ring {
        if self.events.is_empty() {
            return Ring::default();
        }
        let mut events = Vec::with_capacity(self.events.len() + 1);
        events.append(&mut self.events);
        Ring {
            events,
            runs: std::mem::take(&mut self.runs),
            buses: std::mem::take(&mut self.buses),
        }
    }

    /// Deliver each run, in emission order, as one batch to its bus's
    /// sinks. Runs of a defunct bus — every `ProbeBus` handle dropped, e.g.
    /// a previous `Sim`'s process bus — are discarded: delivering them
    /// would carry a dead simulation's events into whatever runs next on
    /// this host thread.
    fn deliver_runs(&self) {
        for (i, &(tag, start)) in self.runs.iter().enumerate() {
            let end = self.runs.get(i + 1).map_or(self.events.len(), |r| r.1);
            let bus = &self.buses[tag as usize];
            if !bus.is_defunct() {
                deliver(bus, &self.events[start..end]);
            }
        }
    }
}

thread_local! {
    /// This OS thread's ring, shared by every bus it emits on.
    static RING: RefCell<Ring> = RefCell::new(Ring {
        events: Vec::with_capacity(RING_CAPACITY),
        ..Ring::default()
    });
    /// Re-entrancy guard: a sink fold must not trigger a nested flush.
    static FLUSHING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Holds the calling thread's `FLUSHING` flag. Dropping it clears the flag,
/// also while a panicking sink unwinds, so a caught panic cannot turn every
/// later flush on the thread into a silent no-op.
struct FlushGuard;

impl FlushGuard {
    /// `None` when a flush is already running on this thread.
    fn enter() -> Option<FlushGuard> {
        (!FLUSHING.with(|f| f.replace(true))).then_some(FlushGuard)
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        FLUSHING.with(|f| f.set(false));
    }
}

/// Drain the calling OS thread's ring into the sinks of each event's bus,
/// run by run in emission order. Installed as simrt's context-switch hook;
/// also called explicitly at extraction points (snapshot, totals, detach,
/// profiler start/stop) so the stream is complete there even without an
/// intervening switch.
pub fn flush_current_thread() {
    let Some(_flushing) = FlushGuard::enter() else {
        return;
    };
    // Loop until the ring stays empty: a sink fold may itself emit (e.g. a
    // sink notifying a daemon produces a Signal sync event on this thread),
    // and those events must be delivered *now*, before the next simulated
    // thread runs, to preserve the global execution-order guarantee. Bounded
    // so a pathological always-emitting sink cannot spin forever. Moving
    // the events out first keeps the RefCell unborrowed while sinks run.
    for _round in 0..8 {
        let pending = RING.with(|r| r.borrow_mut().take());
        if pending.events.is_empty() {
            break;
        }
        pending.deliver_runs();
    }
}

/// Drop every pending event on the calling OS thread **without delivering**.
/// Schedule-exploration harnesses call this between schedules: a replayed
/// run must start from an empty instrumentation backplane, and events a
/// previous schedule buffered but never flushed (e.g. because it deadlocked
/// and was abandoned mid-run) must not leak into the next schedule's
/// stream. A no-op outside exploration — normal teardown already discards
/// defunct-bus events at the next flush.
pub fn discard_thread_rings() {
    drop(RING.with(|r| r.borrow_mut().take()));
}

/// Bridges `simrt` synchronization events onto a [`ProbeBus`] as
/// [`EventKind::Sync`] events, interleaved with the I/O stream in execution
/// order (the observer runs on the emitting task's carrier thread, and the
/// per-thread ring drains at every context switch).
///
/// Install with [`SyncBridge::install`]; remember to
/// [`simrt::Sim::clear_sync_observer`] when analysis ends.
pub struct SyncBridge {
    bus: ProbeBus,
}

impl SyncBridge {
    /// Create a bridge emitting into `bus`.
    pub fn new(bus: ProbeBus) -> Arc<Self> {
        Arc::new(SyncBridge { bus })
    }

    /// Create and register a bridge as `sim`'s sync observer.
    pub fn install(sim: &simrt::Sim, bus: ProbeBus) -> Arc<Self> {
        let bridge = Self::new(bus);
        sim.set_sync_observer(bridge.clone());
        bridge
    }
}

impl SyncObserver for SyncBridge {
    fn on_sync(&self, ev: &SyncEvent) {
        if !self.bus.is_active() {
            return;
        }
        self.bus.emit(IoEvent {
            task: ev.task,
            pid: 0,
            t0: ev.time,
            t1: ev.time,
            origin: Origin::App,
            target: intern_arc(&ev.label),
            kind: EventKind::Sync {
                op: ev.op,
                obj: ev.obj,
            },
        });
    }
}

/// A sink that records every event it sees; used by replay/property tests
/// to recompute instrumentation state from the raw stream.
#[derive(Default)]
pub struct CollectingSink {
    events: Mutex<Vec<IoEvent>>,
}

impl CollectingSink {
    /// New empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the collected events, leaving the collector empty.
    pub fn take(&self) -> Vec<IoEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Copy of the collected events.
    pub fn snapshot(&self) -> Vec<IoEvent> {
        self.events.lock().clone()
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl ProbeSink for CollectingSink {
    fn on_events(&self, events: &[IoEvent]) {
        self.events.lock().extend_from_slice(events);
    }
}

/// A sink that only counts events and bytes — cheap enough for hot-path
/// overhead benchmarks.
#[derive(Default)]
pub struct CountingSink {
    /// Total events observed.
    pub events: AtomicUsize,
    /// Total bytes across read/write-like events.
    pub bytes: AtomicUsize,
}

impl CountingSink {
    /// New zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ProbeSink for CountingSink {
    fn on_events(&self, events: &[IoEvent]) {
        self.events.fetch_add(events.len(), Ordering::Relaxed);
        let bytes: u64 = events
            .iter()
            .map(|e| match e.kind {
                EventKind::Read { len, .. }
                | EventKind::Write { len, .. }
                | EventKind::StdioRead { len, .. }
                | EventKind::StdioWrite { len, .. }
                | EventKind::MmapFault { len, .. } => len,
                _ => 0,
            })
            .sum();
        self.bytes.fetch_add(bytes as usize, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(kind: EventKind) -> IoEvent {
        IoEvent {
            task: TaskId(1),
            pid: 0,
            t0: SimTime::ZERO,
            t1: SimTime::ZERO + Duration::from_nanos(10),
            origin: Origin::App,
            target: intern("/f"),
            kind,
        }
    }

    fn fsync_fds(events: &[IoEvent]) -> Vec<i32> {
        events
            .iter()
            .map(|e| match e.kind {
                EventKind::Fsync { fd } => fd,
                ref k => panic!("unexpected kind {k:?}"),
            })
            .collect()
    }

    /// (slots, pending events, pending buses) of this thread's ring.
    fn ring_shape() -> (usize, usize, usize) {
        RING.with(|r| {
            let r = r.borrow();
            (r.events.capacity(), r.events.len(), r.buses.len())
        })
    }

    #[test]
    fn emit_without_sinks_is_dropped() {
        let bus = ProbeBus::new();
        bus.emit(ev(EventKind::Stat));
        let sink = Arc::new(CollectingSink::new());
        bus.register(sink.clone());
        flush_current_thread();
        assert!(sink.is_empty(), "pre-registration events must not arrive");
    }

    #[test]
    fn events_buffer_until_flush() {
        let bus = ProbeBus::new();
        let sink = Arc::new(CollectingSink::new());
        bus.register(sink.clone());
        bus.emit(ev(EventKind::Read {
            fd: 3,
            offset: 0,
            len: 8,
        }));
        bus.emit(ev(EventKind::Write {
            fd: 3,
            offset: 8,
            len: 8,
        }));
        assert!(sink.is_empty(), "no delivery before a flush point");
        flush_current_thread();
        assert_eq!(sink.len(), 2);
        flush_current_thread();
        assert_eq!(sink.len(), 2, "flush is idempotent on an empty ring");
    }

    #[test]
    fn unregister_flushes_pending_events_first() {
        let bus = ProbeBus::new();
        let sink = Arc::new(CollectingSink::new());
        let id = bus.register(sink.clone());
        bus.emit(ev(EventKind::Fsync { fd: 4 }));
        bus.unregister(id);
        assert_eq!(sink.len(), 1, "departing sink receives buffered events");
        assert!(!bus.is_active());
        bus.emit(ev(EventKind::Fsync { fd: 4 }));
        flush_current_thread();
        assert_eq!(sink.len(), 1, "no delivery after unregister");
    }

    #[test]
    fn buses_are_isolated() {
        let a = ProbeBus::new();
        let b = ProbeBus::new();
        let sa = Arc::new(CollectingSink::new());
        let sb = Arc::new(CollectingSink::new());
        a.register(sa.clone());
        b.register(sb.clone());
        a.emit(ev(EventKind::Stat));
        flush_current_thread();
        assert_eq!(sa.len(), 1);
        assert!(sb.is_empty());
    }

    #[test]
    fn ring_full_flushes_inline_lossless_in_order() {
        // Regression: emitting more than RING_CAPACITY events between
        // context switches must flush inline — not drop events, not grow
        // without bound.
        let bus = ProbeBus::new();
        let sink = Arc::new(CollectingSink::new());
        bus.register(sink.clone());
        let n = RING_CAPACITY * 3 + 17;
        for i in 0..n {
            bus.emit(ev(EventKind::Read {
                fd: 3,
                offset: i as u64,
                len: 1,
            }));
        }
        assert!(
            sink.len() >= RING_CAPACITY * 3,
            "full rings were delivered inline, not accumulated"
        );
        flush_current_thread();
        let events = sink.snapshot();
        assert_eq!(events.len(), n, "lossless across inline flushes");
        for (i, e) in events.iter().enumerate() {
            match e.kind {
                EventKind::Read { offset, .. } => assert_eq!(offset, i as u64),
                ref k => panic!("unexpected kind {k:?}"),
            }
        }
    }

    #[test]
    fn sink_emitting_during_inline_overflow_flush_is_not_lost() {
        // A sink that emits back onto the bus while an overflow batch is
        // being delivered: its events land in the (now empty) ring and
        // arrive at the next flush point.
        struct Echo {
            bus: ProbeBus,
            echoed: std::sync::atomic::AtomicBool,
            seen: AtomicUsize,
        }
        impl ProbeSink for Echo {
            fn on_events(&self, events: &[IoEvent]) {
                self.seen.fetch_add(events.len(), Ordering::Relaxed);
                if !self.echoed.swap(true, Ordering::Relaxed) {
                    self.bus.emit(IoEvent {
                        task: TaskId(9),
                        pid: 0,
                        t0: SimTime::ZERO,
                        t1: SimTime::ZERO,
                        origin: Origin::App,
                        target: intern("/echo"),
                        kind: EventKind::Stat,
                    });
                }
            }
        }
        let bus = ProbeBus::new();
        let echo = Arc::new(Echo {
            bus: bus.clone(),
            echoed: std::sync::atomic::AtomicBool::new(false),
            seen: AtomicUsize::new(0),
        });
        bus.register(echo.clone());
        for i in 0..=RING_CAPACITY {
            bus.emit(ev(EventKind::Read {
                fd: 3,
                offset: i as u64,
                len: 1,
            }));
        }
        flush_current_thread();
        assert_eq!(
            echo.seen.load(Ordering::Relaxed),
            RING_CAPACITY + 2,
            "all original events plus the echoed one arrive"
        );
    }

    #[test]
    fn interleaved_buses_each_get_their_own_events_in_order() {
        let (a, b) = (ProbeBus::new(), ProbeBus::new());
        let (sa, sb) = (
            Arc::new(CollectingSink::new()),
            Arc::new(CollectingSink::new()),
        );
        a.register(sa.clone());
        b.register(sb.clone());
        for fd in [0, 1, 2, 3, 4, 5, 6] {
            // A, A, B, A, B, B, A: runs of both lengths, both orders.
            let bus = if [2, 4, 5].contains(&fd) { &b } else { &a };
            bus.emit(ev(EventKind::Fsync { fd }));
        }
        flush_current_thread();
        assert_eq!(fsync_fds(&sa.snapshot()), vec![0, 1, 3, 6]);
        assert_eq!(fsync_fds(&sb.snapshot()), vec![2, 4, 5]);
    }

    #[test]
    fn sink_on_two_buses_sees_global_emission_order() {
        let (a, b) = (ProbeBus::new(), ProbeBus::new());
        let sink = Arc::new(CollectingSink::new());
        a.register(sink.clone());
        b.register(sink.clone());
        for fd in 0..9 {
            let bus = if fd % 3 == 1 { &b } else { &a };
            bus.emit(ev(EventKind::Fsync { fd }));
        }
        flush_current_thread();
        assert_eq!(fsync_fds(&sink.snapshot()), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_triggered_by_another_bus_is_lossless_and_ordered() {
        let (a, b) = (ProbeBus::new(), ProbeBus::new());
        let (sa, sb) = (
            Arc::new(CollectingSink::new()),
            Arc::new(CollectingSink::new()),
        );
        a.register(sa.clone());
        b.register(sb.clone());
        let n = RING_CAPACITY as i32;
        for fd in 0..n {
            a.emit(ev(EventKind::Fsync { fd }));
        }
        assert!(sa.is_empty(), "a full ring is not delivered yet");
        // B's event finds the ring full: everything drains inline, A's
        // events first, then B's newest one.
        b.emit(ev(EventKind::Fsync { fd: n }));
        assert_eq!(sa.len(), RING_CAPACITY);
        assert_eq!(sb.len(), 1);
        a.emit(ev(EventKind::Fsync { fd: n + 1 }));
        b.emit(ev(EventKind::Fsync { fd: n + 2 }));
        flush_current_thread();
        let mut want_a: Vec<i32> = (0..n).collect();
        want_a.push(n + 1);
        assert_eq!(fsync_fds(&sa.snapshot()), want_a);
        assert_eq!(fsync_fds(&sb.snapshot()), vec![n, n + 2]);
    }

    #[test]
    fn many_buses_share_one_ring() {
        let buses: Vec<ProbeBus> = (0..300).map(|_| ProbeBus::new()).collect();
        let sinks: Vec<Arc<CollectingSink>> = buses
            .iter()
            .map(|bus| {
                let sink = Arc::new(CollectingSink::new());
                bus.register(sink.clone());
                sink
            })
            .collect();
        for fd in 0..3 {
            for bus in &buses {
                bus.emit(ev(EventKind::Fsync { fd }));
            }
        }
        assert_eq!(
            ring_shape(),
            (RING_CAPACITY, 900, 300),
            "one ring, 300 tags"
        );
        flush_current_thread();
        assert_eq!(ring_shape(), (RING_CAPACITY, 0, 0), "drained, slots kept");
        for sink in &sinks {
            assert_eq!(fsync_fds(&sink.snapshot()), vec![0, 1, 2]);
        }
    }

    #[test]
    fn panicking_sink_does_not_disable_later_flushes() {
        // Regression: a sink panic caught around the flush used to leave the
        // thread's re-entrancy flag set, turning every later flush on the
        // thread into a silent no-op.
        struct PanicOnce {
            panicked: std::sync::atomic::AtomicBool,
            seen: AtomicUsize,
        }
        impl ProbeSink for PanicOnce {
            fn on_events(&self, events: &[IoEvent]) {
                if !self.panicked.swap(true, Ordering::Relaxed) {
                    panic!("sink fails on its first batch");
                }
                self.seen.fetch_add(events.len(), Ordering::Relaxed);
            }
        }
        let bus = ProbeBus::new();
        let sink = Arc::new(PanicOnce {
            panicked: std::sync::atomic::AtomicBool::new(false),
            seen: AtomicUsize::new(0),
        });
        bus.register(sink.clone());
        bus.emit(ev(EventKind::Stat));
        let caught = std::panic::catch_unwind(flush_current_thread);
        assert!(caught.is_err(), "the sink's panic reaches the caller");
        bus.emit(ev(EventKind::Fsync { fd: 3 }));
        flush_current_thread();
        assert_eq!(sink.seen.load(Ordering::Relaxed), 1, "next flush delivers");
    }

    #[test]
    fn sync_bridge_interleaves_sync_events_with_io() {
        let sim = simrt::Sim::new();
        let bus = ProbeBus::new();
        let sink = Arc::new(CollectingSink::new());
        bus.register(sink.clone());
        SyncBridge::install(&sim, bus.clone());
        let (tx, rx) = simrt::sync::channel_named::<u32>(None, "batches");
        {
            let bus = bus.clone();
            sim.spawn("producer", move || {
                bus.emit(IoEvent {
                    task: simrt::current_task(),
                    pid: 0,
                    t0: simrt::now(),
                    t1: simrt::now(),
                    origin: Origin::App,
                    target: intern("/data"),
                    kind: EventKind::Write {
                        fd: 3,
                        offset: 0,
                        len: 8,
                    },
                });
                tx.send(7).unwrap();
            });
        }
        sim.spawn("consumer", move || {
            assert_eq!(rx.recv(), Some(7));
        });
        sim.run();
        sim.clear_sync_observer();
        let events = sink.snapshot();
        let ops: Vec<SyncOp> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Sync { op, .. } => Some(op),
                _ => None,
            })
            .collect();
        assert!(ops.contains(&SyncOp::Signal), "send emits Signal: {ops:?}");
        assert!(ops.contains(&SyncOp::Wait), "recv emits Wait: {ops:?}");
        assert!(ops.contains(&SyncOp::Finish), "task end emits Finish");
        // The producer's write precedes its send's Signal in the stream.
        let w = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Write { .. }))
            .unwrap();
        let s = events
            .iter()
            .position(|e| {
                matches!(
                    e.kind,
                    EventKind::Sync {
                        op: SyncOp::Signal,
                        ..
                    }
                )
            })
            .unwrap();
        assert!(w < s, "execution order preserved");
    }

    #[test]
    fn defunct_bus_buffers_are_dropped_not_delivered() {
        // A buffered event whose bus has lost every handle must be
        // discarded at the next flush point, not delivered to the dead
        // bus's sinks.
        let stale = Arc::new(CollectingSink::new());
        {
            let bus = ProbeBus::new();
            bus.register(stale.clone());
            bus.emit(ev(EventKind::Stat));
            // `bus` (the only handle) drops here with the event still
            // buffered on this thread.
        }
        let live = ProbeBus::new();
        let sink = Arc::new(CollectingSink::new());
        live.register(sink.clone()); // register flushes this thread
        live.emit(ev(EventKind::Fsync { fd: 3 }));
        flush_current_thread();
        assert!(
            stale.is_empty(),
            "a defunct bus's buffered events must not be delivered"
        );
        assert_eq!(sink.len(), 1, "the live bus still flows");

        // Same, with the dead bus's events interleaved between the live
        // bus's in one ring: only the dead runs are dropped.
        let dead = ProbeBus::new();
        dead.register(stale.clone());
        for fd in 10..13 {
            live.emit(ev(EventKind::Fsync { fd }));
            dead.emit(ev(EventKind::Stat));
        }
        drop(dead);
        live.emit(ev(EventKind::Fsync { fd: 13 }));
        flush_current_thread();
        assert!(stale.is_empty(), "interleaved dead-bus events are dropped");
        assert_eq!(fsync_fds(&sink.snapshot()), vec![3, 10, 11, 12, 13]);
    }

    #[test]
    fn two_sims_one_thread_do_not_leak_buffers() {
        // Regression: two simulations run back-to-back from one host
        // thread. Sim 1's bus buffers a host-side event that is never
        // flushed before the bus dies; sim 2 must not receive or be
        // perturbed by it — and sim 1's sink must not observe sim 2's
        // activity.
        let sink1 = Arc::new(CollectingSink::new());
        {
            let sim1 = simrt::Sim::new();
            let bus1 = ProbeBus::new();
            bus1.register(sink1.clone());
            let b = bus1.clone();
            sim1.spawn("app1", move || {
                b.emit(ev(EventKind::Open { fd: 3 }));
            });
            sim1.run();
            assert_eq!(sink1.len(), 1, "sim 1's own event arrived");
            // Host-side emission after the run, never flushed: exactly the
            // stale residue that used to leak into the next simulation.
            bus1.emit(ev(EventKind::Close { fd: 3 }));
        } // every handle to bus1 is gone; the ring entry survives
        let sim2 = simrt::Sim::new();
        let bus2 = ProbeBus::new();
        let sink2 = Arc::new(CollectingSink::new());
        bus2.register(sink2.clone());
        let b = bus2.clone();
        sim2.spawn("app2", move || {
            b.emit(ev(EventKind::Read {
                fd: 4,
                offset: 0,
                len: 8,
            }));
        });
        sim2.run();
        flush_current_thread();
        assert_eq!(
            sink1.len(),
            1,
            "the dead bus's stale ring must not drain into sim 2's run"
        );
        assert_eq!(sink2.len(), 1);
        assert!(
            matches!(sink2.snapshot()[0].kind, EventKind::Read { .. }),
            "sim 2 sees exactly its own event"
        );
    }

    #[test]
    fn counting_sink_totals_bytes() {
        let bus = ProbeBus::new();
        let sink = Arc::new(CountingSink::new());
        bus.register(sink.clone());
        bus.emit(ev(EventKind::Read {
            fd: 3,
            offset: 0,
            len: 100,
        }));
        bus.emit(ev(EventKind::StdioWrite {
            stream: 1,
            pos: 0,
            len: 50,
        }));
        flush_current_thread();
        assert_eq!(sink.events.load(Ordering::Relaxed), 2);
        assert_eq!(sink.bytes.load(Ordering::Relaxed), 150);
    }
}
