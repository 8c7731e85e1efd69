//! Communicators and collectives over simulated processes.
//!
//! The paper notes (§III) that TensorFlow is not an MPI application, which
//! is why tf-Darshan builds on the non-MPI Darshan 3.2.0-pre — but that
//! "if TensorFlow employs MPI as a distributed strategy for I/O in the
//! future, one can employ the parallel version of Darshan with the MPI
//! module … with a similar technique". This crate provides that future:
//! ranks as simulated processes, collectives with a network cost model,
//! and MPI-IO with a PMPI-style interposable layer.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use posix_sim::Process;
use simrt::sync::Barrier;
use simrt::{
    dur, emit_sync, new_sync_obj_id, sleep, EventHandle, EventTask, JoinHandle, Sim, SyncOp,
};
use storage_sim::StorageStack;

use crate::io::{DefaultMpiIo, MpiIoLayer};

/// Interconnect cost model (EDR InfiniBand-ish defaults).
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// Per-message latency.
    pub latency: Duration,
    /// Per-link bandwidth, bytes/second.
    pub bandwidth: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            latency: Duration::from_micros(2),
            bandwidth: 10.0e9, // ~100 Gb/s
        }
    }
}

pub(crate) struct WorldInner {
    pub size: usize,
    pub net: NetworkModel,
    pub barrier: Barrier,
    pub layer: RwLock<Arc<dyn MpiIoLayer>>,
    pub default_layer: Arc<dyn MpiIoLayer>,
    pub processes: Mutex<Vec<Arc<Process>>>,
    /// Sync object id shared by this world's collectives: every collective
    /// emits `Signal` on arrival and `Wait` on departure on this object, so
    /// happens-before consumers (iosan) get the cross-rank edge "everything
    /// before any rank's arrival happens-before everything after every
    /// rank's departure" — rank-interleaved shared-file I/O separated by a
    /// collective is ordered, not racy.
    pub sync_obj: u64,
    pub sync_labels: CollectiveLabels,
}

/// Per-collective labels carried into sync events (iosan witnesses).
pub(crate) struct CollectiveLabels {
    pub barrier: Arc<str>,
    pub allreduce: Arc<str>,
    pub bcast: Arc<str>,
}

impl CollectiveLabels {
    fn new(obj: u64) -> Self {
        CollectiveLabels {
            barrier: format!("mpi:world#{obj}:barrier").into(),
            allreduce: format!("mpi:world#{obj}:allreduce").into(),
            bcast: format!("mpi:world#{obj}:bcast").into(),
        }
    }
}

/// An MPI world of `size` ranks.
#[derive(Clone)]
pub struct MpiWorld {
    pub(crate) inner: Arc<WorldInner>,
}

impl MpiWorld {
    /// Create a world of `size` ranks, each with its own [`Process`] over
    /// the shared storage stack (the cluster's parallel filesystem).
    pub fn new(stack: &StorageStack, size: usize, net: NetworkModel) -> Self {
        assert!(size > 0);
        let default_layer: Arc<dyn MpiIoLayer> = Arc::new(DefaultMpiIo);
        let processes = (0..size).map(|_| Process::new(stack.clone())).collect();
        let sync_obj = new_sync_obj_id();
        MpiWorld {
            inner: Arc::new(WorldInner {
                size,
                net,
                barrier: Barrier::new(size),
                layer: RwLock::new(default_layer.clone()),
                default_layer,
                processes: Mutex::new(processes),
                sync_obj,
                sync_labels: CollectiveLabels::new(sync_obj),
            }),
        }
    }

    /// `MPI_Comm_dup`: a world over the **same** rank processes but with
    /// its own barrier and sync object, so collectives on the duplicate
    /// never interleave with (or deadlock against) collectives on the
    /// original. Background services (e.g. the distributed prefetch
    /// daemons) run their collectives on a duplicate.
    pub fn duplicate(&self) -> MpiWorld {
        let i = &self.inner;
        let sync_obj = new_sync_obj_id();
        MpiWorld {
            inner: Arc::new(WorldInner {
                size: i.size,
                net: i.net.clone(),
                barrier: Barrier::new(i.size),
                layer: RwLock::new(i.layer.read().clone()),
                default_layer: i.default_layer.clone(),
                processes: Mutex::new(i.processes.lock().clone()),
                sync_obj,
                sync_labels: CollectiveLabels::new(sync_obj),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The interconnect cost model.
    pub fn net(&self) -> &NetworkModel {
        &self.inner.net
    }

    /// The rank's process.
    pub fn process(&self, rank: usize) -> Arc<Process> {
        self.inner.processes.lock()[rank].clone()
    }

    /// A rank's communicator handle without spawning a thread (for code
    /// that already owns the rank's simulated thread).
    pub fn comm(&self, rank: usize) -> Comm {
        assert!(rank < self.inner.size);
        Comm {
            world: self.clone(),
            rank,
        }
    }

    /// PMPI interposition: replace the MPI-IO layer (profilers link their
    /// wrappers ahead of the MPI library). Returns the previous layer for
    /// forwarding.
    pub fn pmpi_interpose(&self, new: Arc<dyn MpiIoLayer>) -> Arc<dyn MpiIoLayer> {
        std::mem::replace(&mut *self.inner.layer.write(), new)
    }

    /// Restore a saved layer.
    pub fn pmpi_restore(&self, layer: Arc<dyn MpiIoLayer>) {
        *self.inner.layer.write() = layer;
    }

    /// Whether a profiler is interposed.
    pub fn pmpi_interposed(&self) -> bool {
        !Arc::ptr_eq(&*self.inner.layer.read(), &self.inner.default_layer)
    }

    /// Spawn one simulated thread per rank running `f(comm)`; returns the
    /// join handles in rank order (like `mpirun`).
    pub fn spawn_ranks<T, F>(&self, sim: &Sim, f: F) -> Vec<JoinHandle<T>>
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Clone + Send + Sync + 'static,
    {
        (0..self.inner.size)
            .map(|rank| {
                let comm = Comm {
                    world: self.clone(),
                    rank,
                };
                let f = f.clone();
                sim.spawn(format!("rank{rank}"), move || f(comm))
            })
            .collect()
    }

    /// Spawn one *event task* per rank — no OS thread per rank, so worlds
    /// of thousands of ranks cost thousands of heap entries instead of
    /// thousands of real threads. `f(comm)` builds each rank's state
    /// machine; drive collectives with the `poll_*` methods on [`Comm`]
    /// (a rank driver that needs blocking POSIX I/O belongs on
    /// [`MpiWorld::spawn_ranks`] instead).
    pub fn spawn_rank_events<M, F>(&self, sim: &Sim, f: F) -> Vec<EventHandle>
    where
        M: EventTask + 'static,
        F: Fn(Comm) -> M,
    {
        (0..self.inner.size)
            .map(|rank| {
                let comm = Comm {
                    world: self.clone(),
                    rank,
                };
                sim.spawn_event(format!("rank{rank}"), f(comm))
            })
            .collect()
    }
}

/// What an in-flight polled collective asks its event task to do next.
#[derive(Debug, PartialEq, Eq)]
pub enum CollectivePoll {
    /// Not all ranks have arrived: block (no deadline) and re-poll when
    /// woken.
    Pending,
    /// All ranks arrived; charge this network cost (via
    /// `EventPoll::Sleep`), then re-poll.
    Charge(Duration),
    /// The collective completed; the progress token has reset for reuse.
    Done,
}

/// Progress of one rank through a polled collective. Create with
/// `default()`; one token drives one collective call at a time and resets
/// itself on completion, so a rank can reuse it round after round.
#[derive(Default)]
pub struct CollectiveProgress {
    /// 0 = not arrived, 1 = in the entry crossing, 2 = cost charged, in
    /// the exit crossing.
    phase: u8,
    token: Option<u64>,
}

/// A rank's view of the communicator (`MPI_COMM_WORLD`).
#[derive(Clone)]
pub struct Comm {
    pub(crate) world: MpiWorld,
    pub(crate) rank: usize,
}

impl Comm {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// This rank's process.
    pub fn process(&self) -> Arc<Process> {
        self.world.process(self.rank)
    }

    /// The world.
    pub fn world(&self) -> &MpiWorld {
        &self.world
    }

    /// `MPI_Barrier` (dissemination algorithm cost model: `⌈log2 n⌉`
    /// exchange rounds of one network latency each, so a 1k-rank barrier
    /// costs 10 rounds, not a flat constant that hides the scale).
    pub fn barrier(&self) {
        block_on(|p| self.poll_barrier(p));
    }

    /// `MPI_Allreduce` of `bytes` (ring algorithm cost model): the
    /// data-parallel gradient synchronization of distributed training.
    pub fn allreduce_bytes(&self, bytes: u64) {
        block_on(|p| self.poll_allreduce_bytes(bytes, p));
    }

    /// `MPI_Bcast` of `bytes` (binomial tree cost model).
    pub fn bcast_bytes(&self, bytes: u64) {
        block_on(|p| self.poll_bcast_bytes(bytes, p));
    }

    fn allreduce_cost(&self, bytes: u64) -> Duration {
        let net = &self.world.inner.net;
        let n = self.size() as f64;
        let steps = 2.0 * (n - 1.0);
        let volume = 2.0 * (n - 1.0) / n * bytes as f64;
        dur::secs_f64(net.latency.as_secs_f64() * steps + volume / net.bandwidth)
    }

    fn bcast_cost(&self, bytes: u64) -> Duration {
        let net = &self.world.inner.net;
        let n = self.size() as f64;
        let rounds = n.log2().ceil();
        dur::secs_f64((net.latency.as_secs_f64() + bytes as f64 / net.bandwidth) * rounds)
    }

    /// Dissemination barrier: `⌈log2 n⌉` rounds, one latency per round.
    /// Zero for a single rank, as are the other collective costs.
    fn barrier_cost(&self) -> Duration {
        let rounds = (self.size() as f64).log2().ceil();
        dur::secs_f64(self.world.inner.net.latency.as_secs_f64() * rounds)
    }

    /// Event-task path for [`Comm::barrier`]: drive with a
    /// [`CollectiveProgress`], mapping [`CollectivePoll::Pending`] to
    /// `EventPoll::Block` and [`CollectivePoll::Charge`] to
    /// `EventPoll::Sleep`. A 1k-rank barrier then costs 1k calendar
    /// entries, not 1k parked OS threads. Interoperates with carrier ranks
    /// blocked in the same collective.
    pub fn poll_barrier(&self, progress: &mut CollectiveProgress) -> CollectivePoll {
        self.poll_collective(progress, self.barrier_cost(), SyncLabelKind::Barrier)
    }

    /// Event-task path for [`Comm::allreduce_bytes`].
    pub fn poll_allreduce_bytes(
        &self,
        bytes: u64,
        progress: &mut CollectiveProgress,
    ) -> CollectivePoll {
        self.poll_collective(
            progress,
            self.allreduce_cost(bytes),
            SyncLabelKind::Allreduce,
        )
    }

    /// Event-task path for [`Comm::bcast_bytes`].
    pub fn poll_bcast_bytes(
        &self,
        bytes: u64,
        progress: &mut CollectiveProgress,
    ) -> CollectivePoll {
        self.poll_collective(progress, self.bcast_cost(bytes), SyncLabelKind::Bcast)
    }

    /// The one collective state machine: Signal on arrival, entry
    /// crossing, network cost, exit crossing, Wait on departure. The
    /// blocking collectives drive it too, so iosan's cross-rank
    /// happens-before analysis cannot tell the flavors apart.
    fn poll_collective(
        &self,
        p: &mut CollectiveProgress,
        cost: Duration,
        kind: SyncLabelKind,
    ) -> CollectivePoll {
        let w = &self.world.inner;
        let label = match kind {
            SyncLabelKind::Barrier => &w.sync_labels.barrier,
            SyncLabelKind::Allreduce => &w.sync_labels.allreduce,
            SyncLabelKind::Bcast => &w.sync_labels.bcast,
        };
        loop {
            match p.phase {
                0 => {
                    emit_sync(SyncOp::Signal, w.sync_obj, label);
                    p.phase = 1;
                }
                1 => match w.barrier.poll_wait(&mut p.token) {
                    None => return CollectivePoll::Pending,
                    Some(_) => {
                        p.phase = 2;
                        if !cost.is_zero() {
                            return CollectivePoll::Charge(cost);
                        }
                    }
                },
                _ => match w.barrier.poll_wait(&mut p.token) {
                    None => return CollectivePoll::Pending,
                    Some(_) => {
                        emit_sync(SyncOp::Wait, w.sync_obj, label);
                        *p = CollectiveProgress::default();
                        return CollectivePoll::Done;
                    }
                },
            }
        }
    }
}

/// Drive a polled collective on a carrier: park while pending, sleep off
/// the network charge.
fn block_on(mut poll: impl FnMut(&mut CollectiveProgress) -> CollectivePoll) {
    let mut progress = CollectiveProgress::default();
    loop {
        match poll(&mut progress) {
            CollectivePoll::Pending => {
                // simlint: allow(raw-block) the poll registered this rank with the world Barrier
                simrt::block(None);
            }
            CollectivePoll::Charge(cost) => sleep(cost),
            CollectivePoll::Done => return,
        }
    }
}

#[derive(Clone, Copy)]
enum SyncLabelKind {
    Barrier,
    Allreduce,
    Bcast,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrt::SimTime;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_synchronizes_ranks() {
        let sim = Sim::new();
        let stack = StorageStack::new();
        let world = MpiWorld::new(&stack, 4, NetworkModel::default());
        let after = Arc::new(Mutex::new(Vec::new()));
        let a2 = after.clone();
        let handles = world.spawn_ranks(&sim, move |comm| {
            sleep(Duration::from_millis(comm.rank() as u64));
            comm.barrier();
            a2.lock().push((comm.rank(), simrt::now()));
        });
        sim.run();
        for h in handles {
            h.join();
        }
        let v = after.lock().clone();
        let t0 = v[0].1;
        assert!(v.iter().all(|(_, t)| *t == t0), "all exit together: {v:?}");
        assert!(t0 >= SimTime::from_secs_f64(0.003), "slowest rank gates");
    }

    #[test]
    fn allreduce_scales_with_bytes_and_ranks() {
        let cost = |ranks: usize, bytes: u64| {
            let sim = Sim::new();
            let stack = StorageStack::new();
            let world = MpiWorld::new(&stack, ranks, NetworkModel::default());
            world.spawn_ranks(&sim, move |comm| comm.allreduce_bytes(bytes));
            sim.run();
            sim.now().as_secs_f64()
        };
        let small = cost(4, 1 << 20);
        let big = cost(4, 64 << 20);
        assert!(big > small * 20.0, "{small} vs {big}");
        let one_rank = cost(1, 64 << 20);
        assert!(one_rank < 1e-6, "single rank allreduce is free");
    }

    #[test]
    fn collectives_emit_labeled_sync_events() {
        struct Recorder(Mutex<Vec<(simrt::SyncOp, String)>>);
        impl simrt::SyncObserver for Recorder {
            fn on_sync(&self, ev: &simrt::SyncEvent) {
                if ev.label.starts_with("mpi:world#") {
                    self.0.lock().push((ev.op, ev.label.to_string()));
                }
            }
        }
        let sim = Sim::new();
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        sim.set_sync_observer(rec.clone());
        let stack = StorageStack::new();
        let world = MpiWorld::new(&stack, 2, NetworkModel::default());
        world.spawn_ranks(&sim, |comm| {
            comm.barrier();
            comm.allreduce_bytes(1 << 10);
            comm.bcast_bytes(1 << 10);
        });
        sim.run();
        let evs = rec.0.lock();
        for kind in ["barrier", "allreduce", "bcast"] {
            let signals = evs
                .iter()
                .filter(|(op, l)| *op == SyncOp::Signal && l.ends_with(kind))
                .count();
            let waits = evs
                .iter()
                .filter(|(op, l)| *op == SyncOp::Wait && l.ends_with(kind))
                .count();
            assert_eq!(signals, 2, "one {kind} Signal per rank");
            assert_eq!(waits, 2, "one {kind} Wait per rank");
        }
        // Every rank's arrival (Signal) precedes every rank's departure
        // (Wait) for a given collective — the cross-rank HB edge.
        let first_wait = evs.iter().position(|(op, _)| *op == SyncOp::Wait).unwrap();
        let barrier_signals = evs
            .iter()
            .take(first_wait)
            .filter(|(op, l)| *op == SyncOp::Signal && l.ends_with("barrier"))
            .count();
        assert_eq!(barrier_signals, 2, "all arrivals before any departure");
    }

    #[test]
    fn duplicate_shares_ranks_but_not_collectives() {
        let sim = Sim::new();
        let stack = StorageStack::new();
        let world = MpiWorld::new(&stack, 2, NetworkModel::default());
        let dup = world.duplicate();
        assert!(Arc::ptr_eq(&world.process(0), &dup.process(0)));
        assert_ne!(world.inner.sync_obj, dup.inner.sync_obj);
        // A collective on the duplicate completes even though nobody ever
        // enters the original world's barrier.
        dup.spawn_ranks(&sim, |comm| comm.barrier());
        sim.run();
        assert!(sim.now().as_secs_f64() > 0.0);
    }

    #[test]
    fn event_ranks_cross_collectives_at_carrier_times() {
        use simrt::{EventCx, EventPoll};
        // The same workload — staggered arrival, barrier, allreduce — run
        // once on carrier ranks and once on event ranks must produce the
        // same virtual-time trace.
        let run = |event_flavor: bool| {
            let sim = Sim::new();
            let stack = StorageStack::new();
            let world = MpiWorld::new(&stack, 4, NetworkModel::default());
            let exit_at = Arc::new(Mutex::new(Vec::new()));
            if event_flavor {
                let e2 = exit_at.clone();
                world.spawn_rank_events(&sim, |comm| {
                    let e2 = e2.clone();
                    let mut phase = 0;
                    let mut prog = CollectiveProgress::default();
                    move |cx: &mut EventCx| loop {
                        match phase {
                            0 => {
                                phase = 1;
                                return EventPoll::Sleep(Duration::from_millis(comm.rank() as u64));
                            }
                            1 => match comm.poll_barrier(&mut prog) {
                                CollectivePoll::Pending => {
                                    return EventPoll::Block { deadline: None }
                                }
                                CollectivePoll::Charge(c) => return EventPoll::Sleep(c),
                                CollectivePoll::Done => phase = 2,
                            },
                            2 => match comm.poll_allreduce_bytes(1 << 20, &mut prog) {
                                CollectivePoll::Pending => {
                                    return EventPoll::Block { deadline: None }
                                }
                                CollectivePoll::Charge(c) => return EventPoll::Sleep(c),
                                CollectivePoll::Done => {
                                    e2.lock().push((comm.rank(), cx.now()));
                                    return EventPoll::Done;
                                }
                            },
                            _ => unreachable!(),
                        }
                    }
                });
            } else {
                let e2 = exit_at.clone();
                world.spawn_ranks(&sim, move |comm| {
                    sleep(Duration::from_millis(comm.rank() as u64));
                    comm.barrier();
                    comm.allreduce_bytes(1 << 20);
                    e2.lock().push((comm.rank(), simrt::now()));
                });
            }
            sim.run();
            let mut v = exit_at.lock().clone();
            v.sort();
            (v, sim.now())
        };
        let (carrier_trace, carrier_end) = run(false);
        let (event_trace, event_end) = run(true);
        assert_eq!(carrier_trace, event_trace, "flavors must agree on times");
        assert_eq!(carrier_end, event_end);
    }

    #[test]
    fn thousand_event_ranks_barrier_without_thousand_threads() {
        use simrt::{EventCx, EventPoll};
        let sim = Sim::new();
        let stack = StorageStack::new();
        let world = MpiWorld::new(&stack, 1000, NetworkModel::default());
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = done.clone();
        world.spawn_rank_events(&sim, |comm| {
            let d2 = d2.clone();
            let mut prog = CollectiveProgress::default();
            move |_cx: &mut EventCx| match comm.poll_barrier(&mut prog) {
                CollectivePoll::Pending => EventPoll::Block { deadline: None },
                CollectivePoll::Charge(c) => EventPoll::Sleep(c),
                CollectivePoll::Done => {
                    d2.fetch_add(1, Ordering::SeqCst);
                    EventPoll::Done
                }
            }
        });
        sim.run();
        assert_eq!(done.load(Ordering::SeqCst), 1000);
        let stats = sim.stats();
        assert_eq!(stats.event_spawns, 1000);
        assert_eq!(
            stats.switches, 0,
            "a pure event-rank world never parks a carrier"
        );
    }

    #[test]
    fn ranks_have_distinct_processes() {
        let sim = Sim::new();
        let stack = StorageStack::new();
        let world = MpiWorld::new(&stack, 3, NetworkModel::default());
        let seen = Arc::new(AtomicUsize::new(0));
        let s2 = seen.clone();
        world.spawn_ranks(&sim, move |comm| {
            assert_eq!(comm.process().open_fds(), 0);
            s2.fetch_add(1, Ordering::SeqCst);
        });
        sim.run();
        assert_eq!(seen.load(Ordering::SeqCst), 3);
        assert!(!Arc::ptr_eq(&world.process(0), &world.process(1)));
    }
}
