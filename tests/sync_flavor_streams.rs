//! Flavor-blindness of the sync-event stream (DESIGN §3.6): moving a task
//! between a carrier thread and an event task must not change the
//! `(task, op, label)` stream a `SyncObserver` records — the stream that
//! `probe::SyncBridge` folds into the trace and `iosan` analyses.
//!
//! Each scenario is a list of per-task scripts over one set of primitives,
//! run once with its waiters as carriers (blocking methods) and once as
//! event tasks (`poll_*` methods). Both runs must equal the pinned stream.
//! Tasks that use timed waits stay carriers in both runs: event tasks have
//! no timed-wait protocol of their own, but the timed blocking paths are
//! pinned by the same literal. Result lines (`=>`) record what each wait
//! returned and when.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex as PlMutex;

use tf_darshan::mpi::{CollectivePoll, CollectiveProgress, MpiWorld, NetworkModel};
use tf_darshan::mpi::{SumAllreduce, SumProgress};
use tf_darshan::simrt::sync::{
    channel_named, Barrier, Condvar, Event, Mutex, Notify, PollRecv, PollSend, Receiver,
    RecvTimeoutError, Semaphore, Sender,
};
use tf_darshan::simrt::{
    now, sleep, EventCx, EventPoll, Sim, SimTime, SyncEvent, SyncObserver, SyncOp,
};
use tf_darshan::storage::StorageStack;

use Op::*;
use Role::{Carrier, Waiter};

#[derive(Clone, Copy, Debug)]
enum Op {
    Sleep(u64),
    Send(u32),
    Close,
    Recv,
    Acquire(usize),
    Release(usize),
    EventSet,
    EventWait,
    NotifyOne,
    NotifyWait,
    BarrierWait,
    /// Lock and unlock at once.
    Lock,
    /// Set the condvar predicate under the lock and notify all.
    CondSet,
    /// Wait under the lock until the condvar predicate holds.
    CondWait,
    CommBarrier,
    CommAllreduce(u64),
    CommBcast(u64),
    /// Contribute `{"k": v}` to the `SumAllreduce`.
    Fuse(u64),
    // Carrier-only operations.
    /// Hold the lock for this many milliseconds.
    HoldLock(u64),
    RecvTimeout(u64),
    NotifyWaitTimeout(u64),
    /// `Event::wait_deadline` at this absolute millisecond.
    WaitDeadline(u64),
}

/// Whether a task follows the run's flavor or always runs as a carrier.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    Waiter,
    Carrier,
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn fused_map(v: u64) -> HashMap<String, u64> {
    HashMap::from([("k".to_string(), v)])
}

struct Prims {
    tx: Sender<u32>,
    rx: Receiver<u32>,
    sem: Semaphore,
    event: Event,
    notify: Notify,
    barrier: Barrier,
    mutex: Mutex<bool>,
    cv: Condvar,
    world: MpiWorld,
    fused: SumAllreduce,
    log: Arc<PlMutex<Vec<String>>>,
}

impl Prims {
    fn result(&self, task: impl std::fmt::Display, what: String) {
        let at = now().as_nanos();
        self.log.lock().push(format!("{task} => {what} @{at}"));
    }
}

/// Records the sync stream with object ids renumbered by first appearance:
/// ids come from a process-wide counter, so they differ between runs.
struct Recorder {
    log: Arc<PlMutex<Vec<String>>>,
    ids: PlMutex<HashMap<u64, usize>>,
}

impl SyncObserver for Recorder {
    fn on_sync(&self, ev: &SyncEvent) {
        let label = match ev.op {
            SyncOp::Spawn | SyncOp::Join | SyncOp::Finish => ev.label.to_string(),
            _ => {
                let mut ids = self.ids.lock();
                let next = ids.len();
                let idx = *ids.entry(ev.obj).or_insert(next);
                renumber(&ev.label, idx)
            }
        };
        self.log
            .lock()
            .push(format!("{} {:?} {}", ev.task, ev.op, label));
    }
}

/// Replace the digits after the first `#` of a sync label with `idx`.
fn renumber(label: &str, idx: usize) -> String {
    let Some(at) = label.find('#') else {
        return label.to_string();
    };
    let rest = &label[at + 1..];
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    format!("{}#{}{}", &label[..at], idx, &rest[digits..])
}

fn run_carrier(p: &Prims, rank: usize, script: &[Op]) {
    let me = tf_darshan::simrt::current_task();
    for &op in script {
        match op {
            Op::Sleep(n) => sleep(ms(n)),
            Op::Send(v) => {
                let r = p.tx.send(v).map_err(|e| e.0);
                p.result(me, format!("send {r:?}"));
            }
            Op::Close => p.tx.close(),
            Op::Recv => {
                let r = p.rx.recv();
                p.result(me, format!("recv {r:?}"));
            }
            Op::Acquire(n) => p.sem.acquire_many(n),
            Op::Release(n) => p.sem.release_many(n),
            Op::EventSet => p.event.set(),
            Op::EventWait => p.event.wait(),
            Op::NotifyOne => p.notify.notify_one(),
            Op::NotifyWait => p.notify.wait(),
            Op::BarrierWait => {
                let leader = p.barrier.wait();
                p.result(me, format!("barrier leader={leader}"));
            }
            Op::Lock => drop(p.mutex.lock()),
            Op::CondSet => {
                let mut g = p.mutex.lock();
                *g = true;
                p.cv.notify_all();
            }
            Op::CondWait => {
                let mut g = p.mutex.lock();
                while !*g {
                    g = p.cv.wait(g);
                }
            }
            Op::CommBarrier => p.world.comm(rank).barrier(),
            Op::CommAllreduce(b) => p.world.comm(rank).allreduce_bytes(b),
            Op::CommBcast(b) => p.world.comm(rank).bcast_bytes(b),
            Op::Fuse(v) => {
                let fused = p.fused.allreduce(&fused_map(v));
                p.result(me, format!("fused {}", fused["k"]));
            }
            Op::HoldLock(n) => {
                let _g = p.mutex.lock();
                sleep(ms(n));
            }
            Op::RecvTimeout(n) => {
                let r: Result<u32, RecvTimeoutError> = p.rx.recv_timeout(ms(n));
                p.result(me, format!("recv_timeout {r:?}"));
            }
            Op::NotifyWaitTimeout(n) => {
                let r = p.notify.wait_timeout(ms(n));
                p.result(me, format!("notify wait_timeout {r}"));
            }
            Op::WaitDeadline(n) => {
                let r = p.event.wait_deadline(SimTime::ZERO + ms(n));
                p.result(me, format!("event wait_deadline {r}"));
            }
        }
    }
}

/// The event-task interpreter of a script: one op at a time through the
/// `poll_*` methods, blocking while an op is pending.
struct EventScript {
    p: Arc<Prims>,
    rank: usize,
    script: Vec<Op>,
    pc: usize,
    slept: bool,
    /// The fused sum of a completed round whose cost is being charged.
    fused: Option<u64>,
    cv_waiting: bool,
    barrier_token: Option<u64>,
    collective: CollectiveProgress,
    fuse: SumProgress,
}

impl EventScript {
    /// Advance the current op: `None` when it completed, otherwise what
    /// the task must do before re-polling it.
    fn step(&mut self, op: Op, cx: &EventCx) -> Option<EventPoll> {
        let block = Some(EventPoll::Block { deadline: None });
        let p = &*self.p;
        let me = cx.task();
        match op {
            Op::Sleep(n) => {
                self.slept = !self.slept;
                if self.slept {
                    return Some(EventPoll::Sleep(ms(n)));
                }
            }
            Op::Send(v) => {
                let r = match p.tx.poll_send(v) {
                    PollSend::Full(_) => return block,
                    PollSend::Sent => Ok(()),
                    PollSend::Closed(v) => Err(v),
                };
                p.result(me, format!("send {r:?}"));
            }
            Op::Close => p.tx.close(),
            Op::Recv => {
                let r = match p.rx.poll_recv() {
                    PollRecv::Pending => return block,
                    PollRecv::Ready(v) => Some(v),
                    PollRecv::Closed => None,
                };
                p.result(me, format!("recv {r:?}"));
            }
            Op::Acquire(n) => {
                if !p.sem.poll_acquire_many(n) {
                    return block;
                }
            }
            Op::Release(n) => p.sem.release_many(n),
            Op::EventSet => p.event.set(),
            Op::EventWait => {
                if !p.event.poll_wait() {
                    return block;
                }
            }
            Op::NotifyOne => p.notify.notify_one(),
            Op::NotifyWait => {
                if !p.notify.poll_wait() {
                    return block;
                }
            }
            Op::BarrierWait => {
                let Some(leader) = p.barrier.poll_wait(&mut self.barrier_token) else {
                    return block;
                };
                p.result(me, format!("barrier leader={leader}"));
            }
            Op::Lock => {
                if p.mutex.poll_lock().is_none() {
                    return block;
                }
            }
            Op::CondSet => {
                let Some(mut g) = p.mutex.poll_lock() else {
                    return block;
                };
                *g = true;
                p.cv.notify_all();
            }
            Op::CondWait => {
                if self.cv_waiting {
                    p.cv.ack_wait();
                    self.cv_waiting = false;
                }
                let Some(g) = p.mutex.poll_lock() else {
                    return block;
                };
                if !*g {
                    p.cv.register_waiter();
                    self.cv_waiting = true;
                    return block;
                }
            }
            Op::CommBarrier | Op::CommAllreduce(_) | Op::CommBcast(_) => {
                let comm = p.world.comm(self.rank);
                let poll = match op {
                    Op::CommBarrier => comm.poll_barrier(&mut self.collective),
                    Op::CommAllreduce(b) => comm.poll_allreduce_bytes(b, &mut self.collective),
                    Op::CommBcast(b) => comm.poll_bcast_bytes(b, &mut self.collective),
                    _ => unreachable!(),
                };
                match poll {
                    CollectivePoll::Pending => return block,
                    CollectivePoll::Charge(c) => return Some(EventPoll::Sleep(c)),
                    CollectivePoll::Done => {}
                }
            }
            Op::Fuse(v) => match self.fused.take() {
                // The round's cost is slept off: report as a carrier would.
                Some(sum) => p.result(me, format!("fused {sum}")),
                None => {
                    let Some((fused, cost)) = p.fused.poll_allreduce(&fused_map(v), &mut self.fuse)
                    else {
                        return block;
                    };
                    self.fused = Some(fused["k"]);
                    return Some(EventPoll::Sleep(cost));
                }
            },
            Op::HoldLock(_)
            | Op::RecvTimeout(_)
            | Op::NotifyWaitTimeout(_)
            | Op::WaitDeadline(_) => {
                unreachable!("{op:?} is carrier-only")
            }
        }
        None
    }
}

impl tf_darshan::simrt::EventTask for EventScript {
    fn poll(&mut self, cx: &mut EventCx) -> EventPoll {
        while let Some(&op) = self.script.get(self.pc) {
            match self.step(op, cx) {
                Some(poll) => return poll,
                None => self.pc += 1,
            }
        }
        EventPoll::Done
    }
}

/// Run one scenario (`members` sizes the barrier, the world and the
/// `SumAllreduce`) and return its recorded stream, one line per event.
fn run(members: usize, tasks: &[(Role, &[Op])], event_waiters: bool) -> String {
    let log = Arc::new(PlMutex::new(Vec::new()));
    let stack = StorageStack::new();
    let (tx, rx) = channel_named(Some(1), "q");
    let p = Arc::new(Prims {
        tx,
        rx,
        sem: Semaphore::new(1),
        event: Event::new(),
        notify: Notify::new(),
        barrier: Barrier::new(members),
        mutex: Mutex::named(false, Some("m")),
        cv: Condvar::named(Some("cv")),
        world: MpiWorld::new(&stack, members, NetworkModel::default()),
        fused: SumAllreduce::new(NetworkModel::default(), members),
        log: log.clone(),
    });
    let sim = Sim::new();
    sim.set_sync_observer(Arc::new(Recorder {
        log: log.clone(),
        ids: PlMutex::new(HashMap::new()),
    }));
    for (rank, &(role, script)) in tasks.iter().enumerate() {
        let name = format!("w{rank}");
        if event_waiters && role == Role::Waiter {
            sim.spawn_event(
                name,
                EventScript {
                    p: p.clone(),
                    rank,
                    script: script.to_vec(),
                    pc: 0,
                    slept: false,
                    fused: None,
                    cv_waiting: false,
                    barrier_token: None,
                    collective: CollectiveProgress::default(),
                    fuse: SumProgress::default(),
                },
            );
        } else {
            let p = p.clone();
            let script = script.to_vec();
            sim.spawn(name, move || run_carrier(&p, rank, &script));
        }
    }
    sim.run();
    let lines = log.lock().join("\n");
    lines
}

/// Assert both flavors of a scenario reproduce the pinned stream.
fn check(members: usize, tasks: &[(Role, &[Op])], expected: &str) {
    for event_waiters in [false, true] {
        let got = run(members, tasks, event_waiters);
        let flavor = if event_waiters {
            "event-task"
        } else {
            "carrier"
        };
        assert_eq!(
            got.trim(),
            expected.trim(),
            "{flavor} waiters diverge from the pinned stream:\n{got}"
        );
    }
}

#[test]
fn channel_back_pressure_and_close() {
    check(
        2,
        &[
            (Waiter, &[Send(1), Send(2), Send(3), Close, Send(4)]),
            (Waiter, &[Sleep(1), Recv, Sleep(1), Recv, Recv, Recv]),
        ],
        "
t0 Signal chan#0 'q'
t0 => send Ok(()) @0
t1 Wait chan#0 'q'
t1 => recv Some(1) @1000000
t0 Signal chan#0 'q'
t0 => send Ok(()) @1000000
t1 Wait chan#0 'q'
t1 => recv Some(2) @2000000
t0 Signal chan#0 'q'
t0 => send Ok(()) @2000000
t0 Signal chan#0 'q'
t0 => send Err(4) @2000000
t0 Finish w0
t1 Wait chan#0 'q'
t1 => recv Some(3) @2000000
t1 Wait chan#0 'q'
t1 => recv None @2000000
t1 Finish w1
",
    );
}

#[test]
fn timed_waits_keep_their_results() {
    check(
        2,
        &[
            (
                Carrier,
                &[
                    RecvTimeout(0),
                    RecvTimeout(2),
                    RecvTimeout(5),
                    NotifyWaitTimeout(1),
                    NotifyWaitTimeout(5),
                    WaitDeadline(10),
                    WaitDeadline(30),
                    RecvTimeout(5),
                ],
            ),
            (
                Waiter,
                &[
                    Sleep(3),
                    Send(7),
                    Sleep(5),
                    NotifyOne,
                    Sleep(10),
                    EventSet,
                    Close,
                ],
            ),
        ],
        "
t0 => recv_timeout Err(Timeout) @0
t0 => recv_timeout Err(Timeout) @2000000
t1 Signal chan#0 'q'
t1 => send Ok(()) @3000000
t0 Wait chan#0 'q'
t0 => recv_timeout Ok(7) @3000000
t0 => notify wait_timeout false @4000000
t1 Signal notify#1
t0 Wait notify#1
t0 => notify wait_timeout true @8000000
t0 => event wait_deadline false @10000000
t1 Signal event#2
t1 Signal chan#0 'q'
t1 Finish w1
t0 Wait event#2
t0 => event wait_deadline true @18000000
t0 Wait chan#0 'q'
t0 => recv_timeout Err(Closed) @18000000
t0 Finish w0
",
    );
}

#[test]
fn semaphore_event_and_notify() {
    check(
        2,
        &[
            (
                Waiter,
                &[
                    Acquire(1),
                    Sleep(2),
                    Release(1),
                    EventWait,
                    NotifyWait,
                    NotifyWait,
                ],
            ),
            (Waiter, &[Sleep(1), Acquire(1), Release(1), EventWait]),
            (
                Waiter,
                &[Sleep(3), EventSet, NotifyOne, Sleep(1), NotifyOne],
            ),
        ],
        "
t0 Wait sem#0
t0 Signal sem#0
t1 Wait sem#0
t1 Signal sem#0
t2 Signal event#1
t2 Signal notify#2
t0 Wait event#1
t0 Wait notify#2
t1 Wait event#1
t1 Finish w1
t2 Signal notify#2
t2 Finish w2
t0 Wait notify#2
t0 Finish w0
",
    );
}

#[test]
fn barrier_crossings() {
    check(
        3,
        &[
            (Waiter, &[BarrierWait, Sleep(1), BarrierWait]),
            (Waiter, &[Sleep(1), BarrierWait, BarrierWait]),
            (Waiter, &[Sleep(2), BarrierWait, BarrierWait]),
        ],
        "
t0 Signal barrier#0
t1 Signal barrier#0
t2 Signal barrier#0
t2 Wait barrier#0
t2 => barrier leader=true @2000000
t2 Signal barrier#0
t0 Wait barrier#0
t0 => barrier leader=false @2000000
t1 Wait barrier#0
t1 => barrier leader=false @2000000
t1 Signal barrier#0
t0 Signal barrier#0
t0 Wait barrier#0
t0 => barrier leader=true @3000000
t0 Finish w0
t2 Wait barrier#0
t2 => barrier leader=false @3000000
t2 Finish w2
t1 Wait barrier#0
t1 => barrier leader=false @3000000
t1 Finish w1
",
    );
}

#[test]
fn mutex_and_condvar() {
    check(
        3,
        &[
            (Carrier, &[HoldLock(2)]),
            (Waiter, &[Sleep(1), Lock, CondWait]),
            (Waiter, &[Sleep(1), Lock, Sleep(2), CondSet]),
        ],
        "
t0 Acquire mutex#0 'm'
t0 Release mutex#0 'm'
t0 Finish w0
t1 Acquire mutex#0 'm'
t1 Release mutex#0 'm'
t2 Acquire mutex#0 'm'
t2 Release mutex#0 'm'
t1 Acquire mutex#0 'm'
t1 Release mutex#0 'm'
t2 Acquire mutex#0 'm'
t2 Signal condvar#1 'cv'
t2 Release mutex#0 'm'
t2 Finish w2
t1 Wait condvar#1 'cv'
t1 Acquire mutex#0 'm'
t1 Release mutex#0 'm'
t1 Finish w1
",
    );
}

#[test]
fn comm_collectives() {
    check(
        2,
        &[
            (Waiter, &[CommBarrier, CommAllreduce(1024), CommBcast(1024)]),
            (
                Waiter,
                &[Sleep(1), CommBarrier, CommAllreduce(1024), CommBcast(1024)],
            ),
        ],
        "
t0 Signal mpi:world#0:barrier
t0 Signal barrier#1
t1 Signal mpi:world#0:barrier
t1 Signal barrier#1
t1 Wait barrier#1
t0 Wait barrier#1
t1 Signal barrier#1
t0 Signal barrier#1
t0 Wait barrier#1
t0 Wait mpi:world#0:barrier
t0 Signal mpi:world#0:allreduce
t0 Signal barrier#1
t1 Wait barrier#1
t1 Wait mpi:world#0:barrier
t1 Signal mpi:world#0:allreduce
t1 Signal barrier#1
t1 Wait barrier#1
t0 Wait barrier#1
t1 Signal barrier#1
t0 Signal barrier#1
t0 Wait barrier#1
t0 Wait mpi:world#0:allreduce
t0 Signal mpi:world#0:bcast
t0 Signal barrier#1
t1 Wait barrier#1
t1 Wait mpi:world#0:allreduce
t1 Signal mpi:world#0:bcast
t1 Signal barrier#1
t1 Wait barrier#1
t0 Wait barrier#1
t1 Signal barrier#1
t0 Signal barrier#1
t0 Wait barrier#1
t0 Wait mpi:world#0:bcast
t0 Finish w0
t1 Wait barrier#1
t1 Wait mpi:world#0:bcast
t1 Finish w1
",
    );
}

#[test]
fn sum_allreduce_rounds() {
    check(
        2,
        &[
            (Waiter, &[Fuse(1), Fuse(3)]),
            (Waiter, &[Sleep(1), Fuse(2), Fuse(4)]),
        ],
        "
t0 Acquire mutex#0 'mpi:sum-allreduce'
t0 Release mutex#0 'mpi:sum-allreduce'
t1 Acquire mutex#0 'mpi:sum-allreduce'
t1 Signal condvar#1 'mpi:sum-allreduce'
t1 Release mutex#0 'mpi:sum-allreduce'
t0 Wait condvar#1 'mpi:sum-allreduce'
t0 Acquire mutex#0 'mpi:sum-allreduce'
t0 Release mutex#0 'mpi:sum-allreduce'
t1 => fused 3 @1004001
t1 Acquire mutex#0 'mpi:sum-allreduce'
t1 Release mutex#0 'mpi:sum-allreduce'
t0 => fused 3 @1004001
t0 Acquire mutex#0 'mpi:sum-allreduce'
t0 Signal condvar#1 'mpi:sum-allreduce'
t0 Release mutex#0 'mpi:sum-allreduce'
t1 Wait condvar#1 'mpi:sum-allreduce'
t1 Acquire mutex#0 'mpi:sum-allreduce'
t1 Release mutex#0 'mpi:sum-allreduce'
t0 => fused 7 @1008002
t0 Finish w0
t1 => fused 7 @1008002
t1 Finish w1
",
    );
}
