//! Determinism contract of the event-driven DES core: refactoring a task
//! from a stack-full carrier thread to a stackless event task must not
//! change the simulation's observable behavior. Same workload, same
//! virtual-time trace — byte-identical probe event streams, identical
//! Darshan counters, identical final clock — whether the auxiliary tasks
//! run as carriers or as event-task state machines.
//!
//! Also pins the FIFO tie-break: tasks becoming runnable at the same
//! virtual instant run in spawn order regardless of flavor.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use tf_darshan::posix::OpenFlags;
use tf_darshan::probe::{CollectingSink, ProbeSink};
use tf_darshan::simrt::sync::Semaphore;
use tf_darshan::simrt::{EventCx, EventPoll, Sim};
use tf_darshan::tfdarshan::{TfDarshanConfig, TfDarshanWrapper};
use tf_darshan::workloads::platform::greendog;

const ROUNDS: usize = 3;

/// Blank out `pid: <n>` occurrences: process ids come from a global
/// counter, so the second run of a pair allocates different ones. The
/// trace contract is about *scheduling*, not id allocation.
fn strip_pids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("pid: ") {
        out.push_str(&rest[..i + 5]);
        rest = &rest[i + 5..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        out.push('#');
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Run the paced-I/O workload at `n` worker/pacer pairs. Workers are
/// always carriers (they do blocking POSIX I/O); pacers are carriers in
/// the baseline and event tasks for even indices when `mixed`. Returns
/// the full probe event stream, the Darshan session snapshots, and the
/// final virtual clock.
fn run_trace(n: usize, mixed: bool) -> (String, String, f64) {
    let m = greendog();
    for i in 0..n {
        m.stack
            .create_synthetic(&format!("/data/hdd/det/f{i}"), 64 << 10, i as u64)
            .unwrap();
    }
    let sink = Arc::new(CollectingSink::new());
    m.process
        .probe()
        .register(sink.clone() as Arc<dyn ProbeSink>);
    let wrapper = TfDarshanWrapper::install(m.process.clone(), TfDarshanConfig::default());

    let w2 = wrapper.clone();
    let process = m.process.clone();
    let sim2 = m.sim.clone();
    m.sim.spawn("main", move || {
        w2.mark_start().expect("tf-darshan attaches");
        let mut workers = Vec::new();
        for i in 0..n {
            let tickets = Arc::new(Semaphore::new(0));
            let d = Duration::from_micros(200 + (i as u64 % 13) * 50);
            {
                let tickets = tickets.clone();
                let process = process.clone();
                workers.push(sim2.spawn(format!("w{i}"), move || {
                    let path = format!("/data/hdd/det/f{i}");
                    for r in 0..ROUNDS {
                        tickets.acquire();
                        let fd = process.open(&path, OpenFlags::rdonly()).unwrap();
                        process
                            .pread(fd, (r as u64) * 4096, 4096 + (i as u64 % 7) * 512, None)
                            .unwrap();
                        process.close(fd).unwrap();
                    }
                }));
            }
            if mixed && i % 2 == 0 {
                let mut fired = 0usize;
                let mut sleeping = true;
                sim2.spawn_event(format!("p{i}"), move |_cx: &mut EventCx| loop {
                    if fired == ROUNDS {
                        return EventPoll::Done;
                    }
                    if sleeping {
                        sleeping = false;
                        return EventPoll::Sleep(d);
                    }
                    tickets.release();
                    fired += 1;
                    sleeping = true;
                });
            } else {
                sim2.spawn(format!("p{i}"), move || {
                    for _ in 0..ROUNDS {
                        tf_darshan::simrt::sleep(d);
                        tickets.release();
                    }
                });
            }
        }
        for w in workers {
            w.join();
        }
        w2.mark_stop();
    });
    m.sim.run();

    let events = strip_pids(&format!("{:?}", sink.snapshot()));
    let (start, stop) = wrapper.session_snapshots().expect("one session ran");
    let counters = strip_pids(&format!(
        "{} -> {}, window dxt: {:?}",
        canon(&start),
        canon(&stop),
        wrapper.session_dxt()
    ));
    (events, counters, m.sim.now().as_secs_f64())
}

/// Render a Darshan snapshot deterministically: the record vectors are
/// sorted by record id already; `names` iterate in registration order,
/// so sort them by id too.
fn canon(s: &tf_darshan::darshan::Snapshot) -> String {
    let names: std::collections::BTreeMap<_, _> = s.names.iter().collect();
    format!(
        "taken_at: {:?}, epoch: {:?}, posix: {:?}, stdio: {:?}, names: {:?}, \
         partial: {:?}/{:?}, dxt_segments: {:?}, dxt_truncated: {:?}, dxt_pos: {:?}",
        s.taken_at,
        s.epoch,
        s.posix,
        s.stdio,
        names,
        s.posix_partial,
        s.stdio_partial,
        s.dxt_segments,
        s.dxt_truncated,
        s.dxt_pos,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn mixed_flavor_runs_reproduce_the_carrier_trace(n in 1usize..65) {
        let (ev_carrier, ctr_carrier, t_carrier) = run_trace(n, false);
        let (ev_mixed, ctr_mixed, t_mixed) = run_trace(n, true);
        prop_assert_eq!(ev_carrier, ev_mixed, "probe event streams diverged at n={}", n);
        prop_assert_eq!(ctr_carrier, ctr_mixed, "Darshan counters diverged at n={}", n);
        prop_assert_eq!(t_carrier, t_mixed, "final virtual clocks diverged at n={}", n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn equal_time_wakeups_run_in_spawn_order_across_flavors(
        k in 1usize..49,
        flavors in any::<u64>(),
    ) {
        // All k tasks become runnable at t=0; the run order must be the
        // spawn order whatever mix of carriers and event tasks `flavors`
        // selects.
        let sim = Sim::new();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..k {
            let order = order.clone();
            if flavors >> (i % 64) & 1 == 1 {
                sim.spawn_event(format!("e{i}"), move |_cx: &mut EventCx| {
                    order.lock().push(i);
                    EventPoll::Done
                });
            } else {
                sim.spawn(format!("c{i}"), move || {
                    order.lock().push(i);
                });
            }
        }
        sim.run();
        let got = order.lock().clone();
        prop_assert_eq!(got, (0..k).collect::<Vec<_>>());
    }
}
