//! Ablation — scheduler scaling: simulated-thread count vs host cost.
//!
//! The event-driven DES core's claim is *flat per-task overhead*: going
//! from 100 to 10 000 simulated threads should scale host wall time and
//! memory roughly linearly in the task count (constant per task), while
//! the OS-thread count stays pinned at the small carrier pool. This bench
//! sweeps the `sched_scale` workload over a log axis and records, per
//! fleet size: host wall time, per-task wall time, resident set, peak OS
//! threads, and the scheduler's own counters.
//!
//! Acceptance: per-task wall time at 10 000 tasks within 8× of the
//! per-task wall time at 100 (allowing cache effects and heap growth —
//! "near-flat", not "bit-identical"), and OS threads bounded by a
//! constant far below the fleet size at every point.
//!
//! Handoff gate: two carriers ping-pong over a simrt channel, and the same
//! process times the scheduler-wide shape simrt replaced (one mutex, one
//! condvar, `notify_all` under the lock, two players plus one idle
//! waiter). Each carrier switch must cost at most 0.6× a reference switch.
//! The gate is enforced only when the process is pinned to one CPU
//! (`taskset -c 0`): unpinned, cross-CPU wake-up latency dominates and the
//! ratio measures the host's CPU scheduler more than the handoff.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use simrt::sync::channel;
use simrt::Sim;
use workloads::sched_scale::{os_threads, run_sched_scale, CARRIER_POOL};

const FLEETS: [usize; 5] = [100, 300, 1_000, 3_000, 10_000];
const ROUNDS: usize = 3;
/// Ping-pong round trips per handoff sample (two switches each).
const PING_PONGS: u64 = 20_000;
/// Handoff samples per side; the best one counts.
const HANDOFF_SAMPLES: usize = 3;
/// Largest allowed simrt/reference cost ratio per switch.
const HANDOFF_BOUND: f64 = 0.6;

/// The value of `key` (e.g. `VmRSS:`) in `/proc/self/status`, trimmed.
fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// `VmRSS:` of this process in KiB.
fn vm_rss_kib() -> Option<u64> {
    proc_status("VmRSS:")?
        .trim_end_matches(" kB")
        .trim()
        .parse()
        .ok()
}

/// Host µs per carrier switch: two carriers bounce a token over a pair of
/// simrt channels, every `recv` handing the running slot to the other.
fn simrt_us_per_switch() -> f64 {
    let sim = Sim::new();
    let (ping_tx, ping_rx) = channel::<u64>(None);
    let (pong_tx, pong_rx) = channel::<u64>(None);
    sim.spawn("ping", move || {
        for i in 0..PING_PONGS {
            ping_tx.send(i).unwrap();
            assert_eq!(pong_rx.recv(), Some(i));
        }
    });
    sim.spawn("pong", move || {
        while let Some(i) = ping_rx.recv() {
            pong_tx.send(i).unwrap();
        }
    });
    let t = Instant::now();
    sim.run();
    let wall = t.elapsed();
    let switches = sim.stats().switches;
    assert!(
        switches >= 2 * PING_PONGS,
        "ping-pong switched {switches} times"
    );
    wall.as_secs_f64() * 1e6 / switches as f64
}

/// Host µs per switch of the replaced shape: one mutex guarding whose turn
/// it is, one condvar, `notify_all` under the lock at every turn, with two
/// players and one waiter that only waits for the end.
fn reference_us_per_switch() -> f64 {
    // (turn, done)
    let shared = Arc::new((Mutex::new((0u64, false)), Condvar::new()));
    let switches = 2 * PING_PONGS;
    let idle = {
        let shared = shared.clone();
        std::thread::spawn(move || {
            let (m, cv) = &*shared;
            let mut st = m.lock().unwrap();
            while !st.1 {
                st = cv.wait(st).unwrap();
            }
        })
    };
    let t = Instant::now();
    let players: Vec<_> = (0..2u64)
        .map(|me| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let (m, cv) = &*shared;
                let mut st = m.lock().unwrap();
                loop {
                    while st.0 % 2 != me && st.0 < switches {
                        st = cv.wait(st).unwrap();
                    }
                    if st.0 >= switches {
                        return;
                    }
                    st.0 += 1;
                    cv.notify_all();
                }
            })
        })
        .collect();
    for p in players {
        p.join().unwrap();
    }
    let wall = t.elapsed();
    shared.0.lock().unwrap().1 = true;
    shared.1.notify_all();
    idle.join().unwrap();
    wall.as_secs_f64() * 1e6 / switches as f64
}

struct Point {
    sim_threads: usize,
    wall_ms: f64,
    per_task_us: f64,
    rss_kib: Option<u64>,
    peak_os_threads: Option<usize>,
    switches: u64,
    event_polls: u64,
    peak_heap_depth: usize,
}

fn measure(sim_threads: usize) -> Point {
    let t = Instant::now();
    let out = run_sched_scale(sim_threads, ROUNDS, false);
    let wall = t.elapsed();
    assert_eq!(out.stats.event_spawns as usize, sim_threads);
    Point {
        sim_threads,
        wall_ms: wall.as_secs_f64() * 1e3,
        per_task_us: wall.as_secs_f64() * 1e6 / sim_threads as f64,
        rss_kib: vm_rss_kib(),
        peak_os_threads: out.peak_os_threads,
        switches: out.stats.switches,
        event_polls: out.stats.event_polls,
        peak_heap_depth: out.stats.peak_heap_depth,
    }
}

fn main() {
    bench::header(
        "Ablation",
        "Scheduler scaling: 100 -> 10k simulated threads, constant OS pool",
    );
    println!(
        "{ROUNDS} barrier rounds per task, {CARRIER_POOL} carrier I/O threads, log axis {} -> {}\n",
        FLEETS[0],
        FLEETS[FLEETS.len() - 1]
    );

    // Warm-up so allocator and file-system setup don't bill the first point.
    let _ = run_sched_scale(FLEETS[0], ROUNDS, false);

    let points: Vec<Point> = FLEETS.iter().map(|&n| measure(n)).collect();

    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "sim thr", "wall ms", "per-task us", "RSS MiB", "OS thr", "switches", "polls", "heap peak"
    );
    for p in &points {
        println!(
            "{:>10} {:>12.1} {:>14.2} {:>12} {:>10} {:>12} {:>12} {:>10}",
            p.sim_threads,
            p.wall_ms,
            p.per_task_us,
            p.rss_kib
                .map_or("n/a".to_string(), |k| format!("{:.1}", k as f64 / 1024.0)),
            p.peak_os_threads
                .map_or("n/a".to_string(), |t| t.to_string()),
            p.switches,
            p.event_polls,
            p.peak_heap_depth,
        );
    }

    bench::series(
        "per-task wall time (log task axis)",
        &points
            .iter()
            .map(|p| ((p.sim_threads as f64).log10(), p.per_task_us))
            .collect::<Vec<_>>(),
        "us/task at log10(N)",
    );

    let first = &points[0];
    let last = &points[points.len() - 1];
    let flat = last.per_task_us <= first.per_task_us * 8.0;
    bench::row(
        "per-task overhead 100 -> 10k",
        "near-flat (<= 8x)",
        &format!(
            "{:.2} -> {:.2} us ({:.1}x)",
            first.per_task_us,
            last.per_task_us,
            last.per_task_us / first.per_task_us.max(1e-9)
        ),
        flat,
    );
    let bounded = points
        .iter()
        .all(|p| p.peak_os_threads.is_none_or(|t| t < 64));
    bench::row(
        "OS threads at every fleet size",
        "constant pool",
        &points
            .last()
            .unwrap()
            .peak_os_threads
            .map_or("n/a".to_string(), |t| format!("{t} at 10k tasks")),
        bounded,
    );

    // Alternate the sides so host drift hits both alike; keep each best.
    let (mut simrt_us, mut reference_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..HANDOFF_SAMPLES {
        simrt_us = simrt_us.min(simrt_us_per_switch());
        reference_us = reference_us.min(reference_us_per_switch());
    }
    let handoff_ratio = simrt_us / reference_us;
    // The CPUs this process may run on: one number when pinned.
    let cpus = proc_status("Cpus_allowed_list:");
    let pinned = cpus.as_deref().is_some_and(|c| c.parse::<u32>().is_ok());
    let handoff_ok = handoff_ratio <= HANDOFF_BOUND;
    println!(
        "\ncarrier handoff, {} switches: simrt {simrt_us:.2} us, notify_all reference {reference_us:.2} us",
        2 * PING_PONGS
    );
    bench::row(
        "carrier switch vs notify_all handoff",
        &format!("<= {HANDOFF_BOUND}x pinned"),
        &format!(
            "{handoff_ratio:.2}x on CPUs {}{}",
            cpus.as_deref().unwrap_or("n/a"),
            if pinned {
                ""
            } else {
                " (unpinned: not enforced)"
            }
        ),
        handoff_ok || !pinned,
    );

    bench::save_json(
        "ablation_sched_scaling",
        &serde_json::json!({
            "rounds": ROUNDS,
            "carrier_pool": CARRIER_POOL,
            "host_os_threads_baseline": os_threads(),
            "points": points.iter().map(|p| serde_json::json!({
                "sim_threads": p.sim_threads,
                "wall_ms": p.wall_ms,
                "per_task_us": p.per_task_us,
                "rss_kib": p.rss_kib,
                "peak_os_threads": p.peak_os_threads,
                "switches": p.switches,
                "event_polls": p.event_polls,
                "peak_heap_depth": p.peak_heap_depth,
            })).collect::<Vec<_>>(),
            "per_task_flat": flat,
            "os_threads_bounded": bounded,
            "handoff": {
                "switches": 2 * PING_PONGS,
                "simrt_us_per_switch": simrt_us,
                "reference_us_per_switch": reference_us,
                "ratio": handoff_ratio,
                "bound": HANDOFF_BOUND,
                "pinned": pinned,
            },
        }),
    );
    assert!(flat, "per-task overhead grew superlinearly");
    assert!(bounded, "OS-thread count scaled with the simulated fleet");
    if pinned && !handoff_ok {
        eprintln!(
            "carrier handoff costs {handoff_ratio:.2}x the notify_all reference (bound {HANDOFF_BOUND}x)"
        );
        std::process::exit(1);
    }
}
