//! The scheduler scale workload: many simulated threads, few OS threads.
//!
//! The event-driven DES core's contract is that simulated concurrency
//! costs run-calendar heap entries, not OS threads — 10k simulated
//! threads must not mean 10k stacks. This workload drives that contract
//! end to end: `sim_threads` stackless *event tasks* run a
//! sleep-then-barrier cadence (the shape of a wide rank fleet waiting on
//! collectives) while a small constant pool of *carrier* threads does
//! real POSIX I/O through the probe spine — optionally under the `iosan`
//! sanitizer, which observes both flavors' sync edges on one stream.
//!
//! The outcome pairs the scheduler's own counters ([`simrt::SchedStats`])
//! with the process's OS-thread count read from `/proc/self/status`, so a
//! test (or the `sched_scaling` bench) can assert the flat-overhead
//! claim directly: `event_spawns == sim_threads` while the OS-thread
//! peak stays bounded by the carrier pool.

use std::sync::Arc;
use std::time::Duration;

use iosan::{IoSanitizer, SanitizerReport};
use posix_sim::OpenFlags;
use simrt::sync::Barrier;
use simrt::{EventCx, EventPoll, SchedStats, SimTime};

use crate::platform::greendog;

/// Carrier I/O threads the workload always runs (the "real work" pool).
pub const CARRIER_POOL: usize = 4;

/// Bytes each carrier reads per round.
const CARRIER_READ: u64 = 64 << 10;

/// What the scale workload produced.
pub struct SchedScaleOutcome {
    /// Event tasks that were spawned (the simulated thread count).
    pub sim_threads: usize,
    /// Barrier rounds every participant crossed.
    pub rounds: usize,
    /// Scheduler counters of the run.
    pub stats: SchedStats,
    /// Highest `Threads:` value observed in `/proc/self/status` around the
    /// run (a process-wide proxy: includes harness threads, so compare
    /// against generous bounds, not exact counts). `None` off procfs.
    pub peak_os_threads: Option<usize>,
    /// Virtual time the run took.
    pub virtual_wall: SimTime,
    /// Sanitizer verdict over the probe spine, when sanitized.
    pub sanitizer: Option<SanitizerReport>,
}

/// Current OS-thread count of this process, from `/proc/self/status`.
pub fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Run `sim_threads` event tasks for `rounds` sleep+barrier rounds next
/// to the carrier I/O pool, optionally under the sanitizer.
pub fn run_sched_scale(sim_threads: usize, rounds: usize, sanitize: bool) -> SchedScaleOutcome {
    assert!(sim_threads > 0 && rounds > 0);
    let m = greendog();
    for c in 0..CARRIER_POOL {
        m.stack
            .create_synthetic(&format!("/data/hdd/scale/c{c}"), CARRIER_READ, c as u64)
            .unwrap();
    }
    let san = sanitize.then(|| IoSanitizer::install(&m.sim, &[m.process.probe()]));

    let mut peak = os_threads();
    let barrier = Arc::new(Barrier::new(sim_threads));
    for i in 0..sim_threads {
        let barrier = barrier.clone();
        let mut done = 0usize;
        let mut token: Option<u64> = None;
        let mut sleeping = true;
        // Deterministic per-task jitter so arrivals stagger instead of
        // landing on one calendar instant.
        let jitter = Duration::from_micros(100 + (i % 97) as u64 * 10);
        m.sim
            .spawn_event(format!("et{i}"), move |_cx: &mut EventCx| loop {
                if done == rounds {
                    return EventPoll::Done;
                }
                if sleeping {
                    sleeping = false;
                    return EventPoll::Sleep(jitter);
                }
                match barrier.poll_wait(&mut token) {
                    None => return EventPoll::Block { deadline: None },
                    Some(_) => {
                        done += 1;
                        sleeping = true;
                    }
                }
            });
    }
    for c in 0..CARRIER_POOL {
        let process = m.process.clone();
        m.sim.spawn(format!("io{c}"), move || {
            let path = format!("/data/hdd/scale/c{c}");
            for _ in 0..rounds {
                let fd = process.open(&path, OpenFlags::rdonly()).unwrap();
                process.read(fd, CARRIER_READ, None).unwrap();
                process.close(fd).unwrap();
                simrt::sleep(Duration::from_millis(1));
            }
        });
    }
    // Every carrier OS thread exists (parked or running) once spawned, so
    // this sample sees the pool at full strength.
    peak = peak.max(os_threads());
    m.sim.run();
    peak = peak.max(os_threads());

    SchedScaleOutcome {
        sim_threads,
        rounds,
        stats: m.sim.stats(),
        peak_os_threads: peak,
        virtual_wall: m.sim.now(),
        sanitizer: san.map(|s| s.finalize()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_thousand_sim_threads_stay_on_a_constant_os_pool() {
        let out = run_sched_scale(2_000, 3, true);
        assert_eq!(out.stats.event_spawns, 2_000);
        assert_eq!(out.stats.carrier_spawns as usize, CARRIER_POOL);
        assert!(out.stats.peak_live_tasks >= 2_000);
        let san = out.sanitizer.as_ref().expect("ran sanitized");
        assert!(san.is_clean(), "findings: {}", san.render_ascii());
        if let Some(peak) = out.peak_os_threads {
            // The harness runs tests in parallel, so allow plenty of slack;
            // the claim is orders of magnitude, not an exact count.
            assert!(
                peak < 256,
                "2000 simulated threads should not need {peak} OS threads"
            );
        }
        assert!(out.virtual_wall.as_secs_f64() > 0.0);
    }

    #[test]
    fn per_task_poll_cost_is_flat_across_scale() {
        // Polls per event task should not grow with the fleet size: each
        // task crosses the same number of barriers regardless of N.
        let small = run_sched_scale(100, 3, false);
        let big = run_sched_scale(1_000, 3, false);
        let per_small = small.stats.event_polls as f64 / 100.0;
        let per_big = big.stats.event_polls as f64 / 1_000.0;
        assert!(
            per_big < per_small * 2.0,
            "polls per task grew superlinearly: {per_small:.1} -> {per_big:.1}"
        );
    }
}
