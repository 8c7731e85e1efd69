//! Ablation — Darshan event fold cost per event as the runtime holds more
//! records.
//!
//! Every instrumented operation reaches Darshan's module records through
//! `DarshanSink::on_events`, which folds the probe spine's buffered events
//! at each flush. Darshan never forgets a file, so a long-running job's
//! runtime holds every file it has seen, while each profiling window
//! touches only its own. Many small jobs that open fresh files every
//! window (the fleet shape) make the per-file bookkeeping the dominant
//! cost, so folding a window must cost the same per event whether the
//! runtime already holds 320 records or 10k. Work that grows with the
//! records or names held — a map cloned on the first new file after a
//! snapshot, say — shows up here as growth.
//!
//! Each trial builds a runtime whose sink has folded `held` files (open, a
//! whole-file read, an EOF probe and close each) and snapshots it, folds
//! one window of 320 new files and snapshots again (the steady state: an
//! extraction copies one window's records), then times folding a second
//! window of 320 new files, delivered in runs of five events as thread
//! flushes deliver them. Each window's paths are interned just before it, as the
//! `open` calls that emit its events would. Trials of both sizes
//! interleave so host drift hits them alike, and the gate takes the
//! median of the rounds' ratios.
//!
//! Acceptance: host time per folded event grows at most 1.6× from 320 to
//! 10k held records; the bench exits 1 otherwise. The fold's own work per
//! event does not depend on the records held, but after a snapshot of 10k
//! records its table probes and first DXT writes for a new file miss the
//! caches more often: on a 2-vCPU Xeon VM the slot fold reads 1.24–1.43×.
//! The map-cloning fold it replaced reads 3.5× there, and copying only the
//! names' `Arc`s once per window still reads 2.8×.

use std::sync::Arc;
use std::time::{Duration, Instant};

use darshan_sim::{DarshanConfig, DarshanRuntime, DarshanSink};
use probe::{EventKind, IoEvent, Origin, PathId, ProbeSink};
use simrt::{Sim, SimTime, TaskId};

/// Records the runtime holds before the timed window.
const HELD: [usize; 2] = [320, 10_000];
/// New files the timed window folds.
const WINDOW_FILES: usize = 320;
/// Events per delivered run (the fleet workload averages ~4.7).
const RUN: usize = 5;
const TRIALS: usize = 41;
const MAX_GROWTH: f64 = 1.6;

/// The four events of one file's visit: open, whole read, EOF probe, close.
fn visit(path: PathId, fd: i32, size: u64, t: u64) -> [IoEvent; 4] {
    let at = |k: u64| SimTime::from_nanos(t + k * 1_000);
    let ev = |k: u64, kind| IoEvent {
        task: TaskId(1),
        pid: 1,
        t0: at(k),
        t1: at(k + 1),
        origin: Origin::App,
        target: path,
        kind,
    };
    [
        ev(0, EventKind::Open { fd }),
        ev(
            1,
            EventKind::Read {
                fd,
                offset: 0,
                len: size,
            },
        ),
        ev(
            2,
            EventKind::Read {
                fd,
                offset: size,
                len: 0,
            },
        ),
        ev(3, EventKind::Close { fd }),
    ]
}

/// Events visiting each of `paths` once, in order, from virtual time `t0`.
fn visits(paths: &[PathId], t0: u64) -> Vec<IoEvent> {
    paths
        .iter()
        .enumerate()
        .flat_map(|(i, &p)| {
            let size = 88_000 + (i as u64 * 7_919) % 40_000;
            visit(p, 3 + (i % 8) as i32, size, t0 + i as u64 * 10_000)
        })
        .collect()
}

/// A window of `WINDOW_FILES` files no runtime has seen, under `dir`.
fn fresh_window(dir: usize) -> Vec<IoEvent> {
    let paths: Vec<PathId> = (0..WINDOW_FILES)
        .map(|i| probe::intern(&format!("/lustre/imagenet/val/w{dir:04}/n{i:08}.JPEG")))
        .collect();
    visits(&paths, 1_000_000_000_000)
}

/// One trial: host nanoseconds per event of folding a fresh window into a
/// runtime that already holds the records of `held`.
fn trial(held: &[IoEvent], dir: usize) -> f64 {
    let rt = Arc::new(DarshanRuntime::new(DarshanConfig {
        snapshot_cost_per_record: Duration::ZERO,
        ..DarshanConfig::default()
    }));
    let sink = DarshanSink::new(rt.clone());
    for run in held.chunks(RUN) {
        sink.on_events(run);
    }
    // A first window after the setup's full extraction brings the runtime
    // to its steady state: the next extraction copies one window's records.
    rt.snapshot();
    for run in fresh_window(2 * dir).chunks(RUN) {
        sink.on_events(run);
    }
    let start = rt.snapshot();
    let window = fresh_window(2 * dir + 1);
    let t = Instant::now();
    for run in window.chunks(RUN) {
        sink.on_events(run);
    }
    let ns = t.elapsed().as_nanos() as f64;
    // The window really was folded: one new record per file.
    let stop = rt.snapshot();
    assert_eq!(stop.posix.len() - start.posix.len(), WINDOW_FILES);
    ns / window.len() as f64
}

/// Median of a sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    bench::header(
        "Ablation",
        "Darshan event fold: host time per event vs records held",
    );
    let max_held = HELD[HELD.len() - 1];
    let held_paths: Vec<PathId> = (0..max_held)
        .map(|i| probe::intern(&format!("/lustre/imagenet/train/n{i:08}.JPEG")))
        .collect();
    let helds: Vec<Vec<IoEvent>> = HELD.iter().map(|&h| visits(&held_paths[..h], 0)).collect();
    let events = 4 * WINDOW_FILES;

    // Snapshots read the virtual clock, so trials run inside a simulation.
    let sim = Sim::new();
    let h = sim.spawn("fold", move || {
        let mut ns = vec![Vec::new(); HELD.len()];
        for round in 0..TRIALS {
            for k in 0..HELD.len() {
                let i = (round + k) % HELD.len();
                ns[i].push(trial(&helds[i], round * HELD.len() + k));
            }
        }
        ns
    });
    sim.run();
    let samples = h.join();
    // Each round times both sizes back to back, so the round's ratio
    // cancels drift that moves both; the gate takes the median ratio.
    let growth = median(
        samples[1]
            .iter()
            .zip(&samples[0])
            .map(|(big, small)| big / small)
            .collect(),
    );
    let ns: Vec<f64> = samples.into_iter().map(median).collect();

    println!(
        "{:>8} {:>8} {:>8} {:>14}",
        "held", "files", "events", "ns/event"
    );
    let rows: Vec<serde_json::Value> = HELD
        .iter()
        .zip(&ns)
        .map(|(&held, &per_event)| {
            println!("{held:>8} {WINDOW_FILES:>8} {events:>8} {per_event:>14.1}");
            serde_json::json!({
                "held_records": held,
                "window_files": WINDOW_FILES,
                "events": events,
                "ns_per_event": per_event,
            })
        })
        .collect();
    let ok = growth <= MAX_GROWTH;
    println!();
    bench::row(
        "fold ns/event, 10k vs 320 records held",
        &format!("<= {MAX_GROWTH}x"),
        &format!("{growth:.2}x"),
        ok,
    );
    bench::save_json(
        "ablation_darshan_fold",
        &serde_json::json!({
            "rows": rows,
            "growth": growth,
            "max_growth": MAX_GROWTH,
        }),
    );
    if !ok {
        eprintln!(
            "fold time per event grew {growth:.2}x from {} to {max_held} held records (bound {MAX_GROWTH}x)",
            HELD[0]
        );
        std::process::exit(1);
    }
}
