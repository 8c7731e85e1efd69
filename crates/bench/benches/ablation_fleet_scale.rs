//! Ablation — fleet scale: world size vs aggregate bandwidth, reduce
//! cost, and host memory.
//!
//! The fleet refactor's claim is that no layer re-flattens the job: node
//! carriers keep OS threads at `ranks / 64`, one probe bus per rank keeps
//! per-event fan-out constant, and the log-depth tree reduction keeps
//! merge cost growing with `log N` rather than `N`. This bench sweeps the
//! `fleet_scale` workload over a log rank axis and records, per world
//! size: aggregate read bandwidth over the profiled window (virtual
//! time), the tree reduce's modeled cost next to the flat-merge cost it
//! replaced, host wall time, and peak RSS.
//!
//! Acceptance: at 1024 ranks the aggregate bandwidth is at least 0.7x the
//! linear extrapolation from 64 ranks, and the modeled reduce time grows
//! at most 2x from 256 to 1024 ranks (flat merging would grow it 4x).

use std::time::Instant;

use workloads::fleet_scale::{peak_rss_kib, run_fleet_scale, FleetConfig, MANIFEST_BYTES};

const WORLDS: [usize; 6] = [4, 16, 64, 256, 1024, 4096];

struct Point {
    world_size: usize,
    nodes: usize,
    bytes_read: u64,
    read_mib_s: f64,
    io_virtual_secs: f64,
    reduce_levels: u32,
    reduce_pair_merges: u64,
    reduce_modeled_ns: u64,
    reduce_flat_ns: u64,
    host_wall_ms: f64,
    peak_rss_kib: Option<u64>,
    events: u64,
}

fn measure(world_size: usize) -> Point {
    let cfg = FleetConfig {
        // Node dstat columns are exercised by the gate and the small
        // sizes; above 256 ranks the sampler is pure overhead here.
        dstat: world_size <= 256,
        ..FleetConfig::new(world_size)
    };
    let t = Instant::now();
    let out = run_fleet_scale(&cfg);
    let wall = t.elapsed();
    assert_eq!(out.report.world_size as usize, world_size);
    assert!(out.report.missing_ranks.is_empty());
    assert!(out.bytes_read >= world_size as u64 * cfg.rank_file_bytes + MANIFEST_BYTES);
    Point {
        world_size,
        nodes: out.nodes,
        bytes_read: out.bytes_read,
        read_mib_s: out.aggregate_read_mib_s,
        io_virtual_secs: out.io_virtual_secs,
        reduce_levels: out.reduce.levels,
        reduce_pair_merges: out.reduce.pair_merges,
        reduce_modeled_ns: out.reduce.modeled.as_nanos() as u64,
        reduce_flat_ns: out.reduce.modeled_flat.as_nanos() as u64,
        host_wall_ms: wall.as_secs_f64() * 1e3,
        peak_rss_kib: peak_rss_kib(),
        events: out.stats.event_spawns,
    }
}

fn main() {
    bench::header(
        "Ablation",
        "Fleet scale: 4 -> 4096 ranks, per-rank buses and tree reduction",
    );
    // Scaled CI runs stop at 1024 ranks (the acceptance sizes); a full
    // run (TFD_SCALE=1, the default here) adds the 4096-rank point.
    let full = std::env::var("TFD_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0)
        >= 0.5;
    let worlds: Vec<usize> = WORLDS
        .iter()
        .copied()
        .filter(|&w| full || w <= 1024)
        .collect();
    println!(
        "64 ranks/node, 256 KiB/rank + shared manifest, log axis {} -> {}\n",
        worlds[0],
        worlds[worlds.len() - 1]
    );

    let points: Vec<Point> = worlds.iter().map(|&w| measure(w)).collect();

    println!(
        "{:>7} {:>6} {:>12} {:>12} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "ranks", "nodes", "MiB/s", "reduce ns", "levels", "flat ns", "wall ms", "RSS MiB", "events"
    );
    for p in &points {
        println!(
            "{:>7} {:>6} {:>12.1} {:>12} {:>8} {:>12} {:>12.1} {:>10} {:>10}",
            p.world_size,
            p.nodes,
            p.read_mib_s,
            p.reduce_modeled_ns,
            p.reduce_levels,
            p.reduce_flat_ns,
            p.host_wall_ms,
            p.peak_rss_kib
                .map_or("n/a".to_string(), |k| format!("{:.1}", k as f64 / 1024.0)),
            p.events,
        );
    }

    bench::series(
        "aggregate read bandwidth (log rank axis)",
        &points
            .iter()
            .map(|p| ((p.world_size as f64).log10(), p.read_mib_s))
            .collect::<Vec<_>>(),
        "MiB/s at log10(ranks)",
    );

    let at = |ws: usize| points.iter().find(|p| p.world_size == ws).unwrap();
    let (p64, p256, p1k) = (at(64), at(256), at(1024));

    // 16x the nodes from 64 -> 1024 ranks: >= 0.7x linear bandwidth.
    let linear = p64.read_mib_s * (1024.0 / 64.0);
    let near_linear = p1k.read_mib_s >= 0.7 * linear;
    bench::row(
        "bandwidth at 1024 ranks vs 16x of 64",
        ">= 0.7x linear",
        &format!(
            "{:.0} of {:.0} MiB/s ({:.2}x)",
            p1k.read_mib_s,
            linear,
            p1k.read_mib_s / linear
        ),
        near_linear,
    );
    // Tree reduce: 4x the leaves from 256 -> 1024 costs <= 2x the time.
    let reduce_growth = p1k.reduce_modeled_ns as f64 / p256.reduce_modeled_ns.max(1) as f64;
    let logarithmic = reduce_growth <= 2.0;
    bench::row(
        "reduce time 256 -> 1024 ranks",
        "<= 2x (flat: 4x)",
        &format!(
            "{} -> {} ns ({:.2}x)",
            p256.reduce_modeled_ns, p1k.reduce_modeled_ns, reduce_growth
        ),
        logarithmic,
    );
    let beats_flat = points
        .iter()
        .filter(|p| p.world_size > 1)
        .all(|p| p.reduce_modeled_ns < p.reduce_flat_ns);
    bench::row(
        "tree vs flat merge at every size",
        "tree cheaper",
        &format!(
            "{} ns tree vs {} ns flat at {} ranks",
            p1k.reduce_modeled_ns, p1k.reduce_flat_ns, p1k.world_size
        ),
        beats_flat,
    );

    bench::save_json(
        "ablation_fleet_scale",
        &serde_json::json!({
            "ranks_per_node": 64,
            "rank_file_bytes": 256 << 10,
            "manifest_bytes": MANIFEST_BYTES,
            "points": points.iter().map(|p| serde_json::json!({
                "world_size": p.world_size,
                "nodes": p.nodes,
                "bytes_read": p.bytes_read,
                "aggregate_read_mib_s": p.read_mib_s,
                "io_virtual_secs": p.io_virtual_secs,
                "reduce_levels": p.reduce_levels,
                "reduce_pair_merges": p.reduce_pair_merges,
                "reduce_modeled_ns": p.reduce_modeled_ns,
                "reduce_flat_ns": p.reduce_flat_ns,
                "host_wall_ms": p.host_wall_ms,
                "peak_rss_kib": p.peak_rss_kib,
                "events": p.events,
            })).collect::<Vec<_>>(),
            "bandwidth_1024_vs_linear_64": p1k.read_mib_s / linear,
            "reduce_growth_256_to_1024": reduce_growth,
            "near_linear_bandwidth": near_linear,
            "logarithmic_reduce": logarithmic,
            "tree_beats_flat": beats_flat,
        }),
    );
    assert!(
        near_linear,
        "bandwidth fell below 0.7x linear at 1024 ranks"
    );
    assert!(
        logarithmic,
        "reduce time more than doubled from 256 to 1024 ranks"
    );
    assert!(beats_flat, "tree reduce regressed to flat-merge cost");
}
