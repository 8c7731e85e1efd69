//! Ablation — distributed staging over mpi-sim (the ROADMAP item PR 5
//! closes): 4 ranks with imbalanced shards over one Greendog machine,
//! caches dropped at every epoch boundary. Three modes: no staging, one
//! uncoordinated classic daemon per rank at `budget / N` (the naive port,
//! which races its peers for the shared fast tier and stages roughly one
//! rank's share in total), and the fused `PrefetchDaemon::spawn_job` (per-rank
//! heat fused by allreduce, hash ownership, one job budget partitioned by
//! fused heat). Expected ordering: fused ≥ local ≥ none aggregate read
//! bandwidth — the acceptance artifact of the rank-as-first-class PR. Exits
//! 1 when either row deviates, so CI can gate on it.

use workloads::distributed_ablation::{run_all, DistributedAblationConfig};

fn main() {
    bench::header(
        "Ablation",
        "Distributed staging at 4 ranks: none vs per-rank local budgets vs fused job budget",
    );
    let cfg = DistributedAblationConfig::default();
    let runs = run_all(&cfg);
    let base = runs[0].read_mibps;

    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "mode", "bandwidth", "gain", "wall (s)", "staged MB", "promoted"
    );
    let mut out = Vec::new();
    for r in &runs {
        let gain = (r.read_mibps - base) / base * 100.0;
        println!(
            "{:>8} {:>12} {:>+9.1}% {:>10.2} {:>10.1} {:>10}",
            r.mode.label(),
            bench::mibps(r.read_mibps),
            gain,
            r.wall_s,
            r.staged_bytes as f64 / 1e6,
            r.promoted_files,
        );
        out.push(serde_json::json!({
            "mode": r.mode.label(),
            "world_size": cfg.world_size,
            "bandwidth_mibps": r.read_mibps,
            "gain_pct": gain,
            "wall_s": r.wall_s,
            "bytes_read": r.bytes_read,
            "staged_bytes": r.staged_bytes,
            "promoted_files": r.promoted_files,
        }));
    }

    let bw: Vec<f64> = runs.iter().map(|r| r.read_mibps).collect();
    let ok_order = bw[2] >= bw[1] && bw[1] >= bw[0];
    bench::row(
        "fused ≥ local ≥ none (4 ranks)",
        "yes",
        &format!("{:.0}/{:.0}/{:.0} MiB/s", bw[2], bw[1], bw[0]),
        ok_order,
    );
    let ok_race = runs[2].staged_bytes > runs[1].staged_bytes;
    bench::row(
        "fused escapes the budget race",
        "staged > local",
        &format!(
            "{:.1} vs {:.1} MB",
            runs[2].staged_bytes as f64 / 1e6,
            runs[1].staged_bytes as f64 / 1e6
        ),
        ok_race,
    );
    bench::save_json("ablation_distributed_prefetch", &serde_json::json!(out));

    if !(ok_order && ok_race) {
        std::process::exit(1);
    }
}
