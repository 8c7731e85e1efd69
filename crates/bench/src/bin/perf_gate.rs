//! CI perf-regression gate for the probe backplane.
//!
//! Compares the most recent `results/ablation_probe_overhead.json` (written
//! by `cargo bench -p bench --bench ablation_probe_overhead [-- --smoke]`)
//! against the committed `results/perf_baseline.json`. Any gated metric more
//! than `PERF_GATE_TOLERANCE` (default 25%) above its baseline fails the
//! build; the absolute emission-overhead budget (< 100 ns, for one process
//! and for 128 processes on one carrier) is enforced unconditionally.
//!
//! Usage: `cargo run -p bench --bin perf_gate [measured.json] [baseline.json]`
//!
//! `--fleet` switches to the fleet-scaling gate: it reads
//! `results/ablation_fleet_scale.json` (written by `cargo bench -p bench
//! --bench ablation_fleet_scale`) and enforces the scaling claims —
//! tree-reduce time growing ≤ 2× from 256 to 1024 ranks, aggregate
//! bandwidth at 1024 ranks ≥ 0.7× the linear extrapolation from 64, and
//! the modeled 1024-rank reduce time within tolerance of the
//! `fleet_reduce_modeled_ns_1024` baseline. These are virtual-time
//! quantities, so unlike the host-time probe metrics they are
//! machine-independent and regress only when the model regresses.
//!
//! To re-baseline after an intentional change, run the full (non-smoke)
//! bench on a quiet machine and copy the refreshed metrics into
//! `results/perf_baseline.json` (see PERF_BASELINE.md).

use std::path::PathBuf;
use std::process::ExitCode;

/// Metrics compared ratio-wise against the baseline. Host-time figures vary
/// across machines, so the baseline should be refreshed on the reference
/// runner (PERF_BASELINE.md records which one).
const GATED: &[&str] = &["ns_per_op_0_sinks", "ns_per_op_1_sink", "ns_per_op_4_sinks"];

/// Hard ceiling on the per-event emission overhead, in host nanoseconds.
const EMISSION_BUDGET_NS: f64 = 100.0;

/// Emission overheads held to [`EMISSION_BUDGET_NS`]: one process, and 128
/// processes visited in turn from one carrier thread.
const BUDGETED: &[&str] = &["emission_overhead_ns", "emission_overhead_128_procs_ns"];

fn results_path(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.push("results");
    p.push(name);
    p
}

fn load(path: &PathBuf) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("bad JSON in {}: {e}", path.display()))
}

fn metric(v: &serde_json::Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(serde_json::Value::as_f64)
        .ok_or_else(|| format!("missing numeric metric '{key}'"))
}

/// Ceiling on tree-reduce time growth over the 4× rank step 256 → 1024
/// (a flat merge grows 4×; the tree adds two levels).
const FLEET_REDUCE_GROWTH_LIMIT: f64 = 2.0;
/// Floor on 1024-rank aggregate bandwidth as a fraction of the linear
/// extrapolation from 64 ranks.
const FLEET_LINEAR_FRACTION: f64 = 0.7;

/// The `--fleet` gate over `results/ablation_fleet_scale.json`.
fn fleet_gate(mut args: impl Iterator<Item = String>) -> ExitCode {
    let measured_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| results_path("ablation_fleet_scale.json"));
    let baseline_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| results_path("perf_baseline.json"));
    let tolerance = std::env::var("PERF_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.25);
    let (measured, baseline) = match (load(&measured_path), load(&baseline_path)) {
        (Ok(m), Ok(b)) => (m, b),
        (m, b) => {
            for err in [m.err(), b.err()].into_iter().flatten() {
                eprintln!("perf_gate: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perf gate (fleet): {} vs baseline {}",
        measured_path.display(),
        baseline_path.display()
    );

    fn check(name: &str, got: f64, limit: f64, upper: bool, unit: &str) -> bool {
        let ok = if upper { got <= limit } else { got >= limit };
        println!(
            "  {name:<32} {got:>10.3} {unit:<6} {} {limit:>10.3}   [{}]",
            if upper { "limit" } else { "floor" },
            if ok { "ok" } else { "REGRESSED" }
        );
        !ok
    }
    let mut failed = false;
    match metric(&measured, "reduce_growth_256_to_1024") {
        Ok(g) => {
            failed |= check(
                "reduce growth 256 -> 1024",
                g,
                FLEET_REDUCE_GROWTH_LIMIT,
                true,
                "x",
            );
        }
        Err(e) => {
            eprintln!("perf_gate: {e}");
            failed = true;
        }
    }
    match metric(&measured, "bandwidth_1024_vs_linear_64") {
        Ok(f) => {
            failed |= check(
                "bandwidth at 1024 vs linear",
                f,
                FLEET_LINEAR_FRACTION,
                false,
                "x",
            );
        }
        Err(e) => {
            eprintln!("perf_gate: {e}");
            failed = true;
        }
    }
    // The modeled 1024-rank reduce time against the committed baseline:
    // deterministic virtual time, so any growth is a model regression.
    let modeled_1024 = measured
        .get("points")
        .and_then(|p| p.as_array())
        .and_then(|pts| {
            pts.iter()
                .find(|p| p.get("world_size").and_then(|w| w.as_u64()) == Some(1024))
        })
        .and_then(|p| p.get("reduce_modeled_ns"))
        .and_then(serde_json::Value::as_f64);
    match (
        modeled_1024,
        metric(&baseline, "fleet_reduce_modeled_ns_1024"),
    ) {
        (Some(got), Ok(base)) => {
            failed |= check(
                "reduce modeled ns at 1024 ranks",
                got,
                base * (1.0 + tolerance),
                true,
                "ns",
            );
        }
        (got, base) => {
            if got.is_none() {
                eprintln!(
                    "perf_gate: no 1024-rank point in {}",
                    measured_path.display()
                );
            }
            if let Err(e) = base {
                eprintln!("perf_gate: {e}");
            }
            failed = true;
        }
    }

    if failed {
        eprintln!("perf_gate: FAIL — see PERF_BASELINE.md for the re-baselining policy");
        ExitCode::FAILURE
    } else {
        println!("perf_gate: PASS");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--fleet") {
        args.next();
        return fleet_gate(args);
    }
    let measured_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| results_path("ablation_probe_overhead.json"));
    let baseline_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| results_path("perf_baseline.json"));
    let tolerance = std::env::var("PERF_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.25);

    let (measured, baseline) = match (load(&measured_path), load(&baseline_path)) {
        (Ok(m), Ok(b)) => (m, b),
        (m, b) => {
            for err in [m.err(), b.err()].into_iter().flatten() {
                eprintln!("perf_gate: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    println!(
        "perf gate: {} vs baseline {} (tolerance +{:.0}%)",
        measured_path.display(),
        baseline_path.display(),
        tolerance * 100.0
    );
    let mut failed = false;
    for key in GATED {
        let (got, base) = match (metric(&measured, key), metric(&baseline, key)) {
            (Ok(g), Ok(b)) => (g, b),
            (g, b) => {
                for err in [g.err(), b.err()].into_iter().flatten() {
                    eprintln!("perf_gate: {err}");
                }
                failed = true;
                continue;
            }
        };
        let limit = base * (1.0 + tolerance);
        let ok = got <= limit;
        println!(
            "  {key:<30} {got:>8.1} ns/op   baseline {base:>8.1}   limit {limit:>8.1}   [{}]",
            if ok { "ok" } else { "REGRESSED" }
        );
        failed |= !ok;
    }
    for key in BUDGETED {
        match metric(&measured, key) {
            Ok(spine) => {
                let ok = spine < EMISSION_BUDGET_NS;
                println!(
                    "  {key:<30} {spine:>8.1} ns/op   budget   {EMISSION_BUDGET_NS:>8.1}              [{}]",
                    if ok { "ok" } else { "OVER BUDGET" }
                );
                failed |= !ok;
            }
            Err(err) => {
                eprintln!("perf_gate: {err}");
                failed = true;
            }
        }
    }

    if failed {
        eprintln!("perf_gate: FAIL — see PERF_BASELINE.md for the re-baselining policy");
        ExitCode::FAILURE
    } else {
        println!("perf_gate: PASS");
        ExitCode::SUCCESS
    }
}
