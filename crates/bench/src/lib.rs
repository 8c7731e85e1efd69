#![forbid(unsafe_code)]
//! Shared plumbing for the figure/table bench targets: paper-vs-measured
//! rows, ASCII series, scale selection, and JSON result persistence.

use std::path::PathBuf;

use workloads::Scale;

/// Scale factor for the experiment benches. Figures run scaled down by
/// default so `cargo bench` finishes in minutes; set `TFD_SCALE=1.0` for
/// paper-size runs (bandwidths and ratios are intensive quantities and do
/// not depend on scale beyond noise).
pub fn scale(default: f64) -> Scale {
    let f = std::env::var("TFD_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(default);
    Scale::of(f.clamp(0.01, 1.0))
}

/// Print the standard header for a figure bench.
pub fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// One paper-vs-measured comparison row; returns `ok`, so a bench that
/// gates on its rows can collect them.
pub fn row(metric: &str, paper: &str, measured: &str, ok: bool) -> bool {
    println!(
        "{:<44} paper: {:>14}   measured: {:>14}   [{}]",
        metric,
        paper,
        measured,
        if ok { "ok" } else { "DEVIATES" }
    );
    ok
}

/// Render a numeric series as a compact ASCII plot (one line per bucket).
pub fn series(name: &str, points: &[(f64, f64)], unit: &str) {
    println!("-- {name} ({unit}) --");
    if points.is_empty() {
        println!("   (no data)");
        return;
    }
    let max = points.iter().map(|p| p.1).fold(0.0f64, f64::max).max(1e-9);
    for (x, y) in points {
        let bar = "#".repeat(((y / max) * 48.0).round() as usize);
        println!("{x:>9.1}s {y:>10.2} {bar}");
    }
}

/// Persist a JSON value under `results/<name>.json` (workspace root) and
/// print that workspace-relative path, so bench stdout does not depend on
/// where the checkout lives. Panics with the path on any I/O error: a
/// result that silently fails to save would let a `git diff` of the
/// committed file pass without the bench having written it.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let rel = format!("results/{name}.json");
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop(); // crates/
    path.pop(); // workspace root
    path.push(&rel);
    let dir = path.parent().expect("results/ has a parent");
    if let Err(e) = std::fs::create_dir_all(dir) {
        panic!("cannot create {}: {e}", dir.display());
    }
    let text = serde_json::to_string_pretty(value).expect("JSON value serializes");
    if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
        panic!("cannot write {}: {e}", path.display());
    }
    println!("(results saved to {rel})");
}

/// Relative deviation check helper.
pub fn close(measured: f64, paper: f64, rel_tol: f64) -> bool {
    if paper == 0.0 {
        return measured.abs() < 1e-9;
    }
    ((measured - paper) / paper).abs() <= rel_tol
}

/// MiB/s pretty print.
pub fn mibps(v: f64) -> String {
    format!("{v:.2} MiB/s")
}

/// Percentage pretty print.
pub fn pct(v: f64) -> String {
    format!("{v:.2}%")
}
