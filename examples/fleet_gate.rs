//! The fleet gate: a 256-rank job over the fleet stack — node carriers
//! driving 64 ranks each, one probe bus per rank, the I/O sanitizer
//! registered on every rank's bus, and the log-depth tree reduction on
//! the same calendar. Fails (exit 1) on any sanitizer
//! finding, a missing rank, or a reduce that regressed to the flat-merge
//! cost. CI runs this binary in the `fleet` job.
//!
//! ```text
//! cargo run --release --example fleet_gate
//! ```

use tf_darshan::workloads::run_fleet_gate;

fn main() {
    const WORLD_SIZE: usize = 256;
    println!("running {WORLD_SIZE}-rank fleet gate under iosan ...");
    let out = run_fleet_gate(WORLD_SIZE);

    println!(
        "  job: {} ranks on {} nodes, {} bytes read, {:.1} MiB/s aggregate",
        out.report.world_size, out.nodes, out.bytes_read, out.aggregate_read_mib_s
    );
    println!(
        "  reduce: {} leaves, {} levels, {} pair merges, modeled {:?} (flat would be {:?})",
        out.reduce.leaves,
        out.reduce.levels,
        out.reduce.pair_merges,
        out.reduce.modeled,
        out.reduce.modeled_flat
    );
    let san = out.sanitizer.as_ref().expect("gate runs sanitized");
    println!(
        "  sanitizer: {} events analyzed, {} finding(s)",
        san.events_analyzed,
        san.findings.len()
    );
    for f in &san.findings {
        println!(
            "    {:?}/{:?} {}: {}",
            f.severity, f.category, f.file, f.message
        );
    }

    let mut failed = false;
    if !san.findings.is_empty() {
        println!("FAIL: sanitizer findings on a barrier-ordered fleet job");
        failed = true;
    }
    if out.report.world_size as usize != WORLD_SIZE {
        println!(
            "FAIL: job report saw {} ranks, expected {WORLD_SIZE}",
            out.report.world_size
        );
        failed = true;
    }
    if !out.report.missing_ranks.is_empty() {
        println!("FAIL: missing ranks: {:?}", out.report.missing_ranks);
        failed = true;
    }
    if out.reduce.modeled >= out.reduce.modeled_flat {
        println!(
            "FAIL: tree reduce ({:?}) not cheaper than the flat merge ({:?})",
            out.reduce.modeled, out.reduce.modeled_flat
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("fleet gate: clean");
}
