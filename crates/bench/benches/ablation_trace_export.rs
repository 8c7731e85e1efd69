//! Ablation — DXT trace export cost per segment as a window holds more
//! files.
//!
//! The per-file DXT timelines in TraceViewer (paper Figs. 8 and 10) are
//! written by `tfdarshan::export_dxt` at every profiler stop. ImageNet-style
//! inputs are many small files, so one window can hold thousands of
//! lines. Export must then cost the same per segment however many files
//! the window holds: a by-name line lookup per segment
//! (`XPlane::line_mut`) makes it grow linearly with the files instead.
//!
//! The runtime holds a 10k-file dataset's name records, as Darshan keeps
//! every file it has seen. Each trial walks the dataset in consecutive
//! windows of 320 to 10k files with the Fig. 8 shape (one whole-file read
//! plus a trailing zero-length read per file), the way an epoch's
//! profiling windows do, and times `export_dxt` into a fresh plane per
//! window. Every trial exports the same number of segments and keeps its
//! planes until the round ends, so each window size writes the same
//! volume of fresh output and touches the same name records; what can
//! still grow is export's own per-window work. The by-name lookup runs
//! once per window size beside it as the reference arm.
//!
//! Acceptance: `export_dxt`'s host time per segment grows at most 1.3×
//! from the smallest to the largest window; the bench exits 1 otherwise.

use std::time::Instant;

use darshan_sim::{DxtOp, DxtSegment, Names};
use tfsim::{XEvent, XPlane};

/// Files in the dataset, and name records in the runtime.
const DATASET: usize = 10_000;
const FILES: [usize; 4] = [320, 1_000, 3_200, 10_000];
/// Segments exported per trial, whatever the window size.
const SEGMENTS_PER_TRIAL: usize = 40_000;
const TRIALS: usize = 9;
const MAX_GROWTH: f64 = 1.3;

type Window = Vec<(u64, DxtSegment)>;

/// The dataset's record ids and name records.
fn dataset() -> (Vec<u64>, Names) {
    let ids: Vec<u64> = (0..DATASET as u64)
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))
        .collect();
    let names = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, format!("/lustre/imagenet/train/n{i:08}.JPEG")))
        .collect();
    (ids, names)
}

/// One trial's windows of `files` files each: consecutive chunks of the
/// dataset, each file read whole and then probed with a zero-length read,
/// in start order.
fn windows(ids: &[u64], files: usize) -> Vec<Window> {
    let count = SEGMENTS_PER_TRIAL.div_ceil(2 * files);
    (0..count)
        .map(|w| {
            let mut dxt = Vec::with_capacity(2 * files);
            for k in 0..files {
                let i = (w * files + k) % ids.len();
                let t = k as f64 * 1e-4;
                let size = 88_000 + (i as u64 * 7_919) % 40_000;
                for (offset, length, start) in [(0, size, t), (size, 0, t + 5e-5)] {
                    dxt.push((
                        ids[i],
                        DxtSegment {
                            op: DxtOp::Read,
                            offset,
                            length,
                            start,
                            end: start + 4e-5,
                            rank: 0,
                        },
                    ));
                }
            }
            dxt
        })
        .collect()
}

/// The reference arm: one by-name line lookup per segment.
fn export_by_name(plane: &mut XPlane, dxt: &[(u64, DxtSegment)], names: &Names) {
    for (rec, seg) in dxt {
        let ev = XEvent::new("pread", (seg.start * 1e9) as u64, 40_000)
            .with_stat("offset", seg.offset)
            .with_stat("length", seg.length);
        let name = names.get(*rec).expect("every dataset file is named");
        plane.line_mut(&name).events.push(ev);
    }
}

/// Host nanoseconds per segment of exporting each of `windows` into a
/// fresh plane. Only the exports are timed; the planes go to `keep`.
fn trial(
    windows: &[Window],
    names: &Names,
    export: impl Fn(&mut XPlane, &[(u64, DxtSegment)], &Names),
    keep: &mut Vec<XPlane>,
) -> f64 {
    let mut planes: Vec<XPlane> = windows.iter().map(|_| XPlane::default()).collect();
    let t = Instant::now();
    for (plane, dxt) in planes.iter_mut().zip(windows) {
        export(plane, dxt, names);
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(2 * planes[0].lines.len(), windows[0].len());
    keep.extend(planes);
    ns / windows.iter().map(Vec::len).sum::<usize>() as f64
}

/// Median of a sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    bench::header(
        "Ablation",
        "DXT trace export: host time per segment vs files per window",
    );
    let (ids, names) = dataset();
    let sizes: Vec<Vec<Window>> = FILES.iter().map(|&f| windows(&ids, f)).collect();
    // Trials of all window sizes interleave, each round starting at the
    // next size, so host drift and heap state hit every size alike.
    let mut ns = vec![Vec::new(); FILES.len()];
    for round in 0..TRIALS {
        let mut keep = Vec::new();
        for k in 0..FILES.len() {
            let i = (round + k) % FILES.len();
            let t = trial(
                &sizes[i],
                &names,
                |p, d, n| tfdarshan::export_dxt(p, d, n, 0),
                &mut keep,
            );
            ns[i].push(t);
        }
    }
    println!(
        "{:>8} {:>9} {:>18} {:>18}",
        "files", "segments", "export_dxt ns/seg", "by-name ns/seg"
    );
    let mut rows = Vec::new();
    for ((files, windows), ns) in FILES.iter().zip(&sizes).zip(ns) {
        let indexed = median(ns);
        let by_name = trial(&windows[..1], &names, export_by_name, &mut Vec::new());
        let segments = windows[0].len();
        println!("{files:>8} {segments:>9} {indexed:>18.1} {by_name:>18.1}");
        rows.push(serde_json::json!({
            "files": files,
            "segments": segments,
            "export_dxt_ns_per_segment": indexed,
            "by_name_ns_per_segment": by_name,
        }));
    }
    let ratio =
        |key: &str| rows[rows.len() - 1][key].as_f64().unwrap() / rows[0][key].as_f64().unwrap();
    let growth = ratio("export_dxt_ns_per_segment");
    let by_name_growth = ratio("by_name_ns_per_segment");
    let ok = growth <= MAX_GROWTH;
    println!();
    bench::row(
        "export_dxt ns/segment, 10k vs 320 files",
        &format!("<= {MAX_GROWTH}x"),
        &format!("{growth:.2}x"),
        ok,
    );
    bench::row(
        "by-name lookup ns/segment, 10k vs 320 files",
        "(grows with files)",
        &format!("{by_name_growth:.1}x"),
        true,
    );
    bench::save_json(
        "ablation_trace_export",
        &serde_json::json!({
            "rows": rows,
            "export_dxt_growth": growth,
            "by_name_growth": by_name_growth,
            "max_growth": MAX_GROWTH,
        }),
    );
    if !ok {
        eprintln!(
            "export_dxt time per segment grew {growth:.2}x across the sweep (bound {MAX_GROWTH}x)"
        );
        std::process::exit(1);
    }
}
