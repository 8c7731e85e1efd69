//! `DarshanTracer`: the TensorFlow-profiler plugin (paper Fig. 1's
//! "DarshanTracer" box) and its factory.
//!
//! Lifecycle per profiling session:
//! 1. the TensorFlow runtime creates the tracer via
//!    [`DarshanTracerFactory`] → the wrapper attaches (first time) and
//!    takes the **start** snapshot;
//! 2. `stop()` takes the **stop** snapshot;
//! 3. `collect()` diffs the snapshots, runs the in-situ analysis, charges
//!    the analysis/export costs, and writes both the statistics and the
//!    per-file DXT timelines into the session's `XSpace`.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use darshan_sim::{DxtOp, DxtSegment, Names};
use parking_lot::Mutex;
use simrt::sleep;
use tfsim::{ProfilerOptions, TfRuntime, Tracer, TracerFactory, XEvent, XLine, XPlane, XSpace};

use crate::analysis::{analyze, diff, per_file};
use crate::report::TfDarshanReport;
use crate::wrapper::TfDarshanWrapper;

/// Plane name of the Darshan statistics.
pub const ANALYSIS_PLANE: &str = "/darshan:analysis";
/// Plane name of the per-file DXT timelines (TraceViewer lines, Fig. 8/10).
pub const DXT_PLANE: &str = "/darshan:POSIX";

/// Absolute virtual nanoseconds of a Darshan-relative instant.
fn abs_ns(init_ns: u64, secs: f64) -> u64 {
    init_ns + (secs * 1e9) as u64
}

/// Write a window's DXT segments into `plane`: one TraceViewer line per
/// file and rank, each segment one `pread`/`pwrite` event carrying its
/// offset and length. `names` maps record ids to paths; `init_ns` is the
/// Darshan runtime's initialization instant, the zero of segment times.
///
/// Lines are found through an index keyed by `(rec_id, rank)` whose line
/// name is built once, on first sight, so the cost is linear in segments
/// plus files. A segment lands on the first line of its name, as
/// [`tfsim::XPlane::line_mut`] would route it, including lines already in
/// `plane`: names are indexed by their hash, checked against the line's
/// name, and a (vanishingly rare) hash clash falls back to a scan.
pub fn export_dxt(plane: &mut XPlane, dxt: &[(u64, DxtSegment)], names: &Names, init_ns: u64) {
    let hasher = RandomState::new();
    let mut by_name: HashMap<u64, usize> = HashMap::with_capacity(plane.lines.len());
    for (i, line) in plane.lines.iter().enumerate() {
        by_name.entry(hasher.hash_one(&line.name)).or_insert(i);
    }
    let mut by_key: HashMap<(u64, u32), usize> = HashMap::new();
    for (rec, seg) in dxt {
        let line = *by_key.entry((*rec, seg.rank)).or_insert_with(|| {
            let mut file = names
                .get(*rec)
                .map_or_else(|| format!("<{rec:#x}>"), |p| p.to_string());
            // Rank lane: in a distributed job each rank's segments get
            // their own TraceViewer line per file (parallel Darshan's DXT
            // records always carry the rank; rank 0 keeps the bare file
            // name so single-process traces are unchanged).
            if seg.rank != 0 {
                file = format!("{file} [rank {}]", seg.rank);
            }
            let lines = &mut plane.lines;
            let first = *by_name.entry(hasher.hash_one(&file)).or_insert(lines.len());
            match lines.get(first) {
                None => push_line(lines, file),
                Some(line) if line.name == file => first,
                // A hash clash: find the name the slow way.
                Some(_) => lines
                    .iter()
                    .position(|l| l.name == file)
                    .unwrap_or_else(|| push_line(lines, file)),
            }
        });
        let mut ev = XEvent::new(
            match seg.op {
                DxtOp::Read => "pread",
                DxtOp::Write => "pwrite",
            },
            abs_ns(init_ns, seg.start),
            ((seg.end - seg.start).max(0.0) * 1e9) as u64,
        )
        .with_stat("offset", seg.offset)
        .with_stat("length", seg.length);
        if seg.rank != 0 {
            ev = ev.with_stat("rank", seg.rank);
        }
        plane.lines[line].events.push(ev);
    }
}

/// Append an empty line named `name` and return its index.
fn push_line(lines: &mut Vec<XLine>, name: String) -> usize {
    lines.push(XLine {
        name,
        events: Vec::new(),
    });
    lines.len() - 1
}

/// The tracer created per profiling session.
pub struct DarshanTracer {
    wrapper: Arc<TfDarshanWrapper>,
    /// Report of the last collected session (shared with the factory).
    report_slot: Arc<Mutex<Option<TfDarshanReport>>>,
}

impl Tracer for DarshanTracer {
    fn name(&self) -> &str {
        "darshan"
    }

    fn stop(&self) {
        self.wrapper.mark_stop();
    }

    fn collect(&self, space: &mut XSpace) {
        let Some((start, stop)) = self.wrapper.session_snapshots() else {
            return;
        };
        let cfg = self.wrapper.config().clone();
        let d = diff(&start, &stop);
        if !cfg.diff_cost_per_record.is_zero() && !d.posix.is_empty() {
            sleep(cfg.diff_cost_per_record * d.posix.len() as u32);
        }
        // Bandwidth-only mode (paper §VII: "detailed timeline tracing can
        // be optionally discarded"): skip the DXT walk and the per-record
        // in-situ analysis; only the counter diff is paid for.
        let dxt = if cfg.full_export {
            self.wrapper.session_dxt()
        } else {
            Vec::new()
        };
        if cfg.full_export && !cfg.analyze_cost_per_record.is_zero() && !d.posix.is_empty() {
            sleep(cfg.analyze_cost_per_record * d.posix.len() as u32);
        }
        let (io, stdio) = analyze(&d, &dxt);
        let files = per_file(&d);
        let report = TfDarshanReport {
            window: d.window,
            io: io.clone(),
            stdio,
            files,
            sanitizer: None,
            scheduler: None,
            explore: None,
        };

        // Statistics plane: one summary event carrying the headline stats.
        let init = self.wrapper.library().runtime().init_time();
        {
            let plane = space.plane_mut(ANALYSIS_PLANE);
            let line = plane.line_mut("summary");
            let mut ev = XEvent::new(
                "tf-darshan",
                abs_ns(init.as_nanos(), d.window.0),
                ((d.window.1 - d.window.0).max(0.0) * 1e9) as u64,
            )
            .with_stat(
                "posix_read_bw_mibps",
                format!("{:.3}", io.read_bandwidth_mibps),
            )
            .with_stat("posix_opens", io.opens)
            .with_stat("posix_reads", io.reads)
            .with_stat("posix_writes", io.writes)
            .with_stat("zero_reads", io.zero_reads)
            .with_stat("seq_reads", io.seq_reads)
            .with_stat("consec_reads", io.consec_reads)
            .with_stat("bytes_read", io.bytes_read)
            .with_stat("files_opened", io.files_opened);
            // Only a window whose DXT hit `dxt_max_segments` carries the
            // marker, so complete windows keep their exact bytes.
            if stop.dxt_truncated {
                ev = ev.with_stat("dxt_truncated", true);
            }
            line.events.push(ev);
        }

        // DXT timelines: one line per file, as TraceViewer shows them.
        if cfg.full_export && !dxt.is_empty() {
            if !cfg.export_cost_per_segment.is_zero() {
                sleep(cfg.export_cost_per_segment * dxt.len() as u32);
            }
            export_dxt(space.plane_mut(DXT_PLANE), &dxt, &d.names, init.as_nanos());
        }

        *self.report_slot.lock() = Some(report);
    }
}

/// Registers tf-Darshan with the TensorFlow profiler. Holds the wrapper;
/// attachment happens lazily at the first session (runtime attachment —
/// Table I "Runtime start/stop: yes").
pub struct DarshanTracerFactory {
    wrapper: Arc<TfDarshanWrapper>,
    report_slot: Arc<Mutex<Option<TfDarshanReport>>>,
}

impl DarshanTracerFactory {
    /// Create the factory and register it with the runtime. Returns the
    /// factory handle, which doubles as the report access point.
    pub fn register(rt: &TfRuntime, wrapper: Arc<TfDarshanWrapper>) -> Arc<Self> {
        let f = Arc::new(DarshanTracerFactory {
            wrapper,
            report_slot: Arc::new(Mutex::new(None)),
        });
        rt.register_tracer_factory(f.clone());
        f
    }

    /// The wrapper.
    pub fn wrapper(&self) -> &Arc<TfDarshanWrapper> {
        &self.wrapper
    }

    /// The report of the most recently collected session.
    pub fn last_report(&self) -> Option<TfDarshanReport> {
        self.report_slot.lock().clone()
    }
}

impl TracerFactory for DarshanTracerFactory {
    fn create(&self, _rt: &Arc<TfRuntime>, _options: &ProfilerOptions) -> Option<Arc<dyn Tracer>> {
        if self.wrapper.mark_start().is_err() {
            return None;
        }
        Some(Arc::new(DarshanTracer {
            wrapper: self.wrapper.clone(),
            report_slot: self.report_slot.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(rank: u32, op: DxtOp, start: f64) -> DxtSegment {
        DxtSegment {
            op,
            offset: (start * 1e6) as u64,
            length: 4096,
            start,
            end: start + 1e-4,
            rank,
        }
    }

    /// The by-name export `export_dxt` replaces: one `line_mut` lookup per
    /// segment.
    fn by_name(plane: &mut XPlane, dxt: &[(u64, DxtSegment)], names: &Names) {
        for (rec, s) in dxt {
            let mut file = names
                .get(*rec)
                .map_or_else(|| format!("<{rec:#x}>"), |p| p.to_string());
            if s.rank != 0 {
                file = format!("{file} [rank {}]", s.rank);
            }
            let mut ev = XEvent::new(
                if s.op == DxtOp::Read {
                    "pread"
                } else {
                    "pwrite"
                },
                abs_ns(7, s.start),
                ((s.end - s.start).max(0.0) * 1e9) as u64,
            )
            .with_stat("offset", s.offset)
            .with_stat("length", s.length);
            if s.rank != 0 {
                ev = ev.with_stat("rank", s.rank);
            }
            plane.line_mut(&file).events.push(ev);
        }
    }

    #[test]
    fn export_dxt_routes_segments_like_a_by_name_lookup() {
        // Lines already in the plane, one name twice (the first wins).
        let mut plane = XPlane::default();
        for name in ["/a", "/b [rank 1]", "/a"] {
            plane.lines.push(XLine {
                name: name.into(),
                events: vec![XEvent::new("old", 1, 1)],
            });
        }
        // Record 5's path reads like record 4's missing-name fallback.
        let names: Names = [(1, "/a"), (2, "/b"), (3, "/c"), (5, "<0x4>")]
            .into_iter()
            .collect();
        let dxt = vec![
            (1, seg(0, DxtOp::Read, 0.1)),
            (2, seg(1, DxtOp::Read, 0.2)),
            (3, seg(0, DxtOp::Write, 0.3)),
            (4, seg(0, DxtOp::Read, 0.4)),
            (2, seg(0, DxtOp::Read, 0.5)),
            (1, seg(2, DxtOp::Read, 0.6)),
            (5, seg(0, DxtOp::Read, 0.7)),
            (1, seg(0, DxtOp::Read, 0.8)),
            (3, seg(0, DxtOp::Read, 0.9)),
        ];
        let mut want = plane.clone();
        by_name(&mut want, &dxt, &names);
        export_dxt(&mut plane, &dxt, &names, 7);
        assert_eq!(plane, want);
        assert_eq!(plane.lines.len(), 7, "records 4 and 5 share a line");
        assert_eq!(plane.lines[0].events.len(), 3, "both /a segments");
        assert_eq!(plane.lines[2].events.len(), 1, "the duplicate is untouched");
    }
}
