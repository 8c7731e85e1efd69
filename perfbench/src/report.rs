//! The metric sets every workload prints: end-to-end with `--trace 0`,
//! per-layer with `--trace 1`. Names and units live here only.

use crate::stats::{median, quantile};
use crate::Checks;

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, from untraced samples. Every host time here is
/// already scaled to the reference machine speed (see `calib`).
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Peak RSS once the first sample finished.
    pub peak_rss_mb: f64,
    pub step_ms: Vec<f64>,
    pub bare_step_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub posix_read_mibps: f64,
    pub scrape_ms: Vec<f64>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            m("setup_s", median(&self.setup_s), "s"),
            m("step_ms_p50", median(&self.step_ms), "ms"),
            m("step_ms_p90", quantile(&self.step_ms, 0.9), "ms"),
            m("bare_step_ms_p50", median(&self.bare_step_ms), "ms"),
            m("report_ms_p50", median(&self.report_ms), "ms"),
            m("report_ms_p90", quantile(&self.report_ms, 0.9), "ms"),
            m("peak_rss_mb", self.peak_rss_mb, "MiB"),
            m("posix_read_mibps", self.posix_read_mibps, "MiB/s"),
            m("scrape_ms_p50", median(&self.scrape_ms), "ms"),
        ]
    }
}

/// Host times of one sample's windows, scaled to the reference machine
/// speed window by window.
#[derive(Default)]
pub struct Scaled {
    pub step_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub scrape_ms: Vec<f64>,
}

impl Scaled {
    /// Scale one sample: `factors` has one entry per window, each window
    /// spans `steps_per_window` steps; reports and scrapes come one per
    /// window (none for bare samples).
    pub fn new(
        factors: &[f64],
        steps_per_window: usize,
        step_ms: &[f64],
        report_ms: &[f64],
        scrape_ms: &[f64],
    ) -> Self {
        let per_window =
            |v: &[f64]| -> Vec<f64> { v.iter().zip(factors).map(|(x, f)| x * f).collect() };
        Scaled {
            step_ms: step_ms
                .iter()
                .enumerate()
                .map(|(i, ms)| ms * factors[i / steps_per_window])
                .collect(),
            report_ms: per_window(report_ms),
            scrape_ms: per_window(scrape_ms),
        }
    }
}

/// Per-layer metrics, from traced samples. Times are unscaled host medians;
/// counts come from one sample (every sample of a seed repeats them).
#[derive(Default)]
pub struct Layers {
    pub switches: u64,
    pub event_polls: u64,
    pub run_host_s: f64,
    pub read_file_ms: Vec<f64>,
    pub read_file_bare_ms: Vec<f64>,
    pub posix_ops: u64,
    pub probe_events: u64,
    pub cache_hit_ratio: f64,
    pub hdd_read_mib: f64,
    pub optane_read_mib: f64,
    pub ssd_write_mib: f64,
    pub snapshot_ms: Vec<f64>,
    pub posix_records: u64,
    pub stdio_records: u64,
    pub dxt_segments: u64,
    pub diff_ms: Vec<f64>,
    pub session_dxt_ms: Vec<f64>,
    pub analyze_ms: Vec<f64>,
    pub export_ms: Vec<f64>,
    /// Traced report call (per window) and the p50 sum of its timed parts.
    pub report_ms: Vec<f64>,
    pub report_parts_ms: f64,
    pub tree_reduce_ms: Vec<f64>,
    pub tree_levels: u64,
    pub pair_merges: u64,
    pub mark_stop_ms: Vec<f64>,
    pub wire_encode_ms: Vec<f64>,
    pub wire_decode_ms: Vec<f64>,
    pub wire_bytes: Vec<f64>,
    pub profiler_start_ms: Vec<f64>,
    pub promoted_files: u64,
    pub promoted_mib: f64,
    pub evicted_files: u64,
    pub failed_promotions: u64,
    pub useful_ratio: f64,
    pub ingest_ms: Vec<f64>,
    /// Diffs decoded and ingested per host second, per window round.
    pub ingest_per_s: Vec<f64>,
    pub ingested: u64,
    pub dropped: u64,
    pub offered: u64,
    pub metrics_kib: f64,
    /// Step (or window) host times with and without spans, and bare.
    pub traced_step_ms: Vec<f64>,
    pub untraced_step_ms: Vec<f64>,
    pub bare_step_ms: Vec<f64>,
    /// Virtual seconds of the same work with and without tf-Darshan.
    pub virt_secs: f64,
    pub bare_virt_secs: f64,
    pub kernel_ms: Vec<f64>,
}

impl Layers {
    /// The per-layer metrics. Also checks that the report call's timed
    /// parts add up to within ±10% of its median.
    pub fn metrics(&self, checks: &mut Checks) -> Vec<Metric> {
        let us = |v: &[f64]| median(v) * 1e3;
        let report = median(&self.report_ms);
        let step = median(&self.untraced_step_ms);
        let bare = median(&self.bare_step_ms);
        let unattributed = report - self.report_parts_ms;
        checks.check(unattributed.abs() <= 0.1 * report, || {
            format!(
                "report path: parts {:.4} ms vs report {report:.4} ms",
                self.report_parts_ms
            )
        });
        vec![
            m("simrt.switches", self.switches as f64, "count"),
            m("simrt.event_polls", self.event_polls as f64, "count"),
            m("simrt.run_host_s", self.run_host_s, "s"),
            m(
                "simrt.host_us_per_switch",
                self.run_host_s * 1e6 / self.switches.max(1) as f64,
                "us",
            ),
            m("posix.read_file_us_p50", us(&self.read_file_ms), "us"),
            m(
                "posix.read_file_bare_us_p50",
                us(&self.read_file_bare_ms),
                "us",
            ),
            m("posix.ops", self.posix_ops as f64, "count"),
            m("probe.events", self.probe_events as f64, "count"),
            m("storage.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            m("storage.hdd_read_mib", self.hdd_read_mib, "MiB"),
            m("storage.optane_read_mib", self.optane_read_mib, "MiB"),
            m("storage.ssd_write_mib", self.ssd_write_mib, "MiB"),
            m("darshan.snapshot_ms_p50", median(&self.snapshot_ms), "ms"),
            m("darshan.posix_records", self.posix_records as f64, "count"),
            m("darshan.stdio_records", self.stdio_records as f64, "count"),
            m("darshan.dxt_segments", self.dxt_segments as f64, "count"),
            m("core.diff_ms_p50", median(&self.diff_ms), "ms"),
            m(
                "core.session_dxt_ms_p50",
                median(&self.session_dxt_ms),
                "ms",
            ),
            m("core.analyze_ms_p50", median(&self.analyze_ms), "ms"),
            m("core.export_ms_p50", median(&self.export_ms), "ms"),
            m("core.report_ms_p50", report, "ms"),
            m("core.unattributed_ms_p50", unattributed, "ms"),
            m(
                "core.tree_reduce_ms_p50",
                median(&self.tree_reduce_ms),
                "ms",
            ),
            m("core.tree_levels", self.tree_levels as f64, "count"),
            m("core.pair_merges", self.pair_merges as f64, "count"),
            m("core.mark_stop_ms_p50", median(&self.mark_stop_ms), "ms"),
            m("core.wire_encode_us_p50", us(&self.wire_encode_ms), "us"),
            m("core.wire_decode_us_p50", us(&self.wire_decode_ms), "us"),
            m("core.wire_bytes_p50", median(&self.wire_bytes), "bytes"),
            m(
                "tfsim.profiler_start_ms_p50",
                median(&self.profiler_start_ms),
                "ms",
            ),
            m(
                "prefetch.promoted_files",
                self.promoted_files as f64,
                "count",
            ),
            m("prefetch.promoted_mib", self.promoted_mib, "MiB"),
            m("prefetch.evicted_files", self.evicted_files as f64, "count"),
            m(
                "prefetch.failed_promotions",
                self.failed_promotions as f64,
                "count",
            ),
            m("prefetch.useful_ratio", self.useful_ratio, "ratio"),
            m("serve.ingest_us_p50", us(&self.ingest_ms), "us"),
            m("ingest_diffs_per_s", median(&self.ingest_per_s), "1/s"),
            m("serve.ingested", self.ingested as f64, "count"),
            m("serve.dropped", self.dropped as f64, "count"),
            m(
                "serve.accept_ratio",
                self.ingested as f64 / self.offered.max(1) as f64,
                "ratio",
            ),
            m("serve.metrics_kib", self.metrics_kib, "KiB"),
            m(
                "trace.step_overhead_ms",
                median(&self.traced_step_ms) - step,
                "ms",
            ),
            m("host.calibration_ms_p50", median(&self.kernel_ms), "ms"),
            // The paper's Fig. 5, in host and in virtual time.
            m("host_overhead_pct", (step - bare) / bare * 100.0, "%"),
            m(
                "virt_overhead_pct",
                (self.virt_secs - self.bare_virt_secs) / self.bare_virt_secs * 100.0,
                "%",
            ),
        ]
    }
}
