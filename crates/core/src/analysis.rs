//! In-situ analysis of Darshan data: snapshot diffing and the derived
//! statistics tf-Darshan shows on its TensorBoard panels (paper §III.C:
//! "the two samples collected during start and stop are analyzed by
//! tf-Darshan to retrieve relevant statistics").

use std::collections::HashMap;
use std::sync::Arc;

use darshan_sim::{
    DxtOp, DxtSegment, Module, PosixCounter as P, PosixFCounter as PF, PosixRecord, Record,
    Snapshot, StdioCounter as S, StdioRecord, SIZE_BUCKET_LABELS,
};
use serde::{Deserialize, Serialize};

/// Per-file deltas between the start and stop snapshots of a profiling
/// session (counters are monotonic, so subtraction gives in-window
/// activity; files absent at start contribute their full stop values).
#[derive(Clone, Debug)]
pub struct SnapshotDiff {
    /// Darshan-relative window: `[start.taken_at, stop.taken_at]`.
    pub window: (f64, f64),
    /// POSIX per-file deltas (only files with in-window activity).
    pub posix: Vec<PosixRecord>,
    /// STDIO per-file deltas.
    pub stdio: Vec<StdioRecord>,
    /// Record-id → path (shared with the stop snapshot, zero-copy).
    pub names: Arc<HashMap<u64, String>>,
    /// Either module hit its record-memory cap.
    pub partial: bool,
}

// Diffing walks the stop snapshot but skips every record whose
// `dirty_epoch` predates the start snapshot in O(1) — those records were
// not mutated inside the window, so their delta is identically zero. Only
// changed records pay the clone + subtraction, making the whole diff
// O(total) pointer chases + O(changed) record work. Records that *were*
// changed find their baseline by binary search (snapshots are sorted by
// record id); integer counters and the module's cumulative times subtract.
// The any-nonzero filter drops changed records whose integer counters did
// not move (e.g. only timestamps did).

fn diff_module<M: Module>(
    start: &[Arc<Record<M>>],
    stop: &[Arc<Record<M>>],
    start_epoch: u64,
) -> Vec<Record<M>> {
    stop.iter()
        .filter(|r| r.dirty_epoch > start_epoch) // else unchanged: zero delta
        .filter_map(|r| {
            let mut d = (**r).clone();
            if let Ok(i) = start.binary_search_by_key(&r.rec_id, |x| x.rec_id) {
                let b = &start[i];
                for (c, base) in d.counters.as_mut().iter_mut().zip(b.counters.as_ref()) {
                    *c -= base;
                }
                // Durations subtract; timestamps keep the stop values (last
                // observed) — matching how tf-Darshan reports windows.
                for t in M::TIMES {
                    *d.fget_mut(t) -= b.fget(t);
                }
            }
            d.counters.as_ref().iter().any(|c| *c != 0).then_some(d)
        })
        .collect()
}

/// Diff two snapshots taken from the same runtime (`start` first).
pub fn diff(start: &Snapshot, stop: &Snapshot) -> SnapshotDiff {
    SnapshotDiff {
        window: (start.taken_at, stop.taken_at),
        posix: diff_module(&start.posix, &stop.posix, start.epoch),
        stdio: diff_module(&start.stdio, &stop.stdio, start.epoch),
        names: stop.names.clone(),
        partial: stop.posix_partial || stop.stdio_partial,
    }
}

/// Aggregated POSIX statistics of a profiling window — the numbers on the
/// paper's Fig. 7a/9 panels.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct IoStats {
    /// Window length in seconds.
    pub window_secs: f64,
    /// Files opened in the window (POSIX).
    pub files_opened: u64,
    /// Files with any in-window POSIX activity.
    pub files_active: u64,
    /// POSIX opens.
    pub opens: u64,
    /// POSIX reads (including zero-length).
    pub reads: u64,
    /// POSIX writes.
    pub writes: u64,
    /// POSIX seeks.
    pub seeks: u64,
    /// POSIX stats.
    pub stats: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Derived read bandwidth over the window, MiB/s.
    pub read_bandwidth_mibps: f64,
    /// Derived write bandwidth, MiB/s.
    pub write_bandwidth_mibps: f64,
    /// Sequential reads (offset ≥ previous end).
    pub seq_reads: u64,
    /// Consecutive reads (offset = previous end).
    pub consec_reads: u64,
    /// Reads that returned zero bytes (EOF probes), from DXT.
    pub zero_reads: u64,
    /// Read-size histogram over Darshan's ten buckets.
    pub read_size_hist: [u64; 10],
    /// Write-size histogram.
    pub write_size_hist: [u64; 10],
    /// Histogram of sizes of the files read in the window (proxy:
    /// max byte read + 1 per file).
    pub file_size_hist: [u64; 10],
    /// Most common read sizes `(size, count)` from DXT (exact), top 4.
    pub common_read_sizes: Vec<(u64, u64)>,
    /// Total time spent inside POSIX reads, seconds.
    pub read_time: f64,
    /// Total time inside POSIX metadata calls, seconds.
    pub meta_time: f64,
    /// Any module dropped records.
    pub partial: bool,
}

impl IoStats {
    /// Fraction of reads that were sequential.
    pub fn seq_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.seq_reads as f64 / self.reads as f64
        }
    }

    /// Fraction of reads that were consecutive.
    pub fn consec_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.consec_reads as f64 / self.reads as f64
        }
    }

    /// Fraction of reads that returned zero bytes.
    pub fn zero_read_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.zero_reads as f64 / self.reads as f64
        }
    }
}

/// STDIO-side aggregates (the §IV.D checkpoint panel).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StdioStats {
    /// Streams opened.
    pub opens: u64,
    /// `fwrite` calls.
    pub writes: u64,
    /// `fread` calls.
    pub reads: u64,
    /// Bytes written via STDIO.
    pub bytes_written: u64,
    /// Bytes read via STDIO.
    pub bytes_read: u64,
    /// Flush calls.
    pub flushes: u64,
}

/// Compute window statistics from a diff plus the window's DXT segments.
pub fn analyze(d: &SnapshotDiff, dxt: &[(u64, DxtSegment)]) -> (IoStats, StdioStats) {
    let mut io = IoStats {
        window_secs: (d.window.1 - d.window.0).max(0.0),
        partial: d.partial,
        ..Default::default()
    };
    for r in &d.posix {
        let opens = r.get(P::POSIX_OPENS).max(0) as u64;
        io.opens += opens;
        if opens > 0 {
            io.files_opened += 1;
        }
        io.files_active += 1;
        io.reads += r.get(P::POSIX_READS).max(0) as u64;
        io.writes += r.get(P::POSIX_WRITES).max(0) as u64;
        io.seeks += r.get(P::POSIX_SEEKS).max(0) as u64;
        io.stats += r.get(P::POSIX_STATS).max(0) as u64;
        io.bytes_read += r.get(P::POSIX_BYTES_READ).max(0) as u64;
        io.bytes_written += r.get(P::POSIX_BYTES_WRITTEN).max(0) as u64;
        io.seq_reads += r.get(P::POSIX_SEQ_READS).max(0) as u64;
        io.consec_reads += r.get(P::POSIX_CONSEC_READS).max(0) as u64;
        for b in 0..10 {
            io.read_size_hist[b] += r.counters[P::POSIX_SIZE_READ_0_100 as usize + b].max(0) as u64;
            io.write_size_hist[b] +=
                r.counters[P::POSIX_SIZE_WRITE_0_100 as usize + b].max(0) as u64;
        }
        if r.get(P::POSIX_READS) > 0 {
            let size = (r.get(P::POSIX_MAX_BYTE_READ).max(0) as u64).saturating_add(1);
            io.file_size_hist[darshan_sim::size_bucket(size)] += 1;
        }
        io.read_time += r.fget(PF::POSIX_F_READ_TIME).max(0.0);
        io.meta_time += r.fget(PF::POSIX_F_META_TIME).max(0.0);
    }
    if io.window_secs > 0.0 {
        let mib = 1024.0 * 1024.0;
        io.read_bandwidth_mibps = io.bytes_read as f64 / mib / io.window_secs;
        io.write_bandwidth_mibps = io.bytes_written as f64 / mib / io.window_secs;
    }
    // Exact zero-read count and common sizes from the trace.
    let mut sizes = darshan_sim::CommonValues::default();
    for (_, seg) in dxt {
        if seg.op == DxtOp::Read {
            if seg.length == 0 {
                io.zero_reads += 1;
            }
            sizes.add(seg.length);
        }
    }
    io.common_read_sizes = sizes.top(4);

    let mut st = StdioStats::default();
    for r in &d.stdio {
        st.opens += r.get(S::STDIO_OPENS).max(0) as u64;
        st.writes += r.get(S::STDIO_WRITES).max(0) as u64;
        st.reads += r.get(S::STDIO_READS).max(0) as u64;
        st.bytes_written += r.get(S::STDIO_BYTES_WRITTEN).max(0) as u64;
        st.bytes_read += r.get(S::STDIO_BYTES_READ).max(0) as u64;
        st.flushes += r.get(S::STDIO_FLUSHES).max(0) as u64;
    }
    (io, st)
}

/// Per-file view used by the report's file table and the staging advisor.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FileActivity {
    /// File path.
    pub path: String,
    /// POSIX reads in window.
    pub reads: u64,
    /// Bytes read in window.
    pub bytes_read: u64,
    /// Apparent size (max byte read + 1).
    pub apparent_size: u64,
    /// Total time in reads of this file, seconds.
    pub read_time: f64,
}

/// Extract the per-file table from a diff.
pub fn per_file(d: &SnapshotDiff) -> Vec<FileActivity> {
    let mut v: Vec<FileActivity> = d
        .posix
        .iter()
        .filter(|r| r.get(P::POSIX_READS) > 0)
        .map(|r| FileActivity {
            path: d
                .names
                .get(&r.rec_id)
                .cloned()
                .unwrap_or_else(|| format!("<{:#x}>", r.rec_id)),
            reads: r.get(P::POSIX_READS) as u64,
            bytes_read: r.get(P::POSIX_BYTES_READ).max(0) as u64,
            apparent_size: (r.get(P::POSIX_MAX_BYTE_READ).max(0) as u64).saturating_add(1),
            read_time: r.fget(PF::POSIX_F_READ_TIME).max(0.0),
        })
        .collect();
    v.sort_by(|a, b| a.path.cmp(&b.path));
    v
}

/// Derive a bandwidth-over-time series from DXT segments: bytes completed
/// per `bucket_secs` interval, in MiB/s — a per-session equivalent of the
/// Fig. 3/4 dstat line computed entirely from Darshan's own trace.
pub fn bandwidth_series(dxt: &[(u64, DxtSegment)], bucket_secs: f64) -> Vec<(f64, f64)> {
    assert!(bucket_secs > 0.0);
    let mut buckets: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (_, seg) in dxt {
        if seg.op == DxtOp::Read && seg.length > 0 {
            let b = (seg.end / bucket_secs) as u64;
            *buckets.entry(b).or_default() += seg.length;
        }
    }
    let Some((&first, _)) = buckets.iter().next() else {
        return Vec::new();
    };
    let last = *buckets.keys().last().expect("nonempty");
    (first..=last)
        .map(|b| {
            let bytes = buckets.get(&b).copied().unwrap_or(0);
            (
                (b as f64 + 1.0) * bucket_secs,
                bytes as f64 / (1024.0 * 1024.0) / bucket_secs,
            )
        })
        .collect()
}

/// Pretty-print a size-bucket histogram row set.
pub fn histogram_rows(hist: &[u64; 10]) -> Vec<(String, u64)> {
    SIZE_BUCKET_LABELS
        .iter()
        .zip(hist.iter())
        .map(|(l, c)| (l.to_string(), *c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darshan_sim::{DarshanConfig, DarshanRuntime, StdioFCounter as SF};
    use simrt::{Sim, SimTime};

    fn at(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn diff_isolates_window_activity() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let a = rt.posix_open("/d/a", at(0), at(1)).unwrap();
            rt.posix_read(a, 0, 1000, at(1), at(2));
            let start = rt.snapshot();
            rt.posix_read(a, 1000, 500, at(3), at(4));
            let b = rt.posix_open("/d/b", at(4), at(5)).unwrap();
            rt.posix_read(b, 0, 300, at(5), at(6));
            let stop = rt.snapshot();
            let d = diff(&start, &stop);
            assert_eq!(d.posix.len(), 2);
            let da = d.posix.iter().find(|r| r.rec_id == a).unwrap();
            assert_eq!(da.get(P::POSIX_READS), 1, "only the in-window read");
            assert_eq!(da.get(P::POSIX_BYTES_READ), 500);
            assert_eq!(da.get(P::POSIX_OPENS), 0, "open was before the window");
            let db = d.posix.iter().find(|r| r.rec_id == b).unwrap();
            assert_eq!(db.get(P::POSIX_OPENS), 1);
            assert_eq!(db.get(P::POSIX_BYTES_READ), 300);
        });
        sim.run();
    }

    #[test]
    fn diff_additivity() {
        // diff(a, c) == diff(a, b) + diff(b, c) on every integer counter.
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let f = rt.posix_open("/d/f", at(0), at(1)).unwrap();
            let s_a = rt.snapshot();
            rt.posix_read(f, 0, 100, at(1), at(2));
            let s_b = rt.snapshot();
            rt.posix_read(f, 100, 900, at(2), at(3));
            rt.posix_write(f, 0, 50, at(3), at(4));
            let s_c = rt.snapshot();
            let ab = diff(&s_a, &s_b);
            let bc = diff(&s_b, &s_c);
            let ac = diff(&s_a, &s_c);
            let get = |d: &SnapshotDiff, c: P| {
                d.posix
                    .iter()
                    .find(|r| r.rec_id == f)
                    .map(|r| r.get(c))
                    .unwrap_or(0)
            };
            for c in [
                P::POSIX_READS,
                P::POSIX_WRITES,
                P::POSIX_BYTES_READ,
                P::POSIX_BYTES_WRITTEN,
                P::POSIX_SEQ_READS,
            ] {
                assert_eq!(get(&ab, c) + get(&bc, c), get(&ac, c), "{}", c.name());
            }
        });
        sim.run();
    }

    #[test]
    fn analyze_produces_imagenet_shape() {
        // 10 files, each: open + full read + zero-length read — the Fig 7a
        // pattern (reads ≈ 2 × opens, ~50% zero reads).
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let start = rt.snapshot();
            let t0 = 10u64;
            for i in 0..10u64 {
                let id = rt
                    .posix_open(&format!("/d/{i}"), at(t0 + i * 10), at(t0 + i * 10 + 1))
                    .unwrap();
                rt.posix_read(id, 0, 88_000, at(t0 + i * 10 + 1), at(t0 + i * 10 + 5));
                rt.posix_read(id, 88_000, 0, at(t0 + i * 10 + 5), at(t0 + i * 10 + 6));
            }
            // Advance the clock past the synthetic event timestamps so the
            // stop snapshot's window covers them.
            simrt::sleep(std::time::Duration::from_millis(500));
            let stop = rt.snapshot();
            let d = diff(&start, &stop);
            let dxt = rt.dxt_range(d.window.0, d.window.1);
            let (io, _st) = analyze(&d, &dxt);
            assert_eq!(io.opens, 10);
            assert_eq!(io.reads, 20);
            assert_eq!(io.zero_reads, 10);
            assert!((io.zero_read_fraction() - 0.5).abs() < 1e-9);
            assert_eq!(io.bytes_read, 880_000);
            assert_eq!(io.read_size_hist[0], 10, "zero reads in 0-100");
            assert_eq!(io.read_size_hist[3], 10, "88 KB reads in 10K-100K");
            assert_eq!(io.file_size_hist[3], 10);
            // 88 KB data reads and zero-length probes tie at 10 each.
            assert!(io.common_read_sizes.contains(&(88_000, 10)));
            assert!(io.common_read_sizes.contains(&(0, 10)));
            assert!(io.read_bandwidth_mibps > 0.0);
            assert_eq!(io.seq_fraction(), 1.0);
        });
        sim.run();
    }

    #[test]
    fn bandwidth_series_buckets_bytes_by_completion_time() {
        let seg = |end: f64, length: u64| {
            (
                1u64,
                DxtSegment {
                    op: DxtOp::Read,
                    offset: 0,
                    length,
                    start: end - 0.01,
                    end,
                    rank: 0,
                },
            )
        };
        let dxt = vec![
            seg(0.5, 10 << 20),
            seg(0.9, 10 << 20),
            seg(1.5, 5 << 20),
            // A gap: nothing completes in [2, 3).
            seg(3.2, 20 << 20),
        ];
        let series = bandwidth_series(&dxt, 1.0);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0], (1.0, 20.0));
        assert_eq!(series[1], (2.0, 5.0));
        assert_eq!(series[2], (3.0, 0.0), "gaps show as zero");
        assert_eq!(series[3], (4.0, 20.0));
        assert!(bandwidth_series(&[], 1.0).is_empty());
    }

    #[test]
    fn per_file_table() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let start = rt.snapshot();
            let id = rt.posix_open("/d/x", at(0), at(1)).unwrap();
            rt.posix_read(id, 0, 4_000_000, at(1), at(2));
            let stop = rt.snapshot();
            let d = diff(&start, &stop);
            let files = per_file(&d);
            assert_eq!(files.len(), 1);
            assert_eq!(files[0].path, "/d/x");
            assert_eq!(files[0].apparent_size, 4_000_000);
        });
        sim.run();
    }

    #[test]
    fn stdio_diff_times_are_window_deltas() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let id = rt.stdio_open("/d/ckpt", at(0), at(1)).unwrap();
            let s0 = rt.snapshot();
            rt.stdio_write(id, 0, 1000, at(1), at(4));
            let s1 = rt.snapshot();
            rt.stdio_write(id, 1000, 1000, at(4), at(6));
            let s2 = rt.snapshot();
            let write_time = |d: &SnapshotDiff| d.stdio[0].fget(SF::STDIO_F_WRITE_TIME);
            assert!((write_time(&diff(&s0, &s1)) - 0.003).abs() < 1e-12);
            assert!((write_time(&diff(&s1, &s2)) - 0.002).abs() < 1e-12);
            assert_eq!(diff(&s1, &s2).stdio[0].fget(SF::STDIO_F_META_TIME), 0.0);
        });
        sim.run();
    }

    #[test]
    fn stdio_record_cap_marks_the_diff_partial() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig {
                max_records_per_module: 2,
                ..Default::default()
            });
            let start = rt.snapshot();
            assert!(rt.stdio_open("/d/a", at(0), at(0)).is_some());
            assert!(rt.stdio_open("/d/b", at(0), at(0)).is_some());
            assert!(rt.stdio_open("/d/c", at(0), at(0)).is_none());
            let stop = rt.snapshot();
            assert!(stop.stdio_partial && !stop.posix_partial);
            let d = diff(&start, &stop);
            assert!(d.partial);
            assert_eq!(d.stdio.len(), 2);
        });
        sim.run();
    }

    #[test]
    fn stdio_stats_aggregate() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let start = rt.snapshot();
            let id = rt.stdio_open("/d/ckpt", at(0), at(1)).unwrap();
            for i in 0..140u64 {
                rt.stdio_write(id, i * 1000, 1000, at(i), at(i + 1));
            }
            let stop = rt.snapshot();
            let d = diff(&start, &stop);
            let (_, st) = analyze(&d, &[]);
            assert_eq!(st.opens, 1);
            assert_eq!(st.writes, 140);
            assert_eq!(st.bytes_written, 140_000);
        });
        sim.run();
    }
}
