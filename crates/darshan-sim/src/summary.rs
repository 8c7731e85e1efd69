//! Job-summary analysis of a Darshan log — the `darshan-job-summary`
//! utility (Table I's "Visualization: PDF, log utilities" for classic
//! Darshan): aggregate totals, performance estimates, access-size
//! histograms, and the top files by I/O time and by volume.

use serde::{Deserialize, Serialize};

use crate::counters::{PosixCounter as P, PosixFCounter as PF, StdioCounter as S};
use crate::log::DarshanLog;

/// Aggregated job-level statistics derived from a log.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct JobSummary {
    /// Job runtime, seconds.
    pub runtime: f64,
    /// Files with POSIX records.
    pub posix_files: usize,
    /// Total POSIX opens.
    pub opens: u64,
    /// Total POSIX reads / writes.
    pub reads: u64,
    /// Total POSIX writes.
    pub writes: u64,
    /// Bytes read / written on the POSIX layer.
    pub bytes_read: u64,
    /// Bytes written on the POSIX layer.
    pub bytes_written: u64,
    /// Cumulative time in reads / writes / metadata, seconds.
    pub read_time: f64,
    /// Cumulative time in writes.
    pub write_time: f64,
    /// Cumulative time in metadata operations.
    pub meta_time: f64,
    /// Estimated I/O time as a fraction of runtime (cumulative I/O time of
    /// the busiest layer over runtime; >1 means concurrent I/O threads).
    pub io_time_fraction: f64,
    /// Aggregate read-size histogram (Darshan's ten buckets).
    pub read_size_hist: [u64; 10],
    /// Aggregate write-size histogram.
    pub write_size_hist: [u64; 10],
    /// Sequential / consecutive read fractions.
    pub seq_read_fraction: f64,
    /// Consecutive read fraction.
    pub consec_read_fraction: f64,
    /// Top files by cumulative read time: `(path, seconds, bytes)`.
    pub top_by_read_time: Vec<(String, f64, u64)>,
    /// Top files by bytes read.
    pub top_by_bytes: Vec<(String, u64)>,
    /// STDIO totals: `(opens, reads, writes, bytes_read, bytes_written)`.
    pub stdio: (u64, u64, u64, u64, u64),
    /// A module of the log ran out of record memory, so every total above
    /// undercounts the job (the parser's `[PARTIAL]` header).
    #[serde(default)]
    pub partial: bool,
}

impl JobSummary {
    /// Analyze a log (top-file lists truncated to `top_n`).
    pub fn from_log(log: &DarshanLog, top_n: usize) -> JobSummary {
        let mut s = JobSummary {
            runtime: (log.job_end - log.job_start).max(0.0),
            posix_files: log.posix.len(),
            partial: log.posix_partial || log.stdio_partial,
            ..Default::default()
        };
        let mut by_time: Vec<(String, f64, u64)> = Vec::new();
        let mut by_bytes: Vec<(String, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut consec = 0u64;
        for r in &log.posix {
            let name = log
                .names
                .get(&r.rec_id)
                .cloned()
                .unwrap_or_else(|| format!("<{:#x}>", r.rec_id));
            s.opens += r.get(P::POSIX_OPENS).max(0) as u64;
            s.reads += r.get(P::POSIX_READS).max(0) as u64;
            s.writes += r.get(P::POSIX_WRITES).max(0) as u64;
            let bytes_read = r.get(P::POSIX_BYTES_READ).max(0) as u64;
            s.bytes_read += bytes_read;
            s.bytes_written += r.get(P::POSIX_BYTES_WRITTEN).max(0) as u64;
            s.read_time += r.fget(PF::POSIX_F_READ_TIME).max(0.0);
            s.write_time += r.fget(PF::POSIX_F_WRITE_TIME).max(0.0);
            s.meta_time += r.fget(PF::POSIX_F_META_TIME).max(0.0);
            seq += r.get(P::POSIX_SEQ_READS).max(0) as u64;
            consec += r.get(P::POSIX_CONSEC_READS).max(0) as u64;
            for b in 0..10 {
                s.read_size_hist[b] +=
                    r.counters[P::POSIX_SIZE_READ_0_100 as usize + b].max(0) as u64;
                s.write_size_hist[b] +=
                    r.counters[P::POSIX_SIZE_WRITE_0_100 as usize + b].max(0) as u64;
            }
            by_time.push((name.clone(), r.fget(PF::POSIX_F_READ_TIME), bytes_read));
            by_bytes.push((name, bytes_read));
        }
        if s.reads > 0 {
            s.seq_read_fraction = seq as f64 / s.reads as f64;
            s.consec_read_fraction = consec as f64 / s.reads as f64;
        }
        if s.runtime > 0.0 {
            s.io_time_fraction = (s.read_time + s.write_time + s.meta_time) / s.runtime;
        }
        by_time.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        by_time.truncate(top_n);
        s.top_by_read_time = by_time;
        by_bytes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_bytes.truncate(top_n);
        s.top_by_bytes = by_bytes;

        for r in &log.stdio {
            s.stdio.0 += r.get(S::STDIO_OPENS).max(0) as u64;
            s.stdio.1 += r.get(S::STDIO_READS).max(0) as u64;
            s.stdio.2 += r.get(S::STDIO_WRITES).max(0) as u64;
            s.stdio.3 += r.get(S::STDIO_BYTES_READ).max(0) as u64;
            s.stdio.4 += r.get(S::STDIO_BYTES_WRITTEN).max(0) as u64;
        }
        s
    }

    /// Render the summary report (the "PDF" page, in text).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mib = 1024.0 * 1024.0;
        let mut out = String::new();
        let _ = writeln!(out, "================ Darshan job summary ================");
        if self.partial {
            let _ = writeln!(
                out,
                "WARNING: partial log, a module ran out of record memory; totals undercount"
            );
        }
        let _ = writeln!(
            out,
            "runtime {:.3}s | files {} | opens {} | reads {} | writes {}",
            self.runtime, self.posix_files, self.opens, self.reads, self.writes
        );
        let _ = writeln!(
            out,
            "volume: {:.1} MiB read, {:.1} MiB written",
            self.bytes_read as f64 / mib,
            self.bytes_written as f64 / mib
        );
        let _ = writeln!(
            out,
            "cumulative I/O time: read {:.3}s write {:.3}s meta {:.3}s ({:.0}% of runtime)",
            self.read_time,
            self.write_time,
            self.meta_time,
            self.io_time_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "access pattern: {:.0}% sequential, {:.0}% consecutive reads",
            self.seq_read_fraction * 100.0,
            self.consec_read_fraction * 100.0
        );
        if !self.top_by_read_time.is_empty() {
            let _ = writeln!(out, "\ntop files by read time:");
            for (p, t, b) in &self.top_by_read_time {
                let _ = writeln!(out, "  {t:>9.4}s {:>10.2} MiB  {p}", *b as f64 / mib);
            }
        }
        if self.stdio.0 + self.stdio.1 + self.stdio.2 > 0 {
            let _ = writeln!(
                out,
                "\nSTDIO: {} fopens, {} freads, {} fwrites ({:.1} MiB written)",
                self.stdio.0,
                self.stdio.1,
                self.stdio.2,
                self.stdio.4 as f64 / mib
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{PosixRecord, StdioRecord};
    use std::collections::HashMap;

    fn log() -> DarshanLog {
        let mut names = HashMap::new();
        let mut posix = Vec::new();
        for (i, (reads, bytes, time)) in [
            (2i64, 100_000i64, 0.5f64),
            (4, 900_000, 2.0),
            (1, 50_000, 0.1),
        ]
        .iter()
        .enumerate()
        {
            let path = format!("/d/f{i}");
            let id = crate::record_id(&path);
            names.insert(id, path);
            let mut r = PosixRecord::new(id);
            *r.get_mut(P::POSIX_OPENS) = 1;
            *r.get_mut(P::POSIX_READS) = *reads;
            *r.get_mut(P::POSIX_BYTES_READ) = *bytes;
            *r.get_mut(P::POSIX_SEQ_READS) = *reads;
            *r.fget_mut(PF::POSIX_F_READ_TIME) = *time;
            r.counters[P::POSIX_SIZE_READ_10K_100K as usize] = *reads;
            posix.push(r);
        }
        let mut st = StdioRecord::new(7);
        *st.get_mut(S::STDIO_WRITES) = 140;
        *st.get_mut(S::STDIO_BYTES_WRITTEN) = 14_000_000;
        DarshanLog {
            job_start: 0.0,
            job_end: 10.0,
            nprocs: 1,
            names,
            posix,
            posix_partial: false,
            stdio: vec![st],
            stdio_partial: false,
            dxt: Default::default(),
        }
    }

    #[test]
    fn totals_and_fractions() {
        let s = JobSummary::from_log(&log(), 2);
        assert_eq!(s.posix_files, 3);
        assert_eq!(s.opens, 3);
        assert_eq!(s.reads, 7);
        assert_eq!(s.bytes_read, 1_050_000);
        assert!((s.read_time - 2.6).abs() < 1e-12);
        assert!((s.io_time_fraction - 0.26).abs() < 1e-9);
        assert_eq!(s.seq_read_fraction, 1.0);
        assert_eq!(s.read_size_hist[3], 7);
        assert_eq!(s.stdio.2, 140);
    }

    #[test]
    fn top_lists_are_sorted_and_truncated() {
        let s = JobSummary::from_log(&log(), 2);
        assert_eq!(s.top_by_read_time.len(), 2);
        assert_eq!(s.top_by_read_time[0].0, "/d/f1");
        assert_eq!(s.top_by_bytes[0].0, "/d/f1");
        assert_eq!(s.top_by_bytes[1].0, "/d/f0");
    }

    #[test]
    fn render_contains_key_lines() {
        let s = JobSummary::from_log(&log(), 3);
        let text = s.render();
        assert!(text.contains("opens 3 | reads 7"));
        assert!(text.contains("100% sequential"));
        assert!(text.contains("/d/f1"));
        assert!(text.contains("140 fwrites"));
    }

    #[test]
    fn partial_log_renders_a_warning() {
        assert!(!JobSummary::from_log(&log(), 3).render().contains("WARNING"));
        let mut l = log();
        l.stdio_partial = true;
        let s = JobSummary::from_log(&l, 3);
        assert!(s.partial);
        let text = s.render();
        assert_eq!(
            text.lines().nth(1),
            Some("WARNING: partial log, a module ran out of record memory; totals undercount")
        );
        assert!(text.contains("opens 3 | reads 7"), "totals still render");
    }

    #[test]
    fn empty_log() {
        let s = JobSummary::from_log(&DarshanLog::default(), 5);
        assert_eq!(s.posix_files, 0);
        assert_eq!(s.io_time_fraction, 0.0);
        assert!(!s.render().is_empty());
    }
}
