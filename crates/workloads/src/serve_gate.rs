//! The serve gate: N concurrent training jobs streaming session diffs to
//! one live daemon, with an exactness check.
//!
//! Each job runs on its own host thread with its own simulated Greendog
//! machine and its own [`JobCtx`]; over `epochs` profiling windows it
//! reads a private dataset, extracts the window's
//! [`RankSession`](tfdarshan::RankSession), and publishes it to a shared
//! [`ServeDaemon`] — even-numbered jobs
//! in-process through [`LocalPublisher`], odd-numbered jobs as NDJSON
//! over the daemon's TCP ingest socket through [`TcpPublisher`], so one
//! run stresses the multi-tenant path over both transports at once.
//!
//! The check is *exactness*, not plausibility: session diffs are additive
//! window deltas, so for every job the daemon's `/metrics` rollup must
//! equal the sum of the session reports the job itself published —
//! u64-identical byte and op counters, and a bandwidth gauge that matches
//! the job's own bytes-over-union-window reduction. The gate also
//! round-trips `/jobs` and `/jobs/<id>/report` JSON and checks the live
//! `/jobs/<id>/html` page escapes the job-supplied id (ids here contain
//! `<`/`>` on purpose). CI runs the `serve_gate` example and fails on any
//! mismatch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use posix_sim::OpenFlags;
use serve::{LocalPublisher, Publisher, ServeConfig, ServeDaemon, ServeSink, TcpPublisher};
use tfdarshan::wire::SessionDiffMsg;
use tfdarshan::{html_escape, JobCtx, TfDarshanConfig, TfDarshanReport};

use crate::platform::greendog;

/// Files in each job's private dataset.
pub const FILES: usize = 3;
/// Bytes per dataset file.
pub const FILE_BYTES: u64 = 256 << 10;
/// Read chunk size.
pub const CHUNK: u64 = 64 << 10;

/// What the gate observed.
pub struct ServeGateOutcome {
    /// Concurrent jobs run.
    pub jobs: usize,
    /// Session diffs published across all jobs.
    pub sessions_published: u64,
    /// Exactness violations (empty on success).
    pub mismatches: Vec<String>,
    /// The final `/metrics` scrape, for display.
    pub metrics: String,
}

impl ServeGateOutcome {
    /// Did every check hold?
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

fn job_id(j: usize) -> String {
    // Angle brackets on purpose: the id must come back escaped from the
    // HTML endpoint.
    format!("train-<{j}>")
}

fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// One job: its own machine, JobCtx, and `epochs` publish cycles.
/// Returns the messages it actually published — the gate's ground truth.
fn run_one_job(
    j: usize,
    epochs: usize,
    publisher: Arc<dyn Publisher>,
) -> (String, Vec<SessionDiffMsg>) {
    let m = greendog();
    let id = job_id(j);
    let paths: Vec<String> = (0..FILES)
        .map(|i| format!("/data/ssd/serve/j{j}/f{i}"))
        .collect();
    for (i, p) in paths.iter().enumerate() {
        m.stack
            .create_synthetic(p, FILE_BYTES, (j * 31 + i) as u64)
            .unwrap();
    }

    let job = Arc::new(JobCtx::new(&m.stack, 1, &TfDarshanConfig::default()));
    let sink = Arc::new(ServeSink::new(id.clone(), publisher));

    let published: Arc<Mutex<Vec<SessionDiffMsg>>> = Arc::new(Mutex::new(Vec::new()));
    let (j2, sink2, pub2) = (job.clone(), sink.clone(), published.clone());
    m.sim.spawn("trainer", move || {
        let process = j2.rank(0).process().clone();
        for _ in 0..epochs {
            j2.mark_start().expect("tf-darshan attaches");
            for p in &paths {
                let fd = process.open(p, OpenFlags::rdonly()).unwrap();
                let mut off = 0u64;
                loop {
                    let n = process.pread(fd, off, CHUNK, None).unwrap();
                    if n == 0 {
                        break;
                    }
                    off += n;
                }
                process.close(fd).unwrap();
            }
            j2.mark_stop();
            let session = j2.rank(0).session().expect("window closed");
            pub2.lock().push(sink2.publish_session(&session));
        }
    });
    m.sim.run();

    let msgs = std::mem::take(&mut *published.lock());
    assert_eq!(
        job.rank(0)
            .wrapper()
            .library()
            .runtime()
            .totals()
            .posix_bytes_read,
        msgs.iter().map(|m| m.report.io.bytes_read).sum::<u64>(),
        "the runtime's live totals agree with the published sessions"
    );
    (id, msgs)
}

fn metric_value(body: &str, line_start: &str) -> Option<String> {
    body.lines()
        .find(|l| l.starts_with(line_start))
        .map(|l| l[line_start.len()..].trim().to_string())
}

/// Run the gate: `n_jobs` concurrent jobs, `epochs` sessions each,
/// against one daemon.
pub fn run_serve_gate(n_jobs: usize, epochs: usize) -> ServeGateOutcome {
    assert!(n_jobs > 0 && epochs > 0);
    let daemon = ServeDaemon::start(ServeConfig::default()).expect("daemon binds");
    let service = daemon.service();
    let ingest = daemon.ingest_addr();

    let handles: Vec<_> = (0..n_jobs)
        .map(|j| {
            let publisher: Arc<dyn Publisher> = if j % 2 == 0 {
                Arc::new(LocalPublisher::new(service.clone()))
            } else {
                Arc::new(TcpPublisher::new(ingest))
            };
            std::thread::spawn(move || run_one_job(j, epochs, publisher))
        })
        .collect();
    let jobs: Vec<(String, Vec<SessionDiffMsg>)> = handles
        .into_iter()
        .map(|h| h.join().expect("job runs"))
        .collect();
    let total: u64 = jobs.iter().map(|(_, m)| m.len() as u64).sum();

    let mut mismatches = Vec::new();

    // TCP delivery is asynchronous: wait (bounded) for every published
    // message to land before judging exactness.
    // Host-side wait for a real TCP pipeline to drain. simlint: allow(host-instant)
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        let (status, body) = daemon.get("/metrics").expect("scrape");
        assert_eq!(status, 200);
        let ingested = metric_value(&body, "tfdarshan_diffs_ingested_total ")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        if ingested == total {
            break body;
        }
        // simlint: allow(host-instant)
        if Instant::now() > deadline {
            mismatches.push(format!(
                "daemon ingested {ingested} of {total} published diffs before timeout"
            ));
            break body;
        }
        // simlint: allow(host-sleep)
        std::thread::sleep(Duration::from_millis(10));
    };

    for (id, msgs) in &jobs {
        // Ground truth: the job's own reduction of what it published.
        let bytes_read: u64 = msgs.iter().map(|m| m.report.io.bytes_read).sum();
        let reads: u64 = msgs.iter().map(|m| m.report.io.reads).sum();
        let opens: u64 = msgs.iter().map(|m| m.report.io.opens).sum();
        // The workload pins the expected volume independently.
        if bytes_read != epochs as u64 * FILES as u64 * FILE_BYTES {
            mismatches.push(format!(
                "{id}: published bytes {bytes_read} != workload volume"
            ));
        }
        let window = (
            msgs.iter()
                .map(|m| m.report.window.0)
                .fold(f64::INFINITY, f64::min),
            msgs.iter()
                .map(|m| m.report.window.1)
                .fold(f64::NEG_INFINITY, f64::max),
        );
        let expect_bw = bytes_read as f64 / (1024.0 * 1024.0) / (window.1 - window.0);

        let label = format!("{{job=\"{id}\"}}");
        let mut check = |metric: &str, want: u64| {
            let key = format!("{metric}{label} ");
            match metric_value(&metrics, &key).and_then(|v| v.parse::<u64>().ok()) {
                Some(got) if got == want => {}
                got => mismatches.push(format!("{id}: {metric} daemon={got:?} job={want}")),
            }
        };
        check("tfdarshan_job_sessions_total", msgs.len() as u64);
        check("tfdarshan_job_bytes_read_total", bytes_read);
        check("tfdarshan_job_bytes_written_total", 0);
        check("tfdarshan_job_reads_total", reads);
        check("tfdarshan_job_opens_total", opens);
        check("tfdarshan_job_dropped_total", 0);
        check("tfdarshan_job_seq_gaps_total", 0);
        let bw_key = format!("tfdarshan_job_read_bandwidth_mibps{label} ");
        match metric_value(&metrics, &bw_key).and_then(|v| v.parse::<f64>().ok()) {
            Some(got) if (got - expect_bw).abs() <= 1e-4 * expect_bw.max(1.0) => {}
            got => mismatches.push(format!("{id}: bandwidth daemon={got:?} job={expect_bw}")),
        }

        // The per-job report endpoint round-trips and matches too.
        let enc = urlencode(id);
        let (status, body) = daemon.get(&format!("/jobs/{enc}/report")).expect("report");
        if status != 200 {
            mismatches.push(format!("{id}: /report returned {status}"));
        } else {
            match TfDarshanReport::from_json(&body) {
                Ok(r) if r.io.bytes_read == bytes_read => {}
                Ok(r) => mismatches.push(format!(
                    "{id}: /report bytes {} != job {bytes_read}",
                    r.io.bytes_read
                )),
                Err(e) => mismatches.push(format!("{id}: /report unparseable: {e:?}")),
            }
        }

        // The live HTML page serves the escaped id, never the raw markup.
        let (status, page) = daemon.get(&format!("/jobs/{enc}/html")).expect("html");
        if status != 200 {
            mismatches.push(format!("{id}: /html returned {status}"));
        } else {
            let escaped = html_escape(id);
            if !page.contains(&escaped) || page.contains(id.as_str()) {
                mismatches.push(format!("{id}: html page not escaped"));
            }
        }
    }

    // The jobs listing agrees on tenant count.
    let (status, body) = daemon.get("/jobs").expect("jobs");
    if status != 200 {
        mismatches.push(format!("/jobs returned {status}"));
    } else {
        match serde_json::from_str::<serve::JobsListing>(&body) {
            Ok(l) if l.jobs.len() == n_jobs => {}
            Ok(l) => mismatches.push(format!("/jobs lists {} of {n_jobs}", l.jobs.len())),
            Err(e) => mismatches.push(format!("/jobs unparseable: {e:?}")),
        }
    }

    daemon.shutdown();
    ServeGateOutcome {
        jobs: n_jobs,
        sessions_published: total,
        mismatches,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_exactness_across_four_concurrent_jobs() {
        let out = run_serve_gate(4, 2);
        assert_eq!(out.sessions_published, 8);
        assert!(out.passed(), "mismatches: {:?}", out.mismatches);
    }
}
