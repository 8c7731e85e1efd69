//! End-to-end daemon tests: real sockets, both publisher transports,
//! every endpoint, and the multi-tenant flood/backpressure contract.

use std::time::{Duration, Instant};

use serve::{
    AggregatorConfig, Enqueue, LocalPublisher, Publisher, ServeConfig, ServeDaemon, TcpPublisher,
};
use tfdarshan::analysis::FileActivity;
use tfdarshan::wire::{SessionDiffMsg, WIRE_VERSION};
use tfdarshan::TfDarshanReport;

fn msg(job: &str, rank: u32, seq: u64, bytes: u64, end: f64) -> SessionDiffMsg {
    let mut report = TfDarshanReport {
        window: (end - 1.0, end),
        ..Default::default()
    };
    report.io.reads = 3;
    report.io.bytes_read = bytes;
    report.files = vec![FileActivity {
        path: format!("/data/<{job}>/shard{seq}"),
        reads: 3,
        bytes_read: bytes,
        apparent_size: bytes,
        read_time: 0.02,
    }];
    SessionDiffMsg {
        v: WIRE_VERSION,
        job: job.into(),
        rank,
        seq,
        report,
    }
}

/// Poll `/metrics` until `pred` passes or ~5s elapse (TCP ingest is
/// asynchronous; the pump thread applies messages shortly after arrival).
fn await_metrics(daemon: &ServeDaemon, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = daemon.get("/metrics").expect("scrape");
        assert_eq!(status, 200);
        if pred(&body) {
            return body;
        }
        assert!(Instant::now() < deadline, "timed out; last body:\n{body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn metric_value(body: &str, line_start: &str) -> Option<String> {
    body.lines()
        .find(|l| l.starts_with(line_start))
        .map(|l| l[line_start.len()..].trim().to_string())
}

#[test]
fn both_transports_feed_one_daemon_and_all_endpoints_serve() {
    let daemon = ServeDaemon::start(ServeConfig::default()).unwrap();

    // Tenant "local-α" publishes in-process; tenant "tcp-β" over TCP.
    let local = LocalPublisher::new(daemon.service());
    for seq in 0..4u64 {
        assert!(local
            .publish(&msg("local-α", 0, seq, 1000, seq as f64 + 1.0))
            .is_ok());
    }
    let tcp = TcpPublisher::new(daemon.ingest_addr());
    for seq in 0..6u64 {
        tcp.publish(&msg("tcp-β", 1, seq, 500, seq as f64 + 1.0))
            .expect("tcp publish");
    }

    let body = await_metrics(&daemon, |b| {
        metric_value(b, "tfdarshan_diffs_ingested_total ").as_deref() == Some("10")
    });
    assert_eq!(
        metric_value(&body, "tfdarshan_job_bytes_read_total{job=\"local-α\"}").as_deref(),
        Some("4000")
    );
    assert_eq!(
        metric_value(&body, "tfdarshan_job_bytes_read_total{job=\"tcp-β\"}").as_deref(),
        Some("3000")
    );
    assert_eq!(
        metric_value(&body, "tfdarshan_jobs_live ").as_deref(),
        Some("2")
    );

    // /jobs lists both tenants with exact counters.
    let (status, body) = daemon.get("/jobs").unwrap();
    assert_eq!(status, 200);
    let listing: serve::JobsListing = serde_json::from_str(&body).expect("jobs json parses");
    assert_eq!(listing.jobs.len(), 2);
    let beta = listing.jobs.iter().find(|j| j.job == "tcp-β").unwrap();
    assert_eq!(
        (beta.sessions, beta.bytes_read, beta.seq_gaps),
        (6, 3000, 0)
    );

    // /jobs/<id>/report parses back into a report with summed counters.
    let (status, body) = daemon.get("/jobs/local-%CE%B1/report").unwrap();
    assert_eq!(status, 200, "percent-encoded id resolves");
    let report = TfDarshanReport::from_json(&body).expect("report json parses");
    assert_eq!(report.io.bytes_read, 4000);
    assert_eq!(report.io.reads, 12);

    // /jobs/<id>/html serves the escaped live page.
    let (status, page) = daemon.get("/jobs/tcp-%CE%B2/html").unwrap();
    assert_eq!(status, 200);
    assert!(page.contains("live job:"));
    assert!(
        page.contains("/data/&lt;tcp-β&gt;/shard0"),
        "job-supplied paths are HTML-escaped"
    );
    assert!(!page.contains("/data/<tcp-β>"), "no raw angle brackets");

    // Unknown job and unknown route 404; non-GET 405.
    assert_eq!(daemon.get("/jobs/nope/report").unwrap().0, 404);
    assert_eq!(daemon.get("/nope").unwrap().0, 404);

    daemon.shutdown();
}

#[test]
fn malformed_ingest_lines_are_counted_not_fatal() {
    let daemon = ServeDaemon::start(ServeConfig::default()).unwrap();
    {
        use std::io::Write as _;
        let mut s = std::net::TcpStream::connect(daemon.ingest_addr()).unwrap();
        s.write_all(b"\xff\xfe not utf8\n").unwrap();
        s.write_all(b"this is not json\n").unwrap();
        s.write_all((msg("ok", 0, 0, 42, 1.0).to_line() + "\n").as_bytes())
            .unwrap();
        s.write_all(b"{\"v\":999}\n").unwrap();
        // Nesting this deep would overflow the ingest thread's stack if
        // the parser recursed without a bound.
        s.write_all(("[".repeat(100_000) + "\n").as_bytes())
            .unwrap();
        s.flush().unwrap();
    }
    // The pump may drain the valid message before the ingest thread has
    // read the two lines after it, so wait for the error count as well.
    let body = await_metrics(&daemon, |b| {
        metric_value(b, "tfdarshan_diffs_ingested_total ").as_deref() == Some("1")
            && metric_value(b, "tfdarshan_ingest_parse_errors_total ").as_deref() == Some("4")
    });
    // All four bad lines (not UTF-8, garbage, missing fields, too deep)
    // count as parse errors; the valid message landed.
    assert_eq!(
        metric_value(&body, "tfdarshan_ingest_parse_errors_total ").as_deref(),
        Some("4")
    );
    assert_eq!(
        metric_value(&body, "tfdarshan_job_bytes_read_total{job=\"ok\"}").as_deref(),
        Some("42")
    );
    daemon.shutdown();
}

#[test]
fn flood_is_bounded_and_other_tenants_stay_exact() {
    // Long pump interval: the flood outruns the pump by construction, so
    // backpressure (not the pump) is what bounds memory.
    let daemon = ServeDaemon::start(ServeConfig {
        aggregator: AggregatorConfig {
            queue_capacity: 64,
            ..Default::default()
        },
        pump_interval: Duration::from_millis(50),
    })
    .unwrap();
    let service = daemon.service();

    // The victim tenant publishes a known exact stream.
    let local = LocalPublisher::new(service.clone());
    for seq in 0..10u64 {
        local
            .publish(&msg("victim", 0, seq, 777, seq as f64 + 1.0))
            .unwrap();
    }

    // The flooder slams 50k messages in-process (faster than any pump).
    let mut dropped = 0u64;
    for seq in 0..50_000u64 {
        if service.offer(msg("flood", 0, seq, 1, seq as f64)) == Enqueue::Dropped {
            dropped += 1;
        }
    }
    assert!(dropped > 0, "the flood must overrun the queue bound");

    // Bounded: undrained queue never exceeds per-tenant capacity × tenants.
    let fp = service.footprint();
    assert!(
        fp.queued_msgs <= 2 * 64,
        "queues stay bounded under flood: {fp:?}"
    );

    let body = await_metrics(&daemon, |b| {
        metric_value(b, "tfdarshan_job_sessions_total{job=\"victim\"}").as_deref() == Some("10")
    });
    // Victim is exact despite the flood.
    assert_eq!(
        metric_value(&body, "tfdarshan_job_bytes_read_total{job=\"victim\"}").as_deref(),
        Some("7770")
    );
    assert_eq!(
        metric_value(&body, "tfdarshan_job_dropped_total{job=\"victim\"}").as_deref(),
        Some("0")
    );
    // The flood's drops are all attributed to the flooder, fleet-wide too.
    let flood_dropped: u64 = metric_value(&body, "tfdarshan_job_dropped_total{job=\"flood\"}")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(flood_dropped, dropped);
    let fleet_dropped: u64 = metric_value(&body, "tfdarshan_diffs_dropped_total ")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(fleet_dropped, dropped);
    // Applied + dropped = offered, for the flooder.
    let flood_sessions: u64 = metric_value(&body, "tfdarshan_job_sessions_total{job=\"flood\"}")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(flood_sessions + flood_dropped, 50_000);

    daemon.shutdown();
}

#[test]
fn many_tcp_publishers_concurrently() {
    let daemon = ServeDaemon::start(ServeConfig::default()).unwrap();
    let n_jobs = 8usize;
    let per_job = 20u64;
    let addr = daemon.ingest_addr();
    let handles: Vec<_> = (0..n_jobs)
        .map(|j| {
            std::thread::spawn(move || {
                let p = TcpPublisher::new(addr);
                for seq in 0..per_job {
                    p.publish(&msg(
                        &format!("job{j}"),
                        0,
                        seq,
                        (j as u64 + 1) * 10,
                        seq as f64,
                    ))
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let want = (n_jobs as u64 * per_job).to_string();
    let body = await_metrics(&daemon, |b| {
        metric_value(b, "tfdarshan_diffs_ingested_total ").as_deref() == Some(want.as_str())
    });
    for j in 0..n_jobs {
        let key = format!("tfdarshan_job_bytes_read_total{{job=\"job{j}\"}}");
        let got: u64 = metric_value(&body, &key).unwrap().parse().unwrap();
        assert_eq!(got, per_job * (j as u64 + 1) * 10, "job{j} exact");
    }
    daemon.shutdown();
}
