//! Ablation — serve-daemon ingest throughput and scrape latency vs
//! tenant count.
//!
//! The serve daemon's contract is that fleet observability stays cheap as
//! jobs multiply: ingest is O(message) into per-tenant rollups and a
//! `/metrics` scrape is O(tenants × families), independent of how many
//! diffs were ever ingested (rollups, not logs). This bench sweeps the
//! tenant count 1 → 64 with a fixed message volume and measures
//!
//! * **diffs/sec** through the pure aggregation core (`ingest`: enqueue +
//!   drain, the in-process publisher path);
//! * **render latency** of the Prometheus exposition straight off the
//!   core;
//! * **scrape latency** of a real daemon's `/metrics` over HTTP
//!   (loopback), pump thread and mutex included;
//! * **wire codec cost**: host µs per `SessionDiffMsg::to_line` and
//!   `from_line`, and ns per byte, at 2, 20 and 320 files per message.
//!
//! Acceptance: ingest throughput at 64 tenants stays within 4× of the
//! single-tenant rate (per-tenant state is hash-keyed, so fan-out should
//! cost little), a 64-tenant HTTP scrape stays under 50 ms, and decoding
//! a 320-file line costs at most 1.5× the ns per byte of a 2-file line
//! (the codec is linear in the line's length).

use std::hint::black_box;
use std::time::Instant;

use serve::{Aggregator, AggregatorConfig, LocalPublisher, Publisher, ServeConfig, ServeDaemon};
use tfdarshan::analysis::FileActivity;
use tfdarshan::wire::{SessionDiffMsg, WIRE_VERSION};
use tfdarshan::TfDarshanReport;

/// Messages ingested per sweep point (fixed volume; tenants vary).
const MESSAGES: usize = 20_000;
/// Files per synthetic session diff (a realistic per-window table).
const FILES_PER_MSG: usize = 20;
/// `/metrics` renders/scrapes averaged per point.
const SCRAPES: usize = 50;
/// Files per message of the wire-codec rows: the fleet benchmark's shape,
/// this bench's ingest messages, and a large per-window file table.
const CODEC_FILES: [usize; 3] = [2, FILES_PER_MSG, 320];
/// Timed batches per codec row; the fastest counts.
const CODEC_BATCHES: usize = 7;

fn synth_msg(job: &str, seq: u64, files: usize) -> SessionDiffMsg {
    let mut report = TfDarshanReport {
        window: (seq as f64, seq as f64 + 1.0),
        ..Default::default()
    };
    report.io.reads = 64;
    report.io.bytes_read = 64 << 20;
    report.io.read_size_hist[6] = 64;
    report.files = (0..files)
        .map(|i| FileActivity {
            path: format!("/data/{job}/shard-{:04}.tfrecord", (seq as usize + i) % 512),
            reads: 3,
            bytes_read: (64 << 20) / files as u64,
            apparent_size: 128 << 20,
            read_time: 0.004,
        })
        .collect();
    SessionDiffMsg {
        v: WIRE_VERSION,
        job: job.into(),
        rank: (seq % 4) as u32,
        seq: seq / 4,
        report,
    }
}

/// One sweep point through the pure core. Returns
/// `(diffs/sec, avg render ms, exposition bytes)`.
fn core_point(tenants: usize) -> (f64, f64, usize) {
    let jobs: Vec<String> = (0..tenants).map(|t| format!("train-{t:03}")).collect();
    let msgs: Vec<SessionDiffMsg> = (0..MESSAGES)
        .map(|i| synth_msg(&jobs[i % tenants], (i / tenants) as u64, FILES_PER_MSG))
        .collect();

    let mut agg = Aggregator::new(AggregatorConfig::default());
    let t0 = Instant::now();
    for m in msgs {
        agg.ingest(m);
    }
    let ingest_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..SCRAPES {
        bytes = agg.render_metrics().len();
    }
    let render_ms = t0.elapsed().as_secs_f64() * 1e3 / SCRAPES as f64;

    (MESSAGES as f64 / ingest_secs, render_ms, bytes)
}

/// HTTP scrape latency against a live daemon pre-loaded with `tenants`
/// tenants. Returns average ms per `/metrics` GET.
fn daemon_scrape_ms(tenants: usize) -> f64 {
    let daemon = ServeDaemon::start(ServeConfig::default()).expect("daemon binds");
    let local = LocalPublisher::new(daemon.service());
    for i in 0..MESSAGES.min(4_000) {
        let job = format!("train-{:03}", i % tenants);
        local
            .publish(&synth_msg(&job, (i / tenants) as u64, FILES_PER_MSG))
            .unwrap();
    }
    // First scrape drains the queues; measure steady-state scrapes.
    let _ = daemon.get("/metrics").expect("warmup scrape");
    let t0 = Instant::now();
    for _ in 0..SCRAPES {
        let (status, _) = daemon.get("/metrics").expect("scrape");
        assert_eq!(status, 200);
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / SCRAPES as f64;
    daemon.shutdown();
    ms
}

/// Fastest of `CODEC_BATCHES` batches of `reps` calls of `op`, in host µs
/// per call.
fn best_us(reps: usize, mut op: impl FnMut()) -> f64 {
    (0..CODEC_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One wire-codec row. Returns `(line bytes, encode µs, decode µs)`.
fn codec_point(files: usize) -> (usize, f64, f64) {
    let msg = synth_msg("train-000", 7, files);
    let line = msg.to_line();
    // About 2 MB of text per batch, so short lines are not timer-bound.
    let reps = (2_000_000 / line.len()).max(20);
    let encode_us = best_us(reps, || {
        black_box(black_box(&msg).to_line());
    });
    let decode_us = best_us(reps, || {
        black_box(SessionDiffMsg::from_line(black_box(&line)).expect("wire line decodes"));
    });
    (line.len(), encode_us, decode_us)
}

fn main() {
    bench::header(
        "ablation_serve_ingest",
        "serve daemon: ingest throughput and /metrics latency vs tenant count",
    );

    let sweep = [1usize, 4, 16, 64];
    let mut points = Vec::new();
    for &tenants in &sweep {
        let (rate, render_ms, bytes) = core_point(tenants);
        let scrape_ms = daemon_scrape_ms(tenants);
        println!(
            "tenants {tenants:>3}: {rate:>12.0} diffs/s   render {render_ms:>7.3} ms   http scrape {scrape_ms:>7.3} ms   exposition {bytes:>7} B"
        );
        points.push((tenants, rate, render_ms, scrape_ms, bytes));
    }

    let mut codec = Vec::new();
    for files in CODEC_FILES {
        let (bytes, encode_us, decode_us) = codec_point(files);
        let (encode_ns_b, decode_ns_b) = (
            encode_us * 1e3 / bytes as f64,
            decode_us * 1e3 / bytes as f64,
        );
        println!(
            "wire {files:>3} files: {bytes:>6} B   encode {encode_us:>8.2} us ({encode_ns_b:.2} ns/B)   decode {decode_us:>8.2} us ({decode_ns_b:.2} ns/B)"
        );
        codec.push((files, bytes, encode_us, decode_us, encode_ns_b, decode_ns_b));
    }

    let single = points[0].1;
    let widest = points.last().unwrap();
    let ok_rate = widest.1 >= single / 4.0;
    let ok_scrape = widest.3 < 50.0;
    bench::row(
        "64-tenant ingest rate vs 1-tenant",
        ">= 0.25x",
        &format!("{:.2}x", widest.1 / single),
        ok_rate,
    );
    bench::row(
        "64-tenant /metrics HTTP scrape",
        "< 50 ms",
        &format!("{:.3} ms", widest.3),
        ok_scrape,
    );
    let decode_ratio = codec.last().unwrap().5 / codec[0].5;
    let ok_codec = decode_ratio <= 1.5;
    bench::row(
        "wire decode ns/B, 320 vs 2 files",
        "<= 1.5x",
        &format!("{decode_ratio:.2}x"),
        ok_codec,
    );

    bench::save_json(
        "ablation_serve_ingest",
        &serde_json::json!({
            "messages_per_point": MESSAGES,
            "files_per_message": FILES_PER_MSG,
            "sweep": points
                .iter()
                .map(|(tenants, rate, render_ms, scrape_ms, bytes)| {
                    serde_json::json!({
                        "tenants": tenants,
                        "ingest_diffs_per_sec": rate,
                        "render_metrics_ms": render_ms,
                        "http_scrape_ms": scrape_ms,
                        "exposition_bytes": bytes,
                    })
                })
                .collect::<Vec<_>>(),
            "wire_codec": codec
                .iter()
                .map(|(files, bytes, encode_us, decode_us, encode_ns_b, decode_ns_b)| {
                    serde_json::json!({
                        "files_per_message": files,
                        "line_bytes": bytes,
                        "encode_us": encode_us,
                        "decode_us": decode_us,
                        "encode_ns_per_byte": encode_ns_b,
                        "decode_ns_per_byte": decode_ns_b,
                    })
                })
                .collect::<Vec<_>>(),
            "accept": {
                "ingest_rate_ratio_64_vs_1": widest.1 / single,
                "ok_rate": ok_rate,
                "http_scrape_ms_64": widest.3,
                "ok_scrape": ok_scrape,
                "decode_ns_per_byte_ratio_320_vs_2": decode_ratio,
                "ok_codec": ok_codec,
            },
        }),
    );

    if !(ok_rate && ok_scrape && ok_codec) {
        std::process::exit(1);
    }
}
