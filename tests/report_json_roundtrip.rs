//! Property test: `TfDarshanReport` JSON round-trips byte-stably and
//! field-identically — including the `#[serde(default)]` optional
//! sanitizer/scheduler sections, whose presence must survive and whose
//! absence must stay absent (old reports keep parsing). The same holds
//! one level up for the serve daemon's NDJSON wire messages.

use proptest::prelude::*;

use tf_darshan::iosan::SanitizerSummary;
use tf_darshan::simrt::SchedStats;
use tf_darshan::tfdarshan::analysis::{FileActivity, IoStats, StdioStats};
use tf_darshan::tfdarshan::wire::{SessionDiffMsg, WIRE_VERSION};
use tf_darshan::tfdarshan::TfDarshanReport;

/// Floats that print as short exact decimals (dyadic n/64), so
/// `parse(print(x)) == x` holds bit-exactly and byte-stability is a fair
/// ask of the serializer.
fn exact_f64() -> impl Strategy<Value = f64> {
    any::<u32>().prop_map(|n| (n % 2_000_000) as f64 / 64.0)
}

fn hist() -> impl Strategy<Value = [u64; 10]> {
    prop::collection::vec(any::<u64>(), 10usize)
        .prop_map(|v| <[u64; 10]>::try_from(v).expect("exactly 10"))
}

fn io_stats() -> impl Strategy<Value = IoStats> {
    (
        (
            exact_f64(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (exact_f64(), exact_f64()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (hist(), hist(), hist()),
        (
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
            exact_f64(),
            exact_f64(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (window_secs, files_opened, files_active, opens, reads, writes),
                (seeks, stats, bytes_read, bytes_written),
                (read_bandwidth_mibps, write_bandwidth_mibps),
                (seq_reads, consec_reads, zero_reads),
                (read_size_hist, write_size_hist, file_size_hist),
                (common_read_sizes, read_time, meta_time, partial),
            )| IoStats {
                window_secs,
                files_opened,
                files_active,
                opens,
                reads,
                writes,
                seeks,
                stats,
                bytes_read,
                bytes_written,
                read_bandwidth_mibps,
                write_bandwidth_mibps,
                seq_reads,
                consec_reads,
                zero_reads,
                read_size_hist,
                write_size_hist,
                file_size_hist,
                common_read_sizes,
                read_time,
                meta_time,
                partial,
            },
        )
}

fn stdio_stats() -> impl Strategy<Value = StdioStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(opens, writes, reads, bytes_written, bytes_read, flushes)| StdioStats {
                opens,
                writes,
                reads,
                bytes_written,
                bytes_read,
                flushes,
            },
        )
}

/// Paths with JSON- and HTML-hostile characters: quotes, backslashes,
/// angle brackets, ampersands, non-ASCII — all control characters, all
/// printable ASCII, and 2-, 3- and 4-byte literals, so every escape class
/// sits next to multibyte runs.
fn path() -> impl Strategy<Value = String> {
    "[\u{0}-\u{1f} -~α✓🦀]{0,24}"
}

fn file_activity() -> impl Strategy<Value = FileActivity> {
    (
        path(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        exact_f64(),
    )
        .prop_map(
            |(path, reads, bytes_read, apparent_size, read_time)| FileActivity {
                path,
                reads,
                bytes_read,
                apparent_size,
                read_time,
            },
        )
}

fn sanitizer() -> impl Strategy<Value = Option<SanitizerSummary>> {
    prop_oneof![
        Just(None),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(path(), 0..3),
        )
            .prop_map(
                |(findings, errors, warnings, events_analyzed, categories)| {
                    Some(SanitizerSummary {
                        findings,
                        errors,
                        warnings,
                        events_analyzed,
                        categories,
                    })
                }
            ),
    ]
}

fn scheduler() -> impl Strategy<Value = Option<SchedStats>> {
    prop_oneof![
        Just(None),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(
                |(switches, fast_advances, event_polls, carrier_spawns, a, b)| {
                    Some(SchedStats {
                        switches,
                        fast_advances,
                        event_polls,
                        carrier_spawns,
                        event_spawns: a,
                        peak_heap_depth: b as usize,
                        peak_live_tasks: (a ^ b) as usize,
                        heap_compactions: switches.wrapping_add(b),
                        decision_points: a.wrapping_add(b),
                        schedules_run: a ^ switches,
                        schedules_pruned: b ^ event_polls,
                        max_preemptions_used: carrier_spawns.wrapping_add(a),
                    })
                }
            ),
    ]
}

fn report() -> impl Strategy<Value = TfDarshanReport> {
    (
        (exact_f64(), exact_f64()),
        io_stats(),
        stdio_stats(),
        prop::collection::vec(file_activity(), 0..5),
        sanitizer(),
        scheduler(),
    )
        .prop_map(
            |(window, io, stdio, files, sanitizer, scheduler)| TfDarshanReport {
                window,
                io,
                stdio,
                files,
                sanitizer,
                scheduler,
                explore: None,
            },
        )
}

fn assert_reports_identical(a: &TfDarshanReport, b: &TfDarshanReport) {
    assert_eq!(a.window, b.window);
    let (x, y) = (&a.io, &b.io);
    assert_eq!(x.window_secs, y.window_secs);
    assert_eq!(x.files_opened, y.files_opened);
    assert_eq!(x.files_active, y.files_active);
    assert_eq!(x.opens, y.opens);
    assert_eq!(x.reads, y.reads);
    assert_eq!(x.writes, y.writes);
    assert_eq!(x.seeks, y.seeks);
    assert_eq!(x.stats, y.stats);
    assert_eq!(x.bytes_read, y.bytes_read);
    assert_eq!(x.bytes_written, y.bytes_written);
    assert_eq!(x.read_bandwidth_mibps, y.read_bandwidth_mibps);
    assert_eq!(x.write_bandwidth_mibps, y.write_bandwidth_mibps);
    assert_eq!(x.seq_reads, y.seq_reads);
    assert_eq!(x.consec_reads, y.consec_reads);
    assert_eq!(x.zero_reads, y.zero_reads);
    assert_eq!(x.read_size_hist, y.read_size_hist);
    assert_eq!(x.write_size_hist, y.write_size_hist);
    assert_eq!(x.file_size_hist, y.file_size_hist);
    assert_eq!(x.common_read_sizes, y.common_read_sizes);
    assert_eq!(x.read_time, y.read_time);
    assert_eq!(x.meta_time, y.meta_time);
    assert_eq!(x.partial, y.partial);
    let (x, y) = (&a.stdio, &b.stdio);
    assert_eq!(
        (
            x.opens,
            x.writes,
            x.reads,
            x.bytes_written,
            x.bytes_read,
            x.flushes
        ),
        (
            y.opens,
            y.writes,
            y.reads,
            y.bytes_written,
            y.bytes_read,
            y.flushes
        )
    );
    assert_eq!(a.files.len(), b.files.len());
    for (f, g) in a.files.iter().zip(&b.files) {
        assert_eq!(f.path, g.path);
        assert_eq!(f.reads, g.reads);
        assert_eq!(f.bytes_read, g.bytes_read);
        assert_eq!(f.apparent_size, g.apparent_size);
        assert_eq!(f.read_time, g.read_time);
    }
    assert_eq!(a.sanitizer, b.sanitizer);
    assert_eq!(a.scheduler, b.scheduler);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn report_json_roundtrip_is_byte_stable_and_field_identical(r in report()) {
        let json = r.to_json();
        let back = TfDarshanReport::from_json(&json).expect("round-trip parses");
        assert_reports_identical(&r, &back);
        // Byte-stable: serializing the parsed report reproduces the exact
        // bytes (so stored reports never churn on rewrite).
        prop_assert_eq!(back.to_json(), json);

        // Absent optional sections stay absent on the wire...
        if r.sanitizer.is_none() {
            prop_assert!(!json.contains("\"sanitizer\""));
        }
        if r.scheduler.is_none() {
            prop_assert!(!json.contains("\"scheduler\""));
        }

        // ...and the same report survives the serve daemon's NDJSON wire
        // format unchanged.
        let msg = SessionDiffMsg { v: WIRE_VERSION, job: "p".into(), rank: 1, seq: 2, report: r };
        let line = msg.to_line();
        prop_assert!(!line.contains('\n'));
        let back = SessionDiffMsg::from_line(&line).expect("wire parses");
        assert_reports_identical(&msg.report, &back.report);
        prop_assert_eq!(back.to_line(), line);
    }
}
