//! Property test: `SessionDiffMsg::from_line` under hostile input and
//! version skew. The text a producer sends may differ from the canonical
//! line in key order and whitespace, carry keys a newer producer added,
//! lack `#[serde(default)]` fields an older producer did not know, repeat
//! a key, or arrive truncated or corrupted. Every form that is valid JSON
//! for the schema must decode to the message the canonical line encodes;
//! every other form must be an `Err`, never a panic.

use proptest::prelude::*;
use serde_json::{json, Value};

use tf_darshan::iosan::SanitizerSummary;
use tf_darshan::simrt::SchedStats;
use tf_darshan::tfdarshan::analysis::{FileActivity, IoStats, StdioStats};
use tf_darshan::tfdarshan::report::ExploreSummary;
use tf_darshan::tfdarshan::wire::{SessionDiffMsg, WIRE_VERSION};
use tf_darshan::tfdarshan::TfDarshanReport;

/// Dyadic floats, which print as exact short decimals.
fn exact_f64() -> impl Strategy<Value = f64> {
    any::<u32>().prop_map(|n| (n % 2_000_000) as f64 / 64.0)
}

/// Strings with every JSON escape class next to multibyte characters.
fn text() -> impl Strategy<Value = String> {
    "[\u{0}-\u{1f} -~α✓🦀]{0,16}"
}

/// splitmix64: one seed fills the many counters of a report.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn msg() -> impl Strategy<Value = SessionDiffMsg> {
    (
        (text(), any::<u32>(), any::<u64>(), any::<u64>()),
        prop::collection::vec((text(), exact_f64()), 0..4),
        prop::collection::vec(text(), 0..3),
        (exact_f64(), exact_f64(), exact_f64()),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((job, rank, seq, seed), files, categories, (a, b, c), (san, sched, expl))| {
                let mut r = Rng(seed);
                let mut io = IoStats {
                    window_secs: a,
                    files_opened: r.next(),
                    files_active: r.next(),
                    opens: r.next(),
                    reads: r.next(),
                    writes: r.next(),
                    seeks: r.next(),
                    stats: r.next(),
                    bytes_read: r.next(),
                    bytes_written: r.next(),
                    read_bandwidth_mibps: b,
                    write_bandwidth_mibps: c,
                    seq_reads: r.next(),
                    consec_reads: r.next(),
                    zero_reads: r.next(),
                    common_read_sizes: (0..r.below(3)).map(|_| (r.next(), r.next())).collect(),
                    read_time: a + b,
                    meta_time: c,
                    partial: seed % 2 == 0,
                    ..Default::default()
                };
                for i in 0..10 {
                    io.read_size_hist[i] = r.next();
                    io.write_size_hist[i] = r.next();
                    io.file_size_hist[i] = r.next();
                }
                let report = TfDarshanReport {
                    window: (a, a + c),
                    io,
                    stdio: StdioStats {
                        opens: r.next(),
                        writes: r.next(),
                        reads: r.next(),
                        bytes_written: r.next(),
                        bytes_read: r.next(),
                        flushes: r.next(),
                    },
                    files: files
                        .into_iter()
                        .map(|(path, read_time)| FileActivity {
                            path,
                            reads: r.next(),
                            bytes_read: r.next(),
                            apparent_size: r.next(),
                            read_time,
                        })
                        .collect(),
                    sanitizer: san.then(|| SanitizerSummary {
                        findings: r.next(),
                        errors: r.next(),
                        warnings: r.next(),
                        events_analyzed: r.next(),
                        categories: categories.clone(),
                    }),
                    scheduler: sched.then(|| SchedStats {
                        switches: r.next(),
                        fast_advances: r.next(),
                        event_polls: r.next(),
                        carrier_spawns: r.next(),
                        event_spawns: r.next(),
                        peak_heap_depth: r.next() as usize,
                        peak_live_tasks: r.next() as usize,
                        heap_compactions: r.next(),
                        decision_points: r.next(),
                        schedules_run: r.next(),
                        schedules_pruned: r.next(),
                        max_preemptions_used: r.next(),
                    }),
                    explore: expl.then(|| ExploreSummary {
                        schedules_run: r.next(),
                        schedules_pruned: r.next(),
                        decision_points: r.next(),
                        max_preemptions_used: r.next(),
                        distinct_findings: r.next(),
                        schedules_with_findings: r.next(),
                        budget_exhausted: seed % 3 == 0,
                        categories,
                    }),
                };
                SessionDiffMsg {
                    v: WIRE_VERSION,
                    job,
                    rank,
                    seq,
                    report,
                }
            },
        )
}

/// How `render` departs from the canonical text.
#[derive(Clone, Copy, Default)]
struct Skew {
    /// Shuffle the members of every object.
    reorder: bool,
    /// Put random JSON whitespace around every token.
    pad: bool,
    /// Add keys this schema does not know to every object.
    unknown: bool,
    /// Precede every member with a same-key decoy of another type.
    duplicate: bool,
}

/// Values a newer producer might send, or a decoy a duplicate key hides.
fn stray(rng: &mut Rng) -> Value {
    let strays = [
        json!(null),
        json!(true),
        json!(-12.5e3),
        json!(18446744073709551615u64),
        json!("newer \"field\" \\ 🦀\n"),
        json!([]),
        json!({}),
        json!([1, [2, [3, {"deep": [null, false]}]], "x"]),
        json!({"nested": {"v": 2, "list": [{"a": "b"}]}}),
    ];
    strays[rng.below(strays.len())].clone()
}

fn pad(out: &mut String, skew: Skew, rng: &mut Rng) {
    if skew.pad {
        for _ in 0..rng.below(3) {
            out.push([' ', '\t', '\n', '\r'][rng.below(4)]);
        }
    }
}

fn member(out: &mut String, first: &mut bool, k: &str, v: &Value, skew: Skew, rng: &mut Rng) {
    if !*first {
        out.push(',');
    }
    *first = false;
    pad(out, skew, rng);
    out.push_str(&serde_json::to_string(k).unwrap());
    pad(out, skew, rng);
    out.push(':');
    render(out, v, skew, rng);
}

/// Write `v` as JSON text with the departures `skew` asks for.
fn render(out: &mut String, v: &Value, skew: Skew, rng: &mut Rng) {
    pad(out, skew, rng);
    match v {
        Value::Object(map) => {
            let mut members: Vec<(&String, &Value)> = map.iter().collect();
            if skew.reorder {
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.below(i + 1));
                }
            }
            out.push('{');
            let mut first = true;
            for (k, v) in members {
                if skew.unknown && rng.below(2) == 0 {
                    let k = format!("newer_{}", rng.below(1000));
                    member(out, &mut first, &k, &stray(rng), Skew::default(), rng);
                }
                if skew.duplicate {
                    member(out, &mut first, k, &stray(rng), Skew::default(), rng);
                }
                member(out, &mut first, k, v, skew, rng);
            }
            if skew.unknown {
                member(
                    out,
                    &mut first,
                    "zz_newer",
                    &stray(rng),
                    Skew::default(),
                    rng,
                );
            }
            pad(out, skew, rng);
            out.push('}');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(out, item, skew, rng);
            }
            pad(out, skew, rng);
            out.push(']');
        }
        scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
    }
    pad(out, skew, rng);
}

/// The members of a message tree's `report` object.
fn report_members(msg: &mut Value) -> &mut serde_json::Map<String, Value> {
    let Value::Object(top) = msg else {
        unreachable!()
    };
    let Some(Value::Object(report)) = top.get_mut("report") else {
        unreachable!()
    };
    report
}

fn decodes_to(text: &str, canonical: &str) {
    let back = SessionDiffMsg::from_line(text)
        .unwrap_or_else(|e| panic!("{e}: a valid skewed form failed to decode:\n{text}"));
    assert_eq!(back.to_line(), canonical, "decoded from:\n{text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skewed_but_valid_forms_decode_to_the_canonical_message(m in msg(), seed in any::<u64>()) {
        let line = m.to_line();
        let tree: Value = serde_json::from_str(&line).unwrap();
        let mut rng = Rng(seed);
        decodes_to(&serde_json::to_string_pretty(&m).unwrap(), &line);
        for skew in [
            Skew { reorder: true, ..Skew::default() },
            Skew { pad: true, ..Skew::default() },
            Skew { unknown: true, ..Skew::default() },
            Skew { duplicate: true, ..Skew::default() },
            Skew { reorder: true, pad: true, unknown: true, duplicate: true },
        ] {
            let mut text = String::new();
            render(&mut text, &tree, skew, &mut rng);
            decodes_to(&text, &line);
        }
    }

    #[test]
    fn fields_an_older_producer_lacks_decode_to_their_defaults(m in msg()) {
        let mut tree: Value = serde_json::from_str(&m.to_line()).unwrap();
        let mut old = m.clone();
        if let Some(Value::Object(sched)) = report_members(&mut tree).get_mut("scheduler") {
            for k in ["decision_points", "schedules_run", "schedules_pruned", "max_preemptions_used"] {
                sched.remove(k);
            }
            let s = old.report.scheduler.as_mut().unwrap();
            (s.decision_points, s.schedules_run, s.schedules_pruned, s.max_preemptions_used) =
                (0, 0, 0, 0);
        }
        decodes_to(&serde_json::to_string(&tree).unwrap(), &old.to_line());
        for k in ["sanitizer", "scheduler", "explore"] {
            report_members(&mut tree).remove(k);
        }
        (old.report.sanitizer, old.report.scheduler, old.report.explore) = (None, None, None);
        decodes_to(&serde_json::to_string(&tree).unwrap(), &old.to_line());
    }

    #[test]
    fn truncated_and_corrupted_lines_are_errors_or_valid_messages(m in msg(), seed in any::<u64>()) {
        let line = m.to_line();
        let check = |text: &str| {
            if let Ok(back) = SessionDiffMsg::from_line(text) {
                // A message that decoded re-encodes to one NDJSON line.
                let again = back.to_line();
                prop_assert!(!again.contains('\n'));
            }
        };
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            prop_assert!(SessionDiffMsg::from_line(&line[..cut]).is_err(), "prefix {cut} decoded");
        }
        let mut rng = Rng(seed);
        for _ in 0..200 {
            let mut bytes = line.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(bytes.len());
                let corrupt = b"{}[]\":,\\-.0e9 nultrsfaE+x\xce\xb1";
                bytes[i] = corrupt[rng.below(corrupt.len())];
            }
            if let Ok(text) = std::str::from_utf8(&bytes) {
                check(text);
            }
        }
    }
}
