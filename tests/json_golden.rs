//! Golden bytes of the JSON writer: a fixed report, iosan finding,
//! advisor recommendations and hand-built `Value`, written compact and
//! pretty. Stored reports, wire lines and `results/` files depend on
//! these bytes, so any change in key order, number format, escaping,
//! `null` for non-finite floats or empty-container layout fails here.
//! The fixture covers unit enums (iosan `Severity`, `Category`), a
//! struct-variant enum (`Recommendation`), `skip_serializing_if`
//! sections present, every control character and a 4-byte character in
//! strings, and empty arrays and objects.

use tf_darshan::iosan::{Category, Finding, SanitizerSummary, Segment, Severity};
use tf_darshan::simrt::SchedStats;
use tf_darshan::tfdarshan::analysis::{FileActivity, IoStats, StdioStats};
use tf_darshan::tfdarshan::report::ExploreSummary;
use tf_darshan::tfdarshan::{Recommendation, TfDarshanReport};

/// Every fixture type in one tuple, written as one JSON array.
type Fixture = (
    TfDarshanReport,
    Finding,
    Vec<Recommendation>,
    serde_json::Value,
);

fn fixture() -> Fixture {
    // Every control character, a quote, a backslash and a 4-byte character.
    let hostile: String = (0u32..0x20)
        .filter_map(char::from_u32)
        .chain("\"\\/🦀".chars())
        .collect();
    let mut io = IoStats {
        window_secs: 1.75,
        files_opened: 2,
        files_active: 2,
        opens: 3,
        reads: 40,
        bytes_read: 5 << 20,
        read_bandwidth_mibps: f64::NAN,
        write_bandwidth_mibps: f64::INFINITY,
        zero_reads: 2,
        common_read_sizes: vec![(65536, 38), (0, 2)],
        read_time: 0.125,
        meta_time: f64::NEG_INFINITY,
        ..Default::default()
    };
    io.read_size_hist[0] = 2;
    io.read_size_hist[5] = 38;
    io.file_size_hist[6] = 2;
    let report = TfDarshanReport {
        window: (0.5, 2.25),
        io,
        stdio: StdioStats {
            opens: 1,
            writes: 4,
            bytes_written: 4096,
            flushes: 1,
            ..Default::default()
        },
        files: vec![
            FileActivity {
                path: format!("/data/{hostile}.rec"),
                reads: 21,
                bytes_read: 3 << 20,
                apparent_size: 3 << 20,
                read_time: 0.0625,
            },
            FileActivity {
                path: "/data/b.rec".into(),
                reads: 19,
                bytes_read: 2 << 20,
                apparent_size: 2 << 20,
                read_time: -0.0,
            },
        ],
        sanitizer: Some(SanitizerSummary {
            findings: 1,
            errors: 1,
            warnings: 0,
            events_analyzed: 120,
            categories: vec!["data_race".into()],
        }),
        scheduler: Some(SchedStats {
            switches: 17,
            fast_advances: 4,
            event_polls: 9,
            carrier_spawns: 3,
            event_spawns: 2,
            peak_heap_depth: 6,
            peak_live_tasks: 5,
            heap_compactions: 0,
            decision_points: 11,
            schedules_run: 0,
            schedules_pruned: 0,
            max_preemptions_used: 0,
        }),
        explore: Some(ExploreSummary {
            schedules_run: 8,
            schedules_pruned: 3,
            decision_points: 40,
            max_preemptions_used: 2,
            distinct_findings: 0,
            schedules_with_findings: 0,
            budget_exhausted: true,
            categories: vec![],
        }),
    };
    let finding = Finding {
        severity: Severity::Error,
        category: Category::DataRace,
        message: format!("overlapping writes {hostile}"),
        file: "/ckpt/model.ckpt".into(),
        tasks: vec![1, 2],
        segments: vec![Segment {
            task: 1,
            offset: 0,
            len: 4096,
            write: true,
            start: 1.5,
            end: 1e-7,
            event: 33,
        }],
        witnesses: vec![],
    };
    let recs = vec![
        Recommendation::IncreaseParallelism {
            to: 8,
            rationale: "metadata-bound".into(),
        },
        Recommendation::StageSmallFiles {
            threshold: 1 << 20,
            staged_bytes: 123_456_789,
            byte_fraction: 0.3,
            rationale: "small files".into(),
        },
        Recommendation::ZeroReadSignature { fraction: f64::NAN },
    ];
    let dynamic = serde_json::json!({
        "empty_object": {},
        "empty_array": [],
        "nested": {"k": [1, -2, 0.5, null, true, "x"]},
    });
    (report, finding, recs, dynamic)
}

const COMPACT: &str = r#"[{"explore":{"budget_exhausted":true,"categories":[],"decision_points":40,"distinct_findings":0,"max_preemptions_used":2,"schedules_pruned":3,"schedules_run":8,"schedules_with_findings":0},"files":[{"apparent_size":3145728,"bytes_read":3145728,"path":"/data/\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\/🦀.rec","read_time":0.0625,"reads":21},{"apparent_size":2097152,"bytes_read":2097152,"path":"/data/b.rec","read_time":-0,"reads":19}],"io":{"bytes_read":5242880,"bytes_written":0,"common_read_sizes":[[65536,38],[0,2]],"consec_reads":0,"file_size_hist":[0,0,0,0,0,0,2,0,0,0],"files_active":2,"files_opened":2,"meta_time":null,"opens":3,"partial":false,"read_bandwidth_mibps":null,"read_size_hist":[2,0,0,0,0,38,0,0,0,0],"read_time":0.125,"reads":40,"seeks":0,"seq_reads":0,"stats":0,"window_secs":1.75,"write_bandwidth_mibps":null,"write_size_hist":[0,0,0,0,0,0,0,0,0,0],"writes":0,"zero_reads":2},"sanitizer":{"categories":["data_race"],"errors":1,"events_analyzed":120,"findings":1,"warnings":0},"scheduler":{"carrier_spawns":3,"decision_points":11,"event_polls":9,"event_spawns":2,"fast_advances":4,"heap_compactions":0,"max_preemptions_used":0,"peak_heap_depth":6,"peak_live_tasks":5,"schedules_pruned":0,"schedules_run":0,"switches":17},"stdio":{"bytes_read":0,"bytes_written":4096,"flushes":1,"opens":1,"reads":0,"writes":4},"window":[0.5,2.25]},{"category":"DataRace","file":"/ckpt/model.ckpt","message":"overlapping writes \u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\/🦀","segments":[{"end":0.0000001,"event":33,"len":4096,"offset":0,"start":1.5,"task":1,"write":true}],"severity":"Error","tasks":[1,2],"witnesses":[]},[{"IncreaseParallelism":{"rationale":"metadata-bound","to":8}},{"StageSmallFiles":{"byte_fraction":0.3,"rationale":"small files","staged_bytes":123456789,"threshold":1048576}},{"ZeroReadSignature":{"fraction":null}}],{"empty_array":[],"empty_object":{},"nested":{"k":[1,-2,0.5,null,true,"x"]}}]"#;

const PRETTY: &str = r#"[
  {
    "explore": {
      "budget_exhausted": true,
      "categories": [],
      "decision_points": 40,
      "distinct_findings": 0,
      "max_preemptions_used": 2,
      "schedules_pruned": 3,
      "schedules_run": 8,
      "schedules_with_findings": 0
    },
    "files": [
      {
        "apparent_size": 3145728,
        "bytes_read": 3145728,
        "path": "/data/\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\/🦀.rec",
        "read_time": 0.0625,
        "reads": 21
      },
      {
        "apparent_size": 2097152,
        "bytes_read": 2097152,
        "path": "/data/b.rec",
        "read_time": -0,
        "reads": 19
      }
    ],
    "io": {
      "bytes_read": 5242880,
      "bytes_written": 0,
      "common_read_sizes": [
        [
          65536,
          38
        ],
        [
          0,
          2
        ]
      ],
      "consec_reads": 0,
      "file_size_hist": [
        0,
        0,
        0,
        0,
        0,
        0,
        2,
        0,
        0,
        0
      ],
      "files_active": 2,
      "files_opened": 2,
      "meta_time": null,
      "opens": 3,
      "partial": false,
      "read_bandwidth_mibps": null,
      "read_size_hist": [
        2,
        0,
        0,
        0,
        0,
        38,
        0,
        0,
        0,
        0
      ],
      "read_time": 0.125,
      "reads": 40,
      "seeks": 0,
      "seq_reads": 0,
      "stats": 0,
      "window_secs": 1.75,
      "write_bandwidth_mibps": null,
      "write_size_hist": [
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0
      ],
      "writes": 0,
      "zero_reads": 2
    },
    "sanitizer": {
      "categories": [
        "data_race"
      ],
      "errors": 1,
      "events_analyzed": 120,
      "findings": 1,
      "warnings": 0
    },
    "scheduler": {
      "carrier_spawns": 3,
      "decision_points": 11,
      "event_polls": 9,
      "event_spawns": 2,
      "fast_advances": 4,
      "heap_compactions": 0,
      "max_preemptions_used": 0,
      "peak_heap_depth": 6,
      "peak_live_tasks": 5,
      "schedules_pruned": 0,
      "schedules_run": 0,
      "switches": 17
    },
    "stdio": {
      "bytes_read": 0,
      "bytes_written": 4096,
      "flushes": 1,
      "opens": 1,
      "reads": 0,
      "writes": 4
    },
    "window": [
      0.5,
      2.25
    ]
  },
  {
    "category": "DataRace",
    "file": "/ckpt/model.ckpt",
    "message": "overlapping writes \u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\/🦀",
    "segments": [
      {
        "end": 0.0000001,
        "event": 33,
        "len": 4096,
        "offset": 0,
        "start": 1.5,
        "task": 1,
        "write": true
      }
    ],
    "severity": "Error",
    "tasks": [
      1,
      2
    ],
    "witnesses": []
  },
  [
    {
      "IncreaseParallelism": {
        "rationale": "metadata-bound",
        "to": 8
      }
    },
    {
      "StageSmallFiles": {
        "byte_fraction": 0.3,
        "rationale": "small files",
        "staged_bytes": 123456789,
        "threshold": 1048576
      }
    },
    {
      "ZeroReadSignature": {
        "fraction": null
      }
    }
  ],
  {
    "empty_array": [],
    "empty_object": {},
    "nested": {
      "k": [
        1,
        -2,
        0.5,
        null,
        true,
        "x"
      ]
    }
  }
]"#;

#[test]
fn compact_bytes_are_pinned() {
    assert_eq!(serde_json::to_string(&fixture()).unwrap(), COMPACT);
}

#[test]
fn pretty_bytes_are_pinned() {
    assert_eq!(serde_json::to_string_pretty(&fixture()).unwrap(), PRETTY);
}

#[test]
fn golden_text_reparses_to_the_same_bytes() {
    // Through the dynamic tree: parser and writer agree on every token.
    let v: serde_json::Value = serde_json::from_str(COMPACT).unwrap();
    assert_eq!(serde_json::to_string(&v).unwrap(), COMPACT);
    let v: serde_json::Value = serde_json::from_str(PRETTY).unwrap();
    assert_eq!(serde_json::to_string_pretty(&v).unwrap(), PRETTY);
}
