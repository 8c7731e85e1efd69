//! Property tests pinning the Darshan event fold against its reference
//! model (`tests/support/reference_fold.rs`): random event streams, folded
//! in random batches through `DarshanSink` and through the reference, must
//! give identical snapshots (records, partial flags, names, DXT counts)
//! after every extraction, identical `dxt_between` windows for every
//! ordered pair of snapshots, and identical aggregates.
//!
//! The streams mix opens and memo reopens, descriptors first seen after
//! their `open` (the pre-attachment path), stat-by-path, zero-length reads
//! and writes, non-monotone completion times (out-of-order DXT inserts),
//! STDIO streams, mmap/msync/munmap, skipped origins and kinds, and small
//! record and segment caps.

#[path = "support/reference_fold.rs"]
mod reference_fold;

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use reference_fold::{RefFold, RefSnapshot};
use tf_darshan::darshan::{
    DarshanConfig, DarshanRuntime, DarshanSink, DxtSegment, Module, Record, Snapshot,
};
use tf_darshan::probe::{self, EventKind, IoEvent, Origin, ProbeSink};
use tf_darshan::simrt::{Sim, SimTime, TaskId};

const PATHS: [&str; 7] = [
    "/d/train/a",
    "/d/train/b",
    "/d/train/c",
    "/d/val/x",
    "/ckpt/model.h5",
    "/tmp/spool.bin",
    "/lustre/imagenet/n01440764/img.JPEG",
];

/// One generated event: origin, path index, kind, start (µs) and duration
/// (µs). Durations make completion order differ from start order.
type EvSpec = (u8, usize, EventKind, u64, u64);

#[derive(Clone, Debug)]
enum Action {
    Batch(Vec<EvSpec>),
    Snapshot,
    SnapshotFull,
}

fn len() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..200, 4096u64..4097, 100_000u64..2_000_000]
}

fn kind() -> impl Strategy<Value = EventKind> {
    let fd = || 0i32..6;
    let stream = || 0u64..4;
    let map = || 0u64..3;
    prop_oneof![
        fd().prop_map(|fd| EventKind::Open { fd }),
        fd().prop_map(|fd| EventKind::Open { fd }),
        fd().prop_map(|fd| EventKind::Close { fd }),
        (fd(), 0u64..1 << 20, len()).prop_map(|(fd, offset, len)| EventKind::Read {
            fd,
            offset,
            len
        }),
        (fd(), 0u64..1 << 20, len()).prop_map(|(fd, offset, len)| EventKind::Read {
            fd,
            offset,
            len
        }),
        (fd(), 0u64..1 << 20, len()).prop_map(|(fd, offset, len)| EventKind::Write {
            fd,
            offset,
            len
        }),
        (fd(), 0u64..1 << 20).prop_map(|(fd, to)| EventKind::Seek { fd, to }),
        Just(EventKind::Stat),
        fd().prop_map(|fd| EventKind::Fstat { fd }),
        fd().prop_map(|fd| EventKind::Fsync { fd }),
        (map(), fd()).prop_map(|(map, fd)| EventKind::Mmap {
            map,
            fd,
            offset: 0,
            len: 4096
        }),
        map().prop_map(|map| EventKind::Msync { map }),
        map().prop_map(|map| EventKind::Munmap { map }),
        map().prop_map(|map| EventKind::MmapFault {
            map,
            offset: 0,
            len: 4096,
            write: false
        }),
        stream().prop_map(|stream| EventKind::StdioOpen { stream }),
        stream().prop_map(|stream| EventKind::StdioClose { stream }),
        (stream(), 0u64..1 << 20, len()).prop_map(|(stream, pos, len)| EventKind::StdioRead {
            stream,
            pos,
            len
        }),
        (stream(), 0u64..1 << 20, len()).prop_map(|(stream, pos, len)| EventKind::StdioWrite {
            stream,
            pos,
            len
        }),
        (stream(), 0u64..1 << 20).prop_map(|(stream, to)| EventKind::StdioSeek { stream, to }),
        stream().prop_map(|stream| EventKind::StdioFlush { stream }),
    ]
}

fn ev_spec() -> impl Strategy<Value = EvSpec> {
    (0u8..10, 0..PATHS.len(), kind(), 0u64..5_000, 0u64..400)
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        prop::collection::vec(ev_spec(), 1..12).prop_map(Action::Batch),
        prop::collection::vec(ev_spec(), 1..12).prop_map(Action::Batch),
        prop::collection::vec(ev_spec(), 1..12).prop_map(Action::Batch),
        Just(Action::Snapshot),
        Just(Action::SnapshotFull),
    ]
}

fn config() -> impl Strategy<Value = DarshanConfig> {
    (
        prop_oneof![Just(2usize), Just(4usize), Just(1usize << 20)],
        prop_oneof![Just(6usize), Just(1usize << 22)],
        any::<bool>(),
    )
        .prop_map(|(records, segments, dxt)| DarshanConfig {
            max_records_per_module: records,
            dxt_max_segments: segments,
            dxt_enabled: dxt || segments > 6,
            snapshot_cost_per_record: std::time::Duration::ZERO,
            ..DarshanConfig::default()
        })
}

fn event(spec: &EvSpec) -> IoEvent {
    let (origin, path, kind, start, dur) = *spec;
    IoEvent {
        task: TaskId(1),
        pid: 1,
        t0: SimTime::from_nanos(start * 1_000),
        t1: SimTime::from_nanos((start + dur) * 1_000),
        origin: match origin {
            0 => Origin::StdioInternal,
            1 => Origin::Prefetch,
            _ => Origin::App,
        },
        target: probe::intern(PATHS[path]),
        kind,
    }
}

/// The comparable fields of one DXT segment (floats by bits).
type SegKey = (bool, u64, u64, u64, u64, u32);

fn seg_key(s: &DxtSegment) -> SegKey {
    (
        s.op == tf_darshan::darshan::DxtOp::Write,
        s.offset,
        s.length,
        s.start.to_bits(),
        s.end.to_bits(),
        s.rank,
    )
}

fn window_key(w: &[(u64, DxtSegment)]) -> Vec<(u64, SegKey)> {
    w.iter().map(|(id, s)| (*id, seg_key(s))).collect()
}

fn names_of(s: &Snapshot) -> HashMap<u64, String> {
    s.names.to_map()
}

fn records_match<M: Module>(
    what: &str,
    got: &[Arc<Record<M>>],
    want: &[Record<M>],
    out: &mut Vec<String>,
) {
    if got.len() != want.len() {
        out.push(format!(
            "{what}: {} records, reference {}",
            got.len(),
            want.len()
        ));
        return;
    }
    for (g, w) in got.iter().zip(want) {
        if g.rec_id != w.rec_id
            || g.counters != w.counters
            || g.fcounters != w.fcounters
            || g.dirty_epoch != w.dirty_epoch
        {
            out.push(format!(
                "{what}: record {:#x} differs: {g:?} vs {w:?}",
                w.rec_id
            ));
        }
    }
}

fn snapshot_match(i: usize, got: &Snapshot, want: &RefSnapshot, out: &mut Vec<String>) {
    records_match(&format!("snapshot {i} posix"), &got.posix, &want.posix, out);
    records_match(&format!("snapshot {i} stdio"), &got.stdio, &want.stdio, out);
    let fields = (
        got.epoch,
        got.posix_partial,
        got.stdio_partial,
        got.dxt_segments,
        got.dxt_truncated,
        got.dxt_pos,
    );
    let ref_fields = (
        want.epoch,
        want.posix_partial,
        want.stdio_partial,
        want.dxt_segments,
        want.dxt_truncated,
        want.dxt_pos,
    );
    if fields != ref_fields {
        out.push(format!("snapshot {i}: fields {fields:?} vs {ref_fields:?}"));
    }
    if names_of(got) != want.names {
        out.push(format!("snapshot {i}: names differ"));
    }
}

/// Fold `actions` through both implementations and list every difference.
fn run(config: DarshanConfig, actions: Vec<Action>) -> Vec<String> {
    let sim = Sim::new();
    let h = sim.spawn("fold", move || {
        let rt = Arc::new(DarshanRuntime::new(config.clone()));
        let sink = DarshanSink::new(rt.clone());
        let mut reference = RefFold::new(config);
        let mut out = Vec::new();
        let (mut snaps, mut ref_snaps) = (Vec::new(), Vec::new());
        for action in &actions {
            match action {
                Action::Batch(specs) => {
                    let events: Vec<IoEvent> = specs.iter().map(event).collect();
                    sink.on_events(&events);
                    reference.on_events(&events);
                }
                Action::Snapshot | Action::SnapshotFull => {
                    let (got, want) = (rt.dirty_record_count(), reference.dirty_record_count());
                    if got != want {
                        out.push(format!("dirty records {got} vs {want}"));
                    }
                    let full = matches!(action, Action::SnapshotFull);
                    snaps.push(if full {
                        rt.snapshot_full()
                    } else {
                        rt.snapshot()
                    });
                    ref_snaps.push(reference.snapshot(full));
                }
            }
        }
        snaps.push(rt.snapshot());
        ref_snaps.push(reference.snapshot(false));
        for (i, (got, want)) in snaps.iter().zip(&ref_snaps).enumerate() {
            snapshot_match(i, got, want, &mut out);
        }
        for (i, (a, ra)) in snaps.iter().zip(&ref_snaps).enumerate() {
            for (j, (b, rb)) in snaps.iter().zip(&ref_snaps).enumerate() {
                let (got, want) = (rt.dxt_between(a, b), reference.dxt_between(ra, rb));
                if window_key(&got) != window_key(&want) {
                    out.push(format!("dxt_between({i}, {j}) differs"));
                }
            }
        }
        for r in &ref_snaps[ref_snaps.len() - 1].posix {
            let got: Vec<_> = rt.dxt_of(r.rec_id).iter().map(seg_key).collect();
            let want: Vec<_> = reference.dxt_of(r.rec_id).iter().map(seg_key).collect();
            if got != want {
                out.push(format!("dxt_of({:#x}) differs", r.rec_id));
            }
        }
        let t = rt.totals();
        let totals = (
            t.posix_opens,
            t.posix_reads,
            t.posix_writes,
            t.posix_bytes_read,
            t.posix_bytes_written,
        );
        if totals != reference.totals {
            out.push(format!("totals {totals:?} vs {:?}", reference.totals));
        }
        out
    });
    sim.run();
    h.join()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fold_matches_the_reference_model(
        config in config(),
        actions in prop::collection::vec(action(), 1..40),
    ) {
        let diffs = run(config.clone(), actions.clone());
        prop_assert!(
            diffs.is_empty(),
            "{} differences under {config:?}, first: {:?}\nactions: {actions:?}",
            diffs.len(),
            &diffs[..diffs.len().min(5)]
        );
    }
}

/// A fixed stream through every branch at once, so a regression in one
/// arm shows without depending on the generator's draw.
#[test]
fn fold_matches_the_reference_on_every_event_kind() {
    let mut specs = Vec::new();
    let kinds = [
        EventKind::Read {
            fd: 3,
            offset: 0,
            len: 100,
        }, // before any open
        EventKind::Open { fd: 4 },
        EventKind::Read {
            fd: 4,
            offset: 0,
            len: 0,
        },
        EventKind::Write {
            fd: 4,
            offset: 0,
            len: 0,
        },
        EventKind::Read {
            fd: 4,
            offset: 10,
            len: 4096,
        },
        EventKind::Seek { fd: 4, to: 0 },
        EventKind::Stat,
        EventKind::Fstat { fd: 4 },
        EventKind::Fsync { fd: 4 },
        EventKind::Mmap {
            map: 1,
            fd: 4,
            offset: 0,
            len: 4096,
        },
        EventKind::Msync { map: 1 },
        EventKind::Munmap { map: 1 },
        EventKind::Msync { map: 1 },
        EventKind::Close { fd: 4 },
        EventKind::Open { fd: 5 },
        EventKind::StdioOpen { stream: 2 },
        EventKind::StdioWrite {
            stream: 2,
            pos: 0,
            len: 512,
        },
        EventKind::StdioRead {
            stream: 2,
            pos: 0,
            len: 0,
        },
        EventKind::StdioSeek { stream: 2, to: 0 },
        EventKind::StdioFlush { stream: 2 },
        EventKind::StdioClose { stream: 2 },
        EventKind::StdioOpen { stream: 3 },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        // Completion times run backwards every third event.
        let start = if i % 3 == 2 { 10 } else { 100 * i as u64 };
        specs.push((9, i % 3, kind, start, 50));
    }
    let actions = vec![
        Action::Batch(specs[..8].to_vec()),
        Action::Snapshot,
        Action::Batch(specs[8..15].to_vec()),
        Action::SnapshotFull,
        Action::Batch(specs[15..].to_vec()),
        Action::Snapshot,
    ];
    for records in [2, 1 << 20] {
        let config = DarshanConfig {
            max_records_per_module: records,
            snapshot_cost_per_record: std::time::Duration::ZERO,
            ..DarshanConfig::default()
        };
        let diffs = run(config, actions.clone());
        assert!(diffs.is_empty(), "{diffs:?}");
    }
}
