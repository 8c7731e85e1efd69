//! Property tests proving the interned-id probe spine is observably
//! lossless: an event stream built with `PathId` targets, buffered in
//! per-thread rings and delivered in batched flushes is — once resolved
//! through the interner's names table — field-identical to the shadow
//! stream described with plain strings, and every aggregate a sink could
//! fold from it (per-path byte counters, per-kind counts) is unchanged.
//!
//! The generator deliberately crosses [`probe::RING_CAPACITY`] so the
//! ring-full inline-flush path is exercised alongside the explicit
//! flush-at-extraction path, and draws targets from a small pool so the
//! interner's dedup (same string ⇒ same id) is load-bearing.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use tf_darshan::probe::{
    self, CollectingSink, EventKind, IoEvent, Origin, ProbeBus, RING_CAPACITY,
};
use tf_darshan::simrt::{SimTime, SyncOp, TaskId};

// ---------------------------------------------------------------------------
// Shadow model: the pre-refactor event description, targets as strings.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct ShadowEvent {
    task: u64,
    pid: u32,
    t0: u64,
    dt: u64,
    origin: Origin,
    target: String,
    kind: ShadowKind,
}

#[derive(Clone, Debug, PartialEq)]
enum ShadowKind {
    Open { fd: i32 },
    Read { fd: i32, offset: u64, len: u64 },
    Write { fd: i32, offset: u64, len: u64 },
    StdioRead { stream: u64, pos: u64, len: u64 },
    Stat,
    Sync { op: SyncOp, obj: u64 },
}

fn origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::App),
        Just(Origin::StdioInternal),
        Just(Origin::Prefetch),
    ]
}

/// Targets come from a small pool plus occasional fresh strings, so most
/// events share interned ids (the production pattern) while new paths keep
/// forcing interner inserts mid-stream.
fn target() -> impl Strategy<Value = String> {
    // A fixed pool so most events share interned ids (the production
    // pattern), plus a random-path arm that keeps forcing interner inserts
    // mid-stream. The empty string exercises the pre-seeded id 0.
    prop_oneof![
        Just("/d/train/shard-0000".to_string()),
        Just("/d/train/shard-0001".to_string()),
        Just("/mnt/lustre/imagenet/n01440764/img.JPEG".to_string()),
        Just("/tmp/ckpt.tmp".to_string()),
        Just(String::new()),
        "/[a-z]{1,8}/[a-z0-9]{1,10}".prop_map(|s| s),
    ]
}

fn shadow_kind() -> impl Strategy<Value = ShadowKind> {
    prop_oneof![
        (0i32..64).prop_map(|fd| ShadowKind::Open { fd }),
        (0i32..64, any::<u64>(), 0u64..1 << 20).prop_map(|(fd, offset, len)| ShadowKind::Read {
            fd,
            offset,
            len
        }),
        (0i32..64, any::<u64>(), 0u64..1 << 20).prop_map(|(fd, offset, len)| ShadowKind::Write {
            fd,
            offset,
            len
        }),
        (any::<u64>(), any::<u64>(), 0u64..1 << 20)
            .prop_map(|(stream, pos, len)| ShadowKind::StdioRead { stream, pos, len }),
        Just(ShadowKind::Stat),
        (any::<u64>()).prop_map(|obj| ShadowKind::Sync {
            op: SyncOp::Signal,
            obj
        }),
    ]
}

fn shadow_event() -> impl Strategy<Value = ShadowEvent> {
    (
        (0u64..8, 0u32..4, any::<u64>(), 0u64..1_000_000),
        (origin(), target(), shadow_kind()),
    )
        .prop_map(
            |((task, pid, t0, dt), (origin, target, kind))| ShadowEvent {
                task,
                pid,
                t0,
                dt,
                origin,
                target,
                kind,
            },
        )
}

/// Build the real event exactly as the emission layer does: targets and
/// span labels interned to `PathId`s, everything else carried verbatim.
fn realize(s: &ShadowEvent) -> IoEvent {
    IoEvent {
        task: TaskId(s.task),
        pid: s.pid,
        t0: SimTime::from_nanos(s.t0),
        t1: SimTime::from_nanos(s.t0.saturating_add(s.dt)),
        origin: s.origin,
        target: probe::intern(&s.target),
        kind: match &s.kind {
            ShadowKind::Open { fd } => EventKind::Open { fd: *fd },
            ShadowKind::Read { fd, offset, len } => EventKind::Read {
                fd: *fd,
                offset: *offset,
                len: *len,
            },
            ShadowKind::Write { fd, offset, len } => EventKind::Write {
                fd: *fd,
                offset: *offset,
                len: *len,
            },
            ShadowKind::StdioRead { stream, pos, len } => EventKind::StdioRead {
                stream: *stream,
                pos: *pos,
                len: *len,
            },
            ShadowKind::Stat => EventKind::Stat,
            ShadowKind::Sync { op, obj } => EventKind::Sync { op: *op, obj: *obj },
        },
    }
}

/// Field-by-field comparison of a delivered event against its shadow,
/// resolving interned ids back through the names table.
fn assert_equivalent(shadow: &ShadowEvent, got: &IoEvent) {
    prop_assert_eq!(got.task, TaskId(shadow.task));
    prop_assert_eq!(got.pid, shadow.pid);
    prop_assert_eq!(got.t0, SimTime::from_nanos(shadow.t0));
    prop_assert_eq!(
        got.t1,
        SimTime::from_nanos(shadow.t0.saturating_add(shadow.dt))
    );
    prop_assert_eq!(got.origin, shadow.origin);
    prop_assert_eq!(&*got.target.resolve(), shadow.target.as_str());
    match (&shadow.kind, &got.kind) {
        (ShadowKind::Open { fd }, EventKind::Open { fd: g }) => prop_assert_eq!(g, fd),
        (
            ShadowKind::Read { fd, offset, len },
            EventKind::Read {
                fd: gf,
                offset: go,
                len: gl,
            },
        ) => {
            prop_assert_eq!((gf, go, gl), (fd, offset, len));
        }
        (
            ShadowKind::Write { fd, offset, len },
            EventKind::Write {
                fd: gf,
                offset: go,
                len: gl,
            },
        ) => {
            prop_assert_eq!((gf, go, gl), (fd, offset, len));
        }
        (
            ShadowKind::StdioRead { stream, pos, len },
            EventKind::StdioRead {
                stream: gs,
                pos: gp,
                len: gl,
            },
        ) => {
            prop_assert_eq!((gs, gp, gl), (stream, pos, len));
        }
        (ShadowKind::Stat, EventKind::Stat) => {}
        (ShadowKind::Sync { op, obj }, EventKind::Sync { op: go, obj: gb }) => {
            prop_assert_eq!((go, gb), (op, obj));
        }
        (s, g) => panic!("kind mismatch: shadow {s:?} vs delivered {g:?}"),
    }
}

// ---------------------------------------------------------------------------
// Interner: resolve is the exact inverse of intern; ids are identity.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn intern_round_trips_and_is_injective(
        strings in prop::collection::vec(target(), 1..40)
    ) {
        let ids: Vec<_> = strings.iter().map(|s| probe::intern(s)).collect();
        for (s, id) in strings.iter().zip(&ids) {
            prop_assert_eq!(&*id.resolve(), s.as_str());
        }
        // Same string ⇒ same id, different string ⇒ different id.
        for (i, (si, idi)) in strings.iter().zip(&ids).enumerate() {
            for (sj, idj) in strings.iter().zip(&ids).skip(i) {
                prop_assert_eq!(si == sj, idi == idj);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ring + batched flush: the delivered stream is the emitted stream.
// ---------------------------------------------------------------------------

proptest! {
    // Streams up to 2.5 rings long: overflow-flush and tail-flush both run.
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn delivered_stream_is_field_identical(
        shadows in prop::collection::vec(shadow_event(), 1..(RING_CAPACITY * 5 / 2))
    ) {
        let bus = ProbeBus::new();
        let sink = Arc::new(CollectingSink::new());
        bus.register(sink.clone());
        for s in &shadows {
            bus.emit(realize(s));
        }
        probe::flush_current_thread();
        let got = sink.take();
        prop_assert_eq!(got.len(), shadows.len());
        for (shadow, ev) in shadows.iter().zip(&got) {
            assert_equivalent(shadow, ev);
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregates: byte totals per resolved path match the string-keyed model.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn per_path_aggregates_unchanged(
        shadows in prop::collection::vec(shadow_event(), 1..400)
    ) {
        // Reference fold over the string-described stream.
        let mut expect: HashMap<String, (u64, u64)> = HashMap::new(); // (events, bytes)
        for s in &shadows {
            let bytes = match &s.kind {
                ShadowKind::Read { len, .. }
                | ShadowKind::Write { len, .. }
                | ShadowKind::StdioRead { len, .. } => *len,
                _ => 0,
            };
            let e = expect.entry(s.target.clone()).or_default();
            e.0 += 1;
            e.1 += bytes;
        }

        // Fold of the delivered interned stream, resolved at fold time —
        // the pattern every real sink (Darshan, dstat, iosan) follows.
        let bus = ProbeBus::new();
        let sink = Arc::new(CollectingSink::new());
        bus.register(sink.clone());
        for s in &shadows {
            bus.emit(realize(s));
        }
        probe::flush_current_thread();
        let mut got: HashMap<String, (u64, u64)> = HashMap::new();
        for ev in sink.take() {
            let bytes = match ev.kind {
                EventKind::Read { len, .. }
                | EventKind::Write { len, .. }
                | EventKind::StdioRead { len, .. } => len,
                _ => 0,
            };
            let e = got.entry(ev.target.resolve().to_string()).or_default();
            e.0 += 1;
            e.1 += bytes;
        }
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// Fan-out: every registered sink sees the identical batch sequence.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn all_sinks_see_the_same_stream(
        shadows in prop::collection::vec(shadow_event(), 1..300)
    ) {
        let bus = ProbeBus::new();
        let sinks: Vec<Arc<CollectingSink>> = (0..3)
            .map(|_| {
                let s = Arc::new(CollectingSink::new());
                bus.register(s.clone());
                s
            })
            .collect();
        for s in &shadows {
            bus.emit(realize(s));
        }
        probe::flush_current_thread();
        let streams: Vec<Vec<IoEvent>> = sinks.iter().map(|s| s.take()).collect();
        for stream in &streams {
            prop_assert_eq!(stream.len(), shadows.len());
            for (shadow, ev) in shadows.iter().zip(stream) {
                assert_equivalent(shadow, ev);
            }
        }
    }
}
