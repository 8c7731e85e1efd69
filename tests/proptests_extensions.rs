//! Property tests for the extension subsystems: cross-rank reduction,
//! TFRecord packing, and the dynamic-parallelism knob.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use tf_darshan::darshan::{reduce_job, DxtOp, DxtSegment, PosixCounter as P, PosixRecord};
use tf_darshan::tfdarshan::{JobReport, RankSession, SnapshotDiff};

#[path = "support/flat_reduce.rs"]
mod flat_reduce;

fn arb_record(id: u64) -> impl Strategy<Value = PosixRecord> {
    (0i64..1000, 0i64..1_000_000, 0i64..1_000_000, 0i64..100).prop_map(
        move |(reads, bytes, max_byte, opens)| {
            let mut r = PosixRecord::new(id);
            *r.get_mut(P::POSIX_OPENS) = opens;
            *r.get_mut(P::POSIX_READS) = reads;
            *r.get_mut(P::POSIX_BYTES_READ) = bytes;
            *r.get_mut(P::POSIX_MAX_BYTE_READ) = max_byte;
            *r.get_mut(P::POSIX_SEQ_READS) = reads / 2;
            r
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reduction is order-insensitive and grouping-insensitive for the
    /// additive and max counters (MPI reduce semantics).
    #[test]
    fn rank_reduction_is_associative_and_commutative(
        recs in prop::collection::vec(arb_record(42), 2..8),
        split in 1usize..7,
    ) {
        // Each record is one rank's view of the same file.
        let merge = |recs: &[PosixRecord]| {
            let per_rank: Vec<Vec<&PosixRecord>> = recs.iter().map(|r| vec![r]).collect();
            reduce_job(&per_rank).pop().unwrap()
        };
        let split = split.min(recs.len() - 1);
        let all_at_once = merge(&recs);
        // Merge in two groups, then merge the merged pair.
        let left = merge(&recs[..split]);
        let right = merge(&recs[split..]);
        let grouped = merge(&[left, right]);
        let mut rev = recs.clone();
        rev.reverse();
        let reversed = merge(&rev);
        for c in [
            P::POSIX_OPENS,
            P::POSIX_READS,
            P::POSIX_BYTES_READ,
            P::POSIX_MAX_BYTE_READ,
            P::POSIX_SEQ_READS,
        ] {
            prop_assert_eq!(all_at_once.get(c), grouped.get(c), "{} grouped", c.name());
            prop_assert_eq!(all_at_once.get(c), reversed.get(c), "{} reversed", c.name());
        }
    }

    /// Job reduction conserves additive totals across arbitrary rank
    /// partitions of the records.
    #[test]
    fn job_reduction_conserves_totals(
        files in prop::collection::vec(1u64..6, 1..24),
        ranks in 1usize..5,
    ) {
        // Build per-rank record lists: each entry is (rank, file) with a
        // deterministic payload derived from its index.
        let mut per_rank: Vec<Vec<PosixRecord>> = vec![Vec::new(); ranks];
        let mut expect_reads = 0i64;
        for (i, f) in files.iter().enumerate() {
            let mut r = PosixRecord::new(*f);
            *r.get_mut(P::POSIX_READS) = i as i64 + 1;
            *r.get_mut(P::POSIX_BYTES_READ) = (i as i64 + 1) * 100;
            expect_reads += i as i64 + 1;
            per_rank[i % ranks].push(r);
        }
        let job = reduce_job(&per_rank);
        let total_reads: i64 = job.iter().map(|r| r.get(P::POSIX_READS)).sum();
        let total_bytes: i64 = job.iter().map(|r| r.get(P::POSIX_BYTES_READ)).sum();
        prop_assert_eq!(total_reads, expect_reads);
        prop_assert_eq!(total_bytes, expect_reads * 100);
        // One record per distinct file id.
        let mut ids: Vec<u64> = files.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(job.len(), ids.len());
    }

    /// TFRecord pack → read returns exactly the payload bytes, for any
    /// size mix and shard split.
    #[test]
    fn tfrecord_roundtrip_conserves_payload(
        sizes in prop::collection::vec(1u64..200_000, 1..30),
        shard_mb in 1u64..4,
    ) {
        use tf_darshan::storage::{Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams,
                                  PageCache, StorageStack};
        use tf_darshan::tfsim::{TfRecordDataset, TfRuntime};

        let sim = simrt::Sim::new();
        let fs = LocalFs::new(
            Device::new(DeviceSpec::optane("nvme0")),
            Arc::new(PageCache::new(1 << 30)),
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/d", fs.clone() as Arc<dyn FileSystem>);
        let rt = TfRuntime::new(tf_darshan::posix::Process::new(stack), sim.clone(), 4);
        let sizes2 = sizes.clone();
        let h = sim.spawn("t", move || {
            // Source files.
            let files: Vec<String> = sizes2
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let path = format!("/d/src/{i}");
                    fs.create_synthetic(&path, s, i as u64).unwrap();
                    path
                })
                .collect();
            let shards =
                tf_darshan::tfsim::pack_files(&rt, &files, shard_mb << 20, "/d/packed").unwrap();
            let n_records: usize = shards.iter().map(|s| s.len()).sum();
            let ds = TfRecordDataset::new(shards).batch(4);
            let mut it = ds.iterate(&rt);
            let mut bytes = 0u64;
            let mut count = 0usize;
            while let Some(b) = it.next() {
                bytes += b.bytes;
                count += b.len;
            }
            (n_records, count, bytes)
        });
        sim.run();
        let (n_records, count, bytes) = h.join();
        prop_assert_eq!(n_records, sizes.len());
        prop_assert_eq!(count, sizes.len());
        prop_assert_eq!(bytes, sizes.iter().sum::<u64>());
    }

    /// Dynamic parallelism: for any target sequence, every element is
    /// processed exactly once and concurrency never exceeds the max.
    #[test]
    fn dynamic_parallelism_is_safe_under_target_changes(
        targets in prop::collection::vec(1usize..6, 1..8),
        n_files in 8usize..40,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use tf_darshan::tfsim::{Dataset, DynamicParallelism, Element, Parallelism, TfRuntime};

        let sim = simrt::Sim::new();
        let stack = tf_darshan::storage::StorageStack::new();
        let rt = TfRuntime::new(tf_darshan::posix::Process::new(stack), sim.clone(), 8);
        let ctl = DynamicParallelism::new(targets[0], 6);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        {
            let (p2, c2, d2) = (peak.clone(), cur.clone(), done.clone());
            let map: tf_darshan::tfsim::MapFn = Arc::new(move |_ctx, index, _path| {
                let c = c2.fetch_add(1, Ordering::SeqCst) + 1;
                p2.fetch_max(c, Ordering::SeqCst);
                simrt::sleep(Duration::from_micros(50));
                c2.fetch_sub(1, Ordering::SeqCst);
                d2.fetch_add(1, Ordering::SeqCst);
                Element { index, bytes: 1 }
            });
            let ctl2 = ctl.clone();
            let targets2 = targets.clone();
            let files: Vec<String> = (0..n_files).map(|i| format!("/f{i}")).collect();
            sim.spawn("consumer", move || {
                let ds = Dataset::from_files(files)
                    .map(map, Parallelism::Dynamic(ctl2.clone()))
                    .batch(2);
                let mut it = ds.iterate(&rt);
                let mut i = 0;
                while it.next().is_some() {
                    // Retarget as batches arrive.
                    ctl2.set_target(targets2[i % targets2.len()]);
                    i += 1;
                }
            });
        }
        sim.run();
        prop_assert_eq!(done.load(std::sync::atomic::Ordering::SeqCst), n_files);
        prop_assert!(peak.load(std::sync::atomic::Ordering::SeqCst) <= 6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental extraction is lossless: an arbitrary interleaving of
    /// I/O and incremental `snapshot()` calls yields record blocks
    /// byte-identical (counters incl. histograms and ACCESS1..4,
    /// fcounters, names, DXT) to replaying the same ops on a fresh
    /// runtime and extracting once at the end — the dirty-set engine
    /// loses nothing and double-counts nothing.
    #[test]
    fn incremental_snapshots_equal_one_shot_extraction(
        ops in prop::collection::vec(
            (0usize..4, 0u8..6, 1u64..9_000, 1u64..500), 1..120),
    ) {
        use simrt::SimTime;
        use tf_darshan::darshan::{DarshanConfig, DarshanRuntime};

        let sim = simrt::Sim::new();
        let ops2 = ops.clone();
        let h = sim.spawn("t", move || {
            let mk = || {
                DarshanRuntime::new(DarshanConfig {
                    per_op_overhead: Duration::ZERO,
                    new_record_overhead: Duration::ZERO,
                    snapshot_cost_per_record: Duration::ZERO,
                    ..Default::default()
                })
            };
            let live = mk();
            let replay = mk();
            let t0 = SimTime::from_nanos(0);
            let mut ids = Vec::new();
            let mut sids = Vec::new();
            for f in 0..4 {
                let path = format!("/d/f{f}");
                ids.push((
                    live.posix_open(&path, t0, t0).unwrap(),
                    replay.posix_open(&path, t0, t0).unwrap(),
                ));
                let spath = format!("/d/s{f}");
                sids.push((
                    live.stdio_open(&spath, t0, t0).unwrap(),
                    replay.stdio_open(&spath, t0, t0).unwrap(),
                ));
            }
            let mut offs = [0u64; 4];
            for (i, (f, kind, len, dur_us)) in ops2.into_iter().enumerate() {
                // Synthetic timeline: monotonic starts, randomized
                // durations, so DXT end times arrive out of order too.
                let a = SimTime::from_nanos((i as u64 + 1) * 1_000_000);
                let b = SimTime::from_nanos((i as u64 + 1) * 1_000_000 + dur_us * 1_000);
                let (lid, rid) = ids[f];
                match kind {
                    0 | 1 => {
                        // Sequential reads with occasional back-jumps
                        // (exercises SEQ/CONSEC and the histograms).
                        let off = if kind == 0 { offs[f] } else { offs[f] / 2 };
                        live.posix_read(lid, off, len, a, b);
                        replay.posix_read(rid, off, len, a, b);
                        offs[f] = off + len;
                    }
                    2 => {
                        live.posix_write(lid, offs[f], len, a, b);
                        replay.posix_write(rid, offs[f], len, a, b);
                        offs[f] += len;
                    }
                    3 => {
                        live.posix_meta(lid, P::POSIX_STATS, a, b);
                        replay.posix_meta(rid, P::POSIX_STATS, a, b);
                    }
                    4 => {
                        let (ls, rs) = sids[f];
                        live.stdio_write(ls, offs[f], len, a, b);
                        replay.stdio_write(rs, offs[f], len, a, b);
                    }
                    _ => {
                        // Incremental extraction on the live runtime only.
                        live.snapshot();
                    }
                }
            }
            let dxt_live: Vec<_> = ids.iter().map(|&(l, _)| live.dxt_of(l)).collect();
            let dxt_replay: Vec<_> = ids.iter().map(|&(_, r)| replay.dxt_of(r)).collect();
            (live.snapshot(), replay.snapshot(), dxt_live, dxt_replay)
        });
        sim.run();
        let (live, one_shot, dxt_live, dxt_replay) = h.join();

        prop_assert_eq!(&*live.names, &*one_shot.names);
        prop_assert_eq!(live.posix.len(), one_shot.posix.len());
        for (l, r) in live.posix.iter().zip(one_shot.posix.iter()) {
            prop_assert_eq!(l.rec_id, r.rec_id);
            prop_assert_eq!(l.counters, r.counters);
            prop_assert_eq!(l.fcounters, r.fcounters);
        }
        prop_assert_eq!(live.stdio.len(), one_shot.stdio.len());
        for (l, r) in live.stdio.iter().zip(one_shot.stdio.iter()) {
            prop_assert_eq!(l.rec_id, r.rec_id);
            prop_assert_eq!(l.counters, r.counters);
            prop_assert_eq!(l.fcounters, r.fcounters);
        }
        prop_assert_eq!(live.dxt_segments, one_shot.dxt_segments);
        for (l, r) in dxt_live.iter().zip(dxt_replay.iter()) {
            prop_assert_eq!(l.len(), r.len());
            for (x, y) in l.iter().zip(r.iter()) {
                prop_assert_eq!(
                    (x.op, x.offset, x.length, x.start.to_bits(), x.end.to_bits()),
                    (y.op, y.offset, y.length, y.start.to_bits(), y.end.to_bits())
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Job-level reduction (PR 5): ws==1 byte-identity and shared-record merging
// ---------------------------------------------------------------------------

/// A record with at least one read, so it survives the per-file filter.
fn arb_active_record(id: u64) -> impl Strategy<Value = PosixRecord> {
    (1i64..1000, 1i64..1_000_000, 0i64..1_000_000, 1i64..100).prop_map(
        move |(reads, bytes, max_byte, opens)| {
            let mut r = PosixRecord::new(id);
            *r.get_mut(P::POSIX_OPENS) = opens;
            *r.get_mut(P::POSIX_READS) = reads;
            *r.get_mut(P::POSIX_BYTES_READ) = bytes;
            *r.get_mut(P::POSIX_MAX_BYTE_READ) = max_byte;
            *r.get_mut(P::POSIX_SEQ_READS) = reads / 2;
            r
        },
    )
}

fn arb_dxt(rank: u32) -> impl Strategy<Value = (u64, DxtSegment)> {
    (
        0u64..4,
        0u64..1_000_000,
        1u64..65536,
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(move |(rec, offset, length, t, d)| {
            let op = if length % 2 == 0 {
                DxtOp::Read
            } else {
                DxtOp::Write
            };
            (
                rec,
                DxtSegment {
                    op,
                    offset,
                    length,
                    start: t,
                    end: t + d,
                    rank,
                },
            )
        })
}

fn session_of(rank: u32, recs: Vec<PosixRecord>, dxt: Vec<(u64, DxtSegment)>) -> RankSession {
    let names = recs
        .iter()
        .map(|r| (r.rec_id, format!("/data/rec{}", r.rec_id)))
        .collect();
    RankSession {
        rank,
        diff: SnapshotDiff {
            window: (0.0, 2.0),
            posix: recs,
            stdio: Vec::new(),
            names: Arc::new(names),
            partial: false,
        },
        dxt,
    }
}

/// The production job reduction over a complete job (one session per
/// rank, so the world size is the session count).
fn reduce_sessions(sessions: &[RankSession]) -> JobReport {
    reduce_job_sessions_tree(
        sessions,
        sessions.len() as u32,
        &TreeReduceConfig::default(),
    )
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The refactor is behaviour-preserving: reducing a single rank's
    /// session yields the single-process report byte for byte, for
    /// arbitrary record sets and DXT timelines.
    #[test]
    fn ws1_job_reduction_is_byte_identical(
        recs in prop::collection::vec(arb_active_record(0), 1..6),
        dxt in prop::collection::vec(arb_dxt(0), 0..12),
    ) {
        let recs: Vec<PosixRecord> = recs
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.rec_id = 100 + i as u64;
                r
            })
            .collect();
        let session = session_of(0, recs, dxt);
        let single = session.report();
        let job = reduce_sessions(&[session]);
        prop_assert_eq!(job.world_size, 1);
        prop_assert_eq!(&job.job.to_json(), &single.to_json());
        prop_assert_eq!(&job.per_rank[0].to_json(), &single.to_json());
    }

    /// Shared records merge with fold semantics: for a record id seen by
    /// every rank, the job view's per-file row carries the sums of the
    /// additive counters and the max of the byte extremum, exactly as a
    /// brute-force fold over the per-rank records computes them; private
    /// records pass through untouched.
    #[test]
    fn merged_shared_records_equal_brute_force_fold(
        shared in prop::collection::vec(arb_active_record(42), 2..5),
        private in arb_active_record(7),
        owner in 0u32..4,
    ) {
        let owner = owner.min(shared.len() as u32 - 1);
        let sessions: Vec<RankSession> = shared
            .iter()
            .enumerate()
            .map(|(r, rec)| {
                let mut recs = vec![rec.clone()];
                if r as u32 == owner {
                    let mut p = private.clone();
                    p.rec_id = 7;
                    recs.push(p);
                }
                recs.sort_by_key(|x| x.rec_id);
                session_of(r as u32, recs, Vec::new())
            })
            .collect();
        let job = reduce_sessions(&sessions);
        prop_assert_eq!(job.world_size as usize, sessions.len());

        let row = job
            .job
            .files
            .iter()
            .find(|f| f.path == "/data/rec42")
            .expect("shared record present once");
        let reads: i64 = shared.iter().map(|r| r.get(P::POSIX_READS)).sum();
        let bytes: i64 = shared.iter().map(|r| r.get(P::POSIX_BYTES_READ)).sum();
        let max_byte: i64 = shared.iter().map(|r| r.get(P::POSIX_MAX_BYTE_READ)).max().unwrap();
        prop_assert_eq!(row.reads, reads as u64, "reads sum across ranks");
        prop_assert_eq!(row.bytes_read, bytes as u64, "bytes sum across ranks");
        prop_assert_eq!(row.apparent_size, max_byte as u64 + 1, "extremum is the max");
        prop_assert_eq!(
            job.job.files.iter().filter(|f| f.path == "/data/rec42").count(),
            1,
            "one merged row, not one per rank"
        );

        // The private record reaches the job view unchanged.
        let prow = job
            .job
            .files
            .iter()
            .find(|f| f.path == "/data/rec7")
            .expect("private record present");
        prop_assert_eq!(prow.bytes_read, private.get(P::POSIX_BYTES_READ) as u64);
        // ... and only its owner's rank view has it.
        for (r, view) in job.per_rank.iter().enumerate() {
            prop_assert_eq!(
                view.files.iter().any(|f| f.path == "/data/rec7"),
                r as u32 == owner
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Tree reduction (PR 10): log-depth reduce ≡ flat reduce, byte for byte
// ---------------------------------------------------------------------------

use flat_reduce::{merge_posix_records, merge_stdio_records, reduce_job_sessions_sized};
use tf_darshan::darshan::reduce::{PosixFold, StdioFold};
use tf_darshan::darshan::{
    PosixFCounter as FP, StdioCounter as S, StdioFCounter as SF, StdioRecord,
};
use tf_darshan::tfdarshan::{reduce_job_sessions_tree, spawn_tree_reduce, TreeReduceConfig};

/// A record exercising every field class the reduction touches: additive
/// counters, byte extrema, the four common-access slots (the bounded
/// histogram whose eviction order makes naive pairwise merging
/// non-associative), timestamp pairs, and the order-sensitive cumulative
/// time floats.
fn arb_fleet_record(id: u64) -> impl Strategy<Value = PosixRecord> {
    (
        (1i64..1000, 1i64..1_000_000, 0i64..1_000_000, 1i64..100),
        prop::collection::vec((1i64..1_000_000, 1i64..50), 0..4),
        (
            0.001f64..100.0,
            0.0f64..2.0,
            0.0f64..2.0,
            0.0f64..2.0,
            0.0f64..0.5,
        ),
    )
        .prop_map(
            move |((reads, bytes, max_byte, opens), slots, (t0, rt, wt, mt, maxr))| {
                let mut r = PosixRecord::new(id);
                *r.get_mut(P::POSIX_OPENS) = opens;
                *r.get_mut(P::POSIX_READS) = reads;
                *r.get_mut(P::POSIX_BYTES_READ) = bytes;
                *r.get_mut(P::POSIX_MAX_BYTE_READ) = max_byte;
                *r.get_mut(P::POSIX_SEQ_READS) = reads / 2;
                let slot_c = [
                    (P::POSIX_ACCESS1_ACCESS, P::POSIX_ACCESS1_COUNT),
                    (P::POSIX_ACCESS2_ACCESS, P::POSIX_ACCESS2_COUNT),
                    (P::POSIX_ACCESS3_ACCESS, P::POSIX_ACCESS3_COUNT),
                    (P::POSIX_ACCESS4_ACCESS, P::POSIX_ACCESS4_COUNT),
                ];
                for (i, (sz, cnt)) in slots.iter().enumerate() {
                    *r.get_mut(slot_c[i].0) = *sz;
                    *r.get_mut(slot_c[i].1) = *cnt;
                }
                *r.fget_mut(FP::POSIX_F_OPEN_START_TIMESTAMP) = t0;
                *r.fget_mut(FP::POSIX_F_OPEN_END_TIMESTAMP) = t0 + 0.001;
                *r.fget_mut(FP::POSIX_F_READ_START_TIMESTAMP) = t0 + 0.01;
                *r.fget_mut(FP::POSIX_F_READ_END_TIMESTAMP) = t0 + 0.01 + rt;
                *r.fget_mut(FP::POSIX_F_READ_TIME) = rt;
                *r.fget_mut(FP::POSIX_F_WRITE_TIME) = wt;
                *r.fget_mut(FP::POSIX_F_META_TIME) = mt;
                *r.fget_mut(FP::POSIX_F_MAX_READ_TIME) = maxr;
                r
            },
        )
}

/// A STDIO record exercising every field class of its reduction: additive
/// counters, byte extrema, open/close timestamp pairs, and the
/// order-sensitive cumulative time floats.
fn arb_stdio_record(id: u64) -> impl Strategy<Value = StdioRecord> {
    (
        (1i64..1000, 0i64..1000, 0i64..1_000_000, 0i64..1_000_000),
        (0.001f64..100.0, 0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0),
    )
        .prop_map(
            move |((opens, writes, bytes, max_byte), (t0, rt, wt, mt))| {
                let mut r = StdioRecord::new(id);
                *r.get_mut(S::STDIO_OPENS) = opens;
                *r.get_mut(S::STDIO_WRITES) = writes;
                *r.get_mut(S::STDIO_BYTES_WRITTEN) = bytes;
                *r.get_mut(S::STDIO_MAX_BYTE_WRITTEN) = max_byte;
                *r.get_mut(S::STDIO_MAX_BYTE_READ) = max_byte / 3;
                *r.fget_mut(SF::STDIO_F_OPEN_START_TIMESTAMP) = t0;
                *r.fget_mut(SF::STDIO_F_OPEN_END_TIMESTAMP) = t0 + 0.001;
                *r.fget_mut(SF::STDIO_F_CLOSE_START_TIMESTAMP) = t0 + 0.5;
                *r.fget_mut(SF::STDIO_F_CLOSE_END_TIMESTAMP) = t0 + 0.5 + wt;
                *r.fget_mut(SF::STDIO_F_READ_TIME) = rt;
                *r.fget_mut(SF::STDIO_F_WRITE_TIME) = wt;
                *r.fget_mut(SF::STDIO_F_META_TIME) = mt;
                r
            },
        )
}

/// Fold `recs` up a balanced binary tree with the pairwise operators.
fn tree_fold(recs: &[PosixRecord]) -> PosixRecord {
    fn build(recs: &[PosixRecord]) -> PosixFold {
        if recs.len() == 1 {
            PosixFold::leaf(recs[0].clone())
        } else {
            let mid = recs.len() / 2;
            build(&recs[..mid]).absorb(build(&recs[mid..]))
        }
    }
    build(recs).finish()
}

/// [`tree_fold`] for STDIO records.
fn tree_fold_stdio(recs: &[StdioRecord]) -> StdioRecord {
    fn build(recs: &[StdioRecord]) -> StdioFold {
        if recs.len() == 1 {
            StdioFold::leaf(recs[0].clone())
        } else {
            let mid = recs.len() / 2;
            build(&recs[..mid]).absorb(build(&recs[mid..]))
        }
    }
    build(recs).finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pairwise fold operators reproduce the flat group merge byte
    /// for byte, for POSIX and STDIO records — every integer counter
    /// equal, every float counter *bitwise* equal (the cumulative-time
    /// sums are replayed in rank order at the root, so even f64
    /// non-associativity cannot show).
    #[test]
    fn pairwise_fold_equals_flat_merge_bitwise(
        recs in prop::collection::vec(arb_fleet_record(42), 1..9),
        stdio_recs in prop::collection::vec(arb_stdio_record(43), 1..9),
    ) {
        let flat = merge_posix_records(&recs).unwrap();
        let tree = tree_fold(&recs);
        for c in P::ALL {
            prop_assert_eq!(flat.get(c), tree.get(c), "{} diverged", c.name());
        }
        for c in FP::ALL {
            prop_assert_eq!(
                flat.fget(c).to_bits(),
                tree.fget(c).to_bits(),
                "{} diverged: {} vs {}",
                c.name(),
                flat.fget(c),
                tree.fget(c)
            );
        }

        let flat = merge_stdio_records(&stdio_recs).unwrap();
        let tree = tree_fold_stdio(&stdio_recs);
        for c in S::ALL {
            prop_assert_eq!(flat.get(c), tree.get(c), "{} diverged", c.name());
        }
        for c in SF::ALL {
            prop_assert_eq!(
                flat.fget(c).to_bits(),
                tree.fget(c).to_bits(),
                "{} diverged: {} vs {}",
                c.name(),
                flat.fget(c),
                tree.fget(c)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The log-depth job reduction is byte-identical to the flat one —
    /// identical serialized [`tf_darshan::tfdarshan::JobReport`]s (job
    /// view, per-rank views, names, DXT-derived analyses, world size,
    /// missing ranks) — for arbitrary shared/private record mixes at
    /// world sizes 1..=64, including the ws==1 passthrough.
    #[test]
    fn tree_job_reduction_is_byte_identical_to_flat(
        ws in 1usize..65,
        shared in arb_fleet_record(42),
        private in arb_fleet_record(0),
        dxt_per_rank in prop::collection::vec(arb_dxt(0), 0..6),
        arity in 2usize..5,
    ) {
        let sessions: Vec<RankSession> = (0..ws)
            .map(|r| {
                // Every rank touches the shared record (its own mutation of
                // it); odd ranks also carry a private record; rank-tagged
                // DXT segments ride along.
                let mut s = shared.clone();
                *s.get_mut(P::POSIX_READS) += r as i64;
                *s.fget_mut(FP::POSIX_F_READ_TIME) += r as f64 * 0.013;
                let mut recs = vec![s];
                if r % 2 == 1 {
                    let mut p = private.clone();
                    p.rec_id = 1000 + r as u64;
                    recs.push(p);
                }
                let dxt = dxt_per_rank
                    .iter()
                    .map(|(rec, seg)| (*rec, DxtSegment { rank: r as u32, ..*seg }))
                    .collect();
                session_of(r as u32, recs, dxt)
            })
            .collect();

        let flat = reduce_job_sessions_sized(&sessions, ws as u32);
        let (tree, stats) = reduce_job_sessions_tree(
            &sessions,
            ws as u32,
            &TreeReduceConfig { arity },
        );
        prop_assert_eq!(
            serde_json::to_string(&flat).unwrap(),
            serde_json::to_string(&tree).unwrap(),
            "tree reduce diverged from flat at ws={} arity={}", ws, arity
        );
        prop_assert_eq!(stats.leaves, ws);
        if ws > 1 {
            let expected_levels = (ws as f64).log(arity as f64).ceil() as u32;
            prop_assert!(
                stats.levels <= expected_levels + 1,
                "{} levels for ws={} arity={}", stats.levels, ws, arity
            );
        }
    }

    /// Missing ranks surface instead of silently shrinking the world:
    /// drop a subset of sessions, reduce with the true world size, and
    /// the report lists exactly the dropped ranks (identically for flat
    /// and tree).
    #[test]
    fn missing_ranks_are_surfaced_not_absorbed(
        ws in 2usize..17,
        drop_mask in prop::collection::vec(any::<bool>(), 16),
        rec in arb_fleet_record(42),
    ) {
        // Rank 0 always reports so the session set is never empty.
        let sessions: Vec<RankSession> = (0..ws)
            .filter(|r| *r == 0 || !drop_mask[*r])
            .map(|r| session_of(r as u32, vec![rec.clone()], Vec::new()))
            .collect();
        let expected_missing: Vec<u32> = (1..ws as u32)
            .filter(|r| drop_mask[*r as usize])
            .collect();

        let flat = reduce_job_sessions_sized(&sessions, ws as u32);
        let (tree, _) = reduce_job_sessions_tree(
            &sessions,
            ws as u32,
            &TreeReduceConfig::default(),
        );
        prop_assert_eq!(flat.world_size, ws as u32);
        prop_assert_eq!(&flat.missing_ranks, &expected_missing);
        prop_assert_eq!(
            serde_json::to_string(&flat).unwrap(),
            serde_json::to_string(&tree).unwrap()
        );
    }
}

/// Rank `r`'s session for the driver-agreement test: a POSIX and a STDIO
/// record every rank shares, private records on some ranks, and
/// rank-tagged DXT segments with rank-dependent timing.
fn driver_session(r: u32) -> RankSession {
    let rf = r as f64;
    let mut shared = PosixRecord::new(42);
    *shared.get_mut(P::POSIX_READS) = 10 + r as i64;
    *shared.get_mut(P::POSIX_BYTES_READ) = 4096 * (10 + r as i64);
    *shared.get_mut(P::POSIX_MAX_BYTE_READ) = 1000 * r as i64;
    *shared.get_mut(P::POSIX_ACCESS1_ACCESS) = 4096 << (r % 5);
    *shared.get_mut(P::POSIX_ACCESS1_COUNT) = 10 + r as i64;
    *shared.fget_mut(FP::POSIX_F_READ_START_TIMESTAMP) = 0.1 + 0.01 * rf;
    *shared.fget_mut(FP::POSIX_F_READ_END_TIMESTAMP) = 1.0 + 0.013 * rf;
    *shared.fget_mut(FP::POSIX_F_READ_TIME) = 0.3 + 0.017 * rf;
    let mut posix = vec![shared];
    if r % 2 == 1 {
        let mut private = PosixRecord::new(1000 + r as u64);
        *private.get_mut(P::POSIX_READS) = 3;
        *private.get_mut(P::POSIX_BYTES_READ) = 3 * 512;
        posix.push(private);
    }
    let mut ckpt = StdioRecord::new(7);
    *ckpt.get_mut(S::STDIO_WRITES) = 5 + r as i64;
    *ckpt.get_mut(S::STDIO_BYTES_WRITTEN) = 1 << 20;
    *ckpt.get_mut(S::STDIO_MAX_BYTE_WRITTEN) = (r as i64 + 1) << 20;
    *ckpt.fget_mut(SF::STDIO_F_OPEN_START_TIMESTAMP) = 0.2 + 0.001 * rf;
    *ckpt.fget_mut(SF::STDIO_F_WRITE_TIME) = 0.05 + 0.007 * rf;
    let mut stdio = vec![ckpt];
    if r.is_multiple_of(3) {
        let mut log = StdioRecord::new(2000 + r as u64);
        *log.get_mut(S::STDIO_WRITES) = 1;
        stdio.insert(0, log);
        stdio.sort_by_key(|x| x.rec_id);
    }
    let names = posix
        .iter()
        .map(|x| x.rec_id)
        .chain(stdio.iter().map(|x| x.rec_id))
        .map(|id| (id, format!("/data/rec{id}")))
        .collect();
    let dxt = (0..3u64)
        .map(|i| {
            let start = 0.1 * i as f64 + 0.003 * ((r * 7) % 11) as f64;
            let seg = DxtSegment {
                op: DxtOp::Read,
                offset: i * 4096,
                length: 4096,
                start,
                end: start + 0.02,
                rank: r,
            };
            (42, seg)
        })
        .collect();
    RankSession {
        rank: r,
        diff: SnapshotDiff {
            window: (0.01 * rf, 2.0 + 0.01 * rf),
            posix,
            stdio,
            names: Arc::new(names),
            partial: false,
        },
        dxt,
    }
}

/// Both tree drivers run one stepper, so they agree: the event task on a
/// `Sim` yields the host driver's serialized report and its stats
/// (leaves, levels, pair merges, modeled and flat cost) for every world
/// size 1..=64 and arity 2..=4, and charges exactly the modeled time.
#[test]
fn tree_drivers_agree() {
    for ws in 1..=64u32 {
        for arity in 2..=4 {
            let sessions = || (0..ws).map(driver_session).collect::<Vec<_>>();
            let config = TreeReduceConfig { arity };
            let (host, host_stats) = reduce_job_sessions_tree(&sessions(), ws, &config);

            let sim = simrt::Sim::new();
            let t0 = sim.now();
            let handle = spawn_tree_reduce(&sim, sessions(), ws, config);
            sim.run();
            let (event, event_stats) = handle.take().expect("reduce task completed");
            assert_eq!(
                serde_json::to_string(&host).unwrap(),
                serde_json::to_string(&event).unwrap(),
                "reports diverged at ws={ws} arity={arity}"
            );
            assert_eq!(host_stats, event_stats, "ws={ws} arity={arity}");
            assert_eq!(sim.now().duration_since(t0), event_stats.modeled);
        }
    }
}
