//! Property-based tests of the core invariants, across crates.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use tf_darshan::darshan::{
    DarshanConfig, DarshanLog, DarshanRuntime, DxtOp, PosixCounter as P, PosixRecord, StdioRecord,
};
use tf_darshan::storage::cache::PageCache;
use tf_darshan::storage::content;

// ---------------------------------------------------------------------------
// content: split-invariance
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn content_fill_is_split_invariant(
        seed in any::<u64>(),
        offset in 0u64..10_000,
        len in 1usize..2_000,
        cut in 0usize..2_000,
    ) {
        let cut = cut.min(len);
        let mut whole = vec![0u8; len];
        content::fill(seed, offset, &mut whole);
        let mut a = vec![0u8; cut];
        let mut b = vec![0u8; len - cut];
        content::fill(seed, offset, &mut a);
        content::fill(seed, offset + cut as u64, &mut b);
        prop_assert_eq!(&whole[..cut], &a[..]);
        prop_assert_eq!(&whole[cut..], &b[..]);
        prop_assert_eq!(content::checksum(seed, offset, len as u64),
                        content::checksum_bytes(&whole));
    }
}

// ---------------------------------------------------------------------------
// page cache: plan_read matches a naive interval model
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum CacheOp {
    Insert { offset: u64, len: u64 },
    Read { offset: u64, len: u64 },
    Drop,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..5_000, 1u64..800).prop_map(|(offset, len)| CacheOp::Insert { offset, len }),
        (0u64..5_000, 1u64..800).prop_map(|(offset, len)| CacheOp::Read { offset, len }),
        Just(CacheOp::Drop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cache_plan_matches_reference_model(ops in prop::collection::vec(cache_op(), 1..60)) {
        let cache = PageCache::new(u64::MAX); // no eviction: pure interval logic
        let mut model: BTreeSet<u64> = BTreeSet::new(); // resident bytes
        let key = (1, 1);
        for op in ops {
            match op {
                CacheOp::Insert { offset, len } => {
                    cache.insert(key, offset, len, false);
                    model.extend(offset..offset + len);
                }
                CacheOp::Drop => {
                    cache.drop_caches();
                    model.clear();
                }
                CacheOp::Read { offset, len } => {
                    let runs = cache.plan_read(key, offset, len);
                    // Runs must exactly tile [offset, offset+len).
                    let mut cursor = offset;
                    for r in &runs {
                        prop_assert_eq!(r.offset, cursor);
                        prop_assert!(r.len > 0);
                        for b in r.offset..r.offset + r.len {
                            prop_assert_eq!(model.contains(&b), r.hit,
                                "byte {} hit={} model={}", b, r.hit, model.contains(&b));
                        }
                        cursor += r.len;
                    }
                    prop_assert_eq!(cursor, offset + len);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// darshan: counters ≡ recomputation from the DXT trace, and diff additivity
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct IoOp {
    file: u8,
    write: bool,
    offset: u64,
    len: u64,
}

fn io_op() -> impl Strategy<Value = IoOp> {
    (0u8..4, any::<bool>(), 0u64..100_000, 0u64..50_000).prop_map(|(file, write, offset, len)| {
        IoOp {
            file,
            write,
            offset,
            len,
        }
    })
}

fn apply_ops(rt: &DarshanRuntime, ops: &[IoOp]) {
    let t = simrt::now();
    let mut ids = std::collections::HashMap::new();
    for op in ops {
        let path = format!("/d/f{}", op.file);
        let id = *ids
            .entry(op.file)
            .or_insert_with(|| rt.posix_open(&path, t, t).unwrap());
        simrt::sleep(Duration::from_micros(10));
        let (a, b) = (simrt::now(), simrt::now() + Duration::from_micros(5));
        if op.write {
            rt.posix_write(id, op.offset, op.len, a, b);
        } else {
            rt.posix_read(id, op.offset, op.len, a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn counters_match_dxt_recomputation(ops in prop::collection::vec(io_op(), 1..80)) {
        let sim = simrt::Sim::new();
        let ops2 = ops.clone();
        let h = sim.spawn("t", move || {
            let rt = DarshanRuntime::new(DarshanConfig {
                per_op_overhead: Duration::ZERO,
                new_record_overhead: Duration::ZERO,
                snapshot_cost_per_record: Duration::ZERO,
                ..Default::default()
            });
            apply_ops(&rt, &ops2);
            let snap = rt.snapshot();
            let dxt = rt.dxt_range(0.0, f64::MAX);
            (snap, dxt)
        });
        sim.run();
        let (snap, dxt) = h.join();
        // Recompute per-record read/write totals from the trace.
        for rec in &snap.posix {
            let segs: Vec<_> = dxt.iter().filter(|(id, _)| *id == rec.rec_id).collect();
            let bytes_read: u64 = segs
                .iter()
                .filter(|(_, s)| s.op == DxtOp::Read)
                .map(|(_, s)| s.length)
                .sum();
            let bytes_written: u64 = segs
                .iter()
                .filter(|(_, s)| s.op == DxtOp::Write)
                .map(|(_, s)| s.length)
                .sum();
            let reads = segs.iter().filter(|(_, s)| s.op == DxtOp::Read).count() as i64;
            let writes = segs.iter().filter(|(_, s)| s.op == DxtOp::Write).count() as i64;
            prop_assert_eq!(rec.get(P::POSIX_BYTES_READ), bytes_read as i64);
            prop_assert_eq!(rec.get(P::POSIX_BYTES_WRITTEN), bytes_written as i64);
            prop_assert_eq!(rec.get(P::POSIX_READS), reads);
            prop_assert_eq!(rec.get(P::POSIX_WRITES), writes);
            // Histogram sums equal op counts.
            let rh: i64 = (0..10)
                .map(|b| rec.counters[P::POSIX_SIZE_READ_0_100 as usize + b])
                .sum();
            prop_assert_eq!(rh, reads);
            // Max byte read consistent with trace.
            let max_byte = segs
                .iter()
                .filter(|(_, s)| s.op == DxtOp::Read && s.length > 0)
                .map(|(_, s)| s.offset + s.length - 1)
                .max();
            if let Some(mb) = max_byte {
                prop_assert_eq!(rec.get(P::POSIX_MAX_BYTE_READ), mb as i64);
            }
            // Pattern counters: consec ≤ seq ≤ reads.
            prop_assert!(rec.get(P::POSIX_CONSEC_READS) <= rec.get(P::POSIX_SEQ_READS));
            prop_assert!(rec.get(P::POSIX_SEQ_READS) <= reads);
        }
    }

    #[test]
    fn counters_match_event_stream_replay(ops in prop::collection::vec(io_op(), 1..60)) {
        // The full pipeline — GOT wrappers → probe spine → DarshanSink fold —
        // must be reproducible from the event stream alone: collecting the
        // same IoEvents with a second sink and folding them into a fresh
        // runtime yields byte-identical integer counters (bytes, op counts,
        // access-size histograms, seq/consec pattern flags, common values).
        use tf_darshan::darshan::{DarshanLibrary, DarshanSink};
        use tf_darshan::posix::{OpenFlags, Process};
        use tf_darshan::probe::{CollectingSink, ProbeSink};
        use tf_darshan::storage::{Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams,
                                  PageCache, StorageStack, WritePayload};
        let sim = simrt::Sim::new();
        let fs = LocalFs::new(
            Device::new(DeviceSpec::optane("nvme0")),
            Arc::new(PageCache::new(1 << 30)),
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/d", fs as Arc<dyn FileSystem>);
        let p = Process::new(stack);
        let collector = Arc::new(CollectingSink::new());
        let ops2 = ops.clone();
        let h = {
            let collector = collector.clone();
            sim.spawn("t", move || {
                let lib = DarshanLibrary::new(DarshanConfig::default());
                let tap = p.probe().register(collector);
                lib.attach(&p).unwrap();
                let mut fds = std::collections::HashMap::new();
                for op in &ops2 {
                    let path = format!("/d/f{}", op.file);
                    let fd = *fds.entry(op.file).or_insert_with(|| {
                        p.open(&path, OpenFlags {
                            read: true,
                            write: true,
                            create: true,
                            ..Default::default()
                        })
                        .unwrap()
                    });
                    if op.write {
                        p.pwrite(fd, op.offset, WritePayload::Synthetic(op.len)).unwrap();
                    } else {
                        p.pread(fd, op.offset, op.len, None).unwrap();
                    }
                }
                for fd in fds.values() {
                    p.close(*fd).unwrap();
                }
                lib.detach(&p).unwrap();
                p.probe().unregister(tap);
                lib.runtime().snapshot()
            })
        };
        sim.run();
        let live = h.join();
        let events = collector.take();
        // Replay: fold the captured stream into a fresh runtime.
        let sim2 = simrt::Sim::new();
        let h2 = sim2.spawn("replay", move || {
            let rt = Arc::new(DarshanRuntime::new(DarshanConfig::default()));
            let sink = DarshanSink::new(rt.clone());
            sink.on_events(&events);
            rt.snapshot()
        });
        sim2.run();
        let replay = h2.join();
        prop_assert_eq!(live.posix.len(), replay.posix.len());
        prop_assert_eq!(live.stdio.len(), replay.stdio.len());
        prop_assert_eq!(&live.names, &replay.names);
        for (a, b) in live.posix.iter().zip(&replay.posix) {
            prop_assert_eq!(a.rec_id, b.rec_id);
            prop_assert_eq!(&a.counters[..], &b.counters[..], "rec {:x}", a.rec_id);
        }
    }

    #[test]
    fn snapshot_diff_is_additive(
        ops in prop::collection::vec(io_op(), 2..60),
        cut in 1usize..59,
    ) {
        let cut = cut.min(ops.len() - 1);
        let sim = simrt::Sim::new();
        let ops2 = ops.clone();
        let h = sim.spawn("t", move || {
            let rt = DarshanRuntime::new(DarshanConfig {
                per_op_overhead: Duration::ZERO,
                new_record_overhead: Duration::ZERO,
                snapshot_cost_per_record: Duration::ZERO,
                ..Default::default()
            });
            let s0 = rt.snapshot();
            apply_ops(&rt, &ops2[..cut]);
            let s1 = rt.snapshot();
            apply_ops(&rt, &ops2[cut..]);
            let s2 = rt.snapshot();
            (s0, s1, s2)
        });
        sim.run();
        let (s0, s1, s2) = h.join();
        let d01 = tf_darshan::tfdarshan::diff(&s0, &s1);
        let d12 = tf_darshan::tfdarshan::diff(&s1, &s2);
        let d02 = tf_darshan::tfdarshan::diff(&s0, &s2);
        let sum = |d: &tf_darshan::tfdarshan::SnapshotDiff, c: P| -> i64 {
            d.posix.iter().map(|r| r.get(c)).sum()
        };
        for c in [
            P::POSIX_OPENS,
            P::POSIX_READS,
            P::POSIX_WRITES,
            P::POSIX_BYTES_READ,
            P::POSIX_BYTES_WRITTEN,
            P::POSIX_SEQ_READS,
            P::POSIX_CONSEC_WRITES,
        ] {
            prop_assert_eq!(sum(&d01, c) + sum(&d12, c), sum(&d02, c), "{}", c.name());
        }
    }
}

// ---------------------------------------------------------------------------
// darshan log: roundtrip identity for arbitrary records
// ---------------------------------------------------------------------------

fn arb_posix_record() -> impl Strategy<Value = PosixRecord> {
    (
        any::<u64>(),
        prop::collection::vec(any::<i64>(), P::COUNT),
        prop::collection::vec(-1e6f64..1e6, tf_darshan::darshan::PosixFCounter::COUNT),
    )
        .prop_map(|(id, counters, fcounters)| {
            let mut r = PosixRecord::new(id);
            r.counters.copy_from_slice(&counters);
            r.fcounters.copy_from_slice(&fcounters);
            r
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn log_roundtrip_identity(
        records in prop::collection::vec(arb_posix_record(), 0..20),
        names in prop::collection::vec("[a-z/]{1,30}", 0..10),
        job_end in 0.0f64..1e6,
        posix_partial in any::<bool>(),
    ) {
        let log = DarshanLog {
            job_start: 0.0,
            job_end,
            nprocs: 1,
            names: names
                .iter()
                .map(|n| (tf_darshan::darshan::record_id(n), n.clone()))
                .collect(),
            posix: records,
            posix_partial,
            stdio: vec![StdioRecord::new(7)],
            stdio_partial: false,
            dxt: Default::default(),
        };
        let bytes = log.encode();
        let back = DarshanLog::decode(&bytes).unwrap();
        prop_assert_eq!(back.job_end, log.job_end);
        prop_assert_eq!(back.posix_partial, log.posix_partial);
        prop_assert_eq!(back.names, log.names);
        prop_assert_eq!(back.posix.len(), log.posix.len());
        for (a, b) in back.posix.iter().zip(&log.posix) {
            prop_assert_eq!(a.rec_id, b.rec_id);
            prop_assert_eq!(a.counters, b.counters);
            prop_assert_eq!(a.fcounters, b.fcounters);
        }
    }
}

/// A valid encoded log with records in every section, DXT included.
fn valid_log_bytes(records: Vec<PosixRecord>, segs: usize) -> Vec<u8> {
    let seg = |i: usize| tf_darshan::darshan::DxtSegment {
        op: if i.is_multiple_of(2) {
            DxtOp::Read
        } else {
            DxtOp::Write
        },
        offset: i as u64 * 4096,
        length: 4096,
        start: i as f64,
        end: i as f64 + 0.5,
        rank: i as u32,
    };
    let log = DarshanLog {
        job_start: 0.0,
        job_end: 9.0,
        nprocs: 2,
        names: records
            .iter()
            .map(|r| (r.rec_id, format!("/d/{}", r.rec_id)))
            .collect(),
        dxt: records
            .iter()
            .map(|r| (r.rec_id, (0..segs).map(seg).collect()))
            .collect(),
        posix: records,
        posix_partial: false,
        stdio: vec![StdioRecord::new(7)],
        stdio_partial: false,
    };
    log.encode().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser reads files from disk, so hostile bytes must come back
    /// as `Ok` or `Err`, never as a panic or an abort: arbitrary bytes,
    /// arbitrary bytes behind a valid header, and valid encodings cut
    /// short or with one byte flipped.
    #[test]
    fn log_decode_survives_hostile_input(
        junk in prop::collection::vec(any::<u8>(), 0..512),
        records in prop::collection::vec(arb_posix_record(), 0..4),
        segs in 0usize..4,
        cut in any::<usize>(),
        flip in any::<usize>(),
        mask in 1u8..255,
    ) {
        let _ = DarshanLog::decode(&junk);
        let mut headed = b"DSIM".to_vec();
        headed.extend_from_slice(&2u32.to_le_bytes());
        headed.extend_from_slice(&junk);
        let _ = DarshanLog::decode(&headed);

        let valid = valid_log_bytes(records, segs);
        prop_assert!(DarshanLog::decode(&valid).is_ok());
        let cut = cut % valid.len();
        prop_assert!(DarshanLog::decode(&valid[..cut]).is_err(), "cut at {}", cut);
        let mut flipped = valid;
        let at = flip % flipped.len();
        flipped[at] ^= mask;
        let _ = DarshanLog::decode(&flipped);
    }
}

// ---------------------------------------------------------------------------
// stdio buffering ≡ direct POSIX, for any write pattern
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn stdio_buffered_writes_equal_direct_posix(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..700), 1..20),
    ) {
        use tf_darshan::posix::{OpenFlags, Process};
        use tf_darshan::storage::{Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams,
                                  PageCache, StorageStack, WritePayload};
        let sim = simrt::Sim::new();
        let fs = LocalFs::new(
            Device::new(DeviceSpec::optane("nvme0")),
            Arc::new(PageCache::new(1 << 30)),
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/d", fs.clone() as Arc<dyn FileSystem>);
        let p = Process::new(stack);
        let chunks2 = chunks.clone();
        let h = sim.spawn("t", move || {
            // Write the same bytes through both layers.
            let s = p.fopen("/d/stdio", "w").unwrap();
            let fd = p.open("/d/posix", OpenFlags::wronly_create_trunc()).unwrap();
            for c in &chunks2 {
                p.fwrite(s, WritePayload::Bytes(c)).unwrap();
                p.write(fd, WritePayload::Bytes(c)).unwrap();
            }
            p.fclose(s).unwrap();
            p.close(fd).unwrap();
            // Read both back fully.
            let total: usize = chunks2.iter().map(|c| c.len()).sum();
            let mut via_stdio = vec![0u8; total];
            let r = p.fopen("/d/stdio", "r").unwrap();
            assert_eq!(p.fread(r, total as u64, Some(&mut via_stdio)).unwrap(), total as u64);
            p.fclose(r).unwrap();
            let mut via_posix = vec![0u8; total];
            let fd = p.open("/d/posix", OpenFlags::rdonly()).unwrap();
            assert_eq!(p.pread(fd, 0, total as u64, Some(&mut via_posix)).unwrap(), total as u64);
            p.close(fd).unwrap();
            (via_stdio, via_posix)
        });
        sim.run();
        let (via_stdio, via_posix) = h.join();
        let expect: Vec<u8> = chunks.concat();
        prop_assert_eq!(&via_stdio, &expect);
        prop_assert_eq!(&via_posix, &expect);
    }
}

// ---------------------------------------------------------------------------
// simrt: determinism and ordered parallel map under random delays
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn scheduler_is_deterministic(delays in prop::collection::vec(1u64..2_000, 2..12)) {
        let run_once = |delays: &[u64]| -> (u64, Vec<(usize, u64)>) {
            let sim = simrt::Sim::new();
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            for (i, &d) in delays.iter().enumerate() {
                let log = log.clone();
                sim.spawn(format!("t{i}"), move || {
                    for _ in 0..3 {
                        simrt::sleep(Duration::from_micros(d));
                        log.lock().push((i, simrt::now().as_nanos()));
                    }
                });
            }
            sim.run();
            let v = log.lock().clone();
            (sim.now().as_nanos(), v)
        };
        let a = run_once(&delays);
        let b = run_once(&delays);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn parallel_map_is_order_preserving(
        costs in prop::collection::vec(1u64..500, 1..40),
        workers in 1usize..9,
    ) {
        use tf_darshan::tfsim::{Dataset, Element, Parallelism, TfRuntime};
        let sim = simrt::Sim::new();
        let stack = tf_darshan::storage::StorageStack::new();
        let rt = TfRuntime::new(tf_darshan::posix::Process::new(stack), sim.clone(), 8);
        let costs2 = costs.clone();
        let n = costs.len();
        let h = sim.spawn("consumer", move || {
            let files: Vec<String> = (0..n).map(|i| format!("/f{i}")).collect();
            let map: tf_darshan::tfsim::MapFn = Arc::new(move |_ctx, index, _path| {
                simrt::sleep(Duration::from_micros(costs2[index]));
                Element { index, bytes: 1 }
            });
            let ds = Dataset::from_files(files)
                .map(map, Parallelism::Fixed(workers))
                .batch(1);
            let mut it = ds.iterate(&rt);
            let mut seen = Vec::new();
            while let Some(b) = it.next() {
                seen.push(b.last_index);
            }
            seen
        });
        sim.run();
        let seen = h.join();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }
}
