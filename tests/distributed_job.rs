//! Rank/job integration (PR 5): the `world_size == 1` job path must be
//! byte-identical to the single-process tracer path, and mpi-sim
//! collectives must carry the happens-before edges that order shared-file
//! access across ranks.

use std::sync::Arc;

use parking_lot::Mutex;
use tf_darshan::iosan::{Category, IoSanitizer};
use tf_darshan::mpi::{MpiWorld, NetworkModel};
use tf_darshan::posix::{OpenFlags, Process};
use tf_darshan::probe::CollectingSink;
use tf_darshan::storage::{
    FileSystem, LustreFs, LustreParams, PageCache, StorageStack, WritePayload,
};
use tf_darshan::tfdarshan::{
    analyze, diff, per_file, JobCtx, TfDarshanConfig, TfDarshanReport, TfDarshanWrapper,
};

fn scratch_stack() -> StorageStack {
    let stack = StorageStack::new();
    let lustre = LustreFs::new(LustreParams::default(), Arc::new(PageCache::new(1 << 30)));
    stack.mount("/scratch", lustre as Arc<dyn FileSystem>);
    stack
}

fn seed_files(stack: &StorageStack) {
    for i in 0..3 {
        stack
            .create_synthetic(&format!("/scratch/dj/f{i}"), 192 << 10, i as u64)
            .unwrap();
    }
    stack
        .create_synthetic("/scratch/dj/out.bin", 64 << 10, 9)
        .unwrap();
}

/// The deterministic workload both paths run: three chunked shard reads
/// plus one checkpoint write.
fn exercise(process: &Arc<Process>) {
    for i in 0..3 {
        let fd = process
            .open(&format!("/scratch/dj/f{i}"), OpenFlags::rdonly())
            .unwrap();
        let mut off = 0u64;
        loop {
            let n = process.pread(fd, off, 64 << 10, None).unwrap();
            if n == 0 {
                break;
            }
            off += n;
        }
        process.close(fd).unwrap();
    }
    let fd = process
        .open(
            "/scratch/dj/out.bin",
            OpenFlags {
                write: true,
                ..Default::default()
            },
        )
        .unwrap();
    process
        .pwrite(fd, 0, WritePayload::Synthetic(64 << 10))
        .unwrap();
    process.fsync(fd).unwrap();
    process.close(fd).unwrap();
}

/// The pre-JobCtx path: a bare wrapper on a bare process, report built
/// exactly as `DarshanTracer::collect` builds it.
fn single_process_report() -> TfDarshanReport {
    let sim = simrt::Sim::new();
    let stack = scratch_stack();
    seed_files(&stack);
    let process = Process::new(stack);
    let wrapper = TfDarshanWrapper::install(process.clone(), TfDarshanConfig::default());
    let out = Arc::new(Mutex::new(None));
    let slot = out.clone();
    sim.spawn("single", move || {
        wrapper.mark_start().unwrap();
        exercise(&process);
        wrapper.mark_stop();
        let (start, stop) = wrapper.session_snapshots().unwrap();
        let d = diff(&start, &stop);
        let dxt = wrapper.session_dxt();
        let (io, stdio) = analyze(&d, &dxt);
        *slot.lock() = Some(TfDarshanReport {
            window: d.window,
            io,
            stdio,
            files: per_file(&d),
            sanitizer: None,
            scheduler: None,
            explore: None,
        });
    });
    sim.run();
    let report = out.lock().take().unwrap();
    report
}

#[test]
fn ws1_job_path_is_byte_identical_to_single_process_path() {
    let single = single_process_report();

    let sim = simrt::Sim::new();
    let stack = scratch_stack();
    seed_files(&stack);
    let job = Arc::new(JobCtx::new(&stack, 1, &TfDarshanConfig::default()));
    let j2 = job.clone();
    sim.spawn("job", move || {
        j2.mark_start().unwrap();
        exercise(j2.rank(0).process());
        j2.mark_stop();
    });
    sim.run();
    let report = job.collect().unwrap();

    assert_eq!(report.world_size, 1);
    assert_eq!(
        report.job.to_json(),
        single.to_json(),
        "ws==1 job view must be the single-process report, byte for byte"
    );
    assert_eq!(
        report.per_rank[0].to_json(),
        single.to_json(),
        "the sole rank's view is the same report"
    );
}

/// Two ranks write the same region of a shared file; `ordered` inserts the
/// barrier between them. Returns the data-race finding count.
fn interleaved_writes(ordered: bool) -> usize {
    let sim = simrt::Sim::new();
    let stack = scratch_stack();
    stack
        .create_synthetic("/scratch/shared.bin", 64 << 10, 7)
        .unwrap();
    let world = MpiWorld::new(&stack, 2, NetworkModel::default());
    let (p0, p1) = (world.process(0), world.process(1));
    let san = IoSanitizer::install(&sim, &[p0.probe(), p1.probe()]);
    world.spawn_ranks(&sim, move |comm| {
        let p = comm.process();
        let fd = p
            .open(
                "/scratch/shared.bin",
                OpenFlags {
                    write: true,
                    ..Default::default()
                },
            )
            .unwrap();
        if comm.rank() == 0 {
            p.pwrite(fd, 0, WritePayload::Synthetic(4 << 10)).unwrap();
        }
        if ordered {
            comm.barrier();
        }
        if comm.rank() == 1 {
            p.pwrite(fd, 0, WritePayload::Synthetic(4 << 10)).unwrap();
        }
        p.close(fd).unwrap();
    });
    sim.run();
    san.finalize()
        .findings
        .iter()
        .filter(|f| f.category == Category::DataRace)
        .count()
}

/// Satellite 1: the barrier's Signal/Wait pair is a cross-rank
/// happens-before edge — same workload, race with it removed.
#[test]
fn collective_sync_events_order_shared_file_writes() {
    assert_eq!(
        interleaved_writes(true),
        0,
        "barrier-ordered same-range writes are race-free"
    );
    assert_eq!(
        interleaved_writes(false),
        1,
        "without the collective the same writes race"
    );
}

/// A job-wide sink registered on every rank's bus sees each rank's events
/// exactly once, in global emission order, and nothing once detached.
#[test]
fn shard_merge_sink_sees_every_rank_once_in_emission_order() {
    const RANKS: usize = 4;
    let sim = simrt::Sim::new();
    let stack = scratch_stack();
    for r in 0..RANKS {
        stack
            .create_synthetic(&format!("/scratch/dj/r{r}"), 256 << 10, r as u64)
            .unwrap();
    }
    let job = Arc::new(JobCtx::new(&stack, RANKS, &TfDarshanConfig::default()));
    let per_rank: Vec<Arc<CollectingSink>> = job
        .ranks()
        .iter()
        .map(|r| {
            let sink = Arc::new(CollectingSink::new());
            r.probe().register(sink.clone());
            sink
        })
        .collect();
    let merged = Arc::new(CollectingSink::new());
    let ids = Arc::new(Mutex::new(job.attach_shard_merge(merged.clone())));
    assert_eq!(ids.lock().len(), RANKS, "one registration per rank");

    let read_all = |p: &Arc<Process>, path: &str| {
        let fd = p.open(path, OpenFlags::rdonly()).unwrap();
        let mut off = 0u64;
        loop {
            let n = p.pread(fd, off, 32 << 10, None).unwrap();
            if n == 0 {
                break;
            }
            off += n;
        }
        p.close(fd).unwrap();
    };
    let barrier = Arc::new(simrt::sync::Barrier::new(RANKS));
    for r in 0..RANKS {
        let (job, ids, barrier) = (job.clone(), ids.clone(), barrier.clone());
        sim.spawn(format!("rank{r}"), move || {
            let p = job.rank(r).process().clone();
            let path = format!("/scratch/dj/r{r}");
            read_all(&p, &path);
            barrier.wait();
            if r == 0 {
                job.detach_shard_merge(&ids.lock());
            }
            barrier.wait();
            read_all(&p, &path);
        });
    }
    sim.run();

    let merged = merged.take();
    let per_rank: Vec<Vec<_>> = per_rank.iter().map(|s| s.take()).collect();
    for (r, own) in per_rank.iter().enumerate() {
        let pid = job.rank(r).process().pid();
        let seen: Vec<_> = merged.iter().filter(|e| e.pid == pid).cloned().collect();
        // Each rank read its file twice; only the first pass was merged.
        assert_eq!(seen.len() * 2, own.len(), "rank {r}: detached halfway");
        assert_eq!(seen[..], own[..seen.len()], "rank {r}: each event once");
    }
    assert_eq!(
        merged.len(),
        per_rank.iter().map(|o| o.len() / 2).sum::<usize>(),
        "no event outside the ranks' own"
    );
    // Global emission order: completion times never go backwards, and the
    // ranks' streams really interleave (it is not one rank after another).
    assert!(merged.windows(2).all(|w| w[0].t1 <= w[1].t1));
    let switches = merged.windows(2).filter(|w| w[0].pid != w[1].pid).count();
    assert!(switches > RANKS, "only {switches} rank switches");
}
