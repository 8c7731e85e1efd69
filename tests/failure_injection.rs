//! Failure-injection tests: device faults, capacity exhaustion, and
//! instrumentation-state errors must surface as typed errors (never hangs
//! or silent corruption), and Darshan must keep a consistent view.

use std::sync::Arc;

use tf_darshan::darshan::{DarshanConfig, DarshanLibrary, PosixCounter as P};
use tf_darshan::posix::{Errno, OpenFlags, Process};
use tf_darshan::storage::{
    Device, DeviceFault, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
};

fn fixture(capacity: u64) -> (simrt::Sim, Arc<Process>, Arc<LocalFs>) {
    let sim = simrt::Sim::new();
    let fs = LocalFs::new(
        Device::new(DeviceSpec::sata_ssd("ssd0")),
        Arc::new(PageCache::new(1 << 30)),
        LocalFsParams {
            capacity,
            ..Default::default()
        },
    );
    let stack = StorageStack::new();
    stack.mount("/data", fs.clone() as Arc<dyn FileSystem>);
    (sim, Process::new(stack), fs)
}

#[test]
fn device_fault_mid_read_surfaces_eio_and_darshan_stays_consistent() {
    let (sim, p, fs) = fixture(1 << 30);
    fs.create_synthetic("/data/f", 8 << 20, 1).unwrap();
    let lib = DarshanLibrary::new(DarshanConfig::default());
    let dev = fs.device().clone();
    let h = sim.spawn("t", move || {
        lib.attach(&p).unwrap();
        let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
        // First two 1 MiB preads succeed; then the device breaks.
        assert_eq!(p.pread(fd, 0, 1 << 20, None).unwrap(), 1 << 20);
        assert_eq!(p.pread(fd, 1 << 20, 1 << 20, None).unwrap(), 1 << 20);
        dev.set_fault(Some(DeviceFault::Broken));
        assert_eq!(p.pread(fd, 2 << 20, 1 << 20, None).unwrap_err(), Errno::EIO);
        dev.set_fault(None);
        assert_eq!(p.pread(fd, 2 << 20, 1 << 20, None).unwrap(), 1 << 20);
        p.close(fd).unwrap();
        lib.runtime().snapshot()
    });
    sim.run();
    // Darshan counted only the successful reads (the failed call returned
    // an error and is not attributed).
    let snap = h.join();
    let r = snap.posix_by_path("/data/f").unwrap();
    assert_eq!(r.get(P::POSIX_READS), 3);
    assert_eq!(r.get(P::POSIX_BYTES_READ), 3 << 20);
}

#[test]
fn enospc_surfaces_through_posix_and_stdio() {
    let (sim, p, _fs) = fixture(1 << 20); // 1 MiB filesystem
    sim.spawn("t", move || {
        // POSIX write beyond capacity.
        let fd = p
            .open("/data/big", OpenFlags::wronly_create_trunc())
            .unwrap();
        let r = p.pwrite(fd, 0, storage_sim::WritePayload::Synthetic(8 << 20));
        assert_eq!(r.unwrap_err(), Errno::ENOSPC);
        p.close(fd).unwrap();

        // STDIO path: buffered writes fail at the flush that spills.
        let s = p.fopen("/data/big2", "w").unwrap();
        let mut failed = false;
        for _ in 0..512 {
            match p.fwrite(s, storage_sim::WritePayload::Synthetic(64 << 10)) {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e, Errno::ENOSPC);
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "32 MiB of fwrites cannot fit a 1 MiB fs");
    });
    sim.run();
}

#[test]
fn staging_to_exhausted_tier_fails_cleanly() {
    let sim = simrt::Sim::new();
    let cache = Arc::new(PageCache::new(1 << 30));
    let hdd = LocalFs::new(
        Device::new(DeviceSpec::hdd("hdd0")),
        cache.clone(),
        LocalFsParams::default(),
    );
    let tiny_fast = LocalFs::new(
        Device::new(DeviceSpec::optane("nvme0")),
        cache,
        LocalFsParams {
            capacity: 1 << 20,
            ..Default::default()
        },
    );
    let stack = StorageStack::new();
    stack.mount("/hdd", hdd as Arc<dyn FileSystem>);
    stack.mount("/fast", tiny_fast as Arc<dyn FileSystem>);
    for i in 0..8 {
        stack
            .create_synthetic(&format!("/hdd/f{i}"), 512 << 10, i)
            .unwrap();
    }
    let files: Vec<tf_darshan::tfdarshan::FileActivity> = (0..8)
        .map(|i| tf_darshan::tfdarshan::FileActivity {
            path: format!("/hdd/f{i}"),
            reads: 0,
            bytes_read: 0,
            apparent_size: 512 << 10,
            read_time: 0.0,
        })
        .collect();
    let plan = tf_darshan::tfdarshan::plan_by_threshold(&files, 1 << 20);
    assert_eq!(plan.files.len(), 8);
    let stack2 = stack.clone();
    let h = sim.spawn("stage", move || {
        tf_darshan::tfdarshan::apply_staging(&stack2, &plan, "/hdd", "/fast")
    });
    sim.run();
    let r = h.join();
    assert!(r.is_err(), "4 MiB into a 1 MiB tier must fail");
    // Some files staged before the failure; none were lost. Promotion
    // copies (the original stays intact — eviction needs no copy-back),
    // so every original must still resolve, every staged file must have a
    // complete fast copy, and the ledger must agree with the tier.
    let mut staged = 0usize;
    for i in 0..8 {
        let src = format!("/hdd/f{i}");
        let on_hdd = stack.resolve(&src).unwrap().content_info(&src).is_ok();
        assert!(on_hdd, "file {i}: original lost by a failed staging run");
        if stack.is_staged(&src) {
            let dst = format!("/fast/f{i}");
            let on_fast = stack.resolve(&dst).unwrap().content_info(&dst).is_ok();
            assert!(on_fast, "file {i}: staged but fast copy missing");
            staged += 1;
        }
    }
    assert!(staged < 8, "the exhausted tier cannot hold everything");
    assert_eq!(stack.staged_files(), staged, "ledger matches the tier");
    assert!(stack.staged_bytes() <= 1 << 20, "staged set fits the tier");
}

#[test]
fn detach_mid_profiler_session_flushes_pending_events() {
    // Regression: detach() restores the GOT and unregisters Darshan's spine
    // sink. Events from operations that completed without a context switch
    // (pure-CPU lseek/fstat never sleep) are still sitting in the emitting
    // thread's buffer at that moment — detach must flush them into the
    // records, not drop them, and the open profiler session must still
    // close cleanly afterwards.
    let (sim, p, fs) = fixture(1 << 30);
    fs.create_synthetic("/data/f", 64 << 10, 1).unwrap();
    let rt = tf_darshan::tfsim::TfRuntime::new(p.clone(), sim.clone(), 4);
    sim.spawn("t", move || {
        use tf_darshan::tfsim::ProfilerOptions;
        let lib = DarshanLibrary::new(DarshanConfig::default());
        lib.attach(&p).unwrap();
        rt.profiler_start(ProfilerOptions::default()).unwrap();
        let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
        p.pread(fd, 0, 64 << 10, None).unwrap();
        p.lseek(fd, 0, tf_darshan::posix::Whence::Set).unwrap();
        p.fstat(fd).unwrap();
        p.close(fd).unwrap();
        lib.detach(&p).unwrap();
        let snap = lib.runtime().snapshot();
        let r = snap.posix_by_path("/data/f").unwrap();
        assert_eq!(r.get(P::POSIX_OPENS), 1);
        assert_eq!(r.get(P::POSIX_READS), 1);
        assert_eq!(r.get(P::POSIX_BYTES_READ), 64 << 10);
        assert_eq!(r.get(P::POSIX_SEEKS), 1, "buffered lseek survives detach");
        assert_eq!(r.get(P::POSIX_STATS), 1, "buffered fstat survives detach");
        // The profiler session outlived the detach; stopping it still
        // produces the host-plane trace.
        let space = rt.profiler_stop().unwrap();
        assert!(space.planes.iter().any(|pl| pl.name == "/host:CPU"));
    });
    sim.run();
}

#[test]
fn detach_mid_session_yields_correct_incremental_diff() {
    // Regression for the incremental snapshot engine: a detach between the
    // start and stop snapshots must flush the buffered events into the
    // records *before* the stop-side extraction, and the epoch-skipping
    // diff must attribute exactly the in-window activity — a file only
    // touched before the window contributes nothing, even though its
    // record is still resident (and Arc-shared) in both snapshots.
    let (sim, p, fs) = fixture(1 << 30);
    fs.create_synthetic("/data/pre", 32 << 10, 1).unwrap();
    fs.create_synthetic("/data/live", 64 << 10, 2).unwrap();
    sim.spawn("t", move || {
        let lib = DarshanLibrary::new(DarshanConfig::default());
        lib.attach(&p).unwrap();
        // Pre-window activity only.
        let fd = p.open("/data/pre", OpenFlags::rdonly()).unwrap();
        p.pread(fd, 0, 32 << 10, None).unwrap();
        p.close(fd).unwrap();
        let start = lib.runtime().snapshot();
        // In-window activity, then detach before the stop snapshot. The
        // trailing lseek/fstat never context-switch, so they are still in
        // the thread buffer when detach unhooks the sink.
        let fd = p.open("/data/live", OpenFlags::rdonly()).unwrap();
        p.pread(fd, 0, 64 << 10, None).unwrap();
        p.lseek(fd, 0, tf_darshan::posix::Whence::Set).unwrap();
        p.fstat(fd).unwrap();
        p.close(fd).unwrap();
        lib.detach(&p).unwrap();
        let stop = lib.runtime().snapshot();
        assert!(stop.epoch > start.epoch, "each extraction claims an epoch");

        let d = tf_darshan::tfdarshan::diff(&start, &stop);
        assert_eq!(d.posix.len(), 1, "only the in-window file has a delta");
        let live_id = d.posix[0].rec_id;
        assert_eq!(d.names.get(live_id).as_deref(), Some("/data/live"));
        assert_eq!(d.posix[0].get(P::POSIX_OPENS), 1);
        assert_eq!(d.posix[0].get(P::POSIX_READS), 1);
        assert_eq!(d.posix[0].get(P::POSIX_BYTES_READ), 64 << 10);
        assert_eq!(
            d.posix[0].get(P::POSIX_SEEKS),
            1,
            "buffered lseek flushed by detach lands inside the window"
        );
        assert_eq!(d.posix[0].get(P::POSIX_STATS), 1);
        // The untouched record was carried into the stop snapshot by
        // Arc-sharing, not copied — same allocation in both.
        let pre_id = tf_darshan::darshan::record_id("/data/pre");
        let find = |s: &tf_darshan::darshan::Snapshot| {
            s.posix
                .iter()
                .find(|r| r.rec_id == pre_id)
                .cloned()
                .unwrap()
        };
        assert!(Arc::ptr_eq(&find(&start), &find(&stop)));
    });
    sim.run();
}

#[test]
fn profiler_state_errors_are_typed() {
    let (sim, p, _fs) = fixture(1 << 30);
    let rt = tf_darshan::tfsim::TfRuntime::new(p, sim.clone(), 4);
    sim.spawn("t", move || {
        use tf_darshan::tfsim::{ProfilerError, ProfilerOptions};
        assert_eq!(rt.profiler_stop().unwrap_err(), ProfilerError::NotActive);
        rt.profiler_start(ProfilerOptions::default()).unwrap();
        assert_eq!(
            rt.profiler_start(ProfilerOptions::default()).unwrap_err(),
            ProfilerError::AlreadyActive
        );
        rt.profiler_stop().unwrap();
    });
    sim.run();
}

#[test]
fn darshan_record_exhaustion_degrades_gracefully_under_training() {
    // A tiny record budget: the module goes partial, the run completes,
    // and the report flags partial data instead of lying.
    use tf_darshan::tfdarshan::{DarshanTracerFactory, TfDarshanConfig, TfDarshanWrapper};
    use tf_darshan::tfsim::{
        Dataset, Element, Parallelism, PipelineCtx, ProfilerOptions, TfRuntime,
    };

    let (sim, p, fs) = fixture(1 << 30);
    let files: Vec<String> = (0..64)
        .map(|i| {
            let path = format!("/data/s{i}");
            fs.create_synthetic(&path, 10_000, i).unwrap();
            path
        })
        .collect();
    let rt = TfRuntime::new(p.clone(), sim.clone(), 4);
    let wrapper = TfDarshanWrapper::install(
        p,
        TfDarshanConfig {
            darshan: DarshanConfig {
                max_records_per_module: 16,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let tfd = DarshanTracerFactory::register(&rt, wrapper);
    let tfd2 = tfd.clone();
    sim.spawn("t", move || {
        let ds = Dataset::from_files(files)
            .map(
                Arc::new(|ctx: &PipelineCtx, index, path: &str| Element {
                    index,
                    bytes: tf_darshan::tfsim::ops::read_file(&ctx.rt, path).unwrap_or(0),
                }),
                Parallelism::Fixed(2),
            )
            .batch(8);
        rt.profiler_start(ProfilerOptions::default()).unwrap();
        let mut it = ds.iterate(&rt);
        let mut total = 0u64;
        while let Some(b) = it.next() {
            total += b.bytes;
        }
        assert_eq!(total, 64 * 10_000, "training itself is unaffected");
        rt.profiler_stop().unwrap();
        let rep = tfd2.last_report().unwrap();
        assert!(rep.io.partial, "report must flag dropped records");
        assert_eq!(rep.io.files_opened, 16, "only the tracked files");
    });
    sim.run();
}
