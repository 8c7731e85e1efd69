//! Golden bytes of one profiling window's trace: the `XSpace` as JSON and
//! its chrome-trace export, as TraceViewer loads them (paper Figs. 8 and
//! 10). The window holds many files that each end in a zero-length read
//! (the Fig. 8 shape), a second process whose DXT segments carry rank 2
//! and so land on `[rank 2]` lanes of the same plane, a `pwrite`, and
//! host spans with stats. Any change to line order, event order, stat
//! order, number format or line naming fails here.

use std::sync::Arc;

use tf_darshan::posix::{OpenFlags, Process};
use tf_darshan::simrt::Sim;
use tf_darshan::storage::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack, WritePayload,
};
use tf_darshan::tfdarshan::{DarshanTracerFactory, TfDarshanConfig, TfDarshanWrapper};
use tf_darshan::tfsim::{
    ops, Dataset, Element, Parallelism, PipelineCtx, ProfilerOptions, TfRuntime, TraceMe, XSpace,
};

const FILES: usize = 48;

/// Run one window on a fresh machine and return its trace.
fn window() -> XSpace {
    let sim = Sim::new();
    let fs = LocalFs::new(
        Device::new(DeviceSpec::sata_ssd("ssd0")),
        Arc::new(PageCache::new(1 << 30)),
        LocalFsParams::default(),
    );
    let stack = StorageStack::new();
    stack.mount("/data", fs.clone() as Arc<dyn FileSystem>);
    let files: Vec<String> = (0..FILES)
        .map(|i| {
            let p = format!("/data/img{i:02}");
            fs.create_synthetic(&p, 4096 * (1 + i as u64 % 5), i as u64)
                .unwrap();
            p
        })
        .collect();
    let trainer = Process::new(stack.clone());
    let rt = TfRuntime::new(trainer.clone(), sim.clone(), 8);
    DarshanTracerFactory::register(
        &rt,
        TfDarshanWrapper::install(trainer.clone(), TfDarshanConfig::default()),
    );
    // A second process on the same filesystem whose Darshan runtime
    // stamps rank 2 onto its segments.
    let peer = Process::new(stack);
    let mut cfg = TfDarshanConfig::default();
    cfg.darshan.rank = 2;
    DarshanTracerFactory::register(&rt, TfDarshanWrapper::install(peer.clone(), cfg));

    let out = Arc::new(parking_lot::Mutex::new(None));
    let slot = out.clone();
    let sim2 = sim.clone();
    sim.spawn("main", move || {
        rt.profiler_start(ProfilerOptions::default()).unwrap();
        let lanes = files[..6].to_vec();
        let peer_reads = sim2.spawn("peer", move || {
            for (i, path) in lanes.iter().enumerate() {
                let fd = peer.open(path, OpenFlags::rdonly()).unwrap();
                peer.pread(fd, 0, 1024 * (1 + i as u64), None).unwrap();
                peer.pread(fd, 1 << 20, 4096, None).unwrap();
                peer.close(fd).unwrap();
            }
        });
        let ds = Dataset::from_files(files)
            .map(
                Arc::new(|ctx: &PipelineCtx, index, path: &str| {
                    let bytes = ops::read_file(&ctx.rt, path).unwrap_or(0);
                    Element { index, bytes }
                }),
                Parallelism::Fixed(4),
            )
            .batch(8)
            .prefetch(2);
        let mut it = ds.iterate(&rt);
        while it.next().is_some() {}
        {
            let mut span = TraceMe::new(rt.recorder(), "checkpoint");
            span.stat("bytes", 12_288);
            span.stat("path", "/data/ckpt");
            let fd = trainer
                .open("/data/ckpt", OpenFlags::wronly_create_trunc())
                .unwrap();
            trainer
                .pwrite(fd, 0, WritePayload::Synthetic(12_288))
                .unwrap();
            trainer.close(fd).unwrap();
        }
        peer_reads.join();
        *slot.lock() = Some(rt.profiler_stop().unwrap());
    });
    sim.run();
    let space = out.lock().take().expect("the window closed");
    space
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn window_trace_bytes_are_pinned() {
    let space = window();
    let dxt = space
        .plane(tf_darshan::tfdarshan::DXT_PLANE)
        .expect("DXT plane");
    assert!(dxt.lines.len() > FILES, "one line per file plus rank lanes");
    assert!(dxt.lines.iter().any(|l| l.name.ends_with(" [rank 2]")));
    assert!(dxt
        .lines
        .iter()
        .any(|l| l.events.iter().any(|e| e.name == "pwrite")));
    let xspace = serde_json::to_string(&space).unwrap();
    assert_eq!(xspace, golden("window_trace.xspace.json").trim_end());
    let chrome = serde_json::to_string(&space.to_chrome_trace()).unwrap();
    assert_eq!(chrome, golden("window_trace.chrome.json").trim_end());
}
