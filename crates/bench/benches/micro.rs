//! Criterion micro-benchmarks of the engine itself (host time, not
//! virtual time): scheduler context switches, GOT dispatch, Darshan
//! record updates, snapshot extraction, and log encode/decode. These
//! guard the simulator's own performance — a slow engine would make the
//! paper-scale experiments impractical.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use darshan_sim::{DarshanConfig, DarshanLog, DarshanRuntime};
use simrt::{Sim, SimTime};

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("simrt");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("context_switch_ping_pong_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let (tx, rx) = simrt::sync::channel::<u32>(Some(1));
            sim.spawn("ping", move || {
                for i in 0..5_000u32 {
                    tx.send(i).unwrap();
                }
            });
            sim.spawn("pong", move || while rx.recv().is_some() {});
            sim.run();
        });
    });
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("lone_sleeper_fast_path_100k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            sim.spawn("t", || {
                for _ in 0..100_000 {
                    simrt::sleep(Duration::from_nanos(10));
                }
            });
            sim.run();
            assert_eq!(sim.now(), SimTime::from_nanos(1_000_000));
        });
    });
    g.finish();
}

fn bench_darshan(c: &mut Criterion) {
    let mut g = c.benchmark_group("darshan");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("posix_read_record_10k", |b| {
        b.iter_batched(
            || {
                let sim = Sim::new();
                (sim,)
            },
            |(sim,)| {
                sim.spawn("t", || {
                    let rt = DarshanRuntime::new(DarshanConfig {
                        per_op_overhead: Duration::ZERO,
                        new_record_overhead: Duration::ZERO,
                        ..Default::default()
                    });
                    let t = simrt::now();
                    let id = rt.posix_open("/f", t, t).unwrap();
                    for i in 0..10_000u64 {
                        rt.posix_read(id, i * 100, 100, t, t);
                    }
                });
                sim.run();
            },
            BatchSize::SmallInput,
        );
    });
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("snapshot_1k_records", |b| {
        b.iter_batched(
            Sim::new,
            |sim| {
                sim.spawn("t", || {
                    let rt = DarshanRuntime::new(DarshanConfig {
                        per_op_overhead: Duration::ZERO,
                        new_record_overhead: Duration::ZERO,
                        snapshot_cost_per_record: Duration::ZERO,
                        ..Default::default()
                    });
                    let t = simrt::now();
                    for i in 0..1_000 {
                        rt.posix_open(&format!("/f{i}"), t, t).unwrap();
                    }
                    let snap = rt.snapshot();
                    assert_eq!(snap.posix.len(), 1_000);
                });
                sim.run();
            },
            BatchSize::SmallInput,
        );
    });
    // Steady state of the incremental engine: 1k records resident, 10
    // dirtied since the last extraction — the snapshot only copies those.
    g.bench_function("snapshot_1k_records_10_dirty", |b| {
        b.iter_batched(
            Sim::new,
            |sim| {
                sim.spawn("t", || {
                    let rt = DarshanRuntime::new(DarshanConfig {
                        per_op_overhead: Duration::ZERO,
                        new_record_overhead: Duration::ZERO,
                        snapshot_cost_per_record: Duration::ZERO,
                        ..Default::default()
                    });
                    let t = simrt::now();
                    let ids: Vec<u64> = (0..1_000)
                        .map(|i| rt.posix_open(&format!("/f{i}"), t, t).unwrap())
                        .collect();
                    rt.snapshot();
                    for id in ids.iter().take(10) {
                        rt.posix_read(*id, 0, 100, t, t);
                    }
                    let snap = rt.snapshot();
                    assert_eq!(snap.posix.len(), 1_000);
                });
                sim.run();
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_log(c: &mut Criterion) {
    // Build a realistic log on a throwaway sim.
    let sim = Sim::new();
    let h = sim.spawn("build", || {
        let rt = DarshanRuntime::new(DarshanConfig {
            per_op_overhead: Duration::ZERO,
            new_record_overhead: Duration::ZERO,
            snapshot_cost_per_record: Duration::ZERO,
            ..Default::default()
        });
        let t = simrt::now();
        for i in 0..500u64 {
            let id = rt.posix_open(&format!("/data/file-{i}"), t, t).unwrap();
            for k in 0..4u64 {
                rt.posix_read(id, k * 1000, 1000, t, t);
            }
        }
        let snap = rt.snapshot();
        DarshanLog {
            job_start: 0.0,
            job_end: 100.0,
            nprocs: 1,
            names: snap.names.to_map(),
            posix: snap.posix.iter().map(|r| (**r).clone()).collect(),
            posix_partial: false,
            stdio: vec![],
            stdio_partial: false,
            dxt: Default::default(),
        }
    });
    sim.run();
    let log = h.join();
    let encoded = log.encode();

    let mut g = c.benchmark_group("log");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_500_records", |b| b.iter(|| log.encode()));
    g.bench_function("decode_500_records", |b| {
        b.iter(|| DarshanLog::decode(&encoded).unwrap())
    });
    g.finish();
}

fn bench_got_dispatch(c: &mut Criterion) {
    use posix_sim::{OpenFlags, Process};
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
    };

    let mut g = c.benchmark_group("got");
    g.throughput(Throughput::Elements(5_000));
    for patched in [false, true] {
        let name = if patched {
            "pread_5k_instrumented"
        } else {
            "pread_5k_plain"
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                let fs = LocalFs::new(
                    Device::new(DeviceSpec::optane("nvme0")),
                    Arc::new(PageCache::new(1 << 30)),
                    LocalFsParams::default(),
                );
                let stack = StorageStack::new();
                stack.mount("/d", fs.clone() as Arc<dyn FileSystem>);
                fs.create_synthetic("/d/f", 1 << 20, 1).unwrap();
                let p = Process::new(stack);
                let sim = Sim::new();
                let p2 = p.clone();
                sim.spawn("t", move || {
                    let lib = darshan_sim::DarshanLibrary::new(DarshanConfig::default());
                    if patched {
                        lib.attach(&p2).unwrap();
                    }
                    let fd = p2.open("/d/f", OpenFlags::rdonly()).unwrap();
                    for i in 0..5_000u64 {
                        p2.pread(fd, (i * 128) % (1 << 20), 128, None).unwrap();
                    }
                    p2.close(fd).unwrap();
                });
                sim.run();
            });
        });
    }
    g.finish();
}

fn bench_probe_hot_path(c: &mut Criterion) {
    use posix_sim::{OpenFlags, Process};
    use probe::CountingSink;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
    };

    // The probe fast path is a per-thread buffer push: with zero sinks the
    // bus is inactive and emission is a single atomic load, and growing the
    // sink count must not grow the per-event cost (sinks are only walked at
    // flush points, not per operation).
    let mut g = c.benchmark_group("probe");
    g.throughput(Throughput::Elements(5_000));
    for sinks in [0usize, 1, 4] {
        let name = format!("pread_hot_path_5k_{sinks}_sinks");
        g.bench_function(&name, |b| {
            b.iter(|| {
                let fs = LocalFs::new(
                    Device::new(DeviceSpec::optane("nvme0")),
                    Arc::new(PageCache::new(1 << 30)),
                    LocalFsParams::default(),
                );
                let stack = StorageStack::new();
                stack.mount("/d", fs.clone() as Arc<dyn FileSystem>);
                fs.create_synthetic("/d/f", 1 << 20, 1).unwrap();
                let p = Process::new(stack);
                let hooks: Vec<Arc<CountingSink>> = (0..sinks)
                    .map(|_| {
                        let s = Arc::new(CountingSink::new());
                        p.probe().register(s.clone());
                        s
                    })
                    .collect();
                let sim = Sim::new();
                let p2 = p.clone();
                sim.spawn("t", move || {
                    let fd = p2.open("/d/f", OpenFlags::rdonly()).unwrap();
                    for i in 0..5_000u64 {
                        p2.pread(fd, (i * 128) % (1 << 20), 128, None).unwrap();
                    }
                    p2.close(fd).unwrap();
                });
                sim.run();
                for s in &hooks {
                    assert!(s.events.load(std::sync::atomic::Ordering::Relaxed) >= 5_000);
                }
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_scheduler, bench_darshan, bench_log, bench_got_dispatch,
        bench_probe_hot_path
}
criterion_main!(benches);
