//! Failure-injection tests for the `iosan` sanitizer: each violation
//! class, injected on purpose, must be reported under the right category —
//! and clean runs (ordered, locked, or disjoint) must report nothing.

use std::sync::Arc;

use proptest::prelude::*;

use simrt::sync::Mutex;
use simrt::{SimTime, TaskId};
use tf_darshan::iosan::{Category, IoSanitizer, Severity};
use tf_darshan::posix::{OpenFlags, Process, POSIX_SYMBOLS, STDIO_SYMBOLS};
use tf_darshan::probe::{self, EventKind, IoEvent, Origin, ProbeBus};
use tf_darshan::storage::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack, WritePayload,
};
use tf_darshan::tfdarshan::{TfDarshanConfig, TfDarshanWrapper};

fn fixture() -> (simrt::Sim, Arc<Process>) {
    let sim = simrt::Sim::new();
    let fs = LocalFs::new(
        Device::new(DeviceSpec::sata_ssd("ssd0")),
        Arc::new(PageCache::new(1 << 30)),
        LocalFsParams::default(),
    );
    let stack = StorageStack::new();
    stack.mount("/data", fs as Arc<dyn FileSystem>);
    (sim, Process::new(stack))
}

fn rdwr_create() -> OpenFlags {
    OpenFlags {
        read: true,
        write: true,
        create: true,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Data races: real unlocked overlap, and its locked/ordered cures
// ---------------------------------------------------------------------------

#[test]
fn unlocked_concurrent_overlapping_writes_are_a_data_race() {
    let (sim, p) = fixture();
    let handle = IoSanitizer::install(&sim, &[p.probe()]);
    for name in ["w1", "w2"] {
        let p = p.clone();
        // Spawned from the host: no spawn edge orders the two writers.
        sim.spawn(name, move || {
            let fd = p.open("/data/shared", rdwr_create()).unwrap();
            p.pwrite(fd, 0, WritePayload::Synthetic(4096)).unwrap();
            p.close(fd).unwrap();
        });
    }
    sim.run();
    let report = handle.finalize();
    let races = report.of_category(Category::DataRace);
    assert_eq!(races.len(), 1, "report: {}", report.render_ascii());
    let f = races[0];
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.file, "/data/shared");
    assert_eq!(f.tasks.len(), 2);
    assert_eq!(f.segments.len(), 2, "both offending DXT segments");
    assert!(f.segments.iter().all(|s| s.write && s.len == 4096));
    assert_eq!(f.witnesses.len(), 2);
    // No other category fires on this run.
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn mutex_protected_overlapping_writes_are_clean() {
    let (sim, p) = fixture();
    let handle = IoSanitizer::install(&sim, &[p.probe()]);
    let lock = Arc::new(Mutex::named((), Some("shared-file")));
    for name in ["w1", "w2"] {
        let p = p.clone();
        let lock = lock.clone();
        sim.spawn(name, move || {
            let _g = lock.lock();
            let fd = p.open("/data/shared", rdwr_create()).unwrap();
            p.pwrite(fd, 0, WritePayload::Synthetic(4096)).unwrap();
            p.close(fd).unwrap();
        });
    }
    sim.run();
    let report = handle.finalize();
    assert!(report.is_clean(), "report: {}", report.render_ascii());
    assert_eq!(report.locks_tracked, 1);
}

#[test]
fn spawn_join_ordered_overlapping_writes_are_clean() {
    let (sim, p) = fixture();
    let handle = IoSanitizer::install(&sim, &[p.probe()]);
    {
        let p = p.clone();
        let sim2 = sim.clone();
        sim.spawn("parent", move || {
            let fd = p.open("/data/shared", rdwr_create()).unwrap();
            p.pwrite(fd, 0, WritePayload::Synthetic(4096)).unwrap();
            p.close(fd).unwrap();
            let p2 = p.clone();
            // The child is ordered after the parent's write by the spawn
            // edge; the parent's second write is ordered after the child's
            // by the join edge.
            sim2.spawn("child", move || {
                let fd = p2.open("/data/shared", rdwr_create()).unwrap();
                p2.pwrite(fd, 0, WritePayload::Synthetic(4096)).unwrap();
                p2.close(fd).unwrap();
            })
            .join();
            let fd = p.open("/data/shared", rdwr_create()).unwrap();
            p.pwrite(fd, 0, WritePayload::Synthetic(4096)).unwrap();
            p.close(fd).unwrap();
        });
    }
    sim.run();
    let report = handle.finalize();
    assert!(report.is_clean(), "report: {}", report.render_ascii());
}

#[test]
fn disjoint_concurrent_writes_are_clean() {
    let (sim, p) = fixture();
    let handle = IoSanitizer::install(&sim, &[p.probe()]);
    for (name, offset) in [("w1", 0u64), ("w2", 1 << 20)] {
        let p = p.clone();
        sim.spawn(name, move || {
            let fd = p.open("/data/shared", rdwr_create()).unwrap();
            p.pwrite(fd, offset, WritePayload::Synthetic(4096)).unwrap();
            p.close(fd).unwrap();
        });
    }
    sim.run();
    let report = handle.finalize();
    assert!(report.is_clean(), "report: {}", report.render_ascii());
}

// ---------------------------------------------------------------------------
// Lock-order inversion: predicted even though this run never deadlocks
// ---------------------------------------------------------------------------

#[test]
fn lock_order_inversion_is_predicted_without_a_deadlock() {
    let (sim, p) = fixture();
    let handle = IoSanitizer::install(&sim, &[p.probe()]);
    let a = Arc::new(Mutex::named(0u32, Some("A")));
    let b = Arc::new(Mutex::named(0u32, Some("B")));
    {
        let (a, b) = (a.clone(), b.clone());
        let sim2 = sim.clone();
        sim.spawn("driver", move || {
            // t1 takes A then B; after it is *joined*, t2 takes B then A.
            // The run cannot deadlock, but the lock-order graph has the
            // A->B->A cycle that a different interleaving would hit.
            let (a1, b1) = (a.clone(), b.clone());
            sim2.spawn("ab", move || {
                let _ga = a1.lock();
                let _gb = b1.lock();
            })
            .join();
            sim2.spawn("ba", move || {
                let _gb = b.lock();
                let _ga = a.lock();
            })
            .join();
        });
    }
    sim.run();
    let report = handle.finalize();
    let cycles = report.of_category(Category::LockOrderCycle);
    assert_eq!(cycles.len(), 1, "report: {}", report.render_ascii());
    assert_eq!(cycles[0].severity, Severity::Warning);
    assert!(
        cycles[0].message.contains("'A'") && cycles[0].message.contains("'B'"),
        "cycle names the locks: {}",
        cycles[0].message
    );
    assert!(!cycles[0].witnesses.is_empty(), "edge witness event ids");
    let _ = p;
}

// ---------------------------------------------------------------------------
// FD lifecycle: double-close / use-after-close (synthesized — the posix
// layer's monotonic fd table cannot produce them organically) and leaks
// ---------------------------------------------------------------------------

fn synthetic(task: u64, target: &str, kind: EventKind) -> IoEvent {
    IoEvent {
        task: TaskId(task),
        pid: 0,
        t0: SimTime::ZERO,
        t1: SimTime::ZERO,
        origin: Origin::App,
        target: probe::intern(target),
        kind,
    }
}

#[test]
fn injected_double_close_and_use_after_close_are_reported() {
    let bus = ProbeBus::new();
    let san = IoSanitizer::new();
    let sink = bus.register(san.clone());
    for ev in [
        synthetic(1, "/data/f", EventKind::Open { fd: 3 }),
        synthetic(1, "/data/f", EventKind::Close { fd: 3 }),
        synthetic(2, "/data/f", EventKind::Close { fd: 3 }),
        synthetic(
            2,
            "/data/f",
            EventKind::Read {
                fd: 3,
                offset: 0,
                len: 512,
            },
        ),
    ] {
        bus.emit(ev);
    }
    probe::flush_current_thread();
    bus.unregister(sink);
    let report = san.finalize_report();
    let dc = report.of_category(Category::DoubleClose);
    assert_eq!(dc.len(), 1);
    assert_eq!(dc[0].severity, Severity::Error);
    assert_eq!(dc[0].file, "/data/f");
    assert_eq!(dc[0].witnesses.len(), 2, "first close + offending close");
    let uac = report.of_category(Category::UseAfterClose);
    assert_eq!(uac.len(), 1);
    assert_eq!(uac[0].severity, Severity::Error);
}

#[test]
fn fd_still_open_at_task_exit_is_a_leak() {
    let (sim, p) = fixture();
    let handle = IoSanitizer::install(&sim, &[p.probe()]);
    {
        let p = p.clone();
        sim.spawn("leaky", move || {
            let _fd = p.open("/data/leaked", rdwr_create()).unwrap();
            // never closed
        });
    }
    sim.run();
    let report = handle.finalize();
    let leaks = report.of_category(Category::FdLeak);
    assert_eq!(leaks.len(), 1, "report: {}", report.render_ascii());
    assert_eq!(leaks[0].severity, Severity::Warning);
    assert_eq!(leaks[0].file, "/data/leaked");
    assert_eq!(leaks[0].witnesses.len(), 2, "open + finish witnesses");
}

// ---------------------------------------------------------------------------
// Symtab balance: attach/detach cycles must leave the GOT pristine
// ---------------------------------------------------------------------------

#[test]
fn attach_detach_cycles_restore_default_bindings() {
    let (sim, p) = fixture();
    let wrapper = TfDarshanWrapper::install(p.clone(), TfDarshanConfig::default());
    let h = {
        let p = p.clone();
        sim.spawn("t", move || {
            for round in 0..5 {
                wrapper.attach().unwrap();
                assert!(
                    !p.got().patched_symbols().is_empty(),
                    "round {round}: attach patches symbols"
                );
                // Traffic while attached, so detach has live state to undo.
                let fd = p.open("/data/f", rdwr_create()).unwrap();
                p.pwrite(fd, 0, WritePayload::Synthetic(8192)).unwrap();
                p.pread(fd, 0, 4096, None).unwrap();
                p.close(fd).unwrap();
                wrapper.detach().unwrap();
                let left = p.got().patched_symbols();
                assert!(
                    left.is_empty(),
                    "round {round}: symbols left patched after detach: {left:?}"
                );
                for sym in POSIX_SYMBOLS.iter().chain(STDIO_SYMBOLS) {
                    assert!(
                        p.got().resolves_to_default(sym),
                        "round {round}: '{sym}' not re-resolved to the default binding"
                    );
                }
            }
        })
    };
    sim.run();
    h.join();
    // The sanitizer-facing check agrees: a balanced symtab adds no finding.
    let san = IoSanitizer::new();
    san.note_patched_symbols(&p.got().patched_symbols());
    assert!(san.finalize_report().is_clean());
}

// ---------------------------------------------------------------------------
// Property: clean interleavings produce zero findings
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn clean_interleavings_produce_zero_findings(
        writers in 1usize..4,
        ops_per_writer in 1usize..6,
        lens in prop::collection::vec(1u64..8192, 1..24),
        shared_rounds in 0usize..4,
    ) {
        // Each writer owns a private file (disjoint targets can never
        // race); all writers also hit one shared file, but only under a
        // common lock. However the scheduler interleaves them, the
        // sanitizer must stay quiet.
        let (sim, p) = fixture();
        let handle = IoSanitizer::install(&sim, &[p.probe()]);
        let lock = Arc::new(Mutex::named((), Some("shared")));
        for wi in 0..writers {
            let p = p.clone();
            let lock = lock.clone();
            let lens = lens.clone();
            sim.spawn(format!("w{wi}"), move || {
                let path = format!("/data/own-{wi}");
                let fd = p.open(&path, rdwr_create()).unwrap();
                for op in 0..ops_per_writer {
                    let len = lens[(wi * 7 + op) % lens.len()];
                    p.pwrite(fd, (op as u64) * 8192, WritePayload::Synthetic(len)).unwrap();
                    p.pread(fd, (op as u64) * 8192, len, None).unwrap();
                    simrt::yield_now();
                }
                p.close(fd).unwrap();
                for round in 0..shared_rounds {
                    let _g = lock.lock();
                    let fd = p.open("/data/shared", rdwr_create()).unwrap();
                    let len = lens[(wi + round) % lens.len()];
                    p.pwrite(fd, 0, WritePayload::Synthetic(len)).unwrap();
                    p.close(fd).unwrap();
                }
            });
        }
        sim.run();
        let report = handle.finalize();
        prop_assert!(report.is_clean(), "report: {}", report.render_ascii());
    }
}

// ---------------------------------------------------------------------------
// Acceptance: the full example-workload gate reports zero findings
// ---------------------------------------------------------------------------

#[test]
fn gate_workloads_report_zero_findings() {
    let results = tf_darshan::workloads::iosan_gate::run_gate();
    assert_eq!(results.len(), 5);
    for r in &results {
        assert!(
            r.report.is_clean(),
            "{}: {}",
            r.name,
            r.report.render_ascii()
        );
        assert!(r.report.events_analyzed > 1000, "{} saw the run", r.name);
    }
}
