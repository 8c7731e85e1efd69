//! # tfdarshan — fine-grained I/O profiling for ML workloads
//!
//! The paper's contribution: a TensorFlow profiler-and-tracer that attaches
//! Darshan instrumentation **at runtime** and analyzes its buffers
//! *in situ*, surfacing system-level POSIX/STDIO detail inside the
//! TensorFlow profiling workflow (TensorBoard panels + TraceViewer
//! timelines).
//!
//! Components (paper §III):
//! * [`wrapper::TfDarshanWrapper`] — the middle-man: `dlopen`s the Darshan
//!   library, patches the process GOT, and manages start/stop snapshots;
//! * [`tracer::DarshanTracer`] / [`tracer::DarshanTracerFactory`] — the
//!   profiler plugin registered with the TensorFlow runtime;
//! * [`analysis`] — snapshot diffing and window statistics;
//! * [`report::TfDarshanReport`] — the TensorBoard-panel data (bandwidth,
//!   op counts, size distributions, access pattern, STDIO view);
//! * [`staging`] — the §V.B profile-guided optimization (stage small files
//!   to a fast tier).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use storage_sim::{Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams,
//!                   PageCache, StorageStack};
//! use tfdarshan::{DarshanTracerFactory, TfDarshanConfig, TfDarshanWrapper};
//! use tfsim::{Dataset, Parallelism, ProfilerOptions, TfRuntime};
//!
//! // Build a machine: one SSD, a filesystem, a process, a TF runtime.
//! let sim = simrt::Sim::new();
//! let fs = LocalFs::new(Device::new(DeviceSpec::sata_ssd("ssd0")),
//!                       Arc::new(PageCache::new(1 << 30)),
//!                       LocalFsParams::default());
//! let stack = StorageStack::new();
//! stack.mount("/data", fs.clone() as Arc<dyn FileSystem>);
//! for i in 0..32u64 {
//!     fs.create_synthetic(&format!("/data/img{i}"), 88 * 1024, i).unwrap();
//! }
//! let process = posix_sim::Process::new(stack);
//! let rt = TfRuntime::new(process.clone(), sim.clone(), 8);
//!
//! // Install tf-Darshan and register its tracer with the TF profiler.
//! let wrapper = TfDarshanWrapper::install(process, TfDarshanConfig::default());
//! let tfd = DarshanTracerFactory::register(&rt, wrapper);
//!
//! sim.spawn("main", move || {
//!     let files: Vec<String> = (0..32).map(|i| format!("/data/img{i}")).collect();
//!     let ds = Dataset::from_files(files)
//!         .map(Arc::new(|ctx: &tfsim::PipelineCtx, index, path: &str| {
//!             let bytes = tfsim::ops::read_file(&ctx.rt, path).unwrap_or(0);
//!             tfsim::Element { index, bytes }
//!         }), Parallelism::Fixed(2))
//!         .batch(8)
//!         .prefetch(2);
//!     rt.profiler_start(ProfilerOptions::default()).unwrap();
//!     let mut it = ds.iterate(&rt);
//!     while it.next().is_some() {}
//!     let _trace = rt.profiler_stop().unwrap();
//!     let report = tfd.last_report().expect("darshan analyzed the session");
//!     assert_eq!(report.io.files_opened, 32);
//!     assert_eq!(report.io.reads, 64); // data read + EOF probe per file
//! });
//! sim.run();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod analysis;
pub mod autotune;
pub mod job;
pub mod job_tree;
pub mod report;
pub mod staging;
pub mod tracer;
pub mod wire;
pub mod wrapper;

pub use advisor::{recommend, seed_plan, AdvisorContext, Recommendation, StorageClass};
pub use analysis::{
    analyze, bandwidth_series, diff, per_file, FileActivity, IoStats, SnapshotDiff, StdioStats,
};
pub use autotune::{IoAutoTuner, TuneStep};
pub use job::{JobCtx, JobReport, RankCtx, RankSession, DEFAULT_SHARD_RANKS};
pub use job_tree::{
    reduce_job_sessions_tree, spawn_tree_reduce, TreeReduceConfig, TreeReduceHandle,
    TreeReduceStats,
};
pub use report::{html_escape, overview, SchedStatsReport, TfDarshanReport};
pub use staging::{
    advise_threshold, apply as apply_staging, plan_by_threshold, plan_within_budget, StagingPlan,
};
pub use tracer::{DarshanTracer, DarshanTracerFactory, ANALYSIS_PLANE, DXT_PLANE};
pub use wire::{SessionDiffMsg, WIRE_VERSION};
pub use wrapper::{TfDarshanConfig, TfDarshanWrapper};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
    };
    use tfsim::{Dataset, Element, Parallelism, PipelineCtx, ProfilerOptions, TfRuntime};

    struct Fixture {
        sim: simrt::Sim,
        rt: Arc<TfRuntime>,
        tfd: Arc<DarshanTracerFactory>,
        files: Vec<String>,
    }

    fn fixture(n_files: usize, file_size: u64) -> Fixture {
        let sim = simrt::Sim::new();
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd("ssd0")),
            Arc::new(PageCache::new(1 << 32)),
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/data", fs.clone() as Arc<dyn FileSystem>);
        let files: Vec<String> = (0..n_files)
            .map(|i| {
                let p = format!("/data/f{i}");
                fs.create_synthetic(&p, file_size, i as u64).unwrap();
                p
            })
            .collect();
        let process = posix_sim::Process::new(stack);
        let rt = TfRuntime::new(process.clone(), sim.clone(), 8);
        let wrapper = TfDarshanWrapper::install(process, TfDarshanConfig::default());
        let tfd = DarshanTracerFactory::register(&rt, wrapper);
        Fixture {
            sim,
            rt,
            tfd,
            files,
        }
    }

    fn reader_map() -> tfsim::MapFn {
        Arc::new(|ctx: &PipelineCtx, index, path: &str| {
            let bytes = tfsim::ops::read_file(&ctx.rt, path).unwrap_or(0);
            Element { index, bytes }
        })
    }

    #[test]
    fn end_to_end_profile_produces_report_and_trace() {
        let f = fixture(24, 88 * 1024);
        let (rt, tfd, files) = (f.rt, f.tfd.clone(), f.files);
        f.sim.spawn("main", move || {
            let ds = Dataset::from_files(files)
                .map(reader_map(), Parallelism::Fixed(4))
                .batch(8)
                .prefetch(2);
            rt.profiler_start(ProfilerOptions::default()).unwrap();
            let mut it = ds.iterate(&rt);
            while it.next().is_some() {}
            let space = rt.profiler_stop().unwrap();
            // Darshan planes exist alongside the host plane.
            assert!(space.plane("/host:CPU").is_some());
            assert!(space.plane(ANALYSIS_PLANE).is_some());
            let dxt = space.plane(DXT_PLANE).expect("DXT timelines");
            assert_eq!(dxt.lines.len(), 24, "one TraceViewer line per file");
            // Every file line ends with a zero-length read (Fig. 8).
            for line in &dxt.lines {
                let last = line.events.last().unwrap();
                assert_eq!(last.name, "pread");
                assert_eq!(
                    last.stats
                        .iter()
                        .find(|s| s.name == "length")
                        .unwrap()
                        .value,
                    "0"
                );
            }
            let report = tfd.last_report().unwrap();
            assert_eq!(report.io.files_opened, 24);
            assert_eq!(report.io.opens, 24);
            assert_eq!(report.io.reads, 48);
            assert_eq!(report.io.zero_reads, 24);
            assert_eq!(report.io.bytes_read, 24 * 88 * 1024);
            assert!(report.io.read_bandwidth_mibps > 0.0);
            assert!((report.io.zero_read_fraction() - 0.5).abs() < 1e-9);
            // The chrome trace is exportable.
            let chrome = space.to_chrome_trace();
            assert!(chrome["traceEvents"].as_array().unwrap().len() > 48);
        });
        f.sim.run();
    }

    #[test]
    fn windows_isolate_activity_between_sessions() {
        let f = fixture(20, 10_000);
        let (rt, tfd, files) = (f.rt, f.tfd.clone(), f.files);
        f.sim.spawn("main", move || {
            let half_a: Vec<String> = files[..10].to_vec();
            let half_b: Vec<String> = files[10..].to_vec();
            for (half, expect_files) in [(half_a, 10u64), (half_b, 10u64)] {
                let ds = Dataset::from_files(half)
                    .map(reader_map(), Parallelism::Fixed(2))
                    .batch(5);
                rt.profiler_start(ProfilerOptions::default()).unwrap();
                let mut it = ds.iterate(&rt);
                while it.next().is_some() {}
                rt.profiler_stop().unwrap();
                let report = tfd.last_report().unwrap();
                assert_eq!(report.io.files_opened, expect_files);
                assert_eq!(report.io.bytes_read, expect_files * 10_000);
            }
        });
        f.sim.run();
    }

    #[test]
    fn unprofiled_io_never_reaches_reports() {
        let f = fixture(10, 1000);
        let (rt, tfd, files) = (f.rt, f.tfd.clone(), f.files);
        f.sim.spawn("main", move || {
            // Session 1 over nothing.
            rt.profiler_start(ProfilerOptions::default()).unwrap();
            rt.profiler_stop().unwrap();
            // I/O outside any session (still instrumented once attached,
            // but not part of a window).
            let ds = Dataset::from_files(files)
                .map(reader_map(), Parallelism::Fixed(2))
                .batch(5);
            let mut it = ds.iterate(&rt);
            while it.next().is_some() {}
            // Session 2 over nothing: the outside-I/O must not leak in.
            rt.profiler_start(ProfilerOptions::default()).unwrap();
            rt.profiler_stop().unwrap();
            let report = tfd.last_report().unwrap();
            assert_eq!(report.io.reads, 0);
            assert_eq!(report.io.bytes_read, 0);
        });
        f.sim.run();
    }

    #[test]
    fn attachment_happens_at_first_session_only() {
        let f = fixture(1, 100);
        let (rt, tfd) = (f.rt, f.tfd.clone());
        f.sim.spawn("main", move || {
            assert!(!tfd.wrapper().is_attached(), "lazy until first profile");
            rt.profiler_start(ProfilerOptions::default()).unwrap();
            assert!(tfd.wrapper().is_attached());
            rt.profiler_stop().unwrap();
            // Stays attached between sessions (cheap restarts).
            assert!(tfd.wrapper().is_attached());
            tfd.wrapper().detach().unwrap();
            assert!(!tfd.wrapper().is_attached());
        });
        f.sim.run();
    }

    #[test]
    fn full_export_toggle_changes_cost_and_planes() {
        let run = |full: bool| -> (bool, Duration) {
            let sim = simrt::Sim::new();
            let fs = LocalFs::new(
                Device::new(DeviceSpec::sata_ssd("ssd0")),
                Arc::new(PageCache::new(1 << 30)),
                LocalFsParams::default(),
            );
            let stack = StorageStack::new();
            stack.mount("/data", fs.clone() as Arc<dyn FileSystem>);
            let files: Vec<String> = (0..50)
                .map(|i| {
                    let p = format!("/data/f{i}");
                    fs.create_synthetic(&p, 10_000, i).unwrap();
                    p
                })
                .collect();
            let process = posix_sim::Process::new(stack);
            let rt = TfRuntime::new(process.clone(), sim.clone(), 8);
            let wrapper = TfDarshanWrapper::install(
                process,
                TfDarshanConfig {
                    full_export: full,
                    ..Default::default()
                },
            );
            let _tfd = DarshanTracerFactory::register(&rt, wrapper);
            let had_dxt = Arc::new(parking_lot::Mutex::new(false));
            let h2 = had_dxt.clone();
            sim.spawn("main", move || {
                let ds = Dataset::from_files(files)
                    .map(reader_map(), Parallelism::Fixed(4))
                    .batch(10);
                rt.profiler_start(ProfilerOptions::default()).unwrap();
                let mut it = ds.iterate(&rt);
                while it.next().is_some() {}
                let space = rt.profiler_stop().unwrap();
                *h2.lock() = space.plane(DXT_PLANE).is_some();
            });
            sim.run();
            let t = sim.now();
            let had = *had_dxt.lock();
            (had, Duration::from_nanos(t.as_nanos()))
        };
        let (with_dxt, t_full) = run(true);
        let (without_dxt, t_light) = run(false);
        assert!(with_dxt);
        assert!(!without_dxt);
        assert!(
            t_full > t_light,
            "timeline export must cost time: {t_full:?} vs {t_light:?}"
        );
    }
}
