//! Experiment drivers: everything the benches, examples, and integration
//! tests need to reproduce the paper's evaluation runs. Each driver builds
//! a fresh machine, generates the dataset, drops caches, runs one epoch
//! (or the configured step count), and returns all observables.

use std::sync::Arc;
use std::time::Duration;

use dstat_sim::{Dstat, DstatSample};
use iosan::{IoSanitizer, SanitizerReport};
use parking_lot::Mutex;
use tfdarshan::{DarshanTracerFactory, TfDarshanConfig, TfDarshanReport, TfDarshanWrapper};
use tfsim::{
    fit, Callback, Dataset, FitResult, ModelCheckpoint, ModelSpec, Parallelism, ProfilerOptions,
    TensorBoardCallback, TfRuntime, XSpace,
};

use crate::dataset::{self, GeneratedDataset, Scale};
use crate::models;
use crate::platform::{self, mounts, Machine};

/// The four Table-II workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ImageNet/AlexNet on Kebnekaise (Lustre, 2×V100).
    ImageNet,
    /// Malware CNN on Greendog (HDD).
    Malware,
    /// STREAM over the ImageNet-like subset, on Greendog.
    StreamImageNet,
    /// STREAM over the Malware-like subset, on Greendog.
    StreamMalware,
}

impl Workload {
    /// Table II defaults `(batch, steps, prefetch)`.
    pub fn table2(self) -> (usize, usize, usize) {
        match self {
            Workload::ImageNet => (256, 500, 10),
            Workload::Malware => (32, 339, 10),
            Workload::StreamImageNet => (128, 100, 10),
            Workload::StreamMalware => (128, 50, 10),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ImageNet => "ImageNet",
            Workload::Malware => "Malware",
            Workload::StreamImageNet => "STREAM(ImageNet)",
            Workload::StreamMalware => "STREAM(Malware)",
        }
    }

    /// Where checkpoints go on this workload's platform.
    fn checkpoint_prefix(self) -> &'static str {
        match self {
            Workload::ImageNet => "/scratch/ckpt/model",
            _ => "/data/ssd/ckpt/model",
        }
    }
}

/// Profiling mode of a run.
#[derive(Clone, Debug)]
pub enum Profiling {
    /// No profiler at all (baseline of Fig. 5).
    None,
    /// TF Profiler only (host tracer, no Darshan) over the whole run.
    TfProfiler,
    /// TF Profiler + tf-Darshan over the whole run (TensorBoard callback).
    TfDarshan {
        /// Export DXT timelines and run the full in-situ analysis.
        full_export: bool,
    },
    /// Manual `profiler.start()/stop()` windows restarted every N steps,
    /// in bandwidth-only mode (the §IV.B validation method).
    ManualWindows {
        /// Window length in steps.
        every_steps: usize,
    },
}

/// Run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// `num_parallel_calls` of the map stage.
    pub threads: Parallelism,
    /// Batch size.
    pub batch: usize,
    /// Steps to run (≤ one epoch).
    pub steps: usize,
    /// Prefetch depth.
    pub prefetch: usize,
    /// Dataset scale (1.0 = paper size).
    pub scale: Scale,
    /// Profiling mode.
    pub profiling: Profiling,
    /// Checkpoint every N steps (§IV.D), if set.
    pub checkpoint_every: Option<usize>,
    /// Run dstat in the background.
    pub dstat: bool,
    /// Stage files smaller than this to the Optane tier before the run
    /// (§V.B optimization). Greendog workloads only.
    pub stage_below: Option<u64>,
    /// Counterfactual for the §V.B argument: stage the *largest* files
    /// first, up to this byte budget, instead of the small ones.
    pub stage_largest_budget: Option<u64>,
    /// Run the run under the `iosan` sanitizer: happens-before race
    /// detection on file ranges, FD-lifecycle checks, lock-order analysis,
    /// symtab balance and origin audits. The report lands in
    /// [`RunOutput::sanitizer`] and its summary in the tf-Darshan report.
    pub sanitize: bool,
}

impl RunConfig {
    /// Table II configuration for `w` at `scale`, one thread, no profiling.
    pub fn paper(w: Workload, scale: Scale) -> RunConfig {
        let (batch, steps, prefetch) = w.table2();
        RunConfig {
            threads: Parallelism::Fixed(1),
            batch,
            steps: ((steps as f64) * scale.files).round().max(2.0) as usize,
            prefetch,
            scale,
            profiling: Profiling::None,
            checkpoint_every: None,
            dstat: false,
            stage_below: None,
            stage_largest_budget: None,
            sanitize: false,
        }
    }
}

/// Everything a run produces.
pub struct RunOutput {
    /// Trainer-side result (steps, waits, bytes).
    pub fit: FitResult,
    /// Virtual wall-clock of the measured phase.
    pub wall: Duration,
    /// tf-Darshan report of the (last) profiling session.
    pub report: Option<TfDarshanReport>,
    /// Collected trace of the (last) session.
    pub space: Option<XSpace>,
    /// Manual-mode bandwidth points: `(t_secs, MiB/s)` per window.
    pub bandwidth_points: Vec<(f64, f64)>,
    /// dstat samples (1-second intervals) with device-name columns.
    pub dstat_samples: Vec<DstatSample>,
    /// dstat device-name columns.
    pub dstat_devices: Vec<String>,
    /// Dataset summary: (files, total bytes, median size).
    pub dataset: (usize, u64, u64),
    /// Staging plan applied, if any.
    pub staged: Option<tfdarshan::StagingPlan>,
    /// Checkpoints written.
    pub checkpoints: usize,
    /// Full iosan report, when the run was sanitized.
    pub sanitizer: Option<SanitizerReport>,
    /// Scheduler statistics of the run's simulation: context switches,
    /// event-task polls, task counts per flavor, run-calendar peaks.
    pub scheduler: simrt::SchedStats,
}

impl RunOutput {
    /// Mean read bandwidth over the measured phase, MiB/s.
    pub fn mean_read_mibps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.fit.bytes_read as f64 / (1024.0 * 1024.0) / self.wall.as_secs_f64()
    }
}

fn build_machine(w: Workload) -> Machine {
    match w {
        Workload::ImageNet => platform::kebnekaise(),
        _ => platform::greendog(),
    }
}

fn generate(w: Workload, m: &Machine, scale: Scale) -> GeneratedDataset {
    match w {
        Workload::ImageNet => dataset::imagenet(&m.stack, mounts::LUSTRE, scale),
        Workload::Malware => dataset::malware(&m.stack, mounts::HDD, scale),
        Workload::StreamImageNet => dataset::stream_imagenet(&m.stack, mounts::HDD, scale),
        Workload::StreamMalware => dataset::stream_malware(&m.stack, mounts::HDD, scale),
    }
}

fn model_for(w: Workload, batch: usize) -> Option<ModelSpec> {
    match w {
        Workload::ImageNet => Some(models::alexnet(batch, 2)),
        Workload::Malware => Some(models::malware_cnn(batch)),
        _ => None, // STREAM has no model
    }
}

fn capture_for(w: Workload) -> tfsim::MapFn {
    match w {
        Workload::ImageNet => models::imagenet_capture(),
        Workload::Malware => models::malware_capture(),
        _ => models::stream_capture(),
    }
}

/// Profiler options used throughout (calibrated; see EXPERIMENTS.md).
pub fn profiler_options() -> ProfilerOptions {
    ProfilerOptions {
        traceme_overhead: Duration::from_micros(25),
        per_graph_op_overhead: Duration::from_micros(10),
    }
}

/// Run one experiment.
pub fn run(w: Workload, cfg: RunConfig) -> RunOutput {
    let m = build_machine(w);
    let mut ds = generate(w, &m, cfg.scale);
    let dataset_summary = (ds.len(), ds.total_bytes(), ds.median_size());
    m.drop_caches();

    // Sanitizer goes on the spine first so it observes every event of the
    // run, including dataset staging and daemon traffic.
    let san = if cfg.sanitize {
        Some(IoSanitizer::install(&m.sim, &[m.process.probe()]))
    } else {
        None
    };

    // Install tf-Darshan when the mode needs it.
    let needs_darshan = matches!(
        cfg.profiling,
        Profiling::TfDarshan { .. } | Profiling::ManualWindows { .. }
    );
    let tfd: Option<Arc<DarshanTracerFactory>> = if needs_darshan {
        let full_export = matches!(cfg.profiling, Profiling::TfDarshan { full_export: true });
        let wrapper = TfDarshanWrapper::install(
            m.process.clone(),
            TfDarshanConfig {
                full_export,
                ..Default::default()
            },
        );
        Some(DarshanTracerFactory::register(&m.rt, wrapper))
    } else {
        None
    };

    // Staging plan (executed inside the main thread, before the measured
    // phase, exactly as the paper stages before the timed epoch).
    let activity = || -> Vec<tfdarshan::FileActivity> {
        ds.files
            .iter()
            .zip(&ds.sizes)
            .map(|(p, &s)| tfdarshan::FileActivity {
                path: p.clone(),
                reads: 0,
                bytes_read: 0,
                apparent_size: s,
                read_time: 0.0,
            })
            .collect()
    };
    let staging_plan = if let Some(threshold) = cfg.stage_below {
        Some(tfdarshan::plan_by_threshold(&activity(), threshold))
    } else {
        cfg.stage_largest_budget.map(|budget| {
            // Naive intuition the paper argues against: put the biggest
            // files on the fast tier until the budget runs out.
            let mut files = activity();
            files.sort_by_key(|f| std::cmp::Reverse(f.apparent_size));
            let total_files = files.len();
            let total_bytes: u64 = files.iter().map(|f| f.apparent_size).sum();
            let mut plan = tfdarshan::StagingPlan {
                threshold: 0,
                files: Vec::new(),
                staged_bytes: 0,
                total_bytes,
                total_files,
            };
            for f in files {
                if plan.staged_bytes + f.apparent_size > budget {
                    break;
                }
                plan.staged_bytes += f.apparent_size;
                plan.files.push((f.path, f.apparent_size));
            }
            plan
        })
    };
    if let Some(plan) = &staging_plan {
        // Remap the file list eagerly (paths after migration are
        // deterministic); the migration itself runs in the main thread.
        let mapping: Vec<(String, String)> = plan
            .files
            .iter()
            .map(|(p, _)| (p.clone(), p.replace(mounts::HDD, mounts::OPTANE)))
            .collect();
        ds.remap(&mapping);
    }

    let dstat = if cfg.dstat {
        let d = Dstat::spawn(&m.sim, m.devices(), Duration::from_secs(1));
        // Sample syscall-level traffic too, off the process's event spine.
        d.attach_spine(m.process.probe());
        Some(d)
    } else {
        None
    };
    let dstat_devices = dstat
        .as_ref()
        .map(|d| d.device_names().to_vec())
        .unwrap_or_default();

    // Shared result slots.
    let out_fit: Arc<Mutex<FitResult>> = Arc::new(Mutex::new(FitResult::default()));
    let out_space: Arc<Mutex<Option<XSpace>>> = Arc::new(Mutex::new(None));
    let out_points: Arc<Mutex<Vec<(f64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let out_wall: Arc<Mutex<Duration>> = Arc::new(Mutex::new(Duration::ZERO));
    let out_ckpts: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
    let dstat_stop = dstat.as_ref().map(|d| d.stop_event());

    {
        let rt = m.rt.clone();
        let stack = m.stack.clone();
        let cfg2 = cfg.clone();
        let files = ds.files.clone();
        let (fit_slot, space_slot, points_slot, wall_slot, ckpt_slot) = (
            out_fit.clone(),
            out_space.clone(),
            out_points.clone(),
            out_wall.clone(),
            out_ckpts.clone(),
        );
        let tfd2 = tfd.clone();
        let model = model_for(w, cfg.batch);
        let plan = staging_plan.clone();
        m.sim.spawn("main", move || {
            // Phase 0 (untimed setup): stage small files to Optane.
            if let Some(plan) = &plan {
                tfdarshan::apply_staging(&stack, plan, mounts::HDD, mounts::OPTANE)
                    .expect("staging succeeds");
            }

            let pipeline = Dataset::from_files(files)
                .map(capture_for(w), cfg2.threads)
                .batch(cfg2.batch)
                .prefetch(cfg2.prefetch);

            let t0 = simrt::now();
            match (&cfg2.profiling, &model) {
                (Profiling::ManualWindows { every_steps }, _) => {
                    // Manual start/stop loop (STREAM validation): restart a
                    // bandwidth-only session every N steps.
                    let every = (*every_steps).max(1);
                    let mut it = pipeline.iterate(&rt);
                    let mut result = FitResult::default();
                    let mut step = 0usize;
                    'outer: while step < cfg2.steps {
                        rt.profiler_start(profiler_options()).unwrap();
                        let mut in_window = 0usize;
                        while in_window < every && step < cfg2.steps {
                            let w0 = simrt::now();
                            let Some(batch) = it.next() else {
                                rt.profiler_stop().ok();
                                break 'outer;
                            };
                            let w1 = simrt::now();
                            result.steps.push(tfsim::StepStat {
                                wait: w1 - w0,
                                compute: Duration::ZERO,
                            });
                            result.bytes_read += batch.bytes;
                            result.steps_run += 1;
                            in_window += 1;
                            step += 1;
                        }
                        let space = rt.profiler_stop().unwrap();
                        if let Some(tfd) = &tfd2 {
                            if let Some(rep) = tfd.last_report() {
                                points_slot
                                    .lock()
                                    .push((rep.window.1, rep.io.read_bandwidth_mibps));
                            }
                        }
                        *space_slot.lock() = Some(space);
                    }
                    drop(it);
                    result.wall = simrt::now() - t0;
                    *fit_slot.lock() = result;
                }
                (profiling, Some(model)) => {
                    // Training with the TensorBoard callback (automatic).
                    let mut cbs: Vec<Box<dyn Callback>> = Vec::new();
                    match profiling {
                        Profiling::TfProfiler | Profiling::TfDarshan { .. } => {
                            let mut tb = TensorBoardCallback::profile_batch(0, cfg2.steps - 1);
                            tb.options = profiler_options();
                            let space = tb.space.clone();
                            let slot = space_slot.clone();
                            cbs.push(Box::new(tb));
                            cbs.push(Box::new(SpaceForward {
                                from: space,
                                to: slot,
                            }));
                        }
                        _ => {}
                    }
                    let mut ckpt = cfg2
                        .checkpoint_every
                        .map(|every| ModelCheckpoint::new(model, every, w.checkpoint_prefix()));
                    // Checkpoint callback runs before the TensorBoard
                    // callback so the final checkpoint lands inside the
                    // profiling window (Keras callback ordering).
                    let mut cb_refs: Vec<&mut dyn Callback> = Vec::new();
                    if let Some(c) = ckpt.as_mut() {
                        cb_refs.push(c);
                    }
                    for c in cbs.iter_mut() {
                        cb_refs.push(c.as_mut());
                    }
                    let r = fit(&rt, model, &pipeline, cfg2.steps, &mut cb_refs);
                    if let Some(c) = ckpt {
                        *ckpt_slot.lock() = c.saved;
                    }
                    *fit_slot.lock() = r;
                }
                (profiling, None) => {
                    // STREAM without manual windows: optionally profile the
                    // whole stream run.
                    let profiled = !matches!(profiling, Profiling::None);
                    if profiled {
                        rt.profiler_start(profiler_options()).unwrap();
                    }
                    let r = tfsim::stream(&rt, &pipeline, cfg2.steps, |_, _, _| {});
                    if profiled {
                        *space_slot.lock() = rt.profiler_stop().ok();
                    }
                    *fit_slot.lock() = r;
                }
            }
            *wall_slot.lock() = simrt::now() - t0;
            if let Some(stop) = dstat_stop {
                // One more sample interval so dstat records the tail, then
                // stop it (the paper's Fig. 12 shows activity past
                // model.fit() return).
                simrt::sleep(Duration::from_millis(1_100));
                stop.set();
            }
        });
    }

    m.sim.run();
    let scheduler = m.sim.stats();

    let fit = out_fit.lock().clone();
    let wall = *out_wall.lock();
    let space = out_space.lock().take();
    let bandwidth_points = out_points.lock().clone();
    let checkpoints = *out_ckpts.lock();
    let mut report = tfd.as_ref().and_then(|t| t.last_report());
    if let Some(rep) = report.as_mut() {
        rep.scheduler = Some(scheduler);
    }
    let sanitizer = san.map(|handle| {
        // Symtab balance: detach tf-Darshan (runtime detach, Table I) and
        // audit that every GOT symbol reverted to its default binding.
        if let Some(tfd) = &tfd {
            if tfd.wrapper().is_attached() {
                tfd.wrapper().detach().expect("detach succeeds");
            }
        }
        handle
            .sanitizer()
            .note_patched_symbols(&m.process.got().patched_symbols());
        // Origin audit: the App-only POSIX fold covers a window of the run,
        // so it must never claim more bytes than the spine carried with
        // App origin overall.
        if let Some(rep) = &report {
            handle
                .sanitizer()
                .audit_app_fold(rep.io.bytes_read + rep.io.bytes_written);
        }
        let r = handle.finalize();
        if let Some(rep) = report.as_mut() {
            rep.sanitizer = Some(r.summary());
        }
        r
    });
    RunOutput {
        fit,
        wall,
        report,
        space,
        bandwidth_points,
        dstat_samples: dstat.map(|d| d.samples()).unwrap_or_default(),
        dstat_devices,
        dataset: dataset_summary,
        staged: staging_plan,
        checkpoints,
        sanitizer,
        scheduler,
    }
}

/// Forwards the TensorBoard callback's collected space into the output
/// slot at train end.
struct SpaceForward {
    from: Arc<Mutex<Option<XSpace>>>,
    to: Arc<Mutex<Option<XSpace>>>,
}

impl Callback for SpaceForward {
    fn on_train_end(&mut self, _rt: &Arc<TfRuntime>) {
        if let Some(s) = self.from.lock().take() {
            *self.to.lock() = Some(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_malware_scaled_runs_and_reports_bandwidth() {
        let mut cfg = RunConfig::paper(Workload::StreamMalware, Scale::of(0.05));
        cfg.threads = Parallelism::Fixed(16);
        cfg.profiling = Profiling::ManualWindows { every_steps: 5 };
        let out = run(Workload::StreamMalware, cfg);
        assert!(out.fit.steps_run >= 2);
        assert!(!out.bandwidth_points.is_empty());
        let bw = out.mean_read_mibps();
        assert!(bw > 10.0, "bandwidth {bw:.1} MiB/s");
    }

    #[test]
    fn malware_training_profile_shape() {
        let mut cfg = RunConfig::paper(Workload::Malware, Scale::of(0.05));
        cfg.profiling = Profiling::TfDarshan { full_export: true };
        let out = run(Workload::Malware, cfg);
        let rep = out.report.expect("tf-darshan report");
        assert!(rep.io.reads > rep.io.opens, "segmented reads + EOF probes");
        assert!(rep.io.seq_fraction() > 0.9, "malware reads are sequential");
        assert!(out.fit.input_bound_fraction() > 0.9, "I/O bound");
        assert!(out.space.is_some());
    }

    #[test]
    fn checkpoints_are_written() {
        let mut cfg = RunConfig::paper(Workload::Malware, Scale::of(0.05));
        cfg.steps = 10;
        cfg.checkpoint_every = Some(1);
        let out = run(Workload::Malware, cfg);
        assert_eq!(out.checkpoints, 10);
    }

    #[test]
    fn staging_moves_small_files_and_remaps() {
        let mut cfg = RunConfig::paper(Workload::Malware, Scale::of(0.03));
        cfg.steps = 20;
        cfg.stage_below = Some(2 << 20);
        let out = run(Workload::Malware, cfg);
        let plan = out.staged.expect("plan recorded");
        assert!(plan.files.len() > 10);
        assert!(plan.byte_fraction() < 0.2);
    }
}
