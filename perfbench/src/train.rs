//! The two training workloads: `tfsim::fit` over a seeded synthetic
//! dataset, driven by a benchmark-owned callback that opens back-to-back
//! profiling windows, times every step and every `profiler_stop`, checks
//! each window's report, and publishes each window's session to serve.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use posix_sim::Process;
use prefetch::{Policy, PrefetchConfig, PrefetchDaemon, PrefetchStats};
use simrt::{SchedStats, Sim, SimTime};
use storage_sim::StorageStack;
use tfdarshan::{
    analyze, diff, reduce_job_sessions_tree, DarshanTracerFactory, RankSession, TfDarshanConfig,
    TfDarshanWrapper, TreeReduceConfig,
};
use tfsim::{
    fit, Callback, Dataset, Element, MapFn, ModelCheckpoint, ModelSpec, Parallelism, PipelineCtx,
    ProfilerOptions, TfRuntime, Tracer, TracerFactory, XSpace,
};
use workloads::platform::{self, mounts, Machine};
use workloads::{models, profiler_options};

use crate::calib::Calibrator;
use crate::publish::Publisher;
use crate::report::{EndToEnd, Layers, Metric, Scaled};
use crate::stats::{median, ms_since, peak_rss_mb, timed, CountSink, Rng, Spans, MIB};
use crate::{kinds, rotate, time_setups, Args, Checks, Kind};

/// One training workload.
pub struct Shape {
    name: &'static str,
    machine: fn() -> Machine,
    mount: &'static str,
    files: usize,
    sizes: fn(&mut Rng, usize) -> Vec<u64>,
    model: fn(usize) -> ModelSpec,
    /// Preprocessing cost of one sample after it is read.
    decode: fn(u64) -> Duration,
    batch: usize,
    epochs: usize,
    /// Steps per profiling window; windows run back to back.
    window: usize,
    /// Export DXT timelines into the trace (false: bandwidth-only).
    full_export: bool,
    /// Run the reactive staging daemon (HDD → Optane).
    prefetch: bool,
    checkpoint_every: Option<usize>,
}

/// Many small files on Lustre, full-export windows: the most syscalls,
/// Darshan records and DXT segments per host second.
pub const IMAGENET_LUSTRE: Shape = Shape {
    name: "imagenet_lustre",
    machine: platform::kebnekaise,
    mount: mounts::LUSTRE,
    files: 64 * 60,
    sizes: imagenet_sizes,
    model: alexnet,
    decode: models::imagenet_decode_cost,
    batch: 64,
    epochs: 1,
    window: 5,
    full_export: true,
    prefetch: false,
    checkpoint_every: None,
};

/// Bimodal large files on the HDD over two epochs, bandwidth-only
/// windows, online staging to Optane and STDIO checkpoints to SSD.
pub const MALWARE_HDD: Shape = Shape {
    name: "malware_hdd",
    machine: platform::greendog,
    mount: mounts::HDD,
    files: 32 * 24,
    sizes: malware_sizes,
    model: models::malware_cnn,
    decode: models::malware_decode_cost,
    batch: 32,
    epochs: 2,
    window: 4,
    full_export: false,
    prefetch: true,
    checkpoint_every: Some(5),
};

fn imagenet_sizes(rng: &mut Rng, n: usize) -> Vec<u64> {
    rng.lognormal_sizes(n, 88e3, 0.45, 4 << 10, 1 << 20)
}

/// Paper §V.B census: ≈40% of the files below 2 MB, ≈8% of the bytes.
fn malware_sizes(rng: &mut Rng, n: usize) -> Vec<u64> {
    let small = (n as f64 * 0.4067).round() as usize;
    let mut v = rng.lognormal_sizes(small, 750e3, 0.6, 64 << 10, (2 << 20) - 1);
    v.extend(rng.lognormal_sizes(n - small, 5.5e6, 0.5, 2 << 20, 60 << 20));
    rng.shuffle(&mut v);
    v
}

fn alexnet(batch: usize) -> ModelSpec {
    models::alexnet(batch, 2)
}

/// Files below this are worth staging (§V.B).
const STAGE_BELOW: u64 = 2 << 20;
/// Fast-tier budget as a share of the dataset's bytes.
const STAGE_BUDGET: f64 = 0.08;

/// Times the Darshan tracer's `stop`: the stop snapshot.
struct TimedTracer {
    inner: Arc<dyn Tracer>,
    spans: Arc<Mutex<Spans>>,
}

impl Tracer for TimedTracer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stop(&self) {
        let t = Instant::now();
        self.inner.stop();
        self.spans.lock().add("darshan.snapshot", ms_since(t));
    }

    fn collect(&self, space: &mut XSpace) {
        self.inner.collect(space);
    }
}

struct TimedFactory {
    inner: Arc<DarshanTracerFactory>,
    spans: Arc<Mutex<Spans>>,
}

impl TracerFactory for TimedFactory {
    fn create(&self, rt: &Arc<TfRuntime>, options: &ProfilerOptions) -> Option<Arc<dyn Tracer>> {
        let inner = self.inner.create(rt, options)?;
        Some(Arc::new(TimedTracer {
            inner,
            spans: self.spans.clone(),
        }))
    }
}

/// One map call as the pipeline saw it, in virtual time.
struct Call {
    t0: SimTime,
    t1: SimTime,
    bytes: u64,
}

/// The map calls of one sample.
#[derive(Default)]
struct Reads {
    /// Completed calls not yet behind the last closed window.
    calls: VecDeque<Call>,
    /// Calls still reading, by element index: the size they will deliver.
    in_flight: HashMap<usize, u64>,
    done: u64,
    errors: Vec<String>,
}

/// The capture function (`tf.io.read_file`, then decode), metered: it
/// logs each call's virtual interval and bytes for the window check, and
/// its host time under `span` when `host` is set. A failed read is
/// logged as a failed call.
fn capture(
    decode: fn(u64) -> Duration,
    sizes: HashMap<String, u64>,
    reads: Arc<Mutex<Reads>>,
    host: Option<(Arc<Mutex<Spans>>, &'static str)>,
) -> MapFn {
    Arc::new(move |ctx: &PipelineCtx, index, path: &str| -> Element {
        let h = Instant::now();
        let t0 = simrt::now();
        reads.lock().in_flight.insert(index, sizes[path]);
        let read = tfsim::ops::read_file(&ctx.rt, path);
        let bytes = *read.as_ref().unwrap_or(&0);
        tfsim::ops::compute(&ctx.rt, "Decode", decode(bytes));
        let t1 = simrt::now();
        if let Some((spans, span)) = &host {
            spans.lock().add(span, ms_since(h));
        }
        let mut reads = reads.lock();
        reads.in_flight.remove(&index);
        reads.done += 1;
        if let Err(e) = read {
            reads.errors.push(format!("{path}: {e:?}"));
        }
        reads.calls.push_back(Call { t0, t1, bytes });
        Element { index, bytes }
    })
}

/// What one sample's callback collected.
#[derive(Default)]
struct Log {
    step_ms: Vec<f64>,
    start_ms: Vec<f64>,
    report_ms: Vec<f64>,
    bytes_read: u64,
    window_secs: f64,
    posix_ops: u64,
    posix_records: u64,
    stdio_records: u64,
    dxt_segments: u64,
    wire_bytes: Vec<f64>,
    tree_levels: u64,
    pair_merges: u64,
    virt_secs: f64,
    /// Machine-speed factor of each window (see `calib`).
    factors: Vec<f64>,
    kernel_ms: Vec<f64>,
    checks: Checks,
}

/// The benchmark-owned callback: back-to-back profiling windows of
/// `window` steps, host-timed steps and `profiler_stop` calls.
struct Meter {
    shape: &'static Shape,
    kind: Kind,
    tfd: Option<Arc<DarshanTracerFactory>>,
    step: usize,
    t_step: Instant,
    cal: Calibrator,
    reads: Arc<Mutex<Reads>>,
    log: Arc<Mutex<Log>>,
    spans: Arc<Mutex<Spans>>,
    publisher: Arc<Mutex<Publisher>>,
}

impl Callback for Meter {
    fn on_step_begin(&mut self, rt: &Arc<TfRuntime>, _step: usize) {
        if self.step == 0 {
            self.cal.boundary();
        }
        if self.tfd.is_some() && self.step.is_multiple_of(self.shape.window) {
            let t = Instant::now();
            rt.profiler_start(profiler_options())
                .expect("no session is open");
            self.log.lock().start_ms.push(ms_since(t));
        }
        self.t_step = Instant::now();
    }

    fn on_step_end(&mut self, rt: &Arc<TfRuntime>, _step: usize) {
        let step_ms = ms_since(self.t_step);
        self.log.lock().step_ms.push(step_ms);
        self.step += 1;
        if self.tfd.is_some() && self.step.is_multiple_of(self.shape.window) {
            let t = Instant::now();
            rt.profiler_stop().expect("a session is open");
            let report_ms = ms_since(t);
            self.log.lock().report_ms.push(report_ms);
            self.after_window(report_ms);
        }
        if self.step.is_multiple_of(self.shape.window) {
            self.cal.boundary();
        }
    }
}

impl Meter {
    /// Off the timed path: check the window's report, break the report
    /// call down (traced samples), and publish the window's session.
    fn after_window(&mut self, report_ms: f64) {
        let tfd = self.tfd.as_ref().expect("instrumented sample");
        let wrapper = tfd.wrapper();
        let rep = tfd.last_report().expect("the window produced a report");
        let mut log = self.log.lock();

        // tf-Darshan's windowed bytes_read equals the bytes the pipeline
        // delivered in the window: at least every map call wholly inside
        // it, at most every call that overlaps it (or still reads).
        let (a, b) = rep.window;
        let rel = |t: SimTime| wrapper.library().runtime().rel(t);
        let mut reads = self.reads.lock();
        let in_flight: u64 = reads.in_flight.values().sum();
        let calls = &mut reads.calls;
        while calls.front().is_some_and(|c| rel(c.t1) < a) {
            calls.pop_front();
        }
        let (mut lo, mut hi) = (0u64, in_flight);
        for c in calls.iter().take_while(|c| rel(c.t0) <= b) {
            hi += c.bytes;
            if rel(c.t0) > a && rel(c.t1) < b {
                lo += c.bytes;
            }
        }
        drop(reads);
        let got = rep.io.bytes_read;
        log.checks.check(lo <= got && got <= hi, || {
            format!("window {a:.6}..{b:.6}: bytes_read {got} outside the pipeline's [{lo}, {hi}]")
        });
        log.bytes_read += got;
        log.window_secs += rep.io.window_secs;
        let io = &rep.io;
        log.posix_ops += io.opens + io.reads + io.writes + io.seeks + io.stats;

        // The window's session as a rank-0 publisher extracts it. Traced
        // samples time each call; `analyze` is re-run on the inputs the
        // tracer gave it, so `export` is the rest of `profiler_stop`.
        let mut sp = (self.kind == Kind::Traced).then(Spans::default);
        let (s0, s1) = wrapper.session_snapshots().expect("closed window");
        let d = timed(sp.as_mut(), "core.diff", || diff(&s0, &s1));
        let dxt = timed(sp.as_mut(), "core.session_dxt", || wrapper.session_dxt());
        log.posix_records += d.posix.len() as u64;
        log.stdio_records += d.stdio.len() as u64;
        log.dxt_segments += dxt.len() as u64;
        if let Some(s) = sp.as_mut() {
            let on_path = if self.shape.full_export {
                &dxt[..]
            } else {
                &[]
            };
            s.time("core.analyze", || analyze(&d, on_path));
        }
        let session = RankSession {
            rank: 0,
            diff: d,
            dxt,
        };
        if let Some(s) = sp.as_mut() {
            let one = std::slice::from_ref(&session);
            let cfg = TreeReduceConfig::default();
            let (_, st) = s.time("core.tree_reduce", || {
                reduce_job_sessions_tree(one, 1, &cfg)
            });
            log.tree_levels += u64::from(st.levels);
            log.pair_merges += st.pair_merges;
        }
        let mut publisher = self.publisher.lock();
        publisher.expect(self.shape.name, &rep);
        let msg = publisher.message(self.shape.name, &session);
        let lines = [timed(sp.as_mut(), "wire.encode", || msg.to_line())];
        log.wire_bytes.push(lines[0].len() as f64);
        publisher.ingest_round(&lines, sp.as_mut(), &mut log.checks);
        publisher.scrape();
        drop(publisher);

        if let Some(sp) = sp {
            let mut all = self.spans.lock();
            let snapshot = *all.get("darshan.snapshot").last().expect("stop was timed");
            let dxt = if self.shape.full_export {
                sp.get("core.session_dxt")[0]
            } else {
                0.0
            };
            let parts = snapshot + sp.get("core.diff")[0] + dxt + sp.get("core.analyze")[0];
            all.add("core.export", report_ms - parts);
            all.absorb(sp);
        }
    }
}

/// One set-up machine, ready to run.
struct Rig {
    m: Machine,
    /// Visit order, and each file's size.
    files: Vec<String>,
    sizes: Vec<u64>,
    tfd: Option<Arc<DarshanTracerFactory>>,
    daemon: Option<Arc<PrefetchDaemon>>,
    probe_events: Option<Arc<CountSink>>,
}

fn setup(shape: &Shape, seed: u64, kind: Kind, spans: &Arc<Mutex<Spans>>) -> Rig {
    let m = (shape.machine)();
    let mut rng = Rng::new(seed);
    let mut files: Vec<(String, u64)> = (shape.sizes)(&mut rng, shape.files)
        .into_iter()
        .enumerate()
        .map(|(i, size)| (format!("{}/ds/{i:06}", shape.mount), size))
        .collect();
    for (path, size) in &files {
        m.stack
            .create_synthetic(path, *size, rng.next_u64())
            .expect("dataset file is created");
    }
    // Visit order differs from creation (on-disk) order.
    rng.shuffle(&mut files);
    let (files, sizes): (Vec<String>, Vec<u64>) = files.into_iter().unzip();
    let total: u64 = sizes.iter().sum();
    m.drop_caches();

    let tfd = (kind != Kind::Bare).then(|| {
        let wrapper = TfDarshanWrapper::install(
            m.process.clone(),
            TfDarshanConfig {
                full_export: shape.full_export,
                ..Default::default()
            },
        );
        if kind == Kind::Traced {
            // The factory registers itself; give it a throwaway runtime so
            // the measured runtime's only tracer is the timing wrapper.
            let spare = TfRuntime::new(Process::new(StorageStack::new()), Sim::new(), 1);
            let inner = DarshanTracerFactory::register(&spare, wrapper);
            m.rt.register_tracer_factory(Arc::new(TimedFactory {
                inner: inner.clone(),
                spans: spans.clone(),
            }));
            inner
        } else {
            DarshanTracerFactory::register(&m.rt, wrapper)
        }
    });
    let daemon = shape.prefetch.then(|| {
        let budget = (total as f64 * STAGE_BUDGET) as u64;
        let mut cfg = PrefetchConfig::new(Policy::Reactive, mounts::HDD, mounts::OPTANE, budget);
        cfg.max_file_bytes = STAGE_BELOW;
        PrefetchDaemon::spawn(&m.sim, m.process.clone(), cfg, None)
    });
    let probe_events = (kind == Kind::Traced).then(|| {
        let sink = Arc::new(CountSink(AtomicU64::new(0)));
        m.process.probe().register(sink.clone());
        sink
    });
    Rig {
        m,
        files,
        sizes,
        tfd,
        daemon,
        probe_events,
    }
}

/// Everything one sample produced.
struct Sample {
    kind: Kind,
    scaled: Scaled,
    run_host_s: f64,
    sched: SchedStats,
    log: Log,
    publisher: Publisher,
    prefetch: PrefetchStats,
    cache_hit_ratio: f64,
    hdd_read: u64,
    optane_read: u64,
    ssd_write: u64,
    probe_events: u64,
}

impl Sample {
    /// Virtual metrics and counts that must repeat bit for bit.
    fn fingerprint(&self) -> Vec<u64> {
        let l = &self.log;
        vec![
            l.virt_secs.to_bits(),
            l.bytes_read,
            l.window_secs.to_bits(),
            l.posix_ops,
            l.posix_records,
            l.stdio_records,
            l.dxt_segments,
            self.sched.switches,
            self.prefetch.promoted_files,
        ]
    }
}

fn sample(
    shape: &'static Shape,
    seed: u64,
    kind: Kind,
    trace: bool,
    spans: &Arc<Mutex<Spans>>,
) -> Sample {
    let rig = setup(shape, seed, kind, spans);
    let log = Arc::new(Mutex::new(Log::default()));
    let publisher = Arc::new(Mutex::new(Publisher::new()));
    let reads = Arc::new(Mutex::new(Reads::default()));
    let host = match kind {
        Kind::Instr => None,
        Kind::Traced => Some((spans.clone(), "posix.read_file")),
        Kind::Bare => trace.then(|| (spans.clone(), "posix.read_file_bare")),
    };
    let sizes = rig
        .files
        .iter()
        .cloned()
        .zip(rig.sizes.iter().copied())
        .collect();
    let capture = capture(shape.decode, sizes, reads.clone(), host);
    let mut meter = Meter {
        shape,
        kind,
        tfd: rig.tfd.clone(),
        step: 0,
        t_step: Instant::now(),
        cal: Calibrator::default(),
        reads: reads.clone(),
        log: log.clone(),
        spans: spans.clone(),
        publisher: publisher.clone(),
    };
    let (rt, cache, daemon) = (rig.m.rt.clone(), rig.m.cache.clone(), rig.daemon.clone());
    let (files, main_log) = (rig.files.clone(), log.clone());
    rig.m.sim.spawn("main", move || {
        let model = (shape.model)(shape.batch);
        let steps = files.len() / shape.batch;
        let pipeline = Dataset::from_files(files)
            .map(capture, Parallelism::Fixed(1))
            .batch(shape.batch)
            .prefetch(10);
        let mut ckpt = shape
            .checkpoint_every
            .map(|n| ModelCheckpoint::new(&model, n, format!("{}/ckpt/model", mounts::SSD)));
        let mut virt = Duration::ZERO;
        for epoch in 0..shape.epochs {
            if epoch > 0 {
                // As the paper does between Greendog runs; otherwise the
                // page cache absorbs every epoch after the first.
                cache.drop_caches();
            }
            // The meter runs first, so a checkpoint lands inside the open
            // window but outside the step's host time.
            let mut cbs: Vec<&mut dyn Callback> = vec![&mut meter];
            if let Some(c) = ckpt.as_mut() {
                cbs.push(c);
            }
            virt += fit(&rt, &model, &pipeline, steps, &mut cbs).wall;
        }
        if let Some(d) = daemon {
            d.stop();
        }
        let mut log = main_log.lock();
        log.virt_secs = virt.as_secs_f64();
        log.factors = meter.cal.factors();
        log.kernel_ms = std::mem::take(&mut meter.cal.kernel_ms);
    });
    let t = Instant::now();
    rig.m.sim.run();
    let run_host_s = t.elapsed().as_secs_f64();

    let device = |mount| {
        rig.m
            .device_of(mount)
            .map(|d| d.snapshot())
            .unwrap_or_default()
    };
    let (hit, miss, _) = rig.m.cache.stats();
    let mut log = std::mem::take(&mut *log.lock());
    // Every map call is an operation; a read error fails it.
    let reads = std::mem::take(&mut *reads.lock());
    log.checks.attempted += reads.done;
    log.checks.failed += reads.errors.len() as u64;
    for e in reads.errors.iter().take(3) {
        eprintln!("read failed: {e}");
    }
    let publisher = std::mem::replace(&mut *publisher.lock(), Publisher::new());
    let scaled = Scaled::new(
        &log.factors,
        shape.window,
        &log.step_ms,
        &log.report_ms,
        &publisher.scrape_ms,
    );
    Sample {
        kind,
        scaled,
        run_host_s,
        sched: rig.m.sim.stats(),
        log,
        publisher,
        prefetch: rig.daemon.as_ref().map(|d| d.stats()).unwrap_or_default(),
        cache_hit_ratio: hit as f64 / (hit + miss).max(1) as f64,
        hdd_read: device(mounts::HDD).bytes_read,
        optane_read: device(mounts::OPTANE).bytes_read,
        ssd_write: device(mounts::SSD).bytes_written,
        probe_events: rig.probe_events.map_or(0, |s| s.0.load(Ordering::Relaxed)),
    }
}

pub fn run(shape: &'static Shape, args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let spans = Arc::new(Mutex::new(Spans::default()));
    let mut samples: Vec<Sample> = Vec::new();
    let (mut first_instr, mut first_bare) = (None, None);
    let mut peak_rss = None;
    rotate(args.seconds, kinds(args.trace), |kind| {
        let mut s = sample(shape, args.seed, kind, args.trace, &spans);
        let own = std::mem::take(&mut s.log.checks);
        checks.attempted += own.attempted;
        checks.failed += own.failed;
        if kind == Kind::Bare {
            let fp = vec![
                s.log.virt_secs.to_bits(),
                s.sched.switches,
                s.prefetch.promoted_files,
            ];
            checks.same_virtual(&mut first_bare, fp, "bare");
        } else {
            s.publisher.check_totals(checks);
            checks.same_virtual(&mut first_instr, s.fingerprint(), "instrumented");
        }
        peak_rss.get_or_insert_with(peak_rss_mb);
        samples.push(s);
    });
    let spans = std::mem::take(&mut *spans.lock());
    let of = |k: Kind| samples.iter().filter(move |s| s.kind == k);
    let pooled = |k: Kind, f: fn(&Sample) -> &[f64]| -> Vec<f64> {
        of(k).flat_map(|s| f(s).iter().copied()).collect()
    };
    let instr = of(Kind::Instr).next().expect("an instrumented sample ran");
    let bare = of(Kind::Bare).next().expect("a bare sample ran");
    if !args.trace {
        let setup_s = time_setups(|| {
            let t = Instant::now();
            let rig = setup(shape, args.seed, Kind::Instr, &Arc::default());
            let s = t.elapsed().as_secs_f64();
            if let Some(d) = &rig.daemon {
                d.stop();
            }
            rig.m.sim.run();
            s
        });
        return EndToEnd {
            setup_s,
            peak_rss_mb: peak_rss.expect("a sample ran"),
            step_ms: pooled(Kind::Instr, |s| &s.scaled.step_ms),
            bare_step_ms: pooled(Kind::Bare, |s| &s.scaled.step_ms),
            report_ms: pooled(Kind::Instr, |s| &s.scaled.report_ms),
            posix_read_mibps: instr.log.bytes_read as f64 / MIB / instr.log.window_secs,
            scrape_ms: pooled(Kind::Instr, |s| &s.scaled.scrape_ms),
        }
        .metrics();
    }
    let t = of(Kind::Traced).next().expect("a traced sample ran");
    let run_host: Vec<f64> = of(Kind::Traced).map(|s| s.run_host_s).collect();
    let p50 = |name| spans.p50(name);
    let report_parts = p50("darshan.snapshot")
        + p50("core.diff")
        + if shape.full_export {
            p50("core.session_dxt")
        } else {
            0.0
        }
        + p50("core.analyze")
        + p50("core.export");
    Layers {
        switches: t.sched.switches,
        event_polls: t.sched.event_polls,
        run_host_s: median(&run_host),
        read_file_ms: spans.get("posix.read_file").to_vec(),
        read_file_bare_ms: spans.get("posix.read_file_bare").to_vec(),
        posix_ops: t.log.posix_ops,
        probe_events: t.probe_events,
        cache_hit_ratio: t.cache_hit_ratio,
        hdd_read_mib: t.hdd_read as f64 / MIB,
        optane_read_mib: t.optane_read as f64 / MIB,
        ssd_write_mib: t.ssd_write as f64 / MIB,
        snapshot_ms: spans.get("darshan.snapshot").to_vec(),
        posix_records: t.log.posix_records,
        stdio_records: t.log.stdio_records,
        dxt_segments: t.log.dxt_segments,
        diff_ms: spans.get("core.diff").to_vec(),
        session_dxt_ms: spans.get("core.session_dxt").to_vec(),
        analyze_ms: spans.get("core.analyze").to_vec(),
        export_ms: spans.get("core.export").to_vec(),
        report_ms: pooled(Kind::Traced, |s| &s.log.report_ms),
        report_parts_ms: report_parts,
        tree_reduce_ms: spans.get("core.tree_reduce").to_vec(),
        tree_levels: t.log.tree_levels,
        pair_merges: t.log.pair_merges,
        // One rank: the window's stop mark is its one stop snapshot.
        mark_stop_ms: spans.get("darshan.snapshot").to_vec(),
        wire_encode_ms: spans.get("wire.encode").to_vec(),
        wire_decode_ms: spans.get("wire.decode").to_vec(),
        wire_bytes: t.log.wire_bytes.clone(),
        profiler_start_ms: pooled(Kind::Traced, |s| &s.log.start_ms),
        promoted_files: t.prefetch.promoted_files,
        promoted_mib: t.prefetch.promoted_bytes as f64 / MIB,
        evicted_files: t.prefetch.evicted_files,
        failed_promotions: t.prefetch.failed_promotions,
        useful_ratio: t.optane_read as f64 / t.prefetch.promoted_bytes.max(1) as f64,
        ingest_ms: spans.get("serve.ingest").to_vec(),
        ingest_per_s: pooled(Kind::Instr, |s| &s.publisher.ingest_per_s),
        ingested: t.publisher.ingested(),
        dropped: t.publisher.dropped(),
        offered: t.publisher.offered(),
        metrics_kib: t.publisher.metrics_bytes as f64 / 1024.0,
        traced_step_ms: pooled(Kind::Traced, |s| &s.log.step_ms),
        untraced_step_ms: pooled(Kind::Instr, |s| &s.log.step_ms),
        bare_step_ms: pooled(Kind::Bare, |s| &s.log.step_ms),
        virt_secs: instr.log.virt_secs,
        kernel_ms: samples
            .iter()
            .flat_map(|s| s.log.kernel_ms.iter().copied())
            .collect(),
        bare_virt_secs: bare.log.virt_secs,
    }
    .metrics(checks)
}
