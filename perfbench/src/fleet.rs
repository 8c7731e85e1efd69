//! `fleet_serve`: many small multi-rank jobs profiled window by window and
//! streamed into one serve aggregator.
//!
//! Each window round, every rank of every tenant reads its job's shared
//! file off Lustre and one private file off its node's SSD. The round then
//! ends in collective stop marks, a `JobCtx::collect` tree reduction per
//! job, and every rank's session going `SessionDiffMsg::to_line` →
//! `from_line` → `Aggregator::ingest`, with one `render_metrics` scrape
//! per round. Two node carriers drive all ranks: few parked carriers keep
//! each simulator handoff cheap and steady (see `NOTES.md`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use posix_sim::{OpenFlags, Process};
use simrt::sync::Barrier;
use simrt::{SchedStats, Sim};
use storage_sim::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, LustreFs, LustreParams, PageCache,
    StorageStack,
};
use tfdarshan::{
    diff, reduce_job_sessions_tree, JobCtx, RankSession, TfDarshanConfig, TreeReduceConfig,
};

use crate::calib::Calibrator;
use crate::publish::Publisher;
use crate::report::{EndToEnd, Layers, Metric, Scaled};
use crate::stats::{median, ms_since, peak_rss_mb, timed, CountSink, Rng, Spans, MIB};
use crate::{kinds, rotate, time_setups, Args, Checks, Kind};

const TENANTS: usize = 64;
const RANKS: usize = 4;
/// Node carriers; tenant `j` lives on node `j % NODES`.
const NODES: usize = 2;
/// Window rounds per sample.
const ROUNDS: usize = 6;

fn shared_path(job: usize, round: usize) -> String {
    format!("/scratch/t{job}/w{round}")
}

fn private_path(job: usize, rank: usize, round: usize) -> String {
    format!("/node{}/t{job}/r{rank}/w{round}", job % NODES)
}

/// One tenant: a profiled job, or (bare) plain rank processes.
enum Tenant {
    Job(JobCtx),
    Bare(Vec<Arc<Process>>),
}

impl Tenant {
    fn process(&self, rank: usize) -> &Arc<Process> {
        match self {
            Tenant::Job(j) => j.rank(rank).process(),
            Tenant::Bare(p) => &p[rank],
        }
    }
}

struct Rig {
    sim: Sim,
    cache: Arc<PageCache>,
    tenants: Vec<Tenant>,
    /// Per round, the order in which each node visits its tenants.
    order: Vec<Vec<usize>>,
    probe_events: Option<Arc<CountSink>>,
}

fn setup(seed: u64, kind: Kind) -> Rig {
    let sim = Sim::new();
    let stack = StorageStack::new();
    let cache = Arc::new(PageCache::new(8 << 30));
    for n in 0..NODES {
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd(&format!("nssd{n}"))),
            cache.clone(),
            LocalFsParams::default(),
        );
        stack.mount(format!("/node{n}"), fs as Arc<dyn FileSystem>);
    }
    let lustre = LustreFs::new(LustreParams::default(), cache.clone());
    stack.mount("/scratch", lustre as Arc<dyn FileSystem>);

    let mut rng = Rng::new(seed);
    let shared = rng.lognormal_sizes(ROUNDS * TENANTS, 64e3, 0.5, 4 << 10, 4 << 20);
    let private = rng.lognormal_sizes(ROUNDS * TENANTS * RANKS, 128e3, 0.5, 4 << 10, 4 << 20);
    let (mut shared, mut private) = (shared.into_iter(), private.into_iter());
    let mut create = |path: String, size: Option<u64>| {
        let size = size.expect("one size per file");
        stack
            .create_synthetic(&path, size, rng.next_u64())
            .expect("fleet file is created");
    };
    for k in 0..ROUNDS {
        for j in 0..TENANTS {
            create(shared_path(j, k), shared.next());
            for r in 0..RANKS {
                create(private_path(j, r, k), private.next());
            }
        }
    }
    let order = (0..ROUNDS)
        .map(|_| {
            let mut o: Vec<usize> = (0..TENANTS).collect();
            rng.shuffle(&mut o);
            o
        })
        .collect();
    cache.drop_caches();

    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|_| match kind {
            Kind::Bare => Tenant::Bare((0..RANKS).map(|_| Process::new(stack.clone())).collect()),
            _ => Tenant::Job(JobCtx::new(&stack, RANKS, &TfDarshanConfig::default())),
        })
        .collect();
    let probe_events = (kind == Kind::Traced).then(|| {
        let sink = Arc::new(CountSink(AtomicU64::new(0)));
        for t in &tenants {
            if let Tenant::Job(j) = t {
                j.attach_shard_merge(sink.clone());
            }
        }
        sink
    });
    Rig {
        sim,
        cache,
        tenants,
        order,
        probe_events,
    }
}

fn read_whole(p: &Arc<Process>, path: &str) -> u64 {
    let fd = p.open(path, OpenFlags::rdonly()).expect("fleet file opens");
    let mut got = 0;
    loop {
        let n = p.read(fd, 1 << 20, None).expect("fleet file reads");
        if n == 0 {
            break;
        }
        got += n;
    }
    p.close(fd).expect("fleet file closes");
    got
}

/// Shared state of one sample's node carriers.
#[derive(Default)]
struct Round {
    lines: Vec<String>,
    /// This round's per-layer host ms, summed over jobs and ranks.
    parts: BTreeMap<&'static str, f64>,
}

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
    /// Per-round totals of each report-path layer.
    parts: BTreeMap<&'static str, Vec<f64>>,
    /// Machine-speed factor of each round (see `calib`).
    factors: Vec<f64>,
    kernel_ms: Vec<f64>,
    checks: Checks,
}

impl Log {
    fn merge(&mut self, o: Log) {
        self.bytes_read += o.bytes_read;
        self.window_secs += o.window_secs;
        self.posix_ops += o.posix_ops;
        self.posix_records += o.posix_records;
        self.stdio_records += o.stdio_records;
        self.dxt_segments += o.dxt_segments;
        self.wire_bytes.extend(o.wire_bytes);
        self.checks.attempted += o.checks.attempted;
        self.checks.failed += o.checks.failed;
    }
}

struct Sample {
    kind: Kind,
    scaled: Scaled,
    run_host_s: f64,
    virt_secs: f64,
    sched: SchedStats,
    log: Log,
    publisher: Publisher,
    cache_hit_ratio: f64,
    probe_events: u64,
    tree_levels: u64,
    pair_merges: u64,
}

impl Sample {
    fn fingerprint(&self) -> Vec<u64> {
        let l = &self.log;
        vec![
            self.virt_secs.to_bits(),
            l.bytes_read,
            l.window_secs.to_bits(),
            l.posix_ops,
            l.posix_records,
            l.stdio_records,
            l.dxt_segments,
            self.sched.switches,
        ]
    }
}

/// Collect and encode one node's windows, after every rank's stop mark.
/// Pure host work: no call in here advances virtual time, so no other
/// carrier runs inside any span, and traced spans add up.
fn collect_and_encode(sh: &Shared, node: usize, round: usize, spans: Option<&Mutex<Spans>>) {
    let mut sp = spans.map(|_| Spans::default());
    let mut lines = Vec::new();
    let mut acc = Log::default();
    for &j in sh.order[round].iter().filter(|&&j| j % NODES == node) {
        let Tenant::Job(job) = &sh.tenants[j] else {
            unreachable!("only profiled tenants close windows")
        };
        let report = timed(sp.as_mut(), "core.tree_reduce", || job.collect());
        let Some(report) = report else {
            acc.checks
                .check(false, || format!("tenant {j} round {round}: no job report"));
            continue;
        };
        acc.checks.check(report.missing_ranks.is_empty(), || {
            format!("tenant {j}: missing ranks {:?}", report.missing_ranks)
        });
        let io = &report.job.io;
        acc.bytes_read += io.bytes_read;
        acc.window_secs += io.window_secs;
        acc.posix_ops += io.opens + io.reads + io.writes + io.seeks + io.stats;
        let id = format!("tenant-{j:02}");
        let mut publisher = sh.publisher.lock();
        publisher.expect(&id, &report.job);
        for rank in job.ranks() {
            let session = match sp.as_mut() {
                Some(s) => {
                    let w = rank.wrapper();
                    let (s0, s1) = w.session_snapshots().expect("closed window");
                    RankSession {
                        rank: rank.rank(),
                        diff: s.time("core.diff", || diff(&s0, &s1)),
                        dxt: s.time("core.session_dxt", || w.session_dxt()),
                    }
                }
                None => rank.session().expect("closed window"),
            };
            acc.posix_records += session.diff.posix.len() as u64;
            acc.stdio_records += session.diff.stdio.len() as u64;
            acc.dxt_segments += session.dxt.len() as u64;
            let msg = timed(sp.as_mut(), "core.analyze", || {
                publisher.message(&id, &session)
            });
            let line = timed(sp.as_mut(), "wire.encode", || msg.to_line());
            acc.wire_bytes.push(line.len() as f64);
            lines.push(line);
        }
    }
    sh.log.lock().merge(acc);
    let mut r = sh.round.lock();
    r.lines.extend(lines);
    if let (Some(sp), Some(all)) = (sp, spans) {
        for name in PURE_PARTS {
            *r.parts.entry(name).or_default() += sp.get(name).iter().sum::<f64>();
        }
        all.lock().absorb(sp);
    }
}

/// Report-path calls timed one by one (per round, summed over calls).
const PURE_PARTS: [&str; 5] = [
    "core.tree_reduce",
    "core.diff",
    "core.session_dxt",
    "core.analyze",
    "wire.encode",
];

/// Everything the report path times per round: the stop-mark phase, the
/// pure calls, and serve's decode and ingest.
const REPORT_PARTS: [&str; 8] = [
    "core.mark_stop",
    "core.tree_reduce",
    "core.diff",
    "core.session_dxt",
    "core.analyze",
    "wire.encode",
    "wire.decode",
    "serve.ingest",
];

/// State one sample's node carriers share.
struct Shared {
    tenants: Vec<Tenant>,
    /// Per round, the order in which each node visits its tenants.
    order: Vec<Vec<usize>>,
    barrier: Barrier,
    publisher: Mutex<Publisher>,
    round: Mutex<Round>,
    log: Mutex<Log>,
}

fn sample(seed: u64, kind: Kind, trace: bool, spans: &Arc<Mutex<Spans>>) -> Sample {
    let rig = setup(seed, kind);
    let sh = Arc::new(Shared {
        tenants: rig.tenants,
        order: rig.order,
        barrier: Barrier::new(NODES),
        publisher: Mutex::new(Publisher::new()),
        round: Mutex::default(),
        log: Mutex::default(),
    });
    let traced = kind == Kind::Traced;
    for n in 0..NODES {
        let sh = sh.clone();
        let spans = spans.clone();
        rig.sim.spawn(format!("node{n}"), move || {
            let read_span = match kind {
                Kind::Bare => trace.then_some("posix.read_file_bare"),
                Kind::Traced => Some("posix.read_file"),
                Kind::Instr => None,
            };
            // Node 0 times the phases between barriers; only one carrier
            // runs at a time, so a phase's wall time covers both nodes.
            let lead = n == 0;
            let mut cal = Calibrator::default();
            let mut reads = Spans::default();
            for k in 0..ROUNDS {
                let mine: Vec<usize> = sh.order[k]
                    .iter()
                    .copied()
                    .filter(|j| j % NODES == n)
                    .collect();
                if lead && k == 0 {
                    cal.boundary();
                }
                sh.barrier.wait();
                let t_round = Instant::now();
                for &j in &mine {
                    if let Tenant::Job(job) = &sh.tenants[j] {
                        job.mark_start().expect("tf-darshan attaches on every rank");
                    }
                }
                sh.barrier.wait();
                if lead && kind != Kind::Bare {
                    sh.log.lock().start_ms.push(ms_since(t_round));
                }
                for &j in &mine {
                    for r in 0..RANKS {
                        let p = sh.tenants[j].process(r);
                        read_whole(p, &shared_path(j, k));
                        let t = Instant::now();
                        read_whole(p, &private_path(j, r, k));
                        if let Some(name) = read_span {
                            reads.add(name, ms_since(t));
                        }
                    }
                }
                sh.barrier.wait();
                let t_report = Instant::now();
                let step = ms_since(t_round);
                if lead {
                    sh.log.lock().step_ms.push(step);
                }
                if kind == Kind::Bare {
                    if lead {
                        cal.boundary();
                    }
                    continue;
                }
                for &j in &mine {
                    if let Tenant::Job(job) = &sh.tenants[j] {
                        job.mark_stop();
                    }
                }
                sh.barrier.wait();
                if lead && traced {
                    sh.round
                        .lock()
                        .parts
                        .insert("core.mark_stop", ms_since(t_report));
                }
                let sp = traced.then_some(&*spans);
                collect_and_encode(&sh, n, k, sp);
                sh.barrier.wait();
                if lead {
                    let phase = ms_since(t_report);
                    let mut s = sh.round.lock();
                    let lines = std::mem::take(&mut s.lines);
                    let mut p = sh.publisher.lock();
                    let mut l = sh.log.lock();
                    let mut round_spans = traced.then(Spans::default);
                    let ingest = p.ingest_round(&lines, round_spans.as_mut(), &mut l.checks);
                    p.scrape();
                    l.report_ms.push(phase + ingest);
                    if let Some(rs) = round_spans {
                        for name in ["wire.decode", "serve.ingest"] {
                            s.parts.insert(name, rs.get(name).iter().sum());
                        }
                        spans.lock().absorb(rs);
                    }
                    for (name, v) in std::mem::take(&mut s.parts) {
                        l.parts.entry(name).or_default().push(v);
                    }
                    drop((l, p, s));
                    cal.boundary();
                }
            }
            spans.lock().absorb(reads);
            if lead {
                let mut l = sh.log.lock();
                l.factors = cal.factors();
                l.kernel_ms = cal.kernel_ms;
            }
        });
    }
    let t = Instant::now();
    rig.sim.run();
    let run_host_s = t.elapsed().as_secs_f64();

    // The tree's shape, off the timed path: one job's last window again.
    let (mut tree_levels, mut pair_merges) = (0, 0);
    if let Tenant::Job(job) = &sh.tenants[0] {
        let sessions: Vec<RankSession> = job.ranks().iter().filter_map(|r| r.session()).collect();
        let (_, st) =
            reduce_job_sessions_tree(&sessions, RANKS as u32, &TreeReduceConfig::default());
        tree_levels = u64::from(st.levels);
        pair_merges = st.pair_merges;
    }
    let (hit, miss, _) = rig.cache.stats();
    let log = std::mem::take(&mut *sh.log.lock());
    let publisher = std::mem::replace(&mut *sh.publisher.lock(), Publisher::new());
    let scaled = Scaled::new(
        &log.factors,
        1,
        &log.step_ms,
        &log.report_ms,
        &publisher.scrape_ms,
    );
    Sample {
        kind,
        scaled,
        run_host_s,
        virt_secs: rig.sim.now().as_secs_f64(),
        sched: rig.sim.stats(),
        log,
        publisher,
        cache_hit_ratio: hit as f64 / (hit + miss).max(1) as f64,
        probe_events: rig.probe_events.map_or(0, |s| s.0.load(Ordering::Relaxed)),
        tree_levels,
        pair_merges,
    }
}

pub fn run(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let spans = Arc::new(Mutex::new(Spans::default()));
    let mut samples: Vec<Sample> = Vec::new();
    let (mut first_instr, mut first_bare) = (None, None);
    let mut peak_rss = None;
    rotate(args.seconds, kinds(args.trace), |kind| {
        let mut s = sample(args.seed, kind, args.trace, &spans);
        let own = std::mem::take(&mut s.log.checks);
        checks.attempted += own.attempted;
        checks.failed += own.failed;
        if kind == Kind::Bare {
            let fp = vec![s.virt_secs.to_bits(), s.sched.switches];
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
            let rig = (setup(args.seed, Kind::Instr), Publisher::new());
            let s = t.elapsed().as_secs_f64();
            drop(rig);
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
    let traced: Vec<&Sample> = of(Kind::Traced).collect();
    let parts = |name: &str| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|s| s.log.parts.get(name).into_iter().flatten().copied())
            .collect()
    };
    let report_ms = pooled(Kind::Traced, |s| &s.log.report_ms);
    // Per round: the report minus every timed part is the rest of the
    // path (barrier handoffs and loop work between the calls).
    let rest: Vec<f64> = traced
        .iter()
        .flat_map(|s| {
            s.log.report_ms.iter().enumerate().map(|(i, r)| {
                r - REPORT_PARTS
                    .iter()
                    .map(|n| s.log.parts.get(n).map_or(0.0, |v| v[i]))
                    .sum::<f64>()
            })
        })
        .collect();
    let report_parts = REPORT_PARTS.iter().map(|n| median(&parts(n))).sum::<f64>() + median(&rest);
    let run_host: Vec<f64> = traced.iter().map(|s| s.run_host_s).collect();
    Layers {
        switches: t.sched.switches,
        event_polls: t.sched.event_polls,
        run_host_s: median(&run_host),
        read_file_ms: spans.get("posix.read_file").to_vec(),
        read_file_bare_ms: spans.get("posix.read_file_bare").to_vec(),
        posix_ops: t.log.posix_ops,
        probe_events: t.probe_events,
        cache_hit_ratio: t.cache_hit_ratio,
        // The stop-mark phase snapshots every rank once.
        snapshot_ms: parts("core.mark_stop")
            .iter()
            .map(|ms| ms / (TENANTS * RANKS) as f64)
            .collect(),
        posix_records: t.log.posix_records,
        stdio_records: t.log.stdio_records,
        dxt_segments: t.log.dxt_segments,
        diff_ms: parts("core.diff"),
        session_dxt_ms: parts("core.session_dxt"),
        analyze_ms: parts("core.analyze"),
        export_ms: rest,
        report_ms,
        report_parts_ms: report_parts,
        tree_reduce_ms: parts("core.tree_reduce"),
        tree_levels: t.tree_levels,
        pair_merges: t.pair_merges,
        mark_stop_ms: parts("core.mark_stop"),
        wire_encode_ms: spans.get("wire.encode").to_vec(),
        wire_decode_ms: spans.get("wire.decode").to_vec(),
        wire_bytes: t.log.wire_bytes.clone(),
        profiler_start_ms: pooled(Kind::Traced, |s| &s.log.start_ms),
        ingest_ms: spans.get("serve.ingest").to_vec(),
        ingest_per_s: pooled(Kind::Instr, |s| &s.publisher.ingest_per_s),
        ingested: t.publisher.ingested(),
        dropped: t.publisher.dropped(),
        offered: t.publisher.offered(),
        metrics_kib: t.publisher.metrics_bytes as f64 / 1024.0,
        traced_step_ms: pooled(Kind::Traced, |s| &s.log.step_ms),
        untraced_step_ms: pooled(Kind::Instr, |s| &s.log.step_ms),
        bare_step_ms: pooled(Kind::Bare, |s| &s.log.step_ms),
        virt_secs: instr.virt_secs,
        kernel_ms: samples
            .iter()
            .flat_map(|s| s.log.kernel_ms.iter().copied())
            .collect(),
        bare_virt_secs: bare.virt_secs,
        ..Layers::default()
    }
    .metrics(checks)
}
