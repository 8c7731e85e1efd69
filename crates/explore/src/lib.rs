//! Schedule-space model checking for simrt workloads.
//!
//! A single simulated run exercises exactly one interleaving — the FIFO
//! schedule — so order-dependent bugs (a racy write guarded by a flag the
//! FIFO order happens to set first, a lock-ordering deadlock only one
//! acquisition order triggers) pass the sanitizer silently. This crate
//! turns simrt's scheduler into a controllable decision oracle and runs
//! the *same* workload under many schedules, collecting `iosan` verdicts
//! on every one:
//!
//! - [`check`] explores schedules by bounded DFS over decision points
//!   (default) or by seeded random walk, deduplicates findings across
//!   schedules by schedule-independent fingerprint, and reports schedule /
//!   pruning / budget accounting in an [`ExploreReport`].
//! - Every distinct finding carries a [`ReplayToken`] — the decision trace
//!   as a one-line string such as `rt1:0.1` — that [`replay`] turns back
//!   into the exact failing schedule, after greedy shrinking to the fewest
//!   non-FIFO choices that still reproduce the finding.
//! - Happens-before-based partial-order reduction (see the `por` module
//!   internals and DESIGN.md §3.9) skips swaps that provably (at block
//!   granularity) cannot change what the sanitizer observes.
//!
//! The workload is a closure `Fn(&Sim) -> ProbeBus`: set up the simulation
//! (spawn tasks, mount filesystems, create processes) and hand back the
//! probe bus the checker should observe. It is called once per schedule
//! against a fresh `Sim`, so it must be self-contained and deterministic
//! apart from scheduling.

#![warn(missing_docs)]

mod policy;
mod por;
mod token;

pub use token::{ParseTokenError, ReplayToken, TOKEN_VERSION};

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use iosan::{Category, Finding, HbIndex, IoSanitizer, SanitizerReport, Severity};
use parking_lot::Mutex;
use probe::{EventKind, IoEvent, Origin, ProbeBus, ProbeSink};
use simrt::{Sim, SimTime, SyncOp};
use tfdarshan::report::ExploreSummary;

use policy::{DecisionRec, RecordingPolicy, Tail};

/// A workload under test: set up tasks on the fresh `Sim`, return the
/// probe bus to observe. Invoked once per explored schedule.
pub type Workload<'a> = dyn Fn(&Sim) -> ProbeBus + 'a;

/// How to pick schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Bounded depth-first search over the decision tree: each executed
    /// schedule is a forced prefix completed FIFO; alternatives at every
    /// decision point at or past the prefix become new branches, subject
    /// to the preemption bound and partial-order reduction.
    Dfs,
    /// Seeded pseudo-random walk: every schedule resolves all decisions
    /// with a splitmix64 stream derived from `seed` and the schedule
    /// index. No bound, no pruning — a cheap smoke over deep interleavings
    /// the bounded DFS cannot reach.
    Random {
        /// Base seed; schedule `i` uses a stream derived from `(seed, i)`.
        seed: u64,
    },
}

/// Exploration parameters. `Default` is the CI-budget configuration:
/// DFS, 256 schedules, preemption bound 2, POR on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Schedule selection strategy.
    pub strategy: Strategy,
    /// Hard cap on executed schedules (shrink replays not counted).
    pub max_schedules: usize,
    /// DFS only: maximum non-FIFO choices per schedule.
    pub preemption_bound: u32,
    /// Enable happens-before partial-order reduction (DFS only).
    pub por: bool,
    /// Cap on extra schedule executions spent shrinking each finding's
    /// replay token.
    pub shrink_budget: usize,
    /// Safety cap on recorded decisions per schedule; past it the policy
    /// answers FIFO (guards against schedules that diverge under forced
    /// reordering).
    pub max_decisions: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            strategy: Strategy::Dfs,
            max_schedules: 256,
            preemption_bound: 2,
            por: true,
            shrink_budget: 64,
            max_decisions: 4096,
        }
    }
}

/// One deduplicated finding with its reproducer.
#[derive(Clone, Debug)]
pub struct ExploreFinding {
    /// The sanitizer finding, as produced by the first schedule that hit it.
    pub finding: Finding,
    /// Schedule-independent fingerprint (deduplication key).
    pub fingerprint: u64,
    /// Number of executed schedules on which this fingerprint fired.
    pub schedules_hit: u64,
    /// Shrunk replay token reproducing the finding ([`replay`] accepts it).
    pub token: ReplayToken,
}

/// What [`check`] returns: every distinct finding plus full accounting of
/// the exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules executed (shrink replays excluded).
    pub schedules_run: u64,
    /// DFS branches skipped by partial-order reduction.
    pub pruned_by_por: u64,
    /// DFS branches skipped by the preemption bound.
    pub pruned_by_bound: u64,
    /// Decision points across all executed schedules.
    pub decision_points: u64,
    /// Maximum non-FIFO picks any executed schedule used.
    pub max_preemptions_used: u64,
    /// Executed schedules on which at least one finding fired.
    pub schedules_with_findings: u64,
    /// Extra schedule executions spent shrinking replay tokens.
    pub shrink_runs: u64,
    /// True when `max_schedules` ran out with unexplored branches left.
    pub budget_exhausted: bool,
    /// Distinct findings, most severe first.
    pub findings: Vec<ExploreFinding>,
}

impl ExploreReport {
    /// Total schedules skipped (POR + preemption bound).
    pub fn schedules_pruned(&self) -> u64 {
        self.pruned_by_por + self.pruned_by_bound
    }

    /// True when no schedule produced any finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The summary embedded in [`tfdarshan::report::TfDarshanReport`].
    pub fn summary(&self) -> ExploreSummary {
        let mut categories: Vec<String> = self
            .findings
            .iter()
            .map(|f| f.finding.category.name().to_string())
            .collect();
        categories.sort();
        categories.dedup();
        ExploreSummary {
            schedules_run: self.schedules_run,
            schedules_pruned: self.schedules_pruned(),
            decision_points: self.decision_points,
            max_preemptions_used: self.max_preemptions_used,
            distinct_findings: self.findings.len() as u64,
            schedules_with_findings: self.schedules_with_findings,
            budget_exhausted: self.budget_exhausted,
            categories,
        }
    }

    /// Copy the exploration counters into a scheduler-stats record so the
    /// ascii overview and the JSON report share one source of truth.
    pub fn annotate_stats(&self, stats: &mut simrt::SchedStats) {
        stats.decision_points = self.decision_points;
        stats.schedules_run = self.schedules_run;
        stats.schedules_pruned = self.schedules_pruned();
        stats.max_preemptions_used = self.max_preemptions_used;
    }

    /// Human-readable summary block.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "schedules: {} run | {} pruned ({} por, {} bound) | {} decision point(s) | max preemptions {}{}\n",
            self.schedules_run,
            self.schedules_pruned(),
            self.pruned_by_por,
            self.pruned_by_bound,
            self.decision_points,
            self.max_preemptions_used,
            if self.budget_exhausted {
                " | budget exhausted"
            } else {
                ""
            },
        ));
        if self.findings.is_empty() {
            out.push_str("verdict: clean on every explored schedule\n");
        } else {
            out.push_str(&format!(
                "verdict: {} distinct finding(s) on {} schedule(s)\n",
                self.findings.len(),
                self.schedules_with_findings
            ));
            for f in &self.findings {
                out.push_str(&format!(
                    "  [{}] {}: {} (hit {} schedule(s), replay {})\n",
                    match f.finding.severity {
                        Severity::Error => "error",
                        Severity::Warning => "warn",
                        Severity::Info => "info",
                    },
                    f.finding.category.name(),
                    f.finding.message,
                    f.schedules_hit,
                    f.token,
                ));
            }
        }
        out
    }
}

/// Everything one replayed schedule produced.
pub struct ReplayOutcome {
    /// Raw probe event stream, in delivery order.
    pub events: Vec<IoEvent>,
    /// Canonicalized stream for cross-replay comparison ([`canonicalize`]).
    pub canonical_events: Vec<CanonicalEvent>,
    /// The sanitizer's verdicts for this schedule.
    pub report: SanitizerReport,
    /// Schedule-independent fingerprints of `report.findings`, in order.
    pub fingerprints: Vec<u64>,
    /// Scheduler statistics for this single run.
    pub stats: simrt::SchedStats,
    /// The decision trace actually executed, canonicalized.
    pub token: ReplayToken,
}

/// Explore the workload's schedule space and report every distinct
/// sanitizer finding with a shrunk replay token.
pub fn check<F>(config: &ExploreConfig, workload: F) -> ExploreReport
where
    F: Fn(&Sim) -> ProbeBus,
{
    let mut report = ExploreReport::default();
    let mut findings: BTreeMap<u64, ExploreFinding> = BTreeMap::new();
    match config.strategy {
        Strategy::Dfs => dfs(config, &workload, &mut report, &mut findings),
        Strategy::Random { seed } => {
            random_walk(config, &workload, seed, &mut report, &mut findings)
        }
    }
    for ef in findings.values_mut() {
        let (tok, runs) = shrink(&workload, &ef.token, ef.fingerprint, config);
        ef.token = tok;
        report.shrink_runs += runs;
    }
    report.findings = findings.into_values().collect();
    report.findings.sort_by(|a, b| {
        severity_rank(a.finding.severity)
            .cmp(&severity_rank(b.finding.severity))
            .then_with(|| a.finding.category.name().cmp(b.finding.category.name()))
            .then_with(|| a.fingerprint.cmp(&b.fingerprint))
    });
    report
}

fn severity_rank(s: Severity) -> u8 {
    match s {
        Severity::Error => 0,
        Severity::Warning => 1,
        Severity::Info => 2,
    }
}

/// Re-execute the schedule a token describes and return everything the
/// run produced. Deterministic: the same token yields a byte-identical
/// canonical event stream and identical finding fingerprints every time.
pub fn replay<F>(workload: F, token: &ReplayToken) -> ReplayOutcome
where
    F: Fn(&Sim) -> ProbeBus,
{
    let out = run_one(
        &workload,
        token.decisions.clone(),
        Tail::Fifo,
        ExploreConfig::default().max_decisions,
    );
    ReplayOutcome {
        canonical_events: canonicalize(&out.events),
        fingerprints: out
            .report
            .findings
            .iter()
            .map(canonical_fingerprint)
            .collect(),
        token: ReplayToken::new(out.trace.iter().map(|r| r.chosen).collect()).canonical(),
        events: out.events,
        report: out.report,
        stats: out.stats,
    }
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------

/// An [`IoEvent`] made comparable across runs of the same process.
///
/// Sync object ids come from a process-global counter (every `Sim` keeps
/// allocating), so two executions of the *same schedule* disagree on the
/// raw ids and on the labels that embed them (`Mutex#5 'ckpt'` vs
/// `Mutex#9 'ckpt'`). Canonicalization densely renumbers lock-domain sync
/// objects by first appearance, resolves targets to strings, and scrubs
/// `#<digits>` id suffixes out of sync labels. Everything else — task ids,
/// virtual timestamps, byte ranges — is already deterministic per schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalEvent {
    /// Raw simulated-thread id (per-`Sim`, deterministic).
    pub task: u64,
    /// Virtual time at operation entry.
    pub t0: SimTime,
    /// Virtual time at operation completion.
    pub t1: SimTime,
    /// Application-issued, stdio-internal, or prefetch.
    pub origin: Origin,
    /// Resolved target path or label, with sync-object ids scrubbed.
    pub target: String,
    /// Operation payload; lock-domain sync objects densely renumbered.
    pub kind: EventKind,
}

/// Canonicalize a stream for cross-run comparison (see [`CanonicalEvent`]).
pub fn canonicalize(events: &[IoEvent]) -> Vec<CanonicalEvent> {
    let mut obj_map: BTreeMap<u64, u64> = BTreeMap::new();
    events
        .iter()
        .map(|ev| {
            let kind = match ev.kind {
                EventKind::Sync {
                    op: op @ (SyncOp::Acquire | SyncOp::Release | SyncOp::Signal | SyncOp::Wait),
                    obj,
                } => {
                    let next = obj_map.len() as u64;
                    let dense = *obj_map.entry(obj).or_insert(next);
                    EventKind::Sync { op, obj: dense }
                }
                k => k,
            };
            let resolved = ev.target.resolve();
            let target = if matches!(ev.kind, EventKind::Sync { .. }) {
                scrub_ids(&resolved)
            } else {
                resolved.to_string()
            };
            CanonicalEvent {
                task: ev.task.0,
                t0: ev.t0,
                t1: ev.t1,
                origin: ev.origin,
                target,
                kind,
            }
        })
        .collect()
}

/// Drop the digits after every `#` (sync labels embed process-global ids).
fn scrub_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '#' {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
        }
    }
    out
}

/// [`Finding::fingerprint`] with process-global sync ids scrubbed from the
/// message, so the same logical finding hashes identically on every
/// schedule and every replay.
pub fn canonical_fingerprint(f: &Finding) -> u64 {
    let mut c = f.clone();
    c.message = scrub_ids(&f.message);
    c.fingerprint()
}

// ---------------------------------------------------------------------------
// Per-schedule execution
// ---------------------------------------------------------------------------

/// Records every event delivered on the bus and exposes a delivery
/// watermark the recording policy samples at each decision point.
struct StreamSink {
    events: Mutex<Vec<IoEvent>>,
    delivered: Arc<AtomicUsize>,
}

impl ProbeSink for StreamSink {
    fn on_events(&self, events: &[IoEvent]) {
        let mut e = self.events.lock();
        e.extend_from_slice(events);
        self.delivered.store(e.len(), Ordering::SeqCst);
    }
}

struct ScheduleOutcome {
    trace: Vec<DecisionRec>,
    events: Vec<IoEvent>,
    report: SanitizerReport,
    stats: simrt::SchedStats,
}

fn run_one<F>(workload: &F, prefix: Vec<u32>, tail: Tail, max_decisions: usize) -> ScheduleOutcome
where
    F: Fn(&Sim) -> ProbeBus,
{
    // Drop anything a previous schedule left in this thread's rings (an
    // abandoned deadlock schedule never reaches its flush points).
    probe::discard_thread_rings();
    let sim = Sim::new();
    let delivered = Arc::new(AtomicUsize::new(0));
    let policy = RecordingPolicy::new(prefix, tail, delivered.clone(), max_decisions);
    sim.set_schedule_policy(policy.clone());
    let bus = workload(&sim);
    let sink = Arc::new(StreamSink {
        events: Mutex::new(Vec::new()),
        delivered,
    });
    let sink_id = bus.register(sink.clone());
    let handle = IoSanitizer::install(&sim, &[&bus]);
    let panicked = catch_unwind(AssertUnwindSafe(|| sim.run())).err();
    let stats = sim.stats();
    let mut report = handle.finalize();
    bus.unregister(sink_id);
    sim.clear_schedule_policy();
    if let Some(payload) = panicked {
        // `.as_ref()` is load-bearing: `&payload` would coerce the Box
        // itself to `&dyn Any` and every downcast would miss.
        let msg = panic_message(payload.as_ref());
        if msg.contains("virtual-time deadlock") {
            // The scheduler's panic is this schedule's verdict: a reachable
            // deadlock, reported and replayable like any sanitizer finding.
            report.findings.push(Finding {
                severity: Severity::Error,
                category: Category::Deadlock,
                message: msg,
                file: String::new(),
                tasks: vec![],
                segments: vec![],
                witnesses: vec![],
            });
        } else {
            resume_unwind(payload);
        }
    }
    let events = sink.events.lock().clone();
    ScheduleOutcome {
        trace: policy.take_trace(),
        events,
        report,
        stats,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Exploration strategies
// ---------------------------------------------------------------------------

fn record_outcome(
    report: &mut ExploreReport,
    findings: &mut BTreeMap<u64, ExploreFinding>,
    out: &ScheduleOutcome,
) {
    report.schedules_run += 1;
    report.decision_points += out.stats.decision_points;
    let token = ReplayToken::new(out.trace.iter().map(|r| r.chosen).collect()).canonical();
    report.max_preemptions_used = report
        .max_preemptions_used
        .max(u64::from(token.preemptions()));
    if !out.report.findings.is_empty() {
        report.schedules_with_findings += 1;
    }
    for f in &out.report.findings {
        let fp = canonical_fingerprint(f);
        findings
            .entry(fp)
            .and_modify(|e| e.schedules_hit += 1)
            .or_insert_with(|| ExploreFinding {
                finding: f.clone(),
                fingerprint: fp,
                schedules_hit: 1,
                token: token.clone(),
            });
    }
}

fn dfs<F>(
    config: &ExploreConfig,
    workload: &F,
    report: &mut ExploreReport,
    findings: &mut BTreeMap<u64, ExploreFinding>,
) where
    F: Fn(&Sim) -> ProbeBus,
{
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if report.schedules_run as usize >= config.max_schedules {
            report.budget_exhausted = true;
            return;
        }
        let depth0 = prefix.len();
        let out = run_one(workload, prefix, Tail::Fifo, config.max_decisions);
        record_outcome(report, findings, &out);
        let hb = HbIndex::from_events(&out.events);
        let base: Vec<u32> = out.trace.iter().map(|r| r.chosen).collect();
        // Expand alternatives only at decision points at or past this
        // node's own prefix: shallower alternatives are the parent's
        // siblings and were queued when the parent expanded.
        for (d, rec) in out.trace.iter().enumerate().skip(depth0) {
            for alt in 0..rec.tasks.len() {
                if alt == rec.chosen as usize {
                    continue;
                }
                let mut child = base[..d].to_vec();
                child.push(alt as u32);
                let preemptions = child.iter().filter(|&&x| x != 0).count() as u32;
                if preemptions > config.preemption_bound {
                    report.pruned_by_bound += 1;
                    continue;
                }
                if config.por && por::can_prune(&out.events, &hb, rec, alt) {
                    report.pruned_by_por += 1;
                    continue;
                }
                stack.push(child);
            }
        }
    }
}

fn random_walk<F>(
    config: &ExploreConfig,
    workload: &F,
    seed: u64,
    report: &mut ExploreReport,
    findings: &mut BTreeMap<u64, ExploreFinding>,
) where
    F: Fn(&Sim) -> ProbeBus,
{
    for i in 0..config.max_schedules {
        // Derive a well-mixed per-schedule seed from (seed, i).
        let mut s = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        s = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let out = run_one(
            workload,
            Vec::new(),
            Tail::Random(Mutex::new(s)),
            config.max_decisions,
        );
        record_outcome(report, findings, &out);
    }
}

fn shrink<F>(
    workload: &F,
    token: &ReplayToken,
    fingerprint: u64,
    config: &ExploreConfig,
) -> (ReplayToken, u64)
where
    F: Fn(&Sim) -> ProbeBus,
{
    let mut best = token.canonical();
    let mut runs = 0u64;
    let mut budget = config.shrink_budget as u64;
    // Greedily zero non-FIFO choices from the end; each accepted zeroing
    // restarts the scan (earlier choices may become removable).
    let mut progress = true;
    while progress && budget > 0 {
        progress = false;
        for i in (0..best.decisions.len()).rev() {
            if best.decisions[i] == 0 {
                continue;
            }
            if budget == 0 {
                break;
            }
            let mut cand = best.clone();
            cand.decisions[i] = 0;
            let cand = cand.canonical();
            budget -= 1;
            runs += 1;
            let out = run_one(
                workload,
                cand.decisions.clone(),
                Tail::Fifo,
                config.max_decisions,
            );
            if out
                .report
                .findings
                .iter()
                .any(|f| canonical_fingerprint(f) == fingerprint)
            {
                best = cand;
                progress = true;
                break;
            }
        }
    }
    (best, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probe::intern;
    use simrt::TaskId;
    use std::sync::Arc;
    use std::time::Duration;

    /// Emit a manual probe event from inside a running simulated task.
    fn emit(bus: &ProbeBus, path: &str, kind: EventKind) {
        let now = simrt::now();
        bus.emit(IoEvent {
            task: simrt::current_task(),
            pid: 0,
            t0: now,
            t1: now,
            origin: Origin::App,
            target: intern(path),
            kind,
        });
    }

    fn write_kind(offset: u64, len: u64) -> EventKind {
        EventKind::Write { fd: 3, offset, len }
    }

    /// Single task, no contention: exactly one schedule, no findings.
    fn solo_workload(sim: &Sim) -> ProbeBus {
        let bus = ProbeBus::new();
        let b = bus.clone();
        sim.spawn("solo", move || {
            simrt::sleep(Duration::from_millis(1));
            emit(&b, "/data/a", write_kind(0, 64));
            simrt::sleep(Duration::from_millis(1));
            emit(&b, "/data/a", write_kind(64, 64));
        });
        bus
    }

    /// The order-dependent bug the FIFO schedule cannot see: task `a`
    /// publishes a flag under a lock after writing; task `b` only issues
    /// its unlocked conflicting write when the flag is still unset, which
    /// FIFO order never observes.
    fn racy_workload(sim: &Sim) -> ProbeBus {
        let bus = ProbeBus::new();
        let ready = Arc::new(simrt::sync::Mutex::named(false, Some("ready")));
        {
            let b = bus.clone();
            let ready = ready.clone();
            sim.spawn("a", move || {
                simrt::sleep(Duration::from_millis(1));
                let mut g = ready.lock();
                emit(&b, "/data/shared", write_kind(0, 100));
                *g = true;
            });
        }
        {
            let b = bus.clone();
            sim.spawn("b", move || {
                simrt::sleep(Duration::from_millis(1));
                let published = *ready.lock();
                if published {
                    emit(
                        &b,
                        "/data/shared",
                        EventKind::Read {
                            fd: 3,
                            offset: 0,
                            len: 100,
                        },
                    );
                } else {
                    emit(&b, "/data/shared", write_kind(0, 100));
                }
            });
        }
        bus
    }

    #[test]
    fn solo_workload_runs_one_schedule_clean() {
        let report = check(&ExploreConfig::default(), solo_workload);
        assert_eq!(report.schedules_run, 1, "{report:?}");
        assert_eq!(report.decision_points, 0);
        assert!(report.is_clean());
        assert!(!report.budget_exhausted);
    }

    #[test]
    fn fifo_misses_the_race_but_dfs_finds_it() {
        // Single schedule (what a plain sanitized run sees): clean.
        let fifo = replay(racy_workload, &ReplayToken::fifo());
        assert!(
            fifo.report.findings.is_empty(),
            "FIFO should be clean: {:?}",
            fifo.report.findings
        );

        let report = check(&ExploreConfig::default(), racy_workload);
        assert!(report.schedules_run > 1);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.finding.category == Category::DataRace),
            "exploration should surface the data race: {report:?}"
        );
        let race = report
            .findings
            .iter()
            .find(|f| f.finding.category == Category::DataRace)
            .unwrap();
        assert!(race.token.preemptions() >= 1, "token: {}", race.token);

        // The shrunk token reproduces the finding, deterministically.
        let r1 = replay(racy_workload, &race.token);
        let r2 = replay(racy_workload, &race.token);
        assert!(r1.fingerprints.contains(&race.fingerprint));
        assert_eq!(r1.canonical_events, r2.canonical_events);
        assert_eq!(r1.fingerprints, r2.fingerprints);
    }

    #[test]
    fn random_walk_also_finds_the_race() {
        let config = ExploreConfig {
            strategy: Strategy::Random { seed: 7 },
            max_schedules: 16,
            ..ExploreConfig::default()
        };
        let report = check(&config, racy_workload);
        assert_eq!(report.schedules_run, 16);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.finding.category == Category::DataRace),
            "{report:?}"
        );
    }

    #[test]
    fn deadlock_schedule_becomes_a_finding() {
        // Classic AB/BA lock order: FIFO runs to completion, one
        // interleaving deadlocks. The scheduler panic is converted into a
        // replayable Deadlock finding.
        fn deadlock_workload(sim: &Sim) -> ProbeBus {
            let bus = ProbeBus::new();
            let l1 = Arc::new(simrt::sync::Mutex::named((), Some("l1")));
            let l2 = Arc::new(simrt::sync::Mutex::named((), Some("l2")));
            {
                let (l1, l2) = (l1.clone(), l2.clone());
                sim.spawn("ab", move || {
                    simrt::sleep(Duration::from_millis(1));
                    let _a = l1.lock();
                    simrt::sleep(Duration::from_millis(1));
                    let _b = l2.lock();
                });
            }
            sim.spawn("ba", move || {
                simrt::sleep(Duration::from_millis(1));
                let _b = l2.lock();
                simrt::sleep(Duration::from_millis(1));
                let _a = l1.lock();
            });
            bus
        }
        let report = check(&ExploreConfig::default(), deadlock_workload);
        let dl = report
            .findings
            .iter()
            .find(|f| f.finding.category == Category::Deadlock);
        assert!(dl.is_some(), "{report:?}");
        let dl = dl.unwrap();
        let r = replay(deadlock_workload, &dl.token);
        assert!(r.fingerprints.contains(&dl.fingerprint));
    }

    #[test]
    fn summary_and_ascii_agree_with_report() {
        let report = check(&ExploreConfig::default(), racy_workload);
        let s = report.summary();
        assert_eq!(s.schedules_run, report.schedules_run);
        assert_eq!(s.distinct_findings, report.findings.len() as u64);
        assert!(s.categories.contains(&"data-race".to_string()));
        let text = report.render_ascii();
        assert!(text.contains("schedules:"));
        assert!(text.contains("data-race"));
        let mut stats = simrt::SchedStats::default();
        report.annotate_stats(&mut stats);
        assert_eq!(stats.schedules_run, report.schedules_run);
    }

    #[test]
    fn canonicalize_scrubs_global_sync_ids() {
        let mk = |obj: u64, label: &str| IoEvent {
            task: TaskId(1),
            pid: 0,
            t0: SimTime::ZERO,
            t1: SimTime::ZERO,
            origin: Origin::App,
            target: intern(label),
            kind: EventKind::Sync {
                op: SyncOp::Acquire,
                obj,
            },
        };
        let a = canonicalize(&[mk(41, "Mutex#41 'ready'")]);
        let b = canonicalize(&[mk(97, "Mutex#97 'ready'")]);
        assert_eq!(a, b);
        assert_eq!(a[0].target, "Mutex# 'ready'");
        assert!(matches!(a[0].kind, EventKind::Sync { obj: 0, .. }));
    }
}
