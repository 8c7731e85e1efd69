//! # prefetch — online staging daemon for the tf-Darshan reproduction
//!
//! The paper's §V.B staging optimization is *offline*: profile one epoch,
//! pick a size threshold, copy the small files to Optane before the next
//! run. This crate closes the loop at runtime. A daemon thread on the
//! [`simrt`] scheduler watches the probe event spine, maintains per-file
//! heat and epoch-order statistics, and asynchronously promotes hot small
//! files up the tier stack (HDD → Optane) — evicting cold ones — while
//! respecting a fast-tier byte budget with watermark hysteresis.
//!
//! There is one daemon, [`PrefetchDaemon`], and what it is spawned over
//! selects its ranking policy:
//! * [`PrefetchDaemon::spawn`] serves one process and ranks files by
//!   epoch order, with two policies:
//!   * **Reactive** ([`Policy::Reactive`]): heat comes from observed probe
//!     events only. The first epoch is spent *learning* the access order
//!     (promoting each file right after the application reads it, when its
//!     pages are still cache-hot); from the second epoch on the daemon
//!     knows the order and stages ahead of the consumer.
//!   * **Clairvoyant** ([`Policy::Clairvoyant`]): ML training revisits a
//!     known file list every epoch, and the input pipeline publishes it
//!     through [`tfsim::EpochOrder`]. The daemon prefetches ahead of the
//!     pipeline's cursor from the very first read — including during
//!     setup, before the first epoch starts, when the order was
//!     `preload`ed.
//! * [`PrefetchDaemon::spawn_job`] runs the same daemon once per rank of an
//!   [`mpi_sim::MpiWorld`] and ranks files by *job-wide* heat. Run once per
//!   rank over a shared fast tier, independent daemons race each other for
//!   the tier's headroom and stage the same files twice. The job daemon
//!   fixes both with three invariants:
//!   * **Fused heat**: every rank's heat vector is summed element-wise by
//!     one [`mpi_sim::SumAllreduce`] each tick;
//!   * **Ownership**: every file is owned by exactly one rank
//!     ([`PrefetchDaemon::owner_rank`]) — only the owner stages or evicts
//!     it;
//!   * **One job budget**: `budget_bytes` is partitioned each tick in
//!     proportion to the fused heat of each rank's owned files (equal split
//!     until heat exists), so the shares always sum to the job budget.
//!
//!   A stopping rank `leave()`s the allreduce, which completes any round
//!   its peers are blocked in, so ranks stopping at different virtual
//!   times cannot deadlock the simulation.
//!
//! Daemon I/O is tagged [`probe::Origin::Prefetch`] (via
//! [`posix_sim::PrefetchOrigin`]), so application-attributed consumers —
//! the Darshan POSIX/STDIO modules — never see it, exactly as
//! libc-internal stdio descriptor traffic is hidden. System-wide consumers
//! (dstat, the device counters) still do.
//!
//! Promotion uses the [`storage_sim::StorageStack`] staging API: a timed
//! copy runs under `begin_promote` (readers keep hitting the intact
//! original), then `commit_promote` atomically installs the redirect.
//! Eviction drops the redirect and the fast copy; the original was never
//! removed, so no copy-back is needed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpi_sim::{MpiWorld, SumAllreduce};
use parking_lot::Mutex;
use posix_sim::{OpenFlags, PrefetchOrigin, Process};
use probe::{EventKind, IoEvent, Origin, ProbeSink, SinkId};
use simrt::sync::Notify;
use storage_sim::{FsError, WritePayload};
use tfdarshan::StagingPlan;
use tfsim::EpochOrder;

/// How the daemon decides what is worth staging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Learn heat and epoch order from observed probe events only.
    Reactive,
    /// Use the pipeline-published [`EpochOrder`] hint to stage ahead of
    /// the consumer cursor (requires [`PrefetchDaemon::spawn`] to be given
    /// the hint).
    Clairvoyant,
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct PrefetchConfig {
    /// Promotion policy. [`PrefetchDaemon::spawn_job`] requires
    /// [`Policy::Reactive`].
    pub policy: Policy,
    /// Mount prefix the daemon watches (the slow tier, e.g. `/data/hdd`).
    pub src_prefix: String,
    /// Mount prefix staged copies land under (the fast tier).
    pub fast_prefix: String,
    /// Fast-tier byte budget the staged set must fit in — under
    /// [`PrefetchDaemon::spawn_job`] the whole job's, not one rank's.
    pub budget_bytes: u64,
    /// Promotion stops at `high_watermark × budget_bytes`; crossing it
    /// triggers eviction back down to the low watermark (hysteresis, so
    /// the daemon does not thrash at the boundary).
    pub high_watermark: f64,
    /// Eviction target as a fraction of `budget_bytes`.
    pub low_watermark: f64,
    /// Files larger than this are never staged — the paper's point is
    /// that *small* files dominate seek cost, not bytes.
    pub max_file_bytes: u64,
    /// Idle wakeup period when no probe events arrive; under
    /// [`PrefetchDaemon::spawn_job`] also the heat-fusion period.
    pub tick: Duration,
    /// When the fast tier is full, allow evicting a strictly colder staged
    /// file to make room for a hotter candidate. Displacement pays when the
    /// budget covers a meaningful fraction of the working set; when the
    /// share is much smaller than a cyclically-read shard it degenerates to
    /// evict-just-before-reuse, so callers may turn it off. Ignored by
    /// [`PrefetchDaemon::spawn_job`], whose hottest-first order leaves
    /// nothing hotter to displace for.
    pub displace: bool,
    /// Optional advisor-seeded plan ([`tfdarshan::seed_plan`]) applied
    /// untimed when the daemon starts, before any online decision. Ignored
    /// by [`PrefetchDaemon::spawn_job`].
    pub seed: Option<StagingPlan>,
}

impl PrefetchConfig {
    /// Reasonable defaults for the given tiers and budget.
    pub fn new(policy: Policy, src_prefix: &str, fast_prefix: &str, budget_bytes: u64) -> Self {
        PrefetchConfig {
            policy,
            src_prefix: src_prefix.to_string(),
            fast_prefix: fast_prefix.to_string(),
            budget_bytes,
            high_watermark: 0.9,
            low_watermark: 0.7,
            max_file_bytes: 1 << 20,
            tick: Duration::from_millis(50),
            displace: true,
            seed: None,
        }
    }

    /// Attach an advisor-seeded initial plan.
    pub fn with_seed(mut self, plan: StagingPlan) -> Self {
        self.seed = Some(plan);
        self
    }
}

/// Counters the daemon exposes (all monotonic).
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetchStats {
    /// Files promoted to the fast tier (timed copies + seed plan).
    pub promoted_files: u64,
    /// Bytes promoted.
    pub promoted_bytes: u64,
    /// Files evicted from the fast tier.
    pub evicted_files: u64,
    /// Bytes evicted.
    pub evicted_bytes: u64,
    /// Application `open`s the sink observed under `src_prefix`.
    pub observed_opens: u64,
    /// Daemon work passes executed.
    pub passes: u64,
    /// Promotions abandoned (copy error, tier full, raced unlink).
    pub failed_promotions: u64,
}

/// What the sink has learned about the workload's access pattern.
#[derive(Default)]
struct Learn {
    /// Files in first-observed order (one epoch's visit order).
    order: Vec<String>,
    /// Position of each file in `order`.
    pos: HashMap<String, usize>,
    /// Open count per file (this rank's contribution to fused heat).
    heat: HashMap<String, u64>,
    /// Recently observed opens not yet considered for promotion.
    queue: VecDeque<String>,
    /// Set once a file repeats: the full epoch order is known.
    epoch_learned: bool,
    /// Position of the most recently observed open (consumer cursor).
    cursor: usize,
}

/// One daemon thread's state, shared with its sink and the handle.
#[derive(Default)]
struct Shared {
    learn: Mutex<Learn>,
    notify: Notify,
    stats: Mutex<PrefetchStats>,
    /// Heat-fusion rounds completed.
    fusions: AtomicU64,
    /// Byte budget of the last pass: a rank's share of the job budget.
    share: AtomicU64,
}

/// The daemon's probe sink: folds application `open` events under the
/// watched prefix into the heat/order model and pokes the daemon thread.
/// Per the spine contract it never sleeps or blocks — [`Notify::notify_one`]
/// only stores a permit and calls `wake`.
struct HeatSink {
    shared: Arc<Shared>,
    src_prefix: String,
}

impl ProbeSink for HeatSink {
    fn on_events(&self, events: &[IoEvent]) {
        let mut poked = false;
        for ev in events {
            // Only what the application itself opens counts as heat; the
            // daemon's own copies (Origin::Prefetch) and stdio-internal
            // traffic must not feed back into the model.
            if ev.origin != Origin::App || !matches!(ev.kind, EventKind::Open { .. }) {
                continue;
            }
            // Opens are rare relative to reads/writes; resolving the
            // interned target here keeps the per-event path id-only.
            let resolved = ev.target.resolve();
            if !resolved.starts_with(self.src_prefix.as_str()) {
                continue;
            }
            self.shared.stats.lock().observed_opens += 1;
            let path = resolved.to_string();
            let mut learn = self.shared.learn.lock();
            *learn.heat.entry(path.clone()).or_insert(0) += 1;
            if let Some(&i) = learn.pos.get(&path) {
                // A repeat: the epoch order is now fully known, and this
                // open tells us where the consumer currently is.
                learn.epoch_learned = true;
                learn.cursor = i;
            } else {
                let i = learn.order.len();
                learn.order.push(path.clone());
                learn.pos.insert(path.clone(), i);
                learn.cursor = i;
            }
            if learn.queue.len() < 4096 {
                learn.queue.push_back(path);
            }
            poked = true;
        }
        if poked {
            self.shared.notify.notify_one();
        }
    }
}

/// Handle to a running staging daemon: one daemon thread per process it
/// was spawned over (one, or every rank of a job).
pub struct PrefetchDaemon {
    stop: Arc<AtomicBool>,
    ranks: Vec<Rank>,
    /// The job's heat collective; `None` for a single-process daemon.
    fused: Option<SumAllreduce>,
}

struct Rank {
    shared: Arc<Shared>,
    process: Arc<Process>,
    sink: SinkId,
}

impl PrefetchDaemon {
    /// Register the probe sink and spawn the daemon thread on `sim`.
    ///
    /// `hint` is required for [`Policy::Clairvoyant`] and ignored by
    /// [`Policy::Reactive`]. The daemon runs until [`PrefetchDaemon::stop`]
    /// — call it before the last application thread exits, or `sim.run()`
    /// will keep simulating daemon ticks.
    pub fn spawn(
        sim: &simrt::Sim,
        process: Arc<Process>,
        config: PrefetchConfig,
        hint: Option<Arc<EpochOrder>>,
    ) -> Arc<PrefetchDaemon> {
        Self::start(sim, vec![process], config, None, |_| Scope::Process {
            hint: hint.clone(),
        })
    }

    /// Spawn one daemon per rank of `world`. Each registers a heat sink on
    /// its rank's own probe bus; all of them fuse heat through one
    /// [`SumAllreduce`] over the world's network every `config.tick` and
    /// share the single job-wide `config.budget_bytes`. Stop it as
    /// [`PrefetchDaemon::spawn`]'s daemon.
    pub fn spawn_job(
        sim: &simrt::Sim,
        world: &MpiWorld,
        config: PrefetchConfig,
    ) -> Arc<PrefetchDaemon> {
        assert_eq!(
            config.policy,
            Policy::Reactive,
            "a job daemon learns heat from its ranks' probe events"
        );
        let world_size = world.size();
        let fused = SumAllreduce::new(world.net().clone(), world_size);
        let processes = (0..world_size).map(|r| world.process(r)).collect();
        Self::start(sim, processes, config, Some(fused.clone()), |rank| {
            Scope::Rank {
                rank,
                world_size,
                fused: fused.clone(),
            }
        })
    }

    fn start(
        sim: &simrt::Sim,
        processes: Vec<Arc<Process>>,
        config: PrefetchConfig,
        fused: Option<SumAllreduce>,
        scope: impl Fn(usize) -> Scope,
    ) -> Arc<PrefetchDaemon> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut ranks = Vec::with_capacity(processes.len());
        for (rank, process) in processes.into_iter().enumerate() {
            let shared = Arc::new(Shared::default());
            let sink = process.probe().register(Arc::new(HeatSink {
                shared: shared.clone(),
                src_prefix: config.src_prefix.clone(),
            }));
            let name = match fused {
                Some(_) => format!("dprefetchd{rank}"),
                None => "prefetchd".to_string(),
            };
            let worker = Worker {
                process: process.clone(),
                cfg: config.clone(),
                scope: scope(rank),
                stop: stop.clone(),
                shared: shared.clone(),
                ledger: Ledger::new(),
            };
            sim.spawn(name, move || worker.run());
            ranks.push(Rank {
                shared,
                process,
                sink,
            });
        }
        Arc::new(PrefetchDaemon { stop, ranks, fused })
    }

    /// Ask every daemon thread to exit and detach the probe sinks. Safe to
    /// call from any thread (host or sim) and idempotent; returns
    /// immediately — each thread unwinds at its next wakeup, finishing a
    /// fusion round it is blocked in first.
    pub fn stop(&self) {
        let first = !self.stop.swap(true, Ordering::SeqCst);
        for r in &self.ranks {
            r.shared.notify.notify_one();
            if first {
                r.process.probe().unregister(r.sink);
            }
        }
    }

    /// Snapshot of the daemon's counters, summed over ranks.
    pub fn stats(&self) -> PrefetchStats {
        (0..self.ranks.len())
            .map(|r| self.rank_stats(r))
            .fold(PrefetchStats::default(), |a, s| PrefetchStats {
                promoted_files: a.promoted_files + s.promoted_files,
                promoted_bytes: a.promoted_bytes + s.promoted_bytes,
                evicted_files: a.evicted_files + s.evicted_files,
                evicted_bytes: a.evicted_bytes + s.evicted_bytes,
                observed_opens: a.observed_opens + s.observed_opens,
                passes: a.passes + s.passes,
                failed_promotions: a.failed_promotions + s.failed_promotions,
            })
    }

    /// One rank's counters (rank 0 of a single-process daemon is all of it).
    pub fn rank_stats(&self, rank: usize) -> PrefetchStats {
        *self.ranks[rank].shared.stats.lock()
    }

    /// One rank's byte budget during its last pass: its share of the job
    /// budget (the whole budget for a single-process daemon).
    pub fn rank_share(&self, rank: usize) -> u64 {
        self.ranks[rank].shared.share.load(Ordering::Relaxed)
    }

    /// Heat-fusion rounds completed by rank 0 (all ranks fuse in lock-step;
    /// a single-process daemon never fuses).
    pub fn fusion_rounds(&self) -> u64 {
        self.ranks[0].shared.fusions.load(Ordering::Relaxed)
    }

    /// Rank daemons that have not left the heat collective yet (0 for a
    /// single-process daemon, which has none).
    pub fn live_daemons(&self) -> usize {
        self.fused.as_ref().map_or(0, SumAllreduce::live)
    }

    /// Stable owner of `path` among `world_size` ranks (FNV-1a 64).
    pub fn owner_rank(path: &str, world_size: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % world_size as u64) as usize
    }
}

impl Drop for PrefetchDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Map an origin path to its staged location under the fast prefix.
fn fast_path(cfg: &PrefetchConfig, origin: &str) -> Option<String> {
    let rel = origin.strip_prefix(cfg.src_prefix.as_str())?;
    Some(format!("{}{rel}", cfg.fast_prefix))
}

/// Timed promotion: copy `origin` to the fast tier through the process's
/// POSIX layer (so the copy costs virtual time and shows up in dstat), all
/// of it origin-tagged `Prefetch`. Readers racing the copy keep resolving
/// to the intact original until `commit_promote` flips the redirect.
fn promote_timed(process: &Arc<Process>, origin: &str, dst: &str) -> Result<u64, FsError> {
    let stack = process.stack();
    stack.begin_promote(origin, dst)?;
    let copy = || -> Result<u64, FsError> {
        let _tag = PrefetchOrigin::enter();
        let src_fd = process.open(origin, OpenFlags::rdonly()).map_err(io_err)?;
        let res = (|| {
            let dst_fd = process
                .open(dst, OpenFlags::wronly_create_trunc())
                .map_err(io_err)?;
            let size = process.fstat(src_fd).map_err(io_err)?.size;
            let mut off = 0u64;
            let chunk = 1u64 << 20;
            while off < size {
                let n = chunk.min(size - off);
                process.pread(src_fd, off, n, None).map_err(io_err)?;
                process
                    .pwrite(dst_fd, off, WritePayload::Synthetic(n))
                    .map_err(io_err)?;
                off += n;
            }
            process.close(dst_fd).map_err(io_err)?;
            Ok(size)
        })();
        let _ = process.close(src_fd);
        res
    };
    match copy() {
        Ok(_) => stack.commit_promote(origin, dst),
        Err(e) => {
            stack.abort_promote(origin);
            Err(e)
        }
    }
}

fn io_err<E>(_: E) -> FsError {
    FsError::Io
}

/// A rank's budget share under fused heat: proportional to the fused heat
/// of the files it owns, equal split while no heat exists. Shares never sum
/// to more than the job budget.
fn budget_share(
    fused: &HashMap<String, u64>,
    rank: usize,
    world_size: usize,
    job_budget: u64,
) -> u64 {
    let mut total: u128 = 0;
    let mut owned: u128 = 0;
    for (path, heat) in fused {
        total += u128::from(*heat);
        if PrefetchDaemon::owner_rank(path, world_size) == rank {
            owned += u128::from(*heat);
        }
    }
    (u128::from(job_budget) * owned)
        .checked_div(total)
        .map_or(job_budget / world_size as u64, |v| v as u64)
}

/// What one daemon thread serves, which selects its ranking policy.
enum Scope {
    /// One process: files ranked by epoch order, bounded by the tier's
    /// staged bytes.
    Process { hint: Option<Arc<EpochOrder>> },
    /// One rank of a job: owned files ranked by fused heat, bounded by the
    /// rank's own ledger against its budget share.
    Rank {
        rank: usize,
        world_size: usize,
        fused: SumAllreduce,
    },
}

/// One pass's policy — the only thing the two spawn modes do differently.
struct Pass {
    /// Files to try to stage, best first.
    candidates: Vec<String>,
    /// How warm a file is: eviction takes the coldest first.
    warmth: Box<dyn Fn(&str) -> u64>,
    /// Bytes this pass may keep staged.
    budget: u64,
    /// Bound this daemon's own ledger (a rank's share) rather than the
    /// tier's staged bytes.
    own_ledger: bool,
    /// When full, a candidate may displace a strictly colder staged file.
    displace: bool,
}

/// Files a daemon promoted and still believes staged, with their sizes.
/// Eviction only ever touches the daemon's own ledger: bytes staged by
/// somebody else (a static pass, another daemon) have no heat in this
/// daemon's model and would otherwise always rank coldest — several
/// uncoordinated daemons over one fast tier would endlessly evict each
/// other's files and re-stage their own.
type Ledger = BTreeMap<String, u64>;

/// One daemon thread.
struct Worker {
    process: Arc<Process>,
    cfg: PrefetchConfig,
    scope: Scope,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    ledger: Ledger,
}

impl Worker {
    fn run(mut self) {
        // The advisor plan, applied untimed (what `tfdarshan::staging::apply`
        // does offline). Per-file errors are tolerated: a seed plan is
        // advisory, not a contract.
        if let (Scope::Process { .. }, Some(plan)) = (&self.scope, self.cfg.seed.take()) {
            for (path, _) in &plan.files {
                if let Some(dst) = fast_path(&self.cfg, path) {
                    let copied = self.process.stack().promote_untimed(path, &dst);
                    self.account(path, copied);
                }
            }
        }
        loop {
            if self.stopped() {
                break;
            }
            let heat = self.fuse();
            if self.stopped() {
                break;
            }
            let pass = self.plan(heat);
            self.step(pass);
            if self.stopped() {
                break;
            }
            self.shared.notify.wait_timeout(self.cfg.tick);
        }
        if let Scope::Rank { fused, .. } = &self.scope {
            fused.leave();
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Fuse this rank's heat with its peers' (a single process has none to
    /// fuse with).
    fn fuse(&self) -> Option<Arc<HashMap<String, u64>>> {
        let Scope::Rank { fused, .. } = &self.scope else {
            return None;
        };
        let local = self.shared.learn.lock().heat.clone();
        let heat = fused.allreduce(&local);
        self.shared.fusions.fetch_add(1, Ordering::Relaxed);
        Some(heat)
    }

    fn plan(&self, heat: Option<Arc<HashMap<String, u64>>>) -> Pass {
        let cfg = &self.cfg;
        match &self.scope {
            Scope::Process { hint } => {
                let clairvoyant = hint.as_ref().filter(|_| cfg.policy == Policy::Clairvoyant);
                let (order, pos, cursor, epoch_learned, mut candidates) = match clairvoyant {
                    Some(h) => {
                        let order: Vec<String> = h.files().as_ref().clone();
                        let pos: HashMap<String, usize> = order
                            .iter()
                            .enumerate()
                            .map(|(i, p)| (p.clone(), i))
                            .collect();
                        // Drain the observation queue anyway so it cannot
                        // grow.
                        self.shared.learn.lock().queue.clear();
                        let learned = !order.is_empty();
                        (order, pos, h.cursor(), learned, Vec::new())
                    }
                    None => {
                        let mut learn = self.shared.learn.lock();
                        let fresh = learn.queue.drain(..).collect();
                        let (order, pos) = (learn.order.clone(), learn.pos.clone());
                        (order, pos, learn.cursor, learn.epoch_learned, fresh)
                    }
                };
                // Fresh observations first (reactive promote-on-miss,
                // cheapest while the file's pages are still cache-hot),
                // then the known order scanned ahead of the consumer
                // cursor.
                let n = order.len();
                if epoch_learned && n > 0 {
                    let start = if cursor + 1 >= n { 0 } else { cursor + 1 };
                    candidates.extend((0..n).map(|k| order[(start + k) % n].clone()));
                }
                Pass {
                    candidates,
                    // Warmth falls with cyclic distance ahead of the cursor
                    // (the file just read is the farthest future need);
                    // files outside the order are coldest of all.
                    warmth: Box::new(move |p| {
                        pos.get(p).map_or(0, |&i| (n - (i + n - cursor) % n) as u64)
                    }),
                    budget: cfg.budget_bytes,
                    own_ledger: false,
                    displace: cfg.displace,
                }
            }
            Scope::Rank {
                rank, world_size, ..
            } => {
                let heat = heat.expect("a rank pass follows a fusion");
                // Only order passes promote from the observation queue.
                self.shared.learn.lock().queue.clear();
                // Owned files, hottest first (ties broken by path for
                // determinism across runs).
                let mut owned: Vec<(&String, u64)> = heat
                    .iter()
                    .filter(|(p, _)| PrefetchDaemon::owner_rank(p, *world_size) == *rank)
                    .map(|(p, h)| (p, *h))
                    .collect();
                owned.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
                Pass {
                    candidates: owned.into_iter().map(|(p, _)| p.clone()).collect(),
                    budget: budget_share(&heat, *rank, *world_size, cfg.budget_bytes),
                    warmth: Box::new(move |p| heat.get(p).copied().unwrap_or(0)),
                    own_ledger: true,
                    displace: false,
                }
            }
        }
    }

    /// One work pass: hysteresis eviction, then promotion of the pass's
    /// candidates in order until the budget is full.
    fn step(&mut self, pass: Pass) {
        self.shared.stats.lock().passes += 1;
        self.shared.share.store(pass.budget, Ordering::Relaxed);
        let stack = self.process.stack().clone();
        let high = (self.cfg.high_watermark * pass.budget as f64) as u64;
        let low = (self.cfg.low_watermark * pass.budget as f64) as u64;
        let used = |ledger: &Ledger| -> u64 {
            if pass.own_ledger {
                ledger.values().sum()
            } else {
                stack.staged_bytes()
            }
        };

        // Hysteresis: above the high watermark, evict the coldest files
        // until back under the low watermark.
        if used(&self.ledger) > high {
            // Forget promotions somebody else evicted: they no longer count.
            self.ledger.retain(|p, _| stack.is_staged(p));
            let mut victims = self.victims(&*pass.warmth);
            victims.sort(); // coldest first, equal warmth in path order
            for (_, path, _) in victims {
                if used(&self.ledger) <= low {
                    break;
                }
                self.evict(&path);
            }
        }

        for path in &pass.candidates {
            if self.stopped() {
                return;
            }
            if !path.starts_with(self.cfg.src_prefix.as_str()) || stack.is_staged(path) {
                continue;
            }
            let Some(dst) = fast_path(&self.cfg, path) else {
                continue;
            };
            let Ok(fs) = stack.resolve(path) else {
                continue;
            };
            let Ok((size, _)) = fs.content_info(path) else {
                continue; // raced an unlink
            };
            if size > self.cfg.max_file_bytes {
                continue;
            }
            if used(&self.ledger) + size > high {
                if !pass.displace {
                    break;
                }
                // Full. Worth displacing something? Only if a staged file
                // is strictly colder than this candidate.
                let warmth = (pass.warmth)(path);
                match self.victims(&*pass.warmth).into_iter().min() {
                    Some((vw, vp, vb)) if vw < warmth && vb >= size => {
                        if !self.evict(&vp) {
                            continue;
                        }
                    }
                    // Nothing colder to displace: everything staged is
                    // hotter than anything left in the stream — end the
                    // pass.
                    _ => break,
                }
            }
            let copied = promote_timed(&self.process, path, &dst);
            self.account(path, copied);
        }
    }

    /// Account for one promotion attempt (timed or from the seed plan).
    fn account(&mut self, path: &str, copied: Result<u64, FsError>) {
        let mut stats = self.shared.stats.lock();
        match copied {
            Ok(bytes) => {
                self.ledger.insert(path.to_string(), bytes);
                stats.promoted_files += 1;
                stats.promoted_bytes += bytes;
            }
            Err(FsError::Exists) => {} // already staged
            Err(_) => stats.failed_promotions += 1,
        }
    }

    /// This daemon's evictable promotions as `(warmth, path, bytes)`.
    /// Pinned and dirty entries refuse eviction: they stay in the ledger,
    /// counted against the budget, but are never victims.
    fn victims(&self, warmth: &dyn Fn(&str) -> u64) -> Vec<(u64, String, u64)> {
        self.process
            .stack()
            .staged()
            .into_iter()
            .filter(|(p, e)| !e.pinned && !e.dirty && self.ledger.contains_key(p))
            .map(|(p, e)| (warmth(&p), p, e.bytes))
            .collect()
    }

    /// Evict `path` from the fast tier; false if it stays staged.
    fn evict(&mut self, path: &str) -> bool {
        match self.process.stack().evict(path) {
            Ok(freed) => {
                self.ledger.remove(path);
                let mut stats = self.shared.stats.lock();
                stats.evicted_files += 1;
                stats.evicted_bytes += freed;
                true
            }
            // Pinned or dirty: still staged, so it stays counted.
            Err(FsError::BadAccess) => false,
            Err(_) => {
                self.ledger.remove(path); // no longer staged all the same
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::NetworkModel;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
    };

    fn tiers() -> StorageStack {
        let cache = Arc::new(PageCache::new(1 << 30));
        let hdd = LocalFs::new(
            Device::new(DeviceSpec::hdd("hdd0")),
            cache.clone(),
            LocalFsParams::default(),
        );
        let optane = LocalFs::new(
            Device::new(DeviceSpec::optane("nvme0")),
            cache,
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/hdd", hdd as Arc<dyn FileSystem>);
        stack.mount("/fast", optane as Arc<dyn FileSystem>);
        stack
    }

    fn cfg(policy: Policy, budget: u64) -> PrefetchConfig {
        PrefetchConfig {
            tick: Duration::from_millis(5),
            ..PrefetchConfig::new(policy, "/hdd", "/fast", budget)
        }
    }

    #[test]
    fn clairvoyant_stages_ahead_of_any_read() {
        let stack = tiers();
        let files: Vec<String> = (0..16)
            .map(|i| {
                let p = format!("/hdd/f{i}");
                stack.create_synthetic(&p, 10_000, i).unwrap();
                p
            })
            .collect();
        let sim = simrt::Sim::new();
        let process = Process::new(stack.clone());
        let hint = EpochOrder::new();
        hint.preload(Arc::new(files));
        let daemon =
            PrefetchDaemon::spawn(&sim, process, cfg(Policy::Clairvoyant, 1 << 30), Some(hint));
        let d2 = daemon.clone();
        sim.spawn("main", move || {
            // No application I/O at all: the preloaded hint alone drives
            // staging during this warmup sleep.
            simrt::sleep(Duration::from_millis(200));
            d2.stop();
        });
        sim.run();
        assert_eq!(daemon.stats().promoted_files, 16);
        assert_eq!(stack.staged_files(), 16);
        assert!(stack.is_staged("/hdd/f0"));
    }

    #[test]
    fn reactive_learns_order_and_respects_budget() {
        let stack = tiers();
        let files: Vec<String> = (0..8)
            .map(|i| {
                let p = format!("/hdd/f{i}");
                stack.create_synthetic(&p, 10_000, i).unwrap();
                p
            })
            .collect();
        let sim = simrt::Sim::new();
        let process = Process::new(stack.clone());
        // Budget fits 4 staged files at the 0.9 high watermark.
        let daemon =
            PrefetchDaemon::spawn(&sim, process.clone(), cfg(Policy::Reactive, 45_000), None);
        let d2 = daemon.clone();
        sim.spawn("app", move || {
            for _epoch in 0..2 {
                for f in &files {
                    let fd = process.open(f, OpenFlags::rdonly()).unwrap();
                    process.read(fd, 10_000, None).unwrap();
                    process.close(fd).unwrap();
                }
                simrt::sleep(Duration::from_millis(50));
            }
            d2.stop();
        });
        sim.run();
        let stats = daemon.stats();
        assert!(stats.observed_opens >= 16, "sink saw the app's opens");
        assert!(stats.promoted_files >= 4, "daemon staged files");
        assert!(
            stack.staged_bytes() <= 40_500,
            "staged set respects the high watermark: {}",
            stack.staged_bytes()
        );
    }

    #[test]
    fn daemon_copy_traffic_is_not_app_heat() {
        // The daemon's own copies emit probe events tagged Prefetch; the
        // sink must not fold them back into the heat model (feedback loop).
        let stack = tiers();
        stack.create_synthetic("/hdd/x", 4096, 7).unwrap();
        let sim = simrt::Sim::new();
        let process = Process::new(stack.clone());
        let hint = EpochOrder::new();
        hint.preload(Arc::new(vec!["/hdd/x".to_string()]));
        let daemon =
            PrefetchDaemon::spawn(&sim, process, cfg(Policy::Clairvoyant, 1 << 20), Some(hint));
        let d2 = daemon.clone();
        sim.spawn("main", move || {
            simrt::sleep(Duration::from_millis(100));
            d2.stop();
        });
        sim.run();
        assert_eq!(daemon.stats().promoted_files, 1);
        assert_eq!(
            daemon.stats().observed_opens,
            0,
            "the daemon's own opens are origin-tagged and invisible to heat"
        );
    }

    #[test]
    fn seed_plan_applies_before_online_decisions() {
        let stack = tiers();
        stack.create_synthetic("/hdd/seeded", 2048, 1).unwrap();
        let plan = StagingPlan {
            threshold: 4096,
            files: vec![("/hdd/seeded".to_string(), 2048)],
            staged_bytes: 2048,
            total_bytes: 2048,
            total_files: 1,
        };
        let sim = simrt::Sim::new();
        let process = Process::new(stack.clone());
        let daemon = PrefetchDaemon::spawn(
            &sim,
            process,
            cfg(Policy::Reactive, 1 << 20).with_seed(plan),
            None,
        );
        let d2 = daemon.clone();
        sim.spawn("main", move || {
            simrt::sleep(Duration::from_millis(20));
            d2.stop();
        });
        sim.run();
        assert!(stack.is_staged("/hdd/seeded"));
        assert_eq!(daemon.stats().promoted_files, 1);
    }

    #[test]
    fn ownership_partitions_files() {
        let mut per_rank = [0usize; 4];
        for i in 0..1000 {
            per_rank[PrefetchDaemon::owner_rank(&format!("/hdd/f{i}"), 4)] += 1;
        }
        assert_eq!(per_rank.iter().sum::<usize>(), 1000);
        for (r, n) in per_rank.iter().enumerate() {
            assert!(*n > 150, "rank {r} owns a fair share, got {n}");
        }
        // Stable: same path, same owner.
        assert_eq!(
            PrefetchDaemon::owner_rank("/hdd/f7", 4),
            PrefetchDaemon::owner_rank("/hdd/f7", 4)
        );
    }

    #[test]
    fn budget_shares_follow_heat_and_sum_to_budget() {
        let mut fused = HashMap::new();
        // All heat on rank-owned subsets.
        for i in 0..100u64 {
            fused.insert(format!("/hdd/f{i}"), 1 + i % 5);
        }
        let budget = 1_000_000u64;
        let shares: Vec<u64> = (0..4).map(|r| budget_share(&fused, r, 4, budget)).collect();
        assert!(shares.iter().sum::<u64>() <= budget);
        assert!(shares.iter().all(|s| *s > 0), "every owner gets heat share");
        // No heat → equal split.
        let empty = HashMap::new();
        assert_eq!(budget_share(&empty, 2, 4, budget), budget / 4);
    }

    #[test]
    fn daemons_stage_owned_hot_files_within_job_budget() {
        let stack = tiers();
        let files: Vec<String> = (0..24)
            .map(|i| {
                let p = format!("/hdd/f{i}");
                stack.create_synthetic(&p, 10_000, i).unwrap();
                p
            })
            .collect();
        let sim = simrt::Sim::new();
        let world = MpiWorld::new(&stack, 4, NetworkModel::default());
        // Budget fits ~12 of 24 files at the 0.9 watermark.
        let daemon = PrefetchDaemon::spawn_job(&sim, &world, cfg(Policy::Reactive, 135_000));
        let d2 = daemon.clone();
        world.spawn_ranks(&sim, move |comm| {
            // Rank r reads its shard (round-robin) twice.
            let process = comm.process();
            for _epoch in 0..2 {
                for (i, f) in files.iter().enumerate() {
                    if i % comm.size() != comm.rank() {
                        continue;
                    }
                    let fd = process.open(f, OpenFlags::rdonly()).unwrap();
                    process.read(fd, 10_000, None).unwrap();
                    process.close(fd).unwrap();
                }
                simrt::sleep(Duration::from_millis(60));
            }
            if comm.rank() == 0 {
                simrt::sleep(Duration::from_millis(100));
                d2.stop();
            }
        });
        sim.run();
        let stats = daemon.stats();
        assert!(stats.observed_opens >= 24, "sinks saw all ranks' opens");
        assert!(stats.promoted_files >= 8, "staged: {stats:?}");
        assert!(
            stack.staged_bytes() <= (135_000f64 * 0.9) as u64,
            "job budget respected: {}",
            stack.staged_bytes()
        );
        assert!(daemon.fusion_rounds() >= 1);
        assert_eq!(daemon.live_daemons(), 0, "all daemons left cleanly");
        // No duplicate staging: every promotion lands a distinct staged
        // file, minus what share rebalancing evicted along the way.
        assert_eq!(
            stats.promoted_files - stats.evicted_files,
            stack.staged_files() as u64
        );
    }

    #[test]
    fn pinned_promotion_stays_counted_against_the_rank_share() {
        // Rank 0 stages a big file `a`, which then gets pinned. Heat moves
        // to rank 1, shrinking rank 0's share below `a`'s bytes: eviction
        // must skip the pinned file but keep counting it, so rank 0 stages
        // no further owned file (`b` would fit the share on its own). Once
        // unpinned, `a` is evictable again.
        let owned = |rank: usize| {
            (0..)
                .map(|i| format!("/hdd/f{i}"))
                .filter(move |p| PrefetchDaemon::owner_rank(p, 2) == rank)
        };
        let (a, b) = {
            let mut mine = owned(0);
            (mine.next().unwrap(), mine.next().unwrap())
        };
        let hot = owned(1).next().unwrap();
        let stack = tiers();
        stack.create_synthetic(&a, 20_000, 1).unwrap();
        stack.create_synthetic(&b, 5_000, 2).unwrap();
        stack.create_synthetic(&hot, 5_000, 3).unwrap();
        let sim = simrt::Sim::new();
        let world = MpiWorld::new(&stack, 2, NetworkModel::default());
        let daemon = PrefetchDaemon::spawn_job(&sim, &world, cfg(Policy::Reactive, 100_000));
        let (d2, st, process) = (daemon.clone(), stack.clone(), world.process(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        sim.spawn("app", move || {
            let open = |p: &str| {
                let fd = process.open(p, OpenFlags::rdonly()).unwrap();
                process.close(fd).unwrap();
            };
            let settle = || simrt::sleep(Duration::from_millis(50));
            open(&a);
            settle();
            seen2.lock().push(st.pin(&a, true));
            // Rank 0's share falls to 1/17 of the budget, then to 2/18
            // (high watermark 10 000 B) once `b` is warm.
            for _ in 0..16 {
                open(&hot);
            }
            settle();
            open(&b);
            settle();
            seen2.lock().push(st.is_staged(&a));
            seen2.lock().push(!st.is_staged(&b));
            st.pin(&a, false);
            settle();
            seen2.lock().push(!st.is_staged(&a));
            d2.stop();
        });
        sim.run();
        assert_eq!(
            *seen.lock(),
            [true, true, true, true],
            "a staged+pinned, a kept, b not staged past the share, a evicted once unpinned"
        );
        assert_eq!(daemon.rank_stats(0).evicted_files, 1);
    }

    #[test]
    fn stop_with_daemons_mid_round_does_not_deadlock() {
        let stack = tiers();
        stack.create_synthetic("/hdd/x", 1000, 1).unwrap();
        let sim = simrt::Sim::new();
        let world = MpiWorld::new(&stack, 3, NetworkModel::default());
        let daemon = PrefetchDaemon::spawn_job(&sim, &world, cfg(Policy::Reactive, 1 << 20));
        let d2 = daemon.clone();
        sim.spawn("stopper", move || {
            simrt::sleep(Duration::from_millis(17));
            d2.stop();
        });
        sim.run(); // must terminate
        assert_eq!(daemon.live_daemons(), 0);
    }
}
