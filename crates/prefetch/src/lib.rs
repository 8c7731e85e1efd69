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
//! Two policies:
//! * **Reactive** ([`Policy::Reactive`]): heat comes from observed probe
//!   events only. The first epoch is spent *learning* the access order
//!   (promoting each file right after the application reads it, when its
//!   pages are still cache-hot); from the second epoch on the daemon knows
//!   the order and stages ahead of the consumer.
//! * **Clairvoyant** ([`Policy::Clairvoyant`]): ML training revisits a
//!   known file list every epoch, and the input pipeline publishes it
//!   through [`tfsim::EpochOrder`]. The daemon prefetches ahead of the
//!   pipeline's cursor from the very first read — including during setup,
//!   before the first epoch starts, when the order was `preload`ed.
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

pub mod distributed;

pub use distributed::{owner_rank, DistributedConfig, DistributedPrefetch};

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    /// Promotion policy.
    pub policy: Policy,
    /// Mount prefix the daemon watches (the slow tier, e.g. `/data/hdd`).
    pub src_prefix: String,
    /// Mount prefix staged copies land under (the fast tier).
    pub fast_prefix: String,
    /// Fast-tier byte budget the staged set must fit in.
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
    /// Idle wakeup period when no probe events arrive.
    pub tick: Duration,
    /// When the fast tier is full, allow evicting a strictly colder staged
    /// file to make room for a hotter candidate. Displacement pays when the
    /// budget covers a meaningful fraction of the working set; when the
    /// share is much smaller than a cyclically-read shard it degenerates to
    /// evict-just-before-reuse, so callers may turn it off.
    pub displace: bool,
    /// Optional advisor-seeded plan ([`tfdarshan::seed_plan`]) applied
    /// untimed when the daemon starts, before any online decision.
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
    /// Open count per file.
    heat: HashMap<String, u32>,
    /// Recently observed opens not yet considered for promotion.
    queue: VecDeque<String>,
    /// Set once a file repeats: the full epoch order is known.
    epoch_learned: bool,
    /// Position of the most recently observed open (consumer cursor).
    cursor: usize,
}

struct Shared {
    learn: Mutex<Learn>,
    /// Files this daemon promoted and still believes staged. Eviction only
    /// ever touches the daemon's own ledger: bytes staged by somebody else
    /// (a static pass, another rank's daemon) have no heat in this
    /// daemon's model and would otherwise always rank coldest — several
    /// uncoordinated daemons over one fast tier would endlessly evict each
    /// other's files and re-stage their own.
    ledger: Mutex<HashSet<String>>,
    notify: Notify,
    stop: AtomicBool,
    promoted_files: AtomicU64,
    promoted_bytes: AtomicU64,
    evicted_files: AtomicU64,
    evicted_bytes: AtomicU64,
    observed_opens: AtomicU64,
    passes: AtomicU64,
    failed_promotions: AtomicU64,
}

impl Shared {
    fn new() -> Arc<Self> {
        Arc::new(Shared {
            learn: Mutex::new(Learn::default()),
            ledger: Mutex::new(HashSet::new()),
            notify: Notify::new(),
            stop: AtomicBool::new(false),
            promoted_files: AtomicU64::new(0),
            promoted_bytes: AtomicU64::new(0),
            evicted_files: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            observed_opens: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            failed_promotions: AtomicU64::new(0),
        })
    }
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
            if ev.origin != Origin::App {
                continue;
            }
            if !matches!(ev.kind, EventKind::Open { .. }) {
                continue;
            }
            // Opens are rare relative to reads/writes; resolving the
            // interned target here keeps the per-event path id-only.
            let resolved = ev.target.resolve();
            if !resolved.starts_with(self.src_prefix.as_str()) {
                continue;
            }
            self.shared.observed_opens.fetch_add(1, Ordering::Relaxed);
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

/// Handle to a running staging daemon.
pub struct PrefetchDaemon {
    shared: Arc<Shared>,
    process: Arc<Process>,
    sink_id: SinkId,
    unregistered: AtomicBool,
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
        let shared = Shared::new();
        let sink = Arc::new(HeatSink {
            shared: shared.clone(),
            src_prefix: config.src_prefix.clone(),
        });
        let sink_id = process.probe().register(sink);
        let daemon = Arc::new(PrefetchDaemon {
            shared: shared.clone(),
            process: process.clone(),
            sink_id,
            unregistered: AtomicBool::new(false),
        });
        sim.spawn("prefetchd", move || {
            daemon_main(process, config, hint, shared);
        });
        daemon
    }

    /// Ask the daemon to exit and detach its probe sink. Safe to call from
    /// any thread (host or sim) and idempotent; returns immediately — the
    /// daemon thread unwinds at its next wakeup.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.notify.notify_one();
        if !self.unregistered.swap(true, Ordering::SeqCst) {
            self.process.probe().unregister(self.sink_id);
        }
    }

    /// Snapshot of the daemon's counters.
    pub fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            promoted_files: self.shared.promoted_files.load(Ordering::Relaxed),
            promoted_bytes: self.shared.promoted_bytes.load(Ordering::Relaxed),
            evicted_files: self.shared.evicted_files.load(Ordering::Relaxed),
            evicted_bytes: self.shared.evicted_bytes.load(Ordering::Relaxed),
            observed_opens: self.shared.observed_opens.load(Ordering::Relaxed),
            passes: self.shared.passes.load(Ordering::Relaxed),
            failed_promotions: self.shared.failed_promotions.load(Ordering::Relaxed),
        }
    }
}

impl Drop for PrefetchDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Map an origin path to its staged location under the fast prefix.
pub(crate) fn fast_path(cfg: &PrefetchConfig, origin: &str) -> Option<String> {
    let rel = origin.strip_prefix(cfg.src_prefix.as_str())?;
    Some(format!("{}{rel}", cfg.fast_prefix))
}

/// Apply an advisor plan untimed (the daemon's one-shot mode — what
/// `tfdarshan::staging::apply` exposes to offline callers). Per-file errors
/// are tolerated: a seed plan is advisory, not a contract.
fn stage_once(process: &Arc<Process>, cfg: &PrefetchConfig, plan: &StagingPlan, shared: &Shared) {
    let stack = process.stack();
    for (path, size) in &plan.files {
        let Some(dst) = fast_path(cfg, path) else {
            continue;
        };
        match stack.promote_untimed(path, &dst) {
            Ok(n) => {
                shared.ledger.lock().insert(path.clone());
                shared.promoted_files.fetch_add(1, Ordering::Relaxed);
                shared.promoted_bytes.fetch_add(n, Ordering::Relaxed);
            }
            Err(FsError::Exists) => {} // already staged
            Err(_) => {
                let _ = size;
                shared.failed_promotions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Timed promotion: copy `origin` to the fast tier through the process's
/// POSIX layer (so the copy costs virtual time and shows up in dstat), all
/// of it origin-tagged `Prefetch`. Readers racing the copy keep resolving
/// to the intact original until `commit_promote` flips the redirect.
pub(crate) fn promote_timed(
    process: &Arc<Process>,
    origin: &str,
    dst: &str,
) -> Result<u64, FsError> {
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

/// Cyclic distance of position `i` ahead of `cursor` in an order of `n`
/// files: 0 = the consumer is here now, n-1 = just passed (the coldest
/// future). Unknown positions rank coldest of all.
fn dist_ahead(i: usize, cursor: usize, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (i + n - cursor) % n
}

struct Snapshot {
    order: Vec<String>,
    pos: HashMap<String, usize>,
    cursor: usize,
    epoch_learned: bool,
    fresh: Vec<String>,
}

fn snapshot(cfg: &PrefetchConfig, hint: &Option<Arc<EpochOrder>>, shared: &Shared) -> Snapshot {
    if cfg.policy == Policy::Clairvoyant {
        if let Some(h) = hint {
            let order: Vec<String> = h.files().as_ref().clone();
            let pos: HashMap<String, usize> = order
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), i))
                .collect();
            // Drain the observation queue anyway so it cannot grow.
            shared.learn.lock().queue.clear();
            return Snapshot {
                cursor: h.cursor(),
                epoch_learned: !order.is_empty(),
                order,
                pos,
                fresh: Vec::new(),
            };
        }
    }
    let mut learn = shared.learn.lock();
    let fresh: Vec<String> = learn.queue.drain(..).collect();
    Snapshot {
        order: learn.order.clone(),
        pos: learn.pos.clone(),
        cursor: learn.cursor,
        epoch_learned: learn.epoch_learned,
        fresh,
    }
}

/// One daemon work pass: hysteresis eviction, then promotion of fresh
/// observations (reactive) and of files ahead of the consumer cursor.
fn step(
    process: &Arc<Process>,
    cfg: &PrefetchConfig,
    hint: &Option<Arc<EpochOrder>>,
    shared: &Shared,
) {
    shared.passes.fetch_add(1, Ordering::Relaxed);
    let stack = process.stack().clone();
    let snap = snapshot(cfg, hint, shared);
    let n = snap.order.len();
    let high = (cfg.high_watermark * cfg.budget_bytes as f64) as u64;
    let low = (cfg.low_watermark * cfg.budget_bytes as f64) as u64;

    // Hysteresis: above the high watermark, evict the files farthest ahead
    // of being needed (coldest future) until back under the low watermark.
    // Only this daemon's own promotions are eviction candidates.
    if stack.staged_bytes() > high {
        let mut staged: Vec<(String, u64, usize)> = stack
            .staged()
            .into_iter()
            .filter(|(p, e)| !e.pinned && !e.dirty && shared.ledger.lock().contains(p))
            .map(|(path, e)| {
                let d = snap
                    .pos
                    .get(&path)
                    .map_or(n, |&i| dist_ahead(i, snap.cursor, n));
                (path, e.bytes, d)
            })
            .collect();
        staged.sort_by_key(|e| std::cmp::Reverse(e.2));
        for (path, _, _) in staged {
            if stack.staged_bytes() <= low {
                break;
            }
            if let Ok(freed) = stack.evict(&path) {
                shared.evicted_files.fetch_add(1, Ordering::Relaxed);
                shared.evicted_bytes.fetch_add(freed, Ordering::Relaxed);
            }
            shared.ledger.lock().remove(&path);
        }
    }

    // Candidate stream: fresh observations first (reactive promote-on-miss,
    // cheapest while the file's pages are still cache-hot), then the known
    // order scanned ahead of the consumer cursor.
    let mut candidates: Vec<String> = snap.fresh;
    if snap.epoch_learned && n > 0 {
        let start = if snap.cursor + 1 >= n {
            0
        } else {
            snap.cursor + 1
        };
        candidates.extend((0..n).map(|k| snap.order[(start + k) % n].clone()));
    }

    for path in candidates {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if !path.starts_with(cfg.src_prefix.as_str()) || stack.is_staged(&path) {
            continue;
        }
        let Some(dst) = fast_path(cfg, &path) else {
            continue;
        };
        let Ok(fs) = stack.resolve(&path) else {
            continue;
        };
        let Ok((size, _)) = fs.content_info(&path) else {
            continue; // raced an unlink
        };
        if size > cfg.max_file_bytes {
            continue;
        }
        if stack.staged_bytes() + size > high {
            if !cfg.displace {
                break;
            }
            // Full. Worth displacing something? Only if a staged file is
            // strictly colder (farther ahead) than this candidate.
            let cand_d = snap
                .pos
                .get(&path)
                .map_or(n, |&i| dist_ahead(i, snap.cursor, n));
            let victim = stack
                .staged()
                .into_iter()
                .filter(|(p, e)| !e.pinned && !e.dirty && shared.ledger.lock().contains(p))
                .map(|(p, e)| {
                    let d = snap
                        .pos
                        .get(&p)
                        .map_or(n, |&i| dist_ahead(i, snap.cursor, n));
                    (p, e.bytes, d)
                })
                .max_by_key(|&(_, _, d)| d);
            match victim {
                Some((vp, vb, vd)) if vd > cand_d && vb >= size => {
                    let evicted = stack.evict(&vp);
                    shared.ledger.lock().remove(&vp);
                    if let Ok(freed) = evicted {
                        shared.evicted_files.fetch_add(1, Ordering::Relaxed);
                        shared.evicted_bytes.fetch_add(freed, Ordering::Relaxed);
                    } else {
                        continue;
                    }
                }
                // Nothing colder to displace: everything staged is hotter
                // than anything left in the stream — end the pass.
                _ => break,
            }
        }
        match promote_timed(process, &path, &dst) {
            Ok(bytes) => {
                shared.ledger.lock().insert(path.clone());
                shared.promoted_files.fetch_add(1, Ordering::Relaxed);
                shared.promoted_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(FsError::Exists) => {}
            Err(_) => {
                shared.failed_promotions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn daemon_main(
    process: Arc<Process>,
    cfg: PrefetchConfig,
    hint: Option<Arc<EpochOrder>>,
    shared: Arc<Shared>,
) {
    if let Some(plan) = &cfg.seed {
        stage_once(&process, &cfg, plan, &shared);
    }
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        step(&process, &cfg, &hint, &shared);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        shared.notify.wait_timeout(cfg.tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
    };

    fn tiers() -> (StorageStack, Arc<LocalFs>, Arc<LocalFs>) {
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
        stack.mount("/hdd", hdd.clone() as Arc<dyn FileSystem>);
        stack.mount("/fast", optane.clone() as Arc<dyn FileSystem>);
        (stack, hdd, optane)
    }

    fn cfg(policy: Policy, budget: u64) -> PrefetchConfig {
        PrefetchConfig {
            tick: Duration::from_millis(5),
            ..PrefetchConfig::new(policy, "/hdd", "/fast", budget)
        }
    }

    #[test]
    fn clairvoyant_stages_ahead_of_any_read() {
        let (stack, ..) = tiers();
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
        let (stack, ..) = tiers();
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
        let (stack, ..) = tiers();
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
        let (stack, ..) = tiers();
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
}
