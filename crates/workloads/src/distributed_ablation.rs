//! Distributed staging ablation: N ranks over one Greendog machine,
//! imbalanced shards, three staging modes.
//!
//! The single-process ablation (`prefetch_ablation`) answers "what does
//! online staging buy one trainer". This driver answers the distributed
//! question the ROADMAP leaves open: what coordination buys N trainers
//! sharing one fast tier and one byte budget.
//!
//! * **none** — every epoch reads straight off the HDD;
//! * **local** — the naive port: one classic [`PrefetchDaemon`] per rank,
//!   each given `budget / N` and no view of its peers. Each daemon bounds
//!   its *local* share against the *global* staged-byte gauge, so the
//!   first daemons to act consume the shared headroom and the job stages
//!   roughly one rank's share in total — the budget race
//!   [`PrefetchDaemon::spawn_job`] exists to fix;
//! * **fused** — [`PrefetchDaemon::spawn_job`]: per-rank heat fused by
//!   allreduce, hash ownership, one job budget partitioned by fused heat.
//!
//! The shards are deliberately imbalanced (rank 0 owns far more bytes than
//! rank N-1) so proportional budget partitioning has something to win.
//! Expected ordering, asserted by `bench/benches/
//! ablation_distributed_prefetch.rs` and the module test:
//! `fused ≥ local ≥ none` aggregate read bandwidth.
//!
//! Caches are dropped at every epoch boundary, as in the single-process
//! ablation — otherwise the page cache hides the tier effect entirely.

use std::sync::Arc;
use std::time::Duration;

use mpi_sim::{MpiWorld, NetworkModel};
use parking_lot::Mutex;
use posix_sim::OpenFlags;
use prefetch::{Policy, PrefetchConfig, PrefetchDaemon};

use crate::platform::{greendog, mounts};

/// The coordination modes under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistMode {
    /// No staging: every epoch reads the HDD.
    None,
    /// N uncoordinated per-rank daemons, `budget / N` each.
    Local,
    /// One [`PrefetchDaemon::spawn_job`]: fused heat, one job budget.
    Fused,
}

impl DistMode {
    /// Label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            DistMode::None => "none",
            DistMode::Local => "local",
            DistMode::Fused => "fused",
        }
    }

    /// All modes, weakest first.
    pub fn all() -> [DistMode; 3] {
        [DistMode::None, DistMode::Local, DistMode::Fused]
    }
}

/// Ablation parameters.
#[derive(Clone, Debug)]
pub struct DistributedAblationConfig {
    /// Ranks (the paper-style experiment runs 4).
    pub world_size: usize,
    /// Files in each rank's shard, rank order — imbalanced by default so
    /// heat-proportional budget shares differ from the equal split.
    pub shard_files: Vec<usize>,
    /// Bytes per shard file.
    pub file_bytes: u64,
    /// Measured epochs (≥ 2 so staging learned in epoch one pays off).
    pub epochs: usize,
    /// Job-wide fast-tier budget as a fraction of total dataset bytes.
    pub budget_fraction: f64,
    /// Daemon tick: the fused daemon's heat-fusion period and, for
    /// fairness, the local daemons' idle wakeup.
    pub tick: Duration,
    /// Pause between epochs: the staging window every mode gets.
    pub epoch_pause: Duration,
}

impl Default for DistributedAblationConfig {
    fn default() -> Self {
        DistributedAblationConfig {
            world_size: 4,
            shard_files: vec![16, 8, 4, 2],
            file_bytes: 2 << 20,
            epochs: 4,
            budget_fraction: 0.6,
            tick: Duration::from_millis(20),
            epoch_pause: Duration::from_millis(200),
        }
    }
}

/// One mode's measured outcome.
#[derive(Clone, Debug)]
pub struct DistributedRun {
    /// Which mode ran.
    pub mode: DistMode,
    /// Aggregate application read bandwidth over all measured epochs.
    pub read_mibps: f64,
    /// Total measured wall time (virtual seconds).
    pub wall_s: f64,
    /// Application bytes read across all ranks and epochs.
    pub bytes_read: u64,
    /// Fast-tier bytes occupied when the run ended.
    pub staged_bytes: u64,
    /// Files promoted across all daemons.
    pub promoted_files: u64,
}

/// Run one mode end to end on a fresh machine.
pub fn run_mode(mode: DistMode, cfg: &DistributedAblationConfig) -> DistributedRun {
    assert_eq!(cfg.shard_files.len(), cfg.world_size);
    let m = greendog();
    let ws = cfg.world_size;

    let mut shards: Vec<Vec<String>> = Vec::new();
    let mut total = 0u64;
    for (r, &count) in cfg.shard_files.iter().enumerate() {
        let mut files = Vec::new();
        for i in 0..count {
            let p = format!("{}/dshard{r}/f{i}", mounts::HDD);
            m.stack
                .create_synthetic(&p, cfg.file_bytes, (r * 1009 + i) as u64)
                .unwrap();
            total += cfg.file_bytes;
            files.push(p);
        }
        shards.push(files);
    }
    let budget = (total as f64 * cfg.budget_fraction) as u64;
    let world = MpiWorld::new(&m.stack, ws, NetworkModel::default());

    let daemon_cfg = |budget: u64| PrefetchConfig {
        max_file_bytes: cfg.file_bytes,
        tick: cfg.tick,
        ..PrefetchConfig::new(Policy::Reactive, mounts::HDD, mounts::OPTANE, budget)
    };
    let fused = (mode == DistMode::Fused)
        .then(|| PrefetchDaemon::spawn_job(&m.sim, &world, daemon_cfg(budget)));
    let locals: Vec<Arc<PrefetchDaemon>> = if mode == DistMode::Local {
        (0..ws)
            .map(|r| {
                // A per-rank share is far smaller than a cyclically-read
                // shard, so displacement would degenerate to evicting each
                // file just before its next use. A sane local deployment
                // pins what fits and holds it.
                let pcfg = PrefetchConfig {
                    displace: false,
                    ..daemon_cfg(budget / ws as u64)
                };
                PrefetchDaemon::spawn(&m.sim, world.process(r), pcfg, None)
            })
            .collect()
    } else {
        Vec::new()
    };

    let wall = Arc::new(Mutex::new(0.0f64));
    let trainer = {
        let wall = wall.clone();
        let cache = m.cache.clone();
        let shards = shards.clone();
        let fused = fused.clone();
        let locals = locals.clone();
        let (epochs, pause) = (cfg.epochs, cfg.epoch_pause);
        move |comm: mpi_sim::Comm| {
            let process = comm.process();
            comm.barrier();
            let t0 = simrt::now();
            for _epoch in 0..epochs {
                if comm.rank() == 0 {
                    cache.drop_caches();
                }
                comm.barrier();
                for f in &shards[comm.rank()] {
                    let fd = process.open(f, OpenFlags::rdonly()).unwrap();
                    let mut off = 0u64;
                    loop {
                        let n = process.pread(fd, off, 1 << 20, None).unwrap();
                        if n == 0 {
                            break;
                        }
                        off += n;
                    }
                    process.close(fd).unwrap();
                }
                comm.barrier();
                // The staging window: daemons promote between epochs in
                // every mode, so the pause is a constant across modes.
                simrt::sleep(pause);
            }
            comm.barrier();
            if comm.rank() == 0 {
                *wall.lock() = (simrt::now() - t0).as_secs_f64();
                if let Some(d) = &fused {
                    d.stop();
                }
                for d in &locals {
                    d.stop();
                }
            }
        }
    };
    world.spawn_ranks(&m.sim, trainer);
    m.sim.run();

    let promoted_files = fused
        .iter()
        .chain(&locals)
        .map(|d| d.stats().promoted_files)
        .sum();
    let wall_s = *wall.lock();
    let bytes_read = total * cfg.epochs as u64;
    DistributedRun {
        mode,
        read_mibps: bytes_read as f64 / wall_s / (1 << 20) as f64,
        wall_s,
        bytes_read,
        staged_bytes: m.stack.staged_bytes(),
        promoted_files,
    }
}

/// Run every mode (weakest first) with the same configuration.
pub fn run_all(cfg: &DistributedAblationConfig) -> Vec<DistributedRun> {
    DistMode::all()
        .into_iter()
        .map(|mode| run_mode(mode, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DistributedAblationConfig {
        DistributedAblationConfig {
            shard_files: vec![8, 4, 2, 1],
            file_bytes: 1 << 20,
            epochs: 4,
            epoch_pause: Duration::from_millis(100),
            ..Default::default()
        }
    }

    #[test]
    fn modes_order_on_a_small_run() {
        let runs = run_all(&small());
        assert_eq!(runs.len(), 3);
        let bw: Vec<f64> = runs.iter().map(|r| r.read_mibps).collect();
        assert!(
            bw[2] >= bw[1] * 0.99 && bw[1] >= bw[0] * 0.99,
            "expected fused ≥ local ≥ none, got {bw:?}"
        );
        // The budget race: uncoordinated daemons stage well under the
        // job budget; the fused daemon uses most of it.
        assert!(runs[1].promoted_files > 0, "local staged something");
        assert!(
            runs[2].staged_bytes > runs[1].staged_bytes,
            "fused beats the race: {} vs {}",
            runs[2].staged_bytes,
            runs[1].staged_bytes
        );
    }

    #[test]
    fn fused_mode_repeats_exactly() {
        // Eviction breaks equal-heat ties by path, so the fused daemon's
        // decisions, and with them the virtual wall time, repeat run to run.
        let runs: Vec<DistributedRun> = (0..3)
            .map(|_| run_mode(DistMode::Fused, &small()))
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.promoted_files, runs[0].promoted_files);
            assert_eq!(r.staged_bytes, runs[0].staged_bytes);
            assert_eq!(r.wall_s.to_bits(), runs[0].wall_s.to_bits());
        }
    }
}
