//! Rank as a first-class dimension: per-rank tf-Darshan sessions and the
//! job-level reduction.
//!
//! The paper's §III forward-compatibility argument ("if TensorFlow employs
//! MPI as a distributed strategy … one can employ the parallel version of
//! Darshan with the MPI module with a similar technique"), implemented:
//!
//! * [`RankCtx`] — one rank's view: its [`Process`] (with its own probe
//!   bus) plus an attached tf-Darshan session whose DXT segments are
//!   stamped with the rank;
//! * [`JobCtx`] — owns N `RankCtx`s over one shared [`StorageStack`] (the
//!   cluster's parallel filesystem). Every event lands on exactly one bus,
//!   its rank's own, as parallel Darshan keeps each rank's records in that
//!   rank's buffers; a job-wide consumer registers one sink on every
//!   rank's bus ([`JobCtx::attach_shard_merge`]);
//! * [`JobReport`] — per-rank reports plus the job-level merge, built by
//!   the tree reduction in [`crate::job_tree`] with parallel Darshan's
//!   shared-file reduction semantics: records of files touched by several
//!   ranks merge (counters sum, extrema min/max, first timestamps
//!   min-nonzero, last timestamps max), records of rank-private files pass
//!   through **unchanged** — which makes the `world_size == 1` job report
//!   byte-identical to the single-process path.

use std::sync::Arc;

use darshan_sim::DxtSegment;
use mpi_sim::MpiWorld;
use posix_sim::{GotError, Process};
use probe::ProbeBus;
use serde::{Deserialize, Serialize};
use simrt::{EventHandle, EventTask, Sim};
use storage_sim::StorageStack;

use crate::analysis::{analyze, diff, per_file, SnapshotDiff};
use crate::report::TfDarshanReport;
use crate::wrapper::{TfDarshanConfig, TfDarshanWrapper};

/// One rank's profiling context: the rank's process, its own probe bus
/// (reachable via [`RankCtx::probe`]), and an attached tf-Darshan session
/// whose DXT segments carry this rank's id.
pub struct RankCtx {
    rank: u32,
    process: Arc<Process>,
    wrapper: Arc<TfDarshanWrapper>,
}

impl RankCtx {
    /// Wrap `process` as rank `rank` and install tf-Darshan into it. The
    /// Darshan runtime is configured with the rank so every DXT segment it
    /// records is rank-tagged.
    pub fn new(rank: u32, process: Arc<Process>, mut config: TfDarshanConfig) -> Self {
        config.darshan.rank = rank;
        let wrapper = TfDarshanWrapper::install(process.clone(), config);
        RankCtx {
            rank,
            process,
            wrapper,
        }
    }

    /// This rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The rank's process.
    pub fn process(&self) -> &Arc<Process> {
        &self.process
    }

    /// The rank's own probe bus (sees only this rank's events).
    pub fn probe(&self) -> &ProbeBus {
        self.process.probe()
    }

    /// The rank's tf-Darshan wrapper.
    pub fn wrapper(&self) -> &Arc<TfDarshanWrapper> {
        &self.wrapper
    }

    /// The rank's last completed session (diff + window DXT), or `None`
    /// if no start/stop pair exists yet. The snapshot pair is taken once
    /// and serves both the diff and the DXT extraction.
    pub fn session(&self) -> Option<RankSession> {
        let (start, stop) = self.wrapper.session_snapshots()?;
        let dxt = self.wrapper.library().runtime().dxt_between(&start, &stop);
        Some(RankSession {
            rank: self.rank,
            diff: diff(&start, &stop),
            dxt,
        })
    }
}

/// One rank's extracted session: the per-rank snapshot diff plus the
/// window's (rank-tagged) DXT segments. Input to the job reduction.
pub struct RankSession {
    /// The contributing rank.
    pub rank: u32,
    /// Per-file counter deltas of the rank's window.
    pub diff: SnapshotDiff,
    /// DXT segments of the rank's window.
    pub dxt: Vec<(u64, DxtSegment)>,
}

impl RankSession {
    /// This rank's own report — exactly what the single-process tracer
    /// produces from the same diff and DXT.
    pub fn report(&self) -> TfDarshanReport {
        let (io, stdio) = analyze(&self.diff, &self.dxt);
        TfDarshanReport {
            window: self.diff.window,
            io,
            stdio,
            files: per_file(&self.diff),
            sanitizer: None,
            scheduler: None,
            explore: None,
        }
    }
}

/// The job view: per-rank reports plus the job-level merge.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobReport {
    /// The job's true world size — **not** the number of sessions that
    /// contributed. A rank that failed to produce a session no longer
    /// silently shrinks the reported world; it shows up in
    /// [`JobReport::missing_ranks`] instead.
    pub world_size: u32,
    /// Ranks in `0..world_size` that contributed no session (crashed
    /// before `mark_stop`, never attached, …). Empty for a complete job.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub missing_ranks: Vec<u32>,
    /// The job-level report over the merged records and the concatenated
    /// rank-tagged DXT timeline.
    pub job: TfDarshanReport,
    /// Per-rank reports, in rank order.
    pub per_rank: Vec<TfDarshanReport>,
}

/// Ranks in `0..world_size` with no session in `sessions`.
pub(crate) fn missing_ranks_of(sessions: &[RankSession], world_size: u32) -> Vec<u32> {
    let have: std::collections::HashSet<u32> = sessions.iter().map(|s| s.rank).collect();
    (0..world_size).filter(|r| !have.contains(r)).collect()
}

/// N ranks over one shared storage stack, each rank with its own probe
/// bus.
///
/// There is no job-level bus: a consumer that needs every rank's events
/// registers one sink on each rank's bus. The per-thread probe ring
/// delivers runs in emission order, so such a sink sees the job's events
/// in global op-completion order, the order happens-before analysis (the
/// sanitizer) needs.
pub struct JobCtx {
    stack: StorageStack,
    ranks: Vec<RankCtx>,
}

impl JobCtx {
    /// Create `world_size` ranks, each with its own fresh [`Process`] over
    /// the shared `stack`, and tf-Darshan installed per rank.
    pub fn new(stack: &StorageStack, world_size: usize, config: &TfDarshanConfig) -> Self {
        assert!(world_size > 0);
        let processes = (0..world_size)
            .map(|_| Process::new(stack.clone()))
            .collect();
        Self::from_processes(stack.clone(), processes, config)
    }

    /// Wrap an existing [`MpiWorld`]'s rank processes — the path a
    /// distributed training job takes: `mpi-sim` owns the ranks and the
    /// collectives; the job context adds per-rank tf-Darshan sessions on
    /// top.
    pub fn over_world(world: &MpiWorld, config: &TfDarshanConfig) -> Self {
        let processes: Vec<Arc<Process>> = (0..world.size()).map(|r| world.process(r)).collect();
        let stack = processes[0].stack().clone();
        Self::from_processes(stack, processes, config)
    }

    fn from_processes(
        stack: StorageStack,
        processes: Vec<Arc<Process>>,
        config: &TfDarshanConfig,
    ) -> Self {
        let ranks = processes
            .into_iter()
            .enumerate()
            .map(|(r, p)| RankCtx::new(r as u32, p, config.clone()))
            .collect();
        JobCtx { stack, ranks }
    }

    /// Number of ranks.
    pub fn world_size(&self) -> usize {
        self.ranks.len()
    }

    /// A rank's context.
    pub fn rank(&self, rank: usize) -> &RankCtx {
        &self.ranks[rank]
    }

    /// All ranks, rank order.
    pub fn ranks(&self) -> &[RankCtx] {
        &self.ranks
    }

    /// Register `sink` on **every rank's bus**: the job-wide consumer.
    /// The sink sees each rank's events exactly once, in global emission
    /// order (the probe ring delivers runs across buses in the order they
    /// were emitted). Returns one `(rank, sink id)` pair per rank for
    /// [`JobCtx::detach_shard_merge`].
    pub fn attach_shard_merge(
        &self,
        sink: Arc<dyn probe::ProbeSink>,
    ) -> Vec<(usize, probe::SinkId)> {
        self.ranks
            .iter()
            .enumerate()
            .map(|(r, ctx)| (r, ctx.probe().register(sink.clone())))
            .collect()
    }

    /// Unregister a sink attached with [`JobCtx::attach_shard_merge`].
    pub fn detach_shard_merge(&self, ids: &[(usize, probe::SinkId)]) {
        for (rank, id) in ids {
            self.ranks[*rank].probe().unregister(*id);
        }
    }

    /// The shared storage stack (the parallel filesystem).
    pub fn stack(&self) -> &StorageStack {
        &self.stack
    }

    /// Begin a job-wide profiling window: every rank attaches (first time)
    /// and takes its start snapshot.
    ///
    /// Marking is charged in virtual time (`snapshot_cost_per_record` per
    /// dirty record, on the calling task), so one caller marking all N
    /// ranks serializes O(N) snapshot work on its carrier. Fleet-scale
    /// drivers that already have one task per rank group should mark
    /// concurrently via [`JobCtx::mark_start_span`] instead.
    pub fn mark_start(&self) -> Result<(), GotError> {
        self.mark_start_span(0, self.ranks.len())
    }

    /// End the job-wide window with per-rank stop snapshots. Same O(N)
    /// caveat as [`JobCtx::mark_start`]; see [`JobCtx::mark_stop_span`].
    pub fn mark_stop(&self) {
        self.mark_stop_span(0, self.ranks.len());
    }

    /// [`JobCtx::mark_start`] for the rank span `lo..hi` only — in real
    /// darshan the window marks are collectives where every rank snapshots
    /// *its own* state concurrently, and this is the simulated shape: each
    /// node carrier marks the ranks it drives, so the per-rank snapshot
    /// cost parallelizes over carriers instead of serializing on one.
    pub fn mark_start_span(&self, lo: usize, hi: usize) -> Result<(), GotError> {
        for r in &self.ranks[lo..hi] {
            r.wrapper.mark_start()?;
        }
        Ok(())
    }

    /// [`JobCtx::mark_stop`] for the rank span `lo..hi` only.
    pub fn mark_stop_span(&self, lo: usize, hi: usize) {
        for r in &self.ranks[lo..hi] {
            r.wrapper.mark_stop();
        }
    }

    /// Extract every rank's session and reduce to the job view. `None`
    /// until a start/stop pair exists on every rank. Runs the log-depth
    /// tree reduction ([`crate::job_tree::reduce_job_sessions_tree`]).
    pub fn collect(&self) -> Option<JobReport> {
        self.reduce_sessions(self.ranks.len())
    }

    /// [`JobCtx::collect`] that tolerates missing ranks: reduces whatever
    /// sessions exist (`None` only when no rank has one) and surfaces the
    /// sessionless ranks in [`JobReport::missing_ranks`].
    pub fn collect_partial(&self) -> Option<JobReport> {
        self.reduce_sessions(1)
    }

    /// Extract the ranks' sessions and tree-reduce them, or `None` when
    /// fewer than `min` ranks have one.
    fn reduce_sessions(&self, min: usize) -> Option<JobReport> {
        let sessions: Vec<RankSession> = self.ranks.iter().filter_map(|r| r.session()).collect();
        if sessions.len() < min {
            return None;
        }
        let (report, _) = crate::job_tree::reduce_job_sessions_tree(
            &sessions,
            self.ranks.len() as u32,
            &crate::job_tree::TreeReduceConfig::default(),
        );
        Some(report)
    }

    /// Spawn one *event task* per rank as the rank's driver — the scalable
    /// path for wide jobs: each rank costs a run-calendar entry instead of
    /// a parked OS thread, so a 1k-rank job needs a 1k-entry heap, not 1k
    /// stacks. `f` builds rank `r`'s state machine from its id and
    /// process; the machine is polled inline by the scheduler and must use
    /// the poll-flavored sync/collective APIs (blocking calls from a poll
    /// panic). Ranks that genuinely need blocking POSIX code keep using
    /// carrier threads via `sim.spawn` — the two flavors interleave on one
    /// calendar with identical virtual-time semantics.
    pub fn spawn_rank_events<M, F>(&self, sim: &Sim, f: F) -> Vec<EventHandle>
    where
        M: EventTask + 'static,
        F: Fn(u32, Arc<Process>) -> M,
    {
        self.ranks
            .iter()
            .map(|r| sim.spawn_event(format!("rank{}", r.rank), f(r.rank, r.process.clone())))
            .collect()
    }
}
