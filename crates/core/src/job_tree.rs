//! Job-level reduction: parallel Darshan's shared-file reduction as a
//! log-depth k-ary tree.
//!
//! Each leaf is one rank's session, each inner node pairwise-merges the
//! partially reduced groups of its children with the fold operators of
//! `darshan_sim::reduce` (counters sum, byte extrema max, first timestamps
//! min-nonzero, last timestamps max), and only the root materializes the
//! final records. A flat merge is the one-level case, and a lone session
//! passes through untouched. Two order-sensitive ingredients — f64
//! cumulative-time sums and the bounded common-access tracker — are
//! carried up the tree as rank-ordered deferred lists and replayed at the
//! root, which makes the report **byte-identical** to a flat rank-ordered
//! left fold for every world size and tree shape (proptested against the
//! reference model in `tests/support/flat_reduce.rs`).
//!
//! One stepper does the work — build the leaves, fold one level per step,
//! finish the root — and two drivers run it:
//!
//! * [`reduce_job_sessions_tree`] — on the host, every step at once, for
//!   callers that want the answer now;
//! * [`spawn_tree_reduce`] — a simrt *event task* that takes one step per
//!   poll and charges the step's modeled parallel cost (`max` over a
//!   level's combines, not their sum) as virtual time, so a simulated
//!   job's reduce wall time grows ~O(log N) while a flat fold's grows
//!   O(N). The fleet bench gates on exactly this ratio.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use darshan_sim::reduce::{fold_group, PosixFold, StdioFold};
use darshan_sim::DxtSegment;
use parking_lot::Mutex;
use simrt::{EventCx, EventHandle, EventPoll, Sim};

use crate::analysis::{analyze, per_file, SnapshotDiff};
use crate::job::{missing_ranks_of, JobReport, RankSession};
use crate::report::TfDarshanReport;

/// Modeled virtual cost of one pairwise record-group merge (a few dozen
/// counter adds/maxes — the granule the tree parallelizes).
const MERGE_NS: u64 = 150;
/// Modeled per-combine overhead: one exchange between reduction peers
/// (matches the default [`mpi_sim::NetworkModel`] latency).
const COMBINE_BASE_NS: u64 = 2_000;

/// Shape of the reduction tree.
#[derive(Clone, Copy, Debug)]
pub struct TreeReduceConfig {
    /// Children per inner node (≥ 2). 2 is the classic binary reduction;
    /// wider trees trade depth for per-node work.
    pub arity: usize,
}

impl Default for TreeReduceConfig {
    fn default() -> Self {
        TreeReduceConfig { arity: 2 }
    }
}

/// What the tree did, and what it would cost on a simulated cluster.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TreeReduceStats {
    /// Leaves (contributing sessions).
    pub leaves: usize,
    /// Tree depth (combine levels; 0 for a single session).
    pub levels: u32,
    /// Pairwise group merges performed across the whole tree.
    pub pair_merges: u64,
    /// Modeled parallel reduce time: per level, the *slowest* combine
    /// (they run concurrently); levels sum. Grows ~O(log N).
    pub modeled: Duration,
    /// Modeled cost of the flat left fold over the same sessions (every
    /// merge serial). Grows O(N); the fleet bench reports both.
    pub modeled_flat: Duration,
}

/// One partially reduced subtree: per-rec-id folds plus the associative
/// session metadata (names first-wins in rank order, window min/max,
/// partial OR, DXT kept merge-sorted by completion time).
struct ReduceNode {
    posix: BTreeMap<u64, PosixFold>,
    stdio: BTreeMap<u64, StdioFold>,
    names: Arc<HashMap<u64, String>>,
    window: (f64, f64),
    partial: bool,
    dxt: Vec<(u64, DxtSegment)>,
}

fn dxt_cmp(a: &(u64, DxtSegment), b: &(u64, DxtSegment)) -> std::cmp::Ordering {
    let (a, b) = (&a.1, &b.1);
    a.end
        .total_cmp(&b.end)
        .then(a.start.total_cmp(&b.start))
        .then(a.rank.cmp(&b.rank))
}

impl ReduceNode {
    /// Leaf over one rank's session. It shares the session's names, so a
    /// lone session's report shares them too. With `sort_dxt` the leaf's
    /// DXT run is stable-sorted so inner nodes can merge sorted runs; ties
    /// keep session order, which composed up the tree is a stable sort of
    /// the rank-ordered concatenation. A lone session keeps its own order.
    fn leaf(s: &RankSession, sort_dxt: bool) -> ReduceNode {
        let posix = s
            .diff
            .posix
            .iter()
            .map(|r| (r.rec_id, PosixFold::leaf(r.clone())))
            .collect();
        let stdio = s
            .diff
            .stdio
            .iter()
            .map(|r| (r.rec_id, StdioFold::leaf(r.clone())))
            .collect();
        let mut dxt = s.dxt.clone();
        if sort_dxt {
            dxt.sort_by(dxt_cmp);
        }
        ReduceNode {
            posix,
            stdio,
            names: s.diff.names.clone(),
            window: s.diff.window,
            partial: s.diff.partial,
            dxt,
        }
    }

    /// Records in this node (the leaf/combine work proxy for the cost
    /// model).
    fn weight(&self) -> u64 {
        (self.posix.len() + self.stdio.len()) as u64
    }

    /// Merge `right` (covering higher-ranked sessions) into `self`.
    /// Returns the number of pairwise group merges performed — the
    /// combine's modeled work.
    fn absorb(&mut self, right: ReduceNode) -> u64 {
        let mut merges = 0u64;
        for (id, fold) in right.posix {
            merges += fold_group(&mut self.posix, id, fold, PosixFold::absorb) as u64;
        }
        for (id, fold) in right.stdio {
            merges += fold_group(&mut self.stdio, id, fold, StdioFold::absorb) as u64;
        }
        let names = Arc::make_mut(&mut self.names);
        for (id, name) in right.names.iter() {
            names.entry(*id).or_insert_with(|| name.clone());
        }
        self.window.0 = self.window.0.min(right.window.0);
        self.window.1 = self.window.1.max(right.window.1);
        self.partial |= right.partial;
        // Merge the sorted DXT runs, left-first on ties: pairwise this is
        // a stable mergesort of the session-ordered concatenation.
        let left_dxt = std::mem::take(&mut self.dxt);
        self.dxt = merge_dxt(left_dxt, right.dxt);
        merges
    }
}

fn merge_dxt(
    left: Vec<(u64, DxtSegment)>,
    right: Vec<(u64, DxtSegment)>,
) -> Vec<(u64, DxtSegment)> {
    if right.is_empty() {
        return left;
    }
    if left.is_empty() {
        return right;
    }
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut li = left.into_iter().peekable();
    let mut ri = right.into_iter().peekable();
    loop {
        match (li.peek(), ri.peek()) {
            (Some(l), Some(r)) => {
                if dxt_cmp(r, l) == std::cmp::Ordering::Less {
                    out.push(ri.next().expect("peeked"));
                } else {
                    out.push(li.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(li.next().expect("peeked")),
            (None, Some(_)) => out.push(ri.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// A reduction in progress, shared by both drivers: build the leaves,
/// fold one level per [`TreeStepper::step`], then
/// [`TreeStepper::finish`] the root.
struct TreeStepper {
    arity: usize,
    nodes: Vec<ReduceNode>,
    stats: TreeReduceStats,
}

impl TreeStepper {
    /// Build one leaf per session. Also returns the modeled cost of the
    /// leaf build — every rank builds its leaf concurrently on a real
    /// cluster, so the heaviest one is charged — or `None` for a lone
    /// session, which has nothing to reduce.
    fn new(sessions: &[RankSession], config: &TreeReduceConfig) -> (Self, Option<Duration>) {
        assert!(config.arity >= 2, "reduction tree needs arity >= 2");
        assert!(
            !sessions.is_empty(),
            "job reduction needs at least one rank"
        );
        let lone = sessions.len() == 1;
        let nodes: Vec<ReduceNode> = sessions
            .iter()
            .map(|s| ReduceNode::leaf(s, !lone))
            .collect();
        let mut stats = TreeReduceStats {
            leaves: nodes.len(),
            ..TreeReduceStats::default()
        };
        let mut leaf_cost = None;
        if !lone {
            let flat_weight: u64 = nodes.iter().map(ReduceNode::weight).sum();
            let heaviest = nodes.iter().map(ReduceNode::weight).max().unwrap_or(0);
            stats.modeled_flat =
                Duration::from_nanos(COMBINE_BASE_NS * nodes.len() as u64 + MERGE_NS * flat_weight);
            stats.modeled = Duration::from_nanos(COMBINE_BASE_NS + MERGE_NS * heaviest);
            leaf_cost = Some(stats.modeled);
        }
        let tree = TreeStepper {
            arity: config.arity,
            nodes,
            stats,
        };
        (tree, leaf_cost)
    }

    /// Fold one level: `arity`-sized groups of adjacent nodes, left to
    /// right. Returns the level's modeled parallel cost (its slowest
    /// combine), or `None` once only the root is left.
    fn step(&mut self) -> Option<Duration> {
        if self.nodes.len() <= 1 {
            return None;
        }
        let mut next = Vec::with_capacity(self.nodes.len().div_ceil(self.arity));
        let mut nodes = std::mem::take(&mut self.nodes).into_iter();
        let mut slowest = 0u64;
        while let Some(mut acc) = nodes.next() {
            let mut merges = 0u64;
            for right in nodes.by_ref().take(self.arity - 1) {
                merges += acc.absorb(right);
            }
            self.stats.pair_merges += merges;
            slowest = slowest.max(merges);
            next.push(acc);
        }
        self.nodes = next;
        let cost = Duration::from_nanos(COMBINE_BASE_NS + MERGE_NS * slowest);
        self.stats.levels += 1;
        self.stats.modeled += cost;
        Some(cost)
    }

    /// Materialize the root into the job report: the BTreeMap walk keeps
    /// rec-id order, and `analyze`/`per_file` run over the merged diff.
    fn finish(
        &mut self,
        sessions: &[RankSession],
        world_size: u32,
    ) -> (JobReport, TreeReduceStats) {
        let root = self.nodes.pop().expect("stepped to a single root");
        debug_assert!(self.nodes.is_empty(), "finish before the last level");
        let job_diff = SnapshotDiff {
            window: root.window,
            posix: root.posix.into_values().map(PosixFold::finish).collect(),
            stdio: root.stdio.into_values().map(StdioFold::finish).collect(),
            names: root.names,
            partial: root.partial,
        };
        let (io, stdio) = analyze(&job_diff, &root.dxt);
        let job = TfDarshanReport {
            window: job_diff.window,
            io,
            stdio,
            files: per_file(&job_diff),
            sanitizer: None,
            scheduler: None,
            explore: None,
        };
        let report = JobReport {
            world_size,
            missing_ranks: missing_ranks_of(sessions, world_size),
            job,
            per_rank: sessions.iter().map(|s| s.report()).collect(),
        };
        (report, std::mem::take(&mut self.stats))
    }
}

/// Reduce per-rank sessions with a log-depth k-ary tree on the host. A
/// single session passes through untouched, so the `world_size == 1` job
/// report is byte-identical to the single-process path. `world_size` is
/// the job's true size — sessions may be fewer (the report lists the
/// missing ranks).
pub fn reduce_job_sessions_tree(
    sessions: &[RankSession],
    world_size: u32,
    config: &TreeReduceConfig,
) -> (JobReport, TreeReduceStats) {
    let (mut tree, _) = TreeStepper::new(sessions, config);
    while tree.step().is_some() {}
    tree.finish(sessions, world_size)
}

/// Handle to an in-flight [`spawn_tree_reduce`] event task; the outcome
/// appears after the simulation has run the task to completion.
pub struct TreeReduceHandle {
    slot: Arc<Mutex<Option<(JobReport, TreeReduceStats)>>>,
    handle: EventHandle,
}

impl TreeReduceHandle {
    /// The finished report and stats, once the task completed.
    pub fn take(&self) -> Option<(JobReport, TreeReduceStats)> {
        self.slot.lock().take()
    }

    /// The underlying event-task handle.
    pub fn event_handle(&self) -> &EventHandle {
        &self.handle
    }
}

/// Run the tree reduction as a simrt event task: the first poll charges
/// the leaf build and each later poll folds one tree level, charging its
/// modeled *parallel* cost (the slowest combine of the level — combines
/// of one level are independent and run concurrently on a real cluster)
/// as virtual time. The host work stays serial. A 1k-rank reduce is then
/// ~10 level charges on the calendar instead of 1k serial merges — the
/// fleet bench's reduce-time curve measures exactly this task. The
/// outcome equals [`reduce_job_sessions_tree`]'s over the same sessions.
pub fn spawn_tree_reduce(
    sim: &Sim,
    sessions: Vec<RankSession>,
    world_size: u32,
    config: TreeReduceConfig,
) -> TreeReduceHandle {
    let (mut tree, mut leaf_cost) = TreeStepper::new(&sessions, &config);
    let slot: Arc<Mutex<Option<(JobReport, TreeReduceStats)>>> = Arc::new(Mutex::new(None));
    let out = slot.clone();
    let handle = sim.spawn_event("tree-reduce", move |_cx: &mut EventCx| {
        if let Some(cost) = leaf_cost.take().or_else(|| tree.step()) {
            return EventPoll::Sleep(cost);
        }
        *out.lock() = Some(tree.finish(&sessions, world_size));
        EventPoll::Done
    });
    TreeReduceHandle { slot, handle }
}
