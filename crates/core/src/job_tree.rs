//! Log-depth job reduction: parallel Darshan's shared-file reduction as a
//! k-ary tree instead of a flat left fold.
//!
//! [`crate::job::reduce_job_sessions`] walks every rank's records in one
//! linear pass — fine at `world_size == 4`, an O(N) serial bottleneck at
//! 1k+ ranks. This module rebuilds the same reduction as a reduction
//! *tree*: each leaf is one rank's session, each inner node pairwise-merges
//! the partially reduced groups of its children (counters sum, byte
//! extrema max, first timestamps min-nonzero, last timestamps max), and
//! only the root materializes the final records. Two order-sensitive
//! ingredients of the flat fold — f64 cumulative-time sums and the
//! bounded common-access tracker — are carried up the tree as rank-ordered
//! deferred lists and replayed at the root, which makes the tree output
//! **byte-identical** to the flat fold for every world size and tree shape
//! (see `darshan_sim::reduce::PosixFold` and the proptests in
//! `tests/proptests_extensions.rs`).
//!
//! Two execution shapes share the same combine code:
//!
//! * [`reduce_job_sessions_tree`] — host-side, optionally fanning each
//!   tree level across OS threads (`std::thread::scope`), for callers that
//!   want the answer now;
//! * [`spawn_tree_reduce`] — a simrt *event task* that performs one tree
//!   level per poll and charges the level's modeled parallel cost
//!   (`max` over its combines, not their sum) as virtual time, so a
//!   simulated job's reduce wall time grows ~O(log N) while the flat
//!   fold's grows O(N). The fleet bench gates on exactly this ratio.

use std::collections::hash_map::Entry as HEntry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use darshan_sim::reduce::{PosixFold, StdioFold};
use darshan_sim::DxtSegment;
use parking_lot::Mutex;
use simrt::{EventCx, EventHandle, EventPoll, Sim};

use crate::analysis::{analyze, per_file, SnapshotDiff};
use crate::job::{missing_ranks_of, reduce_job_sessions_sized, JobReport, RankSession};
use crate::report::TfDarshanReport;

/// Modeled virtual cost of one pairwise record-group merge (a few dozen
/// counter adds/maxes — the granule the tree parallelizes).
const MERGE_NS: u64 = 150;
/// Modeled per-combine overhead: one exchange between reduction peers
/// (matches the default [`mpi_sim::NetworkModel`] latency).
const COMBINE_BASE_NS: u64 = 2_000;

/// Shape of the reduction tree and of its host-side execution.
#[derive(Clone, Copy, Debug)]
pub struct TreeReduceConfig {
    /// Children per inner node (≥ 2). 2 is the classic binary reduction;
    /// wider trees trade depth for per-node work.
    pub arity: usize,
    /// Fan tree levels across OS threads on the host path. The result is
    /// bit-identical either way — only wall time changes.
    pub host_parallel: bool,
}

impl Default for TreeReduceConfig {
    fn default() -> Self {
        TreeReduceConfig {
            arity: 2,
            host_parallel: true,
        }
    }
}

/// What the tree did, and what it would cost on a simulated cluster.
#[derive(Clone, Debug, Default)]
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
    names: HashMap<u64, String>,
    window: (f64, f64),
    partial: bool,
    dxt: Vec<(u64, DxtSegment)>,
}

fn dxt_key(e: &(u64, DxtSegment)) -> (f64, f64, u32) {
    (e.1.end, e.1.start, e.1.rank)
}

fn dxt_cmp(a: &(u64, DxtSegment), b: &(u64, DxtSegment)) -> std::cmp::Ordering {
    let (ae, as_, ar) = dxt_key(a);
    let (be, bs, br) = dxt_key(b);
    ae.total_cmp(&be).then(as_.total_cmp(&bs)).then(ar.cmp(&br))
}

impl ReduceNode {
    /// Leaf over one rank's session. The leaf's DXT run is stable-sorted
    /// so inner nodes can merge sorted runs; ties keep session order,
    /// which composed up the tree reproduces the flat path's stable sort
    /// of the rank-ordered concatenation.
    fn leaf(s: &RankSession) -> ReduceNode {
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
        dxt.sort_by(dxt_cmp);
        ReduceNode {
            posix,
            stdio,
            names: (*s.diff.names).clone(),
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
            match self.posix.entry(id) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(fold);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let left = std::mem::replace(
                        o.get_mut(),
                        PosixFold::leaf(darshan_sim::PosixRecord::new(id)),
                    );
                    *o.get_mut() = left.absorb(fold);
                    merges += 1;
                }
            }
        }
        for (id, fold) in right.stdio {
            match self.stdio.entry(id) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(fold);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let left = std::mem::replace(
                        o.get_mut(),
                        StdioFold::leaf(darshan_sim::StdioRecord::new(id)),
                    );
                    *o.get_mut() = left.absorb(fold);
                    merges += 1;
                }
            }
        }
        for (id, name) in right.names {
            if let HEntry::Vacant(v) = self.names.entry(id) {
                v.insert(name);
            }
        }
        self.window.0 = self.window.0.min(right.window.0);
        self.window.1 = self.window.1.max(right.window.1);
        self.partial |= right.partial;
        // Merge the sorted DXT runs, left-first on ties: pairwise this is
        // a stable mergesort of the session-ordered concatenation, i.e.
        // exactly the flat path's stable `sort_by`.
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

/// One tree level: fold `arity`-sized groups of adjacent nodes, left to
/// right. Returns the next level plus this level's modeled parallel cost
/// (`max` over combines) and its total pairwise merges.
fn run_level(
    nodes: Vec<ReduceNode>,
    arity: usize,
    host_parallel: bool,
) -> (Vec<ReduceNode>, Duration, u64) {
    let fold_group = |group: Vec<ReduceNode>| -> (ReduceNode, u64) {
        let mut it = group.into_iter();
        let mut acc = it.next().expect("non-empty group");
        let mut merges = 0u64;
        for right in it {
            merges += acc.absorb(right);
        }
        (acc, merges)
    };

    // Chunk into combine groups.
    let mut groups: Vec<Vec<ReduceNode>> = Vec::new();
    let mut cur: Vec<ReduceNode> = Vec::with_capacity(arity);
    for n in nodes {
        cur.push(n);
        if cur.len() == arity {
            groups.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        groups.push(cur);
    }

    // Only a level of four or more groups can fan out; probing the CPU count
    // reads cgroup files, so narrower levels never ask.
    let threads = if host_parallel && groups.len() >= 4 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        1
    };
    let results: Vec<(ReduceNode, u64)> = if threads > 1 {
        // Contiguous batches, one OS thread each — the combines are
        // independent, so the output is bit-identical to the serial walk.
        let per = groups.len().div_ceil(threads);
        let mut batches: Vec<Vec<Vec<ReduceNode>>> = Vec::new();
        let mut it = groups.into_iter().peekable();
        while it.peek().is_some() {
            batches.push(it.by_ref().take(per).collect());
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .into_iter()
                .map(|batch| {
                    scope.spawn(move || batch.into_iter().map(fold_group).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tree-reduce worker panicked"))
                .collect()
        })
    } else {
        groups.into_iter().map(fold_group).collect()
    };

    let mut level_merges = 0u64;
    let mut slowest = 0u64;
    for (_, m) in &results {
        level_merges += m;
        slowest = slowest.max(*m);
    }
    let cost = Duration::from_nanos(COMBINE_BASE_NS + MERGE_NS * slowest);
    let next = results.into_iter().map(|(n, _)| n).collect();
    (next, cost, level_merges)
}

/// Materialize the root node into the job report — the same final steps
/// as the flat path (BTreeMap walk keeps rec-id order; names become the
/// shared `Arc`; `analyze`/`per_file` run over the merged diff).
fn finish_root(root: ReduceNode, sessions: &[RankSession], world_size: u32) -> JobReport {
    let merged_posix: Vec<darshan_sim::PosixRecord> =
        root.posix.into_values().map(PosixFold::finish).collect();
    let merged_stdio: Vec<darshan_sim::StdioRecord> =
        root.stdio.into_values().map(StdioFold::finish).collect();
    let job_diff = SnapshotDiff {
        window: root.window,
        posix: merged_posix,
        stdio: merged_stdio,
        names: Arc::new(root.names),
        partial: root.partial,
    };
    let job_dxt = root.dxt;
    let (io, stdio) = analyze(&job_diff, &job_dxt);
    let job = TfDarshanReport {
        window: job_diff.window,
        io,
        stdio,
        files: per_file(&job_diff),
        sanitizer: None,
        scheduler: None,
        explore: None,
    };
    JobReport {
        world_size,
        missing_ranks: missing_ranks_of(sessions, world_size),
        job,
        per_rank: sessions.iter().map(|s| s.report()).collect(),
    }
}

/// Reduce per-rank sessions with a log-depth k-ary tree. Byte-identical
/// to [`crate::job::reduce_job_sessions_sized`] over the same sessions
/// (proptested); a single session passes through untouched, preserving
/// the `world_size == 1` byte-identity invariant. `world_size` is the
/// job's true size — sessions may be fewer (the report lists the missing
/// ranks).
pub fn reduce_job_sessions_tree(
    sessions: &[RankSession],
    world_size: u32,
    config: &TreeReduceConfig,
) -> (JobReport, TreeReduceStats) {
    assert!(config.arity >= 2, "reduction tree needs arity >= 2");
    if sessions.len() <= 1 {
        let report = reduce_job_sessions_sized(sessions, world_size);
        let stats = TreeReduceStats {
            leaves: sessions.len(),
            ..TreeReduceStats::default()
        };
        return (report, stats);
    }

    let mut nodes: Vec<ReduceNode> = sessions.iter().map(ReduceNode::leaf).collect();
    let mut stats = TreeReduceStats {
        leaves: nodes.len(),
        ..TreeReduceStats::default()
    };
    let leaf_cost = Duration::from_nanos(
        COMBINE_BASE_NS + MERGE_NS * nodes.iter().map(ReduceNode::weight).max().unwrap_or(0),
    );
    stats.modeled += leaf_cost;
    let flat_weight: u64 = nodes.iter().map(ReduceNode::weight).sum();
    stats.modeled_flat =
        Duration::from_nanos(COMBINE_BASE_NS * nodes.len() as u64 + MERGE_NS * flat_weight);
    while nodes.len() > 1 {
        let (next, cost, merges) = run_level(nodes, config.arity, config.host_parallel);
        nodes = next;
        stats.levels += 1;
        stats.pair_merges += merges;
        stats.modeled += cost;
    }
    let root = nodes.pop().expect("root");
    (finish_root(root, sessions, world_size), stats)
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

/// Run the tree reduction as a simrt event task: one tree level per poll,
/// each level charging its modeled *parallel* cost (the slowest combine of
/// the level — combines of one level are independent and run concurrently
/// on a real cluster) as virtual time. A 1k-rank reduce is then ~10 level
/// charges on the calendar instead of 1k serial merges — the fleet bench's
/// reduce-time curve measures exactly this task.
pub fn spawn_tree_reduce(
    sim: &Sim,
    sessions: Vec<RankSession>,
    world_size: u32,
    config: TreeReduceConfig,
) -> TreeReduceHandle {
    assert!(config.arity >= 2, "reduction tree needs arity >= 2");
    let slot: Arc<Mutex<Option<(JobReport, TreeReduceStats)>>> = Arc::new(Mutex::new(None));
    let out = slot.clone();
    let mut nodes: Option<Vec<ReduceNode>> = None;
    let mut stats = TreeReduceStats::default();
    let handle = sim.spawn_event("tree-reduce", move |_cx: &mut EventCx| {
        if sessions.len() <= 1 {
            let report = reduce_job_sessions_sized(&sessions, world_size);
            stats.leaves = sessions.len();
            *out.lock() = Some((report, std::mem::take(&mut stats)));
            return EventPoll::Done;
        }
        match nodes.take() {
            None => {
                // First poll: build the leaves (all ranks in parallel on a
                // real cluster — charge the heaviest).
                let leaves: Vec<ReduceNode> = sessions.iter().map(ReduceNode::leaf).collect();
                stats.leaves = leaves.len();
                let flat_weight: u64 = leaves.iter().map(ReduceNode::weight).sum();
                stats.modeled_flat = Duration::from_nanos(
                    COMBINE_BASE_NS * leaves.len() as u64 + MERGE_NS * flat_weight,
                );
                let cost = Duration::from_nanos(
                    COMBINE_BASE_NS
                        + MERGE_NS * leaves.iter().map(ReduceNode::weight).max().unwrap_or(0),
                );
                stats.modeled += cost;
                nodes = Some(leaves);
                EventPoll::Sleep(cost)
            }
            Some(level) if level.len() > 1 => {
                // Event-task polls run inline on the scheduler; the host
                // work stays serial here while the *virtual* charge models
                // the level's combines running concurrently.
                let (next, cost, merges) = run_level(level, config.arity, false);
                stats.levels += 1;
                stats.pair_merges += merges;
                stats.modeled += cost;
                nodes = Some(next);
                EventPoll::Sleep(cost)
            }
            Some(mut level) => {
                let root = level.pop().expect("root");
                let report = finish_root(root, &sessions, world_size);
                *out.lock() = Some((report, std::mem::take(&mut stats)));
                EventPoll::Done
            }
        }
    });
    TreeReduceHandle { slot, handle }
}
