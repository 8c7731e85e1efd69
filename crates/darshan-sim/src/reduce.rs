//! Cross-rank record reduction — what parallel Darshan does at
//! `MPI_Finalize`: records for files shared across ranks are merged into a
//! single job-level record (counters sum, extrema min/max), so the log
//! stays compact regardless of the process count (paper §III: "The
//! parallel version of Darshan uses the PMPI profiling interface…").
//!
//! The operator is pairwise. [`PosixFold`] and [`StdioFold`] hold a
//! partially reduced group of one file's records; [`fold_group`] merges a
//! higher-rank contributor into it. A flat job reduction ([`reduce_job`])
//! is the one-level case, a rank-ordered left fold; `tfdarshan`'s
//! log-depth job tree drives the same operator level by level.
//!
//! darshan-runtime's operator is a left fold in rank order, and two of its
//! ingredients are order-sensitive: f64 cumulative-time sums are not
//! associative, and the common-access tracker has bounded memory with
//! order-dependent eviction. A naive pairwise merge would therefore drift
//! from the left fold bit by bit. The folds split the operator: every
//! *associative* field (integer sums, byte extrema, first-min-nonzero /
//! last-max timestamps, max op times) merges pairwise, while the
//! order-sensitive remainder — the three cumulative-time floats and the
//! four `(access, count)` slots of each contributor — rides along as a
//! rank-ordered deferred list that [`PosixFold::finish`] replays exactly as
//! the left fold would have. The result is byte-identical to the left fold
//! for every tree shape (proptested against a flat reference model in
//! `tests/proptests_extensions.rs`).

use std::collections::BTreeMap;

use crate::counters::{PosixCounter as P, PosixFCounter as PF, PosixRecord};
use crate::counters::{StdioCounter as S, StdioFCounter as SF, StdioRecord};

/// Counters that reduce with `max` instead of `+`.
const MAX_COUNTERS: &[P] = &[P::POSIX_MAX_BYTE_READ, P::POSIX_MAX_BYTE_WRITTEN];

/// STDIO counters that reduce with `max` instead of `+`.
const STDIO_MAX_COUNTERS: &[S] = &[S::STDIO_MAX_BYTE_READ, S::STDIO_MAX_BYTE_WRITTEN];

/// The order-sensitive slice of one POSIX contributor: its common-access
/// slots (replayed into the tracker in rank order at the root) and its
/// cumulative-time floats (left-folded in rank order at the root).
#[derive(Clone, Copy, Debug)]
pub struct PosixDeferred {
    /// The contributor's `(ACCESSi_ACCESS, ACCESSi_COUNT)` slot pairs.
    pub accesses: [(i64, i64); 4],
    /// `[POSIX_F_READ_TIME, POSIX_F_WRITE_TIME, POSIX_F_META_TIME]`.
    pub times: [f64; 3],
}

impl PosixDeferred {
    fn of(r: &PosixRecord) -> Self {
        PosixDeferred {
            accesses: [
                (
                    r.get(P::POSIX_ACCESS1_ACCESS),
                    r.get(P::POSIX_ACCESS1_COUNT),
                ),
                (
                    r.get(P::POSIX_ACCESS2_ACCESS),
                    r.get(P::POSIX_ACCESS2_COUNT),
                ),
                (
                    r.get(P::POSIX_ACCESS3_ACCESS),
                    r.get(P::POSIX_ACCESS3_COUNT),
                ),
                (
                    r.get(P::POSIX_ACCESS4_ACCESS),
                    r.get(P::POSIX_ACCESS4_COUNT),
                ),
            ],
            times: [
                r.fget(PF::POSIX_F_READ_TIME),
                r.fget(PF::POSIX_F_WRITE_TIME),
                r.fget(PF::POSIX_F_META_TIME),
            ],
        }
    }
}

/// A partially reduced POSIX record group, mergeable pairwise up a
/// reduction tree. `One` is a group a single rank contributed to so far —
/// kept verbatim so a rank-private file passes through unchanged.
#[derive(Clone, Debug)]
pub enum PosixFold {
    /// Exactly one contributor; passes through unchanged if it stays alone.
    One(PosixRecord),
    /// Two or more contributors: associative fields folded in `out`,
    /// order-sensitive fields deferred in rank order.
    Many {
        /// Associative partial: summed counters (access slots excluded),
        /// byte extrema, timestamp extrema, max op times.
        out: PosixRecord,
        /// Rank-ordered order-sensitive contributions.
        deferred: Vec<PosixDeferred>,
    },
}

/// Fold the associative slice of `r` into `out`: every field except the
/// access slots and the cumulative-time sums. Also correct for folding
/// one *partial* into another: every field it touches holds the same kind
/// of partial value (a sum, a max, a min-nonzero) in a record and in a
/// partial.
fn fold_posix_assoc(out: &mut PosixRecord, r: &PosixRecord) {
    for c in P::ALL {
        let i = c as usize;
        if MAX_COUNTERS.contains(&c) {
            out.counters[i] = out.counters[i].max(r.counters[i]);
        } else if !is_access_slot(c) {
            out.counters[i] += r.counters[i];
        }
    }
    for (start, end) in [
        (
            PF::POSIX_F_OPEN_START_TIMESTAMP,
            PF::POSIX_F_OPEN_END_TIMESTAMP,
        ),
        (
            PF::POSIX_F_READ_START_TIMESTAMP,
            PF::POSIX_F_READ_END_TIMESTAMP,
        ),
        (
            PF::POSIX_F_WRITE_START_TIMESTAMP,
            PF::POSIX_F_WRITE_END_TIMESTAMP,
        ),
        (
            PF::POSIX_F_CLOSE_START_TIMESTAMP,
            PF::POSIX_F_CLOSE_END_TIMESTAMP,
        ),
    ] {
        let s = r.fget(start);
        if s > 0.0 {
            let cur = out.fget(start);
            *out.fget_mut(start) = if cur == 0.0 { s } else { cur.min(s) };
        }
        let e = r.fget(end);
        *out.fget_mut(end) = out.fget(end).max(e);
    }
    for t in [PF::POSIX_F_MAX_READ_TIME, PF::POSIX_F_MAX_WRITE_TIME] {
        *out.fget_mut(t) = out.fget(t).max(r.fget(t));
    }
}

impl PosixFold {
    /// A leaf: one rank's record, unreduced.
    pub fn leaf(r: PosixRecord) -> Self {
        PosixFold::One(r)
    }

    /// Contributors folded so far.
    pub fn contributors(&self) -> usize {
        match self {
            PosixFold::One(_) => 1,
            PosixFold::Many { deferred, .. } => deferred.len(),
        }
    }

    fn into_parts(self) -> (PosixRecord, Vec<PosixDeferred>) {
        match self {
            PosixFold::One(r) => {
                let mut out = PosixRecord::new(r.rec_id);
                fold_posix_assoc(&mut out, &r);
                (out, vec![PosixDeferred::of(&r)])
            }
            PosixFold::Many { out, deferred } => (out, deferred),
        }
    }

    /// Merge `right` (the higher-rank half) into `self`. Associative; the
    /// rank order of the deferred list is preserved by construction.
    pub fn absorb(self, right: PosixFold) -> Self {
        let (mut out, mut deferred) = self.into_parts();
        let (r_out, r_deferred) = right.into_parts();
        fold_posix_assoc(&mut out, &r_out);
        deferred.extend(r_deferred);
        PosixFold::Many { out, deferred }
    }

    /// Finish the group at the tree root. A lone contributor passes
    /// through unchanged; otherwise the deferred order-sensitive fields
    /// are replayed in rank order, reproducing the left fold bit-for-bit.
    pub fn finish(self) -> PosixRecord {
        match self {
            PosixFold::One(r) => r,
            PosixFold::Many { mut out, deferred } => {
                for d in &deferred {
                    for (a, cnt) in d.accesses {
                        if cnt > 0 {
                            out.access_sizes.add_n(a as u64, cnt as u64);
                        }
                    }
                    for (t, v) in [
                        PF::POSIX_F_READ_TIME,
                        PF::POSIX_F_WRITE_TIME,
                        PF::POSIX_F_META_TIME,
                    ]
                    .into_iter()
                    .zip(d.times)
                    {
                        *out.fget_mut(t) += v;
                    }
                }
                out.reduce_common_accesses();
                out
            }
        }
    }
}

/// STDIO counterpart of [`PosixDeferred`]: the cumulative-time floats.
#[derive(Clone, Copy, Debug)]
pub struct StdioDeferred {
    /// `[STDIO_F_READ_TIME, STDIO_F_WRITE_TIME, STDIO_F_META_TIME]`.
    pub times: [f64; 3],
}

/// STDIO counterpart of [`PosixFold`] (no access slots, so only the
/// cumulative-time sums are deferred).
#[derive(Clone, Debug)]
pub enum StdioFold {
    /// Exactly one contributor.
    One(StdioRecord),
    /// Two or more contributors.
    Many {
        /// Associative partial.
        out: StdioRecord,
        /// Rank-ordered cumulative-time contributions.
        deferred: Vec<StdioDeferred>,
    },
}

fn fold_stdio_assoc(out: &mut StdioRecord, r: &StdioRecord) {
    for c in S::ALL {
        let i = c as usize;
        if STDIO_MAX_COUNTERS.contains(&c) {
            out.counters[i] = out.counters[i].max(r.counters[i]);
        } else {
            out.counters[i] += r.counters[i];
        }
    }
    for (start, end) in [
        (
            SF::STDIO_F_OPEN_START_TIMESTAMP,
            SF::STDIO_F_OPEN_END_TIMESTAMP,
        ),
        (
            SF::STDIO_F_CLOSE_START_TIMESTAMP,
            SF::STDIO_F_CLOSE_END_TIMESTAMP,
        ),
    ] {
        let s = r.fget(start);
        if s > 0.0 {
            let cur = out.fget(start);
            *out.fget_mut(start) = if cur == 0.0 { s } else { cur.min(s) };
        }
        let e = r.fget(end);
        *out.fget_mut(end) = out.fget(end).max(e);
    }
}

impl StdioFold {
    /// A leaf: one rank's record, unreduced.
    pub fn leaf(r: StdioRecord) -> Self {
        StdioFold::One(r)
    }

    /// Contributors folded so far.
    pub fn contributors(&self) -> usize {
        match self {
            StdioFold::One(_) => 1,
            StdioFold::Many { deferred, .. } => deferred.len(),
        }
    }

    fn into_parts(self) -> (StdioRecord, Vec<StdioDeferred>) {
        match self {
            StdioFold::One(r) => {
                let mut out = StdioRecord::new(r.rec_id);
                fold_stdio_assoc(&mut out, &r);
                let times = [
                    r.fget(SF::STDIO_F_READ_TIME),
                    r.fget(SF::STDIO_F_WRITE_TIME),
                    r.fget(SF::STDIO_F_META_TIME),
                ];
                (out, vec![StdioDeferred { times }])
            }
            StdioFold::Many { out, deferred } => (out, deferred),
        }
    }

    /// Merge `right` (the higher-rank half) into `self`.
    pub fn absorb(self, right: StdioFold) -> Self {
        let (mut out, mut deferred) = self.into_parts();
        let (r_out, r_deferred) = right.into_parts();
        fold_stdio_assoc(&mut out, &r_out);
        deferred.extend(r_deferred);
        StdioFold::Many { out, deferred }
    }

    /// Finish the group at the tree root.
    pub fn finish(self) -> StdioRecord {
        match self {
            StdioFold::One(r) => r,
            StdioFold::Many { mut out, deferred } => {
                for d in &deferred {
                    for (t, v) in [
                        SF::STDIO_F_READ_TIME,
                        SF::STDIO_F_WRITE_TIME,
                        SF::STDIO_F_META_TIME,
                    ]
                    .into_iter()
                    .zip(d.times)
                    {
                        *out.fget_mut(t) += v;
                    }
                }
                out
            }
        }
    }
}

fn is_access_slot(c: P) -> bool {
    matches!(
        c,
        P::POSIX_ACCESS1_ACCESS
            | P::POSIX_ACCESS2_ACCESS
            | P::POSIX_ACCESS3_ACCESS
            | P::POSIX_ACCESS4_ACCESS
            | P::POSIX_ACCESS1_COUNT
            | P::POSIX_ACCESS2_COUNT
            | P::POSIX_ACCESS3_COUNT
            | P::POSIX_ACCESS4_COUNT
    )
}

/// Fold `right` (a higher-rank contributor) into the group for record
/// `id`: the first contributor opens the group, later ones merge into it
/// with `absorb`. Returns whether a pairwise merge happened.
pub fn fold_group<F>(
    groups: &mut BTreeMap<u64, F>,
    id: u64,
    right: F,
    absorb: fn(F, F) -> F,
) -> bool {
    match groups.remove(&id) {
        None => {
            groups.insert(id, right);
            false
        }
        Some(left) => {
            groups.insert(id, absorb(left, right));
            true
        }
    }
}

/// Reduce full per-rank record sets into the job view, sorted by record
/// id: a rank-ordered left fold of [`PosixFold`] per record id, so records
/// of files touched by several ranks merge and rank-private files pass
/// through unchanged. Generic over owned records and the `Arc`-shared
/// records that incremental snapshots hand out.
pub fn reduce_job<R: std::borrow::Borrow<PosixRecord>>(per_rank: &[Vec<R>]) -> Vec<PosixRecord> {
    let mut groups = BTreeMap::new();
    for r in per_rank.iter().flatten() {
        let r = r.borrow();
        fold_group(
            &mut groups,
            r.rec_id,
            PosixFold::leaf(r.clone()),
            PosixFold::absorb,
        );
    }
    groups.into_values().map(PosixFold::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, reads: i64, bytes: i64, max_byte: i64, t0: f64, t1: f64) -> PosixRecord {
        let mut r = PosixRecord::new(id);
        *r.get_mut(P::POSIX_READS) = reads;
        *r.get_mut(P::POSIX_BYTES_READ) = bytes;
        *r.get_mut(P::POSIX_MAX_BYTE_READ) = max_byte;
        *r.fget_mut(PF::POSIX_F_READ_START_TIMESTAMP) = t0;
        *r.fget_mut(PF::POSIX_F_READ_END_TIMESTAMP) = t1;
        *r.fget_mut(PF::POSIX_F_READ_TIME) = t1 - t0;
        *r.get_mut(P::POSIX_ACCESS1_ACCESS) = 4096;
        *r.get_mut(P::POSIX_ACCESS1_COUNT) = reads;
        r
    }

    #[test]
    fn merge_sums_and_extremizes() {
        let merged = PosixFold::leaf(rec(9, 10, 1_000, 999, 1.0, 2.0))
            .absorb(PosixFold::leaf(rec(9, 5, 500, 5_000, 0.5, 3.0)))
            .finish();
        assert_eq!(merged.get(P::POSIX_READS), 15);
        assert_eq!(merged.get(P::POSIX_BYTES_READ), 1_500);
        assert_eq!(merged.get(P::POSIX_MAX_BYTE_READ), 5_000);
        assert_eq!(merged.fget(PF::POSIX_F_READ_START_TIMESTAMP), 0.5);
        assert_eq!(merged.fget(PF::POSIX_F_READ_END_TIMESTAMP), 3.0);
        assert!((merged.fget(PF::POSIX_F_READ_TIME) - 3.5).abs() < 1e-12);
        // Common access slots re-reduced: 15 × 4096.
        assert_eq!(merged.get(P::POSIX_ACCESS1_ACCESS), 4096);
        assert_eq!(merged.get(P::POSIX_ACCESS1_COUNT), 15);
    }

    #[test]
    fn merge_stdio_sums_and_extremizes() {
        let mk = |writes: i64, max_byte: i64, open_start: f64, close_end: f64| {
            let mut r = StdioRecord::new(7);
            *r.get_mut(S::STDIO_WRITES) = writes;
            *r.get_mut(S::STDIO_MAX_BYTE_WRITTEN) = max_byte;
            *r.fget_mut(SF::STDIO_F_OPEN_START_TIMESTAMP) = open_start;
            *r.fget_mut(SF::STDIO_F_CLOSE_END_TIMESTAMP) = close_end;
            *r.fget_mut(SF::STDIO_F_WRITE_TIME) = 0.25;
            r
        };
        let merged = StdioFold::leaf(mk(4, 100, 1.5, 2.0))
            .absorb(StdioFold::leaf(mk(6, 900, 0.5, 5.0)))
            .finish();
        assert_eq!(merged.get(S::STDIO_WRITES), 10);
        assert_eq!(merged.get(S::STDIO_MAX_BYTE_WRITTEN), 900);
        assert_eq!(merged.fget(SF::STDIO_F_OPEN_START_TIMESTAMP), 0.5);
        assert_eq!(merged.fget(SF::STDIO_F_CLOSE_END_TIMESTAMP), 5.0);
        assert!((merged.fget(SF::STDIO_F_WRITE_TIME) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reduce_job_merges_shared_keeps_private() {
        let rank0 = vec![rec(1, 1, 100, 99, 1.0, 2.0), rec(2, 2, 200, 199, 1.0, 2.0)];
        let rank1 = vec![rec(1, 3, 300, 299, 2.0, 4.0)];
        let job = reduce_job(&[rank0, rank1]);
        assert_eq!(job.len(), 2);
        let shared = job.iter().find(|r| r.rec_id == 1).unwrap();
        assert_eq!(shared.get(P::POSIX_READS), 4);
        assert_eq!(shared.get(P::POSIX_BYTES_READ), 400);
        let private = job.iter().find(|r| r.rec_id == 2).unwrap();
        assert_eq!(private.get(P::POSIX_READS), 2);
    }
}
