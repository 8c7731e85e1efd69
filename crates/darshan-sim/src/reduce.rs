//! Cross-rank record reduction — what parallel Darshan does at
//! `MPI_Finalize`: records for files shared across ranks are merged into a
//! single job-level record (counters sum, extrema min/max), so the log
//! stays compact regardless of the process count (paper §III: "The
//! parallel version of Darshan uses the PMPI profiling interface…").
//!
//! The operator is pairwise and written once for every [`Module`]:
//! [`Fold<M>`] holds a partially reduced group of one file's records, and
//! [`fold_group`] merges a higher-rank contributor into it. A flat job
//! reduction ([`reduce_job`]) is the one-level case, a rank-ordered left
//! fold; `tfdarshan`'s log-depth job tree drives the same operator level
//! by level.
//!
//! darshan-runtime's operator is a left fold in rank order, and two of its
//! ingredients are order-sensitive: f64 cumulative-time sums are not
//! associative, and POSIX's common-access tracker has bounded memory with
//! order-dependent eviction. A naive pairwise merge would therefore drift
//! from the left fold bit by bit. The fold splits the operator: every
//! *associative* field (integer sums, byte extrema, first-min-nonzero /
//! last-max timestamps, max op times) merges pairwise, while the
//! order-sensitive remainder — the module's three cumulative-time floats
//! and, through [`Module::common_accesses`], the four `(access, count)`
//! slots of each contributor — rides along as a rank-ordered deferred list
//! that [`Fold::finish`] replays exactly as the left fold would have. The
//! result is byte-identical to the left fold for every tree shape
//! (proptested against a flat reference model in
//! `tests/proptests_extensions.rs`).

use std::borrow::Borrow;
use std::collections::BTreeMap;

use crate::counters::{Counter, Module, Record};

/// The order-sensitive slice of one contributor: its common-access slots
/// (replayed into the tracker in rank order at the root; zero for modules
/// without them) and its cumulative-time floats (left-folded in rank order
/// at the root).
#[derive(Clone, Copy, Debug)]
pub struct Deferred {
    /// The contributor's `(ACCESSi_ACCESS, ACCESSi_COUNT)` slot pairs.
    pub accesses: [(i64, i64); 4],
    /// The module's `[read, write, meta]` cumulative times.
    pub times: [f64; 3],
}

impl Deferred {
    fn of<M: Module>(r: &mut Record<M>) -> Self {
        let slots = M::common_accesses(&mut r.ext).map(|(_, slots)| *slots);
        Deferred {
            accesses: slots.map_or([(0, 0); 4], |s| s.map(|(a, c)| (r.get(a), r.get(c)))),
            times: M::TIMES.map(|t| r.fget(t)),
        }
    }
}

/// A partially reduced record group, mergeable pairwise up a reduction
/// tree. `One` is a group a single rank contributed to so far — kept
/// verbatim so a rank-private file passes through unchanged.
#[derive(Clone, Debug)]
pub enum Fold<M: Module> {
    /// Exactly one contributor; passes through unchanged if it stays alone.
    One(Record<M>),
    /// Two or more contributors: associative fields folded in `out`,
    /// order-sensitive fields deferred in rank order.
    Many {
        /// Associative partial: summed counters (access slots excluded),
        /// byte extrema, timestamp extrema, max op times.
        out: Record<M>,
        /// Rank-ordered order-sensitive contributions.
        deferred: Vec<Deferred>,
    },
}

/// Fold the associative slice of `r` into `out`: every field except the
/// access slots and the cumulative-time sums. Also correct for folding
/// one *partial* into another: every field it touches holds the same kind
/// of partial value (a sum, a max, a min-nonzero) in a record and in a
/// partial.
fn fold_assoc<M: Module>(out: &mut Record<M>, r: &Record<M>) {
    let slots = M::common_accesses(&mut out.ext).map(|(_, s)| s);
    let is_slot =
        |i: usize| slots.is_some_and(|s| s.iter().any(|(a, c)| a.idx() == i || c.idx() == i));
    let (o, x) = (out.counters.as_mut(), r.counters.as_ref());
    for i in 0..o.len() {
        if M::MAX.iter().any(|c| c.idx() == i) {
            o[i] = o[i].max(x[i]);
        } else if !is_slot(i) {
            o[i] += x[i];
        }
    }
    for &(start, end) in M::STAMPS {
        let s = r.fget(start);
        if s > 0.0 {
            let cur = out.fget(start);
            *out.fget_mut(start) = if cur == 0.0 { s } else { cur.min(s) };
        }
        *out.fget_mut(end) = out.fget(end).max(r.fget(end));
    }
    for &t in M::FMAX {
        *out.fget_mut(t) = out.fget(t).max(r.fget(t));
    }
}

impl<M: Module> Fold<M> {
    /// A leaf: one rank's record, unreduced.
    pub fn leaf(r: Record<M>) -> Self {
        Fold::One(r)
    }

    fn into_parts(self) -> (Record<M>, Vec<Deferred>) {
        match self {
            Fold::One(mut r) => {
                let mut out = Record::new(r.rec_id);
                fold_assoc(&mut out, &r);
                (out, vec![Deferred::of(&mut r)])
            }
            Fold::Many { out, deferred } => (out, deferred),
        }
    }

    /// Merge `right` (the higher-rank half) into `self`. Associative; the
    /// rank order of the deferred list is preserved by construction.
    pub fn absorb(self, right: Fold<M>) -> Self {
        let (mut out, mut deferred) = self.into_parts();
        let (r_out, r_deferred) = right.into_parts();
        fold_assoc(&mut out, &r_out);
        deferred.extend(r_deferred);
        Fold::Many { out, deferred }
    }

    /// Finish the group at the tree root. A lone contributor passes
    /// through unchanged; otherwise the deferred order-sensitive fields
    /// are replayed in rank order, reproducing the left fold bit-for-bit.
    pub fn finish(self) -> Record<M> {
        match self {
            Fold::One(r) => r,
            Fold::Many { mut out, deferred } => {
                for d in &deferred {
                    if let Some((tracker, _)) = M::common_accesses(&mut out.ext) {
                        for (a, cnt) in d.accesses {
                            if cnt > 0 {
                                tracker.add_n(a as u64, cnt as u64);
                            }
                        }
                    }
                    for (t, v) in M::TIMES.into_iter().zip(d.times) {
                        *out.fget_mut(t) += v;
                    }
                }
                out.reduce_common_accesses();
                out
            }
        }
    }
}

/// Fold `right` (a higher-rank contributor) into the group for record
/// `id`: the first contributor opens the group, later ones merge into it
/// with [`Fold::absorb`]. Returns whether a pairwise merge happened.
pub fn fold_group<M: Module>(groups: &mut BTreeMap<u64, Fold<M>>, id: u64, right: Fold<M>) -> bool {
    match groups.remove(&id) {
        None => {
            groups.insert(id, right);
            false
        }
        Some(left) => {
            groups.insert(id, left.absorb(right));
            true
        }
    }
}

/// Reduce full per-rank record sets into the job view, sorted by record
/// id: a rank-ordered left fold of [`Fold`] per record id, so records of
/// files touched by several ranks merge and rank-private files pass
/// through unchanged. Generic over owned records and the `Arc`-shared
/// records that incremental snapshots hand out, and over every module.
pub fn reduce_job<M: Module, R: Borrow<Record<M>>>(per_rank: &[Vec<R>]) -> Vec<Record<M>> {
    let mut groups = BTreeMap::new();
    for r in per_rank.iter().flatten() {
        let r = r.borrow();
        fold_group(&mut groups, r.rec_id, Fold::leaf(r.clone()));
    }
    groups.into_values().map(Fold::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{PosixCounter as P, PosixFCounter as PF, PosixRecord, StdioRecord};
    use crate::counters::{StdioCounter as S, StdioFCounter as SF};

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
        let merged = Fold::leaf(rec(9, 10, 1_000, 999, 1.0, 2.0))
            .absorb(Fold::leaf(rec(9, 5, 500, 5_000, 0.5, 3.0)))
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
        let merged = Fold::leaf(mk(4, 100, 1.5, 2.0))
            .absorb(Fold::leaf(mk(6, 900, 0.5, 5.0)))
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
