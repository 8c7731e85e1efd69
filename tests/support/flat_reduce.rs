//! Test-only reference model of the job reduction: the flat, rank-ordered
//! left-fold merges and the flat job assembly that production code
//! replaced with the pairwise fold (`darshan_sim::reduce::Fold` driven by
//! `tfdarshan::job_tree`). The property tests check the fold against this
//! independent implementation byte for byte.
//!
//! Include with `#[path = "support/flat_reduce.rs"] mod flat_reduce;`.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use tf_darshan::darshan::{
    DxtSegment, PosixCounter as P, PosixFCounter as PF, PosixRecord, StdioCounter as S,
    StdioFCounter as SF, StdioRecord,
};
use tf_darshan::tfdarshan::{
    analyze, per_file, JobReport, RankSession, SnapshotDiff, TfDarshanReport,
};

/// Counters that reduce with `max` instead of `+`.
const MAX_COUNTERS: &[P] = &[P::POSIX_MAX_BYTE_READ, P::POSIX_MAX_BYTE_WRITTEN];

/// STDIO counters that reduce with `max` instead of `+`.
const STDIO_MAX_COUNTERS: &[S] = &[S::STDIO_MAX_BYTE_READ, S::STDIO_MAX_BYTE_WRITTEN];

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

/// Merge per-rank records of the **same file** into one shared record.
///
/// Semantics follow darshan-runtime's POSIX reduction operator: additive
/// counters sum; byte extrema take the max; the common-access slots are
/// re-derived from the per-rank slots; first timestamps take the earliest
/// non-zero value, last timestamps the latest; cumulative times sum.
pub fn merge_posix_records(records: &[PosixRecord]) -> Option<PosixRecord> {
    let first = records.first()?;
    debug_assert!(records.iter().all(|r| r.rec_id == first.rec_id));
    let mut out = PosixRecord::new(first.rec_id);

    for r in records {
        for c in P::ALL {
            let i = c as usize;
            if MAX_COUNTERS.contains(&c) {
                out.counters[i] = out.counters[i].max(r.counters[i]);
            } else if !is_access_slot(c) {
                out.counters[i] += r.counters[i];
            }
        }
        // Re-accumulate common access sizes from the per-rank top-4 slots.
        for (a, cnt) in [
            (P::POSIX_ACCESS1_ACCESS, P::POSIX_ACCESS1_COUNT),
            (P::POSIX_ACCESS2_ACCESS, P::POSIX_ACCESS2_COUNT),
            (P::POSIX_ACCESS3_ACCESS, P::POSIX_ACCESS3_COUNT),
            (P::POSIX_ACCESS4_ACCESS, P::POSIX_ACCESS4_COUNT),
        ] {
            let count = r.get(cnt);
            if count > 0 {
                for _ in 0..count {
                    out.ext.access_sizes.add(r.get(a) as u64);
                }
            }
        }
        // Timestamps: first-start = min nonzero, last-end = max; times sum.
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
        for t in [
            PF::POSIX_F_READ_TIME,
            PF::POSIX_F_WRITE_TIME,
            PF::POSIX_F_META_TIME,
        ] {
            *out.fget_mut(t) += r.fget(t);
        }
        for t in [PF::POSIX_F_MAX_READ_TIME, PF::POSIX_F_MAX_WRITE_TIME] {
            *out.fget_mut(t) = out.fget(t).max(r.fget(t));
        }
    }
    out.reduce_common_accesses();
    Some(out)
}

/// Merge per-rank STDIO records of the same file into one shared record.
///
/// Same operator shape as [`merge_posix_records`]: additive counters sum,
/// byte extrema take the max, open/close start timestamps take the earliest
/// non-zero value, end timestamps the latest, cumulative times sum.
pub fn merge_stdio_records(records: &[StdioRecord]) -> Option<StdioRecord> {
    let first = records.first()?;
    debug_assert!(records.iter().all(|r| r.rec_id == first.rec_id));
    let mut out = StdioRecord::new(first.rec_id);

    for r in records {
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
        for t in [
            SF::STDIO_F_READ_TIME,
            SF::STDIO_F_WRITE_TIME,
            SF::STDIO_F_META_TIME,
        ] {
            *out.fget_mut(t) += r.fget(t);
        }
    }
    Some(out)
}

/// Ranks in `0..world_size` with no session in `sessions`.
fn missing_ranks_of(sessions: &[RankSession], world_size: u32) -> Vec<u32> {
    let have: std::collections::HashSet<u32> = sessions.iter().map(|s| s.rank).collect();
    (0..world_size).filter(|r| !have.contains(r)).collect()
}

/// Merge per-rank sessions into the job view with parallel Darshan's
/// shared-file reduction semantics: a record id appearing in more than one
/// rank's diff is merged ([`merge_posix_records`] / [`merge_stdio_records`]);
/// a record id unique to one rank passes through unchanged. The job window
/// spans min-start..max-stop; the job DXT is the rank-tagged concatenation
/// (kept in end-time order for more than one session). The report carries
/// the true `world_size` and lists the ranks that produced no session.
pub fn reduce_job_sessions_sized(sessions: &[RankSession], world_size: u32) -> JobReport {
    assert!(
        !sessions.is_empty(),
        "job reduction needs at least one rank"
    );

    // Group records by id across ranks, preserving rec-id order (diffs are
    // already rec-id-sorted, and so is a BTreeMap walk).
    let mut posix: BTreeMap<u64, Vec<&PosixRecord>> = BTreeMap::new();
    let mut stdio: BTreeMap<u64, Vec<&StdioRecord>> = BTreeMap::new();
    for s in sessions {
        for r in &s.diff.posix {
            posix.entry(r.rec_id).or_default().push(r);
        }
        for r in &s.diff.stdio {
            stdio.entry(r.rec_id).or_default().push(r);
        }
    }
    let merged_posix: Vec<PosixRecord> = posix
        .into_values()
        .filter_map(|group| {
            if group.len() == 1 {
                Some(group[0].clone()) // rank-private file: pass through
            } else {
                let owned: Vec<PosixRecord> = group.into_iter().cloned().collect();
                merge_posix_records(&owned)
            }
        })
        .collect();
    let merged_stdio: Vec<StdioRecord> = stdio
        .into_values()
        .filter_map(|group| {
            if group.len() == 1 {
                Some(group[0].clone())
            } else {
                let owned: Vec<StdioRecord> = group.into_iter().cloned().collect();
                merge_stdio_records(&owned)
            }
        })
        .collect();

    // Names: the union across ranks (identical Arc reused for one rank, so
    // the single-rank job path shares rather than copies).
    let names = if sessions.len() == 1 {
        sessions[0].diff.names.clone()
    } else {
        let mut union: HashMap<u64, String> = HashMap::new();
        for s in sessions {
            for (id, name) in s.diff.names.iter() {
                union.entry(*id).or_insert_with(|| name.clone());
            }
        }
        Arc::new(union)
    };

    let window = (
        sessions
            .iter()
            .map(|s| s.diff.window.0)
            .fold(f64::INFINITY, f64::min),
        sessions
            .iter()
            .map(|s| s.diff.window.1)
            .fold(f64::NEG_INFINITY, f64::max),
    );
    let job_diff = SnapshotDiff {
        window,
        posix: merged_posix,
        stdio: merged_stdio,
        names,
        partial: sessions.iter().any(|s| s.diff.partial),
    };

    // Job DXT: every rank's segments on one timeline. A single rank's
    // session order is preserved as-is (byte-identity with the
    // single-process path); multiple ranks interleave by completion time.
    let mut job_dxt: Vec<(u64, DxtSegment)> = Vec::new();
    for s in sessions {
        job_dxt.extend(s.dxt.iter().copied());
    }
    if sessions.len() > 1 {
        job_dxt.sort_by(|a, b| {
            a.1.end
                .total_cmp(&b.1.end)
                .then(a.1.start.total_cmp(&b.1.start))
                .then(a.1.rank.cmp(&b.1.rank))
        });
    }

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
