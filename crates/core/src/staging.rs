//! Profile-guided data staging (paper §V.B).
//!
//! The paper's optimization: tf-Darshan shows that files below the
//! single-read threshold (reads ≤ ~1 MB segments) dominate the HDD's seek
//! budget while accounting for a small fraction of bytes; moving exactly
//! those files to the Optane tier buys a 19% bandwidth improvement while
//! consuming only 8% of the dataset's bytes on the expensive tier. The
//! advisor picks the threshold from profile data; `apply` promotes the
//! files to the fast tier and returns the path remapping for the dataset's
//! file list.

use serde::{Deserialize, Serialize};
use storage_sim::{FsError, StorageStack};

use crate::analysis::FileActivity;

/// A staging decision.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StagingPlan {
    /// Size threshold: files strictly smaller move to the fast tier.
    pub threshold: u64,
    /// `(path, size)` of files to move.
    pub files: Vec<(String, u64)>,
    /// Total bytes staged.
    pub staged_bytes: u64,
    /// Total bytes of the examined population.
    pub total_bytes: u64,
    /// Total files examined.
    pub total_files: usize,
}

impl StagingPlan {
    /// Fraction of bytes staged.
    pub fn byte_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.staged_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Fraction of files staged.
    pub fn file_fraction(&self) -> f64 {
        if self.total_files == 0 {
            0.0
        } else {
            self.files.len() as f64 / self.total_files as f64
        }
    }
}

/// Build a plan from profiled file activity: stage files smaller than
/// `threshold` bytes.
pub fn plan_by_threshold(files: &[FileActivity], threshold: u64) -> StagingPlan {
    let mut plan = StagingPlan {
        threshold,
        total_files: files.len(),
        ..Default::default()
    };
    for f in files {
        plan.total_bytes += f.apparent_size;
        if f.apparent_size < threshold {
            plan.files.push((f.path.clone(), f.apparent_size));
            plan.staged_bytes += f.apparent_size;
        }
    }
    plan
}

/// Choose the largest power-of-two threshold whose staged bytes fit in
/// `fast_tier_budget` — maximizing the number of small files (and thereby
/// removed HDD seeks) per staged byte, which is the paper's argument for
/// why size alone would mislead ("one might intuitively stage the larger
/// files… which in the end may not provide a big improvement").
///
/// The returned threshold never overcommits: the plan it induces via
/// [`plan_by_threshold`] stages at most `fast_tier_budget` bytes. Edge
/// cases resolve conservatively — with a zero/insufficient budget the
/// sweep stops at the largest *vacuous* threshold (the plan is empty), and
/// when every file has the same size the staged set is all-or-nothing, so
/// an over-budget population stages nothing rather than overflowing. Use
/// [`plan_within_budget`] when partial budget fill matters more than the
/// threshold shape.
pub fn advise_threshold(files: &[FileActivity], fast_tier_budget: u64) -> u64 {
    let mut best = 0u64;
    let mut thr = 64 * 1024u64;
    while thr <= 1 << 32 {
        let staged: u64 = files
            .iter()
            .filter(|f| f.apparent_size < thr)
            .map(|f| f.apparent_size)
            .sum();
        if staged <= fast_tier_budget {
            best = thr;
        } else {
            break;
        }
        thr *= 2;
    }
    best
}

/// Build a plan that fills `fast_tier_budget` smallest-files-first and
/// never overcommits: files are considered in ascending size order (ties
/// broken by path, so the plan is deterministic) and taken while they fit.
/// A zero budget yields an empty plan; an all-equal-size population stages
/// exactly ⌊budget / size⌋ files. This is what the online staging daemon
/// seeds from — the power-of-two sweep of [`advise_threshold`] can leave
/// half the budget idle when the size distribution straddles a doubling.
pub fn plan_within_budget(files: &[FileActivity], fast_tier_budget: u64) -> StagingPlan {
    let mut by_size: Vec<&FileActivity> = files.iter().collect();
    by_size.sort_by(|a, b| {
        a.apparent_size
            .cmp(&b.apparent_size)
            .then_with(|| a.path.cmp(&b.path))
    });
    let mut plan = StagingPlan {
        total_files: files.len(),
        total_bytes: files.iter().map(|f| f.apparent_size).sum(),
        ..Default::default()
    };
    for f in by_size {
        if plan.staged_bytes + f.apparent_size > fast_tier_budget {
            break;
        }
        plan.staged_bytes += f.apparent_size;
        plan.files.push((f.path.clone(), f.apparent_size));
        // Effective threshold: one past the largest staged size.
        plan.threshold = plan.threshold.max(f.apparent_size + 1);
    }
    plan
}

/// Execute a plan: promote each file from under `src_prefix` to the same
/// relative path under `dst_prefix` (untimed — staging happens before the
/// measured epoch, as in the paper). This is the one-shot mode of the
/// online staging daemon (`crates/prefetch`): each file is cloned to the
/// fast tier via [`StorageStack::promote_untimed`] and the stack redirects
/// subsequent opens of the original path, so callers need not rewrite
/// their file lists — the original stays in place as the backing copy for
/// cheap eviction. Returns `(old, new)` mappings for callers that want to
/// rewrite the dataset's file list anyway (both paths resolve to the fast
/// copy).
pub fn apply(
    stack: &StorageStack,
    plan: &StagingPlan,
    src_prefix: &str,
    dst_prefix: &str,
) -> Result<Vec<(String, String)>, FsError> {
    let mut mapping = Vec::with_capacity(plan.files.len());
    for (path, _) in &plan.files {
        let rel = path.strip_prefix(src_prefix).ok_or(FsError::NotFound)?;
        let dst = format!("{dst_prefix}{rel}");
        stack.promote_untimed(path, &dst)?;
        mapping.push((path.clone(), dst));
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use storage_sim::{Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache};

    fn activity(sizes: &[u64]) -> Vec<FileActivity> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| FileActivity {
                path: format!("/hdd/f{i}"),
                reads: 1,
                bytes_read: s,
                apparent_size: s,
                read_time: 0.0,
            })
            .collect()
    }

    #[test]
    fn plan_selects_small_files() {
        let files = activity(&[100, 2 << 20, 1 << 20, 10 << 20]);
        let plan = plan_by_threshold(&files, 2 << 20);
        assert_eq!(plan.files.len(), 2);
        assert_eq!(plan.staged_bytes, 100 + (1 << 20));
        assert!(plan.byte_fraction() < 0.1);
        assert_eq!(plan.file_fraction(), 0.5);
    }

    #[test]
    fn advise_respects_budget() {
        // 100 files of 1 MB + 10 files of 100 MB.
        let mut sizes = vec![1 << 20; 100];
        sizes.extend(vec![100 << 20; 10]);
        let files = activity(&sizes);
        let thr = advise_threshold(&files, 200 << 20);
        // All 1 MB files fit (100 MB), the 100 MB files would not.
        assert!(thr > (1 << 20), "threshold {thr} must cover the 1MB files");
        assert!(thr <= (100 << 20));
        let plan = plan_by_threshold(&files, thr);
        assert!(plan.staged_bytes <= 200 << 20);
        assert_eq!(plan.files.len(), 100);
    }

    #[test]
    fn advise_zero_budget_picks_vacuous_threshold() {
        // With no budget, the largest threshold that stages nothing wins.
        let files = activity(&[1 << 20]);
        assert_eq!(advise_threshold(&files, 0), 1 << 20);
        assert!(plan_by_threshold(&files, 1 << 20).files.is_empty());
    }

    #[test]
    fn apply_migrates_and_maps() {
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
        stack.create_synthetic("/hdd/a", 100, 1).unwrap();
        stack.create_synthetic("/hdd/b", 5 << 20, 2).unwrap();

        let files = vec![
            FileActivity {
                path: "/hdd/a".into(),
                reads: 1,
                bytes_read: 100,
                apparent_size: 100,
                read_time: 0.0,
            },
            FileActivity {
                path: "/hdd/b".into(),
                reads: 5,
                bytes_read: 5 << 20,
                apparent_size: 5 << 20,
                read_time: 0.0,
            },
        ];
        let plan = plan_by_threshold(&files, 2 << 20);
        let sim = simrt::Sim::new();
        let stack2 = stack.clone();
        let mapping = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let m2 = mapping.clone();
        sim.spawn("t", move || {
            *m2.lock() = apply(&stack2, &plan, "/hdd", "/fast").unwrap();
        });
        sim.run();
        let mapping = mapping.lock().clone();
        assert_eq!(mapping, vec![("/hdd/a".to_string(), "/fast/a".to_string())]);
        // content_info charges no virtual time, so it is host-callable.
        assert!(optane.content_info("/fast/a").is_ok());
        // Promote is copy + redirect: the original remains as the backing
        // copy, and opens of the old path route to the fast tier.
        assert!(hdd.content_info("/hdd/a").is_ok());
        assert!(stack.is_staged("/hdd/a"));
        assert_eq!(stack.staged_bytes(), 100);
        assert!(!stack.is_staged("/hdd/b"));
        assert!(hdd.content_info("/hdd/b").is_ok());
    }

    #[test]
    fn advise_insufficient_budget_never_overcommits() {
        // Every file is 32 KB — below the smallest threshold the sweep
        // tries — and the budget covers none of them: the induced plan
        // must be empty, not over budget.
        let files = activity(&[32 << 10; 8]);
        let thr = advise_threshold(&files, 16 << 10);
        let plan = plan_by_threshold(&files, thr);
        assert!(plan.files.is_empty(), "threshold {thr} overcommits");
        assert_eq!(plan.staged_bytes, 0);
    }

    #[test]
    fn plan_within_budget_zero_budget_is_empty() {
        let files = activity(&[100, 200, 300]);
        let plan = plan_within_budget(&files, 0);
        assert!(plan.files.is_empty());
        assert_eq!(plan.staged_bytes, 0);
        assert_eq!(plan.total_files, 3);
        assert_eq!(plan.total_bytes, 600);
    }

    #[test]
    fn plan_within_budget_equal_sizes_fill_exactly() {
        // All-equal-size tie: exactly ⌊budget / size⌋ files stage, chosen
        // deterministically, never overcommitting.
        let files = activity(&[1 << 20; 10]);
        let plan = plan_within_budget(&files, (3 << 20) + (1 << 19));
        assert_eq!(plan.files.len(), 3);
        assert_eq!(plan.staged_bytes, 3 << 20);
        let again = plan_within_budget(&files, (3 << 20) + (1 << 19));
        assert_eq!(plan.files, again.files, "tie-break is deterministic");
    }

    #[test]
    fn plan_within_budget_prefers_small_files() {
        let files = activity(&[4 << 20, 100, 2 << 20, 300]);
        let plan = plan_within_budget(&files, 2 << 20);
        // Smallest first: 100 and 300 fit; 2 MB would overflow with them.
        assert_eq!(plan.staged_bytes, 400);
        assert_eq!(plan.files.len(), 2);
        assert!(plan.threshold > 300 && plan.threshold <= 2 << 20);
    }
}
