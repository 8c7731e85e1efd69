//! The storage stack: mount table + cross-tier staging.
//!
//! A [`StorageStack`] maps path prefixes to filesystems, exactly like a
//! mount table: `/data/hdd` → the HDD's ext4, `/data/optane` → the Optane
//! tier, `/scratch` → Lustre. The POSIX layer resolves every path through
//! it.
//!
//! ## Tier staging (promote / evict)
//!
//! The paper's §V.B optimization moves selected files to a faster tier.
//! Both the paper's pre-run staging ([`StorageStack::promote_untimed`])
//! and the online staging daemon (`crates/prefetch`) go through the
//! promote API, which is safe *under* concurrent application I/O:
//! promotion **copies** a file to the fast tier and installs a *redirect*
//! (application path → fast-tier copy) consulted by the path wrappers; the
//! original stays in place as the backing copy. This gives in-flight read
//! consistency for free:
//!
//! * while a copy is in progress (between [`StorageStack::begin_promote`]
//!   and [`StorageStack::commit_promote`]) no redirect exists, so readers
//!   keep hitting the intact original;
//! * commit installs the redirect atomically (one lock) — subsequent opens
//!   land on the fast copy, whose synthetic content is identical;
//! * eviction removes the redirect first, then unlinks the fast copy —
//!   already-open descriptors stay readable (POSIX unlink semantics) and
//!   new opens fall through to the original. No copy-back is ever needed,
//!   unless the fast copy was written (it is then `dirty` and refuses
//!   eviction, as would a write-back cache mid-flush).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::device::Device;
use crate::fs::{FileSystem, FsError, FsHandle, FsResult, Metadata, OpenOptions};

/// A single mount entry.
#[derive(Clone)]
pub struct Mount {
    /// Path prefix, e.g. `/data/hdd`.
    pub prefix: String,
    /// Filesystem serving paths under the prefix.
    pub fs: Arc<dyn FileSystem>,
}

/// One staged file: the fast-tier copy currently shadowing an application
/// path.
#[derive(Clone, Debug)]
pub struct StagedEntry {
    /// Path of the fast-tier copy.
    pub fast: String,
    /// Size of the staged file.
    pub bytes: u64,
    /// Pinned entries refuse eviction.
    pub pinned: bool,
    /// The fast copy was opened for writing: its content may have diverged
    /// from the original, so eviction would lose data.
    pub dirty: bool,
}

#[derive(Default)]
struct StagingState {
    /// Application path → staged fast-tier copy.
    redirects: HashMap<String, StagedEntry>,
    /// Application path → fast path of a promotion copy in progress.
    inflight: HashMap<String, String>,
    /// Sum of `bytes` over `redirects` (the daemon's budget ledger).
    staged_bytes: u64,
}

/// A mount table. Longest-prefix match wins, as in a real VFS.
#[derive(Clone, Default)]
pub struct StorageStack {
    mounts: Arc<RwLock<Vec<Mount>>>,
    staging: Arc<RwLock<StagingState>>,
}

impl StorageStack {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a mount. Prefixes must be distinct.
    pub fn mount(&self, prefix: impl Into<String>, fs: Arc<dyn FileSystem>) {
        let prefix = prefix.into();
        let mut m = self.mounts.write();
        assert!(
            !m.iter().any(|e| e.prefix == prefix),
            "duplicate mount prefix {prefix}"
        );
        m.push(Mount { prefix, fs });
        // Longest prefix first so resolution can take the first match.
        m.sort_by_key(|e| std::cmp::Reverse(e.prefix.len()));
    }

    /// Resolve a path to its filesystem. The full path stays the
    /// filesystem-internal key (simplifies staging identity).
    pub fn resolve(&self, path: &str) -> FsResult<Arc<dyn FileSystem>> {
        let m = self.mounts.read();
        m.iter()
            .find(|e| {
                path.starts_with(&e.prefix)
                    && (path.len() == e.prefix.len()
                        || path.as_bytes()[e.prefix.len()] == b'/'
                        || e.prefix.is_empty())
            })
            .map(|e| e.fs.clone())
            .ok_or(FsError::NotFound)
    }

    /// All mounts.
    pub fn mounts(&self) -> Vec<Mount> {
        self.mounts.read().clone()
    }

    /// All distinct devices in the stack (for dstat).
    pub fn devices(&self) -> Vec<Arc<Device>> {
        let mut seen: Vec<Arc<Device>> = Vec::new();
        for m in self.mounts.read().iter() {
            for d in m.fs.devices() {
                if !seen.iter().any(|s| Arc::ptr_eq(s, &d)) {
                    seen.push(d);
                }
            }
        }
        seen
    }

    // -- path-routed convenience wrappers ---------------------------------
    //
    // These are the VFS entry points: they honour staging redirects, so a
    // promoted file transparently opens at its fast-tier copy.

    /// Open via mount resolution; returns the filesystem too so the caller
    /// can hold it for handle-based calls.
    pub fn open(
        &self,
        path: &str,
        opts: &OpenOptions,
    ) -> FsResult<(Arc<dyn FileSystem>, FsHandle)> {
        let staged = self.rewrite_for_open(path, opts.write);
        let target = staged.as_deref().unwrap_or(path);
        let fs = self.resolve(target)?;
        let h = fs.open(target, opts)?;
        Ok((fs, h))
    }

    /// Stat via mount resolution.
    pub fn stat(&self, path: &str) -> FsResult<Metadata> {
        let staged = self.rewrite(path);
        let target = staged.as_deref().unwrap_or(path);
        self.resolve(target)?.stat(target)
    }

    /// Unlink via mount resolution. Unlinking a staged path drops its
    /// redirect and removes the fast-tier copy as well.
    pub fn unlink(&self, path: &str) -> FsResult<()> {
        let entry = {
            let mut st = self.staging.write();
            if let Some(e) = st.redirects.remove(path) {
                st.staged_bytes -= e.bytes;
                Some(e)
            } else {
                None
            }
        };
        if let Some(e) = entry {
            let _ = self.resolve(&e.fast).and_then(|fs| fs.unlink(&e.fast));
        }
        self.resolve(path)?.unlink(path)
    }

    /// Create a synthetic file via mount resolution (dataset generation).
    pub fn create_synthetic(&self, path: &str, size: u64, seed: u64) -> FsResult<()> {
        self.resolve(path)?.create_synthetic(path, size, seed)
    }

    // -- tier staging (promote / evict) -----------------------------------

    /// Fast-tier path a staged application path currently redirects to.
    pub fn rewrite(&self, path: &str) -> Option<String> {
        let st = self.staging.read();
        st.redirects.get(path).map(|e| e.fast.clone())
    }

    /// Redirect lookup for an `open`: a write-mode open marks the staged
    /// copy dirty (its content may diverge, so it can no longer be evicted
    /// without losing data).
    pub fn rewrite_for_open(&self, path: &str, write: bool) -> Option<String> {
        if !write {
            return self.rewrite(path);
        }
        let mut st = self.staging.write();
        st.redirects.get_mut(path).map(|e| {
            e.dirty = true;
            e.fast.clone()
        })
    }

    /// Start promoting `origin` to the fast-tier path `fast`: validates
    /// both ends and marks the promotion in flight. The caller then copies
    /// the data (charged in virtual time, e.g. through the POSIX layer) and
    /// calls [`StorageStack::commit_promote`] — or
    /// [`StorageStack::abort_promote`] on failure. While in flight no
    /// redirect exists, so concurrent readers keep using the original.
    pub fn begin_promote(&self, origin: &str, fast: &str) -> FsResult<()> {
        self.resolve(origin)?.content_info(origin)?;
        self.resolve(fast)?;
        let mut st = self.staging.write();
        if st.redirects.contains_key(origin) || st.inflight.contains_key(origin) {
            return Err(FsError::Exists);
        }
        st.inflight.insert(origin.to_string(), fast.to_string());
        Ok(())
    }

    /// Finish a promotion: replace whatever the caller's timed copy wrote
    /// at `fast` with a content-identical clone of the original (synthetic
    /// identity survives, so readers see the same bytes) and install the
    /// redirect. Returns the staged size.
    pub fn commit_promote(&self, origin: &str, fast: &str) -> FsResult<u64> {
        let src_fs = self.resolve(origin)?;
        let dst_fs = self.resolve(fast)?;
        let (size, seed) = src_fs.content_info(origin)?;
        if let Some(seed) = seed {
            let _ = dst_fs.unlink(fast);
            dst_fs.create_synthetic(fast, size, seed)?;
        } else if dst_fs.content_info(fast).is_err() {
            // Literal original and no timed copy: clone opaquely.
            dst_fs.create_synthetic(fast, size, size)?;
        }
        let mut st = self.staging.write();
        st.inflight.remove(origin);
        st.redirects.insert(
            origin.to_string(),
            StagedEntry {
                fast: fast.to_string(),
                bytes: size,
                pinned: false,
                dirty: false,
            },
        );
        st.staged_bytes += size;
        Ok(size)
    }

    /// Abandon an in-flight promotion, removing any partial fast-tier copy.
    pub fn abort_promote(&self, origin: &str) {
        let fast = self.staging.write().inflight.remove(origin);
        if let Some(fast) = fast {
            let _ = self.resolve(&fast).and_then(|fs| fs.unlink(&fast));
        }
    }

    /// Promote without charging data movement in virtual time (the paper's
    /// pre-run staging, and the one-shot mode of the online daemon).
    pub fn promote_untimed(&self, origin: &str, fast: &str) -> FsResult<u64> {
        self.begin_promote(origin, fast)?;
        match self.commit_promote(origin, fast) {
            Ok(n) => Ok(n),
            Err(e) => {
                self.abort_promote(origin);
                Err(e)
            }
        }
    }

    /// Evict a staged file: remove the redirect, then unlink the fast-tier
    /// copy. New opens fall through to the intact original; descriptors
    /// already open on the fast copy stay readable until closed. Refuses
    /// pinned and dirty entries. Returns the bytes freed.
    pub fn evict(&self, origin: &str) -> FsResult<u64> {
        let entry = {
            let mut st = self.staging.write();
            match st.redirects.get(origin) {
                None => return Err(FsError::NotFound),
                Some(e) if e.pinned || e.dirty => return Err(FsError::BadAccess),
                Some(_) => {}
            }
            let e = st.redirects.remove(origin).expect("checked above");
            st.staged_bytes -= e.bytes;
            e
        };
        self.resolve(&entry.fast)?.unlink(&entry.fast)?;
        Ok(entry.bytes)
    }

    /// Pin (or unpin) a staged file against eviction. Returns false if the
    /// path is not staged.
    pub fn pin(&self, origin: &str, pinned: bool) -> bool {
        match self.staging.write().redirects.get_mut(origin) {
            Some(e) => {
                e.pinned = pinned;
                true
            }
            None => false,
        }
    }

    /// True if `origin` currently redirects to a fast-tier copy.
    pub fn is_staged(&self, origin: &str) -> bool {
        self.staging.read().redirects.contains_key(origin)
    }

    /// Total bytes currently staged (the daemon's budget ledger).
    pub fn staged_bytes(&self) -> u64 {
        self.staging.read().staged_bytes
    }

    /// Number of staged files.
    pub fn staged_files(&self) -> usize {
        self.staging.read().redirects.len()
    }

    /// Snapshot of all staged entries, keyed by application path.
    pub fn staged(&self) -> Vec<(String, StagedEntry)> {
        self.staging
            .read()
            .redirects
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PageCache;
    use crate::device::DeviceSpec;
    use crate::local::{LocalFs, LocalFsParams};
    use simrt::Sim;

    fn two_tier() -> (StorageStack, Arc<LocalFs>, Arc<LocalFs>) {
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
        stack.mount("/data/hdd", hdd.clone() as Arc<dyn FileSystem>);
        stack.mount("/data/optane", optane.clone() as Arc<dyn FileSystem>);
        (stack, hdd, optane)
    }

    #[test]
    fn longest_prefix_resolution() {
        let (stack, hdd, optane) = two_tier();
        assert_eq!(
            stack.resolve("/data/hdd/a/b").unwrap().instance_id(),
            hdd.instance_id()
        );
        assert_eq!(
            stack.resolve("/data/optane/x").unwrap().instance_id(),
            optane.instance_id()
        );
        assert!(stack.resolve("/other/x").is_err());
        // "/data/hddx" must NOT match the /data/hdd mount.
        assert!(stack.resolve("/data/hddx/y").is_err());
    }

    #[test]
    fn promote_redirects_reads_to_fast_tier() {
        let (stack, hdd, optane) = two_tier();
        stack.create_synthetic("/data/hdd/f", 1 << 20, 3).unwrap();
        let sim = Sim::new();
        let stack2 = stack.clone();
        sim.spawn("t", move || {
            let n = stack2
                .promote_untimed("/data/hdd/f", "/data/optane/f")
                .unwrap();
            assert_eq!(n, 1 << 20);
            assert!(stack2.is_staged("/data/hdd/f"));
            assert_eq!(stack2.staged_bytes(), 1 << 20);
            // Double promotion refused.
            assert_eq!(
                stack2.promote_untimed("/data/hdd/f", "/data/optane/f"),
                Err(FsError::Exists)
            );
            // Opens on the app path land on the fast copy.
            let (fs, h) = stack2.open("/data/hdd/f", &OpenOptions::reading()).unwrap();
            let mut buf = vec![0u8; 64];
            fs.read_at(h, 0, 64, Some(&mut buf)).unwrap();
            let mut want = vec![0u8; 64];
            crate::content::fill(3, 0, &mut want);
            assert_eq!(buf, want, "staged copy is content-identical");
            fs.close(h).unwrap();
            // Evict: redirect gone, original still there, bytes freed.
            assert_eq!(stack2.evict("/data/hdd/f"), Ok(1 << 20));
            assert_eq!(stack2.staged_bytes(), 0);
            assert!(!stack2.is_staged("/data/hdd/f"));
            assert!(stack2.stat("/data/hdd/f").is_ok());
            assert_eq!(stack2.evict("/data/hdd/f"), Err(FsError::NotFound));
        });
        sim.run();
        assert!(hdd.content_info("/data/hdd/f").is_ok(), "original retained");
        assert!(optane.content_info("/data/optane/f").is_err(), "copy gone");
    }

    #[test]
    fn inflight_promotion_keeps_readers_on_original() {
        let (stack, _hdd, optane) = two_tier();
        stack.create_synthetic("/data/hdd/f", 4096, 9).unwrap();
        let sim = Sim::new();
        let stack2 = stack.clone();
        sim.spawn("t", move || {
            stack2
                .begin_promote("/data/hdd/f", "/data/optane/f")
                .unwrap();
            // No redirect while the copy is in flight.
            assert!(stack2.rewrite("/data/hdd/f").is_none());
            assert!(!stack2.is_staged("/data/hdd/f"));
            // A concurrent begin on the same origin is refused.
            assert_eq!(
                stack2.begin_promote("/data/hdd/f", "/data/optane/g"),
                Err(FsError::Exists)
            );
            stack2.abort_promote("/data/hdd/f");
            // After abort the origin can be promoted again.
            stack2
                .promote_untimed("/data/hdd/f", "/data/optane/f")
                .unwrap();
        });
        sim.run();
        assert_eq!(optane.content_info("/data/optane/f").unwrap().1, Some(9));
    }

    #[test]
    fn pinned_and_dirty_refuse_eviction() {
        let (stack, _, _) = two_tier();
        stack.create_synthetic("/data/hdd/f", 100, 1).unwrap();
        stack.create_synthetic("/data/hdd/g", 100, 2).unwrap();
        let sim = Sim::new();
        let stack2 = stack.clone();
        sim.spawn("t", move || {
            stack2
                .promote_untimed("/data/hdd/f", "/data/optane/f")
                .unwrap();
            assert!(stack2.pin("/data/hdd/f", true));
            assert_eq!(stack2.evict("/data/hdd/f"), Err(FsError::BadAccess));
            assert!(stack2.pin("/data/hdd/f", false));
            assert_eq!(stack2.evict("/data/hdd/f"), Ok(100));

            stack2
                .promote_untimed("/data/hdd/g", "/data/optane/g")
                .unwrap();
            // A write-mode open through the wrapper marks the copy dirty.
            let (fs, h) = stack2
                .open(
                    "/data/hdd/g",
                    &OpenOptions {
                        write: true,
                        ..Default::default()
                    },
                )
                .unwrap();
            fs.close(h).unwrap();
            assert_eq!(stack2.evict("/data/hdd/g"), Err(FsError::BadAccess));
        });
        sim.run();
        assert!(!stack.pin("/data/never-staged", true));
    }

    #[test]
    fn unlink_of_staged_path_drops_redirect_and_copy() {
        let (stack, hdd, optane) = two_tier();
        stack.create_synthetic("/data/hdd/f", 100, 1).unwrap();
        let sim = Sim::new();
        let stack2 = stack.clone();
        sim.spawn("t", move || {
            stack2
                .promote_untimed("/data/hdd/f", "/data/optane/f")
                .unwrap();
            stack2.unlink("/data/hdd/f").unwrap();
            assert_eq!(stack2.staged_bytes(), 0);
        });
        sim.run();
        assert!(hdd.content_info("/data/hdd/f").is_err());
        assert!(optane.content_info("/data/optane/f").is_err());
    }

    #[test]
    fn devices_are_deduplicated() {
        let (stack, hdd, _) = two_tier();
        // Mount the HDD fs twice under another prefix.
        stack.mount("/mnt/alias", hdd as Arc<dyn FileSystem>);
        assert_eq!(stack.devices().len(), 2);
    }
}
