//! The filesystem abstraction and its one implementation.
//!
//! [`Fs`] implements [`FileSystem`] once over the shared in-memory
//! [`Namespace`]; a [`Media`] cost model supplies what differs between
//! storage systems: how metadata and data movement are charged, and which
//! devices hold the files. [`crate::local`] (ext4-like, one block device)
//! and [`crate::lustre`] (MDS RPCs, striped OSTs) are the two models.
//!
//! Paths are flat strings with `/` separators; directories are implicit
//! (the paper's workloads never manipulate directories, only files under
//! dataset roots). All operations *charge virtual time* appropriate to the
//! filesystem and must therefore be called from simulated threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use simrt::{dur, sleep};

use crate::cache::PageCache;
use crate::content;
use crate::device::{Device, Dir};

/// Filesystem error, mapped to errno by the POSIX layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist (`ENOENT`).
    NotFound,
    /// Path already exists on exclusive create (`EEXIST`).
    Exists,
    /// Device full (`ENOSPC`).
    NoSpace,
    /// Underlying device fault (`EIO`).
    Io,
    /// Bad handle or offset (`EBADF`/`EINVAL`).
    Invalid,
    /// Opened without the required access mode (`EBADF`).
    BadAccess,
}

/// Result alias for filesystem operations.
pub type FsResult<T> = Result<T, FsError>;

/// Open flags, the subset POSIX `open(2)` needs here.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenOptions {
    /// Allow reads.
    pub read: bool,
    /// Allow writes.
    pub write: bool,
    /// Create if missing.
    pub create: bool,
    /// Fail if it already exists (with `create`).
    pub create_new: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
}

impl OpenOptions {
    /// Read-only open.
    pub fn reading() -> Self {
        OpenOptions {
            read: true,
            ..Default::default()
        }
    }

    /// Create-or-truncate for writing (what `fopen(path, "w")` does).
    pub fn writing() -> Self {
        OpenOptions {
            write: true,
            create: true,
            truncate: true,
            ..Default::default()
        }
    }
}

/// Stat result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metadata {
    /// File size in bytes.
    pub size: u64,
    /// Filesystem-unique file id (inode number).
    pub file_id: u64,
}

/// Payload of a write: literal bytes (retained for small files so tests can
/// read them back) or a synthetic length (large writes such as checkpoints,
/// where only size/time/counters matter).
#[derive(Debug)]
pub enum WritePayload<'a> {
    /// Real bytes.
    Bytes(&'a [u8]),
    /// Length-only write.
    Synthetic(u64),
}

impl WritePayload<'_> {
    /// Number of bytes this payload represents.
    pub fn len(&self) -> u64 {
        match self {
            WritePayload::Bytes(b) => b.len() as u64,
            WritePayload::Synthetic(n) => *n,
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Opaque handle to an open file within one filesystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FsHandle(pub u64);

/// The filesystem interface used by the POSIX layer and by the dataset
/// generators. Implementations charge virtual time internally.
pub trait FileSystem: Send + Sync {
    /// Implementation name ("local" / "lustre"), for reports.
    fn kind(&self) -> &'static str;

    /// Unique instance id (for page-cache keys and staging identity).
    fn instance_id(&self) -> u64;

    /// Open (optionally creating/truncating) a file.
    fn open(&self, path: &str, opts: &OpenOptions) -> FsResult<FsHandle>;

    /// Close a handle, flushing buffered dirty data.
    fn close(&self, h: FsHandle) -> FsResult<()>;

    /// Read up to `len` bytes at `offset`. Returns bytes read (0 at EOF).
    /// When `buf` is given, `len` is clamped to its length (as
    /// `std::io::Read::read` does) and it is filled with the file's
    /// content.
    fn read_at(&self, h: FsHandle, offset: u64, len: u64, buf: Option<&mut [u8]>) -> FsResult<u64>;

    /// Write at `offset`, extending the file if needed. Returns bytes
    /// written.
    fn write_at(&self, h: FsHandle, offset: u64, payload: WritePayload<'_>) -> FsResult<u64>;

    /// Flush dirty buffered data of this file to its device.
    fn fsync(&self, h: FsHandle) -> FsResult<()>;

    /// Stat by path.
    fn stat(&self, path: &str) -> FsResult<Metadata>;

    /// Stat by handle.
    fn fstat(&self, h: FsHandle) -> FsResult<Metadata>;

    /// Remove a file. Open handles keep working (POSIX semantics).
    fn unlink(&self, path: &str) -> FsResult<()>;

    /// Rename a file.
    fn rename(&self, from: &str, to: &str) -> FsResult<()>;

    /// List `(path, size)` of all files, sorted by path.
    fn list(&self) -> Vec<(String, u64)>;

    /// Devices backing this filesystem (for dstat).
    fn devices(&self) -> Vec<Arc<Device>>;

    /// Instantly materialize a synthetic file (dataset generation): no
    /// virtual time is charged; content derives from `seed`.
    fn create_synthetic(&self, path: &str, size: u64, seed: u64) -> FsResult<()>;

    /// Size and (for synthetic files) content seed of a path, charged no
    /// virtual time. Used by [`crate::stack::StorageStack::commit_promote`]
    /// to clone files across mounts without materializing bytes.
    fn content_info(&self, path: &str) -> FsResult<(u64, Option<u64>)>;

    /// Copy up to `buf.len()` content bytes at `offset` into `buf` without
    /// charging time or counters. For callers that already paid for the
    /// data (e.g. the STDIO read-ahead buffer re-serving resident bytes).
    /// Returns bytes copied (clipped at EOF).
    fn peek(&self, h: FsHandle, offset: u64, buf: &mut [u8]) -> FsResult<u64>;
}

// ---------------------------------------------------------------------------
// Shared namespace machinery
// ---------------------------------------------------------------------------

/// How a file's readable content is defined.
#[derive(Clone, Debug)]
pub enum FileContent {
    /// Content = `content::fill(seed, offset, ..)`.
    Synthetic {
        /// Seed of the generator.
        seed: u64,
    },
    /// Real bytes, retained while the file stays small.
    Literal(Vec<u8>),
    /// The file grew past the literal retention limit; only its size is
    /// tracked and reads return seed-less synthetic bytes.
    Opaque,
}

/// Retain literal bytes up to this size; beyond it, written files become
/// [`FileContent::Opaque`].
pub const MAX_LITERAL_BYTES: usize = 8 * 1024 * 1024;

/// An inode.
#[derive(Debug)]
pub struct FileNode {
    /// Inode number, unique within the filesystem.
    pub id: u64,
    /// Current size in bytes.
    pub size: u64,
    /// Content definition.
    pub content: FileContent,
    /// Base byte address of the file's extent on its device.
    pub extent_base: u64,
    /// Bytes reserved for the extent (growth beyond this relocates it).
    pub extent_reserved: u64,
    /// Index of the backing device (filesystem-specific meaning).
    pub device_index: usize,
}

impl FileNode {
    /// Fill `buf` with this file's content at `offset` (clipped by caller).
    pub fn fill(&self, offset: u64, buf: &mut [u8]) {
        match &self.content {
            FileContent::Synthetic { seed } => content::fill(*seed, offset, buf),
            FileContent::Literal(bytes) => {
                let off = offset as usize;
                let n = buf.len().min(bytes.len().saturating_sub(off));
                buf[..n].copy_from_slice(&bytes[off..off + n]);
                for b in &mut buf[n..] {
                    *b = 0;
                }
            }
            FileContent::Opaque => content::fill(self.id, offset, buf),
        }
    }

    /// Apply a write to the content model.
    pub fn apply_write(&mut self, offset: u64, payload: &WritePayload<'_>) {
        let len = payload.len();
        let end = offset + len;
        match (&mut self.content, payload) {
            (FileContent::Literal(bytes), WritePayload::Bytes(data))
                if end as usize <= MAX_LITERAL_BYTES =>
            {
                if bytes.len() < end as usize {
                    bytes.resize(end as usize, 0);
                }
                bytes[offset as usize..end as usize].copy_from_slice(data);
            }
            (content_ref, _) => {
                // Writing into a synthetic file, or growing past the
                // retention limit: content becomes opaque.
                *content_ref = FileContent::Opaque;
            }
        }
        self.size = self.size.max(end);
    }
}

/// Shared open-handle table + path namespace used by both filesystems.
pub struct Namespace {
    st: Mutex<NsState>,
}

struct NsState {
    files: HashMap<String, Arc<Mutex<FileNode>>>,
    handles: HashMap<u64, Arc<Mutex<FileNode>>>,
    next_handle: u64,
    next_inode: u64,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    /// Empty namespace.
    pub fn new() -> Self {
        Namespace {
            st: Mutex::new(NsState {
                files: HashMap::new(),
                handles: HashMap::new(),
                next_handle: 1,
                next_inode: 1,
            }),
        }
    }

    /// Allocate an inode number.
    pub fn alloc_inode(&self) -> u64 {
        let mut st = self.st.lock();
        let id = st.next_inode;
        st.next_inode += 1;
        id
    }

    /// Insert a node at `path` (replacing any existing).
    pub fn insert(&self, path: &str, node: FileNode) -> Arc<Mutex<FileNode>> {
        let node = Arc::new(Mutex::new(node));
        self.st.lock().files.insert(path.to_string(), node.clone());
        node
    }

    /// Atomically return the node at `path`, inserting `make()` if absent.
    /// Concurrent creators (e.g. a collective `MPI_File_open`) must all
    /// observe the same inode.
    pub fn get_or_insert(
        &self,
        path: &str,
        make: impl FnOnce() -> FileNode,
    ) -> (Arc<Mutex<FileNode>>, bool) {
        let mut st = self.st.lock();
        if let Some(n) = st.files.get(path) {
            return (n.clone(), false);
        }
        let node = Arc::new(Mutex::new(make()));
        st.files.insert(path.to_string(), node.clone());
        (node, true)
    }

    /// Look up a node by path.
    pub fn get(&self, path: &str) -> Option<Arc<Mutex<FileNode>>> {
        self.st.lock().files.get(path).cloned()
    }

    /// True if the path exists.
    pub fn contains(&self, path: &str) -> bool {
        self.st.lock().files.contains_key(path)
    }

    /// Remove a path (open handles keep their node alive).
    pub fn remove(&self, path: &str) -> Option<Arc<Mutex<FileNode>>> {
        self.st.lock().files.remove(path)
    }

    /// Rename a path.
    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let mut st = self.st.lock();
        let node = st.files.remove(from).ok_or(FsError::NotFound)?;
        st.files.insert(to.to_string(), node);
        Ok(())
    }

    /// Register an open handle for `node`.
    pub fn open_handle(&self, node: Arc<Mutex<FileNode>>) -> FsHandle {
        let mut st = self.st.lock();
        let h = st.next_handle;
        st.next_handle += 1;
        st.handles.insert(h, node);
        FsHandle(h)
    }

    /// Resolve a handle.
    pub fn handle(&self, h: FsHandle) -> FsResult<Arc<Mutex<FileNode>>> {
        self.st
            .lock()
            .handles
            .get(&h.0)
            .cloned()
            .ok_or(FsError::Invalid)
    }

    /// Drop a handle.
    pub fn close_handle(&self, h: FsHandle) -> FsResult<Arc<Mutex<FileNode>>> {
        self.st.lock().handles.remove(&h.0).ok_or(FsError::Invalid)
    }

    /// Sorted `(path, size)` listing.
    pub fn list(&self) -> Vec<(String, u64)> {
        let st = self.st.lock();
        let mut v: Vec<(String, u64)> = st
            .files
            .iter()
            .map(|(p, n)| (p.clone(), n.lock().size))
            .collect();
        v.sort();
        v
    }
}

// ---------------------------------------------------------------------------
// The one FileSystem implementation, generic over its cost model
// ---------------------------------------------------------------------------

/// Class of a metadata operation, as a [`Media`] charges it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaOp {
    /// Path lookup at the start of every `open`.
    Open,
    /// Inode allocation when `open` creates a missing file.
    Create,
    /// `stat`, `unlink` and `rename`.
    Stat,
}

/// What differs between storage systems under one [`Fs`]: how metadata
/// and data movement are charged, and which devices hold the files.
pub trait Media: Send + Sync + 'static {
    /// Implementation name ("local" / "lustre"), for reports.
    const KIND: &'static str;

    /// Backing devices. A new inode `id` lives on device `id % len`.
    fn devices(&self) -> &[Arc<Device>];

    /// Usable bytes of each device.
    fn capacity(&self) -> u64;

    /// Memory bandwidth for page-cache hits and user-space copies.
    fn mem_bandwidth(&self) -> f64;

    /// Charge one metadata operation.
    fn meta(&self, op: MetaOp);

    /// Charge opening the existing inode `id` of filesystem `instance`.
    fn open_existing(&self, _cache: &PageCache, _instance: u64, _id: u64) -> FsResult<()> {
        Ok(())
    }

    /// Charge a read at or past end of file.
    fn eof_probe(&self) {}

    /// Move `len` bytes at `addr` of device `dev` (cache miss or
    /// write-back).
    fn transfer(&self, dir: Dir, dev: usize, addr: u64, len: u64) -> FsResult<()>;
}

/// Source of process-unique filesystem instance ids.
static NEXT_FS_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// A filesystem: one namespace, a page cache shared with the other mounts
/// of the machine, and a [`Media`] cost model. Writes are buffered in the
/// page cache and flushed at `fsync`/`close`; every file is one extent,
/// bump-allocated on its device.
pub struct Fs<M> {
    instance: u64,
    ns: Namespace,
    cache: Arc<PageCache>,
    pub(crate) media: M,
    /// Next free byte of each device.
    alloc: Vec<Mutex<u64>>,
}

impl<M: Media> Fs<M> {
    pub(crate) fn with_media(media: M, cache: Arc<PageCache>) -> Arc<Self> {
        let alloc = media.devices().iter().map(|_| Mutex::new(0)).collect();
        Arc::new(Fs {
            instance: NEXT_FS_INSTANCE.fetch_add(1, Ordering::Relaxed),
            ns: Namespace::new(),
            cache,
            media,
            alloc,
        })
    }

    /// The shared page cache.
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    fn alloc_extent(&self, dev: usize, bytes: u64) -> FsResult<u64> {
        let mut next = self.alloc[dev].lock();
        if next.saturating_add(bytes) > self.media.capacity() {
            return Err(FsError::NoSpace);
        }
        let base = *next;
        *next += bytes;
        Ok(base)
    }

    fn charge_copy(&self, len: u64) {
        if len > 0 {
            sleep(dur::transfer(len, self.media.mem_bandwidth()));
        }
    }
}

fn metadata(n: &FileNode) -> Metadata {
    Metadata {
        size: n.size,
        file_id: n.id,
    }
}

impl<M: Media> FileSystem for Fs<M> {
    fn kind(&self) -> &'static str {
        M::KIND
    }

    fn instance_id(&self) -> u64 {
        self.instance
    }

    fn open(&self, path: &str, opts: &OpenOptions) -> FsResult<FsHandle> {
        self.media.meta(MetaOp::Open);
        let node = match self.ns.get(path) {
            Some(node) => {
                if opts.create_new {
                    return Err(FsError::Exists);
                }
                let id = node.lock().id;
                self.media.open_existing(&self.cache, self.instance, id)?;
                if opts.truncate {
                    let mut n = node.lock();
                    n.size = 0;
                    n.content = FileContent::Literal(Vec::new());
                    self.cache.invalidate((self.instance, n.id));
                }
                node
            }
            None => {
                if !opts.create && !opts.create_new {
                    return Err(FsError::NotFound);
                }
                self.media.meta(MetaOp::Create);
                // Re-check after the timed metadata ops: a concurrent
                // creator may have won the race meanwhile (all openers of
                // a collective create must share one inode, and an
                // exclusive create that lost the race fails).
                let id = self.ns.alloc_inode();
                let device_index = id as usize % self.alloc.len();
                let (node, created) = self.ns.get_or_insert(path, || FileNode {
                    id,
                    size: 0,
                    content: FileContent::Literal(Vec::new()),
                    extent_base: 0,
                    extent_reserved: 0,
                    device_index,
                });
                if opts.create_new && !created {
                    return Err(FsError::Exists);
                }
                node
            }
        };
        Ok(self.ns.open_handle(node))
    }

    fn close(&self, h: FsHandle) -> FsResult<()> {
        self.fsync(h)?;
        self.ns.close_handle(h)?;
        Ok(())
    }

    fn read_at(&self, h: FsHandle, offset: u64, len: u64, buf: Option<&mut [u8]>) -> FsResult<u64> {
        let len = buf.as_ref().map_or(len, |b| len.min(b.len() as u64));
        let node = self.ns.handle(h)?;
        let (id, size, base, dev) = {
            let n = node.lock();
            (n.id, n.size, n.extent_base, n.device_index)
        };
        let n = len.min(size.saturating_sub(offset));
        if n == 0 {
            self.media.eof_probe();
            return Ok(0);
        }
        let key = (self.instance, id);
        for run in self.cache.plan_read(key, offset, n) {
            if run.hit {
                self.charge_copy(run.len);
            } else {
                self.media
                    .transfer(Dir::Read, dev, base + run.offset, run.len)?;
                self.cache.insert(key, run.offset, run.len, false);
            }
        }
        if let Some(buf) = buf {
            node.lock().fill(offset, &mut buf[..n as usize]);
        }
        Ok(n)
    }

    fn write_at(&self, h: FsHandle, offset: u64, payload: WritePayload<'_>) -> FsResult<u64> {
        let node = self.ns.handle(h)?;
        let len = payload.len();
        if len == 0 {
            return Ok(0);
        }
        let key;
        {
            let mut n = node.lock();
            let end = offset + len;
            if end > n.extent_reserved {
                // Grow by relocating to a fresh power-of-two extent.
                let reserve = end.next_power_of_two().max(1 << 20);
                n.extent_base = self.alloc_extent(n.device_index, reserve)?;
                n.extent_reserved = reserve;
            }
            n.apply_write(offset, &payload);
            key = (self.instance, n.id);
        }
        // Buffered write: lands in the page cache as dirty, memory-speed.
        self.cache.insert(key, offset, len, true);
        self.charge_copy(len);
        Ok(len)
    }

    fn fsync(&self, h: FsHandle) -> FsResult<()> {
        let node = self.ns.handle(h)?;
        let (id, base, dev) = {
            let n = node.lock();
            (n.id, n.extent_base, n.device_index)
        };
        for (off, len) in self.cache.take_dirty((self.instance, id)) {
            self.media.transfer(Dir::Write, dev, base + off, len)?;
        }
        Ok(())
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        self.media.meta(MetaOp::Stat);
        let node = self.ns.get(path).ok_or(FsError::NotFound)?;
        let n = node.lock();
        Ok(metadata(&n))
    }

    fn fstat(&self, h: FsHandle) -> FsResult<Metadata> {
        Ok(metadata(&self.ns.handle(h)?.lock()))
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.media.meta(MetaOp::Stat);
        let node = self.ns.remove(path).ok_or(FsError::NotFound)?;
        self.cache.invalidate((self.instance, node.lock().id));
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.media.meta(MetaOp::Stat);
        self.ns.rename(from, to)
    }

    fn list(&self) -> Vec<(String, u64)> {
        self.ns.list()
    }

    fn devices(&self) -> Vec<Arc<Device>> {
        self.media.devices().to_vec()
    }

    fn create_synthetic(&self, path: &str, size: u64, seed: u64) -> FsResult<()> {
        if self.ns.contains(path) {
            return Err(FsError::Exists);
        }
        let id = self.ns.alloc_inode();
        let device_index = id as usize % self.alloc.len();
        let extent_base = self.alloc_extent(device_index, size.max(1))?;
        self.ns.insert(
            path,
            FileNode {
                id,
                size,
                content: FileContent::Synthetic { seed },
                extent_base,
                extent_reserved: size.max(1),
                device_index,
            },
        );
        Ok(())
    }

    fn content_info(&self, path: &str) -> FsResult<(u64, Option<u64>)> {
        let node = self.ns.get(path).ok_or(FsError::NotFound)?;
        let n = node.lock();
        let seed = match n.content {
            FileContent::Synthetic { seed } => Some(seed),
            _ => None,
        };
        Ok((n.size, seed))
    }

    fn peek(&self, h: FsHandle, offset: u64, buf: &mut [u8]) -> FsResult<u64> {
        let node = self.ns.handle(h)?;
        let n = node.lock();
        let cnt = (buf.len() as u64).min(n.size.saturating_sub(offset));
        n.fill(offset, &mut buf[..cnt as usize]);
        Ok(cnt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_write_and_fill_roundtrip() {
        let mut node = FileNode {
            id: 1,
            size: 0,
            content: FileContent::Literal(Vec::new()),
            extent_base: 0,
            extent_reserved: 0,
            device_index: 0,
        };
        node.apply_write(0, &WritePayload::Bytes(b"hello"));
        node.apply_write(5, &WritePayload::Bytes(b" world"));
        assert_eq!(node.size, 11);
        let mut buf = [0u8; 11];
        node.fill(0, &mut buf);
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn sparse_literal_write_zero_fills() {
        let mut node = FileNode {
            id: 1,
            size: 0,
            content: FileContent::Literal(Vec::new()),
            extent_base: 0,
            extent_reserved: 0,
            device_index: 0,
        };
        node.apply_write(4, &WritePayload::Bytes(b"x"));
        let mut buf = [9u8; 5];
        node.fill(0, &mut buf);
        assert_eq!(&buf, &[0, 0, 0, 0, b'x']);
    }

    #[test]
    fn synthetic_write_makes_opaque() {
        let mut node = FileNode {
            id: 7,
            size: 0,
            content: FileContent::Literal(Vec::new()),
            extent_base: 0,
            extent_reserved: 0,
            device_index: 0,
        };
        node.apply_write(0, &WritePayload::Synthetic(1 << 24));
        assert!(matches!(node.content, FileContent::Opaque));
        assert_eq!(node.size, 1 << 24);
    }

    #[test]
    fn namespace_handles_survive_unlink() {
        let ns = Namespace::new();
        let node = ns.insert(
            "/a",
            FileNode {
                id: ns.alloc_inode(),
                size: 3,
                content: FileContent::Literal(b"abc".to_vec()),
                extent_base: 0,
                extent_reserved: 0,
                device_index: 0,
            },
        );
        let h = ns.open_handle(node);
        ns.remove("/a");
        assert!(ns.get("/a").is_none());
        assert_eq!(ns.handle(h).unwrap().lock().size, 3);
        ns.close_handle(h).unwrap();
        assert_eq!(ns.handle(h).err(), Some(FsError::Invalid));
    }

    #[test]
    fn rename_moves_node() {
        let ns = Namespace::new();
        ns.insert(
            "/a",
            FileNode {
                id: 1,
                size: 1,
                content: FileContent::Opaque,
                extent_base: 0,
                extent_reserved: 0,
                device_index: 0,
            },
        );
        ns.rename("/a", "/b").unwrap();
        assert!(ns.get("/a").is_none());
        assert!(ns.get("/b").is_some());
        assert_eq!(ns.rename("/missing", "/c"), Err(FsError::NotFound));
    }
}
