//! The simulated process: file-descriptor table, STDIO streams, the GOT,
//! and a `dlopen`-style library registry.
//!
//! Application code (the TensorFlow simulator) calls the methods on
//! [`Process`]; every call dispatches through the process's [`Got`] — the
//! moral equivalent of a PLT call — so instrumentation attached at runtime
//! observes exactly the traffic the application generates.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use probe::{EventKind, IoEvent, PathId, ProbeBus};
use simrt::SimTime;
use storage_sim::{FileSystem, FsHandle, Metadata, OpenOptions, StorageStack, WritePayload};

use crate::errno::{Errno, PosixResult};
use crate::libc::{DefaultLibc, DefaultStdio, FileStream};
use crate::symtab::{Got, PosixSym, StdioSym};

/// A POSIX file descriptor.
pub type Fd = i32;

/// Identifier of an open STDIO stream (a `FILE *`).
pub type StreamId = u64;

/// Identifier of a memory mapping returned by `mmap`.
pub type MapId = u64;

/// A live memory mapping.
pub struct MapEntry {
    /// The mapped descriptor's entry (kept alive while mapped).
    pub fd_entry: Arc<FdEntry>,
    /// File offset of the mapping.
    pub offset: u64,
    /// Length of the mapping.
    pub len: u64,
}

/// Page size used for fault-granular mapped access.
pub const PAGE_SIZE: u64 = 4096;

/// Lowest descriptor handed out by the fd table (0-2 model std streams).
pub const FIRST_FD: Fd = 3;

/// `lseek`/`fseek` origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Whence {
    /// From the start of the file.
    Set,
    /// From the current position.
    Cur,
    /// From the end of the file.
    End,
}

/// `open(2)` flags (the subset the workloads use).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenFlags {
    /// `O_RDONLY`/`O_RDWR` read permission.
    pub read: bool,
    /// `O_WRONLY`/`O_RDWR` write permission.
    pub write: bool,
    /// `O_CREAT`.
    pub create: bool,
    /// `O_EXCL` (with `O_CREAT`).
    pub create_new: bool,
    /// `O_TRUNC`.
    pub truncate: bool,
    /// `O_APPEND`.
    pub append: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn rdonly() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC`.
    pub fn wronly_create_trunc() -> Self {
        OpenFlags {
            write: true,
            create: true,
            truncate: true,
            ..Default::default()
        }
    }

    pub(crate) fn to_fs(self) -> OpenOptions {
        OpenOptions {
            read: self.read,
            write: self.write,
            create: self.create,
            create_new: self.create_new,
            truncate: self.truncate,
        }
    }
}

/// An entry in the fd table.
pub struct FdEntry {
    /// Path the descriptor was opened with (shared for string consumers;
    /// probe events carry [`FdEntry::path_id`] instead).
    pub path: Arc<str>,
    /// Interned id of `path`, cached at open so the per-operation emission
    /// path never touches the interner or an `Arc` refcount.
    pub path_id: PathId,
    /// Filesystem serving it.
    pub fs: Arc<dyn FileSystem>,
    /// Filesystem handle.
    pub handle: FsHandle,
    /// Open flags.
    pub flags: OpenFlags,
    /// File position for `read`/`write`/`lseek`.
    pub pos: Mutex<u64>,
}

/// The simulated process.
pub struct Process {
    stack: StorageStack,
    /// Process id, unique per simulation host. Stamped into every probe
    /// event: fd numbers are only unique per process, so a sink registered
    /// on several processes' buses needs the pid to key per-descriptor
    /// state.
    pid: u32,
    got: Got,
    /// Fd table, indexed by `fd - FIRST_FD`. Descriptors are allocated
    /// sequentially and never reused (matching the monotone `next_fd` the
    /// HashMap version had), so resolution is a shared-lock slot load.
    fds: RwLock<Vec<Option<Arc<FdEntry>>>>,
    next_fd: AtomicI32,
    pub(crate) streams: Mutex<HashMap<StreamId, Arc<Mutex<FileStream>>>>,
    next_stream: AtomicU64,
    maps: Mutex<HashMap<MapId, Arc<MapEntry>>>,
    next_map: AtomicU64,
    libraries: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    /// The process's instrumentation backplane (event spine).
    probe: ProbeBus,
    /// Kernel-entry overhead charged by the default libc per syscall.
    pub syscall_overhead: Duration,
}

impl Process {
    /// Create a process over a storage stack, with the GOT bound to the
    /// default ("libc") implementations.
    pub fn new(stack: StorageStack) -> Arc<Self> {
        static NEXT_PID: AtomicU32 = AtomicU32::new(1);
        let libc = Arc::new(DefaultLibc);
        let stdio = Arc::new(DefaultStdio::new(libc.clone()));
        Arc::new(Process {
            stack,
            pid: NEXT_PID.fetch_add(1, Ordering::Relaxed),
            got: Got::new(libc, stdio),
            fds: RwLock::new(Vec::new()),
            next_fd: AtomicI32::new(FIRST_FD), // 0-2 reserved for std streams
            streams: Mutex::new(HashMap::new()),
            next_stream: AtomicU64::new(1),
            maps: Mutex::new(HashMap::new()),
            next_map: AtomicU64::new(1),
            libraries: Mutex::new(HashMap::new()),
            probe: ProbeBus::new(),
            syscall_overhead: Duration::from_nanos(300),
        })
    }

    /// The process id (unique per simulation host, never 0).
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The process's event spine. Instrumentation consumers register
    /// [`probe::ProbeSink`]s here; the default libc emits one [`IoEvent`]
    /// per completed operation when at least one sink is registered.
    pub fn probe(&self) -> &ProbeBus {
        &self.probe
    }

    /// Timestamp an instrumented operation's entry: `Some(now)` when the
    /// process's spine has sinks and we are on a simulated thread, else
    /// `None` (and the operation emits nothing). Libraries layered over
    /// this process (MPI-IO) emit their own calls' events with this and
    /// [`Process::probe_emit`].
    #[inline]
    pub fn probe_t0(&self) -> Option<SimTime> {
        if self.probe.is_active() {
            simrt::try_now()
        } else {
            None
        }
    }

    /// Emit one event for an operation that started at `t0`. Must only be
    /// called with a `t0` obtained from [`Process::probe_t0`]. The target
    /// is an interned id (cached in the [`FdEntry`] at open time), so
    /// building the event allocates nothing and touches no refcounts.
    #[inline]
    pub fn probe_emit(&self, t0: SimTime, target: PathId, kind: EventKind) {
        let t1 = match simrt::try_now() {
            Some(t) => t,
            None => return,
        };
        self.probe.emit(IoEvent {
            task: simrt::current_task(),
            pid: self.pid,
            t0,
            t1,
            origin: crate::libc::current_origin(),
            target,
            kind,
        });
    }

    /// The process's storage stack (mount table).
    pub fn stack(&self) -> &StorageStack {
        &self.stack
    }

    /// The process's symbol table.
    pub fn got(&self) -> &Got {
        &self.got
    }

    // -- fd table (used by the libc implementation) ------------------------

    /// Install an fd entry, returning the new descriptor.
    pub fn alloc_fd(&self, entry: FdEntry) -> Fd {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        let idx = (fd - FIRST_FD) as usize;
        let mut fds = self.fds.write();
        if fds.len() <= idx {
            fds.resize_with(idx + 1, || None);
        }
        fds[idx] = Some(Arc::new(entry));
        fd
    }

    /// Resolve an fd: a shared-lock indexed load, no hashing.
    #[inline]
    pub fn fd_entry(&self, fd: Fd) -> PosixResult<Arc<FdEntry>> {
        if fd < FIRST_FD {
            return Err(Errno::EBADF);
        }
        self.fds
            .read()
            .get((fd - FIRST_FD) as usize)
            .and_then(|slot| slot.clone())
            .ok_or(Errno::EBADF)
    }

    /// Remove an fd.
    pub fn remove_fd(&self, fd: Fd) -> PosixResult<Arc<FdEntry>> {
        if fd < FIRST_FD {
            return Err(Errno::EBADF);
        }
        self.fds
            .write()
            .get_mut((fd - FIRST_FD) as usize)
            .and_then(|slot| slot.take())
            .ok_or(Errno::EBADF)
    }

    /// Number of open descriptors.
    pub fn open_fds(&self) -> usize {
        self.fds.read().iter().filter(|s| s.is_some()).count()
    }

    pub(crate) fn alloc_stream(&self, stream: FileStream) -> StreamId {
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().insert(id, Arc::new(Mutex::new(stream)));
        id
    }

    pub(crate) fn stream(&self, id: StreamId) -> PosixResult<Arc<Mutex<FileStream>>> {
        self.streams.lock().get(&id).cloned().ok_or(Errno::EBADF)
    }

    pub(crate) fn remove_stream(&self, id: StreamId) -> PosixResult<Arc<Mutex<FileStream>>> {
        self.streams.lock().remove(&id).ok_or(Errno::EBADF)
    }

    /// Register a mapping (used by the libc implementation).
    pub fn alloc_map(&self, entry: MapEntry) -> MapId {
        let id = self.next_map.fetch_add(1, Ordering::Relaxed);
        self.maps.lock().insert(id, Arc::new(entry));
        id
    }

    /// Resolve a mapping.
    pub fn map_entry(&self, id: MapId) -> PosixResult<Arc<MapEntry>> {
        self.maps.lock().get(&id).cloned().ok_or(Errno::EBADF)
    }

    /// Remove a mapping.
    pub fn remove_map(&self, id: MapId) -> PosixResult<Arc<MapEntry>> {
        self.maps.lock().remove(&id).ok_or(Errno::EBADF)
    }

    /// Number of live mappings.
    pub fn open_maps(&self) -> usize {
        self.maps.lock().len()
    }

    // -- dynamic loader -----------------------------------------------------

    /// Make a "shared library" available to `dlopen` (ld search path).
    pub fn register_library(&self, name: impl Into<String>, lib: Arc<dyn Any + Send + Sync>) {
        self.libraries.lock().insert(name.into(), lib);
    }

    /// Load a registered library. The caller downcasts the returned object
    /// to the library's API struct — the analogue of `dlsym`-ing its
    /// exported functions.
    pub fn dlopen(&self, name: &str) -> PosixResult<Arc<dyn Any + Send + Sync>> {
        self.libraries
            .lock()
            .get(name)
            .cloned()
            .ok_or(Errno::ENOENT)
    }

    // -- application-facing POSIX API (dispatches through the GOT) ---------

    /// `open(2)`.
    pub fn open(self: &Arc<Self>, path: &str, flags: OpenFlags) -> PosixResult<Fd> {
        self.got.posix(PosixSym::Open).open(self, path, flags)
    }

    /// `close(2)`.
    pub fn close(self: &Arc<Self>, fd: Fd) -> PosixResult<()> {
        self.got.posix(PosixSym::Close).close(self, fd)
    }

    /// `read(2)` at the current file position.
    #[inline]
    pub fn read(self: &Arc<Self>, fd: Fd, len: u64, buf: Option<&mut [u8]>) -> PosixResult<u64> {
        self.got.posix_ref(PosixSym::Read).read(self, fd, len, buf)
    }

    /// `pread(2)`.
    #[inline]
    pub fn pread(
        self: &Arc<Self>,
        fd: Fd,
        offset: u64,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> PosixResult<u64> {
        self.got
            .posix_ref(PosixSym::Pread)
            .pread(self, fd, offset, len, buf)
    }

    /// `write(2)` at the current file position.
    #[inline]
    pub fn write(self: &Arc<Self>, fd: Fd, data: WritePayload<'_>) -> PosixResult<u64> {
        self.got.posix_ref(PosixSym::Write).write(self, fd, data)
    }

    /// `pwrite(2)`.
    #[inline]
    pub fn pwrite(
        self: &Arc<Self>,
        fd: Fd,
        offset: u64,
        data: WritePayload<'_>,
    ) -> PosixResult<u64> {
        self.got
            .posix_ref(PosixSym::Pwrite)
            .pwrite(self, fd, offset, data)
    }

    /// `lseek(2)`; returns the resulting offset.
    #[inline]
    pub fn lseek(self: &Arc<Self>, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        self.got
            .posix_ref(PosixSym::Lseek)
            .lseek(self, fd, offset, whence)
    }

    /// `stat(2)`.
    pub fn stat(self: &Arc<Self>, path: &str) -> PosixResult<Metadata> {
        self.got.posix(PosixSym::Stat).stat(self, path)
    }

    /// `fstat(2)`.
    pub fn fstat(self: &Arc<Self>, fd: Fd) -> PosixResult<Metadata> {
        self.got.posix_ref(PosixSym::Fstat).fstat(self, fd)
    }

    /// `fsync(2)`.
    pub fn fsync(self: &Arc<Self>, fd: Fd) -> PosixResult<()> {
        self.got.posix_ref(PosixSym::Fsync).fsync(self, fd)
    }

    /// `unlink(2)`.
    pub fn unlink(self: &Arc<Self>, path: &str) -> PosixResult<()> {
        self.got.posix(PosixSym::Unlink).unlink(self, path)
    }

    /// `rename(2)`.
    pub fn rename(self: &Arc<Self>, from: &str, to: &str) -> PosixResult<()> {
        self.got.posix(PosixSym::Rename).rename(self, from, to)
    }

    /// `mmap(2)` (GOT-dispatched: instrumentation sees the call).
    pub fn mmap(self: &Arc<Self>, fd: Fd, offset: u64, len: u64) -> PosixResult<MapId> {
        self.got.posix(PosixSym::Mmap).mmap(self, fd, offset, len)
    }

    /// `munmap(2)` (GOT-dispatched).
    pub fn munmap(self: &Arc<Self>, map: MapId) -> PosixResult<()> {
        self.got.posix(PosixSym::Munmap).munmap(self, map)
    }

    /// `msync(2)` (GOT-dispatched).
    pub fn msync(self: &Arc<Self>, map: MapId) -> PosixResult<()> {
        self.got.posix(PosixSym::Msync).msync(self, map)
    }

    /// Read mapped memory: a **page fault**, not a syscall — it does NOT
    /// dispatch through the GOT, so symbol-level instrumentation (Darshan)
    /// is blind to it (paper §VII, the Caffe/LMDB exception). Faults are
    /// page-granular; resident pages are memory-speed via the page cache.
    pub fn mem_read(&self, map: MapId, offset: u64, len: u64) -> PosixResult<u64> {
        let t0 = self.probe_t0();
        let m = self.map_entry(map)?;
        if offset >= m.len {
            return Ok(0);
        }
        let len = len.min(m.len - offset);
        let start = (m.offset + offset) / PAGE_SIZE * PAGE_SIZE;
        let end = (m.offset + offset + len).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let e = &m.fd_entry;
        e.fs.read_at(e.handle, start, end - start, None)
            .map_err(Errno::from)?;
        // The spine still sees the fault (it is on the *memory* path, not
        // the symbol table), so spine consumers can quantify the blind spot
        // while Darshan-style symbol consumers remain blind to it.
        if let Some(t0) = t0 {
            self.probe_emit(
                t0,
                e.path_id,
                EventKind::MmapFault {
                    map,
                    offset: start,
                    len: end - start,
                    write: false,
                },
            );
        }
        Ok(len)
    }

    /// Write mapped memory: dirties pages in the cache (flushed by
    /// `msync`/`munmap`), again invisible to the GOT.
    pub fn mem_write(&self, map: MapId, offset: u64, len: u64) -> PosixResult<u64> {
        let t0 = self.probe_t0();
        let m = self.map_entry(map)?;
        if offset >= m.len {
            return Err(Errno::EINVAL);
        }
        let len = len.min(m.len - offset);
        let e = &m.fd_entry;
        e.fs.write_at(
            e.handle,
            m.offset + offset,
            storage_sim::WritePayload::Synthetic(len),
        )
        .map_err(Errno::from)?;
        if let Some(t0) = t0 {
            self.probe_emit(
                t0,
                e.path_id,
                EventKind::MmapFault {
                    map,
                    offset: m.offset + offset,
                    len,
                    write: true,
                },
            );
        }
        Ok(len)
    }

    // -- application-facing STDIO API ---------------------------------------

    /// `fopen(3)`. Modes: `"r"`, `"w"`, `"a"`.
    pub fn fopen(self: &Arc<Self>, path: &str, mode: &str) -> PosixResult<StreamId> {
        self.got.stdio(StdioSym::Fopen).fopen(self, path, mode)
    }

    /// `fclose(3)`.
    pub fn fclose(self: &Arc<Self>, s: StreamId) -> PosixResult<()> {
        self.got.stdio(StdioSym::Fclose).fclose(self, s)
    }

    /// `fread(3)`.
    #[inline]
    pub fn fread(
        self: &Arc<Self>,
        s: StreamId,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> PosixResult<u64> {
        self.got.stdio_ref(StdioSym::Fread).fread(self, s, len, buf)
    }

    /// `fwrite(3)`.
    #[inline]
    pub fn fwrite(self: &Arc<Self>, s: StreamId, data: WritePayload<'_>) -> PosixResult<u64> {
        self.got.stdio_ref(StdioSym::Fwrite).fwrite(self, s, data)
    }

    /// `fflush(3)`.
    pub fn fflush(self: &Arc<Self>, s: StreamId) -> PosixResult<()> {
        self.got.stdio_ref(StdioSym::Fflush).fflush(self, s)
    }

    /// `fseek(3)`; returns the resulting offset.
    pub fn fseek(self: &Arc<Self>, s: StreamId, offset: i64, whence: Whence) -> PosixResult<u64> {
        self.got
            .stdio_ref(StdioSym::Fseek)
            .fseek(self, s, offset, whence)
    }
}
