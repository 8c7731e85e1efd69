//! Default ("libc") implementations of the POSIX and STDIO symbol tables.
//!
//! These are what the GOT points at before any instrumentation attaches —
//! the `libc.so` boxes of the paper's Fig. 2. The STDIO implementation
//! performs its underlying descriptor I/O *directly* against the default
//! POSIX implementation, not through the GOT, mirroring glibc internals:
//! interposing `read` does not see `fread` traffic.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use probe::{EventKind, Origin, PathId};
use simrt::sleep;
use storage_sim::{FsError, Metadata, WritePayload};

use crate::errno::{Errno, PosixResult};
use crate::process::{Fd, FdEntry, MapEntry, MapId, OpenFlags, Process, StreamId, Whence};
use crate::symtab::{LibcIo, LibcStdio};

thread_local! {
    /// Depth of stdio-internal descriptor I/O on this carrier thread.
    /// Non-zero while `DefaultStdio` performs its own buffer refills,
    /// spills and stream open/close against the POSIX layer.
    static STDIO_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Depth of staging-daemon I/O on this carrier thread (see
    /// [`PrefetchOrigin`]).
    static PREFETCH_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Origin tag for events emitted on the current thread right now.
/// Prefetch outranks stdio-internal: a daemon that copies through `fread`
/// is still daemon traffic.
pub(crate) fn current_origin() -> Origin {
    if PREFETCH_DEPTH.with(|d| d.get()) > 0 {
        Origin::Prefetch
    } else if STDIO_DEPTH.with(|d| d.get()) > 0 {
        Origin::StdioInternal
    } else {
        Origin::App
    }
}

/// RAII marker: descriptor I/O performed while this guard lives is
/// stdio-internal, so its probe events carry [`Origin::StdioInternal`].
struct StdioInternal;

impl StdioInternal {
    fn enter() -> Self {
        STDIO_DEPTH.with(|d| d.set(d.get() + 1));
        StdioInternal
    }
}

impl Drop for StdioInternal {
    fn drop(&mut self) {
        STDIO_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// RAII marker: POSIX/STDIO I/O performed on this simulated thread while
/// the guard lives was issued by a background staging/prefetch daemon, so
/// its probe events carry [`Origin::Prefetch`]. Application-attributed
/// consumers (the Darshan modules) skip such events; system-wide consumers
/// (dstat) still see them. This is the same mechanism that keeps
/// stdio-internal buffer refills out of interposed `read`.
pub struct PrefetchOrigin;

impl PrefetchOrigin {
    /// Tag all I/O on the current simulated thread until the guard drops.
    pub fn enter() -> Self {
        PREFETCH_DEPTH.with(|d| d.set(d.get() + 1));
        PrefetchOrigin
    }
}

impl Drop for PrefetchOrigin {
    fn drop(&mut self) {
        PREFETCH_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// The default POSIX implementation.
pub struct DefaultLibc;

impl DefaultLibc {
    fn syscall(&self, p: &Process) {
        if !p.syscall_overhead.is_zero() {
            sleep(p.syscall_overhead);
        }
    }
}

impl LibcIo for DefaultLibc {
    fn open(&self, p: &Process, path: &str, flags: OpenFlags) -> PosixResult<Fd> {
        let t0 = p.probe_t0();
        self.syscall(p);
        // Staged files open transparently at their fast-tier copy; the
        // descriptor (and every probe event) keeps the application path.
        let staged = p.stack().rewrite_for_open(path, flags.write);
        let target = staged.as_deref().unwrap_or(path);
        let fs = p.stack().resolve(target).map_err(Errno::from)?;
        let h = fs.open(target, &flags.to_fs()).map_err(Errno::from)?;
        let pos = if flags.append {
            fs.fstat(h).map_err(Errno::from)?.size
        } else {
            0
        };
        let path: Arc<str> = Arc::from(path);
        // Intern once at open; every subsequent operation on this fd emits
        // the copyable id instead of cloning the Arc.
        let path_id = probe::intern_arc(&path);
        let fd = p.alloc_fd(FdEntry {
            path,
            path_id,
            fs,
            handle: h,
            flags,
            pos: parking_lot::Mutex::new(pos),
        });
        if let Some(t0) = t0 {
            p.probe_emit(t0, path_id, EventKind::Open { fd });
        }
        Ok(fd)
    }

    fn close(&self, p: &Process, fd: Fd) -> PosixResult<()> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let e = p.remove_fd(fd)?;
        e.fs.close(e.handle).map_err(Errno::from)?;
        if let Some(t0) = t0 {
            p.probe_emit(t0, e.path_id, EventKind::Close { fd });
        }
        Ok(())
    }

    fn read(&self, p: &Process, fd: Fd, len: u64, buf: Option<&mut [u8]>) -> PosixResult<u64> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let e = p.fd_entry(fd)?;
        if !e.flags.read {
            return Err(Errno::EACCES);
        }
        let mut pos = e.pos.lock();
        let offset = *pos;
        let n =
            e.fs.read_at(e.handle, *pos, len, buf)
                .map_err(Errno::from)?;
        *pos += n;
        drop(pos);
        if let Some(t0) = t0 {
            p.probe_emit(t0, e.path_id, EventKind::Read { fd, offset, len: n });
        }
        Ok(n)
    }

    fn pread(
        &self,
        p: &Process,
        fd: Fd,
        offset: u64,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> PosixResult<u64> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let e = p.fd_entry(fd)?;
        if !e.flags.read {
            return Err(Errno::EACCES);
        }
        let n =
            e.fs.read_at(e.handle, offset, len, buf)
                .map_err(Errno::from)?;
        if let Some(t0) = t0 {
            p.probe_emit(t0, e.path_id, EventKind::Read { fd, offset, len: n });
        }
        Ok(n)
    }

    fn write(&self, p: &Process, fd: Fd, data: WritePayload<'_>) -> PosixResult<u64> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let e = p.fd_entry(fd)?;
        if !e.flags.write {
            return Err(Errno::EACCES);
        }
        let mut pos = e.pos.lock();
        if e.flags.append {
            *pos = e.fs.fstat(e.handle).map_err(Errno::from)?.size;
        }
        let offset = *pos;
        let n = e.fs.write_at(e.handle, *pos, data).map_err(Errno::from)?;
        *pos += n;
        drop(pos);
        if let Some(t0) = t0 {
            p.probe_emit(t0, e.path_id, EventKind::Write { fd, offset, len: n });
        }
        Ok(n)
    }

    fn pwrite(&self, p: &Process, fd: Fd, offset: u64, data: WritePayload<'_>) -> PosixResult<u64> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let e = p.fd_entry(fd)?;
        if !e.flags.write {
            return Err(Errno::EACCES);
        }
        let n = e.fs.write_at(e.handle, offset, data).map_err(Errno::from)?;
        if let Some(t0) = t0 {
            p.probe_emit(t0, e.path_id, EventKind::Write { fd, offset, len: n });
        }
        Ok(n)
    }

    fn lseek(&self, p: &Process, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let e = p.fd_entry(fd)?;
        let size = e.fs.fstat(e.handle).map_err(Errno::from)?.size;
        let mut pos = e.pos.lock();
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => *pos as i64,
            Whence::End => size as i64,
        };
        let target = base.checked_add(offset).ok_or(Errno::EINVAL)?;
        if target < 0 {
            return Err(Errno::EINVAL);
        }
        *pos = target as u64;
        let to = *pos;
        drop(pos);
        if let Some(t0) = t0 {
            p.probe_emit(t0, e.path_id, EventKind::Seek { fd, to });
        }
        Ok(to)
    }

    fn stat(&self, p: &Process, path: &str) -> PosixResult<Metadata> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let staged = p.stack().rewrite(path);
        let target = staged.as_deref().unwrap_or(path);
        let fs = p.stack().resolve(target).map_err(Errno::from)?;
        let md = fs.stat(target).map_err(Errno::from)?;
        if let Some(t0) = t0 {
            p.probe_emit(t0, probe::intern(path), EventKind::Stat);
        }
        Ok(md)
    }

    fn fstat(&self, p: &Process, fd: Fd) -> PosixResult<Metadata> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let e = p.fd_entry(fd)?;
        let md = e.fs.fstat(e.handle).map_err(Errno::from)?;
        if let Some(t0) = t0 {
            p.probe_emit(t0, e.path_id, EventKind::Fstat { fd });
        }
        Ok(md)
    }

    fn fsync(&self, p: &Process, fd: Fd) -> PosixResult<()> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let e = p.fd_entry(fd)?;
        e.fs.fsync(e.handle).map_err(Errno::from)?;
        if let Some(t0) = t0 {
            p.probe_emit(t0, e.path_id, EventKind::Fsync { fd });
        }
        Ok(())
    }

    fn unlink(&self, p: &Process, path: &str) -> PosixResult<()> {
        self.syscall(p);
        // Route through the stack wrapper: unlinking a staged path drops
        // the redirect and removes the fast-tier copy too.
        p.stack().unlink(path).map_err(Errno::from)
    }

    fn rename(&self, p: &Process, from: &str, to: &str) -> PosixResult<()> {
        self.syscall(p);
        let src = p.stack().resolve(from).map_err(Errno::from)?;
        let dst = p.stack().resolve(to).map_err(Errno::from)?;
        if src.instance_id() != dst.instance_id() {
            // rename(2) cannot cross mounts (EXDEV in reality).
            return Err(Errno::EINVAL);
        }
        src.rename(from, to).map_err(|e: FsError| Errno::from(e))
    }

    fn mmap(&self, p: &Process, fd: Fd, offset: u64, len: u64) -> PosixResult<MapId> {
        let t0 = p.probe_t0();
        self.syscall(p);
        if len == 0 {
            return Err(Errno::EINVAL);
        }
        let e = p.fd_entry(fd)?;
        let path_id = e.path_id;
        let map = p.alloc_map(MapEntry {
            fd_entry: e,
            offset,
            len,
        });
        if let Some(t0) = t0 {
            p.probe_emit(
                t0,
                path_id,
                EventKind::Mmap {
                    map,
                    fd,
                    offset,
                    len,
                },
            );
        }
        Ok(map)
    }

    fn munmap(&self, p: &Process, map: MapId) -> PosixResult<()> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let m = p.remove_map(map)?;
        // Dirty mapped pages flush on unmap (as the kernel eventually would).
        m.fd_entry
            .fs
            .fsync(m.fd_entry.handle)
            .map_err(Errno::from)?;
        if let Some(t0) = t0 {
            p.probe_emit(t0, m.fd_entry.path_id, EventKind::Munmap { map });
        }
        Ok(())
    }

    fn msync(&self, p: &Process, map: MapId) -> PosixResult<()> {
        let t0 = p.probe_t0();
        self.syscall(p);
        let m = p.map_entry(map)?;
        m.fd_entry
            .fs
            .fsync(m.fd_entry.handle)
            .map_err(Errno::from)?;
        if let Some(t0) = t0 {
            p.probe_emit(t0, m.fd_entry.path_id, EventKind::Msync { map });
        }
        Ok(())
    }
}

/// STDIO stream buffering mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamMode {
    Read,
    Write,
}

/// Default STDIO userspace buffer size (glibc `BUFSIZ`).
pub const BUFSIZ: u64 = 8192;

/// An open `FILE *`.
pub struct FileStream {
    fd: Fd,
    mode: StreamMode,
    /// Stream position (logical, includes buffered data).
    pos: u64,
    /// Bytes buffered but not yet written.
    wbuf_len: u64,
    /// Literal bytes buffered (empty if any synthetic payload was queued).
    wbuf: Vec<u8>,
    /// True once any buffered payload was synthetic.
    wbuf_synthetic: bool,
    /// Read-ahead buffer: file range [rbuf_off, rbuf_off + rbuf_len).
    rbuf_off: u64,
    rbuf_len: u64,
}

impl FileStream {
    fn new(fd: Fd, mode: StreamMode) -> Self {
        FileStream {
            fd,
            mode,
            pos: 0,
            wbuf_len: 0,
            wbuf: Vec::new(),
            wbuf_synthetic: false,
            rbuf_off: 0,
            rbuf_len: 0,
        }
    }
}

/// The default STDIO implementation, layered on [`DefaultLibc`].
pub struct DefaultStdio {
    io: Arc<DefaultLibc>,
    /// Library-call overhead (no kernel entry unless the buffer spills).
    call_overhead: Duration,
}

impl DefaultStdio {
    /// Create over the default POSIX implementation.
    pub fn new(io: Arc<DefaultLibc>) -> Self {
        DefaultStdio {
            io,
            call_overhead: Duration::from_nanos(60),
        }
    }

    fn flush_locked(&self, p: &Process, st: &mut FileStream) -> PosixResult<()> {
        if st.wbuf_len == 0 {
            return Ok(());
        }
        let base = st.pos - st.wbuf_len;
        let payload = if st.wbuf_synthetic {
            WritePayload::Synthetic(st.wbuf_len)
        } else {
            WritePayload::Bytes(&st.wbuf)
        };
        {
            let _internal = StdioInternal::enter();
            self.io.pwrite(p, st.fd, base, payload)?;
        }
        st.wbuf_len = 0;
        st.wbuf.clear();
        st.wbuf_synthetic = false;
        Ok(())
    }

    /// Interned path of the descriptor backing a stream (for probe events).
    fn stream_path(&self, p: &Process, fd: Fd) -> PathId {
        p.fd_entry(fd).map(|e| e.path_id).unwrap_or(PathId::EMPTY)
    }
}

impl LibcStdio for DefaultStdio {
    fn fopen(&self, p: &Process, path: &str, mode: &str) -> PosixResult<StreamId> {
        let t0 = p.probe_t0();
        sleep(self.call_overhead);
        let (flags, smode) = match mode {
            "r" | "rb" => (OpenFlags::rdonly(), StreamMode::Read),
            "w" | "wb" => (OpenFlags::wronly_create_trunc(), StreamMode::Write),
            "a" | "ab" => (
                OpenFlags {
                    write: true,
                    create: true,
                    append: true,
                    ..Default::default()
                },
                StreamMode::Write,
            ),
            _ => return Err(Errno::EINVAL),
        };
        let (fd, append_pos) = {
            let _internal = StdioInternal::enter();
            let fd = self.io.open(p, path, flags)?;
            let pos = if flags.append {
                self.io.fstat(p, fd)?.size
            } else {
                0
            };
            (fd, pos)
        };
        let mut stream = FileStream::new(fd, smode);
        stream.pos = append_pos;
        let s = p.alloc_stream(stream);
        if let Some(t0) = t0 {
            p.probe_emit(t0, probe::intern(path), EventKind::StdioOpen { stream: s });
        }
        Ok(s)
    }

    fn fclose(&self, p: &Process, s: StreamId) -> PosixResult<()> {
        let t0 = p.probe_t0();
        sleep(self.call_overhead);
        let stream = p.remove_stream(s)?;
        let mut st = stream.lock();
        let path = t0.map(|_| self.stream_path(p, st.fd));
        {
            let _internal = StdioInternal::enter();
            if st.mode == StreamMode::Write {
                self.flush_locked(p, &mut st)?;
            }
            self.io.close(p, st.fd)?;
        }
        if let (Some(t0), Some(path)) = (t0, path) {
            p.probe_emit(t0, path, EventKind::StdioClose { stream: s });
        }
        Ok(())
    }

    fn fread(
        &self,
        p: &Process,
        s: StreamId,
        len: u64,
        mut buf: Option<&mut [u8]>,
    ) -> PosixResult<u64> {
        let t0 = p.probe_t0();
        sleep(self.call_overhead);
        let stream = p.stream(s)?;
        let mut st = stream.lock();
        if st.mode != StreamMode::Read {
            return Err(Errno::EACCES);
        }
        // A short caller buffer bounds the request, as `read(2)` does.
        let len = buf.as_deref().map_or(len, |b| len.min(b.len() as u64));
        let pos0 = st.pos;
        let mut served = 0u64;
        while served < len {
            let want = len - served;
            // Serve from the read-ahead window when possible.
            let in_buf_from = st.pos.max(st.rbuf_off);
            let in_buf_to = st.rbuf_off + st.rbuf_len;
            if st.pos >= st.rbuf_off && st.pos < in_buf_to {
                let n = (in_buf_to - in_buf_from).min(want);
                if let Some(b) = buf.as_deref_mut() {
                    // Bytes are resident in the read-ahead window (the
                    // device was charged when the window filled); copy
                    // them out without re-charging.
                    let e = p.fd_entry(st.fd)?;
                    let off = st.pos;
                    let start = served as usize;
                    e.fs.peek(e.handle, off, &mut b[start..start + n as usize])
                        .map_err(crate::errno::Errno::from)?;
                }
                st.pos += n;
                served += n;
                continue;
            }
            if want >= BUFSIZ {
                // Large request: bypass the buffer (as glibc does).
                let dst = buf
                    .as_deref_mut()
                    .map(|b| &mut b[served as usize..(served + want) as usize]);
                let n = {
                    let _internal = StdioInternal::enter();
                    self.io.pread(p, st.fd, st.pos, want, dst)?
                };
                st.pos += n;
                served += n;
                if n < want {
                    break; // EOF
                }
            } else {
                // Refill the read-ahead window.
                let n = {
                    let _internal = StdioInternal::enter();
                    self.io.pread(p, st.fd, st.pos, BUFSIZ, None)?
                };
                st.rbuf_off = st.pos;
                st.rbuf_len = n;
                if n == 0 {
                    break; // EOF
                }
            }
        }
        if let Some(t0) = t0 {
            let path = self.stream_path(p, st.fd);
            p.probe_emit(
                t0,
                path,
                EventKind::StdioRead {
                    stream: s,
                    pos: pos0,
                    len: served,
                },
            );
        }
        Ok(served)
    }

    fn fwrite(&self, p: &Process, s: StreamId, data: WritePayload<'_>) -> PosixResult<u64> {
        let t0 = p.probe_t0();
        sleep(self.call_overhead);
        let stream = p.stream(s)?;
        let mut st = stream.lock();
        if st.mode != StreamMode::Write {
            return Err(Errno::EACCES);
        }
        let pos0 = st.pos;
        let len = data.len();
        let n = if len >= BUFSIZ {
            // Large write: flush pending then write through.
            self.flush_locked(p, &mut st)?;
            let n = {
                let _internal = StdioInternal::enter();
                self.io.pwrite(p, st.fd, st.pos, data)?
            };
            st.pos += n;
            n
        } else {
            if st.wbuf_len + len > BUFSIZ {
                self.flush_locked(p, &mut st)?;
            }
            match data {
                WritePayload::Bytes(b) if !st.wbuf_synthetic => st.wbuf.extend_from_slice(b),
                _ => {
                    st.wbuf_synthetic = true;
                    st.wbuf.clear();
                }
            }
            st.wbuf_len += len;
            st.pos += len;
            len
        };
        if let Some(t0) = t0 {
            let path = self.stream_path(p, st.fd);
            p.probe_emit(
                t0,
                path,
                EventKind::StdioWrite {
                    stream: s,
                    pos: pos0,
                    len: n,
                },
            );
        }
        Ok(n)
    }

    fn fflush(&self, p: &Process, s: StreamId) -> PosixResult<()> {
        let t0 = p.probe_t0();
        sleep(self.call_overhead);
        let stream = p.stream(s)?;
        let mut st = stream.lock();
        if st.mode == StreamMode::Write {
            self.flush_locked(p, &mut st)?;
        }
        if let Some(t0) = t0 {
            let path = self.stream_path(p, st.fd);
            p.probe_emit(t0, path, EventKind::StdioFlush { stream: s });
        }
        Ok(())
    }

    fn fseek(&self, p: &Process, s: StreamId, offset: i64, whence: Whence) -> PosixResult<u64> {
        let t0 = p.probe_t0();
        sleep(self.call_overhead);
        let stream = p.stream(s)?;
        let mut st = stream.lock();
        if st.mode == StreamMode::Write {
            self.flush_locked(p, &mut st)?;
        }
        let size = {
            let _internal = StdioInternal::enter();
            self.io.fstat(p, st.fd)?.size
        };
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => st.pos as i64,
            Whence::End => size as i64,
        };
        let target = base.checked_add(offset).ok_or(Errno::EINVAL)?;
        if target < 0 {
            return Err(Errno::EINVAL);
        }
        st.pos = target as u64;
        st.rbuf_len = 0; // discard read-ahead
        if let Some(t0) = t0 {
            let path = self.stream_path(p, st.fd);
            p.probe_emit(
                t0,
                path,
                EventKind::StdioSeek {
                    stream: s,
                    to: st.pos,
                },
            );
        }
        Ok(st.pos)
    }
}
