//! # posix-sim — the POSIX/STDIO layer with a patchable symbol table
//!
//! The "operating system interface" of the tf-Darshan reproduction. A
//! [`Process`] owns a file-descriptor table, buffered STDIO streams, a
//! `dlopen` registry, and — crucially — a [`symtab::Got`]: every I/O call
//! the application makes resolves through it, so instrumentation (the
//! Darshan simulation) can attach **at runtime** by patching symbol
//! entries, exactly as tf-Darshan patches the real GOT (paper §III.B).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod errno;
pub mod libc;
pub mod process;
pub mod symtab;

pub use errno::{Errno, PosixResult};
pub use libc::{DefaultLibc, DefaultStdio, PrefetchOrigin, BUFSIZ};
pub use process::{Fd, FdEntry, MapEntry, MapId, OpenFlags, Process, StreamId, Whence, PAGE_SIZE};
pub use symtab::{Got, GotError, LibcIo, LibcStdio, POSIX_SYMBOLS, STDIO_SYMBOLS};

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simrt::Sim;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, Metadata, PageCache, StorageStack,
        WritePayload,
    };

    fn proc_fixture() -> (Sim, Arc<Process>, Arc<LocalFs>) {
        let sim = Sim::new();
        let cache = Arc::new(PageCache::new(1 << 30));
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd("ssd0")),
            cache,
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/data", fs.clone() as Arc<dyn storage_sim::FileSystem>);
        let p = Process::new(stack);
        (sim, p, fs)
    }

    #[test]
    fn open_read_close_via_posix() {
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 1000, 3).unwrap();
        sim.spawn("t", move || {
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            let mut buf = vec![0u8; 400];
            assert_eq!(p.read(fd, 400, Some(&mut buf)).unwrap(), 400);
            assert_eq!(p.read(fd, 700, None).unwrap(), 600, "clipped at EOF");
            assert_eq!(p.read(fd, 100, None).unwrap(), 0, "EOF");
            let mut check = vec![0u8; 400];
            storage_sim::content::fill(3, 0, &mut check);
            assert_eq!(buf, check);
            p.close(fd).unwrap();
            assert_eq!(p.read(fd, 1, None).unwrap_err(), Errno::EBADF);
        });
        sim.run();
    }

    #[test]
    fn short_read_buffer_bounds_the_read() {
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 1000, 3).unwrap();
        sim.spawn("t", move || {
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            let mut buf = [0u8; 10];
            assert_eq!(p.read(fd, 400, Some(&mut buf)).unwrap(), 10);
            assert_eq!(p.lseek(fd, 0, Whence::Cur).unwrap(), 10);
            let mut want = [0u8; 10];
            storage_sim::content::fill(3, 0, &mut want);
            assert_eq!(buf, want);
            assert_eq!(p.pread(fd, 500, 400, Some(&mut buf)).unwrap(), 10);
            storage_sim::content::fill(3, 500, &mut want);
            assert_eq!(buf, want);
            p.close(fd).unwrap();
        });
        sim.run();
    }

    #[test]
    fn short_fread_buffer_bounds_the_fread() {
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 1 << 20, 3).unwrap();
        sim.spawn("t", move || {
            let s = p.fopen("/data/f", "r").unwrap();
            let mut buf = [0u8; 10];
            let mut want = [0u8; 10];
            // A request of BUFSIZ or more would bypass the read-ahead window.
            assert_eq!(p.fread(s, 4 * BUFSIZ, Some(&mut buf)).unwrap(), 10);
            storage_sim::content::fill(3, 0, &mut want);
            assert_eq!(buf, want);
            // A smaller one is served from the window.
            assert_eq!(p.fread(s, 400, Some(&mut buf)).unwrap(), 10);
            storage_sim::content::fill(3, 10, &mut want);
            assert_eq!(buf, want);
            p.fclose(s).unwrap();
        });
        sim.run();
    }

    #[test]
    fn pread_does_not_move_position() {
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 100, 1).unwrap();
        sim.spawn("t", move || {
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            assert_eq!(p.pread(fd, 50, 10, None).unwrap(), 10);
            assert_eq!(p.read(fd, 100, None).unwrap(), 100, "pos still 0");
            p.close(fd).unwrap();
        });
        sim.run();
    }

    #[test]
    fn lseek_whence_semantics() {
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 100, 1).unwrap();
        sim.spawn("t", move || {
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            assert_eq!(p.lseek(fd, 10, Whence::Set).unwrap(), 10);
            assert_eq!(p.lseek(fd, 5, Whence::Cur).unwrap(), 15);
            assert_eq!(p.lseek(fd, -20, Whence::End).unwrap(), 80);
            assert_eq!(p.lseek(fd, -200, Whence::Cur).unwrap_err(), Errno::EINVAL);
            p.close(fd).unwrap();
        });
        sim.run();
    }

    #[test]
    fn write_permissions_enforced() {
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 10, 1).unwrap();
        sim.spawn("t", move || {
            let fd = p.open("/data/f", OpenFlags::rdonly()).unwrap();
            assert_eq!(
                p.write(fd, WritePayload::Bytes(b"x")).unwrap_err(),
                Errno::EACCES
            );
            p.close(fd).unwrap();
            let fd = p.open("/data/w", OpenFlags::wronly_create_trunc()).unwrap();
            assert_eq!(p.read(fd, 1, None).unwrap_err(), Errno::EACCES);
            p.close(fd).unwrap();
        });
        sim.run();
    }

    #[test]
    fn stdio_roundtrip_with_buffering() {
        let (sim, p, _fs) = proc_fixture();
        sim.spawn("t", move || {
            let s = p.fopen("/data/log", "w").unwrap();
            for i in 0..100u32 {
                let line = format!("line {i}\n");
                p.fwrite(s, WritePayload::Bytes(line.as_bytes())).unwrap();
            }
            p.fclose(s).unwrap();

            let s = p.fopen("/data/log", "r").unwrap();
            let mut buf = vec![0u8; 7];
            assert_eq!(p.fread(s, 7, Some(&mut buf)).unwrap(), 7);
            assert_eq!(&buf, b"line 0\n");
            p.fclose(s).unwrap();
        });
        sim.run();
    }

    #[test]
    fn stdio_buffer_coalesces_small_writes() {
        let (sim, p, fs) = proc_fixture();
        let p2 = p.clone();
        sim.spawn("t", move || {
            let s = p2.fopen("/data/small", "w").unwrap();
            // 100 writes of 10 bytes: ≤ BUFSIZ each, so the descriptor
            // sees far fewer pwrites than fwrites.
            for _ in 0..100 {
                p2.fwrite(s, WritePayload::Bytes(&[7u8; 10])).unwrap();
            }
            p2.fclose(s).unwrap();
        });
        sim.run();
        let dev = fs.device().snapshot();
        assert_eq!(dev.bytes_written, 1000);
        assert!(
            dev.writes <= 2,
            "1000 buffered bytes should flush in ≤2 device writes, got {}",
            dev.writes
        );
    }

    #[test]
    fn stdio_append_mode() {
        let (sim, p, _fs) = proc_fixture();
        sim.spawn("t", move || {
            let s = p.fopen("/data/a", "w").unwrap();
            p.fwrite(s, WritePayload::Bytes(b"one")).unwrap();
            p.fclose(s).unwrap();
            let s = p.fopen("/data/a", "a").unwrap();
            p.fwrite(s, WritePayload::Bytes(b"two")).unwrap();
            p.fclose(s).unwrap();
            assert_eq!(p.stat("/data/a").unwrap().size, 6);
            let s = p.fopen("/data/a", "r").unwrap();
            let mut buf = vec![0u8; 6];
            p.fread(s, 6, Some(&mut buf)).unwrap();
            assert_eq!(&buf, b"onetwo");
            p.fclose(s).unwrap();
        });
        sim.run();
    }

    #[test]
    fn fseek_discards_readahead() {
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 64 * 1024, 9).unwrap();
        sim.spawn("t", move || {
            let s = p.fopen("/data/f", "r").unwrap();
            let mut a = vec![0u8; 16];
            p.fread(s, 16, Some(&mut a)).unwrap();
            assert_eq!(p.fseek(s, 1000, Whence::Set).unwrap(), 1000);
            let mut b = vec![0u8; 16];
            p.fread(s, 16, Some(&mut b)).unwrap();
            let mut want = vec![0u8; 16];
            storage_sim::content::fill(9, 1000, &mut want);
            assert_eq!(b, want);
            p.fclose(s).unwrap();
        });
        sim.run();
    }

    // -- GOT interposition --------------------------------------------------

    /// A counting interposer that forwards to the previous binding.
    struct CountingIo {
        orig: Arc<dyn LibcIo>,
        preads: AtomicU64,
        opens: AtomicU64,
    }

    impl LibcIo for CountingIo {
        fn open(&self, p: &Process, path: &str, flags: OpenFlags) -> PosixResult<Fd> {
            self.opens.fetch_add(1, Ordering::Relaxed);
            self.orig.open(p, path, flags)
        }
        fn close(&self, p: &Process, fd: Fd) -> PosixResult<()> {
            self.orig.close(p, fd)
        }
        fn read(&self, p: &Process, fd: Fd, len: u64, buf: Option<&mut [u8]>) -> PosixResult<u64> {
            self.orig.read(p, fd, len, buf)
        }
        fn pread(
            &self,
            p: &Process,
            fd: Fd,
            offset: u64,
            len: u64,
            buf: Option<&mut [u8]>,
        ) -> PosixResult<u64> {
            self.preads.fetch_add(1, Ordering::Relaxed);
            self.orig.pread(p, fd, offset, len, buf)
        }
        fn write(&self, p: &Process, fd: Fd, data: WritePayload<'_>) -> PosixResult<u64> {
            self.orig.write(p, fd, data)
        }
        fn pwrite(
            &self,
            p: &Process,
            fd: Fd,
            offset: u64,
            data: WritePayload<'_>,
        ) -> PosixResult<u64> {
            self.orig.pwrite(p, fd, offset, data)
        }
        fn lseek(&self, p: &Process, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
            self.orig.lseek(p, fd, offset, whence)
        }
        fn stat(&self, p: &Process, path: &str) -> PosixResult<Metadata> {
            self.orig.stat(p, path)
        }
        fn fstat(&self, p: &Process, fd: Fd) -> PosixResult<Metadata> {
            self.orig.fstat(p, fd)
        }
        fn fsync(&self, p: &Process, fd: Fd) -> PosixResult<()> {
            self.orig.fsync(p, fd)
        }
        fn unlink(&self, p: &Process, path: &str) -> PosixResult<()> {
            self.orig.unlink(p, path)
        }
        fn rename(&self, p: &Process, from: &str, to: &str) -> PosixResult<()> {
            self.orig.rename(p, from, to)
        }
    }

    #[test]
    fn got_patch_intercepts_only_patched_symbols() {
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 4096, 1).unwrap();
        let counter = Arc::new(Mutex::new(None::<Arc<CountingIo>>));
        let c2 = counter.clone();
        let p2 = p.clone();
        sim.spawn("t", move || {
            // Patch pread and open; leave read untouched.
            let orig = p2.got().posix_sym("pread");
            let counting = Arc::new(CountingIo {
                orig,
                preads: AtomicU64::new(0),
                opens: AtomicU64::new(0),
            });
            p2.got()
                .patch_posix("pread", counting.clone() as Arc<dyn LibcIo>)
                .unwrap();
            p2.got()
                .patch_posix("open", counting.clone() as Arc<dyn LibcIo>)
                .unwrap();
            *c2.lock() = Some(counting.clone());

            let fd = p2.open("/data/f", OpenFlags::rdonly()).unwrap();
            p2.pread(fd, 0, 100, None).unwrap();
            p2.pread(fd, 100, 100, None).unwrap();
            p2.read(fd, 100, None).unwrap(); // NOT intercepted
            p2.close(fd).unwrap();

            assert_eq!(counting.opens.load(Ordering::Relaxed), 1);
            assert_eq!(counting.preads.load(Ordering::Relaxed), 2);

            // Detach and verify traffic no longer flows through.
            p2.got().restore_all();
            let fd = p2.open("/data/f", OpenFlags::rdonly()).unwrap();
            p2.pread(fd, 0, 100, None).unwrap();
            p2.close(fd).unwrap();
            assert_eq!(counting.opens.load(Ordering::Relaxed), 1);
            assert_eq!(counting.preads.load(Ordering::Relaxed), 2);
        });
        sim.run();
    }

    #[test]
    fn got_scan_reports_patch_state() {
        let (sim, p, _) = proc_fixture();
        sim.spawn("t", move || {
            assert!(!p.got().any_patched());
            let orig = p.got().posix_sym("read");
            let c = Arc::new(CountingIo {
                orig,
                preads: AtomicU64::new(0),
                opens: AtomicU64::new(0),
            });
            p.got().patch_posix("read", c as Arc<dyn LibcIo>).unwrap();
            let scan = p.got().scan();
            let read_state = scan.iter().find(|(s, _)| s == "read").unwrap();
            assert!(read_state.1);
            let pread_state = scan.iter().find(|(s, _)| s == "pread").unwrap();
            assert!(!pread_state.1);
            p.got().restore_all();
            assert!(!p.got().any_patched());
        });
        sim.run();
    }

    #[test]
    fn got_unknown_symbol_rejected() {
        let (sim, p, _) = proc_fixture();
        sim.spawn("t", move || {
            let orig = p.got().posix_sym("read");
            assert_eq!(
                p.got().patch_posix("ioctl", orig).err(),
                Some(GotError::UnknownSymbol("ioctl".into()))
            );
        });
        sim.run();
    }

    #[test]
    fn interposing_read_does_not_see_fread_traffic() {
        // The glibc-internals property Darshan's STDIO module exists for.
        let (sim, p, fs) = proc_fixture();
        fs.create_synthetic("/data/f", 64 * 1024, 1).unwrap();
        sim.spawn("t", move || {
            let counting = Arc::new(CountingIo {
                orig: p.got().posix_sym("read"),
                preads: AtomicU64::new(0),
                opens: AtomicU64::new(0),
            });
            p.got()
                .patch_posix("read", counting.clone() as Arc<dyn LibcIo>)
                .unwrap();
            p.got()
                .patch_posix("pread", counting.clone() as Arc<dyn LibcIo>)
                .unwrap();
            let s = p.fopen("/data/f", "r").unwrap();
            p.fread(s, 1024, None).unwrap();
            p.fclose(s).unwrap();
            assert_eq!(
                counting.preads.load(Ordering::Relaxed),
                0,
                "stdio descriptor I/O must bypass the application GOT"
            );
            p.got().restore_all();
        });
        sim.run();
    }

    #[test]
    fn dlopen_registry() {
        let (sim, p, _) = proc_fixture();
        sim.spawn("t", move || {
            assert_eq!(p.dlopen("libdarshan.so").unwrap_err(), Errno::ENOENT);
            p.register_library("libdarshan.so", Arc::new(42u32));
            let lib = p.dlopen("libdarshan.so").unwrap();
            assert_eq!(*lib.downcast::<u32>().unwrap(), 42);
        });
        sim.run();
    }

    #[test]
    fn cross_mount_rename_fails() {
        let sim = Sim::new();
        let cache = Arc::new(PageCache::new(1 << 30));
        let a = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd("a")),
            cache.clone(),
            LocalFsParams::default(),
        );
        let b = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd("b")),
            cache,
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/a", a.clone() as Arc<dyn storage_sim::FileSystem>);
        stack.mount("/b", b as Arc<dyn storage_sim::FileSystem>);
        a.create_synthetic("/a/f", 10, 1).unwrap();
        let p = Process::new(stack);
        sim.spawn("t", move || {
            assert_eq!(p.rename("/a/f", "/b/f").unwrap_err(), Errno::EINVAL);
        });
        sim.run();
    }
}
