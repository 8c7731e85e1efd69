//! TensorFlow kernel ops used by the workloads.
//!
//! [`read_file`] is the key one: TensorFlow's `tf.io.read_file` /
//! `PosixRandomAccessFile` reads a file with a loop of `pread`s that only
//! terminates when `pread` returns zero — the source of the "every file
//! ends with a zero-length read" signature the paper discovers in Fig. 8
//! ("Upon examining the TensorFlow source code, the read file operation
//! consists of a loop that performs `pread`. The function returns only
//! upon `pread` returning zero.").

use std::sync::Arc;
use std::time::Duration;

use posix_sim::{OpenFlags, PosixResult};
use storage_sim::WritePayload;

use crate::runtime::TfRuntime;
use crate::traceme::TraceMe;

/// Maximum bytes per `pread` issued by `ReadFile` (TF reads large files in
/// segments; the paper observes reads clustering at and below 1 MB).
pub const READ_CHUNK: u64 = 1 << 20;

/// `tf.io.read_file`: open, `pread` until zero, close. Returns total bytes.
pub fn read_file(rt: &Arc<TfRuntime>, path: &str) -> PosixResult<u64> {
    let mut span = TraceMe::new(rt.recorder(), "ReadFile");
    span.stat("path", path);
    let p = rt.process();
    let fd = p.open(path, OpenFlags::rdonly())?;
    let mut off = 0u64;
    loop {
        let n = p.pread(fd, off, READ_CHUNK, None)?;
        if n == 0 {
            break;
        }
        off += n;
    }
    p.close(fd)?;
    span.stat("bytes", off);
    Ok(off)
}

/// A CPU preprocessing op (decode, resize, ...): pure compute, traced.
pub fn compute(rt: &Arc<TfRuntime>, name: &str, cost: Duration) {
    let _span = TraceMe::new(rt.recorder(), name);
    if !cost.is_zero() {
        simrt::sleep(cost);
    }
}

/// `tf.train.Checkpoint.save` through Keras' `ModelCheckpoint`: variables
/// are serialized through STDIO `fwrite` (the paper's §IV.D observes the
/// checkpoint traffic on Darshan's STDIO layer). Writes each variable in
/// `chunk`-byte `fwrite` calls.
pub fn save_checkpoint(
    rt: &Arc<TfRuntime>,
    path: &str,
    variables: &[u64],
    chunk: u64,
) -> PosixResult<u64> {
    assert!(chunk > 0);
    let mut span = TraceMe::new(rt.recorder(), "SaveV2");
    span.stat("path", path);
    let p = rt.process();
    let s = p.fopen(path, "w")?;
    let mut total = 0u64;
    let mut fwrites = 0u64;
    for &var in variables {
        let mut left = var;
        while left > 0 {
            let n = left.min(chunk);
            p.fwrite(s, WritePayload::Synthetic(n))?;
            left -= n;
            total += n;
            fwrites += 1;
        }
    }
    p.fclose(s)?;
    span.stat("bytes", total);
    Ok(fwrites)
}

/// Restore a checkpoint: `fread` the file back in `chunk`-byte calls.
pub fn restore_checkpoint(rt: &Arc<TfRuntime>, path: &str, chunk: u64) -> PosixResult<u64> {
    let _span = TraceMe::new(rt.recorder(), "RestoreV2");
    let p = rt.process();
    let s = p.fopen(path, "r")?;
    let mut total = 0u64;
    loop {
        let n = p.fread(s, chunk, None)?;
        if n == 0 {
            break;
        }
        total += n;
    }
    p.fclose(s)?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerOptions;
    use posix_sim::Process;
    use simrt::Sim;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
    };

    fn fixture(sim: &Sim) -> (Arc<TfRuntime>, Arc<LocalFs>) {
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd("ssd0")),
            Arc::new(PageCache::new(1 << 30)),
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/data", fs.clone() as Arc<dyn FileSystem>);
        (TfRuntime::new(Process::new(stack), sim.clone(), 8), fs)
    }

    #[test]
    fn read_file_small_is_one_read_plus_zero_probe() {
        let sim = Sim::new();
        let (rt, fs) = fixture(&sim);
        fs.create_synthetic("/data/img", 88 * 1024, 1).unwrap();
        sim.spawn("t", move || {
            assert_eq!(read_file(&rt, "/data/img").unwrap(), 88 * 1024);
        });
        sim.run();
        // Device sees the cold inode block + one data read; the
        // zero-length probe is syscall-only.
        assert_eq!(fs.device().snapshot().reads, 2);
    }

    #[test]
    fn read_file_large_is_segmented() {
        let sim = Sim::new();
        let (rt, fs) = fixture(&sim);
        fs.create_synthetic("/data/mal", 4 << 20, 1).unwrap();
        sim.spawn("t", move || {
            assert_eq!(read_file(&rt, "/data/mal").unwrap(), 4 << 20);
        });
        sim.run();
        assert_eq!(
            fs.device().snapshot().reads,
            5,
            "cold inode block + 4 MiB in 1 MiB preads"
        );
    }

    #[test]
    fn profiler_alone_leaves_the_probe_spine_idle() {
        let sim = Sim::new();
        let (rt, fs) = fixture(&sim);
        fs.create_synthetic("/data/img", 4096, 1).unwrap();
        sim.spawn("t", move || {
            rt.profiler_start(ProfilerOptions::default()).unwrap();
            assert!(
                !rt.process().probe().is_active(),
                "no sink without tf-Darshan"
            );
            assert_eq!(read_file(&rt, "/data/img").unwrap(), 4096);
            assert!(!rt.process().probe().is_active());
            let space = rt.profiler_stop().unwrap();
            let host = space.plane("/host:CPU").unwrap();
            assert_eq!(host.lines[0].events[0].name, "ReadFile");
        });
        sim.run();
    }

    #[test]
    fn read_file_missing_errors() {
        let sim = Sim::new();
        let (rt, _fs) = fixture(&sim);
        sim.spawn("t", move || {
            assert!(read_file(&rt, "/data/nope").is_err());
        });
        sim.run();
    }

    #[test]
    fn checkpoint_fwrite_count_matches_chunking() {
        let sim = Sim::new();
        let (rt, _fs) = fixture(&sim);
        sim.spawn("t", move || {
            // 3 variables of 5 MB at 2 MB chunks → 3+3+3 = 9 fwrites.
            let vars = [5 << 20, 5 << 20, 5 << 20];
            let fwrites = save_checkpoint(&rt, "/data/ckpt-1", &vars, 2 << 20).unwrap();
            assert_eq!(fwrites, 9);
            let p = rt.process();
            assert_eq!(p.stat("/data/ckpt-1").unwrap().size, 15 << 20);
            let back = restore_checkpoint(&rt, "/data/ckpt-1", 1 << 20).unwrap();
            assert_eq!(back, 15 << 20);
        });
        sim.run();
    }

    #[test]
    fn compute_charges_and_traces() {
        let sim = Sim::new();
        let (rt, _fs) = fixture(&sim);
        sim.spawn("t", move || {
            rt.recorder().start(Duration::ZERO);
            let t0 = simrt::now();
            compute(&rt, "DecodeJpeg", Duration::from_millis(8));
            assert_eq!(simrt::now() - t0, Duration::from_millis(8));
            rt.recorder().stop();
            let lines = rt.recorder().consume();
            assert_eq!(lines[0].events[0].name, "DecodeJpeg");
        });
        sim.run();
    }
}
