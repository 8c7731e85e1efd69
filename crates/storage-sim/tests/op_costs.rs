//! Pinned virtual-time cost of every filesystem operation on both cost
//! models, plus the bytes and commands each backing device saw.
//!
//! `LocalFs` and `LustreFs` share one `FileSystem` implementation and
//! differ only in how they charge metadata and data movement. These
//! literals hold each model's charges fixed: any change to the order or
//! size of a sleep, semaphore acquire, device transfer or page-cache call
//! moves at least one number here.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use simrt::Sim;
use storage_sim::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, LustreFs, LustreParams, OpenOptions,
    PageCache, WritePayload,
};

const MIB: u64 = 1 << 20;

/// Run one scripted sequence of operations on `fs` and render each op's
/// virtual-time cost in nanoseconds, then every device's counters.
fn costs(fs: Arc<dyn FileSystem>) -> String {
    // 3.5 MiB: a cold read spans four Lustre data RPCs.
    fs.create_synthetic("/a", 3 * MIB + MIB / 2, 1).unwrap();
    fs.create_synthetic("/b", 4096, 2).unwrap();
    let sim = Sim::new();
    let out = Arc::new(Mutex::new(String::new()));
    let (fs2, out2) = (fs.clone(), out.clone());
    sim.spawn("script", move || {
        let fs = fs2;
        let mut t = simrt::now();
        let mut lap = |op: &str| {
            let now = simrt::now();
            writeln!(out2.lock(), "{op} {}", (now - t).as_nanos()).unwrap();
            t = now;
        };
        let h = fs.open("/a", &OpenOptions::reading()).unwrap();
        lap("open_cold");
        fs.close(h).unwrap();
        lap("close_clean");
        let h = fs.open("/a", &OpenOptions::reading()).unwrap();
        lap("open_warm");
        assert_eq!(fs.read_at(h, 0, 4 * MIB, None).unwrap(), 3 * MIB + MIB / 2);
        lap("read_miss");
        assert_eq!(fs.read_at(h, 0, 4 * MIB, None).unwrap(), 3 * MIB + MIB / 2);
        lap("read_hit");
        assert_eq!(fs.read_at(h, 3 * MIB + MIB / 2, MIB, None).unwrap(), 0);
        lap("eof_probe");
        fs.close(h).unwrap();
        fs.stat("/b").unwrap();
        lap("stat");
        let h = fs.open("/w", &OpenOptions::writing()).unwrap();
        lap("create");
        fs.write_at(h, 0, WritePayload::Synthetic(2 * MIB + 100))
            .unwrap();
        lap("write_buffered");
        fs.fsync(h).unwrap();
        lap("fsync");
        fs.close(h).unwrap();
        lap("close_after_fsync");
        fs.rename("/w", "/w2").unwrap();
        lap("rename");
        fs.unlink("/w2").unwrap();
        lap("unlink");
    });
    // Contended metadata: six concurrent opens of one existing file.
    for i in 0..6 {
        let (fs, out) = (fs.clone(), out.clone());
        sim.spawn(format!("opener{i}"), move || {
            simrt::sleep(std::time::Duration::from_secs(10));
            let t0 = simrt::now();
            let h = fs.open("/b", &OpenOptions::reading()).unwrap();
            let mut buf = [0u8; 16];
            fs.read_at(h, 0, 16, Some(&mut buf)).unwrap();
            fs.close(h).unwrap();
            writeln!(out.lock(), "opener{i} {}", (simrt::now() - t0).as_nanos()).unwrap();
        });
    }
    sim.run();
    let mut out = out.lock().clone();
    for d in fs.devices() {
        let c = d.snapshot();
        writeln!(
            out,
            "{}: read {} B in {} / wrote {} B in {} / {} seeks",
            d.name(),
            c.bytes_read,
            c.reads,
            c.bytes_written,
            c.writes,
            c.seeks
        )
        .unwrap();
    }
    out
}

/// Cold open reads the inode block; metadata is a fixed sleep; a miss is
/// one device transfer per run.
const LOCAL: &str = "\
open_cold 6208504
close_clean 0
open_warm 6000
read_miss 24148718
read_hit 458752
eof_probe 0
stat 2000
create 66000
write_buffered 262156
fsync 10256899
close_after_fsync 0
rename 2000
unlink 2000
opener0 12421102
opener1 12421180
opener2 12421258
opener3 12421336
opener4 12421414
opener5 12421492
hdd0: read 3673696 B in 14 / wrote 2097252 B in 1 / 4 seeks
";

/// Every metadata op is one MDS RPC (create adds nothing); the EOF probe
/// reads cached attributes; data moves in RPCs of at most 1 MiB, and the
/// last two contended openers queue behind the four MDS service threads.
const LUSTRE: &str = "\
open_cold 13000000
close_clean 0
open_warm 13000000
read_miss 37100000
read_hit 458752
eof_probe 5000
stat 13000000
create 13000000
write_buffered 262156
fsync 27200095
close_after_fsync 0
rename 13000000
unlink 13000000
opener0 21400015
opener1 21400030
opener2 21400045
opener3 21400060
opener4 26000002
opener5 26000002
ost0: read 0 B in 0 / wrote 0 B in 0 / 0 seeks
ost1: read 3670016 B in 4 / wrote 0 B in 0 / 0 seeks
ost2: read 64 B in 4 / wrote 0 B in 0 / 0 seeks
ost3: read 0 B in 0 / wrote 2097252 B in 3 / 0 seeks
";

#[test]
fn local_op_costs_are_pinned() {
    let fs = LocalFs::new(
        Device::new(DeviceSpec::hdd("hdd0")),
        Arc::new(PageCache::new(1 << 30)),
        LocalFsParams::default(),
    );
    assert_eq!(costs(fs), LOCAL);
}

#[test]
fn lustre_op_costs_are_pinned() {
    let fs = LustreFs::new(LustreParams::default(), Arc::new(PageCache::new(1 << 30)));
    assert_eq!(costs(fs), LUSTRE);
}
