//! The committed example log `results/classic.darshan` must decode with
//! the current log format. A format change that does not regenerate it
//! (`cargo run --release --example darshan_classic`) fails here, instead
//! of at the documented `darshan-parser results/classic.darshan` command.

use darshan_sim::DarshanLog;

#[test]
fn committed_classic_log_decodes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/classic.darshan");
    let bytes = std::fs::read(path).expect("results/classic.darshan is committed");
    let log = DarshanLog::decode(&bytes).expect("committed log decodes with the current format");
    // The darshan_classic example's job: 16 files, each traced by DXT.
    assert_eq!(log.posix.len(), 16);
    assert_eq!(log.names.len(), 16);
    assert_eq!(log.dxt.len(), 16);
    assert_eq!(
        log.encode()[..],
        bytes[..],
        "re-encoding reproduces the file"
    );
}

/// A log in the shape of `log.rs`'s unit-test sample: one POSIX and one
/// STDIO record, DXT segments from ranks 0 and 3, and the STDIO module
/// marked partial. `results/classic.darshan` has no STDIO record, so this
/// is what pins the STDIO section's layout.
fn stdio_sample_log() -> DarshanLog {
    use darshan_sim::{
        record_id, DxtOp, DxtSegment, PosixCounter, PosixFCounter, PosixRecord, StdioCounter,
        StdioFCounter, StdioRecord,
    };
    let mut r = PosixRecord::new(record_id("/d/a"));
    *r.get_mut(PosixCounter::POSIX_OPENS) = 3;
    *r.get_mut(PosixCounter::POSIX_BYTES_READ) = 12345;
    *r.fget_mut(PosixFCounter::POSIX_F_READ_TIME) = 0.25;
    let mut s = StdioRecord::new(record_id("/d/ckpt"));
    *s.get_mut(StdioCounter::STDIO_OPENS) = 2;
    *s.get_mut(StdioCounter::STDIO_WRITES) = 140;
    *s.get_mut(StdioCounter::STDIO_BYTES_WRITTEN) = 14_000;
    *s.get_mut(StdioCounter::STDIO_MAX_BYTE_WRITTEN) = 13_999;
    *s.fget_mut(StdioFCounter::STDIO_F_OPEN_START_TIMESTAMP) = 0.5;
    *s.fget_mut(StdioFCounter::STDIO_F_CLOSE_END_TIMESTAMP) = 1.75;
    *s.fget_mut(StdioFCounter::STDIO_F_WRITE_TIME) = 0.125;
    let names = [
        ("/d/a", record_id("/d/a")),
        ("/d/ckpt", record_id("/d/ckpt")),
    ]
    .into_iter()
    .map(|(p, id)| (id, p.to_string()))
    .collect();
    let seg = |offset, length, start, end, rank| DxtSegment {
        op: DxtOp::Read,
        offset,
        length,
        start,
        end,
        rank,
    };
    let dxt = [(
        record_id("/d/a"),
        vec![seg(0, 88_000, 0.1, 0.2, 0), seg(88_000, 0, 0.2, 0.2001, 3)],
    )]
    .into_iter()
    .collect();
    DarshanLog {
        job_start: 0.0,
        job_end: 17.5,
        nprocs: 1,
        names,
        posix: vec![r],
        posix_partial: false,
        stdio: vec![s],
        stdio_partial: true,
        dxt,
    }
}

#[test]
fn stdio_section_layout_is_pinned() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/stdio_sample.darshan"
    );
    let golden = std::fs::read(path).expect("tests/golden/stdio_sample.darshan is committed");
    let log = stdio_sample_log();
    assert_eq!(log.encode()[..], golden[..], "encoder layout changed");
    let back = DarshanLog::decode(&golden).expect("golden decodes");
    assert!(back.stdio_partial && !back.posix_partial);
    assert_eq!(back.stdio.len(), 1);
    assert_eq!(back.stdio[0].counters, log.stdio[0].counters);
    assert_eq!(back.stdio[0].fcounters, log.stdio[0].fcounters);
    assert_eq!(back.encode()[..], golden[..], "decode/encode round trip");
}
