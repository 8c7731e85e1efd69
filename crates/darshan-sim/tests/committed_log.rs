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
