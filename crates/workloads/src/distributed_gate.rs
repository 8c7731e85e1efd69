//! The distributed gate: a 4-rank smoke workload run under the sanitizer.
//!
//! The single-process gate (`iosan_gate`) sweeps the paper's workload
//! shapes; this gate exercises the *distributed* spine instead — N ranks
//! over one Lustre scratch, profiled per rank by [`JobCtx`] and sanitized
//! job-wide by one sanitizer registered on every rank's bus:
//!
//! 1. every rank `pwrite`s its disjoint region of one shared checkpoint
//!    file (parallel Darshan's shared-record case);
//! 2. a barrier — the collective's sync events are the cross-rank
//!    happens-before edge that makes phase 3 race-free;
//! 3. every rank reads the whole checkpoint back plus its private shard,
//!    then joins an allreduce (the gradient exchange).
//!
//! A healthy tree produces **zero findings** and a [`JobReport`] whose
//! shared checkpoint record merged across all ranks. CI runs the
//! `distributed_gate` example and fails on any finding.

use std::sync::Arc;

use iosan::{IoSanitizer, SanitizerReport};
use mpi_sim::{MpiWorld, NetworkModel};
use posix_sim::OpenFlags;
use storage_sim::WritePayload;
use tfdarshan::{JobCtx, JobReport, TfDarshanConfig};

use crate::platform::kebnekaise;

/// Shared checkpoint path on the Lustre scratch.
pub const CKPT: &str = "/scratch/dgate/ckpt.bin";
/// Bytes each rank owns in the shared checkpoint.
pub const CHUNK: u64 = 128 << 10;
/// Private shard files per rank.
pub const SHARD_FILES: usize = 4;
/// Bytes per private shard file.
pub const SHARD_FILE_BYTES: u64 = 256 << 10;

/// What the gate produced: the job-level profile plus the sanitizer's
/// verdict over every rank's events.
pub struct DistributedGateOutcome {
    /// Ranks that ran.
    pub world_size: usize,
    /// Per-rank sessions reduced to the job view.
    pub report: JobReport,
    /// Findings over the job's events (empty on a healthy tree).
    pub sanitizer: SanitizerReport,
}

/// Run the gate workload at `world_size` ranks on a fresh cluster node.
pub fn run_distributed_gate(world_size: usize) -> DistributedGateOutcome {
    assert!(world_size > 0);
    let m = kebnekaise();
    for r in 0..world_size {
        for i in 0..SHARD_FILES {
            let p = format!("/scratch/dgate/rank{r}/f{i}");
            m.stack
                .create_synthetic(&p, SHARD_FILE_BYTES, (r * 17 + i) as u64)
                .unwrap();
        }
    }
    m.stack
        .create_synthetic(CKPT, CHUNK * world_size as u64, 7)
        .unwrap();

    let world = MpiWorld::new(&m.stack, world_size, NetworkModel::default());
    let job = Arc::new(JobCtx::over_world(&world, &TfDarshanConfig::default()));
    let buses: Vec<_> = job.ranks().iter().map(|r| r.probe()).collect();
    let san = IoSanitizer::install(&m.sim, &buses);

    let j2 = job.clone();
    world.spawn_ranks(&m.sim, move |comm| {
        let process = comm.process();
        if comm.rank() == 0 {
            j2.mark_start().expect("tf-darshan attaches on every rank");
        }
        comm.barrier();

        // Phase 1: disjoint writes into the shared checkpoint.
        let fd = process
            .open(
                CKPT,
                OpenFlags {
                    write: true,
                    ..Default::default()
                },
            )
            .unwrap();
        process
            .pwrite(
                fd,
                comm.rank() as u64 * CHUNK,
                WritePayload::Synthetic(CHUNK),
            )
            .unwrap();
        process.fsync(fd).unwrap();
        process.close(fd).unwrap();

        // The collective orders phase 1's writes before phase 2's reads
        // on every rank — without it the cross-rank read/write pairs on
        // the shared file would be genuine races.
        comm.barrier();

        // Phase 2: read the whole checkpoint back, then the private shard.
        let fd = process.open(CKPT, OpenFlags::rdonly()).unwrap();
        let mut off = 0u64;
        loop {
            let n = process.pread(fd, off, 64 << 10, None).unwrap();
            if n == 0 {
                break;
            }
            off += n;
        }
        process.close(fd).unwrap();
        for i in 0..SHARD_FILES {
            let p = format!("/scratch/dgate/rank{}/f{i}", comm.rank());
            let fd = process.open(&p, OpenFlags::rdonly()).unwrap();
            process.read(fd, SHARD_FILE_BYTES, None).unwrap();
            process.close(fd).unwrap();
        }
        comm.allreduce_bytes(1 << 20); // the gradient exchange

        comm.barrier();
        if comm.rank() == 0 {
            j2.mark_stop();
        }
    });
    m.sim.run();

    let report = job.collect().expect("every rank has a session");
    DistributedGateOutcome {
        world_size,
        report,
        sanitizer: san.finalize(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_is_clean_and_merges_the_shared_checkpoint() {
        let out = run_distributed_gate(4);
        assert!(
            out.sanitizer.is_clean(),
            "findings: {}",
            out.sanitizer.render_ascii()
        );
        assert_eq!(out.report.world_size, 4);
        assert_eq!(out.report.per_rank.len(), 4);
        // Every rank read the whole checkpoint plus its shard.
        let job = &out.report.job;
        assert!(job.io.bytes_read >= 4 * (CHUNK * 4 + SHARD_FILES as u64 * SHARD_FILE_BYTES));
        // The checkpoint is one merged record in the job view, not four.
        let ckpts = job.files.iter().filter(|f| f.path == CKPT).count();
        assert_eq!(ckpts, 1, "shared record merged once");
        // Per-rank views keep their own slice of the shared file.
        for r in &out.report.per_rank {
            assert!(r.files.iter().any(|f| f.path == CKPT));
        }
    }
}
