//! Distributed data-parallel training under parallel Darshan — the paper's
//! §III forward-compatibility scenario: "If TensorFlow employs MPI as a
//! distributed strategy for I/O in the future, one can employ the parallel
//! version of Darshan with the MPI module."
//!
//! Four ranks share a Lustre filesystem; each reads its shard with POSIX
//! (independent I/O, the ML pattern of §II), gradients allreduce each
//! step, and the final checkpoint is a collective `MPI_File_write_at_all`.
//! Per-rank Darshan records reduce to one job log, summarized like
//! `darshan-job-summary`.
//!
//! ```text
//! cargo run --release --example distributed_training
//! ```

use std::sync::Arc;

use tf_darshan::darshan::{reduce_job, DarshanConfig, DarshanLibrary, DarshanLog, JobSummary};
use tf_darshan::mpi::{DarshanMpiio, DefaultMpiIo, MpiIoLayer, MpiWorld, NetworkModel};
use tf_darshan::posix::OpenFlags;
use tf_darshan::storage::{FileSystem, LustreFs, LustreParams, PageCache, StorageStack};

const RANKS: usize = 4;
const FILES_PER_RANK: usize = 128;

fn main() {
    let sim = simrt::Sim::new();
    let stack = StorageStack::new();
    let lustre = LustreFs::new(LustreParams::default(), Arc::new(PageCache::new(1 << 36)));
    stack.mount("/scratch", lustre as Arc<dyn FileSystem>);
    for r in 0..RANKS {
        for i in 0..FILES_PER_RANK {
            stack
                .create_synthetic(
                    &format!("/scratch/shard{r}/{i:05}"),
                    88 * 1024,
                    (r * FILES_PER_RANK + i) as u64,
                )
                .unwrap();
        }
    }

    let world = MpiWorld::new(&stack, RANKS, NetworkModel::default());
    let mpiio = DarshanMpiio::new(Arc::new(DefaultMpiIo));
    world.pmpi_interpose(mpiio.clone() as Arc<dyn MpiIoLayer>);
    let darshans: Vec<_> = (0..RANKS)
        .map(|_| DarshanLibrary::new(DarshanConfig::default()))
        .collect();

    let d2 = darshans.clone();
    let handles = world.spawn_ranks(&sim, move |comm| {
        let p = comm.process();
        d2[comm.rank()].attach(&p).unwrap();
        for step in 0..4 {
            for i in 0..32 {
                let path = format!("/scratch/shard{}/{:05}", comm.rank(), step * 32 + i);
                let fd = p.open(&path, OpenFlags::rdonly()).unwrap();
                let mut off = 0;
                loop {
                    let n = p.pread(fd, off, 1 << 20, None).unwrap();
                    if n == 0 {
                        break;
                    }
                    off += n;
                }
                p.close(fd).unwrap();
            }
            comm.allreduce_bytes(244 << 20); // AlexNet gradients
        }
        let fh = comm.file_open("/scratch/ckpt", true).unwrap();
        comm.file_write_at_all(&fh, comm.rank() as u64 * (61 << 20), 61 << 20)
            .unwrap();
        comm.file_close(fh).unwrap();
        d2[comm.rank()].detach(&p).unwrap();
        d2[comm.rank()].runtime().snapshot()
    });
    sim.run();

    let per_rank: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let job_records = reduce_job(&per_rank.iter().map(|s| s.posix.clone()).collect::<Vec<_>>());
    let mut names = std::collections::HashMap::new();
    for s in &per_rank {
        names.extend(s.names.iter().map(|(k, v)| (k, v.to_string())));
    }
    let log = DarshanLog {
        job_start: 0.0,
        job_end: sim.now().as_secs_f64(),
        nprocs: RANKS as u32,
        names,
        posix: job_records,
        posix_partial: false,
        stdio: vec![],
        stdio_partial: false,
        dxt: Default::default(),
    };
    println!("{}", JobSummary::from_log(&log, 5).render());
    println!("MPI-IO module (job view):");
    for (path, rec) in mpiio.reduce_job() {
        println!(
            "  {path}: {} collective opens, {} collective writes, {:.0} MiB",
            rec.coll_opens,
            rec.coll_writes,
            rec.bytes_written as f64 / (1024.0 * 1024.0)
        );
    }
}
