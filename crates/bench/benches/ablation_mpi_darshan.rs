//! Ablation — parallel Darshan on MPI distributed training (paper §III's
//! forward-compatibility claim): four ranks train data-parallel over a
//! shared Lustre filesystem, gradients synchronize with allreduce, and the
//! final checkpoint is one `MPI_File_write_at_all`. Each rank carries its
//! own Darshan runtime; its MPI-IO module is fed by the MPI library's probe
//! events on the rank's spine, its POSIX module by the descriptor I/O
//! beneath. At "MPI_Finalize" each module's per-rank records reduce into a
//! single job-level view — shared files merge, rank-private shards stay
//! separate. Exits 1 if any row deviates.

use std::sync::Arc;

use darshan_sim::{reduce_job, DarshanConfig, DarshanLibrary, MpiioCounter as MI};
use darshan_sim::{PosixCounter as P, Snapshot};
use mpi_sim::{MpiWorld, NetworkModel};
use posix_sim::OpenFlags;
use storage_sim::{FileSystem, LustreFs, LustreParams, PageCache, StorageStack};
use workloads::models;

const RANKS: usize = 4;

fn main() {
    bench::header(
        "Ablation",
        "Parallel Darshan over MPI data-parallel training (4 ranks)",
    );
    let sim = simrt::Sim::new();
    let cache = Arc::new(PageCache::new(1 << 36));
    let stack = StorageStack::new();
    let lustre = LustreFs::new(LustreParams::default(), cache);
    stack.mount("/scratch", lustre.clone() as Arc<dyn FileSystem>);

    // Shard the dataset: 256 files of ~88 KB per rank.
    let per_rank = 256usize;
    let mut shard_files: Vec<Vec<String>> = vec![Vec::new(); RANKS];
    for (r, shard) in shard_files.iter_mut().enumerate() {
        for i in 0..per_rank {
            let path = format!("/scratch/imagenet/rank{r}/{i:05}");
            stack
                .create_synthetic(&path, 88 * 1024, (r * per_rank + i) as u64)
                .unwrap();
            shard.push(path);
        }
    }

    let world = MpiWorld::new(&stack, RANKS, NetworkModel::default());
    // Per-rank Darshan.
    let darshans: Vec<Arc<DarshanLibrary>> = (0..RANKS)
        .map(|_| DarshanLibrary::new(DarshanConfig::default()))
        .collect();

    let gradients = models::alexnet(256, 1).checkpoint_bytes();
    let shard_files = Arc::new(shard_files);
    let darshans2 = darshans.clone();
    let handles = world.spawn_ranks(&sim, move |comm| {
        let rank = comm.rank();
        let p = comm.process();
        darshans2[rank].attach(&p).unwrap();

        // Data-parallel epoch: 8 steps of 32 files each, then allreduce.
        let files = &shard_files[rank];
        for step in 0..8 {
            for i in 0..32 {
                let path = &files[step * 32 + i];
                let fd = p.open(path, OpenFlags::rdonly()).unwrap();
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
            comm.allreduce_bytes(gradients);
        }

        // Collective checkpoint: each rank writes its slice of the model.
        let slice = gradients / RANKS as u64;
        let fh = comm.file_open("/scratch/ckpt/model-final", true).unwrap();
        comm.file_write_at_all(&fh, rank as u64 * slice, slice)
            .unwrap();
        comm.file_close(fh).unwrap();

        // "MPI_Finalize": hand back this rank's records.
        darshans2[rank].detach(&p).unwrap();
        darshans2[rank].runtime().snapshot()
    });
    sim.run();
    let snaps: Vec<Snapshot> = handles.into_iter().map(|h| h.join()).collect();
    let per_rank_records: Vec<_> = snaps.iter().map(|s| s.posix.clone()).collect();

    // -- per-rank POSIX views ------------------------------------------------
    println!("\nper-rank POSIX module (own shard + shared checkpoint):");
    for (r, recs) in per_rank_records.iter().enumerate() {
        let opens: i64 = recs.iter().map(|x| x.get(P::POSIX_OPENS)).sum();
        let bytes: i64 = recs.iter().map(|x| x.get(P::POSIX_BYTES_READ)).sum();
        println!(
            "  rank {r}: {} file records, {opens} opens, {:.1} MiB read",
            recs.len(),
            bytes as f64 / (1024.0 * 1024.0)
        );
    }

    // -- job reduction ---------------------------------------------------------
    let job = reduce_job(&per_rank_records);
    let total_opens: i64 = job.iter().map(|r| r.get(P::POSIX_OPENS)).sum();
    let total_reads: i64 = job.iter().map(|r| r.get(P::POSIX_READS)).sum();
    println!(
        "\njob-level POSIX view after reduction: {} records",
        job.len()
    );
    let mut ok = bench::row(
        "job file records (shards private + 1 shared ckpt)",
        &format!("{}", RANKS * per_rank + 1),
        &job.len().to_string(),
        job.len() == RANKS * per_rank + 1,
    );
    ok &= bench::row(
        "job POSIX opens (1024 shard + 4 ckpt)",
        &format!("{}", RANKS * per_rank + RANKS),
        &total_opens.to_string(),
        total_opens as usize == RANKS * per_rank + RANKS,
    );
    ok &= bench::row(
        "job POSIX reads (2 per small file)",
        &format!("{}", 2 * RANKS * per_rank),
        &total_reads.to_string(),
        total_reads as usize == 2 * RANKS * per_rank,
    );

    // -- MPI-IO module -----------------------------------------------------------
    let mpi_job: Vec<(Arc<str>, i64, i64, i64)> =
        reduce_job(&snaps.iter().map(|s| s.mpiio.clone()).collect::<Vec<_>>())
            .iter()
            .map(|r| {
                let path = snaps.iter().find_map(|s| s.names.get(r.rec_id)).unwrap();
                let (opens, writes) = (MI::MPIIO_COLL_OPENS, MI::MPIIO_COLL_WRITES);
                (
                    path,
                    r.get(opens),
                    r.get(writes),
                    r.get(MI::MPIIO_BYTES_WRITTEN),
                )
            })
            .collect();
    println!("\nMPI-IO module (job view):");
    for (path, opens, writes, written) in &mpi_job {
        println!(
            "  {path}: coll_opens {opens} coll_writes {writes} bytes_written {:.1} MiB",
            *written as f64 / (1024.0 * 1024.0)
        );
    }
    let (_, ck_opens, ck_writes, ck_bytes) = mpi_job[0].clone();
    let ranks = RANKS as i64;
    ok &= bench::row(
        "MPIIO collective opens / writes on the checkpoint",
        &format!("{RANKS} / {RANKS}"),
        &format!("{ck_opens} / {ck_writes}"),
        ck_opens == ranks && ck_writes == ranks,
    );
    ok &= bench::row(
        "checkpoint bytes via MPI-IO (≈ AlexNet 244 MB)",
        "~244 MB",
        &format!("{:.1} MB", ck_bytes as f64 / 1e6),
        (220e6..260e6).contains(&(ck_bytes as f64)),
    );
    // The same traffic is visible on the POSIX layer underneath (ROMIO).
    let ckpt_posix = job
        .iter()
        .find(|r| r.rec_id == darshan_sim::record_id("/scratch/ckpt/model-final"))
        .unwrap();
    ok &= bench::row(
        "the same checkpoint on the POSIX layer underneath",
        "4 writes",
        &ckpt_posix.get(P::POSIX_WRITES).to_string(),
        ckpt_posix.get(P::POSIX_WRITES) == 4,
    );
    println!(
        "\nvirtual wall: {:.1}s for 4 ranks × 256 files + 8 allreduces + 1 collective ckpt",
        sim.now().as_secs_f64()
    );
    bench::save_json(
        "ablation_mpi_darshan",
        &serde_json::json!({
            "job_records": job.len(),
            "job_opens": total_opens,
            "job_reads": total_reads,
            "mpiio": mpi_job.iter().map(|(p, o, w, b)| serde_json::json!({
                "path": &**p, "coll_opens": o, "coll_writes": w, "bytes_written": b,
            })).collect::<Vec<_>>(),
        }),
    );
    if !ok {
        std::process::exit(1);
    }
}
