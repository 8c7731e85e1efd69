//! Parallel Darshan's MPI-IO module: each rank's runtime folds the MPI
//! library's probe events into MPI-IO records beside its POSIX records, and
//! `reduce_job` over the ranks' snapshots gives the job view.

use std::sync::Arc;

use tf_darshan::darshan::{
    record_id, reduce_job, DarshanConfig, DarshanLibrary, MpiioCounter as MI, Snapshot,
};
use tf_darshan::mpi::{Comm, MpiWorld, NetworkModel};
use tf_darshan::storage::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
};

/// Run `body` on 4 ranks over `/pfs` (holding a 16 MiB `/pfs/data`), each
/// rank under its own Darshan runtime, and return the ranks' snapshots.
fn run_ranks(
    config: DarshanConfig,
    body: impl Fn(&Comm) + Clone + Send + Sync + 'static,
) -> Vec<Snapshot> {
    let sim = simrt::Sim::new();
    let fs = LocalFs::new(
        Device::new(DeviceSpec::sata_ssd("ssd0")),
        Arc::new(PageCache::new(1 << 30)),
        LocalFsParams::default(),
    );
    let stack = StorageStack::new();
    stack.mount("/pfs", fs.clone() as Arc<dyn FileSystem>);
    fs.create_synthetic("/pfs/data", 16 << 20, 3).unwrap();

    let world = MpiWorld::new(&stack, 4, NetworkModel::default());
    let handles = world.spawn_ranks(&sim, move |comm| {
        let p = comm.process();
        let darshan = DarshanLibrary::new(config.clone());
        darshan.attach(&p).unwrap();
        body(&comm);
        darshan.detach(&p).unwrap();
        darshan.runtime().snapshot()
    });
    sim.run();
    handles.into_iter().map(|h| h.join()).collect()
}

#[test]
fn records_per_rank_and_job_reduction() {
    let snaps = run_ranks(DarshanConfig::default(), |comm| {
        // Each rank: one collective open, two independent reads of its
        // quarter, one collective checkpoint write.
        let fh = comm.file_open("/pfs/data", false).unwrap();
        let chunk = (16u64 << 20) / 8;
        let base = comm.rank() as u64 * 2 * chunk;
        comm.file_read_at(&fh, base, chunk).unwrap();
        comm.file_read_at(&fh, base + chunk, chunk).unwrap();
        comm.file_close(fh).unwrap();

        let ck = comm.file_open("/pfs/ckpt", true).unwrap();
        comm.file_write_at_all(&ck, comm.rank() as u64 * (1 << 20), 1 << 20)
            .unwrap();
        comm.file_close(ck).unwrap();
    });
    let (data, ckpt) = (record_id("/pfs/data"), record_id("/pfs/ckpt"));

    // Per-rank view.
    let r0 = &snaps[0].mpiio;
    assert_eq!(r0.len(), 2);
    let data0 = r0.iter().find(|r| r.rec_id == data).unwrap();
    assert_eq!(data0.get(MI::MPIIO_COLL_OPENS), 1);
    assert_eq!(data0.get(MI::MPIIO_INDEP_READS), 2);
    assert_eq!(data0.get(MI::MPIIO_BYTES_READ), 4 << 20);
    assert_eq!(snaps[0].names.get(data).as_deref(), Some("/pfs/data"));
    // The descriptor I/O beneath is on the POSIX module.
    let posix0 = snaps[0].posix_by_path("/pfs/data").unwrap();
    assert_eq!(
        posix0.get(tf_darshan::darshan::PosixCounter::POSIX_READS),
        2
    );

    // Job view: shared files merged across 4 ranks.
    let job = reduce_job(&snaps.iter().map(|s| s.mpiio.clone()).collect::<Vec<_>>());
    assert_eq!(job.len(), 2);
    let data = job.iter().find(|r| r.rec_id == data).unwrap();
    assert_eq!(data.get(MI::MPIIO_COLL_OPENS), 4);
    assert_eq!(data.get(MI::MPIIO_INDEP_READS), 8);
    assert_eq!(data.get(MI::MPIIO_BYTES_READ), 16 << 20);
    let ckpt = job.iter().find(|r| r.rec_id == ckpt).unwrap();
    assert_eq!(ckpt.get(MI::MPIIO_COLL_WRITES), 4);
    assert_eq!(ckpt.get(MI::MPIIO_BYTES_WRITTEN), 4 << 20);
}

#[test]
fn mpiio_files_past_the_record_cap_set_partial() {
    let config = DarshanConfig {
        max_records_per_module: 2,
        ..Default::default()
    };
    let snaps = run_ranks(config, |comm| {
        for i in 0..3 {
            let fh = comm.file_open(&format!("/pfs/out{i}"), true).unwrap();
            comm.file_write_at(&fh, comm.rank() as u64 * 4096, 4096)
                .unwrap();
            comm.file_close(fh).unwrap();
        }
    });
    for s in &snaps {
        assert_eq!(s.mpiio.len(), 2);
        assert!(s.mpiio_partial);
        // The POSIX module hit the same cap on the same files.
        assert!(s.posix_partial && !s.stdio_partial);
        let held: i64 = s.mpiio.iter().map(|r| r.get(MI::MPIIO_INDEP_WRITES)).sum();
        assert_eq!(held, 2);
    }
}
