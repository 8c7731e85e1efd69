//! The fleet-scale workload: the rank dimension at cluster size.
//!
//! The paper's distributed experiments stop at `world_size == 4`; NoPFS
//! (PAPERS.md) is the reference for what distributed ML I/O looks like at
//! real scale — per-node hierarchies, not flat all-to-all. This workload
//! drives every fleet refactor end to end at world sizes up to 4096:
//!
//! * **Node carriers** — ranks are grouped onto nodes
//!   ([`FleetConfig::ranks_per_node`] each); one carrier thread per node
//!   drives its ranks' [`posix_sim::Process`]es through a read epoch
//!   against the node-local SSD, so a 4096-rank job costs 64 OS threads,
//!   not 4096. Every rank reads its node's shared index file — a
//!   64-way shared record, the case parallel Darshan's reduction exists
//!   for — and a **bounded** set of node leaders ([`MANIFEST_READERS`])
//!   read the job manifest off the Lustre scratch. Bounding the
//!   manifest fan-in is itself a fleet refactor: with *every* leader
//!   hitting the shared MDS (13 ms service, 4 threads — the busy
//!   production defaults), metadata queueing grows O(nodes) and eats
//!   the linear scaling this workload exists to prove. Window marks
//!   are collectives too: each carrier start/stop-snapshots its own
//!   rank span (`JobCtx::mark_{start,stop}_span`) so the per-rank
//!   snapshot cost parallelizes over nodes.
//! * **One bus per rank** — every event lands on its rank's own probe
//!   bus. Job-wide consumers register on every rank's bus: per-node dstat
//!   columns feed one counter from a node's ranks, and the sanitizer
//!   ([`FleetConfig::sanitize`]) watches all of them in emission order.
//! * **Tree reduction** — the per-rank sessions are reduced by the
//!   log-depth `spawn_tree_reduce` event task on the same calendar; its
//!   modeled virtual cost (and the flat O(N) cost it replaces) land in
//!   the outcome for the scaling bench and the perf gate.
//!
//! [`run_fleet_scale`] runs one configuration; [`run_fleet_gate`] is the
//! CI shape: 256 ranks, sanitized, expected clean.

use std::sync::Arc;
use std::time::Duration;

use dstat_sim::Dstat;
use iosan::{IoSanitizer, SanitizerReport};
use parking_lot::Mutex;
use posix_sim::OpenFlags;
use simrt::sync::Barrier;
use simrt::{SchedStats, Sim};
use storage_sim::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, LustreFs, LustreParams, PageCache,
    StorageStack,
};
use tfdarshan::job_tree::{spawn_tree_reduce, TreeReduceConfig, TreeReduceHandle, TreeReduceStats};
use tfdarshan::{JobCtx, JobReport, TfDarshanConfig};

/// Shared manifest on the Lustre scratch.
pub const MANIFEST: &str = "/scratch/fleet/manifest.bin";
/// Manifest size (index of the whole dataset).
pub const MANIFEST_BYTES: u64 = 64 << 10;
/// Node leaders that read [`MANIFEST`] off Lustre (the first
/// `min(nodes, MANIFEST_READERS)` nodes). Bounded so shared-MDS
/// metadata pressure stays constant as the fleet grows; the rest of a
/// real fleet would receive the manifest over the interconnect
/// (NoPFS-style) rather than re-fetch it.
pub const MANIFEST_READERS: usize = 4;
/// Per-node shared index (`/node{n}/shared/index`) read by every rank
/// of the node: the many-contributor shared record of the reduction.
pub const NODE_INDEX_BYTES: u64 = 64 << 10;

/// Path of node `n`'s shared index file.
pub fn node_index_path(n: usize) -> String {
    format!("/node{n}/shared/index")
}

/// Fleet run shape.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Total ranks.
    pub world_size: usize,
    /// Ranks driven by one node carrier (and served by one node-local
    /// SSD). The fleet's parallelism axis: nodes run concurrently in
    /// virtual time, ranks within a node serialize on its carrier.
    pub ranks_per_node: usize,
    /// Bytes each rank reads from its private file.
    pub rank_file_bytes: u64,
    /// Install the sanitizer on every rank's bus.
    pub sanitize: bool,
    /// Sample per-node dstat columns during the run.
    pub dstat: bool,
}

impl FleetConfig {
    /// Defaults for `world_size` ranks: 64 ranks/node, 256 KiB per rank,
    /// unsanitized, with dstat columns.
    pub fn new(world_size: usize) -> Self {
        FleetConfig {
            world_size,
            ranks_per_node: 64,
            rank_file_bytes: 256 << 10,
            sanitize: false,
            dstat: true,
        }
    }
}

/// What a fleet run produced.
pub struct FleetOutcome {
    /// Ranks that ran.
    pub world_size: usize,
    /// Node carriers (OS threads) that drove them.
    pub nodes: usize,
    /// Bytes the job read (from the merged job report).
    pub bytes_read: u64,
    /// Virtual seconds of the profiled I/O window.
    pub io_virtual_secs: f64,
    /// Aggregate read bandwidth over the window, MiB per virtual second.
    pub aggregate_read_mib_s: f64,
    /// The tree reduction's cost model: levels, pairwise merges, modeled
    /// virtual time, and the flat-merge time it replaces.
    pub reduce: TreeReduceStats,
    /// The merged job report.
    pub report: JobReport,
    /// Scheduler counters of the run.
    pub stats: SchedStats,
    /// Peak resident set (`VmHWM`) of this process in KiB, off procfs.
    pub peak_rss_kib: Option<u64>,
    /// Per-node dstat read-byte totals over the run (node order), when
    /// [`FleetConfig::dstat`] was set.
    pub node_read_totals: Vec<u64>,
    /// Sanitizer verdict over every rank's events, when sanitized.
    pub sanitizer: Option<SanitizerReport>,
}

/// Peak resident set size (`VmHWM:`) in KiB from `/proc/self/status`.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Build the fleet cluster: one node-local SSD mount per node
/// (`/node{i}`), plus the shared Lustre scratch, on one mount table.
fn fleet_stack(nodes: usize) -> (StorageStack, Vec<Arc<Device>>) {
    let stack = StorageStack::new();
    let cache = Arc::new(PageCache::new(8 << 30));
    let mut devices = Vec::with_capacity(nodes);
    for n in 0..nodes {
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd(&format!("nssd{n}"))),
            cache.clone(),
            LocalFsParams::default(),
        );
        devices.push(fs.device().clone());
        stack.mount(format!("/node{n}"), fs as Arc<dyn FileSystem>);
    }
    let lustre = LustreFs::new(LustreParams::default(), cache);
    stack.mount("/scratch", lustre as Arc<dyn FileSystem>);
    (stack, devices)
}

/// Run one fleet configuration to completion (I/O epoch, then the tree
/// reduction, on one calendar).
pub fn run_fleet_scale(cfg: &FleetConfig) -> FleetOutcome {
    assert!(cfg.world_size > 0 && cfg.ranks_per_node > 0);
    let nodes = cfg.world_size.div_ceil(cfg.ranks_per_node);
    let sim = Sim::new();
    let (stack, devices) = fleet_stack(nodes);

    for r in 0..cfg.world_size {
        let node = r / cfg.ranks_per_node;
        stack
            .create_synthetic(
                &format!("/node{node}/r{r}/data"),
                cfg.rank_file_bytes,
                r as u64,
            )
            .unwrap();
    }
    for n in 0..nodes {
        stack
            .create_synthetic(&node_index_path(n), NODE_INDEX_BYTES, 1000 + n as u64)
            .unwrap();
    }
    stack.create_synthetic(MANIFEST, MANIFEST_BYTES, 7).unwrap();

    let job = Arc::new(JobCtx::new(
        &stack,
        cfg.world_size,
        &TfDarshanConfig::default(),
    ));
    let san = cfg.sanitize.then(|| {
        let buses: Vec<_> = job.ranks().iter().map(|r| r.probe()).collect();
        IoSanitizer::install(&sim, &buses)
    });
    let dstat = cfg.dstat.then(|| {
        let d = Arc::new(Dstat::spawn(&sim, devices, Duration::from_millis(10)));
        for r in job.ranks() {
            let node = r.rank() as usize / cfg.ranks_per_node;
            d.attach_keyed_spine(node as u32, r.probe());
        }
        d
    });

    let barrier = Arc::new(Barrier::new(nodes));
    let reduce_slot: Arc<Mutex<Option<TreeReduceHandle>>> = Arc::new(Mutex::new(None));
    for n in 0..nodes {
        let job = job.clone();
        let barrier = barrier.clone();
        let sim2 = sim.clone();
        let reduce_slot = reduce_slot.clone();
        let dstat = dstat.clone();
        let cfg = cfg.clone();
        sim.spawn(format!("node{n}"), move || {
            let lo = n * cfg.ranks_per_node;
            let hi = ((n + 1) * cfg.ranks_per_node).min(cfg.world_size);
            // Window marks are collectives: every carrier snapshots its
            // own rank span, so the per-rank snapshot cost parallelizes
            // over nodes instead of serializing on one carrier (the
            // flat-job shape, which stretched the measured window by
            // O(world_size)).
            job.mark_start_span(lo, hi)
                .expect("tf-darshan attached on every rank");
            barrier.wait();

            // Bounded manifest fan-in: only the first MANIFEST_READERS
            // node leaders hit the shared Lustre MDS, so the job's
            // metadata pressure on the scratch stays constant with node
            // count — and the manifest still merges as a cross-node
            // shared record at the root of the tree.
            if n < MANIFEST_READERS {
                let p = job.rank(lo).process();
                let fd = p.open(MANIFEST, OpenFlags::rdonly()).unwrap();
                p.read(fd, MANIFEST_BYTES, None).unwrap();
                p.close(fd).unwrap();
            }
            // Every rank reads the node's shared index (a
            // ranks_per_node-way shared record served at memory speed
            // after the first rank faults it in) and then its private
            // file off the node-local SSD. Ranks serialize on their
            // carrier — per-node virtual time is what a real node's I/O
            // subsystem would take — while the nodes run concurrently.
            let index = node_index_path(n);
            for r in lo..hi {
                let p = job.rank(r).process();
                let fd = p.open(&index, OpenFlags::rdonly()).unwrap();
                p.read(fd, NODE_INDEX_BYTES, None).unwrap();
                p.close(fd).unwrap();
                let path = format!("/node{n}/r{r}/data");
                let fd = p.open(&path, OpenFlags::rdonly()).unwrap();
                p.read(fd, cfg.rank_file_bytes, None).unwrap();
                p.close(fd).unwrap();
            }

            barrier.wait();
            job.mark_stop_span(lo, hi);
            barrier.wait();
            if n == 0 {
                if let Some(d) = &dstat {
                    d.stop();
                }
                // Reduce on the same calendar: the log-depth event task
                // starts where the I/O window ended.
                let sessions: Vec<_> = job
                    .ranks()
                    .iter()
                    .map(|r| r.session().expect("window closed on every rank"))
                    .collect();
                *reduce_slot.lock() = Some(spawn_tree_reduce(
                    &sim2,
                    sessions,
                    cfg.world_size as u32,
                    TreeReduceConfig::default(),
                ));
            }
        });
    }
    sim.run();

    let handle = reduce_slot
        .lock()
        .take()
        .expect("node 0 spawned the reduce");
    let (report, reduce) = handle.take().expect("reduce ran to completion");
    let (w0, w1) = report.job.window;
    let io_virtual_secs = (w1 - w0).max(f64::EPSILON);
    let bytes_read = report.job.io.bytes_read;
    let node_read_totals = dstat
        .map(|d| {
            let samples = d.samples();
            (0..nodes as u32)
                .map(|n| samples.iter().map(|smp| smp.keyed_read(n)).sum())
                .collect()
        })
        .unwrap_or_default();

    FleetOutcome {
        world_size: cfg.world_size,
        nodes,
        bytes_read,
        io_virtual_secs,
        aggregate_read_mib_s: bytes_read as f64 / (1024.0 * 1024.0) / io_virtual_secs,
        reduce,
        report,
        stats: sim.stats(),
        peak_rss_kib: peak_rss_kib(),
        node_read_totals,
        sanitizer: san.map(|s| s.finalize()),
    }
}

/// The CI gate shape: `world_size` ranks, sanitized, dstat node columns
/// on. CI runs this at 256 ranks and fails on any finding.
pub fn run_fleet_gate(world_size: usize) -> FleetOutcome {
    let cfg = FleetConfig {
        sanitize: true,
        ..FleetConfig::new(world_size)
    };
    run_fleet_scale(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_gate_is_clean_at_128_ranks() {
        // The full 256-rank gate runs as a CI example; keep the in-tree
        // test a notch smaller so `cargo test` stays quick.
        let out = run_fleet_gate(128);
        let san = out.sanitizer.as_ref().expect("ran sanitized");
        assert!(san.is_clean(), "findings: {}", san.render_ascii());
        assert_eq!(out.report.world_size, 128);
        assert_eq!(out.report.per_rank.len(), 128);
        assert!(out.report.missing_ranks.is_empty());
        assert_eq!(out.nodes, 2);
        // The manifest (read by both node leaders) merged into one
        // shared record, as did each node's 64-contributor index.
        let count = |path: &str| {
            out.report
                .job
                .files
                .iter()
                .filter(|f| f.path == path)
                .count()
        };
        assert_eq!(count(MANIFEST), 1, "shared manifest merged once");
        assert_eq!(count(&node_index_path(0)), 1, "node 0 index merged once");
        assert_eq!(count(&node_index_path(1)), 1, "node 1 index merged once");
        // Private bytes + per-rank index reads + both leaders' manifest.
        assert!(out.bytes_read >= 128 * ((256 << 10) + NODE_INDEX_BYTES) + 2 * MANIFEST_BYTES);
        // Node columns attributed the traffic (64 ranks/node -> 2).
        assert_eq!(out.node_read_totals.len(), 2);
        assert!(out.node_read_totals.iter().all(|&b| b > 0));
    }

    #[test]
    fn nodes_scale_bandwidth_and_reduce_stays_logarithmic() {
        let run = |ws: usize| {
            let cfg = FleetConfig {
                dstat: false,
                ..FleetConfig::new(ws)
            };
            run_fleet_scale(&cfg)
        };
        let at64 = run(64);
        let at256 = run(256);
        // 4x the nodes: at least 2.8x the aggregate bandwidth (0.7x
        // linear — the shared manifest and barrier cost the difference).
        let linear = at64.aggregate_read_mib_s * 4.0;
        assert!(
            at256.aggregate_read_mib_s >= 0.7 * linear,
            "64 ranks: {:.1} MiB/s, 256 ranks: {:.1} MiB/s (linear would be {:.1})",
            at64.aggregate_read_mib_s,
            at256.aggregate_read_mib_s,
            linear
        );
        // Tree reduce grows by levels, not leaves.
        assert!(at256.reduce.levels <= at64.reduce.levels + 2);
        assert!(at256.reduce.modeled < at256.reduce.modeled_flat);
    }
}
