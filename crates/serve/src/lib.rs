//! Live multi-tenant observability over streaming tf-Darshan session
//! diffs.
//!
//! The paper's tf-Darshan surfaces fine-grained I/O analysis *per run*,
//! rendered after the fact. This crate adds the fleet view: a
//! long-running daemon that many concurrent training jobs stream their
//! per-session diffs to (the O(changed) output of the incremental
//! snapshot engine), keyed by job id, with rolling per-job and
//! fleet-wide rollups served live over HTTP — Prometheus `/metrics` for
//! scrapers, JSON `/jobs` + `/jobs/<id>/report` for tooling, and a live
//! `/jobs/<id>/html` page per job (the report page tf-Darshan renders,
//! but over the job's whole streamed history while it is still running).
//!
//! Layering (see `DESIGN.md` §3.7):
//! * [`aggregator`] — the pure core: deterministic, testable without
//!   sockets or threads; bounded per-tenant queues (backpressure with
//!   counted drops), bounded file tables, fixed-length bandwidth rings,
//!   tenant cap with idle eviction.
//! * [`sink`] — the job side: [`ServeSink`] numbers each rank's sessions
//!   and publishes them through a [`Publisher`] (in-process
//!   [`LocalPublisher`] or NDJSON-over-TCP [`TcpPublisher`]). A job's live
//!   totals between publications come from its Darshan runtime.
//! * [`daemon`] — the transport shell: two `std::net` listeners (HTTP +
//!   ingest) and a pump thread around a mutexed aggregator. No external
//!   dependencies; the workspace is vendored/offline.
//!
//! The load-bearing invariant is **exactness**: session diffs are
//! additive window deltas, so the daemon's per-job counters equal the
//! job's own final reduced report, u64-exactly — the `serve_gate`
//! workload asserts this across ≥4 concurrent jobs publishing over both
//! transports while a flood test shows backpressure never perturbs other
//! tenants.

pub mod aggregator;
pub mod daemon;
pub mod http;
pub mod sink;

pub use aggregator::{
    Aggregator, AggregatorConfig, BandwidthRing, Enqueue, FleetStats, Footprint, JobAggregate,
};
pub use daemon::{JobSummary, JobsListing, ServeConfig, ServeDaemon, ServeService};
pub use http::http_get;
pub use sink::{LocalPublisher, Publisher, ServeSink, TcpPublisher};
