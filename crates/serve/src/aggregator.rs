//! The pure aggregation core: rolling multi-tenant rollups over streaming
//! session diffs, with bounded per-tenant memory.
//!
//! Everything in this module is deterministic — no wall clock, no I/O, no
//! threads. Time comes from two places only: the *virtual* window
//! timestamps inside each message (which drive the per-job bandwidth
//! ring), and a logical **ingest tick** that advances once per delivered
//! message (which drives idle-tenant eviction). The transport layer
//! ([`crate::daemon`]) owns the locks and sockets; tests drive this type
//! directly and get byte-identical state for byte-identical input.
//!
//! Memory is bounded per tenant and in tenant count:
//! * the ingest queue holds at most `queue_capacity` undrained messages —
//!   beyond that, *new* messages for the hot tenant are dropped and
//!   counted (never unbounded growth, never impact on other tenants);
//! * the merged file table is pruned back to `top_files` rows (by bytes
//!   read) whenever it doubles;
//! * the bandwidth ring has a fixed `slots` length;
//! * at most `max_jobs` tenants exist — admitting a new job beyond the cap
//!   evicts the longest-idle tenant (and `idle_ticks`, when nonzero,
//!   additionally reaps tenants that stopped publishing).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use tfdarshan::analysis::{FileActivity, IoStats, StdioStats};
use tfdarshan::wire::{SessionDiffMsg, WIRE_VERSION};
use tfdarshan::TfDarshanReport;

/// Tuning knobs of the aggregation core.
#[derive(Clone, Debug)]
pub struct AggregatorConfig {
    /// Hard tenant cap. Admitting a job beyond this evicts the
    /// longest-idle existing tenant first.
    pub max_jobs: usize,
    /// Evict tenants whose last update is more than this many ingest
    /// ticks in the past (checked on every delivery). `0` disables
    /// idle reaping (the cap still bounds memory).
    pub idle_ticks: u64,
    /// Width of one bandwidth-ring slot, in virtual seconds.
    pub slot_secs: f64,
    /// Bandwidth-ring length per tenant.
    pub slots: usize,
    /// Per-tenant file-table bound: the merged table is pruned back to
    /// this many rows (largest `bytes_read` first) when it reaches twice
    /// the bound.
    pub top_files: usize,
    /// Per-tenant ingest queue bound (backpressure: excess is dropped and
    /// counted, see [`Enqueue::Dropped`]).
    pub queue_capacity: usize,
    /// Messages applied per tenant per [`Aggregator::pump`] round.
    pub pump_budget: usize,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            max_jobs: 1024,
            idle_ticks: 0,
            slot_secs: 1.0,
            slots: 64,
            top_files: 50,
            queue_capacity: 256,
            pump_budget: 64,
        }
    }
}

/// Outcome of offering one message to the ingest queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Accepted into the tenant's queue.
    Queued,
    /// The tenant's queue was full; the message was dropped and counted.
    Dropped,
    /// Unknown wire version; rejected and counted.
    Rejected,
}

/// Fixed-length ring of `(slot index, bytes read, bytes written)` keyed by
/// virtual time: slot `i` covers `[i·slot_secs, (i+1)·slot_secs)`. Session
/// windows land in the slot of their *end* timestamp (completion-ordered,
/// like the DXT-derived `bandwidth_series`).
#[derive(Clone, Debug)]
pub struct BandwidthRing {
    slot_secs: f64,
    ring: VecDeque<(u64, u64, u64)>,
    cap: usize,
}

impl BandwidthRing {
    fn new(slot_secs: f64, cap: usize) -> Self {
        BandwidthRing {
            slot_secs,
            ring: VecDeque::with_capacity(cap),
            cap: cap.max(1),
        }
    }

    fn add(&mut self, end: f64, bytes_read: u64, bytes_written: u64) {
        let slot = (end.max(0.0) / self.slot_secs) as u64;
        // Sessions arrive roughly end-time ordered per tenant; merge into
        // an existing slot wherever it still lives in the ring.
        if let Some(e) = self.ring.iter_mut().rev().find(|e| e.0 == slot) {
            e.1 += bytes_read;
            e.2 += bytes_written;
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back((slot, bytes_read, bytes_written));
    }

    /// The rolled-up timeline: `(slot end time, read MiB/s, write MiB/s)`.
    pub fn series(&self) -> Vec<(f64, f64, f64)> {
        let mib = 1024.0 * 1024.0;
        self.ring
            .iter()
            .map(|&(slot, r, w)| {
                (
                    (slot + 1) as f64 * self.slot_secs,
                    r as f64 / mib / self.slot_secs,
                    w as f64 / mib / self.slot_secs,
                )
            })
            .collect()
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no slot is occupied yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// Rolling per-job rollup of everything the job has streamed so far.
#[derive(Clone, Debug)]
pub struct JobAggregate {
    /// The job id (tenant key), exactly as supplied on the wire.
    pub job: String,
    /// Sessions applied.
    pub sessions: u64,
    /// Distinct ranks seen.
    pub ranks: BTreeSet<u32>,
    /// Union of all session windows `[min start, max stop]`.
    pub window: (f64, f64),
    /// Accumulated POSIX counters (bandwidths recomputed over the union
    /// window on read).
    pub io: IoStats,
    /// Accumulated STDIO counters.
    pub stdio: StdioStats,
    /// Merged per-file table, pruned to the configured bound.
    pub files: HashMap<String, FileActivity>,
    /// Merged read-size tallies (from the sessions' top-4 lists, so a
    /// rolling approximation, exact when sessions have ≤ 4 distinct
    /// sizes).
    pub read_sizes: BTreeMap<u64, u64>,
    /// Time-windowed bandwidth rollup.
    pub ring: BandwidthRing,
    /// Sanitizer summaries summed over all sessions (findings, errors,
    /// warnings, events), categories as their sorted union; `None` until a
    /// session carries one.
    pub sanitizer: Option<iosan::SanitizerSummary>,
    /// Last scheduler gauge the job reported.
    pub scheduler: Option<simrt::SchedStats>,
    /// Diffs dropped for this tenant by queue backpressure.
    pub dropped: u64,
    /// Sequence gaps detected (messages the publisher numbered but the
    /// daemon never saw — lost upstream, not in our queue).
    pub seq_gaps: u64,
    /// Per-rank next expected sequence number.
    next_seq: HashMap<u32, u64>,
    /// Ingest tick of the last applied or queued message.
    pub last_update: u64,
}

impl JobAggregate {
    fn new(job: String, cfg: &AggregatorConfig, tick: u64) -> Self {
        JobAggregate {
            job,
            sessions: 0,
            ranks: BTreeSet::new(),
            window: (f64::INFINITY, f64::NEG_INFINITY),
            io: IoStats::default(),
            stdio: StdioStats::default(),
            files: HashMap::new(),
            read_sizes: BTreeMap::new(),
            ring: BandwidthRing::new(cfg.slot_secs, cfg.slots),
            sanitizer: None,
            scheduler: None,
            dropped: 0,
            seq_gaps: 0,
            next_seq: HashMap::new(),
            last_update: tick,
        }
    }

    fn apply(&mut self, msg: &SessionDiffMsg, top_files: usize) {
        let r = &msg.report;
        self.sessions += 1;
        self.ranks.insert(msg.rank);
        self.window.0 = self.window.0.min(r.window.0);
        self.window.1 = self.window.1.max(r.window.1);

        let io = &mut self.io;
        let s = &r.io;
        io.files_opened += s.files_opened;
        io.files_active += s.files_active;
        io.opens += s.opens;
        io.reads += s.reads;
        io.writes += s.writes;
        io.seeks += s.seeks;
        io.stats += s.stats;
        io.bytes_read += s.bytes_read;
        io.bytes_written += s.bytes_written;
        io.seq_reads += s.seq_reads;
        io.consec_reads += s.consec_reads;
        io.zero_reads += s.zero_reads;
        for b in 0..10 {
            io.read_size_hist[b] += s.read_size_hist[b];
            io.write_size_hist[b] += s.write_size_hist[b];
            io.file_size_hist[b] += s.file_size_hist[b];
        }
        io.read_time += s.read_time;
        io.meta_time += s.meta_time;
        io.partial |= s.partial;
        for &(size, count) in &s.common_read_sizes {
            *self.read_sizes.entry(size).or_default() += count;
        }

        let st = &mut self.stdio;
        st.opens += r.stdio.opens;
        st.writes += r.stdio.writes;
        st.reads += r.stdio.reads;
        st.bytes_written += r.stdio.bytes_written;
        st.bytes_read += r.stdio.bytes_read;
        st.flushes += r.stdio.flushes;

        for f in &r.files {
            match self.files.get_mut(&f.path) {
                Some(e) => {
                    e.reads += f.reads;
                    e.bytes_read += f.bytes_read;
                    e.apparent_size = e.apparent_size.max(f.apparent_size);
                    e.read_time += f.read_time;
                }
                None => {
                    self.files.insert(f.path.clone(), f.clone());
                }
            }
        }
        if self.files.len() >= top_files.max(1) * 2 {
            self.prune_files(top_files.max(1));
        }

        self.ring.add(r.window.1, s.bytes_read, s.bytes_written);

        if let Some(sz) = &r.sanitizer {
            let acc = self.sanitizer.get_or_insert_with(Default::default);
            acc.findings += sz.findings;
            acc.errors += sz.errors;
            acc.warnings += sz.warnings;
            acc.events_analyzed += sz.events_analyzed;
            for c in &sz.categories {
                if let Err(at) = acc.categories.binary_search(c) {
                    acc.categories.insert(at, c.clone());
                }
            }
        }
        if r.scheduler.is_some() {
            self.scheduler = r.scheduler;
        }

        let expected = self.next_seq.entry(msg.rank).or_insert(0);
        if msg.seq > *expected {
            self.seq_gaps += msg.seq - *expected;
        }
        *expected = (*expected).max(msg.seq + 1);
    }

    fn prune_files(&mut self, keep: usize) {
        if self.files.len() <= keep {
            return;
        }
        let mut rows: Vec<(&String, u64)> =
            self.files.iter().map(|(p, f)| (p, f.bytes_read)).collect();
        // Largest first; path as tie-break so pruning is deterministic.
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let cut: Vec<String> = rows[keep..].iter().map(|(p, _)| (*p).clone()).collect();
        for p in cut {
            self.files.remove(&p);
        }
    }

    /// The union window (`(0, 0)` before the first session) and its
    /// length in seconds.
    fn union_window(&self) -> ((f64, f64), f64) {
        let w = if self.sessions == 0 {
            (0.0, 0.0)
        } else {
            self.window
        };
        (w, (w.1 - w.0).max(0.0))
    }

    /// MiB/s of `bytes` over the union window (0 over an empty window):
    /// the report's bandwidths and the `/metrics` gauge.
    fn mibps(&self, bytes: u64) -> f64 {
        let secs = self.union_window().1;
        if secs > 0.0 {
            bytes as f64 / (1024.0 * 1024.0) / secs
        } else {
            0.0
        }
    }

    /// The job's rolled-up report — what `/jobs/<id>/report` and the live
    /// HTML page render. Counters are the exact sums of every applied
    /// session diff; bandwidths are recomputed over the union window.
    pub fn report(&self) -> TfDarshanReport {
        let mut io = self.io.clone();
        let (window, window_secs) = self.union_window();
        io.window_secs = window_secs;
        io.read_bandwidth_mibps = self.mibps(io.bytes_read);
        io.write_bandwidth_mibps = self.mibps(io.bytes_written);
        let mut sizes: Vec<(u64, u64)> = self.read_sizes.iter().map(|(&s, &c)| (s, c)).collect();
        sizes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        sizes.truncate(4);
        io.common_read_sizes = sizes;

        let mut files: Vec<FileActivity> = self.files.values().cloned().collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));

        TfDarshanReport {
            window,
            io,
            stdio: self.stdio.clone(),
            files,
            // All-zero summaries (sanitized, nothing analyzed) report nothing.
            sanitizer: self
                .sanitizer
                .as_ref()
                .filter(|s| s.findings + s.events_analyzed > 0)
                .cloned(),
            scheduler: self.scheduler,
            // Exploration runs offline, never over the live diff stream.
            explore: None,
        }
    }
}

/// Fleet-wide counters (survive tenant eviction).
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetStats {
    /// Messages applied into some tenant's rollup.
    pub ingested: u64,
    /// Messages dropped by per-tenant queue backpressure.
    pub dropped: u64,
    /// Messages rejected for an unknown wire version.
    pub wire_rejects: u64,
    /// Tenants evicted (cap overflow or idle reaping).
    pub evicted: u64,
    /// Bytes read across every applied session of every job ever seen.
    pub bytes_read: u64,
    /// Bytes written, fleet-wide.
    pub bytes_written: u64,
}

/// Deterministic memory footprint of the aggregator, in countable units —
/// what the flood test bounds instead of allocator bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Live tenants.
    pub tenants: usize,
    /// Undrained queued messages across all tenants.
    pub queued_msgs: usize,
    /// Merged file-table rows across all tenants.
    pub file_rows: usize,
    /// Occupied bandwidth-ring slots across all tenants.
    pub ring_slots: usize,
}

/// The multi-tenant aggregation core. See the module docs for the
/// determinism and boundedness contract.
pub struct Aggregator {
    cfg: AggregatorConfig,
    tick: u64,
    tenants: HashMap<String, Tenant>,
    fleet: FleetStats,
}

struct Tenant {
    queue: VecDeque<SessionDiffMsg>,
    agg: JobAggregate,
}

impl Aggregator {
    /// Fresh aggregator.
    pub fn new(cfg: AggregatorConfig) -> Self {
        assert!(cfg.slot_secs > 0.0 && cfg.slots > 0 && cfg.max_jobs > 0);
        Aggregator {
            cfg,
            tick: 0,
            tenants: HashMap::new(),
            fleet: FleetStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AggregatorConfig {
        &self.cfg
    }

    /// Offer one message: version-check, admit (evicting if at the tenant
    /// cap), and queue under the tenant's backpressure bound.
    pub fn enqueue(&mut self, msg: SessionDiffMsg) -> Enqueue {
        self.tick += 1;
        if msg.v != WIRE_VERSION {
            self.fleet.wire_rejects += 1;
            return Enqueue::Rejected;
        }
        self.reap_idle();
        if !self.tenants.contains_key(&msg.job) && self.tenants.len() >= self.cfg.max_jobs {
            self.evict_most_idle();
        }
        let tick = self.tick;
        let tenant = self
            .tenants
            .entry(msg.job.clone())
            .or_insert_with(|| Tenant {
                queue: VecDeque::new(),
                agg: JobAggregate::new(msg.job.clone(), &self.cfg, tick),
            });
        tenant.agg.last_update = tick;
        if tenant.queue.len() >= self.cfg.queue_capacity {
            tenant.agg.dropped += 1;
            self.fleet.dropped += 1;
            return Enqueue::Dropped;
        }
        tenant.queue.push_back(msg);
        Enqueue::Queued
    }

    /// Drain up to `pump_budget` queued messages per tenant into the
    /// rollups (tenants visited in sorted-id order: deterministic).
    /// Returns the number applied.
    pub fn pump(&mut self) -> usize {
        let ids: Vec<String> = {
            let mut v: Vec<&String> = self.tenants.keys().collect();
            v.sort();
            v.into_iter().cloned().collect()
        };
        let mut applied = 0;
        for id in ids {
            applied += self.pump_tenant(&id, self.cfg.pump_budget);
        }
        applied
    }

    /// Drain every queue to empty. Returns the number applied.
    pub fn pump_to_empty(&mut self) -> usize {
        let mut total = 0;
        loop {
            let n = self.pump();
            total += n;
            if n == 0 {
                return total;
            }
        }
    }

    fn pump_tenant(&mut self, id: &str, budget: usize) -> usize {
        let Some(t) = self.tenants.get_mut(id) else {
            return 0;
        };
        let mut applied = 0;
        while applied < budget {
            let Some(msg) = t.queue.pop_front() else {
                break;
            };
            t.agg.apply(&msg, self.cfg.top_files);
            self.fleet.ingested += 1;
            self.fleet.bytes_read += msg.report.io.bytes_read;
            self.fleet.bytes_written += msg.report.io.bytes_written;
            applied += 1;
        }
        applied
    }

    /// Enqueue and immediately drain this tenant — the synchronous
    /// in-process path (tests, benches, the local publisher fast path).
    pub fn ingest(&mut self, msg: SessionDiffMsg) -> Enqueue {
        let job = msg.job.clone();
        let r = self.enqueue(msg);
        if r == Enqueue::Queued {
            self.pump_tenant(&job, usize::MAX);
        }
        r
    }

    fn reap_idle(&mut self) {
        if self.cfg.idle_ticks == 0 {
            return;
        }
        let horizon = self.tick.saturating_sub(self.cfg.idle_ticks);
        let stale: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, t)| t.agg.last_update < horizon)
            .map(|(id, _)| id.clone())
            .collect();
        for id in stale {
            self.tenants.remove(&id);
            self.fleet.evicted += 1;
        }
    }

    fn evict_most_idle(&mut self) {
        // Oldest last_update first; id as tie-break for determinism.
        let victim = self
            .tenants
            .iter()
            .min_by(|a, b| {
                a.1.agg
                    .last_update
                    .cmp(&b.1.agg.last_update)
                    .then_with(|| a.0.cmp(b.0))
            })
            .map(|(id, _)| id.clone());
        if let Some(id) = victim {
            self.tenants.remove(&id);
            self.fleet.evicted += 1;
        }
    }

    /// Live tenant ids, sorted.
    pub fn job_ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tenants.keys().cloned().collect();
        v.sort();
        v
    }

    /// A tenant's rollup.
    pub fn job(&self, id: &str) -> Option<&JobAggregate> {
        self.tenants.get(id).map(|t| &t.agg)
    }

    /// Fleet-wide counters.
    pub fn fleet(&self) -> FleetStats {
        self.fleet
    }

    /// Current logical ingest tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Countable memory footprint (see [`Footprint`]).
    pub fn footprint(&self) -> Footprint {
        Footprint {
            tenants: self.tenants.len(),
            queued_msgs: self.tenants.values().map(|t| t.queue.len()).sum(),
            file_rows: self.tenants.values().map(|t| t.agg.files.len()).sum(),
            ring_slots: self.tenants.values().map(|t| t.agg.ring.len()).sum(),
        }
    }

    /// Render the Prometheus text exposition of the whole aggregator
    /// (fleet counters first, then per-job families, jobs sorted by raw id).
    ///
    /// One scrape sorts the tenants once, escapes each id once and writes
    /// into one buffer sized up front; only the bandwidth gauge goes
    /// through `core::fmt`.
    pub fn render_metrics(&self) -> String {
        let f = &self.fleet;
        let fleet: [(&str, &str, &str, u64); 7] = [
            (
                "tfdarshan_jobs_live",
                "Live tenants.",
                "gauge",
                self.tenants.len() as u64,
            ),
            (
                "tfdarshan_diffs_ingested_total",
                "Session diffs applied into rollups.",
                "counter",
                f.ingested,
            ),
            (
                "tfdarshan_diffs_dropped_total",
                "Session diffs dropped by per-tenant backpressure.",
                "counter",
                f.dropped,
            ),
            (
                "tfdarshan_wire_rejects_total",
                "Messages rejected for an unknown wire version.",
                "counter",
                f.wire_rejects,
            ),
            (
                "tfdarshan_jobs_evicted_total",
                "Tenants evicted (cap overflow or idle).",
                "counter",
                f.evicted,
            ),
            (
                "tfdarshan_bytes_read_total",
                "Fleet-wide bytes read across all applied sessions.",
                "counter",
                f.bytes_read,
            ),
            (
                "tfdarshan_bytes_written_total",
                "Fleet-wide bytes written.",
                "counter",
                f.bytes_written,
            ),
        ];
        let mut jobs: Vec<(&str, Cow<'_, str>, &JobAggregate)> = self
            .tenants
            .iter()
            .map(|(id, t)| (id.as_str(), label_escape(id), &t.agg))
            .collect();
        jobs.sort_unstable_by(|a, b| a.0.cmp(b.0));

        // Every line is a header or `name{job="<label>"} <value>` with a
        // value of at most 20 digits (the gauge's `{:.6}` fits too, short
        // of absurd rates); the slack covers lines callers append.
        let headers =
            |name: &str, help: &str, kind: &str| 16 + 2 * name.len() + help.len() + kind.len();
        let labels: usize = jobs.iter().map(|j| j.1.len()).sum();
        let capacity = 256
            + fleet
                .iter()
                .map(|&(n, h, k, _)| headers(n, h, k) + n.len() + 22)
                .sum::<usize>()
            + JOB_FAMILIES
                .iter()
                .map(|&(n, h, k, _)| headers(n, h, k) + jobs.len() * (n.len() + 32) + labels)
                .sum::<usize>();
        let mut out = String::with_capacity(capacity);

        for (name, help, kind, v) in fleet {
            push_family(&mut out, name, help, kind);
            out.push_str(name);
            out.push(' ');
            push_u64(&mut out, v);
            out.push('\n');
        }
        for &(name, help, kind, push_value) in JOB_FAMILIES {
            push_family(&mut out, name, help, kind);
            for (_, label, agg) in &jobs {
                out.push_str(name);
                out.push_str("{job=\"");
                out.push_str(label);
                out.push_str("\"} ");
                push_value(&mut out, agg);
                out.push('\n');
            }
        }
        out
    }
}

/// Writes one per-job sample value.
type PushValue = fn(&mut String, &JobAggregate);

/// The per-job `/metrics` families, in exposition order: name, help, type
/// and the value each tenant contributes.
const JOB_FAMILIES: &[(&str, &str, &str, PushValue)] = &[
    (
        "tfdarshan_job_sessions_total",
        "Sessions applied for this job.",
        "counter",
        |o, a| push_u64(o, a.sessions),
    ),
    (
        "tfdarshan_job_ranks",
        "Distinct ranks seen for this job.",
        "gauge",
        |o, a| push_u64(o, a.ranks.len() as u64),
    ),
    (
        "tfdarshan_job_bytes_read_total",
        "Bytes read by this job across its sessions.",
        "counter",
        |o, a| push_u64(o, a.io.bytes_read),
    ),
    (
        "tfdarshan_job_bytes_written_total",
        "Bytes written by this job.",
        "counter",
        |o, a| push_u64(o, a.io.bytes_written),
    ),
    (
        "tfdarshan_job_reads_total",
        "POSIX reads by this job.",
        "counter",
        |o, a| push_u64(o, a.io.reads),
    ),
    (
        "tfdarshan_job_writes_total",
        "POSIX writes by this job.",
        "counter",
        |o, a| push_u64(o, a.io.writes),
    ),
    (
        "tfdarshan_job_opens_total",
        "POSIX opens by this job.",
        "counter",
        |o, a| push_u64(o, a.io.opens),
    ),
    (
        "tfdarshan_job_dropped_total",
        "Diffs dropped for this tenant by backpressure.",
        "counter",
        |o, a| push_u64(o, a.dropped),
    ),
    (
        "tfdarshan_job_seq_gaps_total",
        "Sequence gaps detected in this job's stream.",
        "counter",
        |o, a| push_u64(o, a.seq_gaps),
    ),
    (
        "tfdarshan_job_read_bandwidth_mibps",
        "Read bandwidth over the job's union window, MiB/s.",
        "gauge",
        |o, a| {
            use std::fmt::Write as _;
            let _ = write!(o, "{:.6}", a.mibps(a.io.bytes_read));
        },
    ),
    (
        "tfdarshan_job_sanitizer_findings_total",
        "iosan findings reported by this job.",
        "counter",
        |o, a| push_u64(o, a.sanitizer.as_ref().map_or(0, |s| s.findings)),
    ),
    (
        "tfdarshan_job_sched_peak_live_tasks",
        "Last reported scheduler peak of concurrently live tasks.",
        "gauge",
        |o, a| push_u64(o, a.scheduler.map_or(0, |s| s.peak_live_tasks as u64)),
    ),
];

/// The `# HELP` and `# TYPE` lines of one family.
fn push_family(out: &mut String, name: &str, help: &str, kind: &str) {
    for (tag, text) in [("# HELP ", help), ("# TYPE ", kind)] {
        out.push_str(tag);
        out.push_str(name);
        out.push(' ');
        out.push_str(text);
        out.push('\n');
    }
}

/// Decimal digits of `v`, without `core::fmt`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Escape a Prometheus label value (backslash, double quote, newline);
/// borrows when there is nothing to escape.
pub fn label_escape(s: &str) -> Cow<'_, str> {
    if !s.contains(['\\', '"', '\n']) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfdarshan::wire::WIRE_VERSION;

    fn msg(job: &str, rank: u32, seq: u64, bytes: u64, end: f64) -> SessionDiffMsg {
        let mut report = TfDarshanReport {
            window: (end - 1.0, end),
            ..Default::default()
        };
        report.io.reads = 2;
        report.io.bytes_read = bytes;
        report.io.read_size_hist[3] = 2;
        report.files = vec![FileActivity {
            path: format!("/data/{job}/f{seq}"),
            reads: 2,
            bytes_read: bytes,
            apparent_size: bytes,
            read_time: 0.01,
        }];
        SessionDiffMsg {
            v: WIRE_VERSION,
            job: job.into(),
            rank,
            seq,
            report,
        }
    }

    #[test]
    fn counters_sum_exactly_across_sessions_and_ranks() {
        let mut agg = Aggregator::new(AggregatorConfig::default());
        for seq in 0..5 {
            assert_eq!(
                agg.ingest(msg("a", 0, seq, 1000, seq as f64 + 1.0)),
                Enqueue::Queued
            );
            assert_eq!(
                agg.ingest(msg("a", 1, seq, 500, seq as f64 + 1.5)),
                Enqueue::Queued
            );
        }
        let a = agg.job("a").unwrap();
        assert_eq!(a.sessions, 10);
        assert_eq!(a.ranks.len(), 2);
        assert_eq!(a.io.bytes_read, 5 * 1500);
        assert_eq!(a.io.reads, 20);
        assert_eq!(a.seq_gaps, 0);
        let r = a.report();
        assert_eq!(r.io.bytes_read, 7500);
        assert_eq!(r.io.read_size_hist[3], 20);
        assert!((r.window.0 - 0.0).abs() < 1e-9 && (r.window.1 - 5.5).abs() < 1e-9);
        assert!(r.io.read_bandwidth_mibps > 0.0);
        let fleet = agg.fleet();
        assert_eq!(fleet.ingested, 10);
        assert_eq!(fleet.bytes_read, 7500);
    }

    #[test]
    fn backpressure_drops_only_the_hot_tenant() {
        let mut agg = Aggregator::new(AggregatorConfig {
            queue_capacity: 8,
            ..Default::default()
        });
        // Flood tenant "hot" without pumping; interleave tenant "cold".
        let mut cold_sent = 0u64;
        for i in 0..1000u64 {
            agg.enqueue(msg("hot", 0, i, 10, i as f64));
            if i % 200 == 0 {
                agg.enqueue(msg("cold", 0, cold_sent, 7, i as f64));
                cold_sent += 1;
            }
        }
        let fp = agg.footprint();
        assert!(fp.queued_msgs <= 2 * 8, "queues stay bounded: {fp:?}");
        assert_eq!(agg.fleet().dropped, 1000 - 8);
        agg.pump_to_empty();
        let cold = agg.job("cold").unwrap();
        assert_eq!(cold.sessions, cold_sent, "cold tenant lost nothing");
        assert_eq!(cold.io.bytes_read, cold_sent * 7);
        assert_eq!(cold.dropped, 0);
        let hot = agg.job("hot").unwrap();
        assert_eq!(hot.sessions, 8, "hot tenant kept only its queue bound");
        assert_eq!(hot.dropped, 1000 - 8);
        // The queued prefix is consecutive (seqs 0..8): daemon-side drops
        // are counted in `dropped`; `seq_gaps` is for *upstream* loss.
        assert_eq!(hot.seq_gaps, 0);
    }

    #[test]
    fn sequence_gaps_surface_upstream_loss() {
        let mut agg = Aggregator::new(AggregatorConfig::default());
        for seq in [0u64, 1, 4, 5, 9] {
            agg.ingest(msg("a", 0, seq, 10, seq as f64));
        }
        // Missing: 2, 3 (before 4) and 6, 7, 8 (before 9) = 5 gaps.
        assert_eq!(agg.job("a").unwrap().seq_gaps, 5);
        // Per-rank numbering: a second rank starting at 0 adds no gaps.
        agg.ingest(msg("a", 1, 0, 10, 1.0));
        assert_eq!(agg.job("a").unwrap().seq_gaps, 5);
    }

    #[test]
    fn tenant_cap_evicts_longest_idle() {
        let mut agg = Aggregator::new(AggregatorConfig {
            max_jobs: 3,
            ..Default::default()
        });
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            agg.ingest(msg(id, 0, 0, 10, i as f64));
        }
        agg.ingest(msg("b", 0, 1, 10, 5.0)); // refresh b; a is now oldest
        agg.ingest(msg("d", 0, 0, 10, 6.0)); // over cap: evicts a
        assert_eq!(agg.job_ids(), vec!["b", "c", "d"]);
        assert_eq!(agg.fleet().evicted, 1);
        // Fleet counters survive the eviction.
        assert_eq!(agg.fleet().ingested, 5);
        assert_eq!(agg.fleet().bytes_read, 50);
    }

    #[test]
    fn idle_reaping_removes_silent_tenants() {
        let mut agg = Aggregator::new(AggregatorConfig {
            idle_ticks: 10,
            ..Default::default()
        });
        agg.ingest(msg("quiet", 0, 0, 10, 1.0));
        for i in 0..20u64 {
            agg.ingest(msg("busy", 0, i, 10, i as f64));
        }
        assert_eq!(agg.job_ids(), vec!["busy"]);
        assert_eq!(agg.fleet().evicted, 1);
    }

    #[test]
    fn file_table_is_pruned_to_top_files() {
        let mut agg = Aggregator::new(AggregatorConfig {
            top_files: 4,
            ..Default::default()
        });
        for seq in 0..100u64 {
            // Each session reports a distinct file; later files are bigger.
            let mut m = msg("a", 0, seq, 1000 + seq, seq as f64);
            m.report.files[0].bytes_read = 1000 + seq;
            agg.ingest(m);
        }
        let a = agg.job("a").unwrap();
        assert!(
            a.files.len() < 8,
            "bounded by 2×top_files: {}",
            a.files.len()
        );
        // The biggest file survived pruning.
        assert!(a.files.contains_key("/data/a/f99"));
        // Counter exactness is independent of pruning.
        assert_eq!(a.io.bytes_read, (0..100).map(|s| 1000 + s).sum::<u64>());
    }

    #[test]
    fn wire_version_mismatch_is_rejected_and_counted() {
        let mut agg = Aggregator::new(AggregatorConfig::default());
        let mut m = msg("a", 0, 0, 10, 1.0);
        m.v = WIRE_VERSION + 1;
        assert_eq!(agg.enqueue(m), Enqueue::Rejected);
        assert_eq!(agg.fleet().wire_rejects, 1);
        assert!(agg.job_ids().is_empty());
    }

    #[test]
    fn bandwidth_ring_rolls_and_stays_fixed_length() {
        let mut ring = BandwidthRing::new(1.0, 4);
        for i in 0..10u64 {
            ring.add(i as f64 + 0.5, 1 << 20, 0);
        }
        assert_eq!(ring.len(), 4);
        let series = ring.series();
        assert_eq!(series.len(), 4);
        assert!((series[3].0 - 10.0).abs() < 1e-9);
        assert!((series[3].1 - 1.0).abs() < 1e-9, "1 MiB in a 1s slot");
        // Same-slot adds merge.
        let mut ring = BandwidthRing::new(1.0, 4);
        ring.add(0.2, 512 << 10, 0);
        ring.add(0.7, 512 << 10, 0);
        assert_eq!(ring.len(), 1);
        assert!((ring.series()[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_exposition_renders_and_escapes_labels() {
        let mut agg = Aggregator::new(AggregatorConfig::default());
        agg.ingest(msg("job\"weird\\name", 0, 0, 1234, 1.0));
        let text = agg.render_metrics();
        assert!(text.contains("tfdarshan_jobs_live 1"));
        assert!(text.contains("tfdarshan_diffs_ingested_total 1"));
        assert!(text.contains(r#"tfdarshan_job_bytes_read_total{job="job\"weird\\name"} 1234"#));
        assert!(text.contains("# TYPE tfdarshan_job_read_bandwidth_mibps gauge"));
    }

    #[test]
    fn sanitizer_and_scheduler_roll_up_per_tenant() {
        let summary = |f, e, w, events, cats: &[&str]| iosan::SanitizerSummary {
            findings: f,
            errors: e,
            warnings: w,
            events_analyzed: events,
            categories: cats.iter().map(|c| c.to_string()).collect(),
        };
        let with = |mut m: SessionDiffMsg, s: iosan::SanitizerSummary, peak_live| {
            m.report.sanitizer = Some(s);
            m.report.scheduler = Some(Default::default());
            m.report.scheduler.as_mut().unwrap().peak_live_tasks = peak_live;
            m
        };
        let mut agg = Aggregator::new(AggregatorConfig::default());
        let first = summary(2, 1, 1, 100, &["data-race", "fd-leak"]);
        agg.ingest(with(msg("a", 0, 0, 10, 1.0), first, 9));
        let second = summary(1, 1, 0, 50, &["close-race", "data-race"]);
        agg.ingest(with(msg("a", 1, 0, 10, 2.0), second, 4));
        // A session carrying neither block leaves both rollups as they were.
        agg.ingest(msg("a", 0, 1, 10, 3.0));
        // Tenant "b" only ever reports all-zero summaries.
        agg.ingest(with(msg("b", 0, 0, 10, 1.0), summary(0, 0, 0, 0, &[]), 2));
        agg.ingest(with(msg("b", 0, 1, 10, 2.0), summary(0, 0, 0, 0, &[]), 2));
        // Tenant "c" ran clean: events but no findings still report.
        agg.ingest(with(msg("c", 0, 0, 10, 1.0), summary(0, 0, 0, 70, &[]), 1));

        let a = agg.job("a").unwrap().report();
        let want = summary(3, 2, 1, 150, &["close-race", "data-race", "fd-leak"]);
        assert_eq!(a.sanitizer, Some(want), "summed, categories sorted once");
        assert_eq!(a.scheduler.unwrap().peak_live_tasks, 4, "the last one wins");
        assert_eq!(agg.job("b").unwrap().report().sanitizer, None);
        assert_eq!(
            agg.job("c").unwrap().report().sanitizer,
            Some(summary(0, 0, 0, 70, &[]))
        );

        let text = agg.render_metrics();
        for line in [
            "# TYPE tfdarshan_job_sanitizer_findings_total counter",
            r#"tfdarshan_job_sanitizer_findings_total{job="a"} 3"#,
            r#"tfdarshan_job_sanitizer_findings_total{job="b"} 0"#,
            "# TYPE tfdarshan_job_sched_peak_live_tasks gauge",
            r#"tfdarshan_job_sched_peak_live_tasks{job="a"} 4"#,
            r#"tfdarshan_job_sched_peak_live_tasks{job="c"} 1"#,
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?}");
        }
    }

    /// Six tenants whose ids sort differently raw and escaped (`"` < `#`
    /// but `\` > `#`; newline < space but `\` > space), with a sanitizer
    /// summary, scheduler stats, drops, sequence gaps and nonzero
    /// bandwidth gauges.
    fn six_tenant_fleet() -> Aggregator {
        let mut agg = Aggregator::new(AggregatorConfig {
            queue_capacity: 2,
            ..Default::default()
        });
        let ids = [
            "alpha",
            "\"quoted",
            "#hash",
            "back\\slash",
            "line\nbreak",
            "line break",
        ];
        for (i, id) in ids.iter().enumerate() {
            let i = i as u64;
            let mut m = msg(id, 0, 0, 1000 * (i + 1), 2.0 + i as f64);
            m.report.io.writes = i;
            m.report.io.bytes_written = 7 * i;
            m.report.io.opens = 3 + i;
            if i.is_multiple_of(2) {
                m.report.sanitizer = Some(iosan::SanitizerSummary {
                    findings: i + 1,
                    errors: 1,
                    warnings: i,
                    events_analyzed: 40,
                    categories: vec!["data-race".into()],
                });
                m.report.scheduler = Some(simrt::SchedStats {
                    switches: 11,
                    peak_live_tasks: 5 + i as usize,
                    ..Default::default()
                });
            }
            agg.ingest(m);
            // A second rank skipping two sequence numbers.
            agg.ingest(msg(id, 1, 2, 3 << 20, 4.5 + i as f64));
        }
        // Overflow one tenant's queue so a drop shows up.
        for seq in 3..6 {
            agg.enqueue(msg("alpha", 0, seq, 10, 9.0));
        }
        agg.pump_to_empty();
        agg
    }

    #[test]
    fn metrics_text_is_pinned_for_six_tenants() {
        let text = six_tenant_fleet().render_metrics();
        assert_eq!(text, PINNED_METRICS, "got:\n{text}");
    }

    const PINNED_METRICS: &str = r##"# HELP tfdarshan_jobs_live Live tenants.
# TYPE tfdarshan_jobs_live gauge
tfdarshan_jobs_live 6
# HELP tfdarshan_diffs_ingested_total Session diffs applied into rollups.
# TYPE tfdarshan_diffs_ingested_total counter
tfdarshan_diffs_ingested_total 14
# HELP tfdarshan_diffs_dropped_total Session diffs dropped by per-tenant backpressure.
# TYPE tfdarshan_diffs_dropped_total counter
tfdarshan_diffs_dropped_total 1
# HELP tfdarshan_wire_rejects_total Messages rejected for an unknown wire version.
# TYPE tfdarshan_wire_rejects_total counter
tfdarshan_wire_rejects_total 0
# HELP tfdarshan_jobs_evicted_total Tenants evicted (cap overflow or idle).
# TYPE tfdarshan_jobs_evicted_total counter
tfdarshan_jobs_evicted_total 0
# HELP tfdarshan_bytes_read_total Fleet-wide bytes read across all applied sessions.
# TYPE tfdarshan_bytes_read_total counter
tfdarshan_bytes_read_total 18895388
# HELP tfdarshan_bytes_written_total Fleet-wide bytes written.
# TYPE tfdarshan_bytes_written_total counter
tfdarshan_bytes_written_total 105
# HELP tfdarshan_job_sessions_total Sessions applied for this job.
# TYPE tfdarshan_job_sessions_total counter
tfdarshan_job_sessions_total{job="\"quoted"} 2
tfdarshan_job_sessions_total{job="#hash"} 2
tfdarshan_job_sessions_total{job="alpha"} 4
tfdarshan_job_sessions_total{job="back\\slash"} 2
tfdarshan_job_sessions_total{job="line\nbreak"} 2
tfdarshan_job_sessions_total{job="line break"} 2
# HELP tfdarshan_job_ranks Distinct ranks seen for this job.
# TYPE tfdarshan_job_ranks gauge
tfdarshan_job_ranks{job="\"quoted"} 2
tfdarshan_job_ranks{job="#hash"} 2
tfdarshan_job_ranks{job="alpha"} 2
tfdarshan_job_ranks{job="back\\slash"} 2
tfdarshan_job_ranks{job="line\nbreak"} 2
tfdarshan_job_ranks{job="line break"} 2
# HELP tfdarshan_job_bytes_read_total Bytes read by this job across its sessions.
# TYPE tfdarshan_job_bytes_read_total counter
tfdarshan_job_bytes_read_total{job="\"quoted"} 3147728
tfdarshan_job_bytes_read_total{job="#hash"} 3148728
tfdarshan_job_bytes_read_total{job="alpha"} 3146748
tfdarshan_job_bytes_read_total{job="back\\slash"} 3149728
tfdarshan_job_bytes_read_total{job="line\nbreak"} 3150728
tfdarshan_job_bytes_read_total{job="line break"} 3151728
# HELP tfdarshan_job_bytes_written_total Bytes written by this job.
# TYPE tfdarshan_job_bytes_written_total counter
tfdarshan_job_bytes_written_total{job="\"quoted"} 7
tfdarshan_job_bytes_written_total{job="#hash"} 14
tfdarshan_job_bytes_written_total{job="alpha"} 0
tfdarshan_job_bytes_written_total{job="back\\slash"} 21
tfdarshan_job_bytes_written_total{job="line\nbreak"} 28
tfdarshan_job_bytes_written_total{job="line break"} 35
# HELP tfdarshan_job_reads_total POSIX reads by this job.
# TYPE tfdarshan_job_reads_total counter
tfdarshan_job_reads_total{job="\"quoted"} 4
tfdarshan_job_reads_total{job="#hash"} 4
tfdarshan_job_reads_total{job="alpha"} 8
tfdarshan_job_reads_total{job="back\\slash"} 4
tfdarshan_job_reads_total{job="line\nbreak"} 4
tfdarshan_job_reads_total{job="line break"} 4
# HELP tfdarshan_job_writes_total POSIX writes by this job.
# TYPE tfdarshan_job_writes_total counter
tfdarshan_job_writes_total{job="\"quoted"} 1
tfdarshan_job_writes_total{job="#hash"} 2
tfdarshan_job_writes_total{job="alpha"} 0
tfdarshan_job_writes_total{job="back\\slash"} 3
tfdarshan_job_writes_total{job="line\nbreak"} 4
tfdarshan_job_writes_total{job="line break"} 5
# HELP tfdarshan_job_opens_total POSIX opens by this job.
# TYPE tfdarshan_job_opens_total counter
tfdarshan_job_opens_total{job="\"quoted"} 4
tfdarshan_job_opens_total{job="#hash"} 5
tfdarshan_job_opens_total{job="alpha"} 3
tfdarshan_job_opens_total{job="back\\slash"} 6
tfdarshan_job_opens_total{job="line\nbreak"} 7
tfdarshan_job_opens_total{job="line break"} 8
# HELP tfdarshan_job_dropped_total Diffs dropped for this tenant by backpressure.
# TYPE tfdarshan_job_dropped_total counter
tfdarshan_job_dropped_total{job="\"quoted"} 0
tfdarshan_job_dropped_total{job="#hash"} 0
tfdarshan_job_dropped_total{job="alpha"} 1
tfdarshan_job_dropped_total{job="back\\slash"} 0
tfdarshan_job_dropped_total{job="line\nbreak"} 0
tfdarshan_job_dropped_total{job="line break"} 0
# HELP tfdarshan_job_seq_gaps_total Sequence gaps detected in this job's stream.
# TYPE tfdarshan_job_seq_gaps_total counter
tfdarshan_job_seq_gaps_total{job="\"quoted"} 2
tfdarshan_job_seq_gaps_total{job="#hash"} 2
tfdarshan_job_seq_gaps_total{job="alpha"} 4
tfdarshan_job_seq_gaps_total{job="back\\slash"} 2
tfdarshan_job_seq_gaps_total{job="line\nbreak"} 2
tfdarshan_job_seq_gaps_total{job="line break"} 2
# HELP tfdarshan_job_read_bandwidth_mibps Read bandwidth over the job's union window, MiB/s.
# TYPE tfdarshan_job_read_bandwidth_mibps gauge
tfdarshan_job_read_bandwidth_mibps{job="\"quoted"} 0.857688
tfdarshan_job_read_bandwidth_mibps{job="#hash"} 0.857960
tfdarshan_job_read_bandwidth_mibps{job="alpha"} 0.375122
tfdarshan_job_read_bandwidth_mibps{job="back\\slash"} 0.858233
tfdarshan_job_read_bandwidth_mibps{job="line\nbreak"} 0.858505
tfdarshan_job_read_bandwidth_mibps{job="line break"} 0.858778
# HELP tfdarshan_job_sanitizer_findings_total iosan findings reported by this job.
# TYPE tfdarshan_job_sanitizer_findings_total counter
tfdarshan_job_sanitizer_findings_total{job="\"quoted"} 0
tfdarshan_job_sanitizer_findings_total{job="#hash"} 3
tfdarshan_job_sanitizer_findings_total{job="alpha"} 1
tfdarshan_job_sanitizer_findings_total{job="back\\slash"} 0
tfdarshan_job_sanitizer_findings_total{job="line\nbreak"} 5
tfdarshan_job_sanitizer_findings_total{job="line break"} 0
# HELP tfdarshan_job_sched_peak_live_tasks Last reported scheduler peak of concurrently live tasks.
# TYPE tfdarshan_job_sched_peak_live_tasks gauge
tfdarshan_job_sched_peak_live_tasks{job="\"quoted"} 0
tfdarshan_job_sched_peak_live_tasks{job="#hash"} 7
tfdarshan_job_sched_peak_live_tasks{job="alpha"} 5
tfdarshan_job_sched_peak_live_tasks{job="back\\slash"} 0
tfdarshan_job_sched_peak_live_tasks{job="line\nbreak"} 9
tfdarshan_job_sched_peak_live_tasks{job="line break"} 0
"##;

    #[test]
    fn deterministic_for_identical_input() {
        let feed = |agg: &mut Aggregator| {
            for i in 0..50u64 {
                agg.enqueue(msg(
                    &format!("j{}", i % 7),
                    (i % 3) as u32,
                    i / 7,
                    i * 10,
                    i as f64,
                ));
                if i % 5 == 0 {
                    agg.pump();
                }
            }
            agg.pump_to_empty();
        };
        let mut a = Aggregator::new(AggregatorConfig::default());
        let mut b = Aggregator::new(AggregatorConfig::default());
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.render_metrics(), b.render_metrics());
        assert_eq!(a.footprint(), b.footprint());
    }
}
