//! The Darshan runtime: module record buffers, DXT tracing, name records,
//! and the runtime-extraction API that tf-Darshan adds (paper §III.C).
//!
//! Mirrors darshan-runtime's shape: a core that owns *name records*
//! (record-id → path) and per-module record buffers with bounded memory,
//! one `ModuleBuf<M>` per [`Module`] whose record creation, open, reopen,
//! close and meta mutators and extraction copies are written once (only
//! POSIX's read/write pattern tracking and DXT push are its own);
//! modules update counters inline on every instrumented call; statistics
//! reduction (e.g. folding the common-access-size tracker into the
//! `ACCESS1..4` counters) happens at shutdown — or, new here, whenever a
//! snapshot is taken, because tf-Darshan needs analyzable buffers *during*
//! execution, not only post-mortem.
//!
//! # Incremental extraction (dirty-set snapshots)
//!
//! The paper's Fig. 5 shows extraction overhead growing with the number of
//! files processed, because every profile stop deep-copies the full module
//! buffers. This runtime instead stamps each record with a *dirty epoch*
//! on mutation and keeps a persistent reduced **baseline** (`Vec<Arc<_>>`
//! sorted by record id). [`DarshanRuntime::snapshot`] copies + reduces only
//! the records dirtied since the previous extraction, merges them into the
//! baseline, and hands out `Arc` clones of everything else — so both the
//! host cost and the simulated gate-closed stall become
//! `snapshot_cost_per_record × dirty_count` instead of `× total_records`.
//! The same idea covers DXT (per-record append watermarks, see
//! [`DarshanRuntime::dxt_between`]) and the name map (`Arc`'d
//! copy-on-write). The legacy full-copy path survives as
//! [`DarshanRuntime::snapshot_full`] for comparison and as the equivalence
//! oracle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simrt::{sleep, SimTime, TaskId};

use crate::counters::{
    record_id, size_bucket, Module, Posix, PosixCounter as P, PosixRecord, Record, Stdio,
    StdioCounter as S, StdioRecord,
};

/// Configuration of the Darshan runtime (environment variables in real
/// Darshan: `DARSHAN_MODMEM`, `DXT_ENABLE_IO_TRACE`, ...).
#[derive(Clone, Debug)]
pub struct DarshanConfig {
    /// Maximum file records per module; further files set the partial flag
    /// and are not tracked (Darshan's module memory limit).
    pub max_records_per_module: usize,
    /// Whether DXT (extended tracing) records per-operation segments.
    pub dxt_enabled: bool,
    /// Maximum DXT segments across all files; beyond this, tracing stops
    /// and the truncated flag is set.
    pub dxt_max_segments: usize,
    /// Instrumentation cost charged per wrapped operation.
    pub per_op_overhead: Duration,
    /// Extra cost the first time a file is seen (record allocation + name
    /// registration).
    pub new_record_overhead: Duration,
    /// Cost per *copied* record of a runtime buffer extraction. The
    /// incremental path copies only dirty records, so a steady-state
    /// profiling session pays this per changed file — the paper's Fig. 5
    /// correlation of overhead with files processed applies only to the
    /// first (full) extraction and to [`DarshanRuntime::snapshot_full`].
    pub snapshot_cost_per_record: Duration,
    /// MPI rank this runtime instruments (`0` for single-process runs, as
    /// in non-MPI Darshan). Stamped onto every [`DxtSegment`] so job-level
    /// trace merges keep per-rank attribution.
    pub rank: u32,
}

impl Default for DarshanConfig {
    fn default() -> Self {
        DarshanConfig {
            max_records_per_module: 1 << 20,
            dxt_enabled: true,
            dxt_max_segments: 1 << 22,
            per_op_overhead: Duration::from_nanos(120),
            new_record_overhead: Duration::from_micros(2),
            snapshot_cost_per_record: Duration::from_micros(90),
            rank: 0,
        }
    }
}

/// DXT operation kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DxtOp {
    /// A read segment.
    Read,
    /// A write segment.
    Write,
}

/// One DXT trace segment (one I/O operation on one file).
#[derive(Clone, Copy, Debug)]
pub struct DxtSegment {
    /// Operation kind.
    pub op: DxtOp,
    /// File offset.
    pub offset: u64,
    /// Transfer length (zero-length reads are recorded — they are the
    /// Fig. 8 signature).
    pub length: u64,
    /// Start time, seconds since Darshan initialization.
    pub start: f64,
    /// End time, seconds since Darshan initialization.
    pub end: f64,
    /// Rank of the process that issued the operation (parallel Darshan's
    /// DXT records always carry the rank; single-process runs use 0).
    pub rank: u32,
}

#[derive(Default)]
struct ModuleBuf<M: Module> {
    records: HashMap<u64, Record<M>>,
    partial: bool,
    /// Ids dirtied since the last incremental extraction. Each id appears
    /// at most once: a record is listed iff `dirty_epoch > drained_epoch`.
    dirty: Vec<u64>,
    /// Epoch through which `dirty` has been drained into the baseline.
    drained_epoch: u64,
}

impl<M: Module> ModuleBuf<M> {
    /// Stamp `rec_id` dirty at `epoch` and return the live record.
    fn touch(&mut self, rec_id: u64, epoch: u64) -> Option<&mut Record<M>> {
        let r = self.records.get_mut(&rec_id)?;
        if r.dirty_epoch <= self.drained_epoch {
            self.dirty.push(rec_id);
        }
        r.dirty_epoch = epoch;
        Some(r)
    }

    /// Every record, copied and reduced, sorted by record id (the full
    /// extraction), with the partial flag.
    fn copy_all(&self) -> (Vec<Arc<Record<M>>>, bool) {
        let mut v: Vec<Arc<Record<M>>> = self.records.values().map(Record::reduced).collect();
        v.sort_by_key(|r| r.rec_id);
        (v, self.partial)
    }

    /// Merge the dirty records into `baseline` (the incremental
    /// extraction) and return it with the partial flag: O(dirty) copies
    /// and reductions. Known records are replaced in place via binary
    /// search; new records are collected first and folded in with a
    /// single sort pass (an in-loop insert would corrupt the binary
    /// search). Clean records keep their existing `Arc`, so snapshot
    /// clones share them.
    fn merge_into(
        &mut self,
        baseline: &mut Vec<Arc<Record<M>>>,
        epoch: u64,
    ) -> (Vec<Arc<Record<M>>>, bool) {
        self.drained_epoch = epoch;
        let mut fresh: Vec<Arc<Record<M>>> = Vec::new();
        for id in std::mem::take(&mut self.dirty) {
            let Some(live) = self.records.get(&id) else {
                continue;
            };
            match baseline.binary_search_by_key(&id, |r| r.rec_id) {
                Ok(i) => baseline[i] = live.reduced(),
                Err(_) => fresh.push(live.reduced()),
            }
        }
        if !fresh.is_empty() {
            baseline.extend(fresh);
            baseline.sort_by_key(|r| r.rec_id);
        }
        (baseline.clone(), self.partial)
    }
}

/// Raise a max-byte counter to the last byte of a transfer (none for an
/// empty one).
fn max_offset(cur: &mut i64, offset: u64, len: u64) {
    if len > 0 {
        *cur = (*cur).max((offset + len - 1) as i64);
    }
}

/// The persistent reduced baseline: what the previous extraction returned,
/// kept so the next one only has to merge the dirty set.
#[derive(Default)]
struct Baseline {
    posix: Vec<Arc<PosixRecord>>,
    stdio: Vec<Arc<StdioRecord>>,
}

/// Per-file DXT segment list.
#[derive(Default)]
struct DxtFile {
    /// Segments ordered by non-decreasing `end`. Folds arrive in
    /// completion order per thread; cross-thread flushes can interleave,
    /// so the (rare) out-of-order insert bisects from the tail. At any
    /// extraction every completed op has been folded (the extracting task
    /// flushes itself; all other tasks flushed when they descheduled), so
    /// segments appended after a watermark capture always land at indices
    /// ≥ the watermark — slices over old watermarks never shift.
    segs: Vec<DxtSegment>,
    /// Extraction epoch of the last append (watermark dirtiness).
    dirty_epoch: u64,
}

#[derive(Default)]
struct DxtBuf {
    files: HashMap<u64, DxtFile>,
    total: usize,
    truncated: bool,
    /// Files appended-to since the last watermark capture.
    dirty: Vec<u64>,
    drained_epoch: u64,
    /// Copy-on-write per-file append watermarks as of the last extraction:
    /// rec_id → segment count. Only entries for dirty files are rewritten.
    marks: Arc<HashMap<u64, usize>>,
}

/// While a snapshot copies the module buffers it holds the module locks;
/// instrumented operations stall until the copy completes. This gate
/// models that: `close` during extraction, `open` after, wrappers wait.
#[derive(Default)]
struct Gate {
    closed: std::sync::atomic::AtomicBool,
    waiters: Mutex<Vec<TaskId>>,
}

impl Gate {
    fn wait_open(&self) {
        loop {
            if !self.closed.load(Ordering::SeqCst) {
                return;
            }
            self.waiters.lock().push(simrt::current_task());
            // simlint: allow(raw-block) a sync primitive here would add edges to the pinned probe streams
            simrt::block(None);
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    fn open(&self) {
        self.closed.store(false, Ordering::SeqCst);
        for t in self.waiters.lock().drain(..) {
            simrt::wake(t);
        }
    }
}

/// A consistent copy of Darshan's module buffers, extracted at runtime.
///
/// This is the data structure the paper's augmented Darshan returns to the
/// instrumented application ("we implemented several data extraction
/// functions in the Darshan shared library that returns Darshan module
/// buffers"). Records are shared with the runtime's baseline via `Arc`:
/// cloning a snapshot is O(records) pointer bumps, and consecutive
/// snapshots share every record that did not change between them.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Seconds since Darshan initialization when the snapshot was taken.
    pub taken_at: f64,
    /// Extraction epoch: a record whose `dirty_epoch` exceeds this was
    /// mutated *after* this snapshot. `analysis::diff` uses this to skip
    /// unchanged records in O(1).
    pub epoch: u64,
    /// POSIX records, sorted by record id, with common-access reduction
    /// applied to the copy.
    pub posix: Vec<Arc<PosixRecord>>,
    /// STDIO records, sorted by record id.
    pub stdio: Vec<Arc<StdioRecord>>,
    /// Record-id → path map (copy-on-write shared with the runtime).
    pub names: Arc<HashMap<u64, String>>,
    /// True if the POSIX module ran out of record memory.
    pub posix_partial: bool,
    /// True if the STDIO module ran out of record memory.
    pub stdio_partial: bool,
    /// Total DXT segments recorded so far.
    pub dxt_segments: usize,
    /// Per-record DXT append watermarks at extraction time (rec_id →
    /// segments recorded). [`DarshanRuntime::dxt_between`] slices two of
    /// these to extract exactly the segments appended in a session.
    pub dxt_watermarks: Arc<HashMap<u64, usize>>,
}

impl Snapshot {
    /// Find a POSIX record by path (binary search — records are sorted by
    /// record id).
    pub fn posix_by_path(&self, path: &str) -> Option<&PosixRecord> {
        let id = record_id(path);
        self.posix
            .binary_search_by_key(&id, |r| r.rec_id)
            .ok()
            .map(|i| &*self.posix[i])
    }
}

/// Running totals kept by the runtime (cheap aggregate queries without a
/// full snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Total POSIX bytes read.
    pub posix_bytes_read: u64,
    /// Total POSIX bytes written.
    pub posix_bytes_written: u64,
    /// Total POSIX read calls.
    pub posix_reads: u64,
    /// Total POSIX write calls.
    pub posix_writes: u64,
    /// Total POSIX opens.
    pub posix_opens: u64,
}

/// The Darshan runtime ("libdarshan.so" once loaded into the process).
pub struct DarshanRuntime {
    config: DarshanConfig,
    init_time: SimTime,
    /// Current extraction epoch. Starts at 1 (fresh records carry stamp 0,
    /// i.e. "dirty since before any extraction"); each snapshot claims the
    /// current value and advances it.
    epoch: AtomicU64,
    names: Mutex<Arc<HashMap<u64, String>>>,
    posix: Mutex<ModuleBuf<Posix>>,
    stdio: Mutex<ModuleBuf<Stdio>>,
    baseline: Mutex<Baseline>,
    dxt: Mutex<DxtBuf>,
    gate: Gate,
    // Aggregates (atomic so bandwidth probes don't lock modules).
    agg_bytes_read: AtomicU64,
    agg_bytes_written: AtomicU64,
    agg_reads: AtomicU64,
    agg_writes: AtomicU64,
    agg_opens: AtomicU64,
}

impl DarshanRuntime {
    /// Initialize the runtime at the current virtual time.
    pub fn new(config: DarshanConfig) -> Self {
        DarshanRuntime {
            config,
            init_time: simrt::try_now().unwrap_or(SimTime::ZERO),
            epoch: AtomicU64::new(1),
            names: Mutex::new(Arc::new(HashMap::new())),
            posix: Mutex::default(),
            stdio: Mutex::default(),
            baseline: Mutex::default(),
            dxt: Mutex::default(),
            gate: Gate::default(),
            agg_bytes_read: AtomicU64::new(0),
            agg_bytes_written: AtomicU64::new(0),
            agg_reads: AtomicU64::new(0),
            agg_writes: AtomicU64::new(0),
            agg_opens: AtomicU64::new(0),
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &DarshanConfig {
        &self.config
    }

    /// Virtual instant of initialization (the zero of all float counters).
    pub fn init_time(&self) -> SimTime {
        self.init_time
    }

    /// Convert an absolute virtual instant to Darshan-relative seconds.
    pub fn rel(&self, t: SimTime) -> f64 {
        t.duration_since(self.init_time).as_secs_f64()
    }

    /// The current extraction epoch (records mutated from here on carry
    /// this stamp).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Charge the per-operation instrumentation cost; stalls while a
    /// snapshot holds the module locks.
    pub fn charge_op(&self) {
        self.gate.wait_open();
        if !self.config.per_op_overhead.is_zero() {
            sleep(self.config.per_op_overhead);
        }
    }

    /// Charge the cost of allocating a new module record. Called by the
    /// wrappers at `open`/`fopen` time (the emission site), *not* by the
    /// event fold: sink folds run inside the scheduler's switch path where
    /// sleeping is forbidden.
    pub fn charge_new_record(&self) {
        if !self.config.new_record_overhead.is_zero() {
            sleep(self.config.new_record_overhead);
        }
    }

    /// Register (or look up) the name record for `path`. The map is
    /// copy-on-write: snapshots hold `Arc` clones, so the first insert
    /// after an extraction clones the map once and later inserts are
    /// in-place until the next extraction shares it again.
    pub fn register_name(&self, path: &str) -> u64 {
        let id = record_id(path);
        let mut names = self.names.lock();
        if !names.contains_key(&id) {
            Arc::make_mut(&mut names).insert(id, path.to_string());
        }
        id
    }

    /// Resolve a record id back to a path (the helper tf-Darshan `dlsym`s).
    pub fn lookup_name(&self, rec_id: u64) -> Option<String> {
        self.names.lock().get(&rec_id).cloned()
    }

    // -- module mutators, written once over `Module` ------------------------

    /// Find or create the record for `path` (a new one is stamped dirty),
    /// or `None` with the partial flag set once the module is out of
    /// record memory. Record creation itself is pure bookkeeping here; the
    /// new-record *time* cost is charged by the wrapper at the emission
    /// site (this also runs inside event folds, which must not sleep).
    fn ensure<M: Module>(&self, m: &mut ModuleBuf<M>, path: &str, epoch: u64) -> Option<u64> {
        let id = record_id(path);
        if !m.records.contains_key(&id) {
            if m.records.len() >= self.config.max_records_per_module {
                m.partial = true;
                return None;
            }
            self.register_name(path);
            m.records.insert(id, Record::new(id));
            m.touch(id, epoch);
        }
        Some(id)
    }

    /// Apply `f` to record `rec_id` of `buf`, stamping it dirty; `None`
    /// (and no call) if the module has no such record.
    fn with<M: Module, T>(
        &self,
        buf: &Mutex<ModuleBuf<M>>,
        rec_id: u64,
        f: impl FnOnce(&mut Record<M>) -> T,
    ) -> Option<T> {
        let epoch = self.current_epoch();
        buf.lock().touch(rec_id, epoch).map(f)
    }

    /// Ensure the record for `path`, then apply `f` to it.
    fn with_path<M: Module>(
        &self,
        buf: &Mutex<ModuleBuf<M>>,
        path: &str,
        f: impl FnOnce(&mut Record<M>),
    ) -> Option<u64> {
        let epoch = self.current_epoch();
        let mut m = buf.lock();
        let id = self.ensure(&mut m, path, epoch)?;
        f(m.touch(id, epoch).expect("record just ensured"));
        Some(id)
    }

    fn opened<M: Module>(&self, r: &mut Record<M>, t0: SimTime, t1: SimTime) {
        *r.get_mut(M::OPENS) += 1;
        let (s, e) = (self.rel(t0), self.rel(t1));
        r.stamp(M::STAMPS[0], s, e);
        *r.fget_mut(M::TIMES[2]) += e - s;
    }

    fn closed<M: Module>(&self, r: &mut Record<M>, t0: SimTime, t1: SimTime) {
        let (s, e) = (self.rel(t0), self.rel(t1));
        r.stamp(M::STAMPS[M::STAMPS.len() - 1], s, e);
        *r.fget_mut(M::TIMES[2]) += e - s;
    }

    fn meta<M: Module>(&self, r: &mut Record<M>, counter: M::Counter, t0: SimTime, t1: SimTime) {
        *r.get_mut(counter) += 1;
        *r.fget_mut(M::TIMES[2]) += self.rel(t1) - self.rel(t0);
    }

    // -- POSIX module -------------------------------------------------------

    /// Instrument an `open`. Returns the record id, or `None` if the module
    /// is out of record memory (the caller still forwards the call).
    pub fn posix_open(&self, path: &str, t0: SimTime, t1: SimTime) -> Option<u64> {
        self.agg_opens.fetch_add(1, Ordering::Relaxed);
        self.with_path(&self.posix, path, |r| self.opened(r, t0, t1))
    }

    /// Instrument a read of `len` bytes at `offset`.
    pub fn posix_read(&self, rec_id: u64, offset: u64, len: u64, t0: SimTime, t1: SimTime) {
        self.agg_reads.fetch_add(1, Ordering::Relaxed);
        self.agg_bytes_read.fetch_add(len, Ordering::Relaxed);
        self.posix_io(rec_id, DxtOp::Read, offset, len, t0, t1);
    }

    /// Instrument a write.
    pub fn posix_write(&self, rec_id: u64, offset: u64, len: u64, t0: SimTime, t1: SimTime) {
        self.agg_writes.fetch_add(1, Ordering::Relaxed);
        self.agg_bytes_written.fetch_add(len, Ordering::Relaxed);
        self.posix_io(rec_id, DxtOp::Write, offset, len, t0, t1);
    }

    /// The POSIX read/write mutator: counts, the size histogram, the
    /// SEQ/CONSEC and RW_SWITCHES pattern tracking, timing, and the DXT
    /// segment — the part of the mutators that is POSIX's alone.
    fn posix_io(&self, rec_id: u64, op: DxtOp, offset: u64, len: u64, t0: SimTime, t1: SimTime) {
        let (write, w) = (op == DxtOp::Write, (op == DxtOp::Write) as usize);
        let found = self.with(&self.posix, rec_id, |r| {
            *r.get_mut([P::POSIX_READS, P::POSIX_WRITES][w]) += 1;
            *r.get_mut([P::POSIX_BYTES_READ, P::POSIX_BYTES_WRITTEN][w]) += len as i64;
            let hist = [P::POSIX_SIZE_READ_0_100, P::POSIX_SIZE_WRITE_0_100][w];
            r.counters[hist as usize + size_bucket(len)] += 1;
            r.ext.access_sizes.add(len);
            let last_end = &mut r.ext.last_end[w];
            let (consec, seq) = (offset == *last_end, offset >= *last_end);
            *last_end = offset + len;
            *r.get_mut([P::POSIX_CONSEC_READS, P::POSIX_CONSEC_WRITES][w]) += consec as i64;
            *r.get_mut([P::POSIX_SEQ_READS, P::POSIX_SEQ_WRITES][w]) += seq as i64;
            let max_byte = [P::POSIX_MAX_BYTE_READ, P::POSIX_MAX_BYTE_WRITTEN][w];
            max_offset(r.get_mut(max_byte), offset, len);
            if r.ext.last_was_write == Some(!write) {
                *r.get_mut(P::POSIX_RW_SWITCHES) += 1;
            }
            r.ext.last_was_write = Some(write);
            let (s, e) = (self.rel(t0), self.rel(t1));
            r.stamp(Posix::STAMPS[1 + w], s, e);
            *r.fget_mut(Posix::TIMES[w]) += e - s;
            let mx = r.fget_mut(Posix::FMAX[w]);
            *mx = mx.max(e - s);
        });
        if found.is_some() {
            self.dxt_push(rec_id, op, offset, len, t0, t1);
        }
    }

    /// Instrument a metadata operation (seek/stat/fsync) against an
    /// existing record.
    pub fn posix_meta(&self, rec_id: u64, counter: P, t0: SimTime, t1: SimTime) {
        self.with(&self.posix, rec_id, |r| self.meta(r, counter, t0, t1));
    }

    /// Instrument a re-`open` of a path whose record id is already known
    /// (an interned-id memo hit in the event fold): the same counter and
    /// timestamp mutation as [`DarshanRuntime::posix_open`], with no path
    /// hashing or name registration. No-op if the record has vanished
    /// (it cannot: records are never evicted).
    pub fn posix_reopen(&self, rec_id: u64, t0: SimTime, t1: SimTime) {
        self.agg_opens.fetch_add(1, Ordering::Relaxed);
        self.with(&self.posix, rec_id, |r| self.opened(r, t0, t1));
    }

    /// Register a record for a file whose `open` predates attachment
    /// (OPENS stays 0; only subsequently observed operations count).
    pub fn posix_register_existing(&self, path: &str) -> Option<u64> {
        self.ensure(&mut self.posix.lock(), path, self.current_epoch())
    }

    /// Instrument a `stat` by path (creates the record if needed, like
    /// Darshan's stat wrapper). Returns the record id so event folds can
    /// memoize it; `None` when the module is out of record memory.
    pub fn posix_stat_path(&self, path: &str, t0: SimTime, t1: SimTime) -> Option<u64> {
        self.with_path(&self.posix, path, |r| self.meta(r, P::POSIX_STATS, t0, t1))
    }

    /// Instrument a `close`.
    pub fn posix_close(&self, rec_id: u64, t0: SimTime, t1: SimTime) {
        self.with(&self.posix, rec_id, |r| self.closed(r, t0, t1));
    }

    // -- STDIO module -------------------------------------------------------

    /// Instrument `fopen`.
    pub fn stdio_open(&self, path: &str, t0: SimTime, t1: SimTime) -> Option<u64> {
        self.with_path(&self.stdio, path, |r| self.opened(r, t0, t1))
    }

    /// Instrument a re-`fopen` of a stream whose record id is already
    /// known (interned-id memo hit); see [`DarshanRuntime::posix_reopen`].
    pub fn stdio_reopen(&self, rec_id: u64, t0: SimTime, t1: SimTime) {
        self.with(&self.stdio, rec_id, |r| self.opened(r, t0, t1));
    }

    /// Instrument `fread`.
    pub fn stdio_read(&self, rec_id: u64, pos: u64, len: u64, t0: SimTime, t1: SimTime) {
        self.stdio_io(rec_id, false, pos, len, t0, t1);
    }

    /// Instrument `fwrite`.
    pub fn stdio_write(&self, rec_id: u64, pos: u64, len: u64, t0: SimTime, t1: SimTime) {
        self.stdio_io(rec_id, true, pos, len, t0, t1);
    }

    fn stdio_io(&self, rec_id: u64, write: bool, pos: u64, len: u64, t0: SimTime, t1: SimTime) {
        let w = write as usize;
        self.with(&self.stdio, rec_id, |r| {
            *r.get_mut([S::STDIO_READS, S::STDIO_WRITES][w]) += 1;
            *r.get_mut([S::STDIO_BYTES_READ, S::STDIO_BYTES_WRITTEN][w]) += len as i64;
            let max_byte = [S::STDIO_MAX_BYTE_READ, S::STDIO_MAX_BYTE_WRITTEN][w];
            max_offset(r.get_mut(max_byte), pos, len);
            *r.fget_mut(Stdio::TIMES[w]) += self.rel(t1) - self.rel(t0);
        });
    }

    /// Instrument `fseek` / `fflush`.
    pub fn stdio_meta(&self, rec_id: u64, counter: S, t0: SimTime, t1: SimTime) {
        self.with(&self.stdio, rec_id, |r| self.meta(r, counter, t0, t1));
    }

    /// Instrument `fclose`.
    pub fn stdio_close(&self, rec_id: u64, t0: SimTime, t1: SimTime) {
        self.with(&self.stdio, rec_id, |r| self.closed(r, t0, t1));
    }

    // -- DXT ----------------------------------------------------------------

    fn dxt_push(&self, rec_id: u64, op: DxtOp, offset: u64, length: u64, t0: SimTime, t1: SimTime) {
        if !self.config.dxt_enabled {
            return;
        }
        let epoch = self.current_epoch();
        let mut d = self.dxt.lock();
        if d.total >= self.config.dxt_max_segments {
            d.truncated = true;
            return;
        }
        d.total += 1;
        let seg = DxtSegment {
            op,
            offset,
            length,
            start: self.rel(t0),
            end: self.rel(t1),
            rank: self.config.rank,
        };
        let buf = &mut *d;
        let f = buf.files.entry(rec_id).or_default();
        if f.dirty_epoch <= buf.drained_epoch {
            buf.dirty.push(rec_id);
        }
        f.dirty_epoch = epoch;
        // Keep the per-file list end-sorted (the common case appends).
        match f.segs.last() {
            Some(last) if last.end > seg.end => {
                let i = f.segs.partition_point(|s| s.end <= seg.end);
                f.segs.insert(i, seg);
            }
            _ => f.segs.push(seg),
        }
    }

    /// All DXT segments of one file, in non-decreasing end-time order.
    pub fn dxt_of(&self, rec_id: u64) -> Vec<DxtSegment> {
        self.dxt
            .lock()
            .files
            .get(&rec_id)
            .map(|f| f.segs.clone())
            .unwrap_or_default()
    }

    /// Extract all DXT segments overlapping `[from, to]` (Darshan-relative
    /// seconds), as `(rec_id, segment)` pairs sorted by start time. This is
    /// what tf-Darshan exports to the TraceViewer. Per-file lists are
    /// end-sorted, so the lower bound is a binary search instead of a scan
    /// over every segment ever recorded.
    pub fn dxt_range(&self, from: f64, to: f64) -> Vec<(u64, DxtSegment)> {
        let d = self.dxt.lock();
        let mut out: Vec<(u64, DxtSegment)> = Vec::new();
        for (id, f) in d.files.iter() {
            let lo = f.segs.partition_point(|s| s.end < from);
            for s in &f.segs[lo..] {
                if s.start <= to {
                    out.push((*id, *s));
                }
            }
        }
        out.sort_by(|a, b| a.1.start.total_cmp(&b.1.start).then(a.0.cmp(&b.0)));
        out
    }

    /// Extract exactly the DXT segments appended between two snapshots of
    /// this runtime, using the per-record append watermarks captured at
    /// extraction time — O(new segments), no time-range scan and no
    /// boundary double-counting when a segment ends exactly at a snapshot.
    pub fn dxt_between(&self, start: &Snapshot, stop: &Snapshot) -> Vec<(u64, DxtSegment)> {
        let d = self.dxt.lock();
        let mut out: Vec<(u64, DxtSegment)> = Vec::new();
        for (id, &hi) in stop.dxt_watermarks.iter() {
            let lo = start.dxt_watermarks.get(id).copied().unwrap_or(0);
            let hi = hi.min(d.files.get(id).map_or(0, |f| f.segs.len()));
            if hi <= lo {
                continue;
            }
            let f = &d.files[id];
            for s in &f.segs[lo..hi] {
                out.push((*id, *s));
            }
        }
        out.sort_by(|a, b| a.1.start.total_cmp(&b.1.start).then(a.0.cmp(&b.0)));
        out
    }

    /// True if DXT hit its memory cap and dropped segments.
    pub fn dxt_truncated(&self) -> bool {
        self.dxt.lock().truncated
    }

    // -- extraction / shutdown ----------------------------------------------

    /// Cheap aggregates (no module lock ordering concerns).
    pub fn totals(&self) -> Totals {
        // Fold any events still buffered on this thread so the aggregates
        // are complete up to now (parked threads flushed when descheduled).
        probe::flush_current_thread();
        Totals {
            posix_bytes_read: self.agg_bytes_read.load(Ordering::Relaxed),
            posix_bytes_written: self.agg_bytes_written.load(Ordering::Relaxed),
            posix_reads: self.agg_reads.load(Ordering::Relaxed),
            posix_writes: self.agg_writes.load(Ordering::Relaxed),
            posix_opens: self.agg_opens.load(Ordering::Relaxed),
        }
    }

    /// Runtime buffer extraction — the paper's entry point, now O(dirty).
    ///
    /// Copies and reduces only records dirtied since the previous
    /// extraction, merges them into the persistent baseline, and returns
    /// the baseline as `Arc` clones. The simulated gate-closed stall is
    /// `snapshot_cost_per_record × dirty_count`; the first snapshot (all
    /// records dirty) costs exactly what the legacy full copy did.
    pub fn snapshot(&self) -> Snapshot {
        self.extract(false)
    }

    /// Legacy full extraction: deep-copy every record regardless of
    /// dirtiness, charging `snapshot_cost_per_record × total_records`.
    /// Kept as the `ablation_snapshot` comparison arm and the equivalence
    /// oracle for the incremental path. It does not advance the baseline
    /// or drain dirty state, but it *does* open a new extraction epoch so
    /// diffs spanning it stay correct.
    pub fn snapshot_full(&self) -> Snapshot {
        self.extract(true)
    }

    fn extract(&self, full: bool) -> Snapshot {
        // Complete the event stream first: any operation this thread
        // finished but has not yet flushed must be folded into the module
        // buffers before they are copied. Other threads' buffers drained
        // when those threads descheduled.
        probe::flush_current_thread();
        // Extraction copies records under the module locks: charge for
        // exactly those copies while instrumented I/O stalls at the gate.
        let copies = if full {
            self.posix_record_count() + self.stdio_record_count()
        } else {
            self.dirty_record_count()
        };
        if copies > 0 && !self.config.snapshot_cost_per_record.is_zero() {
            self.gate.close();
            sleep(self.config.snapshot_cost_per_record * copies as u32);
            self.gate.open();
        }
        let taken_at = self.rel(simrt::now());
        // One acquisition per module lock: the records and the partial
        // flag are read under the same guard (the seed re-locked for the
        // flag, racing a concurrent record-cap overflow).
        let mut bl = self.baseline.lock();
        let (mut pm, mut sm) = (self.posix.lock(), self.stdio.lock());
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst);
        let ((posix, posix_partial), (stdio, stdio_partial)) = if full {
            (pm.copy_all(), sm.copy_all())
        } else {
            (
                pm.merge_into(&mut bl.posix, epoch),
                sm.merge_into(&mut bl.stdio, epoch),
            )
        };
        drop((pm, sm));
        let (dxt_segments, dxt_watermarks) = if full {
            let d = self.dxt.lock();
            let marks = d.files.iter().map(|(id, f)| (*id, f.segs.len()));
            (d.total, Arc::new(marks.collect()))
        } else {
            self.capture_dxt_marks(epoch)
        };
        Snapshot {
            taken_at,
            epoch,
            posix,
            stdio,
            names: self.names.lock().clone(),
            posix_partial,
            stdio_partial,
            dxt_segments,
            dxt_watermarks,
        }
    }

    /// Refresh the copy-on-write watermark map for files appended-to since
    /// the last capture, and return it with the segment total.
    fn capture_dxt_marks(&self, epoch: u64) -> (usize, Arc<HashMap<u64, usize>>) {
        let mut d = self.dxt.lock();
        let buf = &mut *d;
        buf.drained_epoch = epoch;
        if !buf.dirty.is_empty() {
            let marks = Arc::make_mut(&mut buf.marks);
            for id in std::mem::take(&mut buf.dirty) {
                if let Some(f) = buf.files.get(&id) {
                    marks.insert(id, f.segs.len());
                }
            }
        }
        (buf.total, buf.marks.clone())
    }

    /// Number of POSIX records currently held.
    pub fn posix_record_count(&self) -> usize {
        self.posix.lock().records.len()
    }

    /// Number of STDIO records currently held.
    pub fn stdio_record_count(&self) -> usize {
        self.stdio.lock().records.len()
    }

    /// Number of records dirtied since the last incremental extraction
    /// (what the next [`DarshanRuntime::snapshot`] will pay for).
    pub fn dirty_record_count(&self) -> usize {
        self.posix.lock().dirty.len() + self.stdio.lock().dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PosixFCounter as PF;
    use simrt::Sim;
    use std::sync::Arc;

    fn at(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn open_read_counters_and_pattern() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let id = rt.posix_open("/d/f", at(0), at(1)).unwrap();
            rt.posix_read(id, 0, 1000, at(1), at(2)); // consec+seq
            rt.posix_read(id, 1000, 1000, at(2), at(3)); // consec+seq
            rt.posix_read(id, 5000, 100, at(3), at(4)); // seq only
            rt.posix_read(id, 100, 50, at(4), at(5)); // neither
            rt.posix_read(id, 150, 0, at(5), at(6)); // zero read, consec
            let snap = rt.snapshot();
            let r = snap.posix_by_path("/d/f").unwrap();
            assert_eq!(r.get(P::POSIX_OPENS), 1);
            assert_eq!(r.get(P::POSIX_READS), 5);
            assert_eq!(r.get(P::POSIX_BYTES_READ), 2150);
            assert_eq!(r.get(P::POSIX_CONSEC_READS), 3);
            assert_eq!(r.get(P::POSIX_SEQ_READS), 4);
            assert_eq!(r.get(P::POSIX_MAX_BYTE_READ), 5099);
            // Histogram: 1000,1000 → bucket 100-1K ×2; 100,50,0 → 0-100 ×3.
            assert_eq!(r.get(P::POSIX_SIZE_READ_0_100), 3);
            assert_eq!(r.get(P::POSIX_SIZE_READ_100_1K), 2);
            assert!((r.fget(PF::POSIX_F_READ_TIME) - 0.005).abs() < 1e-9);
        });
        sim.run();
    }

    #[test]
    fn write_and_rw_switches() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let id = rt.posix_open("/d/w", at(0), at(0)).unwrap();
            rt.posix_write(id, 0, 100, at(1), at(2));
            rt.posix_read(id, 0, 100, at(2), at(3));
            rt.posix_write(id, 100, 100, at(3), at(4));
            let snap = rt.snapshot();
            let r = snap.posix_by_path("/d/w").unwrap();
            assert_eq!(r.get(P::POSIX_WRITES), 2);
            assert_eq!(r.get(P::POSIX_RW_SWITCHES), 2);
            assert_eq!(r.get(P::POSIX_CONSEC_WRITES), 2);
            assert_eq!(r.get(P::POSIX_BYTES_WRITTEN), 200);
        });
        sim.run();
    }

    #[test]
    fn record_memory_cap_sets_partial_flag() {
        let sim = Sim::new();
        sim.spawn("t", || {
            for stdio in [false, true] {
                let rt = DarshanRuntime::new(DarshanConfig {
                    max_records_per_module: 2,
                    ..Default::default()
                });
                let open = |path: &str, t: u64| {
                    if stdio {
                        rt.stdio_open(path, at(t), at(t))
                    } else {
                        rt.posix_open(path, at(t), at(t))
                    }
                };
                assert!(open("/a", 0).is_some());
                assert!(open("/b", 0).is_some());
                assert!(open("/c", 0).is_none());
                // Existing records still update.
                assert!(open("/a", 1).is_some());
                let snap = rt.snapshot();
                assert_eq!(snap.posix_partial, !stdio);
                assert_eq!(snap.stdio_partial, stdio);
                let held = if stdio {
                    snap.stdio.len()
                } else {
                    snap.posix.len()
                };
                assert_eq!(held, 2);
            }
        });
        sim.run();
    }

    #[test]
    fn dxt_records_segments_and_caps() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig {
                dxt_max_segments: 3,
                ..Default::default()
            });
            let id = rt.posix_open("/d/f", at(0), at(0)).unwrap();
            for i in 0..5u64 {
                rt.posix_read(id, i * 10, 10, at(i), at(i + 1));
            }
            let segs = rt.dxt_of(id);
            assert_eq!(segs.len(), 3, "capped");
            assert!(rt.dxt_truncated());
            assert_eq!(segs[0].offset, 0);
            assert_eq!(segs[0].length, 10);
            assert_eq!(segs[0].op, DxtOp::Read);
        });
        sim.run();
    }

    #[test]
    fn dxt_range_query() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let id = rt.posix_open("/d/f", at(0), at(0)).unwrap();
            rt.posix_read(id, 0, 10, at(10), at(20));
            rt.posix_read(id, 10, 10, at(30), at(40));
            rt.posix_read(id, 20, 10, at(50), at(60));
            let mid = rt.dxt_range(0.025, 0.045);
            assert_eq!(mid.len(), 1);
            assert_eq!(mid[0].1.offset, 10);
            assert_eq!(rt.dxt_range(0.0, 1.0).len(), 3);
        });
        sim.run();
    }

    #[test]
    fn dxt_push_keeps_end_order_under_out_of_order_folds() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let id = rt.posix_open("/d/f", at(0), at(0)).unwrap();
            // Simulate cross-thread flush interleaving: folds arrive with
            // non-monotone end times.
            rt.posix_read(id, 0, 10, at(10), at(40));
            rt.posix_read(id, 10, 10, at(5), at(20));
            rt.posix_read(id, 20, 10, at(50), at(60));
            let segs = rt.dxt_of(id);
            let ends: Vec<f64> = segs.iter().map(|s| s.end).collect();
            assert_eq!(ends, vec![0.020, 0.040, 0.060]);
            // The range query still finds the late-folded early segment.
            let early = rt.dxt_range(0.0, 0.025);
            assert_eq!(early.len(), 2);
        });
        sim.run();
    }

    #[test]
    fn dxt_between_extracts_only_the_session_window() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let id = rt.posix_open("/d/f", at(0), at(0)).unwrap();
            rt.posix_read(id, 0, 10, at(10), at(20));
            let s0 = rt.snapshot();
            rt.posix_read(id, 10, 10, at(30), at(40));
            rt.posix_read(id, 20, 10, at(50), at(60));
            let s1 = rt.snapshot();
            rt.posix_read(id, 30, 10, at(70), at(80));
            let s2 = rt.snapshot();
            let win = rt.dxt_between(&s0, &s1);
            assert_eq!(win.len(), 2);
            assert_eq!(win[0].1.offset, 10);
            assert_eq!(win[1].1.offset, 20);
            assert_eq!(rt.dxt_between(&s1, &s2).len(), 1);
            assert_eq!(rt.dxt_between(&s0, &s2).len(), 3);
            assert!(rt.dxt_between(&s1, &s1).is_empty());
        });
        sim.run();
    }

    #[test]
    fn snapshot_is_a_stable_copy() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = Arc::new(DarshanRuntime::new(DarshanConfig::default()));
            let id = rt.posix_open("/d/f", at(0), at(1)).unwrap();
            rt.posix_read(id, 0, 100, at(1), at(2));
            let s1 = rt.snapshot();
            rt.posix_read(id, 100, 100, at(2), at(3));
            let s2 = rt.snapshot();
            assert_eq!(s1.posix_by_path("/d/f").unwrap().get(P::POSIX_READS), 1);
            assert_eq!(s2.posix_by_path("/d/f").unwrap().get(P::POSIX_READS), 2);
            assert_eq!(s1.names[&record_id("/d/f")], "/d/f");
        });
        sim.run();
    }

    #[test]
    fn snapshot_names_are_cow_stable() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            rt.posix_open("/d/a", at(0), at(0)).unwrap();
            let s1 = rt.snapshot();
            rt.posix_open("/d/b", at(1), at(1)).unwrap();
            // The old snapshot's map is untouched by the new registration.
            assert_eq!(s1.names.len(), 1);
            assert_eq!(rt.snapshot().names.len(), 2);
            assert_eq!(rt.lookup_name(record_id("/d/b")).unwrap(), "/d/b");
        });
        sim.run();
    }

    #[test]
    fn incremental_gate_stall_is_proportional_to_dirty_set() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let cost = Duration::from_micros(90);
            let rt = DarshanRuntime::new(DarshanConfig {
                snapshot_cost_per_record: cost,
                ..Default::default()
            });
            let ids: Vec<u64> = (0..10)
                .map(|i| rt.posix_open(&format!("/d/f{i}"), at(0), at(0)).unwrap())
                .collect();
            let t0 = simrt::now();
            rt.snapshot();
            // First extraction: all 10 records are dirty.
            assert_eq!(simrt::now().duration_since(t0), cost * 10);
            // Steady state: dirty two records, pay for two.
            rt.posix_read(ids[3], 0, 10, at(1), at(2));
            rt.posix_read(ids[7], 0, 10, at(2), at(3));
            assert_eq!(rt.dirty_record_count(), 2);
            let t1 = simrt::now();
            rt.snapshot();
            assert_eq!(simrt::now().duration_since(t1), cost * 2);
            // Nothing dirty: a snapshot is free (no gate close at all).
            let t2 = simrt::now();
            rt.snapshot();
            assert_eq!(simrt::now().duration_since(t2), Duration::ZERO);
        });
        sim.run();
    }

    #[test]
    fn incremental_snapshot_matches_full_copy() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let a = rt.posix_open("/d/a", at(0), at(1)).unwrap();
            let b = rt.posix_open("/d/b", at(1), at(2)).unwrap();
            rt.posix_read(a, 0, 4096, at(2), at(3));
            rt.snapshot();
            rt.posix_read(b, 0, 100, at(3), at(4));
            rt.posix_write(a, 0, 200, at(4), at(5));
            rt.stdio_open("/d/s", at(5), at(6)).unwrap();
            rt.snapshot();
            rt.posix_read(a, 4096, 4096, at(6), at(7));
            let inc = rt.snapshot();
            let full = rt.snapshot_full();
            assert_eq!(inc.posix.len(), full.posix.len());
            for (i, f) in inc.posix.iter().zip(full.posix.iter()) {
                assert_eq!(i.rec_id, f.rec_id);
                assert_eq!(i.counters, f.counters, "record {:#x}", i.rec_id);
                assert_eq!(i.fcounters, f.fcounters);
            }
            assert_eq!(inc.stdio.len(), full.stdio.len());
            for (i, f) in inc.stdio.iter().zip(full.stdio.iter()) {
                assert_eq!(i.counters, f.counters);
                assert_eq!(i.fcounters, f.fcounters);
            }
            assert_eq!(inc.names, full.names);
            assert_eq!(inc.dxt_segments, full.dxt_segments);
        });
        sim.run();
    }

    #[test]
    fn clean_records_share_storage_across_snapshots() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let a = rt.posix_open("/d/a", at(0), at(0)).unwrap();
            rt.posix_open("/d/b", at(0), at(0)).unwrap();
            let s1 = rt.snapshot();
            rt.posix_read(a, 0, 10, at(1), at(2));
            let s2 = rt.snapshot();
            for (r1, r2) in s1.posix.iter().zip(s2.posix.iter()) {
                if r1.rec_id == a {
                    assert!(!Arc::ptr_eq(r1, r2), "dirty record was re-copied");
                } else {
                    assert!(Arc::ptr_eq(r1, r2), "clean record must be shared");
                }
            }
        });
        sim.run();
    }

    #[test]
    fn totals_track_aggregates() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let id = rt.posix_open("/d/f", at(0), at(0)).unwrap();
            rt.posix_read(id, 0, 500, at(0), at(1));
            rt.posix_write(id, 0, 200, at(1), at(2));
            let t = rt.totals();
            assert_eq!(t.posix_opens, 1);
            assert_eq!(t.posix_reads, 1);
            assert_eq!(t.posix_bytes_read, 500);
            assert_eq!(t.posix_bytes_written, 200);
        });
        sim.run();
    }

    #[test]
    fn stdio_module_counts() {
        let sim = Sim::new();
        sim.spawn("t", || {
            let rt = DarshanRuntime::new(DarshanConfig::default());
            let id = rt.stdio_open("/ckpt", at(0), at(1)).unwrap();
            for i in 0..140u64 {
                rt.stdio_write(id, i * 100, 100, at(i + 1), at(i + 2));
            }
            rt.stdio_close(id, at(200), at(201));
            let snap = rt.snapshot();
            let r = &snap.stdio[0];
            assert_eq!(r.get(S::STDIO_OPENS), 1);
            assert_eq!(r.get(S::STDIO_WRITES), 140);
            assert_eq!(r.get(S::STDIO_BYTES_WRITTEN), 14_000);
        });
        sim.run();
    }
}
