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
//! The same idea covers DXT (per-file append watermarks and a log of the
//! files each capture marked, see [`DarshanRuntime::dxt_between`]) and
//! the name records (an append-only table that snapshots view, see
//! [`Names`]). The legacy full-copy path survives as
//! [`DarshanRuntime::snapshot_full`] for comparison and as the
//! equivalence oracle.
//!
//! # Slots
//!
//! Each module keeps its records in a slab, and the name table maps a
//! record id to its name and to its slot in each module; a file's DXT
//! list sits at its POSIX slot. Records are never evicted, so the event
//! fold memoizes slots and folds a known file's event as indexed writes,
//! with the module and DXT buffers under one lock taken once per batch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};
use simrt::{sleep, SimTime, TaskId};

use crate::counters::{
    record_id, size_bucket, Module, Posix, PosixCounter as P, PosixRecord, Record, Stdio,
    StdioCounter as S, StdioRecord,
};
use crate::names::{Names, SharedTable, POSIX, STDIO};

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

/// One module's records: a slab in creation order (the runtime's name
/// table maps each record id to its slot). Records are never evicted, so
/// a slot names its record for the runtime's lifetime and the event fold
/// can memoize it.
#[derive(Default)]
struct ModuleBuf<M: Module> {
    records: Vec<Record<M>>,
    partial: bool,
    /// Slots dirtied since the last incremental extraction. Each slot
    /// appears at most once: a record is listed iff
    /// `dirty_epoch > drained_epoch`.
    dirty: Vec<u32>,
    /// Epoch through which `dirty` has been drained into the baseline.
    drained_epoch: u64,
}

impl<M: Module> ModuleBuf<M> {
    /// Stamp the record at `slot` dirty at `epoch` and return it.
    fn touch(&mut self, slot: u32, epoch: u64) -> &mut Record<M> {
        let r = &mut self.records[slot as usize];
        if r.dirty_epoch <= self.drained_epoch {
            self.dirty.push(slot);
        }
        r.dirty_epoch = epoch;
        r
    }

    /// Every record, copied and reduced, sorted by record id (the full
    /// extraction), with the partial flag.
    fn copy_all(&self) -> (Vec<Arc<Record<M>>>, bool) {
        let mut v: Vec<Arc<Record<M>>> = self.records.iter().map(Record::reduced).collect();
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
        for slot in std::mem::take(&mut self.dirty) {
            let live = &self.records[slot as usize];
            match baseline.binary_search_by_key(&live.rec_id, |r| r.rec_id) {
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

/// Per-file DXT segment list, at its file's POSIX slot.
#[derive(Default)]
struct DxtFile {
    /// The file's record id.
    rec_id: u64,
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
    /// Append watermarks: `(epoch, segment count)` for every capture that
    /// found segments here beyond the previous mark, in epoch order. Each
    /// mark stands for at least one segment, so marks never outnumber
    /// segments.
    marks: Vec<(u64, usize)>,
}

impl DxtFile {
    /// Segment count as of the capture at `epoch`.
    fn count_at(&self, epoch: u64) -> usize {
        match self.marks.partition_point(|m| m.0 <= epoch) {
            0 => 0,
            i => self.marks[i - 1].1,
        }
    }
}

#[derive(Default)]
struct DxtBuf {
    /// Indexed by POSIX slot (grown on a file's first segment).
    files: Vec<DxtFile>,
    total: usize,
    truncated: bool,
    /// Slots appended-to since the last incremental watermark capture.
    dirty: Vec<u32>,
    drained_epoch: u64,
    /// Append-only log of the slots that got a new mark, in capture order.
    /// A snapshot records this log's length as its `dxt_pos`, so the files
    /// that changed between two snapshots are the entries between their
    /// positions. One entry per mark.
    log: Vec<u32>,
}

impl DxtBuf {
    /// The segments of the file at `slot`, if it has any.
    fn file(&self, slot: Option<u32>) -> Option<&DxtFile> {
        self.files.get(slot? as usize)
    }

    /// Mark, at `epoch`, every file appended-to since the last
    /// incremental capture that grew past its last mark, and log it. An
    /// incremental capture (`drain`) then empties the dirty list; a full
    /// one leaves it, so the next incremental capture still sees those
    /// files (and marks only the ones that grew again). Returns the
    /// segment total, the truncated flag and the log position.
    fn capture_marks(&mut self, epoch: u64, drain: bool) -> (usize, bool, usize) {
        for &slot in self.dirty.iter() {
            let f = &mut self.files[slot as usize];
            let len = f.segs.len();
            if f.marks.last().map_or(0, |m| m.1) < len {
                f.marks.push((epoch, len));
                self.log.push(slot);
            }
        }
        if drain {
            self.dirty.clear();
            self.drained_epoch = epoch;
        }
        (self.total, self.truncated, self.log.len())
    }
}

/// Everything the event fold mutates, under one lock.
#[derive(Default)]
struct Modules {
    posix: ModuleBuf<Posix>,
    stdio: ModuleBuf<Stdio>,
    dxt: DxtBuf,
}

/// While a snapshot copies the module buffers it holds the module lock;
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
    /// Record-id → path names registered by extraction time (a view of
    /// the runtime's append-only table; see [`Names`]).
    pub names: Names,
    /// True if the POSIX module ran out of record memory.
    pub posix_partial: bool,
    /// True if the STDIO module ran out of record memory.
    pub stdio_partial: bool,
    /// Total DXT segments recorded so far.
    pub dxt_segments: usize,
    /// True if DXT had hit `dxt_max_segments` and dropped segments by the
    /// time of this snapshot: a window ending here has an incomplete trace.
    pub dxt_truncated: bool,
    /// Position in the runtime's DXT watermark log at extraction time.
    /// [`DarshanRuntime::dxt_between`] visits only the log entries between
    /// two snapshots' positions, and finds each file's counts at the two
    /// snapshots' epochs.
    pub dxt_pos: usize,
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
    /// Record id → name and module slots, shared with snapshots' views.
    names: SharedTable,
    /// The module and DXT buffers.
    modules: Mutex<Modules>,
    baseline: Mutex<Baseline>,
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
            names: SharedTable::default(),
            modules: Mutex::default(),
            baseline: Mutex::default(),
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
    /// snapshot holds the module lock.
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

    /// Resolve a record id back to a path (the helper tf-Darshan `dlsym`s).
    pub fn lookup_name(&self, rec_id: u64) -> Option<String> {
        Names::view(&self.names).get(rec_id).map(|p| p.to_string())
    }

    /// The module and DXT buffers under their one lock: what one event
    /// fold batch or one direct mutator call works on.
    pub(crate) fn bufs(&self) -> Bufs<'_> {
        Bufs {
            rt: self,
            epoch: self.current_epoch(),
            m: self.modules.lock(),
            totals: Totals::default(),
        }
    }

    /// The slot of `rec_id`'s record in module `m`.
    fn slot(&self, rec_id: u64, m: usize) -> Option<u32> {
        self.names.read().slot(rec_id, m)
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
        let mut b = self.bufs();
        b.count_open();
        let slot = b.posix_slot(path)?;
        b.posix_opened(slot, t0, t1);
        Some(b.m.posix.records[slot as usize].rec_id)
    }

    /// Instrument a read of `len` bytes at `offset`.
    pub fn posix_read(&self, rec_id: u64, offset: u64, len: u64, t0: SimTime, t1: SimTime) {
        self.posix_io(rec_id, DxtOp::Read, offset, len, t0, t1);
    }

    /// Instrument a write.
    pub fn posix_write(&self, rec_id: u64, offset: u64, len: u64, t0: SimTime, t1: SimTime) {
        self.posix_io(rec_id, DxtOp::Write, offset, len, t0, t1);
    }

    fn posix_io(&self, rec_id: u64, op: DxtOp, offset: u64, len: u64, t0: SimTime, t1: SimTime) {
        let mut b = self.bufs();
        match self.slot(rec_id, POSIX) {
            Some(slot) => b.posix_io(slot, op, offset, len, t0, t1),
            None => b.count_io(op, len),
        }
    }

    /// Instrument a metadata operation (seek/stat/fsync) against an
    /// existing record.
    pub fn posix_meta(&self, rec_id: u64, counter: P, t0: SimTime, t1: SimTime) {
        let mut b = self.bufs();
        if let Some(slot) = self.slot(rec_id, POSIX) {
            b.posix_meta(slot, counter, t0, t1);
        }
    }

    /// Register a record for a file whose `open` predates attachment
    /// (OPENS stays 0; only subsequently observed operations count).
    pub fn posix_register_existing(&self, path: &str) -> Option<u64> {
        let mut b = self.bufs();
        let slot = b.posix_slot(path)?;
        Some(b.m.posix.records[slot as usize].rec_id)
    }

    /// Instrument a `stat` by path (creates the record if needed, like
    /// Darshan's stat wrapper). Returns the record id; `None` when the
    /// module is out of record memory.
    pub fn posix_stat_path(&self, path: &str, t0: SimTime, t1: SimTime) -> Option<u64> {
        let mut b = self.bufs();
        let slot = b.posix_slot(path)?;
        b.posix_meta(slot, P::POSIX_STATS, t0, t1);
        Some(b.m.posix.records[slot as usize].rec_id)
    }

    /// Instrument a `close`.
    pub fn posix_close(&self, rec_id: u64, t0: SimTime, t1: SimTime) {
        let mut b = self.bufs();
        if let Some(slot) = self.slot(rec_id, POSIX) {
            b.posix_closed(slot, t0, t1);
        }
    }

    // -- STDIO module -------------------------------------------------------

    /// Instrument `fopen`.
    pub fn stdio_open(&self, path: &str, t0: SimTime, t1: SimTime) -> Option<u64> {
        let mut b = self.bufs();
        let slot = b.stdio_slot(path)?;
        b.stdio_opened(slot, t0, t1);
        Some(b.m.stdio.records[slot as usize].rec_id)
    }

    /// Instrument `fread`.
    pub fn stdio_read(&self, rec_id: u64, pos: u64, len: u64, t0: SimTime, t1: SimTime) {
        let mut b = self.bufs();
        if let Some(slot) = self.slot(rec_id, STDIO) {
            b.stdio_io(slot, false, pos, len, t0, t1);
        }
    }

    /// Instrument `fwrite`.
    pub fn stdio_write(&self, rec_id: u64, pos: u64, len: u64, t0: SimTime, t1: SimTime) {
        let mut b = self.bufs();
        if let Some(slot) = self.slot(rec_id, STDIO) {
            b.stdio_io(slot, true, pos, len, t0, t1);
        }
    }

    /// Instrument `fseek` / `fflush`.
    pub fn stdio_meta(&self, rec_id: u64, counter: S, t0: SimTime, t1: SimTime) {
        let mut b = self.bufs();
        if let Some(slot) = self.slot(rec_id, STDIO) {
            b.stdio_meta(slot, counter, t0, t1);
        }
    }

    /// Instrument `fclose`.
    pub fn stdio_close(&self, rec_id: u64, t0: SimTime, t1: SimTime) {
        let mut b = self.bufs();
        if let Some(slot) = self.slot(rec_id, STDIO) {
            b.stdio_closed(slot, t0, t1);
        }
    }

    // -- DXT ----------------------------------------------------------------

    /// All DXT segments of one file, in non-decreasing end-time order.
    pub fn dxt_of(&self, rec_id: u64) -> Vec<DxtSegment> {
        let slot = self.slot(rec_id, POSIX);
        let m = self.modules.lock();
        m.dxt.file(slot).map(|f| f.segs.clone()).unwrap_or_default()
    }

    /// Extract all DXT segments overlapping `[from, to]` (Darshan-relative
    /// seconds), as `(rec_id, segment)` pairs sorted by start time. This is
    /// what tf-Darshan exports to the TraceViewer. Per-file lists are
    /// end-sorted, so the lower bound is a binary search instead of a scan
    /// over every segment ever recorded.
    pub fn dxt_range(&self, from: f64, to: f64) -> Vec<(u64, DxtSegment)> {
        let m = self.modules.lock();
        let d = &m.dxt;
        let mut out: Vec<(u64, DxtSegment)> = Vec::new();
        for f in &d.files {
            let lo = f.segs.partition_point(|s| s.end < from);
            for s in &f.segs[lo..] {
                if s.start <= to {
                    out.push((f.rec_id, *s));
                }
            }
        }
        out.sort_by(|a, b| a.1.start.total_cmp(&b.1.start).then(a.0.cmp(&b.0)));
        out
    }

    /// Extract exactly the DXT segments appended between two snapshots of
    /// this runtime, as `(rec_id, segment)` pairs sorted by start time: per
    /// file, the segments between its counts at the two snapshots. Only
    /// the files whose watermarks moved in between are visited (the log
    /// entries between the snapshots' `dxt_pos`), each count is a binary
    /// search over that file's marks, and the result is sorted once — so
    /// the cost follows the window's files and segments, not the files
    /// held. No time-range scan, and a segment ending exactly at a
    /// snapshot lands in exactly one window. Empty when `start` is not
    /// before `stop`.
    pub fn dxt_between(&self, start: &Snapshot, stop: &Snapshot) -> Vec<(u64, DxtSegment)> {
        let m = self.modules.lock();
        let d = &m.dxt;
        let mut slots = match d.log.get(start.dxt_pos..stop.dxt_pos) {
            Some(slots) => slots.to_vec(),
            None => return Vec::new(),
        };
        slots.sort_unstable();
        slots.dedup();
        let mut out: Vec<(u64, DxtSegment)> = Vec::new();
        for slot in slots {
            let f = &d.files[slot as usize];
            let (lo, hi) = (f.count_at(start.epoch), f.count_at(stop.epoch));
            if hi > lo {
                out.extend(f.segs[lo..hi].iter().map(|s| (f.rec_id, *s)));
            }
        }
        out.sort_by(|a, b| a.1.start.total_cmp(&b.1.start).then(a.0.cmp(&b.0)));
        out
    }

    /// True if DXT hit its memory cap and dropped segments.
    pub fn dxt_truncated(&self) -> bool {
        self.modules.lock().dxt.truncated
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
        // Extraction copies records under the module lock: charge for
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
        // One acquisition of the module lock: records, partial flags and
        // DXT marks are read under the same guard.
        let mut bl = self.baseline.lock();
        let mut guard = self.modules.lock();
        let m = &mut *guard;
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst);
        let ((posix, posix_partial), (stdio, stdio_partial)) = if full {
            (m.posix.copy_all(), m.stdio.copy_all())
        } else {
            (
                m.posix.merge_into(&mut bl.posix, epoch),
                m.stdio.merge_into(&mut bl.stdio, epoch),
            )
        };
        let (dxt_segments, dxt_truncated, dxt_pos) = m.dxt.capture_marks(epoch, !full);
        drop(guard);
        Snapshot {
            taken_at,
            epoch,
            posix,
            stdio,
            names: Names::view(&self.names),
            posix_partial,
            stdio_partial,
            dxt_segments,
            dxt_truncated,
            dxt_pos,
        }
    }

    /// Number of POSIX records currently held.
    pub fn posix_record_count(&self) -> usize {
        self.modules.lock().posix.records.len()
    }

    /// Number of STDIO records currently held.
    pub fn stdio_record_count(&self) -> usize {
        self.modules.lock().stdio.records.len()
    }

    /// Number of records dirtied since the last incremental extraction
    /// (what the next [`DarshanRuntime::snapshot`] will pay for).
    pub fn dirty_record_count(&self) -> usize {
        let m = self.modules.lock();
        m.posix.dirty.len() + m.stdio.dirty.len()
    }
}

impl<M: Module> ModuleBuf<M> {
    /// The slot of `path`'s record in this module (module `m` of the name
    /// table), creating the record (stamped dirty, its name registered)
    /// on first sight; `None` with the partial flag set once the module is
    /// out of record memory. One probe of the name table finds or places
    /// both. Pure bookkeeping: the new-record *time* cost is charged by the
    /// wrapper at the emission site (this runs inside event folds, which
    /// must not sleep).
    fn ensure(
        &mut self,
        rt: &DarshanRuntime,
        m: usize,
        epoch: u64,
        path: impl AsRef<str> + Into<Arc<str>>,
    ) -> Option<u32> {
        let id = record_id(path.as_ref());
        let new_slot = || {
            if self.records.len() >= rt.config.max_records_per_module {
                self.partial = true;
                return None;
            }
            let slot = u32::try_from(self.records.len()).expect("module slots fit in u32");
            self.records.push(Record::new(id));
            Some(slot)
        };
        let placed = rt
            .names
            .write()
            .slot_or_insert(id, m, || path.into(), new_slot);
        let (slot, created) = placed?;
        if created {
            self.touch(slot, epoch);
        }
        Some(slot)
    }
}

/// The runtime's module and DXT buffers under one acquisition of each
/// lock ([`DarshanRuntime::bufs`]). Mutators address records by slot, so
/// folding an event into a known file costs a few indexed writes. The
/// aggregates accumulate here and publish when the guard drops.
pub(crate) struct Bufs<'a> {
    rt: &'a DarshanRuntime,
    /// The extraction epoch; it cannot advance while the module lock is
    /// held.
    epoch: u64,
    m: MutexGuard<'a, Modules>,
    totals: Totals,
}

impl Bufs<'_> {
    /// The POSIX slot of `path`, creating its record if needed.
    pub(crate) fn posix_slot(&mut self, path: impl AsRef<str> + Into<Arc<str>>) -> Option<u32> {
        self.m.posix.ensure(self.rt, POSIX, self.epoch, path)
    }

    /// The STDIO slot of `path`, creating its record if needed.
    pub(crate) fn stdio_slot(&mut self, path: impl AsRef<str> + Into<Arc<str>>) -> Option<u32> {
        self.m.stdio.ensure(self.rt, STDIO, self.epoch, path)
    }

    /// Count one POSIX `open` (whether or not a record could be held).
    pub(crate) fn count_open(&mut self) {
        self.totals.posix_opens += 1;
    }

    pub(crate) fn posix_opened(&mut self, slot: u32, t0: SimTime, t1: SimTime) {
        self.rt.opened(self.m.posix.touch(slot, self.epoch), t0, t1);
    }

    pub(crate) fn posix_closed(&mut self, slot: u32, t0: SimTime, t1: SimTime) {
        self.rt.closed(self.m.posix.touch(slot, self.epoch), t0, t1);
    }

    pub(crate) fn posix_meta(&mut self, slot: u32, counter: P, t0: SimTime, t1: SimTime) {
        self.rt
            .meta(self.m.posix.touch(slot, self.epoch), counter, t0, t1);
    }

    fn count_io(&mut self, op: DxtOp, len: u64) {
        let t = &mut self.totals;
        if op == DxtOp::Write {
            t.posix_writes += 1;
            t.posix_bytes_written += len;
        } else {
            t.posix_reads += 1;
            t.posix_bytes_read += len;
        }
    }

    /// The POSIX read/write mutator: counts, the size histogram, the
    /// SEQ/CONSEC and RW_SWITCHES pattern tracking, timing, and the DXT
    /// segment — the part of the mutators that is POSIX's alone.
    pub(crate) fn posix_io(
        &mut self,
        slot: u32,
        op: DxtOp,
        offset: u64,
        len: u64,
        t0: SimTime,
        t1: SimTime,
    ) {
        self.count_io(op, len);
        let (write, w) = (op == DxtOp::Write, (op == DxtOp::Write) as usize);
        let (s, e) = (self.rt.rel(t0), self.rt.rel(t1));
        let r = self.m.posix.touch(slot, self.epoch);
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
        r.stamp(Posix::STAMPS[1 + w], s, e);
        *r.fget_mut(Posix::TIMES[w]) += e - s;
        let mx = r.fget_mut(Posix::FMAX[w]);
        *mx = mx.max(e - s);
        let rec_id = r.rec_id;
        self.dxt_push(slot, rec_id, op, offset, len, s, e);
    }

    /// Append one segment to the DXT list at `slot`, keeping it
    /// end-sorted (the common case appends).
    #[allow(clippy::too_many_arguments)]
    fn dxt_push(
        &mut self,
        slot: u32,
        rec_id: u64,
        op: DxtOp,
        offset: u64,
        length: u64,
        start: f64,
        end: f64,
    ) {
        let config = &self.rt.config;
        if !config.dxt_enabled {
            return;
        }
        let d = &mut self.m.dxt;
        if d.total >= config.dxt_max_segments {
            d.truncated = true;
            return;
        }
        d.total += 1;
        let seg = DxtSegment {
            op,
            offset,
            length,
            start,
            end,
            rank: config.rank,
        };
        let i = slot as usize;
        if d.files.len() <= i {
            d.files.resize_with(i + 1, DxtFile::default);
        }
        let f = &mut d.files[i];
        f.rec_id = rec_id;
        if f.dirty_epoch <= d.drained_epoch {
            d.dirty.push(slot);
        }
        f.dirty_epoch = self.epoch;
        match f.segs.last() {
            Some(last) if last.end > seg.end => {
                let i = f.segs.partition_point(|s| s.end <= seg.end);
                f.segs.insert(i, seg);
            }
            _ => f.segs.push(seg),
        }
    }

    pub(crate) fn stdio_opened(&mut self, slot: u32, t0: SimTime, t1: SimTime) {
        self.rt.opened(self.m.stdio.touch(slot, self.epoch), t0, t1);
    }

    pub(crate) fn stdio_closed(&mut self, slot: u32, t0: SimTime, t1: SimTime) {
        self.rt.closed(self.m.stdio.touch(slot, self.epoch), t0, t1);
    }

    pub(crate) fn stdio_meta(&mut self, slot: u32, counter: S, t0: SimTime, t1: SimTime) {
        self.rt
            .meta(self.m.stdio.touch(slot, self.epoch), counter, t0, t1);
    }

    pub(crate) fn stdio_io(
        &mut self,
        slot: u32,
        write: bool,
        pos: u64,
        len: u64,
        t0: SimTime,
        t1: SimTime,
    ) {
        let w = write as usize;
        let dt = self.rt.rel(t1) - self.rt.rel(t0);
        let r = self.m.stdio.touch(slot, self.epoch);
        *r.get_mut([S::STDIO_READS, S::STDIO_WRITES][w]) += 1;
        *r.get_mut([S::STDIO_BYTES_READ, S::STDIO_BYTES_WRITTEN][w]) += len as i64;
        let max_byte = [S::STDIO_MAX_BYTE_READ, S::STDIO_MAX_BYTE_WRITTEN][w];
        max_offset(r.get_mut(max_byte), pos, len);
        *r.fget_mut(Stdio::TIMES[w]) += dt;
    }
}

impl Drop for Bufs<'_> {
    fn drop(&mut self) {
        let (rt, t) = (self.rt, self.totals);
        for (agg, n) in [
            (&rt.agg_opens, t.posix_opens),
            (&rt.agg_reads, t.posix_reads),
            (&rt.agg_writes, t.posix_writes),
            (&rt.agg_bytes_read, t.posix_bytes_read),
            (&rt.agg_bytes_written, t.posix_bytes_written),
        ] {
            if n > 0 {
                agg.fetch_add(n, Ordering::Relaxed);
            }
        }
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
            for i in 0..3u64 {
                rt.posix_read(id, i * 10, 10, at(i), at(i + 1));
            }
            assert!(!rt.snapshot().dxt_truncated, "at the cap, nothing dropped");
            for i in 3..5u64 {
                rt.posix_read(id, i * 10, 10, at(i), at(i + 1));
            }
            let segs = rt.dxt_of(id);
            assert_eq!(segs.len(), 3, "capped");
            assert!(rt.dxt_truncated());
            assert!(rt.snapshot().dxt_truncated);
            assert!(rt.snapshot_full().dxt_truncated);
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
            assert_eq!(s1.names.get(record_id("/d/f")).as_deref(), Some("/d/f"));
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
