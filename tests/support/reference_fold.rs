//! Test-only reference model of the Darshan event fold: the HashMap-keyed
//! module buffers, DXT lists, name map, common-access tracker and
//! descriptor memos that the slot-indexed fold
//! (`darshan_sim::DarshanSink` over `darshan_sim::DarshanRuntime`)
//! replaced, written single-threaded. The property tests fold random event
//! streams through both and compare every snapshot and every
//! `dxt_between` window.
//!
//! A snapshot here is a full copy: the production runtime's incremental
//! extraction must return exactly what a full copy would.
//!
//! Include with `#[path = "support/reference_fold.rs"] mod reference_fold;`.

use std::collections::HashMap;

use tf_darshan::darshan::{
    record_id, size_bucket, DarshanConfig, DxtOp, DxtSegment, Module, Posix, PosixCounter as P,
    Record, Stdio, StdioCounter as S,
};
use tf_darshan::probe::{EventKind, IoEvent, Origin, PathId};
use tf_darshan::simrt::SimTime;

/// The open counter of each module this reference folds.
trait Opens: Module {
    const OPENS: Self::Counter;
}

impl Opens for Posix {
    const OPENS: P = P::POSIX_OPENS;
}

impl Opens for Stdio {
    const OPENS: S = S::STDIO_OPENS;
}

/// The common-access tracker: at most 64 distinct values; on overflow the
/// rarest goes, the largest value among equally rare ones first.
#[derive(Clone, Debug, Default)]
struct Tracker {
    counts: HashMap<u64, u64>,
}

impl Tracker {
    const MAX_TRACKED: usize = 64;

    fn add(&mut self, value: u64) {
        if let Some(c) = self.counts.get_mut(&value) {
            *c += 1;
            return;
        }
        if self.counts.len() >= Self::MAX_TRACKED {
            if let Some((&evict, _)) = self
                .counts
                .iter()
                .min_by_key(|(v, c)| (**c, std::cmp::Reverse(**v)))
            {
                self.counts.remove(&evict);
            }
        }
        self.counts.insert(value, 1);
    }

    fn top(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counts.iter().map(|(a, b)| (*a, *b)).collect();
        v.sort_by_key(|(val, cnt)| (std::cmp::Reverse(*cnt), *val));
        v.truncate(n);
        v
    }
}

/// A live record plus the reference's own pattern and access tracking.
#[derive(Clone)]
struct Live<M: Module> {
    rec: Record<M>,
    access: Tracker,
    last_end: [u64; 2],
    last_was_write: Option<bool>,
}

impl<M: Module> Live<M> {
    fn stamp(&mut self, (start, end): (M::FCounter, M::FCounter), s: f64, e: f64) {
        if self.rec.fget(start) == 0.0 {
            *self.rec.fget_mut(start) = s;
        }
        *self.rec.fget_mut(end) = e;
    }

    /// The extraction copy: the record with its ACCESS slots derived from
    /// the tracker (modules without slots copy as is).
    fn reduced(&self) -> Record<M> {
        let mut copy = self.rec.clone();
        let slots = M::common_accesses(&mut copy.ext).map(|(_, slots)| slots);
        if let Some(slots) = slots {
            let top = self.access.top(4);
            for (i, &(a, c)) in slots.iter().enumerate() {
                let (val, cnt) = top.get(i).map_or((0, 0), |&(v, n)| (v as i64, n as i64));
                *copy.get_mut(a) = val;
                *copy.get_mut(c) = cnt;
            }
        }
        copy
    }
}

struct ModuleBuf<M: Module> {
    records: HashMap<u64, Live<M>>,
    partial: bool,
}

impl<M: Module> Default for ModuleBuf<M> {
    fn default() -> Self {
        ModuleBuf {
            records: HashMap::new(),
            partial: false,
        }
    }
}

#[derive(Default)]
struct DxtFile {
    segs: Vec<DxtSegment>,
    dirty_epoch: u64,
    marks: Vec<(u64, usize)>,
}

impl DxtFile {
    fn count_at(&self, epoch: u64) -> usize {
        match self.marks.partition_point(|m| m.0 <= epoch) {
            0 => 0,
            i => self.marks[i - 1].1,
        }
    }
}

#[derive(Default)]
struct DxtBuf {
    files: HashMap<u64, DxtFile>,
    total: usize,
    truncated: bool,
    dirty: Vec<u64>,
    drained_epoch: u64,
    log: Vec<u64>,
}

/// What a reference extraction returns: the fields of
/// `darshan_sim::Snapshot` the fold determines.
#[derive(Clone, Debug)]
pub struct RefSnapshot {
    pub epoch: u64,
    pub posix: Vec<Record<Posix>>,
    pub stdio: Vec<Record<Stdio>>,
    pub names: HashMap<u64, String>,
    pub posix_partial: bool,
    pub stdio_partial: bool,
    pub dxt_segments: usize,
    pub dxt_truncated: bool,
    pub dxt_pos: usize,
}

/// The reference runtime and its fold, in one single-threaded value.
pub struct RefFold {
    config: DarshanConfig,
    epoch: u64,
    /// Epoch through which the module dirty sets were last drained.
    drained_epoch: u64,
    names: HashMap<u64, String>,
    posix: ModuleBuf<Posix>,
    stdio: ModuleBuf<Stdio>,
    dxt: DxtBuf,
    /// `(opens, reads, writes, bytes read, bytes written)`.
    pub totals: (u64, u64, u64, u64, u64),
    fds: HashMap<i32, u64>,
    maps: HashMap<u64, u64>,
    streams: HashMap<u64, u64>,
    posix_recs: HashMap<PathId, u64>,
    stdio_recs: HashMap<PathId, u64>,
}

fn rel(t: SimTime) -> f64 {
    t.duration_since(SimTime::ZERO).as_secs_f64()
}

fn max_offset(cur: &mut i64, offset: u64, len: u64) {
    if len > 0 {
        *cur = (*cur).max((offset + len - 1) as i64);
    }
}

impl RefFold {
    /// A reference fold over a runtime initialized at virtual time zero.
    pub fn new(config: DarshanConfig) -> Self {
        RefFold {
            config,
            epoch: 1,
            drained_epoch: 0,
            names: HashMap::new(),
            posix: ModuleBuf::default(),
            stdio: ModuleBuf::default(),
            dxt: DxtBuf::default(),
            totals: (0, 0, 0, 0, 0),
            fds: HashMap::new(),
            maps: HashMap::new(),
            streams: HashMap::new(),
            posix_recs: HashMap::new(),
            stdio_recs: HashMap::new(),
        }
    }

    // -- runtime mutators ----------------------------------------------------

    fn ensure<M: Module>(
        names: &mut HashMap<u64, String>,
        m: &mut ModuleBuf<M>,
        cap: usize,
        path: &str,
        epoch: u64,
    ) -> Option<u64> {
        let id = record_id(path);
        if !m.records.contains_key(&id) {
            if m.records.len() >= cap {
                m.partial = true;
                return None;
            }
            names.entry(id).or_insert_with(|| path.to_string());
            let mut rec = Record::new(id);
            rec.dirty_epoch = epoch;
            let live = Live {
                rec,
                access: Tracker::default(),
                last_end: [0; 2],
                last_was_write: None,
            };
            m.records.insert(id, live);
        }
        Some(id)
    }

    fn touch<M: Module>(m: &mut ModuleBuf<M>, id: u64, epoch: u64) -> Option<&mut Live<M>> {
        let r = m.records.get_mut(&id)?;
        r.rec.dirty_epoch = epoch;
        Some(r)
    }

    fn opened<M: Opens>(r: &mut Live<M>, t0: SimTime, t1: SimTime) {
        *r.rec.get_mut(M::OPENS) += 1;
        let (s, e) = (rel(t0), rel(t1));
        r.stamp(M::STAMPS[0], s, e);
        *r.rec.fget_mut(M::TIMES[2]) += e - s;
    }

    fn closed<M: Module>(r: &mut Live<M>, t0: SimTime, t1: SimTime) {
        let (s, e) = (rel(t0), rel(t1));
        r.stamp(M::STAMPS[M::STAMPS.len() - 1], s, e);
        *r.rec.fget_mut(M::TIMES[2]) += e - s;
    }

    fn meta<M: Module>(r: &mut Live<M>, counter: M::Counter, t0: SimTime, t1: SimTime) {
        *r.rec.get_mut(counter) += 1;
        *r.rec.fget_mut(M::TIMES[2]) += rel(t1) - rel(t0);
    }

    fn posix_open(&mut self, path: &str, t0: SimTime, t1: SimTime) -> Option<u64> {
        self.totals.0 += 1;
        let cap = self.config.max_records_per_module;
        let id = Self::ensure(&mut self.names, &mut self.posix, cap, path, self.epoch)?;
        let r = Self::touch(&mut self.posix, id, self.epoch).expect("ensured");
        Self::opened(r, t0, t1);
        Some(id)
    }

    fn posix_reopen(&mut self, id: u64, t0: SimTime, t1: SimTime) {
        self.totals.0 += 1;
        if let Some(r) = Self::touch(&mut self.posix, id, self.epoch) {
            Self::opened(r, t0, t1);
        }
    }

    fn posix_stat_path(&mut self, path: &str, t0: SimTime, t1: SimTime) -> Option<u64> {
        let cap = self.config.max_records_per_module;
        let id = Self::ensure(&mut self.names, &mut self.posix, cap, path, self.epoch)?;
        let r = Self::touch(&mut self.posix, id, self.epoch).expect("ensured");
        Self::meta(r, P::POSIX_STATS, t0, t1);
        Some(id)
    }

    fn posix_meta(&mut self, id: u64, counter: P, t0: SimTime, t1: SimTime) {
        if let Some(r) = Self::touch(&mut self.posix, id, self.epoch) {
            Self::meta(r, counter, t0, t1);
        }
    }

    fn posix_close(&mut self, id: u64, t0: SimTime, t1: SimTime) {
        if let Some(r) = Self::touch(&mut self.posix, id, self.epoch) {
            Self::closed(r, t0, t1);
        }
    }

    fn posix_io(&mut self, id: u64, op: DxtOp, offset: u64, len: u64, t0: SimTime, t1: SimTime) {
        let write = op == DxtOp::Write;
        let w = write as usize;
        if write {
            self.totals.2 += 1;
            self.totals.4 += len;
        } else {
            self.totals.1 += 1;
            self.totals.3 += len;
        }
        let Some(r) = Self::touch(&mut self.posix, id, self.epoch) else {
            return;
        };
        *r.rec.get_mut([P::POSIX_READS, P::POSIX_WRITES][w]) += 1;
        *r.rec
            .get_mut([P::POSIX_BYTES_READ, P::POSIX_BYTES_WRITTEN][w]) += len as i64;
        let hist = [P::POSIX_SIZE_READ_0_100, P::POSIX_SIZE_WRITE_0_100][w];
        r.rec.counters[hist as usize + size_bucket(len)] += 1;
        r.access.add(len);
        let last_end = &mut r.last_end[w];
        let (consec, seq) = (offset == *last_end, offset >= *last_end);
        *last_end = offset + len;
        *r.rec
            .get_mut([P::POSIX_CONSEC_READS, P::POSIX_CONSEC_WRITES][w]) += consec as i64;
        *r.rec.get_mut([P::POSIX_SEQ_READS, P::POSIX_SEQ_WRITES][w]) += seq as i64;
        let max_byte = [P::POSIX_MAX_BYTE_READ, P::POSIX_MAX_BYTE_WRITTEN][w];
        max_offset(r.rec.get_mut(max_byte), offset, len);
        if r.last_was_write == Some(!write) {
            *r.rec.get_mut(P::POSIX_RW_SWITCHES) += 1;
        }
        r.last_was_write = Some(write);
        let (s, e) = (rel(t0), rel(t1));
        r.stamp(Posix::STAMPS[1 + w], s, e);
        *r.rec.fget_mut(Posix::TIMES[w]) += e - s;
        let mx = r.rec.fget_mut(Posix::FMAX[w]);
        *mx = mx.max(e - s);
        self.dxt_push(id, op, offset, len, s, e);
    }

    fn dxt_push(&mut self, id: u64, op: DxtOp, offset: u64, length: u64, start: f64, end: f64) {
        if !self.config.dxt_enabled {
            return;
        }
        let d = &mut self.dxt;
        if d.total >= self.config.dxt_max_segments {
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
            rank: self.config.rank,
        };
        let f = d.files.entry(id).or_default();
        if f.dirty_epoch <= d.drained_epoch {
            d.dirty.push(id);
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

    fn stdio_open(&mut self, path: &str, t0: SimTime, t1: SimTime) -> Option<u64> {
        let cap = self.config.max_records_per_module;
        let id = Self::ensure(&mut self.names, &mut self.stdio, cap, path, self.epoch)?;
        let r = Self::touch(&mut self.stdio, id, self.epoch).expect("ensured");
        Self::opened(r, t0, t1);
        Some(id)
    }

    fn stdio_with(&mut self, id: u64, f: impl FnOnce(&mut Live<Stdio>)) {
        if let Some(r) = Self::touch(&mut self.stdio, id, self.epoch) {
            f(r);
        }
    }

    fn stdio_io(&mut self, id: u64, write: bool, pos: u64, len: u64, t0: SimTime, t1: SimTime) {
        let w = write as usize;
        self.stdio_with(id, |r| {
            *r.rec.get_mut([S::STDIO_READS, S::STDIO_WRITES][w]) += 1;
            *r.rec
                .get_mut([S::STDIO_BYTES_READ, S::STDIO_BYTES_WRITTEN][w]) += len as i64;
            let max_byte = [S::STDIO_MAX_BYTE_READ, S::STDIO_MAX_BYTE_WRITTEN][w];
            max_offset(r.rec.get_mut(max_byte), pos, len);
            *r.rec.fget_mut(Stdio::TIMES[w]) += rel(t1) - rel(t0);
        });
    }

    // -- the fold ------------------------------------------------------------

    /// POSIX record of `fd`, registering lazily for a descriptor opened
    /// before attachment.
    fn rec_of(&mut self, fd: i32, path: PathId) -> Option<u64> {
        if let Some(id) = self.fds.get(&fd) {
            return Some(*id);
        }
        let id = match self.posix_recs.get(&path) {
            Some(&id) => id,
            None => {
                let cap = self.config.max_records_per_module;
                let path_str = path.resolve();
                let id =
                    Self::ensure(&mut self.names, &mut self.posix, cap, &path_str, self.epoch)?;
                self.posix_recs.insert(path, id);
                id
            }
        };
        self.fds.insert(fd, id);
        Some(id)
    }

    fn fd_meta(&mut self, ev: &IoEvent, fd: i32, counter: P) {
        if let Some(id) = self.rec_of(fd, ev.target) {
            self.posix_meta(id, counter, ev.t0, ev.t1);
        }
    }

    fn stream_meta(&mut self, ev: &IoEvent, stream: u64, counter: S) {
        if let Some(&id) = self.streams.get(&stream) {
            let (t0, t1) = (ev.t0, ev.t1);
            self.stdio_with(id, |r| Self::meta(r, counter, t0, t1));
        }
    }

    /// Fold one batch of events.
    pub fn on_events(&mut self, events: &[IoEvent]) {
        for ev in events {
            self.fold(ev);
        }
    }

    fn fold(&mut self, ev: &IoEvent) {
        if ev.origin != Origin::App {
            return;
        }
        let (t0, t1) = (ev.t0, ev.t1);
        match ev.kind {
            EventKind::Open { fd } => {
                let id = match self.posix_recs.get(&ev.target) {
                    Some(&id) => {
                        self.posix_reopen(id, t0, t1);
                        Some(id)
                    }
                    None => {
                        let id = self.posix_open(&ev.target.resolve(), t0, t1);
                        if let Some(id) = id {
                            self.posix_recs.insert(ev.target, id);
                        }
                        id
                    }
                };
                if let Some(id) = id {
                    self.fds.insert(fd, id);
                }
            }
            EventKind::Close { fd } => {
                if let Some(id) = self.fds.remove(&fd) {
                    self.posix_close(id, t0, t1);
                }
            }
            EventKind::Read { fd, offset, len } => {
                if let Some(id) = self.rec_of(fd, ev.target) {
                    self.posix_io(id, DxtOp::Read, offset, len, t0, t1);
                }
            }
            EventKind::Write { fd, offset, len } => {
                if let Some(id) = self.rec_of(fd, ev.target) {
                    self.posix_io(id, DxtOp::Write, offset, len, t0, t1);
                }
            }
            EventKind::Seek { fd, .. } => self.fd_meta(ev, fd, P::POSIX_SEEKS),
            EventKind::Stat => match self.posix_recs.get(&ev.target) {
                Some(&id) => self.posix_meta(id, P::POSIX_STATS, t0, t1),
                None => {
                    if let Some(id) = self.posix_stat_path(&ev.target.resolve(), t0, t1) {
                        self.posix_recs.insert(ev.target, id);
                    }
                }
            },
            EventKind::Fstat { fd } => self.fd_meta(ev, fd, P::POSIX_STATS),
            EventKind::Fsync { fd } => self.fd_meta(ev, fd, P::POSIX_FSYNCS),
            EventKind::Mmap { map, fd, .. } => {
                if let Some(id) = self.rec_of(fd, ev.target) {
                    self.posix_meta(id, P::POSIX_MMAPS, t0, t1);
                    self.maps.insert(map, id);
                }
            }
            EventKind::Msync { map } => {
                if let Some(&id) = self.maps.get(&map) {
                    self.posix_meta(id, P::POSIX_MSYNCS, t0, t1);
                }
            }
            EventKind::Munmap { map } => {
                self.maps.remove(&map);
            }
            EventKind::MmapFault { .. } => {}
            EventKind::StdioOpen { stream } => {
                let id = match self.stdio_recs.get(&ev.target) {
                    Some(&id) => {
                        self.stdio_with(id, |r| Self::opened(r, t0, t1));
                        Some(id)
                    }
                    None => {
                        let id = self.stdio_open(&ev.target.resolve(), t0, t1);
                        if let Some(id) = id {
                            self.stdio_recs.insert(ev.target, id);
                        }
                        id
                    }
                };
                if let Some(id) = id {
                    self.streams.insert(stream, id);
                }
            }
            EventKind::StdioClose { stream } => {
                if let Some(id) = self.streams.remove(&stream) {
                    self.stdio_with(id, |r| Self::closed(r, t0, t1));
                }
            }
            EventKind::StdioRead { stream, pos, len } => {
                if let Some(&id) = self.streams.get(&stream) {
                    self.stdio_io(id, false, pos, len, t0, t1);
                }
            }
            EventKind::StdioWrite { stream, pos, len } => {
                if let Some(&id) = self.streams.get(&stream) {
                    self.stdio_io(id, true, pos, len, t0, t1);
                }
            }
            EventKind::StdioSeek { stream, .. } => self.stream_meta(ev, stream, S::STDIO_SEEKS),
            EventKind::StdioFlush { stream } => self.stream_meta(ev, stream, S::STDIO_FLUSHES),
            // The streams this reference folds carry no MPI-IO calls.
            EventKind::Sync { .. }
            | EventKind::MpiOpen { .. }
            | EventKind::MpiClose
            | EventKind::MpiIo { .. } => {}
        }
    }

    // -- extraction ----------------------------------------------------------

    /// Records dirtied since the last incremental extraction.
    pub fn dirty_record_count(&self) -> usize {
        let dirty = |d: u64| d > self.drained_epoch;
        self.posix
            .records
            .values()
            .filter(|r| dirty(r.rec.dirty_epoch))
            .count()
            + self
                .stdio
                .records
                .values()
                .filter(|r| dirty(r.rec.dirty_epoch))
                .count()
    }

    /// An extraction: `full` leaves the DXT dirty list undrained, as
    /// `DarshanRuntime::snapshot_full` does.
    pub fn snapshot(&mut self, full: bool) -> RefSnapshot {
        let epoch = self.epoch;
        self.epoch += 1;
        if !full {
            self.drained_epoch = epoch;
        }
        fn copy<M: Module>(m: &ModuleBuf<M>) -> Vec<Record<M>> {
            let mut v: Vec<Record<M>> = m.records.values().map(Live::reduced).collect();
            v.sort_by_key(|r| r.rec_id);
            v
        }
        let d = &mut self.dxt;
        for &id in d.dirty.iter() {
            let f = d.files.get_mut(&id).expect("dirty DXT files exist");
            let len = f.segs.len();
            if f.marks.last().map_or(0, |m| m.1) < len {
                f.marks.push((epoch, len));
                d.log.push(id);
            }
        }
        if !full {
            d.dirty.clear();
            d.drained_epoch = epoch;
        }
        RefSnapshot {
            epoch,
            posix: copy(&self.posix),
            stdio: copy(&self.stdio),
            names: self.names.clone(),
            posix_partial: self.posix.partial,
            stdio_partial: self.stdio.partial,
            dxt_segments: d.total,
            dxt_truncated: d.truncated,
            dxt_pos: d.log.len(),
        }
    }

    /// The DXT segments appended between two snapshots, sorted by start.
    pub fn dxt_between(&self, start: &RefSnapshot, stop: &RefSnapshot) -> Vec<(u64, DxtSegment)> {
        let d = &self.dxt;
        let mut ids = match d.log.get(start.dxt_pos..stop.dxt_pos) {
            Some(ids) => ids.to_vec(),
            None => return Vec::new(),
        };
        ids.sort_unstable();
        ids.dedup();
        let mut out = Vec::new();
        for id in ids {
            let f = &d.files[&id];
            let (lo, hi) = (f.count_at(start.epoch), f.count_at(stop.epoch));
            if hi > lo {
                out.extend(f.segs[lo..hi].iter().map(|s| (id, *s)));
            }
        }
        out.sort_by(|a, b| a.1.start.total_cmp(&b.1.start).then(a.0.cmp(&b.0)));
        out
    }

    /// Every DXT segment of one file, in end order.
    pub fn dxt_of(&self, id: u64) -> Vec<DxtSegment> {
        self.dxt
            .files
            .get(&id)
            .map(|f| f.segs.clone())
            .unwrap_or_default()
    }
}
