//! Darshan counter definitions and per-file records.
//!
//! Mirrors the layout of real Darshan 3.2 module records: each instrumented
//! file gets one [`Record<M>`] holding a fixed array of integer counters and
//! a fixed array of floating-point (timestamp/duration) counters, where the
//! [`Module`] impls [`Posix`] and [`Stdio`] say what differs. Counter
//! names and semantics follow `darshan-posix-log-format.h` /
//! `darshan-stdio-log-format.h` (trimmed to the set the paper's analyses
//! use: operation counts, byte counts, access-size histogram, sequential/
//! consecutive pattern counters, common access sizes, and timing).

use std::fmt::Debug;

use self::{PosixCounter as P, PosixFCounter as PF, StdioCounter as S, StdioFCounter as SF};

/// Generates a counter enum with a stable index and name table.
macro_rules! counters {
    ($(#[$m:meta])* $vis:vis enum $name:ident { $($c:ident),+ $(,)? }) => {
        $(#[$m])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
        #[allow(non_camel_case_types, missing_docs)]
        #[repr(usize)]
        $vis enum $name { $($c),+ }

        impl $name {
            /// Number of counters.
            pub const COUNT: usize = [$(Self::$c),+].len();
            /// All counters in index order.
            pub const ALL: [$name; Self::COUNT] = [$(Self::$c),+];

            /// The Darshan counter name.
            pub fn name(self) -> &'static str {
                <Self as Counter>::NAMES[self as usize]
            }
        }

        impl Counter for $name {
            const NAMES: &'static [&'static str] = &[$(stringify!($c)),+];
            fn idx(self) -> usize {
                self as usize
            }
        }
    };
}

counters! {
    /// Integer counters of the POSIX module.
    pub enum PosixCounter {
        POSIX_OPENS,
        POSIX_READS,
        POSIX_WRITES,
        POSIX_SEEKS,
        POSIX_STATS,
        POSIX_FSYNCS,
        POSIX_BYTES_READ,
        POSIX_BYTES_WRITTEN,
        POSIX_CONSEC_READS,
        POSIX_CONSEC_WRITES,
        POSIX_SEQ_READS,
        POSIX_SEQ_WRITES,
        POSIX_RW_SWITCHES,
        POSIX_MAX_BYTE_READ,
        POSIX_MAX_BYTE_WRITTEN,
        POSIX_SIZE_READ_0_100,
        POSIX_SIZE_READ_100_1K,
        POSIX_SIZE_READ_1K_10K,
        POSIX_SIZE_READ_10K_100K,
        POSIX_SIZE_READ_100K_1M,
        POSIX_SIZE_READ_1M_4M,
        POSIX_SIZE_READ_4M_10M,
        POSIX_SIZE_READ_10M_100M,
        POSIX_SIZE_READ_100M_1G,
        POSIX_SIZE_READ_1G_PLUS,
        POSIX_SIZE_WRITE_0_100,
        POSIX_SIZE_WRITE_100_1K,
        POSIX_SIZE_WRITE_1K_10K,
        POSIX_SIZE_WRITE_10K_100K,
        POSIX_SIZE_WRITE_100K_1M,
        POSIX_SIZE_WRITE_1M_4M,
        POSIX_SIZE_WRITE_4M_10M,
        POSIX_SIZE_WRITE_10M_100M,
        POSIX_SIZE_WRITE_100M_1G,
        POSIX_SIZE_WRITE_1G_PLUS,
        POSIX_ACCESS1_ACCESS,
        POSIX_ACCESS2_ACCESS,
        POSIX_ACCESS3_ACCESS,
        POSIX_ACCESS4_ACCESS,
        POSIX_ACCESS1_COUNT,
        POSIX_ACCESS2_COUNT,
        POSIX_ACCESS3_COUNT,
        POSIX_ACCESS4_COUNT,
        POSIX_MMAPS,
        // tf-Darshan extension (paper §VII: Darshan "requires extensions
        // to further capture fine-grained interactions, e.g., msync").
        POSIX_MSYNCS,
    }
}

counters! {
    /// Floating-point counters of the POSIX module (seconds relative to
    /// Darshan initialization, or durations).
    pub enum PosixFCounter {
        POSIX_F_OPEN_START_TIMESTAMP,
        POSIX_F_OPEN_END_TIMESTAMP,
        POSIX_F_READ_START_TIMESTAMP,
        POSIX_F_READ_END_TIMESTAMP,
        POSIX_F_WRITE_START_TIMESTAMP,
        POSIX_F_WRITE_END_TIMESTAMP,
        POSIX_F_CLOSE_START_TIMESTAMP,
        POSIX_F_CLOSE_END_TIMESTAMP,
        POSIX_F_READ_TIME,
        POSIX_F_WRITE_TIME,
        POSIX_F_META_TIME,
        POSIX_F_MAX_READ_TIME,
        POSIX_F_MAX_WRITE_TIME,
    }
}

counters! {
    /// Integer counters of the STDIO module.
    pub enum StdioCounter {
        STDIO_OPENS,
        STDIO_READS,
        STDIO_WRITES,
        STDIO_SEEKS,
        STDIO_FLUSHES,
        STDIO_BYTES_READ,
        STDIO_BYTES_WRITTEN,
        STDIO_MAX_BYTE_READ,
        STDIO_MAX_BYTE_WRITTEN,
    }
}

counters! {
    /// Floating-point counters of the STDIO module.
    pub enum StdioFCounter {
        STDIO_F_OPEN_START_TIMESTAMP,
        STDIO_F_OPEN_END_TIMESTAMP,
        STDIO_F_CLOSE_START_TIMESTAMP,
        STDIO_F_CLOSE_END_TIMESTAMP,
        STDIO_F_READ_TIME,
        STDIO_F_WRITE_TIME,
        STDIO_F_META_TIME,
    }
}

/// Buckets of the Darshan access-size histogram, shared by read and write.
/// Returns the bucket index 0..10 for a transfer of `size` bytes.
pub fn size_bucket(size: u64) -> usize {
    match size {
        0..=100 => 0,
        101..=1024 => 1,
        1025..=10_240 => 2,
        10_241..=102_400 => 3,
        102_401..=1_048_576 => 4,
        1_048_577..=4_194_304 => 5,
        4_194_305..=10_485_760 => 6,
        10_485_761..=104_857_600 => 7,
        104_857_601..=1_073_741_824 => 8,
        _ => 9,
    }
}

/// Human-readable labels of the ten size buckets.
pub const SIZE_BUCKET_LABELS: [&str; 10] = [
    "0-100", "100-1K", "1K-10K", "10K-100K", "100K-1M", "1M-4M", "4M-10M", "10M-100M", "100M-1G",
    "1G+",
];

/// Tracks the most common access sizes of a record (Darshan's
/// `darshan_common_val_counter`, generalized). Bounded memory: at most
/// `MAX_TRACKED` distinct sizes; the rarest entry is evicted on overflow.
///
/// Most records see only a few distinct sizes (a whole-file read and its
/// EOF probe, a chunk size and a tail), so the first `INLINE` values live
/// in the record itself and a new file's tracker needs no allocation. The
/// order of the entries carries no meaning.
#[derive(Clone, Default)]
pub struct CommonValues {
    inline: [(u64, u64); Self::INLINE],
    inline_len: u8,
    /// Values beyond the first `INLINE`.
    spill: Vec<(u64, u64)>,
}

impl CommonValues {
    const MAX_TRACKED: usize = 64;
    const INLINE: usize = 4;

    fn entries(&self) -> impl Iterator<Item = &(u64, u64)> {
        self.inline[..self.inline_len as usize]
            .iter()
            .chain(&self.spill)
    }

    fn entries_mut(&mut self) -> impl Iterator<Item = &mut (u64, u64)> {
        self.inline[..self.inline_len as usize]
            .iter_mut()
            .chain(&mut self.spill)
    }

    /// Record one occurrence of `value`.
    pub fn add(&mut self, value: u64) {
        self.add_n(value, 1);
    }

    /// Record `n` occurrences of `value` at once. Equivalent to calling
    /// [`CommonValues::add`] `n` times in a row: a run of same-value adds
    /// triggers at most one eviction (on the insert), and the eviction
    /// decision depends only on the counts tracked *before* the run — so
    /// the reduction paths can fold per-rank `(access, count)` slots
    /// without an O(count) loop and still land on the identical tracker
    /// state.
    pub fn add_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(e) = self.entries_mut().find(|e| e.0 == value) {
            e.1 += n;
            return;
        }
        let tracked = self.inline_len as usize + self.spill.len();
        if tracked >= Self::MAX_TRACKED {
            // The new value takes the place of the rarest tracked one
            // (ties: the largest value goes).
            let rarest = self
                .entries_mut()
                .min_by_key(|e| (e.1, std::cmp::Reverse(e.0)));
            if let Some(e) = rarest {
                *e = (value, n);
            }
        } else if tracked < Self::INLINE {
            self.inline[tracked] = (value, n);
            self.inline_len += 1;
        } else {
            self.spill.push((value, n));
        }
    }

    /// Top `n` (value, count) pairs, most frequent first (ties: smaller
    /// value first, for determinism).
    pub fn top(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.entries().copied().collect();
        v.sort_by_key(|(val, cnt)| (std::cmp::Reverse(*cnt), *val));
        v.truncate(n);
        v
    }
}

/// Debug-prints the tracked `value: count` pairs.
impl Debug for CommonValues {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.entries().map(|(v, c)| (v, c)))
            .finish()
    }
}

/// Per-record POSIX state outside the log format: the read/write pattern
/// tracking and the common-access tracker.
#[derive(Clone, Debug, Default)]
pub struct PosixExt {
    /// Access-size tracker (folded into ACCESS1..4 on reduction).
    pub access_sizes: CommonValues,
    /// End offsets of the last read and the last write (for SEQ/CONSEC).
    pub last_end: [u64; 2],
    /// Last operation was a write (for RW_SWITCHES).
    pub last_was_write: Option<bool>,
}

/// A Darshan module: what differs between POSIX and STDIO. The record,
/// the mutators, the fold, the diff and the log codec are written once
/// over [`Record<M>`].
pub trait Module: Clone + Debug + Send + Sync + 'static {
    /// Integer counter enum.
    type Counter: Counter;
    /// Float counter enum.
    type FCounter: Counter;
    /// Inline integer counter storage, `[i64; Self::Counter::COUNT]`.
    type Counters: Slots<i64>;
    /// Inline float counter storage, `[f64; Self::FCounter::COUNT]`.
    type FCounters: Slots<f64>;
    /// Per-record state that is not part of the log format.
    type Ext: Clone + Debug + Default + Send + Sync;
    /// Prefix of the module's lines in `darshan-parser` text.
    const NAME: &'static str;
    /// The open counter.
    const OPENS: Self::Counter;
    /// Integer counters that combine by `max` instead of `+`.
    const MAX: &'static [Self::Counter];
    /// Float counters that combine by `max` (op-time extrema).
    const FMAX: &'static [Self::FCounter];
    /// `(start, end)` timestamp pairs, open first and close last: starts
    /// combine by first non-zero minimum, ends by maximum.
    const STAMPS: &'static [(Self::FCounter, Self::FCounter)];
    /// Cumulative read, write and metadata time.
    const TIMES: [Self::FCounter; 3];

    /// The common-access hook: the record's access-size tracker and the
    /// `(ACCESSi_ACCESS, ACCESSi_COUNT)` slots derived from it. Folds
    /// skip those slots, defer them per contributor and replay them into
    /// the tracker at the root; extraction and the fold root re-derive
    /// them. The default, `None`, makes all of that a no-op.
    fn common_accesses(_ext: &mut Self::Ext) -> Option<AccessSlots<'_, Self::Counter>> {
        None
    }
}

/// What [`Module::common_accesses`] returns: the tracker and its slots.
pub type AccessSlots<'a, C> = (&'a mut CommonValues, &'static [(C, C); 4]);

/// A counter enum: its Darshan names and each variant's array index.
pub trait Counter: Copy + Eq + Debug + Send + Sync + 'static {
    /// Darshan counter names in index order.
    const NAMES: &'static [&'static str];
    /// Array index of this counter.
    fn idx(self) -> usize;
}

/// Inline counter storage: a fixed-size array. Stable Rust cannot write
/// `[i64; M::COUNT]`, so each module names its array types.
pub trait Slots<T>: Copy + PartialEq + Debug + Send + Sync + AsRef<[T]> + AsMut<[T]> {
    /// All zeros.
    const ZERO: Self;
}

impl<const N: usize> Slots<i64> for [i64; N] {
    const ZERO: Self = [0; N];
}

impl<const N: usize> Slots<f64> for [f64; N] {
    const ZERO: Self = [0.0; N];
}

/// The POSIX module.
#[derive(Clone, Copy, Debug, Default)]
pub struct Posix;

impl Module for Posix {
    type Counter = P;
    type FCounter = PF;
    type Counters = [i64; P::COUNT];
    type FCounters = [f64; PF::COUNT];
    type Ext = PosixExt;
    const NAME: &'static str = "POSIX";
    const OPENS: P = P::POSIX_OPENS;
    const MAX: &'static [P] = &[P::POSIX_MAX_BYTE_READ, P::POSIX_MAX_BYTE_WRITTEN];
    const FMAX: &'static [PF] = &[PF::POSIX_F_MAX_READ_TIME, PF::POSIX_F_MAX_WRITE_TIME];
    const STAMPS: &'static [(PF, PF)] = {
        use PF::*;
        &[
            (POSIX_F_OPEN_START_TIMESTAMP, POSIX_F_OPEN_END_TIMESTAMP),
            (POSIX_F_READ_START_TIMESTAMP, POSIX_F_READ_END_TIMESTAMP),
            (POSIX_F_WRITE_START_TIMESTAMP, POSIX_F_WRITE_END_TIMESTAMP),
            (POSIX_F_CLOSE_START_TIMESTAMP, POSIX_F_CLOSE_END_TIMESTAMP),
        ]
    };
    const TIMES: [PF; 3] = {
        use PF::*;
        [POSIX_F_READ_TIME, POSIX_F_WRITE_TIME, POSIX_F_META_TIME]
    };

    fn common_accesses(ext: &mut PosixExt) -> Option<AccessSlots<'_, P>> {
        const SLOTS: [(P, P); 4] = [
            (P::POSIX_ACCESS1_ACCESS, P::POSIX_ACCESS1_COUNT),
            (P::POSIX_ACCESS2_ACCESS, P::POSIX_ACCESS2_COUNT),
            (P::POSIX_ACCESS3_ACCESS, P::POSIX_ACCESS3_COUNT),
            (P::POSIX_ACCESS4_ACCESS, P::POSIX_ACCESS4_COUNT),
        ];
        Some((&mut ext.access_sizes, &SLOTS))
    }
}

/// The STDIO module.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stdio;

impl Module for Stdio {
    type Counter = S;
    type FCounter = SF;
    type Counters = [i64; S::COUNT];
    type FCounters = [f64; SF::COUNT];
    type Ext = ();
    const NAME: &'static str = "STDIO";
    const OPENS: S = S::STDIO_OPENS;
    const MAX: &'static [S] = &[S::STDIO_MAX_BYTE_READ, S::STDIO_MAX_BYTE_WRITTEN];
    const FMAX: &'static [SF] = &[];
    const STAMPS: &'static [(SF, SF)] = {
        use SF::*;
        &[
            (STDIO_F_OPEN_START_TIMESTAMP, STDIO_F_OPEN_END_TIMESTAMP),
            (STDIO_F_CLOSE_START_TIMESTAMP, STDIO_F_CLOSE_END_TIMESTAMP),
        ]
    };
    const TIMES: [SF; 3] = {
        use SF::*;
        [STDIO_F_READ_TIME, STDIO_F_WRITE_TIME, STDIO_F_META_TIME]
    };
}

/// A module file record.
#[derive(Clone, Debug)]
pub struct Record<M: Module> {
    /// Darshan record id (hash of the file path).
    pub rec_id: u64,
    /// Integer counters.
    pub counters: M::Counters,
    /// Float counters.
    pub fcounters: M::FCounters,
    /// Module-specific state outside the log format.
    pub ext: M::Ext,
    /// Runtime bookkeeping: the extraction epoch during which this record
    /// was last mutated. Not part of the Darshan log format (the encoder
    /// serializes explicit fields only); `DarshanRuntime::snapshot` uses it
    /// to copy only records dirtied since the previous extraction.
    pub dirty_epoch: u64,
}

/// A POSIX-module file record.
pub type PosixRecord = Record<Posix>;

/// An STDIO-module file record.
pub type StdioRecord = Record<Stdio>;

impl<M: Module> Record<M> {
    /// Fresh record for `rec_id`.
    pub fn new(rec_id: u64) -> Self {
        Record {
            rec_id,
            counters: M::Counters::ZERO,
            fcounters: M::FCounters::ZERO,
            ext: M::Ext::default(),
            dirty_epoch: 0,
        }
    }

    /// Read an integer counter.
    pub fn get(&self, c: M::Counter) -> i64 {
        self.counters.as_ref()[c.idx()]
    }

    /// Mutate an integer counter.
    pub fn get_mut(&mut self, c: M::Counter) -> &mut i64 {
        &mut self.counters.as_mut()[c.idx()]
    }

    /// Read a float counter.
    pub fn fget(&self, c: M::FCounter) -> f64 {
        self.fcounters.as_ref()[c.idx()]
    }

    /// Mutate a float counter.
    pub fn fget_mut(&mut self, c: M::FCounter) -> &mut f64 {
        &mut self.fcounters.as_mut()[c.idx()]
    }

    /// Record an operation over `[s, e]` on a `(start, end)` timestamp
    /// pair: the first start sticks, the last end wins.
    pub(crate) fn stamp(&mut self, (start, end): (M::FCounter, M::FCounter), s: f64, e: f64) {
        if self.fget(start) == 0.0 {
            *self.fget_mut(start) = s;
        }
        *self.fget_mut(end) = e;
    }

    /// An extraction copy: cloned, with the common accesses reduced.
    pub(crate) fn reduced(&self) -> std::sync::Arc<Self> {
        let mut copy = self.clone();
        copy.reduce_common_accesses();
        std::sync::Arc::new(copy)
    }

    /// Fold the access-size tracker into the ACCESS1..4 counters (done at
    /// shutdown/snapshot, as real Darshan does in its reduction step). A
    /// no-op for modules without common-access slots.
    pub fn reduce_common_accesses(&mut self) {
        let Some((tracker, slots)) = M::common_accesses(&mut self.ext) else {
            return;
        };
        let top = tracker.top(4);
        for (i, &(a, c)) in slots.iter().enumerate() {
            let (val, cnt) = top.get(i).map_or((0, 0), |&(v, n)| (v as i64, n as i64));
            *self.get_mut(a) = val;
            *self.get_mut(c) = cnt;
        }
    }
}

/// Darshan's record id: a stable 64-bit hash of the path (standing in for
/// darshan-util's jenkins hash).
pub fn record_id(path: &str) -> u64 {
    // FNV-1a, then a strong mix to spread short paths.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in path.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    storage_sim::content::mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_are_stable_and_named() {
        assert_eq!(PosixCounter::POSIX_OPENS as usize, 0);
        assert_eq!(PosixCounter::POSIX_OPENS.name(), "POSIX_OPENS");
        assert_eq!(PosixCounter::ALL.len(), PosixCounter::COUNT);
        // Guard the record layout against accidental counter removal.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(PosixCounter::COUNT >= 40);
        }
        assert_eq!(StdioCounter::STDIO_OPENS.name(), "STDIO_OPENS");
    }

    #[test]
    fn size_buckets_match_darshan_boundaries() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(100), 0);
        assert_eq!(size_bucket(101), 1);
        assert_eq!(size_bucket(1024), 1);
        assert_eq!(size_bucket(10 * 1024), 2);
        assert_eq!(size_bucket(100 * 1024), 3);
        assert_eq!(size_bucket(1 << 20), 4);
        assert_eq!(size_bucket((1 << 20) + 1), 5);
        assert_eq!(size_bucket(5 << 20), 6);
        assert_eq!(size_bucket(50 << 20), 7);
        assert_eq!(size_bucket(500 << 20), 8);
        assert_eq!(size_bucket(2 << 30), 9);
    }

    #[test]
    fn common_values_tracks_top_sizes() {
        let mut cv = CommonValues::default();
        for _ in 0..10 {
            cv.add(4096);
        }
        for _ in 0..5 {
            cv.add(100);
        }
        cv.add(77);
        let top = cv.top(4);
        assert_eq!(top[0], (4096, 10));
        assert_eq!(top[1], (100, 5));
        assert_eq!(top[2], (77, 1));
    }

    #[test]
    fn common_values_bounded_memory() {
        let mut cv = CommonValues::default();
        for v in 0..1000u64 {
            cv.add(v);
            cv.add(v); // every value twice
        }
        for _ in 0..50 {
            cv.add(424242);
        }
        assert!(cv.top(100).len() <= 64);
        assert_eq!(cv.top(1)[0].0, 424242);
    }

    #[test]
    fn common_values_overflow_evicts_the_largest_of_the_rarest() {
        let mut cv = CommonValues::default();
        for v in 0..64u64 {
            cv.add_n(v, 1 + v % 3);
        }
        // Counts 1 (v ≡ 0 mod 3), 2 and 3. The rarest are the multiples of
        // three; 63 is the largest of them.
        cv.add(1000);
        let mut want: Vec<(u64, u64)> = (0..63u64)
            .map(|v| (v, 1 + v % 3))
            .chain([(1000, 1)])
            .collect();
        want.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
        assert_eq!(cv.top(100), want);
        // Now 1000 ties the other singletons and is the largest: it goes.
        cv.add(7);
        cv.add(2000);
        assert!(cv.top(100).iter().all(|&(v, _)| v != 1000));
        assert_eq!(cv.top(100).len(), 64);
        assert!(cv.top(100).contains(&(2000, 1)));
        assert!(cv.top(100).contains(&(7, 3)));
        // A tracked value never evicts.
        let before = cv.top(100);
        cv.add(60);
        assert_eq!(cv.top(100).len(), 64);
        assert_eq!(
            cv.top(100).iter().find(|e| e.0 == 60),
            Some(&(60, before.iter().find(|e| e.0 == 60).unwrap().1 + 1))
        );
    }

    #[test]
    fn common_values_add_n_equals_repeated_add() {
        // A deterministic walk over a value pool wider than the tracker,
        // with runs of repeats, so inserts, hits and evictions all occur.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut bulk, mut single) = (CommonValues::default(), CommonValues::default());
        for _ in 0..2_000 {
            let value = next() % 90;
            let n = next() % 5;
            bulk.add_n(value, n);
            for _ in 0..n {
                single.add(value);
            }
            assert_eq!(bulk.top(100), single.top(100));
        }
    }

    #[test]
    fn reduce_common_accesses_fills_slots() {
        let mut r = PosixRecord::new(1);
        for _ in 0..3 {
            r.ext.access_sizes.add(88_000);
        }
        r.ext.access_sizes.add(0);
        r.reduce_common_accesses();
        assert_eq!(r.get(PosixCounter::POSIX_ACCESS1_ACCESS), 88_000);
        assert_eq!(r.get(PosixCounter::POSIX_ACCESS1_COUNT), 3);
        assert_eq!(r.get(PosixCounter::POSIX_ACCESS2_ACCESS), 0);
        assert_eq!(r.get(PosixCounter::POSIX_ACCESS2_COUNT), 1);
        assert_eq!(r.get(PosixCounter::POSIX_ACCESS3_COUNT), 0);
    }

    #[test]
    fn record_ids_differ_and_are_stable() {
        let a = record_id("/data/a");
        let b = record_id("/data/b");
        assert_ne!(a, b);
        assert_eq!(a, record_id("/data/a"));
    }
}
