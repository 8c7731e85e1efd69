//! `tf.data`-style input pipelines.
//!
//! Reproduces the pipeline shape the paper instruments:
//! `from_files → map(capture_fn, num_parallel_calls) → batch → prefetch`.
//! The capture function performs the file I/O and preprocessing on worker
//! threads; `num_parallel_calls` may be fixed or `AUTOTUNE`; `prefetch(k)`
//! keeps up to `k` ready batches so input production overlaps GPU compute.
//!
//! Semantics matched to TensorFlow:
//! * the parallel map delivers elements **in order** with at most
//!   `num_parallel_calls` invocations in flight;
//! * `batch` groups consecutive elements, emitting a final partial batch;
//! * dropping the iterator cancels the pipeline (worker threads unwind).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use simrt::sync::{channel, Receiver, Semaphore};

use crate::runtime::TfRuntime;

/// One pipeline element (a preprocessed sample).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Element {
    /// Source index in the file list.
    pub index: usize,
    /// Bytes of raw input consumed to produce it.
    pub bytes: u64,
}

/// A batch of elements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Batch {
    /// Number of elements.
    pub len: usize,
    /// Total raw input bytes.
    pub bytes: u64,
    /// Index of the last element (progress tracking).
    pub last_index: usize,
}

/// Parallelism of the map stage (`num_parallel_calls`).
#[derive(Clone, Debug)]
pub enum Parallelism {
    /// A fixed number of concurrent capture-function invocations.
    Fixed(usize),
    /// `tf.data.experimental.AUTOTUNE`: the runtime picks (resolved to the
    /// platform's core count; see DESIGN.md for the simplification note).
    Autotune,
    /// Externally adjustable at runtime — the control knob of the paper's
    /// §VII auto-tuning vision (`tfdarshan::IoAutoTuner` drives it from
    /// in-situ Darshan data).
    Dynamic(Arc<DynamicParallelism>),
}

impl Parallelism {
    fn resolve(&self, rt: &TfRuntime) -> usize {
        match self {
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Autotune => rt.cores,
            Parallelism::Dynamic(ctl) => ctl.max,
        }
    }

    fn dynamic_ctl(&self) -> Option<Arc<DynamicParallelism>> {
        match self {
            Parallelism::Dynamic(ctl) => Some(ctl.clone()),
            _ => None,
        }
    }
}

/// Shared control of a dynamically-sized worker pool: `max` workers exist;
/// workers with index ≥ the current target park until the target rises
/// (or the pipeline is cancelled).
#[derive(Debug)]
pub struct DynamicParallelism {
    /// Hard upper bound on concurrent invocations.
    pub max: usize,
    target: AtomicUsize,
    waiters: parking_lot::Mutex<Vec<simrt::TaskId>>,
}

impl DynamicParallelism {
    /// Create with an initial target and a maximum.
    pub fn new(initial: usize, max: usize) -> Arc<Self> {
        let max = max.max(1);
        Arc::new(DynamicParallelism {
            max,
            target: AtomicUsize::new(initial.clamp(1, max)),
            waiters: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// Current target.
    pub fn target(&self) -> usize {
        self.target.load(Ordering::SeqCst)
    }

    /// Change the target, waking parked workers.
    pub fn set_target(&self, n: usize) {
        self.target.store(n.clamp(1, self.max), Ordering::SeqCst);
        self.wake_all();
    }

    fn wake_all(&self) {
        for t in self.waiters.lock().drain(..) {
            simrt::wake(t);
        }
    }

    /// Park worker `i` until it is within the target (returns true), or
    /// until the pipeline is cancelled / the source exhausted (false).
    fn wait_active(&self, i: usize, cancelled: &AtomicBool, exhausted: impl Fn() -> bool) -> bool {
        loop {
            if cancelled.load(Ordering::SeqCst) || exhausted() {
                return false;
            }
            if i < self.target() {
                return true;
            }
            self.waiters.lock().push(simrt::current_task());
            // simlint: allow(raw-block) a sync primitive here would add edges to the pinned probe streams
            simrt::block(None);
        }
    }
}

/// Epoch-order hint published by a pipeline for an online staging daemon
/// (the *clairvoyant* policy of `crates/prefetch`): ML training revisits
/// the same file list every epoch, so once the order is known a prefetcher
/// can stage files **ahead of** the consumer cursor instead of reacting to
/// misses. The pipeline updates the cursor as map workers claim indices;
/// the daemon reads `files()`/`cursor()` and stays ahead.
#[derive(Debug, Default)]
pub struct EpochOrder {
    files: parking_lot::Mutex<Arc<Vec<String>>>,
    cursor: AtomicUsize,
    epoch: AtomicUsize,
}

impl EpochOrder {
    /// New, empty hint (no order known yet).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish the epoch's file order **before** the first `iterate()` —
    /// lets a clairvoyant daemon warm the fast tier during setup, ahead of
    /// any consumer. Does not bump the epoch counter.
    pub fn preload(&self, files: Arc<Vec<String>>) {
        *self.files.lock() = files;
    }

    /// The current epoch's file list, in visit order.
    pub fn files(&self) -> Arc<Vec<String>> {
        self.files.lock().clone()
    }

    /// Highest file index claimed by a map worker this epoch.
    pub fn cursor(&self) -> usize {
        self.cursor.load(Ordering::SeqCst)
    }

    /// Number of epochs started (a `preload` alone does not count).
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::SeqCst)
    }

    fn begin_epoch(&self, files: Arc<Vec<String>>) {
        *self.files.lock() = files;
        self.cursor.store(0, Ordering::SeqCst);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn advance(&self, i: usize) {
        self.cursor.fetch_max(i, Ordering::SeqCst);
    }
}

/// Context handed to capture functions running on pipeline threads.
pub struct PipelineCtx {
    /// The runtime (process, recorder).
    pub rt: Arc<TfRuntime>,
}

/// The capture function of `tf.data.map`: reads + preprocesses one file.
pub type MapFn = Arc<dyn Fn(&PipelineCtx, usize, &str) -> Element + Send + Sync>;

/// A dataset definition (cheap to clone; nothing runs until
/// [`Dataset::iterate`]).
#[derive(Clone)]
pub struct Dataset {
    files: Arc<Vec<String>>,
    map_fn: Option<MapFn>,
    parallelism: Parallelism,
    batch: usize,
    prefetch: usize,
    order_hint: Option<Arc<EpochOrder>>,
}

impl Dataset {
    /// `tf.data.Dataset.from_tensor_slices(file_list)`.
    pub fn from_files(files: Vec<String>) -> Self {
        Dataset {
            files: Arc::new(files),
            map_fn: None,
            parallelism: Parallelism::Fixed(1),
            batch: 1,
            prefetch: 0,
            order_hint: None,
        }
    }

    /// `.map(capture_fn, num_parallel_calls=…)`.
    pub fn map(mut self, f: MapFn, parallelism: Parallelism) -> Self {
        self.map_fn = Some(f);
        self.parallelism = parallelism;
        self
    }

    /// `.batch(n)`.
    pub fn batch(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch = n;
        self
    }

    /// `.prefetch(k)`.
    pub fn prefetch(mut self, k: usize) -> Self {
        self.prefetch = k;
        self
    }

    /// Publish epoch order + consumer progress through `hint` so an online
    /// staging daemon can prefetch ahead of the pipeline (see
    /// [`EpochOrder`]). Each `iterate()` begins a new epoch on the hint.
    pub fn with_order_hint(mut self, hint: Arc<EpochOrder>) -> Self {
        self.order_hint = Some(hint);
        self
    }

    /// Number of source files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the file list is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The file list.
    pub fn files(&self) -> &Arc<Vec<String>> {
        &self.files
    }

    /// Materialize the pipeline: spawn worker/reorder/batch threads and
    /// return the consuming iterator. One pass over the file list (one
    /// epoch).
    pub fn iterate(&self, rt: &Arc<TfRuntime>) -> BatchIterator {
        let workers = self.parallelism.resolve(rt);
        let dyn_ctl = self.parallelism.dynamic_ctl();
        let map_fn = self.map_fn.clone().unwrap_or_else(|| {
            Arc::new(|_ctx: &PipelineCtx, index, _path: &str| Element { index, bytes: 0 })
        });

        if let Some(hint) = &self.order_hint {
            hint.begin_epoch(self.files.clone());
        }

        // Ordered parallel map: in-flight tickets bound concurrency; the
        // reorder stage emits in index order and returns tickets.
        let tickets = Arc::new(Semaphore::new(workers));
        let cancelled = Arc::new(AtomicBool::new(false));
        let next = Arc::new(AtomicUsize::new(0));
        let (etx, erx) = channel::<(usize, Element)>(None);
        for w in 0..workers {
            let tickets = tickets.clone();
            let cancelled = cancelled.clone();
            let next = next.clone();
            let etx = etx.clone();
            let files = self.files.clone();
            let map_fn = map_fn.clone();
            let ctx = PipelineCtx { rt: rt.clone() };
            let dyn_ctl = dyn_ctl.clone();
            let hint = self.order_hint.clone();
            rt.sim().spawn(format!("tf.data.map[{w}]"), move || {
                loop {
                    if let Some(ctl) = &dyn_ctl {
                        let done = || next.load(Ordering::SeqCst) >= files.len();
                        if !ctl.wait_active(w, &cancelled, done) {
                            break;
                        }
                    }
                    tickets.acquire();
                    if cancelled.load(Ordering::SeqCst) {
                        tickets.release();
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= files.len() {
                        tickets.release();
                        break;
                    }
                    if let Some(h) = &hint {
                        h.advance(i);
                    }
                    let elem = map_fn(&ctx, i, &files[i]);
                    if etx.send((i, elem)).is_err() {
                        break;
                    }
                }
                // Exiting (exhaustion or cancellation): release any peers
                // parked in the dynamic-parallelism lot so they can observe
                // the same condition and unwind.
                if let Some(ctl) = &dyn_ctl {
                    ctl.wake_all();
                }
            });
        }
        drop(etx);

        // Reorder stage.
        let (rtx, rrx) = channel::<Element>(Some(workers.max(1)));
        {
            let tickets = tickets.clone();
            let cancelled = cancelled.clone();
            let total_workers = workers;
            let dyn_ctl2 = dyn_ctl.clone();
            rt.sim().spawn("tf.data.reorder", move || {
                let mut buf = std::collections::BTreeMap::<usize, Element>::new();
                let mut expected = 0usize;
                let cleanup = |cancelled: &AtomicBool, tickets: &Semaphore| {
                    cancelled.store(true, Ordering::SeqCst);
                    // Unblock any worker parked on acquire or in the
                    // dynamic-parallelism lot.
                    tickets.release_many(total_workers);
                    if let Some(ctl) = &dyn_ctl2 {
                        ctl.wake_all();
                    }
                };
                while let Some((i, e)) = rrx_recv_guard(&erx) {
                    buf.insert(i, e);
                    while let Some(e) = buf.remove(&expected) {
                        tickets.release();
                        expected += 1;
                        if rtx.send(e).is_err() {
                            cleanup(&cancelled, &tickets);
                            return;
                        }
                    }
                }
                // Source exhausted: emit any ordered tail (there are no
                // gaps once all workers finished).
                while let Some(e) = buf.remove(&expected) {
                    tickets.release();
                    expected += 1;
                    if rtx.send(e).is_err() {
                        break;
                    }
                }
                cleanup(&cancelled, &tickets);
            });
        }

        // Batch (+ prefetch) stage: the output channel capacity is the
        // prefetch depth (ready batches waiting for the trainer).
        let (btx, brx) = channel::<Batch>(Some(self.prefetch.max(1)));
        {
            let batch_size = self.batch;
            rt.sim().spawn("tf.data.batch", move || {
                let mut cur = Batch::default();
                while let Some(e) = rrx.recv() {
                    cur.len += 1;
                    cur.bytes += e.bytes;
                    cur.last_index = e.index;
                    if cur.len == batch_size {
                        if btx.send(cur).is_err() {
                            return;
                        }
                        cur = Batch::default();
                    }
                }
                if cur.len > 0 {
                    let _ = btx.send(cur);
                }
            });
        }

        BatchIterator { rx: brx }
    }
}

// recv wrapper so the closure above reads naturally.
fn rrx_recv_guard(rx: &Receiver<(usize, Element)>) -> Option<(usize, Element)> {
    rx.recv()
}

/// The consuming end of a pipeline. Dropping it cancels the pipeline.
pub struct BatchIterator {
    rx: Receiver<Batch>,
}

impl BatchIterator {
    /// Wrap a ready batch channel (used by alternative sources such as
    /// [`crate::tfrecord::TfRecordDataset`]).
    pub fn from_receiver(rx: Receiver<Batch>) -> Self {
        BatchIterator { rx }
    }

    /// Next batch (blocks in virtual time), or `None` at end of epoch.
    #[allow(clippy::should_implement_trait)] // mirrors tf.data's GetNext
    pub fn next(&mut self) -> Option<Batch> {
        self.rx.recv()
    }

    /// Number of ready batches currently buffered (prefetch occupancy).
    pub fn buffered(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posix_sim::Process;
    use simrt::Sim;
    use std::time::Duration;
    use storage_sim::StorageStack;

    fn runtime(sim: &Sim, cores: usize) -> Arc<TfRuntime> {
        TfRuntime::new(Process::new(StorageStack::new()), sim.clone(), cores)
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("/d/{i}")).collect()
    }

    /// Capture fn that sleeps `cost_us` and tags the element.
    fn sleepy_map(cost_us: u64) -> MapFn {
        Arc::new(move |_ctx, index, _path| {
            simrt::sleep(Duration::from_micros(cost_us));
            Element { index, bytes: 100 }
        })
    }

    #[test]
    fn elements_are_batched_in_order() {
        let sim = Sim::new();
        let rt = runtime(&sim, 8);
        sim.spawn("consumer", move || {
            let ds = Dataset::from_files(names(10))
                .map(sleepy_map(10), Parallelism::Fixed(4))
                .batch(3)
                .prefetch(2);
            let mut it = ds.iterate(&rt);
            let mut batches = Vec::new();
            while let Some(b) = it.next() {
                batches.push(b);
            }
            assert_eq!(batches.len(), 4, "3+3+3+1");
            assert_eq!(batches[0].len, 3);
            assert_eq!(batches[0].last_index, 2);
            assert_eq!(batches[3].len, 1);
            assert_eq!(batches[3].last_index, 9);
            assert_eq!(batches.iter().map(|b| b.bytes).sum::<u64>(), 1000);
        });
        sim.run();
    }

    #[test]
    fn parallel_map_speeds_up_epoch() {
        let time_for = |workers: usize| {
            let sim = Sim::new();
            let rt = runtime(&sim, 16);
            sim.spawn("consumer", move || {
                let ds = Dataset::from_files(names(64))
                    .map(sleepy_map(1000), Parallelism::Fixed(workers))
                    .batch(8);
                let mut it = ds.iterate(&rt);
                while it.next().is_some() {}
            });
            sim.run();
            sim.now().as_secs_f64()
        };
        let one = time_for(1);
        let eight = time_for(8);
        let ratio = one / eight;
        assert!(
            (6.0..=8.5).contains(&ratio),
            "8 workers ≈ 8× on pure compute, got {ratio:.2}×"
        );
    }

    #[test]
    fn autotune_resolves_to_cores() {
        let sim = Sim::new();
        let rt = runtime(&sim, 4);
        sim.spawn("consumer", move || {
            let t0 = simrt::now();
            let ds = Dataset::from_files(names(16))
                .map(sleepy_map(1000), Parallelism::Autotune)
                .batch(16);
            let mut it = ds.iterate(&rt);
            while it.next().is_some() {}
            let dt = simrt::now() - t0;
            // 16 files / 4 cores × 1 ms = ~4 ms.
            assert!(dt >= Duration::from_millis(4) && dt < Duration::from_millis(6));
        });
        sim.run();
    }

    #[test]
    fn prefetch_depth_bounds_ready_batches() {
        let occupancy_for = |prefetch: usize| {
            let sim = Sim::new();
            let rt = runtime(&sim, 8);
            let seen = Arc::new(AtomicUsize::new(0));
            let s2 = seen.clone();
            sim.spawn("trainer", move || {
                let ds = Dataset::from_files(names(64))
                    .map(sleepy_map(1), Parallelism::Fixed(4))
                    .batch(4)
                    .prefetch(prefetch);
                let mut it = ds.iterate(&rt);
                it.next().unwrap();
                // Long GPU stall: the pipeline runs ahead, but only up to
                // the prefetch depth of ready batches.
                simrt::sleep(Duration::from_millis(100));
                s2.store(it.buffered(), Ordering::SeqCst);
                while it.next().is_some() {}
            });
            sim.run();
            seen.load(Ordering::SeqCst)
        };
        assert_eq!(occupancy_for(1), 1);
        assert_eq!(occupancy_for(4), 4);
        assert_eq!(occupancy_for(10), 10);
    }

    #[test]
    fn in_flight_bounded_by_parallelism() {
        let sim = Sim::new();
        let rt = runtime(&sim, 8);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let (p2, c2) = (peak.clone(), cur.clone());
        let map: MapFn = Arc::new(move |_ctx, index, _path| {
            let c = c2.fetch_add(1, Ordering::SeqCst) + 1;
            p2.fetch_max(c, Ordering::SeqCst);
            simrt::sleep(Duration::from_micros(100));
            c2.fetch_sub(1, Ordering::SeqCst);
            Element { index, bytes: 0 }
        });
        sim.spawn("consumer", move || {
            let ds = Dataset::from_files(names(40))
                .map(map, Parallelism::Fixed(3))
                .batch(4);
            let mut it = ds.iterate(&rt);
            while it.next().is_some() {}
        });
        sim.run();
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "parallelism actually used"
        );
    }

    #[test]
    fn dropping_iterator_cancels_pipeline() {
        let sim = Sim::new();
        let rt = runtime(&sim, 8);
        sim.spawn("consumer", move || {
            let ds = Dataset::from_files(names(1000))
                .map(sleepy_map(100), Parallelism::Fixed(4))
                .batch(10)
                .prefetch(2);
            let mut it = ds.iterate(&rt);
            // Take only 3 batches of the 100 available, then drop.
            for _ in 0..3 {
                it.next().unwrap();
            }
            drop(it);
        });
        // Must terminate (all pipeline threads unwind) — sim.run() would
        // deadlock-panic otherwise.
        sim.run();
    }

    #[test]
    fn empty_dataset_yields_nothing() {
        let sim = Sim::new();
        let rt = runtime(&sim, 2);
        sim.spawn("consumer", move || {
            let ds = Dataset::from_files(vec![])
                .map(sleepy_map(1), Parallelism::Fixed(2))
                .batch(4);
            let mut it = ds.iterate(&rt);
            assert!(it.next().is_none());
        });
        sim.run();
    }

    #[test]
    fn unordered_completion_still_delivers_in_order() {
        // Element i sleeps (10 - i) ms: later elements finish earlier.
        let sim = Sim::new();
        let rt = runtime(&sim, 8);
        let map: MapFn = Arc::new(move |_ctx, index, _path| {
            simrt::sleep(Duration::from_millis(10 - index as u64));
            Element { index, bytes: 1 }
        });
        sim.spawn("consumer", move || {
            let ds = Dataset::from_files(names(10))
                .map(map, Parallelism::Fixed(10))
                .batch(1);
            let mut it = ds.iterate(&rt);
            let mut seen = Vec::new();
            while let Some(b) = it.next() {
                seen.push(b.last_index);
            }
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        });
        sim.run();
    }
}
