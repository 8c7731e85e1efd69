//! The `TraceMe` recorder: host-side op tracing, as in TensorFlow's
//! `tensorflow/core/profiler/lib/traceme.h`.
//!
//! Ops bracket themselves with a [`TraceMe`] guard; while a recording is
//! active the completed spans are appended to per-thread timelines.
//! Recording costs time — the configurable per-event overhead is the
//! "TF Profiler" bar of the paper's Fig. 5.
//!
//! When bound to a process's probe spine ([`TraceMeRecorder::bind_spine`],
//! done by `TfRuntime::new`), the recorder is a fold-over-events consumer:
//! the guard emits a [`probe::EventKind::TraceSpan`] into the per-thread
//! buffer (no shared lock on the hot path) and the recorder folds whole
//! batches into its timelines at context-switch boundaries. Unbound
//! recorders (unit tests, standalone use) append directly as before.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use probe::{EventKind, IoEvent, Origin, ProbeBus, ProbeSink, SinkId};
use simrt::SimTime;

use crate::trace::{XEvent, XPlane, XStat};

/// A completed host event.
#[derive(Clone, Debug)]
pub struct HostEvent {
    /// Op name.
    pub name: String,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
    /// Optional (key, value) annotations.
    pub stats: Vec<(String, String)>,
}

/// Binding of a recorder to a process's probe spine.
struct SpineBinding {
    bus: ProbeBus,
    /// Weak self-handle so `start` can register the recorder as a sink.
    this: Weak<TraceMeRecorder>,
    /// Live sink registration while recording.
    sink: Option<SinkId>,
}

/// Collects host events per simulated thread while recording is on.
pub struct TraceMeRecorder {
    active: AtomicBool,
    per_event_overhead: Mutex<Duration>,
    events: Mutex<HashMap<String, Vec<HostEvent>>>,
    spine: Mutex<Option<SpineBinding>>,
}

impl Default for TraceMeRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceMeRecorder {
    /// New, inactive recorder.
    pub fn new() -> Self {
        TraceMeRecorder {
            active: AtomicBool::new(false),
            per_event_overhead: Mutex::new(Duration::ZERO),
            events: Mutex::new(HashMap::new()),
            spine: Mutex::new(None),
        }
    }

    /// Route spans through `bus`: while recording, the recorder registers
    /// itself as a sink and guards emit buffered `TraceSpan` events instead
    /// of taking the timeline lock per event.
    pub fn bind_spine(self: &Arc<Self>, bus: &ProbeBus) {
        *self.spine.lock() = Some(SpineBinding {
            bus: bus.clone(),
            this: Arc::downgrade(self),
            sink: None,
        });
    }

    /// Begin recording; clears previous events.
    pub fn start(&self, per_event_overhead: Duration) {
        self.events.lock().clear();
        *self.per_event_overhead.lock() = per_event_overhead;
        if let Some(b) = self.spine.lock().as_mut() {
            if b.sink.is_none() {
                if let Some(this) = b.this.upgrade() {
                    b.sink = Some(b.bus.register(this));
                }
            }
        }
        self.active.store(true, Ordering::SeqCst);
    }

    /// Stop recording. Unregistering from the spine flushes the calling
    /// thread's buffer, so every span completed before `stop` is folded.
    pub fn stop(&self) {
        self.active.store(false, Ordering::SeqCst);
        if let Some(b) = self.spine.lock().as_mut() {
            if let Some(id) = b.sink.take() {
                b.bus.unregister(id);
            }
        }
    }

    /// Whether a recording is in progress.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    /// Drain the recorded events per thread.
    pub fn consume(&self) -> HashMap<String, Vec<HostEvent>> {
        // Spans may still sit in this thread's spine buffer (other threads
        // flushed when they descheduled or finished).
        probe::flush_current_thread();
        std::mem::take(&mut *self.events.lock())
    }

    /// Record a completed span (called from the [`TraceMe`] guard).
    pub fn record(&self, ev: HostEvent) {
        if !self.is_active() {
            return;
        }
        let overhead = *self.per_event_overhead.lock();
        if !overhead.is_zero() {
            simrt::sleep(overhead);
        }
        let line = format!("{} ({})", simrt::current_task_name(), simrt::current_task());
        let bus = self
            .spine
            .lock()
            .as_ref()
            .filter(|b| b.sink.is_some())
            .map(|b| b.bus.clone());
        if let Some(bus) = bus {
            bus.emit(IoEvent {
                task: simrt::current_task(),
                pid: 0,
                t0: ev.start,
                t1: ev.end,
                origin: Origin::App,
                target: probe::intern(&ev.name),
                kind: EventKind::TraceSpan {
                    label: probe::intern(&line),
                    stats: ev.stats,
                },
            });
        } else {
            self.events.lock().entry(line).or_default().push(ev);
        }
    }

    /// Export recorded events into an `XPlane` (one line per thread, in
    /// thread-name order). The drained events move into the plane: names
    /// and stats are not copied.
    pub fn export_into(&self, plane: &mut XPlane) {
        let mut lines: Vec<(String, Vec<HostEvent>)> = self.consume().into_iter().collect();
        lines.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, events) in lines {
            let line = plane.line_mut(&name);
            line.events.extend(events.into_iter().map(|ev| {
                XEvent {
                    name: ev.name,
                    start_ns: ev.start.as_nanos(),
                    dur_ns: (ev.end - ev.start).as_nanos() as u64,
                    stats: ev
                        .stats
                        .into_iter()
                        .map(|(name, value)| XStat { name, value })
                        .collect(),
                }
            }));
        }
    }
}

impl ProbeSink for TraceMeRecorder {
    fn on_events(&self, events: &[IoEvent]) {
        // One timeline-lock acquisition per flushed batch, not per span.
        let mut map = self.events.lock();
        for ev in events {
            if let EventKind::TraceSpan { label, stats } = &ev.kind {
                map.entry(label.to_string()).or_default().push(HostEvent {
                    name: ev.target.to_string(),
                    start: ev.t0,
                    end: ev.t1,
                    stats: stats.clone(),
                });
            }
        }
    }
}

/// RAII span: records `[construction, drop]` as one host event.
pub struct TraceMe {
    recorder: Arc<TraceMeRecorder>,
    name: String,
    start: SimTime,
    stats: Vec<(String, String)>,
}

impl TraceMe {
    /// Open a span named `name`.
    pub fn new(recorder: &Arc<TraceMeRecorder>, name: impl Into<String>) -> Self {
        TraceMe {
            recorder: recorder.clone(),
            name: name.into(),
            start: simrt::now(),
            stats: Vec::new(),
        }
    }

    /// Attach an annotation.
    pub fn stat(&mut self, key: impl Into<String>, value: impl ToString) {
        self.stats.push((key.into(), value.to_string()));
    }
}

impl Drop for TraceMe {
    fn drop(&mut self) {
        self.recorder.record(HostEvent {
            name: std::mem::take(&mut self.name),
            start: self.start,
            end: simrt::now(),
            stats: std::mem::take(&mut self.stats),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrt::Sim;

    #[test]
    fn records_only_while_active() {
        let sim = Sim::new();
        let rec = Arc::new(TraceMeRecorder::new());
        let r2 = rec.clone();
        sim.spawn("worker", move || {
            {
                let _t = TraceMe::new(&r2, "before"); // inactive: dropped silently
                simrt::sleep(Duration::from_millis(1));
            }
            r2.start(Duration::ZERO);
            {
                let mut t = TraceMe::new(&r2, "op");
                t.stat("bytes", 42);
                simrt::sleep(Duration::from_millis(2));
            }
            r2.stop();
            {
                let _t = TraceMe::new(&r2, "after");
            }
        });
        sim.run();
        let map = rec.consume();
        assert_eq!(map.len(), 1);
        let evs = map.values().next().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "op");
        assert_eq!(evs[0].end - evs[0].start, Duration::from_millis(2));
        assert_eq!(evs[0].stats[0], ("bytes".into(), "42".into()));
    }

    #[test]
    fn per_event_overhead_costs_time() {
        let run = |overhead: Duration| {
            let sim = Sim::new();
            let rec = Arc::new(TraceMeRecorder::new());
            sim.spawn("w", move || {
                rec.start(overhead);
                for _ in 0..100 {
                    let _t = TraceMe::new(&rec, "op");
                }
                rec.stop();
            });
            sim.run();
            sim.now()
        };
        let cheap = run(Duration::ZERO);
        let dear = run(Duration::from_micros(3));
        assert_eq!((dear - cheap), Duration::from_micros(300));
    }

    #[test]
    fn export_groups_by_thread() {
        let sim = Sim::new();
        let rec = Arc::new(TraceMeRecorder::new());
        {
            let rec = rec.clone();
            sim.spawn("starter", move || {
                rec.start(Duration::ZERO);
            });
        }
        for i in 0..2 {
            let rec = rec.clone();
            sim.spawn(format!("w{i}"), move || {
                simrt::sleep(Duration::from_micros(10)); // after start
                let _t = TraceMe::new(&rec, "op");
            });
        }
        sim.run();
        let mut plane = XPlane {
            name: "/host:CPU".into(),
            ..Default::default()
        };
        rec.export_into(&mut plane);
        assert_eq!(plane.lines.len(), 2);
    }
}
