//! The `TraceMe` recorder: host-side op tracing, as in TensorFlow's
//! `tensorflow/core/profiler/lib/traceme.h`.
//!
//! Ops bracket themselves with a [`TraceMe`] guard; while a recording is
//! active each completed span is appended to the [`XLine`] of the
//! simulated thread that ran it — one lock and one push per span. A
//! thread's line is named `"{task name} ({task id})"` when it records its
//! first span of a session. Recording costs time — the configurable
//! per-event overhead is the "TF Profiler" bar of the paper's Fig. 5.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simrt::TaskId;

use crate::trace::{XEvent, XLine, XPlane, XStat};

/// Collects host events per simulated thread while recording is on.
#[derive(Default)]
pub struct TraceMeRecorder {
    active: AtomicBool,
    per_event_overhead_ns: AtomicU64,
    lines: Mutex<HashMap<TaskId, XLine>>,
}

impl TraceMeRecorder {
    /// New, inactive recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin recording; clears previous events.
    pub fn start(&self, per_event_overhead: Duration) {
        self.lines.lock().clear();
        self.per_event_overhead_ns
            .store(per_event_overhead.as_nanos() as u64, Ordering::SeqCst);
        self.active.store(true, Ordering::SeqCst);
    }

    /// Stop recording.
    pub fn stop(&self) {
        self.active.store(false, Ordering::SeqCst);
    }

    /// Whether a recording is in progress.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    /// Drain the recorded lines, one per thread, in name order.
    pub fn consume(&self) -> Vec<XLine> {
        let mut lines: Vec<XLine> = self.lines.lock().drain().map(|(_, line)| line).collect();
        lines.sort_by(|a, b| a.name.cmp(&b.name));
        lines
    }

    /// Append a completed span to the calling thread's line (called from
    /// the [`TraceMe`] guard).
    fn record(&self, ev: XEvent) {
        if !self.is_active() {
            return;
        }
        let overhead = self.per_event_overhead_ns.load(Ordering::SeqCst);
        if overhead != 0 {
            simrt::sleep(Duration::from_nanos(overhead));
        }
        let task = simrt::current_task();
        self.lines
            .lock()
            .entry(task)
            .or_insert_with(|| XLine {
                name: format!("{} ({task})", simrt::current_task_name()),
                events: Vec::new(),
            })
            .events
            .push(ev);
    }

    /// Move the recorded lines into `plane`, in thread-name order.
    pub fn export_into(&self, plane: &mut XPlane) {
        for line in self.consume() {
            plane.line_mut(&line.name).events.extend(line.events);
        }
    }
}

/// RAII span: records `[construction, drop]` as one host event.
pub struct TraceMe {
    recorder: Arc<TraceMeRecorder>,
    event: XEvent,
}

impl TraceMe {
    /// Open a span named `name`.
    pub fn new(recorder: &Arc<TraceMeRecorder>, name: impl Into<String>) -> Self {
        TraceMe {
            recorder: recorder.clone(),
            event: XEvent::new(name, simrt::now().as_nanos(), 0),
        }
    }

    /// Attach an annotation.
    pub fn stat(&mut self, key: impl Into<String>, value: impl ToString) {
        self.event.stats.push(XStat {
            name: key.into(),
            value: value.to_string(),
        });
    }
}

impl Drop for TraceMe {
    fn drop(&mut self) {
        let mut event = std::mem::take(&mut self.event);
        event.dur_ns = simrt::now().as_nanos().saturating_sub(event.start_ns);
        self.recorder.record(event);
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
        let lines = rec.consume();
        assert_eq!(lines.len(), 1);
        let evs = &lines[0].events;
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "op");
        assert_eq!(
            Duration::from_nanos(evs[0].dur_ns),
            Duration::from_millis(2)
        );
        assert_eq!(
            evs[0].stats[0],
            XStat {
                name: "bytes".into(),
                value: "42".into()
            }
        );
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
        // Two tasks share the name "dup": lines are keyed by task, not name.
        let ids = Arc::new(Mutex::new(Vec::new()));
        for name in ["w0", "w1", "dup", "dup"] {
            let (rec, ids) = (rec.clone(), ids.clone());
            sim.spawn(name, move || {
                simrt::sleep(Duration::from_micros(10)); // after start
                ids.lock()
                    .push(format!("{name} ({})", simrt::current_task()));
                let _t = TraceMe::new(&rec, "op");
                let _u = TraceMe::new(&rec, "op");
            });
        }
        sim.run();
        let mut plane = XPlane {
            name: "/host:CPU".into(),
            ..Default::default()
        };
        rec.export_into(&mut plane);
        assert_eq!(plane.lines.len(), 4);
        let mut expected = ids.lock().clone();
        expected.sort();
        let names: Vec<_> = plane.lines.iter().map(|l| l.name.clone()).collect();
        assert_eq!(names, expected);
        assert!(plane.lines.iter().all(|l| l.events.len() == 2));
    }
}
