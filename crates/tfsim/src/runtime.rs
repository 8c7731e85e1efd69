//! The TensorFlow runtime context: process binding, platform shape,
//! TraceMe recorder, and the profiler-session state machine.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use posix_sim::Process;
use simrt::{Sim, SimTime};

use crate::profiler::{ProfilerError, ProfilerOptions, Tracer, TracerFactory};
use crate::trace::XSpace;
use crate::traceme::TraceMeRecorder;

struct ActiveSession {
    tracers: Vec<Arc<dyn Tracer>>,
    options: ProfilerOptions,
    started: SimTime,
}

/// Shared TensorFlow-like runtime. One per simulated process.
pub struct TfRuntime {
    process: Arc<Process>,
    sim: Sim,
    /// Logical CPU cores of the platform (resolves `AUTOTUNE`).
    pub cores: usize,
    recorder: Arc<TraceMeRecorder>,
    factories: Mutex<Vec<Arc<dyn TracerFactory>>>,
    session: Mutex<Option<ActiveSession>>,
}

impl TfRuntime {
    /// Create a runtime bound to `process`, spawning pipeline threads on
    /// `sim`, with `cores` logical CPUs.
    pub fn new(process: Arc<Process>, sim: Sim, cores: usize) -> Arc<Self> {
        assert!(cores > 0);
        Arc::new(TfRuntime {
            process,
            sim,
            cores,
            recorder: Arc::new(TraceMeRecorder::new()),
            factories: Mutex::new(Vec::new()),
            session: Mutex::new(None),
        })
    }

    /// The simulated process (POSIX interface).
    pub fn process(&self) -> &Arc<Process> {
        &self.process
    }

    /// The simulation handle (for spawning pipeline threads).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The host-tracing recorder.
    pub fn recorder(&self) -> &Arc<TraceMeRecorder> {
        &self.recorder
    }

    /// Register a tracer factory (how tf-Darshan plugs in, paper §III.A:
    /// "as long as we provide a new interface for starting/stopping the
    /// profiler and collecting the data").
    pub fn register_tracer_factory(&self, f: Arc<dyn TracerFactory>) {
        self.factories.lock().push(f);
    }

    /// `tf.profiler.experimental.start()`: begin a profiling session.
    pub fn profiler_start(self: &Arc<Self>, options: ProfilerOptions) -> Result<(), ProfilerError> {
        let mut s = self.session.lock();
        if s.is_some() {
            return Err(ProfilerError::AlreadyActive);
        }
        self.recorder.start(options.traceme_overhead);
        let mut tracers = Vec::new();
        for f in self.factories.lock().iter() {
            if let Some(t) = f.create(self, &options) {
                tracers.push(t);
            }
        }
        *s = Some(ActiveSession {
            tracers,
            options,
            started: simrt::now(),
        });
        Ok(())
    }

    /// `tf.profiler.experimental.stop()`: stop tracers, collect all data
    /// into an [`XSpace`].
    pub fn profiler_stop(self: &Arc<Self>) -> Result<XSpace, ProfilerError> {
        let sess = self.session.lock().take().ok_or(ProfilerError::NotActive)?;
        self.recorder.stop();
        for t in &sess.tracers {
            t.stop();
        }
        let mut space = XSpace::default();
        // Host plane first, then plugin tracers.
        self.recorder.export_into(space.plane_mut("/host:CPU"));
        for t in &sess.tracers {
            t.collect(&mut space);
        }
        space.normalize();
        let _ = sess.started;
        Ok(space)
    }

    /// True while a profiling session is active.
    pub fn profiling_active(&self) -> bool {
        self.session.lock().is_some()
    }

    /// Per-graph-op tracing overhead of the active session (zero when not
    /// profiling). The trainer charges `graph_ops × this` per step.
    pub fn graph_op_overhead(&self) -> Duration {
        self.session
            .lock()
            .as_ref()
            .map(|s| s.options.per_graph_op_overhead)
            .unwrap_or(Duration::ZERO)
    }
}
