//! The tf-Darshan "middle-man" wrapper (paper §III.B): loads the Darshan
//! shared library into the process at runtime (`dlopen`), patches the GOT,
//! and manages profile-data extraction (start/stop snapshots), without
//! requiring `LD_PRELOAD` and without modifying the application.

use std::sync::Arc;
use std::time::Duration;

use darshan_sim::{DarshanConfig, DarshanLibrary, DxtSegment, Snapshot, SONAME};
use parking_lot::Mutex;
use posix_sim::{GotError, Process};

/// tf-Darshan configuration.
#[derive(Clone, Debug)]
pub struct TfDarshanConfig {
    /// Configuration of the underlying Darshan runtime.
    pub darshan: DarshanConfig,
    /// In-situ analysis cost per active file record, charged when a
    /// session's report is generated (the "trace data collection and
    /// analysis after profiling stops" the paper identifies as the main
    /// overhead).
    pub analyze_cost_per_record: Duration,
    /// Trace-export cost per DXT segment written to the TraceViewer.
    pub export_cost_per_segment: Duration,
    /// Cost per record of the lightweight counter diff (paid even in
    /// bandwidth-only mode).
    pub diff_cost_per_record: Duration,
    /// Export the full DXT timeline into the trace. The paper's §VII
    /// proposes making this optional to cut overhead ("detailed timeline
    /// tracing can be optionally discarded if not required") — set false
    /// for the cheap bandwidth-only mode used in the STREAM validation.
    pub full_export: bool,
}

impl Default for TfDarshanConfig {
    fn default() -> Self {
        TfDarshanConfig {
            darshan: DarshanConfig::default(),
            analyze_cost_per_record: Duration::from_millis(2),
            export_cost_per_segment: Duration::from_micros(200),
            diff_cost_per_record: Duration::from_micros(5),
            full_export: true,
        }
    }
}

/// The middle-man: owns the dynamically loaded Darshan library and the
/// start/stop snapshot pair of the current profiling session.
pub struct TfDarshanWrapper {
    process: Arc<Process>,
    lib: Arc<DarshanLibrary>,
    config: TfDarshanConfig,
    session: Mutex<SessionState>,
}

#[derive(Default)]
struct SessionState {
    start: Option<Snapshot>,
    stop: Option<Snapshot>,
}

impl TfDarshanWrapper {
    /// Install into `process`: `dlopen` the Darshan library (loading and
    /// registering it first if the "file" is not present), but do **not**
    /// attach yet — attachment happens at the first profiling session.
    pub fn install(process: Arc<Process>, config: TfDarshanConfig) -> Arc<Self> {
        let lib = match process.dlopen(SONAME) {
            Ok(any) => any
                .downcast::<DarshanLibrary>()
                .expect("libdarshan.so is not a Darshan library"),
            Err(_) => DarshanLibrary::load_into(&process, config.darshan.clone()),
        };
        Arc::new(TfDarshanWrapper {
            process,
            lib,
            config,
            session: Mutex::new(SessionState::default()),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TfDarshanConfig {
        &self.config
    }

    /// The loaded Darshan library.
    pub fn library(&self) -> &Arc<DarshanLibrary> {
        &self.lib
    }

    /// The instrumented process.
    pub fn process(&self) -> &Arc<Process> {
        &self.process
    }

    /// Scan the GOT and patch the instrumented symbols (idempotent).
    pub fn attach(&self) -> Result<(), GotError> {
        self.lib.attach(&self.process)
    }

    /// Restore original bindings (idempotent).
    pub fn detach(&self) -> Result<(), GotError> {
        self.lib.detach(&self.process)
    }

    /// Whether Darshan is currently attached.
    pub fn is_attached(&self) -> bool {
        self.lib.is_attached()
    }

    /// Begin a profiling window: attach if needed and take the start
    /// snapshot ("our tracer calls the wrapper to make a copy of the
    /// Darshan module data structures" — §III.C). Snapshots are
    /// incremental: the extraction copies only records dirtied since the
    /// previous one, and carries the extraction epoch plus the DXT
    /// watermark-log position the stop-side analysis threads through to
    /// `diff` and [`TfDarshanWrapper::session_dxt`].
    pub fn mark_start(&self) -> Result<(), GotError> {
        self.attach()?;
        let snap = self.lib.runtime().snapshot();
        let mut s = self.session.lock();
        s.start = Some(snap);
        s.stop = None;
        Ok(())
    }

    /// End the profiling window with the stop snapshot.
    pub fn mark_stop(&self) {
        let snap = self.lib.runtime().snapshot();
        self.session.lock().stop = Some(snap);
    }

    /// The start/stop snapshot pair of the last completed window. Cheap:
    /// snapshots share their records via `Arc`, so the clone is pointer
    /// bumps, not record copies.
    pub fn session_snapshots(&self) -> Option<(Snapshot, Snapshot)> {
        let s = self.session.lock();
        match (&s.start, &s.stop) {
            (Some(a), Some(b)) => Some((a.clone(), b.clone())),
            _ => None,
        }
    }

    /// DXT segments appended during the last window, sorted by start time
    /// ([`darshan_sim::DarshanRuntime::dxt_between`] over the window's
    /// snapshots): the cost follows the files and segments the window
    /// touched, not every file or segment ever recorded, and a segment
    /// ending exactly at a snapshot boundary lands in exactly one window.
    pub fn session_dxt(&self) -> Vec<(u64, DxtSegment)> {
        let Some((a, b)) = self.session_snapshots() else {
            return Vec::new();
        };
        self.lib.runtime().dxt_between(&a, &b)
    }

    /// Cheap bandwidth probe over the last window (MiB/s of POSIX reads),
    /// what the §IV.B STREAM validation derives every five batches.
    pub fn session_read_bandwidth(&self) -> Option<f64> {
        let (a, b) = self.session_snapshots()?;
        let secs = b.taken_at - a.taken_at;
        if secs <= 0.0 {
            return None;
        }
        let sum = |s: &Snapshot| -> i64 {
            s.posix
                .iter()
                .map(|r| r.get(darshan_sim::PosixCounter::POSIX_BYTES_READ))
                .sum()
        };
        let bytes = (sum(&b) - sum(&a)).max(0) as f64;
        Some(bytes / (1024.0 * 1024.0) / secs)
    }
}
