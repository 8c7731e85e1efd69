//! I/O-aware auto-tuning from in-situ Darshan data — the paper's §VII
//! vision made concrete: "Once introducing the capability of runtime
//! attachment, Darshan has the capability of providing information for
//! such as auto-tuning during execution. … The information from tf-Darshan
//! has the potential of improving this process with I/O specific
//! information."
//!
//! [`IoAutoTuner`] periodically closes a Darshan measurement window (via
//! the runtime-extraction API, no profiler session needed), derives the
//! window's POSIX read bandwidth, and hill-climbs the pipeline's
//! `num_parallel_calls` through a [`DynamicParallelism`] knob. The same
//! controller walks *up* on latency-bound storage (Lustre small files)
//! and *down* on contention-bound storage (HDD large files) — the two
//! opposite optimizations of the paper's case studies.

use std::sync::Arc;

use tfsim::{Callback, DynamicParallelism, TfRuntime};

use crate::analysis::{analyze, diff};
use crate::wrapper::TfDarshanWrapper;

/// One tuning decision, for post-hoc inspection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneStep {
    /// Training step at which the window closed.
    pub step: usize,
    /// Parallelism during the window.
    pub target: usize,
    /// Window read bandwidth, MiB/s.
    pub bandwidth: f64,
    /// Parallelism chosen for the next window.
    pub next_target: usize,
}

/// Hill-climbing controller over `num_parallel_calls`, fed by Darshan
/// window bandwidth. Use as a Keras callback, or call
/// [`IoAutoTuner::window_closed`] manually from a custom loop.
pub struct IoAutoTuner {
    wrapper: Arc<TfDarshanWrapper>,
    ctl: Arc<DynamicParallelism>,
    /// Steps per measurement window.
    pub window_steps: usize,
    direction: f64,
    /// Relative drop that triggers a direction reversal (default 0.95).
    pub reverse_tolerance: f64,
    last_bandwidth: Option<f64>,
    steps_in_window: usize,
    step: usize,
    /// Decision log.
    pub history: Vec<TuneStep>,
}

impl IoAutoTuner {
    /// Tune `ctl` using Darshan windows of `window_steps` steps.
    pub fn new(
        wrapper: Arc<TfDarshanWrapper>,
        ctl: Arc<DynamicParallelism>,
        window_steps: usize,
    ) -> Self {
        IoAutoTuner {
            wrapper,
            ctl,
            window_steps: window_steps.max(1),
            direction: 1.5,
            reverse_tolerance: 0.95,
            last_bandwidth: None,
            steps_in_window: 0,
            step: 0,
            history: Vec::new(),
        }
    }

    /// The knob being tuned.
    pub fn ctl(&self) -> &Arc<DynamicParallelism> {
        &self.ctl
    }

    /// Final parallelism after tuning.
    pub fn converged_target(&self) -> usize {
        self.ctl.target()
    }

    fn adjust(&mut self, bandwidth: f64) -> usize {
        let cur = self.ctl.target();
        if let Some(last) = self.last_bandwidth {
            // Worse than before (beyond noise): reverse the direction.
            // The tolerance is loose because window bandwidth is noisy
            // (different windows read different file-size mixes) and the
            // thread→bandwidth response can be flat over wide ranges
            // (Fig. 11a: any interleaving ≥2 streams pays the seeks).
            if bandwidth < last * self.reverse_tolerance {
                self.direction = 1.0 / self.direction;
            }
        }
        self.last_bandwidth = Some(bandwidth);
        // Multiplicative step, moving by at least one.
        let mut next = if self.direction > 1.0 {
            (((cur as f64) * self.direction).round() as usize).max(cur + 1)
        } else {
            (((cur as f64) * self.direction).round() as usize).min(cur.saturating_sub(1))
        }
        .clamp(1, self.ctl.max);
        if next == cur {
            // Pinned at a bound: probe the other direction instead of
            // sitting still forever.
            self.direction = 1.0 / self.direction;
            next = if self.direction > 1.0 {
                (cur + 1).min(self.ctl.max)
            } else {
                cur.saturating_sub(1).max(1)
            };
        }
        self.ctl.set_target(next);
        next
    }

    /// Close the current Darshan window, decide, and open the next one.
    pub fn window_closed(&mut self, step: usize) {
        self.wrapper.mark_stop();
        let bandwidth = self.wrapper.session_snapshots().map_or(0.0, |(a, b)| {
            analyze(&diff(&a, &b), &[]).0.read_bandwidth_mibps
        });
        let target = self.ctl.target();
        let next = self.adjust(bandwidth);
        self.history.push(TuneStep {
            step,
            target,
            bandwidth,
            next_target: next,
        });
        let _ = self.wrapper.mark_start();
    }
}

impl Callback for IoAutoTuner {
    fn on_train_begin(&mut self, _rt: &Arc<TfRuntime>) {
        let _ = self.wrapper.mark_start();
    }

    fn on_step_end(&mut self, _rt: &Arc<TfRuntime>, step: usize) {
        self.step = step;
        self.steps_in_window += 1;
        if self.steps_in_window >= self.window_steps {
            self.steps_in_window = 0;
            self.window_closed(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::TfDarshanConfig;
    use posix_sim::Process;
    use storage_sim::StorageStack;

    /// Drive `adjust` with a synthetic bandwidth curve peaking at `peak`.
    fn converge(start: usize, max: usize, peak: usize) -> usize {
        let sim = simrt::Sim::new();
        let stack = StorageStack::new();
        let process = Process::new(stack);
        let wrapper = TfDarshanWrapper::install(process, TfDarshanConfig::default());
        let ctl = DynamicParallelism::new(start, max);
        let mut tuner = IoAutoTuner::new(wrapper, ctl.clone(), 5);
        // Concave response: bandwidth drops on either side of `peak`.
        let bw = move |t: usize| -> f64 {
            let t = t as f64;
            let p = peak as f64;
            100.0 - (t - p).abs() * 8.0
        };
        let h = sim.spawn("tuner", move || {
            for _ in 0..24 {
                let measured = bw(ctl.target());
                let next = tuner.adjust(measured);
                ctl.set_target(next);
            }
            tuner.ctl().target()
        });
        sim.run();
        h.join()
    }

    #[test]
    fn climbs_up_when_more_threads_help() {
        let end = converge(1, 28, 24);
        assert!((16..=28).contains(&end), "converged to {end}");
    }

    #[test]
    fn climbs_down_when_threads_hurt() {
        let end = converge(16, 16, 1);
        assert!(end <= 4, "converged to {end}");
    }

    #[test]
    fn respects_bounds() {
        assert!(converge(1, 4, 28) <= 4);
        assert!(converge(4, 4, 1) >= 1);
    }
}
