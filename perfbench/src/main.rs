//! End-to-end and per-layer host-time benchmark of the tf-Darshan
//! reproduction.
//!
//! ```text
//! perfbench --workload <imagenet_lustre|malware_hdd|fleet_serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats whole samples (set up, run, check) until `--seconds` of
//! host time have passed. Host-time metrics are medians and percentiles
//! over the many steps and profiling windows of all samples; virtual-time
//! metrics must repeat bit for bit across the samples of one seed. With
//! `--trace 0` the last stdout line carries the end-to-end metrics, with
//! `--trace 1` the per-layer breakdown. See `NOTES.md`.

mod calib;
mod fleet;
mod publish;
mod report;
mod stats;
mod train;

use std::process::ExitCode;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Correctness checks of one run; a failed check is a failed operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Determinism guard: every sample of one kind must reproduce the
    /// first sample's virtual metrics and counts bit for bit.
    pub fn same_virtual(&mut self, first: &mut Option<Vec<u64>>, got: Vec<u64>, kind: &str) {
        match first {
            None => *first = Some(got),
            Some(want) => {
                let ok = *want == got;
                self.check(ok, || {
                    format!("{kind}: virtual metrics {got:?} != {want:?}")
                });
            }
        }
    }
}

/// Sample kinds a run cycles through.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// tf-Darshan installed, no benchmark spans.
    Instr,
    /// tf-Darshan installed, every layer call wrapped in a span.
    Traced,
    /// tf-Darshan not installed (spans on the read path only when tracing).
    Bare,
}

/// The kinds a run cycles through: the untraced run measures the
/// end-to-end metrics; the traced run adds untraced samples only to
/// report the tracing overhead.
pub fn kinds(trace: bool) -> &'static [Kind] {
    if trace {
        &[Kind::Instr, Kind::Traced, Kind::Bare]
    } else {
        &[Kind::Instr, Kind::Bare]
    }
}

/// Set-ups timed before the samples; `setup_s` is their median.
const SETUP_REPS: usize = 40;

/// Run `sample` over `kinds` in rotation until `seconds` of host time
/// passed and every kind ran at least twice.
pub fn rotate(seconds: f64, kinds: &[Kind], mut sample: impl FnMut(Kind)) {
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || t0.elapsed().as_secs_f64() < seconds {
        for &k in kinds {
            sample(k);
        }
        rounds += 1;
    }
}

/// Time `SETUP_REPS` set-ups, each scaled to the reference machine speed.
/// `once` sets up, tears down, and returns the set-up's host seconds.
pub fn time_setups(mut once: impl FnMut() -> f64) -> Vec<f64> {
    let mut cal = calib::Calibrator::default();
    cal.boundary();
    let raw: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let s = once();
            cal.boundary();
            s
        })
        .collect();
    raw.iter().zip(cal.factors()).map(|(s, f)| s * f).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = match args.workload.as_str() {
        "imagenet_lustre" => train::run(&train::IMAGENET_LUSTRE, &args, &mut checks),
        "malware_hdd" => train::run(&train::MALWARE_HDD, &args, &mut checks),
        "fleet_serve" => fleet::run(&args, &mut checks),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    let mut fields = Vec::new();
    for x in &metrics {
        checks.check(x.value.is_finite(), || format!("{} is not finite", x.name));
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        println!("{:<32} {:>16.6} {}", x.name, value, x.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, value, x.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
