//! Seeded input generation, percentiles, and the benchmark-side recorders:
//! host-time spans around public calls, and a probe-event counter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use probe::{IoEvent, ProbeSink};

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x7F4A_7C15_9E37_79B9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1)`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// `n` log-normal sizes with the given median and shape, clamped to
    /// `[min, max]`, in random order. Stratified: draw `i` falls in the
    /// `i`-th of `n` equal-probability slices, so the seed moves every
    /// size but the set's total and spread stay close to the
    /// distribution's own, and a run's figures do not hinge on a few
    /// outliers.
    pub fn lognormal_sizes(
        &mut self,
        n: usize,
        median: f64,
        sigma: f64,
        min: u64,
        max: u64,
    ) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n)
            .map(|i| {
                let z = inverse_normal_cdf((i as f64 + self.unit()) / n as f64);
                (median * (sigma * z).exp()).clamp(min as f64, max as f64) as u64
            })
            .collect();
        self.shuffle(&mut v);
        v
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Standard normal quantile function (Acklam's rational approximation,
/// relative error below 1.2e-9).
fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    const P_LOW: f64 = 0.024_25;
    if p < P_LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; NaN for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Host-time samples by layer name, in milliseconds.
#[derive(Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    pub fn add(&mut self, name: &'static str, ms: f64) {
        self.0.entry(name).or_default().push(ms);
    }

    /// Run `f`, recording its host time under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, ms_since(t));
        out
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn p50(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    pub fn absorb(&mut self, other: Spans) {
        for (k, v) in other.0 {
            self.0.entry(k).or_default().extend(v);
        }
    }
}

/// Run `f`, timing it under `name` when `spans` is given.
pub fn timed<T>(spans: Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Counts every probe event it is shown (traced samples register it).
pub struct CountSink(pub AtomicU64);

impl ProbeSink for CountSink {
    fn on_events(&self, events: &[IoEvent]) {
        self.0.fetch_add(events.len() as u64, Ordering::Relaxed);
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    workloads::fleet_scale::peak_rss_kib().unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn seeds_name_inputs() {
        let draw = |s| Rng::new(s).lognormal_sizes(64, 88e3, 0.45, 4096, 1 << 20);
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut sorted = draw(3);
        sorted.sort_unstable();
        let med = sorted[32] as f64;
        assert!((med / 88e3 - 1.0).abs() < 0.05, "median {med}");
    }

    #[test]
    fn normal_quantiles() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.001) + 3.090_232).abs() < 1e-5);
    }
}
