//! Machine-speed calibration.
//!
//! On a shared build machine the host time of this simulator's work moves
//! by up to 1.6× within seconds to minutes, with other tenants' load. The
//! simulator's cost is dominated by carrier handoffs through a condvar, and
//! a pure compute loop does not track that drift, but a handoff kernel
//! does. So the benchmark times a fixed kernel — two threads handing
//! control back and forth through a mutex and condvar, with a little
//! allocation and hashing per handoff — at every window boundary, and
//! scales each window's end-to-end host times to a machine on which the
//! kernel takes [`REFERENCE_MS`].

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

const HANDOFFS: usize = 500;

/// Kernel time the end-to-end host metrics are scaled to.
pub const REFERENCE_MS: f64 = 5.0;

/// Host ms of one run of the kernel.
pub fn kernel_ms() -> f64 {
    let turn = Arc::new((Mutex::new(0usize), Condvar::new()));
    let t = Instant::now();
    let peer = {
        let turn = turn.clone();
        std::thread::spawn(move || player(&turn, 1, "/scratch/ds"))
    };
    player(&turn, 0, "/data/hdd/ds");
    peer.join().expect("calibration peer exits cleanly");
    t.elapsed().as_secs_f64() * 1e3
}

/// Take every turn whose parity is `me` until both sides made `HANDOFFS`.
fn player(turn: &(Mutex<usize>, Condvar), me: usize, prefix: &str) -> usize {
    let (lock, cv) = turn;
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut n = lock.lock().expect("calibration lock");
    while *n < 2 * HANDOFFS {
        if *n % 2 != me {
            n = cv.wait(n).expect("calibration lock");
            continue;
        }
        *seen.entry(format!("{prefix}/{:06}", *n % 512)).or_default() += 1;
        *n += 1;
        cv.notify_all();
    }
    seen.len()
}

/// Kernel timings at the boundaries of consecutive windows.
#[derive(Default)]
pub struct Calibrator {
    /// One kernel time per boundary; window `i` lies between boundaries
    /// `i` and `i + 1`.
    pub kernel_ms: Vec<f64>,
}

impl Calibrator {
    /// A window boundary: time the kernel.
    pub fn boundary(&mut self) {
        self.kernel_ms.push(kernel_ms());
    }

    /// One factor per window that scales its host times (divides its host
    /// rates) to the reference machine speed. Window `i` uses the mean of
    /// the kernel times at boundaries `i - 1 ..= i + 2`: the speed on both
    /// sides of it, smoothed over its neighbours so one noisy kernel run
    /// does not move a window.
    pub fn factors(&self) -> Vec<f64> {
        let k = &self.kernel_ms;
        (0..k.len().saturating_sub(1))
            .map(|i| {
                let near = &k[i.saturating_sub(1)..(i + 3).min(k.len())];
                REFERENCE_MS * near.len() as f64 / near.iter().sum::<f64>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_scale_each_window_by_nearby_speed() {
        let cal = Calibrator {
            kernel_ms: vec![5.0, 5.0, 10.0, 10.0, 10.0],
        };
        let f = cal.factors();
        assert_eq!(f.len(), 4);
        assert_eq!(f[0], 5.0 * 3.0 / 20.0);
        assert_eq!(f[3], 0.5);
        assert!(kernel_ms() > 0.0);
    }
}
