//! Host speed: a fixed calibration kernel timed alongside the workload.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by up to
//! half again between fast and slow spells lasting seconds to minutes: a
//! neighbour's load slows every instruction this process runs, CPU time
//! included. A spell can cover a whole run, so no estimator inside one run
//! can tell it from a slower program. The kernel below does a fixed amount
//! of work that calls nothing in the program; its time, taken between
//! requests, measures how slow the host is at that moment, and the timed
//! figures are scaled to what they would read at [`REFERENCE`] speed. A
//! change to the program moves the figures as before; the kernel stays the
//! same.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed: about its median on the
/// machine the bounds were set on (2 vCPUs of a 2.1 GHz Xeon, KVM guest).
pub const REFERENCE: Duration = Duration::from_micros(150);

/// How often a client times the kernel between its requests.
pub const INTERVAL: Duration = Duration::from_millis(20);

/// Sorts pseudo-random 32-bit keys in an L1-resident buffer: branchy
/// integer work, as planning and hashing are, whose speed follows the
/// host's the way the program's does. Returns its elapsed time.
pub fn kernel() -> Duration {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut keys = [0u32; 1024];
    let mut folded = 0u64;
    for _ in 0..8 {
        for key in keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *key = (x >> 32) as u32;
        }
        black_box(&mut keys).sort_unstable();
        folded = folded.wrapping_add(u64::from(keys[512]));
    }
    black_box(folded);
    started.elapsed()
}

/// How slow the host is right now: the median of a few kernel runs over
/// [`REFERENCE`]. 2.0 means a figure timed now is twice what it would be at
/// the reference speed.
pub fn slowness_now() -> f64 {
    let times: Vec<f64> = (0..5).map(|_| kernel().as_secs_f64()).collect();
    median(&times) / REFERENCE.as_secs_f64()
}

/// Kernel timings taken during a window, in time order.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    /// (when, from the start of the window; the kernel's time).
    samples: Vec<(Duration, Duration)>,
}

/// Kernel timings within this distance of a moment set its slowness.
const NEIGHBOURHOOD: Duration = Duration::from_millis(250);

impl Speed {
    /// Merges the clients' timings.
    pub fn of(mut samples: Vec<(Duration, Duration)>) -> Speed {
        samples.sort_unstable();
        Speed { samples }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The median kernel time over the window.
    pub fn median_kernel(&self) -> Duration {
        let times: Vec<f64> = self.samples.iter().map(|s| s.1.as_secs_f64()).collect();
        Duration::from_secs_f64(median(&times))
    }

    /// The host's slowness at `at`: the median kernel time of the timings
    /// within [`NEIGHBOURHOOD`] of it (of the whole window when none is)
    /// over [`REFERENCE`]; 1.0 with no timings at all.
    pub fn slowness_at(&self, at: Duration) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let from = self.samples.partition_point(|s| s.0 + NEIGHBOURHOOD < at);
        let near: Vec<f64> = self.samples[from..]
            .iter()
            .take_while(|s| s.0 <= at + NEIGHBOURHOOD)
            .map(|s| s.1.as_secs_f64())
            .collect();
        let kernel = if near.is_empty() {
            self.median_kernel().as_secs_f64()
        } else {
            median(&near)
        };
        kernel / REFERENCE.as_secs_f64()
    }

    /// `[0, end]` as it would have lasted at the reference speed.
    pub fn reference_time(&self, end: Duration) -> Duration {
        const STEP: Duration = Duration::from_millis(50);
        let mut total = 0.0;
        let mut at = Duration::ZERO;
        while at < end {
            let step = STEP.min(end - at);
            total += step.as_secs_f64() / self.slowness_at(at + step / 2);
            at += step;
        }
        Duration::from_secs_f64(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn slowness_follows_the_nearby_kernel_times() {
        // Reference speed for the first second, half speed for the second.
        let samples = (0..100)
            .map(|i| (ms(i * 20), if i < 50 { REFERENCE } else { REFERENCE * 2 }))
            .collect();
        let speed = Speed::of(samples);
        assert_eq!(speed.slowness_at(ms(300)), 1.0);
        assert_eq!(speed.slowness_at(ms(1700)), 2.0);
        // A second at the reference speed and half a second at half of it
        // last 1 + 0.25 s at the reference.
        let reference = speed.reference_time(ms(1000) + ms(500)).as_secs_f64();
        assert!((reference - 1.25).abs() < 0.05, "{reference}");
        assert_eq!(Speed::default().slowness_at(ms(5)), 1.0);
    }

    #[test]
    fn the_kernel_takes_time() {
        assert!(kernel() > Duration::ZERO);
        assert!(slowness_now() > 0.0);
    }
}
