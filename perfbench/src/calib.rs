//! A fixed calibration kernel that measures how fast this machine runs
//! gossip-like code right now.
//!
//! On shared hosts the speed of a core drifts by 20–30% over minutes,
//! which swamps any difference between two commits. The kernel is timed
//! in the same process as the workload, while the workload is idle, and
//! the end-to-end times of the compute-bound workloads are reported at
//! the kernel's reference speed: `ms × reference_ms / kernel_ms`. The
//! kernel is self-contained (it calls nothing in the repository), so a
//! change to the program cannot change it.

use crate::stats::median;
use std::time::Instant;

/// The kernel's working set. A core slowed by its neighbours slows
/// code by how much that code depends on the contended caches, so each
/// workload is calibrated with the working set that resembles its own.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    /// 2^18 points (4 MiB of coordinates): random reads miss the core's
    /// private caches, as the solver workloads' large instances do.
    Memory,
    /// 2^12 points (64 KiB): stays in a core's private caches, as a
    /// server solve of 256 nodes does.
    Cache,
}

impl Kernel {
    fn points(self) -> usize {
        match self {
            Kernel::Memory => 1 << 18,
            Kernel::Cache => 1 << 12,
        }
    }

    /// The kernel's median time on the reference machine (2-core Xeon,
    /// quiet host), in ms.
    fn reference_ms(self) -> f64 {
        match self {
            Kernel::Memory => 20.0,
            Kernel::Cache => 16.0,
        }
    }
}
/// Simulated nodes per kernel run.
const NODES: usize = 20_000;
/// Points each simulated node samples.
const SAMPLE: usize = 24;

pub struct Calibration {
    kernel: Kernel,
    points: Vec<[f64; 2]>,
    threads: usize,
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// A calibration for a workload that keeps `threads` cores busy:
    /// each sample runs the kernel on that many threads at once and
    /// records their mean time, so a slow second core counts.
    pub fn new(threads: usize, kernel: Kernel) -> Calibration {
        let points = (0..kernel.points() as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let unit = |bits: u64| (bits & 0xFF_FFFF) as f64 / 16_777_216.0;
                [unit(h >> 40), unit(h >> 16)]
            })
            .collect();
        Calibration {
            kernel,
            points,
            threads: threads.max(1),
            samples_ms: Vec::new(),
        }
    }

    /// Times one kernel run per thread. Call it only while the workload
    /// is idle. Returns the sample, in ms.
    pub fn sample(&mut self) -> f64 {
        let points = &self.points;
        let timed = |seed: u64| {
            let t = Instant::now();
            std::hint::black_box(kernel(points, seed));
            t.elapsed().as_secs_f64() * 1e3
        };
        let total: f64 = std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.threads)
                .map(|i| scope.spawn(move || timed(i as u64)))
                .collect();
            let mine = timed(0);
            mine + others
                .into_iter()
                .map(|h| h.join().expect("a calibration thread panicked"))
                .sum::<f64>()
        });
        let ms = total / self.threads as f64;
        self.samples_ms.push(ms);
        ms
    }

    /// Median kernel time of this run, in ms.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples_ms).expect("the run took calibration samples")
    }

    /// Converts a time measured in this run to reference speed.
    pub fn time(&self, ms: f64) -> f64 {
        self.time_at(ms, self.kernel_ms())
    }

    /// Converts a time measured while the kernel took `kernel_ms` to
    /// reference speed.
    pub fn time_at(&self, ms: f64, kernel_ms: f64) -> f64 {
        ms * self.kernel.reference_ms() / kernel_ms
    }

    /// Converts a rate measured in this run to reference speed.
    pub fn rate(&self, per_s: f64) -> f64 {
        per_s * self.kernel_ms() / self.kernel.reference_ms()
    }
}

/// Every simulated node pulls a random sample of points, fits a
/// bounding circle to it (Ritter's two-pass method) and counts which
/// of its own points the circle contains: random reads, float
/// arithmetic and data-dependent branches, like a gossip round.
fn kernel(points: &[[f64; 2]], seed: u64) -> u64 {
    let n = points.len();
    let mut x = seed;
    let mut inside = 0;
    let mut sample = [[0.0f64; 2]; SAMPLE];
    let d2 = |a: [f64; 2], b: [f64; 2]| (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2);
    for node in 0..NODES {
        for s in sample.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *s = points[(x >> 33) as usize % n];
        }
        let farthest = |p: [f64; 2]| {
            sample
                .iter()
                .copied()
                .max_by(|a, b| d2(*a, p).total_cmp(&d2(*b, p)))
                .expect("samples are non-empty")
        };
        let a = farthest(sample[0]);
        let b = farthest(a);
        let (mut cx, mut cy) = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0);
        let mut r = d2(a, b).sqrt() / 2.0;
        for p in &sample {
            let d = d2(*p, [cx, cy]).sqrt();
            if d > r {
                let grown = (r + d) / 2.0;
                let k = (grown - r) / d;
                cx += (p[0] - cx) * k;
                cy += (p[1] - cy) * k;
                r = grown;
            }
        }
        let own = (node * 4) % n;
        for p in &points[own..own + 4] {
            if d2(*p, [cx, cy]) <= r * r {
                inside += 1;
            }
        }
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_scales_times_and_rates_inversely() {
        let mut c = Calibration::new(1, Kernel::Memory);
        c.samples_ms = vec![40.0, 10.0, 40.0];
        assert_eq!(c.kernel_ms(), 40.0);
        assert_eq!(c.time(100.0), 50.0);
        assert_eq!(c.rate(3.0), 6.0);
        assert_eq!(c.time_at(100.0, 10.0), 200.0);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        for k in [Kernel::Memory, Kernel::Cache] {
            let mut c = Calibration::new(2, k);
            assert_eq!(c.points.len(), k.points());
            assert_eq!(kernel(&c.points, 3), kernel(&c.points, 3));
            let ms = c.sample();
            assert_eq!(c.samples_ms, [ms]);
        }
    }
}
