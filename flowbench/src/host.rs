//! The host-speed reference.
//!
//! The benchmark shares a few cores of a busy host whose throughput drifts
//! by tens of percent over minutes, and every flow slows down with it.  So
//! a fixed kernel — benchmark code, independent of the program under test —
//! is timed between flows, and every time a pass measures is divided by how
//! much slower than nominal the kernel ran during that pass.  A change to
//! the program moves the flow times but not the kernel, so it shows in
//! full; a slower host moves both, and the two largely cancel.
//!
//! The kernel mixes two kinds of work the flows do, about half of its time
//! each: dependent random reads from a table four times the size of a
//! core's L2 cache (like the BDD unique tables and op caches), and branchy
//! code with independent work to overlap: sorts of a table that fits in
//! L2.  It does the same work on every call.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's typical time on the 2.1 GHz Xeon the bounds were set on,
/// so that scaled times read roughly as seconds on that host.
pub const NOMINAL_S: f64 = 0.021;

/// `u64` words of the table that misses L2 (8 MiB), and the dependent
/// reads per call from it.
const LARGE_WORDS: usize = 1 << 20;
const LARGE_READS: usize = 90_000;
/// `u64` words sorted (512 KiB), and how many times per call.
const SORT_WORDS: usize = 1 << 16;
const SORTS: usize = 6;

/// The reference kernel and its tables, allocated once per run.
pub struct Reference {
    large: Vec<u64>,
    unsorted: Vec<u64>,
    /// Where `unsorted` is copied and sorted.
    scratch: Vec<u64>,
}

/// One SplitMix64 step; fills the tables with fixed pseudo-random words.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `reads` dependent reads from `table`, each address taken from the word
/// read before it.
fn chase(table: &[u64], reads: usize) -> u64 {
    let mask = table.len() - 1;
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..reads {
        let word = table[at];
        acc = acc.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(word);
        at = (word ^ (acc >> 17)) as usize & mask;
    }
    acc
}

impl Reference {
    pub fn new() -> Self {
        let table = |words: usize, salt: u64| (0..words as u64).map(|i| mix(i ^ salt)).collect();
        Reference {
            large: table(LARGE_WORDS, 0),
            unsorted: table(SORT_WORDS, 1 << 40),
            scratch: vec![0; SORT_WORDS],
        }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        black_box(chase(black_box(&self.large), LARGE_READS));
        for _ in 0..SORTS {
            self.scratch.copy_from_slice(black_box(&self.unsorted));
            self.scratch.sort_unstable();
            black_box(&self.scratch);
        }
        start.elapsed().as_secs_f64()
    }
}

/// How much slower than nominal the host ran, from the kernel times taken
/// over a stretch of the run: their mean over [`NOMINAL_S`].  The mean, not
/// the median, because a pass's time is the sum of its flows' times.
pub fn slowdown(kernel_seconds: &[f64]) -> f64 {
    kernel_seconds.iter().sum::<f64>() / kernel_seconds.len() as f64 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_fixed_work_in_measurable_time() {
        let mut reference = Reference::new();
        assert_eq!(chase(&reference.large, 1000), chase(&reference.large, 1000));
        let seconds: Vec<f64> = (0..3).map(|_| reference.time()).collect();
        assert!(seconds.iter().all(|&s| s > 0.0), "{seconds:?}");
        assert!(reference.scratch.windows(2).all(|w| w[0] <= w[1]));
        // Within an order of magnitude of nominal on any host this runs on.
        let factor = slowdown(&seconds);
        assert!(factor > 0.1 && factor < 10.0, "slowdown {factor}");
    }

    #[test]
    fn slowdown_is_the_mean_over_nominal() {
        assert!((slowdown(&[NOMINAL_S, 3.0 * NOMINAL_S]) - 2.0).abs() < 1e-12);
        assert!((slowdown(&[NOMINAL_S]) - 1.0).abs() < 1e-12);
    }
}
