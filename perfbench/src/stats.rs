//! Percentiles, the seeded generator and the arrival schedule.
//!
//! These are the benchmark's own, not the program's (`sirius_obs::stats`),
//! so a change to the program's statistics cannot change how the program
//! is measured.

use std::time::Duration;

/// Nearest-rank percentile (`pct` in 0..=100) of an ascending-sorted
/// sample: the value at rank `ceil(pct/100 · n)`, clamped to `1..=n`.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sorts a copy of `values` ascending (NaN sorts last) for [`percentile`].
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank (the lower middle of an even sample).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// SplitMix64: a tiny, fully specified generator, so a seed means the same
/// inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one workload seed; distinct
    /// streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// One scheduled query: when it is due, relative to the phase start, and
/// which of the workload's queries it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub query: usize,
}

/// An open-loop Poisson schedule at `rate_qps` over `span`: exponential
/// gaps and uniform query draws from `queries` choices, all from `rng`.
pub fn poisson_schedule(
    rng: &mut Rng,
    rate_qps: f64,
    span: Duration,
    queries: usize,
) -> Vec<Arrival> {
    assert!(
        rate_qps > 0.0 && queries > 0,
        "a schedule needs a rate and queries"
    );
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate_qps;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            query: rng.below(queries),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 95.0), Some(10.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.5], 95.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        // 20 samples: p95 is rank 19, the second largest.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(19.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn seeded_schedule_reproduces_exactly() {
        let span = Duration::from_secs(5);
        let a = poisson_schedule(&mut Rng::new(42, 1), 80.0, span, 32);
        let b = poisson_schedule(&mut Rng::new(42, 1), 80.0, span, 32);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(&mut Rng::new(43, 1), 80.0, span, 32));
        assert_ne!(a, poisson_schedule(&mut Rng::new(42, 2), 80.0, span, 32));
        // Ordered, inside the span, every query drawn from range.
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < span && x.query < 32));
        // About rate × span arrivals (Poisson sd is sqrt(400) = 20).
        assert!((300..500).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn generator_is_pinned() {
        // The first outputs of a seed never change, so a seed names the
        // same inputs on every build.
        let mut rng = Rng::new(0, 0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let mut again = Rng::new(0, 0);
        assert_eq!(first, (0..3).map(|_| again.next_u64()).collect::<Vec<_>>());
        assert_eq!(Rng(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }
}
