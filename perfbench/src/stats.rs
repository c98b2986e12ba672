//! The benchmark's own statistics: quantiles that carry their sample
//! count, tail percentiles taken as a median over windows, the seeded
//! Poisson arrival schedule, and the outcome tally behind `error_rate`.

use krv_testkit::Rng;
use std::time::Duration;

/// Fewest samples that must lie beyond a percentile for it to be
/// reported.
pub const MIN_TAIL: usize = 10;

/// The percentiles [`Quantiles::highest_supported`] climbs, lowest first.
const LADDER: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Most windows a phase's samples are split into for [`windowed`].
const MAX_WINDOWS: usize = 8;

/// A sorted sample set. Every quantile it reports comes with the sample
/// count it was taken over.
#[derive(Debug, Clone)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Sorts `samples`.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Samples held.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank quantile `q ∈ [0, 1]`, or `None` when empty.
    pub fn at(&self, q: f64) -> Option<f64> {
        let rank = rank(self.count(), q)?;
        Some(self.sorted[rank - 1])
    }

    /// Samples strictly beyond the nearest-rank position of `q`.
    pub fn beyond(&self, q: f64) -> usize {
        rank(self.count(), q).map_or(0, |rank| self.count() - rank)
    }

    /// Whether at least [`MIN_TAIL`] samples lie beyond `q`.
    pub fn supports(&self, q: f64) -> bool {
        self.beyond(q) >= MIN_TAIL
    }

    /// The highest percentile of 50/90/99/99.9 with at least
    /// [`MIN_TAIL`] samples beyond it, as `(q, value)`.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        LADDER
            .iter()
            .rev()
            .find(|&&q| self.supports(q))
            .map(|&q| (q, self.at(q).expect("a supported quantile has samples")))
    }
}

/// The 1-based nearest rank of `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

/// A quantile taken as the median over consecutive windows of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// The median of the per-window quantiles.
    pub value: f64,
    /// Windows the samples were split into.
    pub windows: usize,
    /// Samples in the whole set.
    pub count: usize,
    /// Whether every window had at least [`MIN_TAIL`] samples beyond
    /// its quantile.
    pub supported: bool,
}

/// Quantile `q` of `samples` (in arrival order), as the median over up
/// to eight consecutive windows that each keep [`MIN_TAIL`] samples
/// beyond `q`. One stall then moves one window, not the reported value.
/// With too few samples for two windows it is the plain quantile, and
/// `supported` says whether that has [`MIN_TAIL`] samples beyond it.
pub fn windowed(samples: &[f64], q: f64) -> Windowed {
    let count = samples.len();
    let tail_share = (1.0 - q).max(f64::EPSILON);
    let per_window = (MIN_TAIL as f64 / tail_share).ceil() as usize + 1;
    let windows = (count / per_window).clamp(1, MAX_WINDOWS);
    let size = count / windows;
    let mut supported = true;
    let values: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                count
            } else {
                (w + 1) * size
            };
            let window = Quantiles::new(samples[w * size..end].to_vec());
            supported &= window.supports(q);
            window.at(q).unwrap_or(0.0)
        })
        .collect();
    Windowed {
        value: median(&values),
        windows,
        count,
        supported,
    }
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Seeded Poisson arrivals: the offsets from a phase's start at which
/// an open loop is due to send. The same seed and rate give the same
/// schedule.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: Rng,
    rate: f64,
    at: f64,
}

impl PoissonSchedule {
    /// Arrivals at `rate` per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        Self {
            rng: Rng::new(seed),
            rate,
            at: 0.0,
        }
    }
}

impl Iterator for PoissonSchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        // Uniform in (0, 1] from the top 53 bits, so ln never sees 0.
        let u = ((self.rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        self.at += -u.ln() / self.rate;
        Some(Duration::from_secs_f64(self.at))
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the output the benchmark computed itself.
    Ok,
    /// Refused with `BUSY`.
    Busy,
    /// Refused with `DEADLINE`.
    Deadline,
    /// Answered with an output that differs from the reference.
    Mismatch,
    /// Lost to a transport or protocol failure.
    Transport,
    /// Answered with any other error code.
    OtherError,
}

/// Counts of operations by outcome. Each attempted operation is
/// recorded exactly once, so each failure counts once in `error_rate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations answered correctly.
    pub ok: u64,
    /// `BUSY` refusals.
    pub busy: u64,
    /// `DEADLINE` refusals.
    pub deadline: u64,
    /// Wrong outputs.
    pub mismatch: u64,
    /// Transport or protocol failures.
    pub transport: u64,
    /// Other error responses.
    pub other: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Outcome) {
        let slot = match outcome {
            Outcome::Ok => &mut self.ok,
            Outcome::Busy => &mut self.busy,
            Outcome::Deadline => &mut self.deadline,
            Outcome::Mismatch => &mut self.mismatch,
            Outcome::Transport => &mut self.transport,
            Outcome::OtherError => &mut self.other,
        };
        *slot += 1;
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.busy += other.busy;
        self.deadline += other.deadline;
        self.mismatch += other.mismatch;
        self.transport += other.transport;
        self.other += other.other;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    /// Operations that failed, for any reason.
    pub fn failed(&self) -> u64 {
        self.busy + self.deadline + self.mismatch + self.transport + self.other
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            attempted => self.failed() as f64 / attempted as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_carry_their_count() {
        let q = Quantiles::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(q.count(), 100);
        assert_eq!(q.at(0.5), Some(50.0));
        assert_eq!(q.at(0.99), Some(99.0));
        assert_eq!(q.at(1.0), Some(100.0));
        assert_eq!(Quantiles::new(Vec::new()).at(0.5), None);
    }

    #[test]
    fn highest_supported_keeps_ten_samples_beyond() {
        // 100 samples: 10 beyond p90, 1 beyond p99.
        let q = Quantiles::new((1..=100).map(f64::from).collect());
        assert_eq!(q.beyond(0.90), 10);
        assert!(!q.supports(0.99));
        assert_eq!(q.highest_supported(), Some((0.90, 90.0)));
        // 1000 samples: exactly 10 beyond p99.
        let q = Quantiles::new((1..=1000).map(f64::from).collect());
        assert_eq!(q.highest_supported(), Some((0.99, 990.0)));
        // 19 samples: only 9 beyond p50.
        let q = Quantiles::new((1..=19).map(f64::from).collect());
        assert_eq!(q.highest_supported(), None);
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        // 8 000 samples of 1.0 with one burst of 200 slow ones: the
        // pooled p99 sees the burst, the window median does not.
        let mut samples = vec![1.0; 8_000];
        for s in &mut samples[100..300] {
            *s = 50.0;
        }
        assert_eq!(Quantiles::new(samples.clone()).at(0.99), Some(50.0));
        let w = windowed(&samples, 0.99);
        assert_eq!(w.windows, 7);
        assert_eq!(w.count, 8_000);
        assert!(w.supported);
        assert_eq!(w.value, 1.0);
    }

    #[test]
    fn windowed_falls_back_to_one_unsupported_window() {
        let samples: Vec<f64> = (1..=500).map(f64::from).collect();
        let w = windowed(&samples, 0.99);
        assert_eq!(w.windows, 1);
        assert!(!w.supported);
        assert_eq!(w.value, 495.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a: Vec<Duration> = PoissonSchedule::new(7, 2_000.0).take(1_000).collect();
        let b: Vec<Duration> = PoissonSchedule::new(7, 2_000.0).take(1_000).collect();
        let c: Vec<Duration> = PoissonSchedule::new(8, 2_000.0).take(1_000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|pair| pair[0] <= pair[1]));
    }

    #[test]
    fn poisson_schedule_keeps_its_rate() {
        let last = PoissonSchedule::new(11, 2_000.0)
            .take(20_000)
            .last()
            .unwrap();
        // 20 000 arrivals at 2 000/s take about 10 s (±3 %, ~4 sigma).
        assert!((last.as_secs_f64() - 10.0).abs() < 0.3, "{last:?}");
    }

    #[test]
    fn error_rate_counts_each_failure_once() {
        let mut tally = Tally::default();
        let outcomes = [
            Outcome::Ok,
            Outcome::Busy,
            Outcome::Ok,
            Outcome::Deadline,
            Outcome::Mismatch,
            Outcome::Ok,
            Outcome::Busy,
            Outcome::Ok,
        ];
        for outcome in outcomes {
            tally.record(outcome);
        }
        assert_eq!((tally.busy, tally.deadline, tally.mismatch), (2, 1, 1));
        assert_eq!(tally.attempted(), 8);
        assert_eq!(tally.failed(), 4);
        assert_eq!(tally.error_rate(), 0.5);
        let mut merged = Tally::default();
        merged.merge(&tally);
        merged.merge(&tally);
        assert_eq!(merged.attempted(), 16);
        assert_eq!(merged.failed(), 8);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
