//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! highest percentile a sample supports, and closed-loop request
//! accounting in which a failed or refused request misses every latency
//! limit.

/// Percentiles the tail search tries, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples. The epsilon
/// keeps a product such as 99.9% of 10 000 (9990.000000000002 in binary)
/// on its exact rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median of an unsorted sample (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Samples strictly beyond percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median is
/// unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Closed-loop tally of one client population: every request attempted
/// ends either as a success with a latency or as a failure (an error
/// status, a refusal, a broken connection or a wrong answer).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latencies of successful requests, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Failed requests, refusals included.
    pub failed: u64,
    /// The subset of `failed` the server refused (429 or 503).
    pub refused: u64,
}

impl Tally {
    /// Record a correct response.
    pub fn success(&mut self, latency_ms: f64) {
        self.latencies_ms.push(latency_ms);
    }

    /// Record a request that failed.
    pub fn failure(&mut self) {
        self.failed += 1;
    }

    /// Record a request the server refused; it counts as failed.
    pub fn refusal(&mut self) {
        self.refused += 1;
        self.failed += 1;
    }

    /// Fold another client's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.failed += other.failed;
        self.refused += other.refused;
    }

    /// The same tally with every latency multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Tally {
        Tally {
            latencies_ms: self.latencies_ms.iter().map(|l| l * factor).collect(),
            ..*self
        }
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64 + self.failed
    }

    /// Requests that succeeded.
    pub fn succeeded(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Successful responses per second over `seconds` of wall time.
    pub fn rate(&self, seconds: f64) -> f64 {
        self.succeeded() as f64 / seconds
    }

    /// Mean latency over every attempted request; infinite when one
    /// failed, as it misses any limit. `None` when nothing was attempted.
    pub fn latency_mean(&self) -> Option<f64> {
        if self.attempted() == 0 {
            return None;
        }
        if self.failed > 0 {
            return Some(f64::INFINITY);
        }
        Some(self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64)
    }

    /// Latency percentile over every attempted request, failures counted
    /// as infinitely slow so that they miss any limit.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        let mut all = self.latencies_ms.clone();
        all.extend((0..self.failed).map(|_| f64::INFINITY));
        all.sort_by(f64::total_cmp);
        percentile(&all, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(beyond(1_000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
    }

    #[test]
    fn failures_and_refusals_are_attempted_and_miss_the_tail() {
        let mut a = Tally::default();
        for i in 0..98 {
            a.success(f64::from(i));
        }
        let mut b = Tally::default();
        b.failure();
        b.refusal();
        a.merge(b);
        assert_eq!(a.attempted(), 100);
        assert_eq!(a.succeeded(), 98);
        assert_eq!(a.failed, 2);
        assert_eq!(a.refused, 1);
        assert_eq!(a.rate(2.0), 49.0);
        assert_eq!(a.latency_percentile(50.0), Some(49.0));
        assert_eq!(a.latency_percentile(98.0), Some(97.0));
        assert_eq!(a.latency_percentile(99.0), Some(f64::INFINITY));
        assert_eq!(a.latency_mean(), Some(f64::INFINITY));
    }

    #[test]
    fn mean_latency_and_scaling() {
        let mut a = Tally::default();
        assert_eq!(a.latency_mean(), None);
        a.success(1.0);
        a.success(3.0);
        assert_eq!(a.latency_mean(), Some(2.0));
        let scaled = a.scaled(0.5);
        assert_eq!(scaled.latencies_ms, vec![0.5, 1.5]);
        assert_eq!(scaled.attempted(), a.attempted());
    }
}
