//! Exact order statistics over every sample a run keeps in memory.

/// Every observation of one quantity, in the order it was taken.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle values for an even count);
    /// 0 when empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest
    /// sample with at least `p`% of all samples at or below it.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
        v[rank.min(v.len()) - 1]
    }

    /// How many samples lie strictly beyond the nearest-rank `p`-th
    /// percentile's position.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        n.saturating_sub(rank)
    }

    /// The tail percentile to report for a "p99" metric: 99 when at least
    /// ten samples lie beyond it, else the highest of a fixed ladder that
    /// has ten beyond it (50 at worst). Returns `(percentile, value)`.
    pub fn tail(&self) -> (f64, f64) {
        for p in [99.0, 98.0, 95.0, 90.0, 75.0] {
            if self.beyond(p) >= 10 {
                return (p, self.percentile(p));
            }
        }
        (50.0, self.median())
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Samples {
        Samples { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(vals: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in vals {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn nearest_rank_percentile_is_a_sample() {
        let s = of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.percentile(50.0), 500.0);
        assert_eq!(s.percentile(100.0), 1000.0);
    }

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond() {
        let s = of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail(), (99.0, 990.0));
        let s = of(&(1..=200).map(f64::from).collect::<Vec<_>>());
        // 200 samples: p99 and p98 leave 2 and 4 beyond, p95 leaves 10.
        assert_eq!(s.tail(), (95.0, 190.0));
        let s = of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.tail(), (50.0, 2.0));
    }
}
