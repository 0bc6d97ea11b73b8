//! Exact statistics over the benchmark's own samples, and the virtual
//! digest.
//!
//! Quantiles are order statistics of the recorded samples (nearest rank),
//! never read from the program's power-of-two `VtHistogram` buckets, so a
//! reported p99 is a value that was actually observed.

/// A named set of samples with exact order statistics.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least `p` of the
    /// samples at or below it. Zero when there are no samples.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (p * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The median, averaging the two middle samples of an even count.
    pub fn median(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// Median of the means of consecutive batches of `batch` samples (a
    /// short last batch is dropped unless it is the only one).
    pub fn median_of_means(&self, batch: usize) -> f64 {
        let mut means = Samples::new();
        for chunk in self.0.chunks(batch.max(1)) {
            if chunk.len() == batch || self.0.len() < batch {
                means.push(chunk.iter().sum::<f64>() / chunk.len() as f64);
            }
        }
        means.median()
    }
}

/// Geometric mean of positive factors (1.0 for an empty slice).
pub fn geomean(factors: &[f64]) -> f64 {
    if factors.is_empty() {
        return 1.0;
    }
    (factors.iter().map(|f| f.ln()).sum::<f64>() / factors.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over `(name, value)` items: a stable hash of the virtual-clock
/// outputs of a run. Two runs of the same seed must produce the same
/// digest; a change that only speeds up the simulator must leave it alone.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    hash: u64,
    items: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            items: 0,
        }
    }
}

impl Digest {
    pub fn add(&mut self, name: &str, value: u64) {
        for b in name.bytes().chain([0u8]).chain(value.to_le_bytes()) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.items += 1;
    }

    pub fn hash(&self) -> u64 {
        self.hash
    }

    pub fn items(&self) -> usize {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(v: &[f64]) -> Samples {
        let mut s = Samples::new();
        for x in v {
            s.push(*x);
        }
        s
    }

    #[test]
    fn quantiles_are_observed_samples() {
        let s = of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(0.99), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(of(&[1.0, 2.0, 3.0, 10.0]).median(), 2.5);
        assert_eq!(Samples::new().quantile(0.5), 0.0);
    }

    #[test]
    fn median_of_means_smooths_a_bimodal_mix() {
        let s = of(&[1.0, 3.0, 1.0, 3.0, 1.0, 1.0, 9.0, 9.0, 5.0]);
        // Batch means 2, 1, 9; the short batch [5] is dropped.
        assert_eq!(s.median_of_means(2), 2.0);
        assert_eq!(of(&[4.0]).median_of_means(5), 4.0);
        assert_eq!(Samples::new().median_of_means(5), 0.0);
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let mut a = Digest::default();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Digest::default();
        b.add("y", 2);
        b.add("x", 1);
        let mut c = Digest::default();
        c.add("x", 1);
        c.add("y", 3);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
        assert_eq!(a.items(), 2);
    }

    #[test]
    fn geomean_of_equal_factors_is_the_factor() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
