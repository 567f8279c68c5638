//! A fixed-size log-linear latency histogram.
//!
//! Values below 512 ns are kept exactly; above that each power of two is
//! split into 512 buckets, so a bucket is at most 0.2% wide. Quantiles
//! interpolate by rank inside their bucket. Memory is constant (128 KiB),
//! whatever the run length, so `peak_rss_mb` does not grow with
//! throughput.

const SUB_BITS: u32 = 9;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (about 18 minutes); larger ones land in the top
/// bucket.
const GROUPS: usize = 40 - SUB_BITS as usize;
const LEN: usize = (GROUPS + 1) * SUB;

pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; LEN],
            n: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        // `v >> shift` lies in [SUB, 2 * SUB).
        let sub = (v >> shift) as usize - SUB;
        ((shift as usize + 1) * SUB + sub).min(LEN - 1)
    }

    /// Lower bound and width of bucket `i`, in ns.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        let low = ((SUB + i % SUB) as u64) << shift;
        (low as f64, (1u64 << shift) as f64)
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q` quantile in ns (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (low, width) = Self::bounds(i);
                let within = (rank - seen) as f64 - 0.5;
                return low + width * within / c as f64;
            }
            seen += c;
        }
        Self::bounds(LEN - 1).0
    }
}

#[cfg(test)]
mod tests {
    use super::Hist;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        for v in [0u64, 1, 511, 512, 513, 1023, 1024, 12_345, 1 << 30] {
            let (low, width) = Hist::bounds(Hist::index(v));
            assert!(low <= v as f64 && (v as f64) < low + width, "{v}");
            assert!(width <= 1.0_f64.max(low * 0.002 + 1.0), "{v}");
        }
    }

    #[test]
    fn quantiles_track_the_data() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() < 100.0, "{p50}");
        assert!((p99 - 99_000.0).abs() < 200.0, "{p99}");
    }
}
