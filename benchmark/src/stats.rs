//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// A tail percentile: the value at `pct` and how many samples it saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Whole-number percentile.
    pub pct: u32,
    /// Nearest-rank value at `pct`.
    pub value: f64,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole-number percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, and its nearest-rank value. With `n` samples
/// that is `floor(100·(n − 10)/n)`: the nearest rank
/// `ceil(pct·n/100)` is then at most `n − 10`. `None` when fewer than
/// eleven samples exist (no percentile has ten samples beyond it).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let pct = (100 * (n - TAIL_BEYOND) / n) as u32;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some(Tail { pct, value: v[rank - 1] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 11..3000 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&xs).expect("enough samples");
            // Values are their own ranks: rank r holds r − 1.
            let beyond = n - (t.value as usize + 1);
            assert!(beyond >= TAIL_BEYOND, "n={n}: p{} leaves {beyond}", t.pct);
            // And no higher whole percentile would.
            let next = t.pct as usize + 1;
            if next < 100 {
                let rank = (next * n).div_ceil(100);
                assert!(n - rank < TAIL_BEYOND, "n={n}: p{next} also leaves ten");
            }
        }
    }

    #[test]
    fn tail_matches_the_workload_sample_counts() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(45)), Some(Tail { pct: 77, value: 35.0 }));
        assert_eq!(tail(&ramp(120)), Some(Tail { pct: 91, value: 110.0 }));
        assert_eq!(tail(&ramp(1800)), Some(Tail { pct: 99, value: 1782.0 }));
        assert_eq!(tail(&ramp(10)), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 0.0];
        let t = tail(&xs).expect("twelve samples");
        assert_eq!(t.pct, 16);
        assert_eq!(t.value, 1.0);
    }
}
