//! Order statistics used for every reported number.
//!
//! [`quartiles`] follows Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so the quartiles stamped on every
//! document are the ones the PR driver would compute from the samples.

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending, non-empty slice: the
/// smallest sample with at least `pct` percent of the samples at or
/// below it. With fewer than 100 samples the 99th percentile is the
/// maximum.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending, non-empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` of an ascending slice of at least two samples, as
/// `statistics.quantiles(values, n=4)` returns them.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Sample count, median and quartiles of one metric's samples, as
/// stamped into every output document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `values`; a single sample is its own quartiles.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        match s.len() {
            0 => panic!("summary of no samples"),
            1 => Summary {
                n: 1,
                min: s[0],
                q1: s[0],
                median: s[0],
                q3: s[0],
                max: s[0],
            },
            n => {
                let (q1, _, q3) = quartiles(&s);
                Summary {
                    n,
                    min: s[0],
                    q1,
                    median: median(&s),
                    q3,
                    max: s[n - 1],
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // 1 000 samples leave ten beyond p99.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 99.0), 990.0);
    }

    #[test]
    fn p99_of_few_samples_is_the_maximum() {
        let s = sorted(&[3.0, 9.0, 1.0, 7.0]);
        assert_eq!(percentile(&s, 99.0), 9.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4)
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 9.0]), (3.0, 4.0, 7.0));
        // statistics.quantiles([1, 5], n=4)
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 3.0, 6.0));
    }

    #[test]
    fn summary_of_one_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
        let t = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((t.n, t.min, t.median, t.max), (3, 1.0, 3.0, 5.0));
    }
}
