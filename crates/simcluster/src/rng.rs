//! The workspace's one pseudo-random generator.
//!
//! Everything seeded in this repository — the synthetic datasets, the
//! `mlkit` shuffles and initial embeddings, the chaos harness's fault
//! plans and random chains, the property tests' case streams — draws
//! from this splitmix64 (Steele et al.): tiny, seedable, and free of
//! external dependencies, which is what reproducible experiments need
//! more than statistical quality. Its output is pinned by a golden
//! vector below, so a change to any constant or reduction here shows up
//! as a test failure rather than as silently different datasets.

use std::ops::Range;

/// The splitmix64 generator.
///
/// # Examples
///
/// ```
/// use scriptflow_simcluster::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.range(0..10usize) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose state starts at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The generator behind every generated dataset and model
    /// initialisation: the seed is whitened with `0x5DEECE66D` before
    /// first use. Every number this repository has recorded was measured
    /// on data from this stream, so it must not move.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed ^ 0x5_DEEC_E66D)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in the half-open `range` (integers by `% span`,
    /// floats by the top 53 bits over 2^53).
    ///
    /// # Panics
    ///
    /// Panics if an integer `range` is empty.
    pub fn range<T: Uniform>(&mut self, range: Range<T>) -> T {
        T::pick(range, self.next_u64())
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.range(0.0..1.0) < p
    }

    /// Fisher–Yates shuffle of `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.range(0..i + 1));
        }
    }
}

/// Types [`SplitMix64::range`] can sample.
pub trait Uniform: Sized {
    /// Map 64 random `bits` into `range`.
    fn pick(range: Range<Self>, bits: u64) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn pick(range: Range<Self>, bits: u64) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                (range.start as i128 + (u128::from(bits) % span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(usize, u64, i64);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn pick(range: Range<Self>, bits: u64) -> Self {
                let unit = (bits >> 11) as $t / (1u64 << 53) as $t;
                range.start + unit * (range.end - range.start)
            }
        }
    )*};
}
uniform_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from the build every recorded experiment ran on; the
    /// draws continue one stream, so their order matters.
    #[test]
    fn golden_vector() {
        let mut rng = SplitMix64::seed_from_u64(42);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x7635_aeaf_7566_5bd0,
                0x54cd_2ca1_bdb5_d77b,
                0x3745_8fee_ad32_7c60,
                0x3de1_c1b8_5c2f_036f,
                0xc310_fcc7_ca1c_8107,
                0xc035_67dd_292f_d903,
                0xb039_9da3_2dae_309d,
                0x9892_47c5_ec35_1135,
            ]
        );
        assert_eq!(rng.range(0..100usize), 8);
        assert_eq!(rng.range(-1.0f32..1.0), 0.479_964_38);
        assert_eq!(rng.range(-1.0f64..1.0), -0.476_640_916_394_136_1);
        assert_eq!(rng.range(-5i64..5), -4);
        assert!(!rng.bool(0.5));
        let mut xs: Vec<u32> = (0..8).collect();
        rng.shuffle(&mut xs);
        assert_eq!(xs, [5, 0, 4, 6, 3, 1, 2, 7]);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
