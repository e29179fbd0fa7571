//! Dataset splitting utilities: train/test split and k-fold cross
//! validation, both seeded and deterministic.

use scriptflow_simcluster::SplitMix64;

/// Shuffle `0..n` deterministically and split into
/// `(train indices, test indices)` with `test_fraction` held out.
///
/// # Panics
/// Panics unless `0 < test_fraction < 1` and both sides end non-empty.
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "test fraction must be in (0, 1)"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    rng.shuffle(&mut idx);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    assert!(
        n_test > 0 && n_test < n,
        "split leaves an empty side (n={n}, fraction={test_fraction})"
    );
    let test = idx.split_off(n - n_test);
    (idx, test)
}

/// K-fold cross-validation splits: yields `k` pairs of
/// `(train indices, validation indices)` covering `0..n`.
///
/// Folds differ in size by at most one element; every index appears in
/// exactly one validation fold.
pub fn kfold(n: usize, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "k-fold needs k >= 2");
    assert!(n >= k, "need at least one element per fold");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    rng.shuffle(&mut idx);

    let base = n / k;
    let extra = n % k;
    let mut folds: Vec<Vec<usize>> = Vec::with_capacity(k);
    let mut cursor = 0usize;
    for f in 0..k {
        let size = base + usize::from(f < extra);
        folds.push(idx[cursor..cursor + size].to_vec());
        cursor += size;
    }

    (0..k)
        .map(|f| {
            let val = folds[f].clone();
            let train: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|(g, _)| *g != f)
                .flat_map(|(_, fold)| fold.iter().copied())
                .collect();
            (train, val)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn split_partitions_everything() {
        let (train, test) = train_test_split(100, 0.2, 7);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        let all: HashSet<usize> = train.iter().chain(&test).copied().collect();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        assert_eq!(train_test_split(50, 0.3, 1), train_test_split(50, 0.3, 1));
        assert_ne!(
            train_test_split(50, 0.3, 1).1,
            train_test_split(50, 0.3, 2).1
        );
    }

    #[test]
    #[should_panic(expected = "test fraction must be in (0, 1)")]
    fn split_rejects_bad_fraction() {
        train_test_split(10, 1.0, 0);
    }

    #[test]
    fn kfold_covers_each_index_once_as_validation() {
        let folds = kfold(23, 5, 3);
        assert_eq!(folds.len(), 5);
        let mut seen = HashSet::new();
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 23);
            for i in val {
                assert!(seen.insert(*i), "index {i} validated twice");
            }
            // No overlap between train and val.
            let t: HashSet<usize> = train.iter().copied().collect();
            assert!(val.iter().all(|i| !t.contains(i)));
        }
        assert_eq!(seen.len(), 23);
    }

    #[test]
    fn kfold_sizes_balanced() {
        let folds = kfold(10, 3, 0);
        let sizes: Vec<usize> = folds.iter().map(|(_, v)| v.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|s| *s == 3 || *s == 4));
    }

    #[test]
    #[should_panic(expected = "k-fold needs k >= 2")]
    fn kfold_rejects_k1() {
        kfold(10, 1, 0);
    }
}
