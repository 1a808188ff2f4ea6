//! Property-based tests for the Markov substrate.

use busnet_markov::chain::TransitionMatrix;
use busnet_markov::combinatorics::{
    binomial, distinct_cells_pmf, multinomial, partition_count, partitions, surjections,
};
use busnet_markov::solve::{stationary_dense, stationary_power, terminal_sccs};
use proptest::prelude::*;

proptest! {
    /// Surjection identity: Σ_k C(m,k)·surj(n,k) = m^n.
    #[test]
    fn surjection_partition_of_functions(n in 0u32..12, m in 1u32..10) {
        let total: f64 = (0..=m).map(|k| binomial(m, k) * surjections(n, k)).sum();
        let expect = f64::from(m).powi(n as i32);
        prop_assert!((total - expect).abs() <= 1e-9 * expect.max(1.0));
    }

    /// The distinct-cell pmf is a probability distribution.
    #[test]
    fn distinct_cells_pmf_is_distribution(n in 1u32..12, m in 1u32..12) {
        let total: f64 = (0..=n.min(m)).map(|x| distinct_cells_pmf(n, m, x)).sum();
        prop_assert!((total - 1.0).abs() < 1e-10);
        for x in 0..=n.min(m) {
            prop_assert!(distinct_cells_pmf(n, m, x) >= 0.0);
        }
    }

    /// Multinomial coefficients are invariant under permutation and
    /// consistent with binomials for two parts.
    #[test]
    fn multinomial_two_parts_is_binomial(a in 0u32..12, b in 0u32..12) {
        prop_assert_eq!(multinomial(&[a, b]), binomial(a + b, a));
        prop_assert_eq!(multinomial(&[b, a]), multinomial(&[a, b]));
    }

    /// Partition enumeration: every partition valid, none missing
    /// (cross-check by counting against a DP recurrence).
    #[test]
    fn partitions_complete_and_valid(n in 0u32..14, max_parts in 1u32..8, max_part in 1u32..10) {
        let parts = partitions(n, max_parts, max_part);
        // Validity.
        for p in &parts {
            prop_assert!(p.len() as u32 <= max_parts);
            prop_assert!(p.iter().all(|&x| 1 <= x && x <= max_part));
            prop_assert_eq!(p.iter().sum::<u32>(), n);
            prop_assert!(p.windows(2).all(|w| w[0] >= w[1]));
        }
        // No duplicates.
        let mut sorted = parts.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), parts.len());
        // Completeness: DP count of partitions of n into <= k parts each <= c.
        let count = count_partitions_dp(n, max_parts, max_part);
        prop_assert_eq!(parts.len() as u64, count);
        // The bounded count agrees where the part size is unbounded.
        let unbounded = count_partitions_dp(n, max_parts, n);
        prop_assert_eq!(partition_count(n, max_parts, u64::MAX), Some(unbounded));
        prop_assert_eq!(partition_count(n, max_parts, unbounded - 1), None);
    }

    /// Random irreducible-ish dense chains: dense solve satisfies πP = π
    /// and matches power iteration.
    #[test]
    fn stationary_fixed_point(seed in 0u64..500, n in 2usize..12) {
        let rows = random_dense_rows(seed, n);
        let m = TransitionMatrix::from_rows(rows).unwrap();
        let pi = stationary_dense(&m).unwrap();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let next = m.left_mul(&pi);
        let residual: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        prop_assert!(residual < 1e-9, "residual {residual}");
        let pw = stationary_power(&m, 400_000, 1e-12).unwrap();
        for (a, b) in pi.iter().zip(&pw) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    /// Every state belongs to at most one terminal SCC and terminal SCCs
    /// absorb probability mass.
    #[test]
    fn terminal_sccs_are_disjoint(seed in 0u64..200, n in 2usize..10) {
        let rows = random_sparse_rows(seed, n);
        let m = TransitionMatrix::from_rows(rows).unwrap();
        let sccs = terminal_sccs(&m);
        prop_assert!(!sccs.is_empty());
        let mut seen = std::collections::HashSet::new();
        for c in &sccs {
            for &v in c {
                prop_assert!(seen.insert(v), "state {v} in two terminal SCCs");
            }
        }
    }
}

/// Count partitions of `n` into at most `k` parts, each at most `c`,
/// by direct recursion over the largest part (independent oracle for the
/// enumerator under test).
fn count_partitions_dp(n: u32, k: u32, c: u32) -> u64 {
    fn rec(n: u32, k: u32, c: u32) -> u64 {
        if n == 0 {
            return 1;
        }
        if k == 0 || c == 0 {
            return 0;
        }
        let mut acc = 0;
        for first in 1..=c.min(n) {
            acc += rec(n - first, k - 1, first);
        }
        acc
    }
    rec(n, k, c)
}

fn random_dense_rows(seed: u64, n: usize) -> Vec<Vec<(usize, f64)>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
            let s: f64 = w.iter().sum();
            for x in &mut w {
                *x /= s;
            }
            w.into_iter().enumerate().collect()
        })
        .collect()
}

fn random_sparse_rows(seed: u64, n: usize) -> Vec<Vec<(usize, f64)>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    (0..n)
        .map(|_| {
            let k = rng.gen_range(1..=n.min(3));
            let mut row = Vec::with_capacity(k);
            let mut rem = 1.0;
            for i in 0..k {
                let target = rng.gen_range(0..n);
                let p = if i + 1 == k { rem } else { rng.gen_range(0.0..rem) };
                row.push((target, p));
                rem -= p;
            }
            row
        })
        .collect()
}
