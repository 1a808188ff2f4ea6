//! Exact-in-`f64` combinatorics used by the analytic models.
//!
//! All counting functions return `f64`. The quantities involved in the
//! paper's models (n, m ≤ 32 or so) stay far below 2^53 *relative
//! precision loss* because every recurrence used here has non-negative
//! terms — no cancellation occurs.
//!
//! # Example
//!
//! ```
//! use busnet_markov::combinatorics::{binomial, surjections};
//!
//! assert_eq!(binomial(8, 3), 56.0);
//! // 2 processors onto 2 specific modules, both hit: 2 ways.
//! assert_eq!(surjections(2, 2), 2.0);
//! ```

/// `n!` as an `f64`.
///
/// Exact for `n ≤ 22`; above that the result is the correctly rounded
/// `f64` product (monotone accumulation, no cancellation).
///
/// # Example
///
/// ```
/// assert_eq!(busnet_markov::combinatorics::factorial(5), 120.0);
/// ```
pub fn factorial(n: u32) -> f64 {
    let mut acc = 1.0;
    for k in 2..=n {
        acc *= f64::from(k);
    }
    acc
}

/// Binomial coefficient `C(n, k)` as an `f64`; 0 when `k > n`.
///
/// # Example
///
/// ```
/// assert_eq!(busnet_markov::combinatorics::binomial(10, 2), 45.0);
/// assert_eq!(busnet_markov::combinatorics::binomial(3, 5), 0.0);
/// ```
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0;
    for i in 0..k {
        acc = acc * f64::from(n - i) / f64::from(i + 1);
    }
    acc.round()
}

/// Multinomial coefficient `(Σ parts)! / Π parts!`.
///
/// # Example
///
/// ```
/// // 4!/2!1!1! = 12
/// assert_eq!(busnet_markov::combinatorics::multinomial(&[2, 1, 1]), 12.0);
/// ```
pub fn multinomial(parts: &[u32]) -> f64 {
    let mut acc = 1.0;
    let mut total: u32 = 0;
    for &p in parts {
        for i in 1..=p {
            total += 1;
            acc = acc * f64::from(total) / f64::from(i);
        }
    }
    acc.round()
}

/// Number of surjections from `n` labelled balls onto `k` labelled cells
/// (`k! · S(n, k)` where `S` is the Stirling number of the second kind).
///
/// Computed with the cancellation-free recurrence
/// `surj(n, k) = k · (surj(n−1, k−1) + surj(n−1, k))`.
///
/// # Example
///
/// ```
/// use busnet_markov::combinatorics::surjections;
/// assert_eq!(surjections(3, 2), 6.0);
/// assert_eq!(surjections(2, 3), 0.0); // cannot cover 3 cells with 2 balls
/// assert_eq!(surjections(0, 0), 1.0); // the empty map
/// ```
pub fn surjections(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    if k == 0 {
        return if n == 0 { 1.0 } else { 0.0 };
    }
    // Rolling table over n, indexed by cell count.
    let kk = k as usize;
    let mut row = vec![0.0f64; kk + 1];
    row[0] = 1.0; // surj(0, 0)
    for _step in 1..=n {
        // Compute the next row in place from high to low so that
        // row[j-1] and row[j] still hold the previous step's values.
        let hi = kk.min(_step as usize);
        for j in (1..=hi).rev() {
            row[j] = j as f64 * (row[j - 1] + row[j]);
        }
        row[0] = 0.0; // surj(n ≥ 1, 0) = 0
    }
    row[kk]
}

/// Probability that `n` independent uniform choices over `m` cells hit
/// exactly `x` distinct cells: `C(m, x) · surj(n, x) / m^n`.
///
/// This is the request-distinctness distribution used throughout the
/// paper's combinational models; see [`distinct_cells_distribution`]
/// for how it is computed.
///
/// # Example
///
/// ```
/// use busnet_markov::combinatorics::distinct_cells_pmf;
/// // two balls, two cells: same cell 1/2, different cells 1/2
/// assert!((distinct_cells_pmf(2, 2, 1) - 0.5).abs() < 1e-12);
/// assert!((distinct_cells_pmf(2, 2, 2) - 0.5).abs() < 1e-12);
/// ```
pub fn distinct_cells_pmf(n: u32, m: u32, x: u32) -> f64 {
    if x > n.min(m) {
        return 0.0;
    }
    distinct_cells_distribution(n, m)[x as usize]
}

/// The whole [`distinct_cells_pmf`] distribution over `x = 0..=min(n, m)`.
///
/// Computed in probability space, one ball at a time:
/// `P(k+1, x) = P(k, x)·x/m + P(k, x−1)·(m−x+1)/m`. Every term is a
/// probability, so nothing overflows: the closed form's `m^n` is
/// already infinite at `n = 128, m = 256`.
///
/// # Example
///
/// ```
/// use busnet_markov::combinatorics::distinct_cells_distribution;
/// let p = distinct_cells_distribution(128, 256);
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
pub fn distinct_cells_distribution(n: u32, m: u32) -> Vec<f64> {
    let top = n.min(m) as usize;
    let cells = f64::from(m);
    let mut row = vec![0.0f64; top + 1];
    row[0] = 1.0;
    for ball in 1..=n as usize {
        // In place from high to low, as in `surjections`.
        for x in (1..=top.min(ball)).rev() {
            row[x] = row[x] * (x as f64 / cells) + row[x - 1] * ((cells - (x - 1) as f64) / cells);
        }
        row[0] = 0.0;
    }
    row
}

/// All partitions of `n` into at most `max_parts` parts, each part at most
/// `max_part`, listed in non-increasing order, zero parts omitted.
///
/// The empty partition is included when `n == 0`.
///
/// # Example
///
/// ```
/// use busnet_markov::combinatorics::partitions;
/// let p = partitions(4, 2, 4);
/// assert_eq!(p, vec![vec![4], vec![3, 1], vec![2, 2]]);
/// ```
pub fn partitions(n: u32, max_parts: u32, max_part: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    fn rec(rem: u32, slots: u32, cap: u32, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if rem == 0 {
            out.push(cur.clone());
            return;
        }
        if slots == 0 {
            return;
        }
        let hi = cap.min(rem);
        // Largest first keeps the non-increasing invariant.
        for part in (1..=hi).rev() {
            // Feasibility: remaining slots must be able to absorb rem - part.
            if (slots - 1) * part >= rem - part {
                cur.push(part);
                rec(rem - part, slots - 1, part, cur, out);
                cur.pop();
            }
        }
    }
    rec(n, max_parts, max_part, &mut cur, &mut out);
    out
}

/// Number of partitions of `n` into at most `max_parts` parts (the
/// state count of an occupancy chain with `n` customers on `max_parts`
/// servers), or `None` as soon as it exceeds `ceiling`. The dynamic
/// program adds one part size at a time and stops at the first size
/// that pushes the count past the ceiling, so a huge system costs no
/// more than a small one.
///
/// # Example
///
/// ```
/// use busnet_markov::combinatorics::partition_count;
/// assert_eq!(partition_count(8, 8, u64::MAX), Some(22)); // OEIS A000041
/// assert_eq!(partition_count(8, 2, u64::MAX), Some(5));
/// assert_eq!(partition_count(8, 8, 21), None);
/// ```
pub fn partition_count(n: u32, max_parts: u32, ceiling: u64) -> Option<u64> {
    let count = match max_parts.min(n) {
        // No part (n = 0), or parts of size 1 only.
        0 | 1 => u64::from(n == 0 || max_parts > 0),
        // Parts of sizes 1 and 2 alone make n/2 + 1 partitions; below
        // that the table has at most 2·ceiling + 2 entries.
        _ if u64::from(n / 2) >= ceiling => return None,
        parts => {
            // Partitions into at most k parts ≡ partitions with parts ≤ k.
            let n = n as usize;
            let cap = ceiling.saturating_add(1);
            let mut ways = vec![0u64; n + 1];
            ways[0] = 1;
            for part in 1..=parts as usize {
                for total in part..=n {
                    ways[total] = ways[total].saturating_add(ways[total - part]).min(cap);
                }
                if ways[n] > ceiling {
                    return None;
                }
            }
            ways[n]
        }
    };
    (count <= ceiling).then_some(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorial_small_values() {
        assert_eq!(factorial(0), 1.0);
        assert_eq!(factorial(1), 1.0);
        assert_eq!(factorial(6), 720.0);
        assert_eq!(factorial(12), 479_001_600.0);
    }

    #[test]
    fn binomial_symmetry_and_edges() {
        assert_eq!(binomial(0, 0), 1.0);
        assert_eq!(binomial(7, 0), 1.0);
        assert_eq!(binomial(7, 7), 1.0);
        assert_eq!(binomial(30, 15), binomial(30, 15));
        for n in 0..20u32 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k), "C({n},{k})");
            }
        }
    }

    #[test]
    fn binomial_pascal_rule() {
        for n in 1..25u32 {
            for k in 1..n {
                let lhs = binomial(n, k);
                let rhs = binomial(n - 1, k - 1) + binomial(n - 1, k);
                assert_eq!(lhs, rhs, "Pascal at ({n},{k})");
            }
        }
    }

    #[test]
    fn multinomial_matches_factorials() {
        let parts = [3u32, 2, 1];
        let expected = factorial(6) / (factorial(3) * factorial(2) * factorial(1));
        assert_eq!(multinomial(&parts), expected);
        assert_eq!(multinomial(&[]), 1.0);
        assert_eq!(multinomial(&[0, 0]), 1.0);
    }

    #[test]
    fn surjections_known_values() {
        // n=4 onto k=2 cells: 2^4 - 2 = 14.
        assert_eq!(surjections(4, 2), 14.0);
        // n=4 onto 3: 36; n=4 onto 4: 24.
        assert_eq!(surjections(4, 3), 36.0);
        assert_eq!(surjections(4, 4), 24.0);
        assert_eq!(surjections(5, 1), 1.0);
    }

    #[test]
    fn surjections_sum_identity() {
        // sum_k C(m,k) surj(n,k) = m^n
        for n in 0..=10u32 {
            for m in 1..=8u32 {
                let total: f64 = (0..=m).map(|k| binomial(m, k) * surjections(n, k)).sum();
                let expect = f64::from(m).powi(n as i32);
                assert!(
                    (total - expect).abs() / expect < 1e-12,
                    "identity fails at n={n}, m={m}: {total} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn distinct_cells_pmf_normalizes() {
        for n in 1..=9u32 {
            for m in 1..=9u32 {
                let total: f64 = (0..=n.min(m)).map(|x| distinct_cells_pmf(n, m, x)).sum();
                assert!((total - 1.0).abs() < 1e-12, "pmf not normalized n={n} m={m}");
            }
        }
        for (n, m) in [(128, 256), (160, 256), (1024, 4096), (4096, 4096), (4096, 8)] {
            let total: f64 = distinct_cells_distribution(n, m).iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "pmf not normalized n={n} m={m}: {total}");
        }
    }

    #[test]
    fn distinct_cells_pmf_matches_the_closed_form() {
        for n in 0..=32u32 {
            for m in 1..=32u32 {
                let pmf = distinct_cells_distribution(n, m);
                for x in 0..=n.min(m) {
                    let closed = binomial(m, x) * surjections(n, x) / f64::from(m).powi(n as i32);
                    let got = pmf[x as usize];
                    assert!(
                        (got - closed).abs() <= 1e-12 * closed,
                        "n={n} m={m} x={x}: {got} vs closed form {closed}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_counts_match_a000041() {
        let expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231];
        for (n, &e) in expected.iter().enumerate() {
            assert_eq!(partition_count(n as u32, n as u32, u64::MAX), Some(e), "p({n})");
            assert_eq!(partitions(n as u32, n as u32, n as u32).len() as u64, e, "p({n})");
            assert_eq!(partition_count(n as u32, n as u32, e), Some(e), "p({n}) at its ceiling");
            assert_eq!(partition_count(n as u32, n as u32, e - 1), None, "p({n}) over");
        }
        // Huge systems stop at the ceiling instead of counting on.
        assert_eq!(partition_count(4096, 4096, 1_000), None);
        assert_eq!(partition_count(u32::MAX, 2, 1_000), None);
        assert_eq!(partition_count(u32::MAX, 1, 1_000), Some(1));
        assert_eq!(partition_count(64, 8, 116_263), Some(116_263));
    }

    #[test]
    fn distinct_cells_mean_is_streckers_formula() {
        // The mean number of distinct modules hit by n fresh uniform
        // requests is Strecker's m·(1 − (1 − 1/m)^n) (reference 17).
        for n in [1u32, 2, 5, 8, 16] {
            for m in [1u32, 3, 8, 16] {
                let mean: f64 = distinct_cells_distribution(n, m)
                    .iter()
                    .enumerate()
                    .map(|(x, p)| x as f64 * p)
                    .sum();
                let m_f = f64::from(m);
                let strecker = m_f * (1.0 - (1.0 - 1.0 / m_f).powi(n as i32));
                assert!((mean - strecker).abs() < 1e-10, "n={n} m={m}: {mean} vs {strecker}");
            }
        }
    }

    #[test]
    fn partitions_respect_bounds() {
        for part in partitions(10, 3, 5) {
            assert!(part.len() <= 3);
            assert!(part.iter().all(|&p| (1..=5).contains(&p)));
            assert_eq!(part.iter().sum::<u32>(), 10);
            assert!(part.windows(2).all(|w| w[0] >= w[1]), "non-increasing");
        }
    }

    #[test]
    fn partitions_zero_is_empty_partition() {
        assert_eq!(partitions(0, 4, 4), vec![Vec::<u32>::new()]);
    }
}
