//! Stationary-distribution solvers and graph analysis.
//!
//! Two solvers are provided:
//!
//! * [`stationary_dense`] — Gaussian elimination on `π(P − I) = 0` with a
//!   normalization row. Exact up to floating point; handles **periodic**
//!   chains (the bus models here are strongly periodic for small
//!   populations) and transient states, as long as a single recurrent
//!   class exists.
//! * [`stationary_power`] — Cesàro-averaged power iteration; cheaper for
//!   very large sparse chains, used as a cross-check.
//!
//! [`terminal_sccs`] (Tarjan) identifies recurrent classes so callers can
//! detect ill-posed chains before solving.

use crate::chain::TransitionMatrix;
use crate::error::MarkovError;

/// Computes the unique stationary distribution of `matrix` by dense
/// Gaussian elimination.
///
/// Works for periodic chains and chains with transient states, provided
/// there is exactly one recurrent class (verified internally via
/// [`terminal_sccs`]).
///
/// # Errors
///
/// * [`MarkovError::MultipleRecurrentClasses`] when the stationary
///   distribution is not unique.
/// * [`MarkovError::SingularSystem`] if elimination breaks down
///   numerically.
///
/// # Example
///
/// ```
/// use busnet_markov::chain::TransitionMatrix;
/// use busnet_markov::solve::stationary_dense;
///
/// // Periodic two-cycle: uniform stationary distribution.
/// let m = TransitionMatrix::from_rows(vec![vec![(1, 1.0)], vec![(0, 1.0)]])?;
/// let pi = stationary_dense(&m)?;
/// assert!((pi[0] - 0.5).abs() < 1e-12);
/// # Ok::<(), busnet_markov::MarkovError>(())
/// ```
pub fn stationary_dense(matrix: &TransitionMatrix) -> Result<Vec<f64>, MarkovError> {
    let n = matrix.len();
    if n == 0 {
        return Err(MarkovError::EmptySpace);
    }
    let recurrent = terminal_sccs(matrix);
    if recurrent.len() != 1 {
        return Err(MarkovError::MultipleRecurrentClasses(recurrent.len()));
    }

    // Build A = Pᵀ − I, then replace the last row with the normalization
    // Σ π_i = 1. Solve A x = b with b = (0, …, 0, 1).
    let mut a = vec![0.0f64; n * n];
    for (i, row) in matrix.iter_rows().enumerate() {
        for &(j, p) in row {
            a[j * n + i] += p;
        }
    }
    for i in 0..n {
        a[i * n + i] -= 1.0;
    }
    for j in 0..n {
        a[(n - 1) * n + j] = 1.0;
    }
    let mut b = vec![0.0f64; n];
    b[n - 1] = 1.0;

    gaussian_solve(&mut a, &mut b, n)?;

    // Clamp tiny negatives from rounding on transient states.
    for x in &mut b {
        if *x < 0.0 {
            if *x < -1e-8 {
                return Err(MarkovError::SingularSystem);
            }
            *x = 0.0;
        }
    }
    let total: f64 = b.iter().sum();
    if !(total.is_finite()) || total <= 0.0 {
        return Err(MarkovError::SingularSystem);
    }
    for x in &mut b {
        *x /= total;
    }
    Ok(b)
}

/// In-place Gaussian elimination with partial pivoting on a dense
/// row-major `n × n` system.
fn gaussian_solve(a: &mut [f64], b: &mut [f64], n: usize) -> Result<(), MarkovError> {
    for col in 0..n {
        // Pivot selection.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in col + 1..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-13 {
            return Err(MarkovError::SingularSystem);
        }
        if pivot != col {
            for j in 0..n {
                a.swap(pivot * n + j, col * n + j);
            }
            b.swap(pivot, col);
        }
        let diag = a[col * n + col];
        for row in col + 1..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            a[row * n + col] = 0.0;
            for j in col + 1..n {
                a[row * n + j] -= factor * a[col * n + j];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = b[col];
        for j in col + 1..n {
            acc -= a[col * n + j] * b[j];
        }
        b[col] = acc / a[col * n + col];
    }
    Ok(())
}

/// Cesàro-averaged power iteration.
///
/// Averages iterates over a window so that periodic chains converge to
/// the stationary distribution of the embedded average.
///
/// # Errors
///
/// [`MarkovError::NoConvergence`] if the residual `‖x̄P − x̄‖₁` stays above
/// `tol` after `max_iters` sweeps; [`MarkovError::EmptySpace`] for an
/// empty matrix.
pub fn stationary_power(
    matrix: &TransitionMatrix,
    max_iters: usize,
    tol: f64,
) -> Result<Vec<f64>, MarkovError> {
    let n = matrix.len();
    if n == 0 {
        return Err(MarkovError::EmptySpace);
    }
    let mut x = vec![1.0 / n as f64; n];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    while iterations < max_iters {
        // One averaging window: advance and accumulate.
        let window = 32.min(max_iters - iterations).max(1);
        let mut acc = vec![0.0f64; n];
        for _ in 0..window {
            x = matrix.left_mul(&x);
            for (a, &v) in acc.iter_mut().zip(&x) {
                *a += v;
            }
            iterations += 1;
        }
        for a in &mut acc {
            *a /= window as f64;
        }
        let next = matrix.left_mul(&acc);
        residual = acc.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        let mut avg = acc;
        if residual < tol {
            let total: f64 = avg.iter().sum();
            for v in &mut avg {
                *v /= total;
            }
            return Ok(avg);
        }
        x = avg;
    }
    Err(MarkovError::NoConvergence { iterations, residual })
}

/// Returns the **terminal** strongly-connected components of the chain's
/// directed graph — the recurrent classes.
///
/// A component is terminal when no edge leaves it. Uses an iterative
/// Tarjan SCC so deep chains cannot overflow the stack.
///
/// # Example
///
/// ```
/// use busnet_markov::chain::TransitionMatrix;
/// use busnet_markov::solve::terminal_sccs;
///
/// // 0 is transient, {1, 2} is the recurrent cycle.
/// let m = TransitionMatrix::from_rows(vec![
///     vec![(1, 1.0)],
///     vec![(2, 1.0)],
///     vec![(1, 1.0)],
/// ])?;
/// let t = terminal_sccs(&m);
/// assert_eq!(t.len(), 1);
/// assert_eq!(t[0], vec![1, 2]);
/// # Ok::<(), busnet_markov::MarkovError>(())
/// ```
pub fn terminal_sccs(matrix: &TransitionMatrix) -> Vec<Vec<usize>> {
    let n = matrix.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp_of = vec![usize::MAX; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    // Iterative Tarjan with an explicit work stack of (node, edge cursor).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            if *cursor == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let row = matrix.row(v);
            if *cursor < row.len() {
                let w = row[*cursor].0;
                *cursor += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&mut (parent, _)) = work.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp_of[w] = comps.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }

    // A component is terminal iff all outgoing edges stay inside it.
    let mut terminal = vec![true; comps.len()];
    for (v, row) in matrix.iter_rows().enumerate() {
        for &(w, _) in row {
            if comp_of[v] != comp_of[w] {
                terminal[comp_of[v]] = false;
            }
        }
    }
    comps.into_iter().enumerate().filter_map(|(i, c)| terminal[i].then_some(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;

    fn two_state(a: f64, b: f64) -> TransitionMatrix {
        TransitionMatrix::from_rows(vec![vec![(0, 1.0 - a), (1, a)], vec![(0, b), (1, 1.0 - b)]])
            .unwrap()
    }

    #[test]
    fn dense_two_state_closed_form() {
        let m = two_state(0.1, 0.5);
        let pi = stationary_dense(&m).unwrap();
        // π = (b, a) / (a + b)
        assert!((pi[0] - 0.5 / 0.6).abs() < 1e-12);
        assert!((pi[1] - 0.1 / 0.6).abs() < 1e-12);
    }

    #[test]
    fn dense_handles_periodic_cycle() {
        let m = TransitionMatrix::from_rows(vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![(0, 1.0)]])
            .unwrap();
        let pi = stationary_dense(&m).unwrap();
        for p in pi {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_puts_zero_mass_on_transient_states() {
        // 0 -> 1 <-> 2 ; 0 is transient.
        let m = TransitionMatrix::from_rows(vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![(1, 1.0)]])
            .unwrap();
        let pi = stationary_dense(&m).unwrap();
        assert!(pi[0].abs() < 1e-12);
        assert!((pi[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dense_rejects_two_recurrent_classes() {
        let m = TransitionMatrix::from_rows(vec![vec![(0, 1.0)], vec![(1, 1.0)]]).unwrap();
        assert_eq!(stationary_dense(&m).unwrap_err(), MarkovError::MultipleRecurrentClasses(2));
    }

    #[test]
    fn power_matches_dense_on_aperiodic_chain() {
        let (_, m) = ChainBuilder::explore([0u8], |&s| {
            let nxt = (s + 1) % 5;
            vec![(s, 0.3), (nxt, 0.5), ((s + 3) % 5, 0.2)]
        })
        .unwrap();
        let d = stationary_dense(&m).unwrap();
        let p = stationary_power(&m, 100_000, 1e-12).unwrap();
        for (x, y) in d.iter().zip(&p) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn power_converges_on_periodic_chain_via_cesaro() {
        let m = TransitionMatrix::from_rows(vec![vec![(1, 1.0)], vec![(0, 1.0)]]).unwrap();
        let p = stationary_power(&m, 100_000, 1e-10).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn terminal_scc_of_strongly_connected_chain_is_whole() {
        let m = two_state(0.2, 0.7);
        let t = terminal_sccs(&m);
        assert_eq!(t, vec![vec![0, 1]]);
    }

    #[test]
    fn big_random_chain_dense_vs_power() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let n = 40;
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|_| {
                let mut w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
                let s: f64 = w.iter().sum();
                for x in &mut w {
                    *x /= s;
                }
                w.into_iter().enumerate().collect()
            })
            .collect();
        let m = TransitionMatrix::from_rows(rows).unwrap();
        let d = stationary_dense(&m).unwrap();
        let p = stationary_power(&m, 200_000, 1e-12).unwrap();
        for (x, y) in d.iter().zip(&p) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
