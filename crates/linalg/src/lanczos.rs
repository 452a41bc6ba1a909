//! Lanczos iteration with full reorthogonalization.
//!
//! This is the PARPACK substitute used by the PSC baseline (sparse t-NN
//! Laplacians) and by DASC on buckets large enough that a full dense
//! eigendecomposition would dominate. It computes the `k` algebraically
//! largest eigenpairs of any symmetric [`MatVec`] operator.
//!
//! Full (two-pass) reorthogonalization keeps the Krylov basis orthogonal
//! at O(m²n) cost — the subspaces here are small (`m ≲ 2k + 20`), so this
//! is cheaper and far more robust than selective reorthogonalization.
//!
//! The inner loops (`vector::{dot, axpy, norm2}` and the operator's
//! `matvec`) dispatch to the process kernel backend (see
//! [`crate::simd`]), so the Lanczos path is vectorized automatically
//! wherever the host supports AVX2+FMA or NEON.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::eigen::tridiagonal_eigen;
use crate::operator::MatVec;
use crate::tridiag::Tridiagonal;
use crate::vector;
use crate::Matrix;

/// Options controlling the Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosOptions {
    /// Number of leading (largest) eigenpairs requested.
    pub k: usize,
    /// Maximum Krylov subspace dimension. `None` picks
    /// `min(n, max(2k + 20, 40))`.
    pub max_subspace: Option<usize>,
    /// Residual tolerance on `‖A v − λ v‖` relative to `|λ_max|`.
    pub tol: f64,
    /// RNG seed for the starting vector (runs are deterministic).
    pub seed: u64,
}

impl LanczosOptions {
    /// Options for the `k` largest eigenpairs with default knobs.
    pub fn top(k: usize) -> Self {
        Self {
            k,
            max_subspace: None,
            tol: 1e-10,
            seed: 0x5ca1ab1e,
        }
    }
}

/// Result of a Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosResult {
    /// Ritz values, descending; length `min(k, n)`.
    pub eigenvalues: Vec<f64>,
    /// Matching Ritz vectors as columns of an `n × k` matrix.
    pub eigenvectors: Matrix,
    /// Krylov subspace dimension actually built.
    pub subspace_dim: usize,
    /// Whether all requested pairs met the residual tolerance.
    pub converged: bool,
}

/// Compute the `k` algebraically largest eigenpairs of a symmetric
/// operator.
///
/// Breakdowns (invariant subspaces, common for the block-diagonal
/// matrices DASC produces) are handled by restarting with a fresh random
/// direction orthogonal to the basis built so far.
///
/// # Panics
/// Panics if `opts.k == 0`.
pub fn lanczos<A: MatVec>(a: &A, opts: &LanczosOptions) -> LanczosResult {
    assert!(opts.k > 0, "lanczos: k must be positive");
    let n = a.dim();
    let k = opts.k.min(n);
    if n == 0 {
        return LanczosResult {
            eigenvalues: Vec::new(),
            eigenvectors: Matrix::zeros(0, 0),
            subspace_dim: 0,
            converged: true,
        };
    }

    let m = opts
        .max_subspace
        .unwrap_or_else(|| (2 * k + 20).max(40))
        .min(n)
        .max(k);

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    // Krylov basis, one row per Lanczos vector (row-major friendly).
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);

    let mut q = random_unit_vector(n, &mut rng);
    let mut w = vec![0.0; n];

    while basis.len() < m {
        basis.push(q.clone());
        let j = basis.len() - 1;
        a.matvec(&basis[j], &mut w);
        if j > 0 {
            vector::axpy(-betas[j - 1], &basis[j - 1], &mut w);
        }
        let alpha = vector::dot(&basis[j], &w);
        alphas.push(alpha);
        vector::axpy(-alpha, &basis[j], &mut w);
        // Full reorthogonalization, twice ("twice is enough", Parlett).
        for _ in 0..2 {
            for b in &basis {
                vector::orthogonalize_against(b, &mut w);
            }
        }
        let beta = vector::norm2(&w);
        let scale = alphas
            .iter()
            .zip(betas.iter().chain(std::iter::once(&0.0)))
            .map(|(a, b)| a.abs() + b.abs())
            .fold(1.0_f64, f64::max);
        if beta <= f64::EPSILON * scale * 16.0 {
            // Invariant subspace: restart with a fresh orthogonal direction
            // if there is still room, otherwise stop.
            if basis.len() == m {
                betas.push(0.0);
                break;
            }
            match fresh_orthogonal_direction(n, &basis, &mut rng) {
                Some(fresh) => {
                    betas.push(0.0);
                    q = fresh;
                }
                None => {
                    betas.push(0.0);
                    break;
                }
            }
        } else {
            betas.push(beta);
            q = w.iter().map(|v| v / beta).collect();
        }
    }

    let dim = basis.len();
    // Assemble the projected tridiagonal matrix T (EISPACK layout: the
    // off-diagonal entry i couples rows i-1 and i).
    let mut off = vec![0.0; dim];
    off[1..dim].copy_from_slice(&betas[..dim - 1]);
    let tri = Tridiagonal {
        diagonal: alphas.clone(),
        off_diagonal: off,
        q: Matrix::identity(dim),
    };
    let small = tridiagonal_eigen(&tri);
    let (values, small_vecs) = small.top_k(k);

    // Ritz vectors: V = Qᵀ · s  (basis rows are the Lanczos vectors).
    let mut vectors = Matrix::zeros(n, values.len());
    #[allow(clippy::needless_range_loop)] // col indexes both factors
    for col in 0..values.len() {
        for (j, b) in basis.iter().enumerate() {
            let c = small_vecs[(j, col)];
            if c != 0.0 {
                for i in 0..n {
                    vectors[(i, col)] += c * b[i];
                }
            }
        }
    }

    // Residual check ‖A v − λ v‖ ≤ tol · max(1, |λ₁|), with all Ritz
    // vectors multiplied in one pass over the operator.
    let lambda_scale = values.first().map(|v| v.abs()).unwrap_or(1.0).max(1.0);
    let ritz = vectors.transpose();
    let mut avs = vec![0.0; ritz.as_slice().len()];
    a.matvec_many(ritz.as_slice(), &mut avs);
    let mut converged = true;
    for ((v, av), &value) in ritz
        .as_slice()
        .chunks_exact(n)
        .zip(avs.chunks_exact_mut(n))
        .zip(&values)
    {
        vector::axpy(-value, v, av);
        if vector::norm2(av) > opts.tol.max(1e-12) * lambda_scale * 100.0 {
            converged = false;
        }
    }

    LanczosResult {
        eigenvalues: values,
        eigenvectors: vectors,
        subspace_dim: dim,
        converged,
    }
}

fn random_unit_vector(n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    if vector::normalize(&mut v) == 0.0 {
        v[0] = 1.0;
    }
    v
}

/// Draw random vectors until one has a significant component outside the
/// span of `basis`; returns `None` once the basis is (numerically) full.
fn fresh_orthogonal_direction(
    n: usize,
    basis: &[Vec<f64>],
    rng: &mut ChaCha8Rng,
) -> Option<Vec<f64>> {
    if basis.len() >= n {
        return None;
    }
    for _ in 0..8 {
        let mut v = random_unit_vector(n, rng);
        for b in basis {
            vector::orthogonalize_against(b, &mut v);
        }
        if vector::normalize(&mut v) > 1e-8 {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_top_eigenpairs() {
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let res = lanczos(&a, &LanczosOptions::top(3));
        assert!(res.converged);
        assert!((res.eigenvalues[0] - 20.0).abs() < 1e-8);
        assert!((res.eigenvalues[1] - 19.0).abs() < 1e-8);
        assert!((res.eigenvalues[2] - 18.0).abs() < 1e-8);
    }

    #[test]
    fn matches_dense_eigensolver() {
        use rand::{Rng, SeedableRng};
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 30;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v: f64 = rng.gen_range(-1.0..1.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let dense = crate::symmetric_eigen(&a);
        let (dense_top, _) = dense.top_k(4);
        let res = lanczos(&a, &LanczosOptions::top(4));
        for (l, d) in res.eigenvalues.iter().zip(&dense_top) {
            assert!((l - d).abs() < 1e-6, "lanczos {l} vs dense {d}");
        }
    }

    #[test]
    fn block_diagonal_breakdown_recovers_both_blocks() {
        // Two disconnected blocks: a plain Krylov space from one start
        // vector may miss a block; the restart logic must find it.
        let mut a = Matrix::zeros(8, 8);
        for i in 0..4 {
            a[(i, i)] = 10.0;
        }
        for i in 4..8 {
            a[(i, i)] = 5.0;
        }
        let res = lanczos(&a, &LanczosOptions::top(6));
        assert!((res.eigenvalues[0] - 10.0).abs() < 1e-8);
        // Eigenvalue 5 must appear even though it lives in a separate
        // invariant subspace.
        assert!(res.eigenvalues.iter().any(|v| (v - 5.0).abs() < 1e-8));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 15;
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let res = lanczos(&a, &LanczosOptions::top(4));
        let v = &res.eigenvectors;
        let g = v.transpose().matmul(v);
        assert!(g.max_abs_diff(&Matrix::identity(4)) < 1e-6);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let a = Matrix::identity(3);
        let res = lanczos(&a, &LanczosOptions::top(10));
        assert_eq!(res.eigenvalues.len(), 3);
        for v in &res.eigenvalues {
            assert!((v - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Matrix::from_fn(12, 12, |i, j| ((i + j) % 5) as f64);
        let r1 = lanczos(&a, &LanczosOptions::top(2));
        let r2 = lanczos(&a, &LanczosOptions::top(2));
        assert_eq!(r1.eigenvalues, r2.eigenvalues);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let a = Matrix::identity(2);
        let mut opts = LanczosOptions::top(1);
        opts.k = 0;
        lanczos(&a, &opts);
    }
}
