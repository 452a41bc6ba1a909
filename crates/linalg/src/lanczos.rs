//! Block Lanczos with full reorthogonalization.
//!
//! This is the PARPACK substitute used by the PSC baseline (sparse t-NN
//! Laplacians) and by DASC on buckets large enough that a full dense
//! eigendecomposition would dominate. It computes the `k` algebraically
//! largest eigenpairs of any symmetric [`MatVec`] operator.
//!
//! The Krylov basis grows in blocks of `b = k` vectors from `k` seeded
//! random start directions, so a `k`-fold (or nearly `k`-fold) leading
//! eigenvalue — the normal case for a Laplacian of `k` weakly coupled
//! clusters — is resolved: a single start vector sees such an
//! eigenspace as (nearly) one direction and fills the rest of the top
//! `k` from below it. Each block
//! step makes one [`MatVec::matvec_many`] call, so an operator that
//! streams itself once per call (the dense [`crate::Matrix`]) is read
//! once per `b` basis vectors, and the products `W = A·Q` are kept.
//!
//! After every step the Rayleigh–Ritz problem `QᵀW` (order at most the
//! subspace budget) is solved densely, and each wanted
//! Ritz residual `‖W s − λ Q s‖` is computed from the stored products,
//! so convergence costs no extra operator pass and `converged` reports
//! exactly the check that stopped the iteration.
//!
//! Full (two-pass) reorthogonalization keeps the basis orthonormal at
//! `O(m²n)` cost, which is small next to the operator passes at these
//! subspace sizes. A new direction that is (numerically) already in the
//! basis — an invariant subspace, common for the block-diagonal
//! matrices DASC produces — is replaced by a seeded random direction.
//!
//! The vector loops (`vector::{dot, axpy, norm2}` and the operator's
//! products) dispatch to the process kernel backend (see
//! [`crate::simd`]). The per-vector work of a step (the new columns of
//! `QᵀW`, each candidate's Gram–Schmidt, each Ritz pair) runs as one
//! pool task per vector in a fixed order, and the operator products are
//! bit-identical across pool widths, so results are deterministic for a
//! given seed and backend.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::operator::MatVec;
use crate::vector;
use crate::{symmetric_eigen, Matrix};

/// A candidate direction whose norm falls below this fraction of its
/// norm before reorthogonalization lies (numerically) in the basis
/// already, and is replaced by a random direction.
const DEFLATION: f64 = 1e-10;

/// Options controlling the Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosOptions {
    /// Number of leading (largest) eigenpairs requested; also the block
    /// size.
    pub k: usize,
    /// Maximum Krylov subspace dimension. `None` picks
    /// `min(n, max(20k, 80))`: twenty block steps, which covers the 7 to
    /// 19 steps measured on DASC bucket Laplacians with `k` from 2 to 16.
    pub max_subspace: Option<usize>,
    /// Residual tolerance: a pair has converged once
    /// `‖A v − λ v‖ ≤ 100 · tol · max(1, |λ₁|)`.
    pub tol: f64,
    /// RNG seed for the start block (runs are deterministic).
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
/// operator by block Lanczos (block size `k`), stopping as soon as all
/// `k` Ritz residuals meet the tolerance or the subspace budget is
/// spent.
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
        .unwrap_or_else(|| (20 * k).max(80))
        .min(n)
        .max(k);

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    // Basis vectors and their products `A q`, back to back; both grow
    // by exactly one block per step, so a solve that converges early
    // never holds the whole budget.
    let mut q: Vec<f64> = Vec::new();
    let mut w: Vec<f64> = Vec::new();
    // The projected matrix `QᵀAQ`, `m × m` row-major.
    let mut h = vec![0.0; m * m];
    let mut candidates: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut ritz = None;
    loop {
        let j0 = q.len() / n;
        let added = extend_basis(&mut q, n, &mut candidates, m - j0, &mut rng);
        if added == 0 {
            break;
        }
        let dim = j0 + added;
        w.reserve_exact(added * n);
        w.resize(dim * n, 0.0);
        a.matvec_many(&q[j0 * n..], &mut w[j0 * n..]);
        // New columns of QᵀW; the block where both indices are new is
        // symmetrized, the rest mirrored.
        let mut cols = vec![0.0; dim * added];
        cols.par_chunks_mut(added).enumerate().for_each(|(i, row)| {
            let qi = &q[i * n..(i + 1) * n];
            for (c, wl) in row.iter_mut().zip(w[j0 * n..].chunks_exact(n)) {
                *c = vector::dot(qi, wl);
            }
        });
        for i in 0..dim {
            for l in 0..added {
                let v = if i < j0 {
                    cols[i * added + l]
                } else {
                    0.5 * (cols[i * added + l] + cols[(j0 + l) * added + (i - j0)])
                };
                h[i * m + j0 + l] = v;
                h[(j0 + l) * m + i] = v;
            }
        }
        let pairs = ritz_pairs(&q, &w, n, &h, m, k, opts.tol);
        let done = pairs.converged || dim == m;
        ritz = Some(pairs);
        if done {
            break;
        }
        candidates = w[j0 * n..].to_vec();
    }

    let r = ritz.expect("lanczos: the start block always adds a vector");
    LanczosResult {
        eigenvectors: Matrix::from_fn(n, r.values.len(), |i, c| r.vectors[c * n + i]),
        eigenvalues: r.values,
        subspace_dim: q.len() / n,
        converged: r.converged,
    }
}

/// The wanted Ritz pairs of the current basis.
struct Ritz {
    values: Vec<f64>,
    /// Ritz vectors, back to back.
    vectors: Vec<f64>,
    converged: bool,
}

/// Solve the Rayleigh–Ritz problem on the leading `dim × dim` block of
/// `h` (stride `m`) and check each of the top `k` residuals
/// `‖W s − λ Q s‖` against `100 · tol · max(1, |λ₁|)`.
fn ritz_pairs(q: &[f64], w: &[f64], n: usize, h: &[f64], m: usize, k: usize, tol: f64) -> Ritz {
    let dim = q.len() / n;
    let small = symmetric_eigen(&Matrix::from_fn(dim, dim, |i, l| h[i * m + l]));
    let (values, s) = small.top_k(k);
    // Per pair, the Ritz vector `Q s` and then `W s − λ Q s` in the
    // residual's half of the same buffer.
    let mut pairs = vec![0.0; 2 * values.len() * n];
    let norms: Vec<f64> = pairs
        .par_chunks_mut(2 * n)
        .enumerate()
        .map(|(c, pair)| {
            let (v, r) = pair.split_at_mut(n);
            for (i, (qi, wi)) in q.chunks_exact(n).zip(w.chunks_exact(n)).enumerate() {
                vector::axpy(s[(i, c)], qi, v);
                vector::axpy(s[(i, c)], wi, r);
            }
            vector::axpy(-values[c], v, r);
            vector::norm2(r)
        })
        .collect();
    let bound = tol.max(1e-12) * 100.0 * values.first().map_or(1.0, |v| v.abs()).max(1.0);
    Ritz {
        values,
        vectors: pairs
            .chunks_exact(2 * n)
            .flat_map(|p| &p[..n])
            .copied()
            .collect(),
        converged: norms.iter().all(|&r| r <= bound),
    }
}

/// Orthonormalize the candidate directions (back to back in
/// `candidates`) against the basis `q` and each other, two passes each,
/// and append up to `budget` of them to `q`. A candidate that is
/// numerically in the basis already is replaced by a seeded random
/// direction. Returns how many vectors were appended (fewer than asked
/// only once the basis spans the whole space).
fn extend_basis(
    q: &mut Vec<f64>,
    n: usize,
    candidates: &mut [f64],
    budget: usize,
    rng: &mut ChaCha8Rng,
) -> usize {
    let j0 = q.len() / n;
    q.reserve_exact(budget.min(candidates.len() / n) * n);
    let before: Vec<f64> = candidates.chunks_exact(n).map(vector::norm2).collect();
    for _ in 0..2 {
        project_out(q, n, candidates);
    }
    for (c, before) in candidates.chunks_exact_mut(n).zip(before) {
        if q.len() / n - j0 == budget {
            break;
        }
        for _ in 0..2 {
            project_out(&q[j0 * n..], n, c);
        }
        let norm = vector::norm2(c);
        if norm > DEFLATION * before {
            vector::scale(1.0 / norm, c);
            q.extend_from_slice(c);
        } else if let Some(fresh) = random_direction(q, n, rng) {
            q.extend_from_slice(&fresh);
        } else {
            break;
        }
    }
    q.len() / n - j0
}

/// One modified Gram–Schmidt pass of every vector in `vs` against the
/// orthonormal `basis` (both back to back), one task per vector.
fn project_out(basis: &[f64], n: usize, vs: &mut [f64]) {
    vs.par_chunks_mut(n).for_each(|v| {
        for b in basis.chunks_exact(n) {
            vector::orthogonalize_against(b, v);
        }
    });
}

/// A seeded random unit direction orthogonal to `basis`, or `None`
/// once the basis (numerically) spans the space.
fn random_direction(basis: &[f64], n: usize, rng: &mut ChaCha8Rng) -> Option<Vec<f64>> {
    if basis.len() / n >= n {
        return None;
    }
    for _ in 0..8 {
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let before = vector::norm2(&v);
        for _ in 0..2 {
            project_out(basis, n, &mut v);
        }
        let norm = vector::norm2(&v);
        if norm > DEFLATION.sqrt() * before {
            vector::scale(1.0 / norm, &mut v);
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
        // Two disconnected blocks with repeated eigenvalues: the basis
        // must reach both invariant subspaces.
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
    fn one_block_product_per_step_and_no_single_products() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting {
            a: Matrix,
            single: AtomicUsize,
            blocks: AtomicUsize,
        }
        impl MatVec for Counting {
            fn dim(&self) -> usize {
                self.a.dim()
            }
            fn matvec(&self, x: &[f64], y: &mut [f64]) {
                self.single.fetch_add(1, Ordering::Relaxed);
                self.a.matvec(x, y);
            }
            fn matvec_many(&self, xs: &[f64], ys: &mut [f64]) {
                self.blocks.fetch_add(1, Ordering::Relaxed);
                self.a.matvec_many(xs, ys);
            }
        }
        let n = 60;
        let a = Counting {
            a: Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs())),
            single: AtomicUsize::new(0),
            blocks: AtomicUsize::new(0),
        };
        let k = 3;
        let res = lanczos(&a, &LanczosOptions::top(k));
        assert!(res.converged);
        assert_eq!(a.single.load(Ordering::Relaxed), 0);
        assert_eq!(a.blocks.load(Ordering::Relaxed) * k, res.subspace_dim);
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
