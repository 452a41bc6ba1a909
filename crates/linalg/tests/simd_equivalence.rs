//! Property tests for the runtime-dispatched SIMD kernel backends.
//!
//! Three contracts are pinned here (see `crates/linalg/src/simd.rs`):
//!
//! 1. **Cross-backend tolerance** — every available backend agrees with
//!    the scalar kernels to ≤ 1e-12 entrywise on coordinates in
//!    `[−2, 2]` (FMA and lane reduction change summation order, so
//!    agreement is approximate by design).
//! 2. **Scalar bitwise identity** — the `DASC_KERNEL=scalar` kernels
//!    are byte-for-byte the pre-SIMD instruction sequences; reference
//!    copies of those loops live in this file and must match exactly.
//! 3. **Within-backend determinism** — a given output entry is computed
//!    by the same instruction sequence regardless of tiling position or
//!    parallel chunking, on every backend.

use dasc_linalg::simd::{self, KernelBackend};
use dasc_linalg::{gemm, Matrix};
use proptest::prelude::*;

const TOL: f64 = 1e-12;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Ragged depths that hit every lane-remainder path: empty, below one
/// vector, odd around the 8-wide AVX2 step, and around a 64-dim row.
const RAGGED_DIMS: [usize; 5] = [0, 1, 7, 63, 65];

/// Deterministic pseudo-random coordinates in [−2, 2).
fn coords(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            (x % 1000) as f64 / 250.0 - 2.0
        })
        .collect()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "shape mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The pre-SIMD single-row kernel, copied verbatim from the seed tree's
/// `gemm::dot1`: four accumulator chains over the depth, reduced
/// `(s0 + s1) + (s2 + s3)`.
fn reference_dot1(a: &[f64], b: &[f64], dim: usize) -> f64 {
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut k = 0;
    while k + 4 <= dim {
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
        k += 4;
    }
    while k < dim {
        s0 += a[k] * b[k];
        k += 1;
    }
    (s0 + s1) + (s2 + s3)
}

/// The pre-SIMD 4-column kernel, copied verbatim from the seed tree's
/// `gemm::dot4`: eight accumulators, 4 columns × 2 unrolled depth steps.
fn reference_dot4(a: &[f64], b4: &[f64], dim: usize) -> [f64; 4] {
    let (b0, rest) = b4.split_at(dim);
    let (b1, rest) = rest.split_at(dim);
    let (b2, b3) = rest.split_at(dim);
    let mut s = [0.0f64; 8];
    let mut k = 0;
    while k + 2 <= dim {
        let (a0, a1) = (a[k], a[k + 1]);
        s[0] += a0 * b0[k];
        s[4] += a1 * b0[k + 1];
        s[1] += a0 * b1[k];
        s[5] += a1 * b1[k + 1];
        s[2] += a0 * b2[k];
        s[6] += a1 * b2[k + 1];
        s[3] += a0 * b3[k];
        s[7] += a1 * b3[k + 1];
        k += 2;
    }
    if k < dim {
        let a0 = a[k];
        s[0] += a0 * b0[k];
        s[1] += a0 * b1[k];
        s[2] += a0 * b2[k];
        s[3] += a0 * b3[k];
    }
    [s[0] + s[4], s[1] + s[5], s[2] + s[6], s[3] + s[7]]
}

/// The pre-SIMD axpy loop, copied verbatim from the seed tree's
/// `vector::axpy` body.
fn reference_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

// ---------------------------------------------------------------------
// Contract 2: DASC_KERNEL=scalar is bit-identical to the pre-PR kernels.
// ---------------------------------------------------------------------

#[test]
fn scalar_dot_bitwise_matches_pre_pr_kernel() {
    for dim in [0usize, 1, 2, 3, 5, 7, 8, 16, 63, 64, 65, 130] {
        let a = coords(dim, 1);
        let b = coords(dim, 2);
        let got = simd::dot(KernelBackend::Scalar, &a, &b, dim);
        let want = reference_dot1(&a, &b, dim);
        assert!(
            got.to_bits() == want.to_bits(),
            "dim={dim}: {got:?} vs {want:?}"
        );
    }
}

#[test]
fn scalar_panel_bitwise_matches_pre_pr_kernels() {
    // abt_into on the scalar backend must reproduce the pre-PR tiling:
    // dot4 on groups of four contiguous B rows, dot1 on the remainder.
    for (ma, nb, dim) in [(1, 1, 1), (3, 5, 2), (7, 9, 3), (13, 6, 5), (130, 131, 7)] {
        let a = coords(ma * dim, 3);
        let b = coords(nb * dim, 4);
        let mut got = vec![0.0; ma * nb];
        gemm::abt_into_with(KernelBackend::Scalar, &a, ma, &b, nb, dim, &mut got, nb);
        for i in 0..ma {
            let ai = &a[i * dim..(i + 1) * dim];
            let mut j = 0;
            while j + 4 <= nb.min(gemm::GEMM_TILE_ROWS) {
                let d = reference_dot4(ai, &b[j * dim..(j + 4) * dim], dim);
                for (c, want) in d.iter().enumerate() {
                    let have = got[i * nb + j + c];
                    assert!(
                        have.to_bits() == want.to_bits(),
                        "({i},{}) {ma}x{nb}x{dim}: {have:?} vs {want:?}",
                        j + c
                    );
                }
                j += 4;
            }
            while j < nb.min(gemm::GEMM_TILE_ROWS) {
                let want = reference_dot1(ai, &b[j * dim..(j + 1) * dim], dim);
                let have = got[i * nb + j];
                assert!(
                    have.to_bits() == want.to_bits(),
                    "({i},{j}) remainder: {have:?} vs {want:?}"
                );
                j += 1;
            }
        }
    }
}

#[test]
fn scalar_axpy_bitwise_matches_pre_pr_loop() {
    for n in [0usize, 1, 3, 4, 7, 64, 65] {
        let x = coords(n, 5);
        let base = coords(n, 6);
        let mut got = base.clone();
        simd::axpy(KernelBackend::Scalar, -1.375, &x, &mut got);
        let mut want = base;
        reference_axpy(-1.375, &x, &mut want);
        for (g, w) in got.iter().zip(&want) {
            assert!(g.to_bits() == w.to_bits(), "n={n}: {g:?} vs {w:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Contract 1: every available backend within 1e-12 of scalar.
// ---------------------------------------------------------------------

#[test]
fn ragged_dims_agree_across_backends() {
    for dim in RAGGED_DIMS {
        let a = coords(dim, 7);
        let b = coords(dim, 8);
        let want = simd::dot(KernelBackend::Scalar, &a, &b, dim);
        for be in KernelBackend::all_available() {
            let got = simd::dot(be, &a, &b, dim);
            assert!(
                (got - want).abs() <= TOL,
                "{} dim={dim}: {got} vs {want}",
                be.as_str()
            );
        }
    }
}

#[test]
fn sq_dists_clamp_holds_on_every_backend() {
    // Identical rows: norm-expansion cancellation can go ±ULP negative;
    // the clamp must pin every self-distance at a non-negative value on
    // scalar and SIMD backends alike.
    let (n, dim) = (37, 5);
    let a = coords(n * dim, 9);
    for be in KernelBackend::all_available() {
        let norms = gemm::row_sq_norms_flat_with(be, &a, dim);
        let mut out = vec![0.0; n * n];
        gemm::sq_dists_into_with(be, &a, n, &norms, &a, n, &norms, dim, &mut out, n);
        for (idx, &v) in out.iter().enumerate() {
            assert!(v >= 0.0, "{}: negative distance at {idx}: {v}", be.as_str());
        }
        for i in 0..n {
            assert!(out[i * n + i] <= TOL, "{}: self distance", be.as_str());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dot_agrees_across_backends(
        pool in prop::collection::vec(-2.0f64..2.0, 0..260),
        split in 0usize..130,
    ) {
        let dim = (pool.len() / 2).min(split.max(1));
        let (a, b) = (&pool[..dim], &pool[pool.len() - dim..]);
        let want = simd::dot(KernelBackend::Scalar, a, b, dim);
        for be in KernelBackend::all_available() {
            let got = simd::dot(be, a, b, dim);
            prop_assert!(
                (got - want).abs() <= TOL,
                "{} dim={dim}: {got} vs {want}", be.as_str()
            );
        }
    }

    #[test]
    fn panels_agree_across_backends(
        a_data in prop::collection::vec(-2.0f64..2.0, 0..420),
        b_data in prop::collection::vec(-2.0f64..2.0, 0..420),
        dim in 1usize..8,
    ) {
        let ma = a_data.len() / dim;
        let nb = b_data.len() / dim;
        let a = &a_data[..ma * dim];
        let b = &b_data[..nb * dim];
        let mut want = vec![0.0; ma * nb];
        gemm::abt_into_with(KernelBackend::Scalar, a, ma, b, nb, dim, &mut want, nb);
        for be in KernelBackend::all_available() {
            let mut got = vec![0.0; ma * nb];
            gemm::abt_into_with(be, a, ma, b, nb, dim, &mut got, nb);
            let diff = max_abs_diff(&want, &got);
            prop_assert!(diff <= TOL, "{} {ma}x{nb}x{dim}: {diff:e}", be.as_str());
        }
    }

    #[test]
    fn sq_dists_agree_across_backends(
        a_data in prop::collection::vec(-2.0f64..2.0, 0..420),
        b_data in prop::collection::vec(-2.0f64..2.0, 0..420),
        dim in 1usize..8,
    ) {
        let ma = a_data.len() / dim;
        let nb = b_data.len() / dim;
        let a = &a_data[..ma * dim];
        let b = &b_data[..nb * dim];
        let mut results: Vec<Vec<f64>> = Vec::new();
        for be in KernelBackend::all_available() {
            let an = gemm::row_sq_norms_flat_with(be, a, dim);
            let bn = gemm::row_sq_norms_flat_with(be, b, dim);
            let mut out = vec![0.0; ma * nb];
            gemm::sq_dists_into_with(be, a, ma, &an, b, nb, &bn, dim, &mut out, nb);
            prop_assert!(out.iter().all(|&d| d >= 0.0), "{}: clamp failed", be.as_str());
            results.push(out);
        }
        for got in &results[1..] {
            let diff = max_abs_diff(&results[0], got);
            prop_assert!(diff <= TOL, "{ma}x{nb}x{dim}: {diff:e}");
        }
    }

    #[test]
    fn strided_panels_agree_across_backends(
        data in prop::collection::vec(-2.0f64..2.0, 64..420),
        dim in 1usize..6,
    ) {
        // Strided B rows force the single-row remainder kernel on every
        // backend (the 4-column kernel needs contiguous B).
        let lda = dim + 3;
        let ma = data.len() / lda;
        let rows = &data[..ma * lda];
        let mut want = vec![0.0; ma * ma];
        gemm::abt_strided_into_with(
            KernelBackend::Scalar, rows, ma, lda, rows, ma, lda, dim, &mut want, ma,
        );
        for be in KernelBackend::all_available() {
            let mut got = vec![0.0; ma * ma];
            gemm::abt_strided_into_with(be, rows, ma, lda, rows, ma, lda, dim, &mut got, ma);
            let diff = max_abs_diff(&want, &got);
            prop_assert!(diff <= TOL, "{} {ma} rows dim={dim}: {diff:e}", be.as_str());
        }
    }

    #[test]
    fn axpy_agrees_across_backends(
        x in prop::collection::vec(-2.0f64..2.0, 0..200),
        alpha in -3.0f64..3.0,
    ) {
        let base = coords(x.len(), 11);
        let mut want = base.clone();
        simd::axpy(KernelBackend::Scalar, alpha, &x, &mut want);
        for be in KernelBackend::all_available() {
            let mut got = base.clone();
            simd::axpy(be, alpha, &x, &mut got);
            let diff = max_abs_diff(&want, &got);
            prop_assert!(diff <= TOL, "{} n={}: {diff:e}", be.as_str(), x.len());
        }
    }

    #[test]
    fn matvec_agrees_with_explicit_backend_panels(
        data in prop::collection::vec(-2.0f64..2.0, 1..420),
        dim in 1usize..8,
    ) {
        // Matrix::matvec_into dispatches to the resolved backend; it
        // must agree with the explicit scalar panel to tolerance and
        // with the resolved backend's own panel bitwise.
        let n = data.len() / dim;
        prop_assume!(n >= 1);
        let m = Matrix::from_vec(n, dim, data[..n * dim].to_vec());
        let x = coords(dim, 13);
        let mut got = vec![0.0; n];
        m.matvec_into(&x, &mut got);
        let mut scalar = vec![0.0; n];
        gemm::abt_into_with(
            KernelBackend::Scalar, &data[..n * dim], n, &x, 1, dim, &mut scalar, 1,
        );
        prop_assert!(max_abs_diff(&scalar, &got) <= TOL, "matvec vs scalar panel");
        let mut resolved = vec![0.0; n];
        gemm::abt_into_with(
            KernelBackend::resolved(), &data[..n * dim], n, &x, 1, dim, &mut resolved, 1,
        );
        for (g, w) in got.iter().zip(&resolved) {
            prop_assert!(g.to_bits() == w.to_bits(), "matvec not bitwise on resolved backend");
        }
    }

    // -----------------------------------------------------------------
    // Contract 3: within-backend determinism.
    // -----------------------------------------------------------------

    #[test]
    fn tiling_position_never_changes_bits(
        data in prop::collection::vec(-2.0f64..2.0, 64..520),
        dim in 1usize..7,
    ) {
        // Computing the full panel in one call vs row-by-row (the way
        // parallel drivers chunk output rows) must agree bitwise on
        // every backend: kernels are pure functions of (row a, row b,
        // dim), never of the tile the entry lands in.
        let n = data.len() / dim;
        let rows = &data[..n * dim];
        for be in KernelBackend::all_available() {
            let norms = gemm::row_sq_norms_flat_with(be, rows, dim);
            let mut full = vec![0.0; n * n];
            gemm::sq_dists_into_with(be, rows, n, &norms, rows, n, &norms, dim, &mut full, n);
            let mut chunked = vec![0.0; n * n];
            for i in 0..n {
                gemm::sq_dists_into_with(
                    be,
                    &rows[i * dim..(i + 1) * dim],
                    1,
                    &norms[i..i + 1],
                    rows,
                    n,
                    &norms,
                    dim,
                    &mut chunked[i * n..(i + 1) * n],
                    n,
                );
            }
            for (idx, (f, c)) in full.iter().zip(&chunked).enumerate() {
                prop_assert!(
                    f.to_bits() == c.to_bits(),
                    "{}: entry {idx} depends on tiling position", be.as_str()
                );
            }
        }
    }

    #[test]
    fn matvec_bit_stable_across_thread_counts(
        data in prop::collection::vec(-2.0f64..2.0, 64..520),
        dim in 1usize..7,
    ) {
        // The resolved backend (scalar or SIMD, depending on the
        // process's DASC_KERNEL — CI runs both) must produce the same
        // bits at every pool width.
        let n = data.len() / dim;
        let m = Matrix::from_vec(n, dim, data[..n * dim].to_vec());
        let x = coords(dim, 17);
        let mut expected = vec![0.0; n];
        dasc_pool::Pool::new(1).install(|| m.matvec_into(&x, &mut expected));
        for threads in &THREAD_COUNTS[1..] {
            let mut got = vec![0.0; n];
            dasc_pool::Pool::new(*threads).install(|| m.matvec_into(&x, &mut got));
            for (g, w) in got.iter().zip(&expected) {
                prop_assert!(
                    g.to_bits() == w.to_bits(),
                    "matvec differs at {threads} threads"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Contract 3, fixed cases: the multi-vector dot.
// ---------------------------------------------------------------------

#[test]
fn dot_many_is_each_backends_dot_bit_for_bit() {
    // Rows against 1–9 vectors (two register groups and every
    // remainder) at depths that hit each lane-remainder path, and past
    // the depth blocking: every output must be the backend's
    // single-vector `dot` exactly, which is what keeps the dense block
    // matvec bit-identical to `matvec`.
    for dim in [0usize, 1, 3, 4, 7, 8, 63, 65, 1031] {
        for rows in [1usize, 3] {
            let a = coords(rows * dim, 21);
            for count in 1..=9usize {
                let xs = coords(count * dim, 22 + count as u64);
                for be in KernelBackend::all_available() {
                    let mut got = vec![f64::NAN; rows * count];
                    simd::dot_many(be, &a, rows, &xs, count, dim, &mut got);
                    for (i, g) in got.iter().enumerate() {
                        let (r, v) = (i / count, i % count);
                        let want = simd::dot(be, &a[r * dim..], &xs[v * dim..], dim);
                        assert!(
                            g.to_bits() == want.to_bits(),
                            "{} dim={dim} rows={rows} count={count} ({r}, {v}): {g:?} vs {want:?}",
                            be.as_str()
                        );
                    }
                }
            }
        }
    }
}
