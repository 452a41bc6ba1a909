//! The panel-parallel passes on a bucket's critical path must equal
//! their serial definitions bit for bit on every pool width: the Gram
//! mirror, the normalized-Laplacian scaling, and the one-pass block
//! matvec behind the Lanczos residual check. Run under both
//! `DASC_KERNEL` values; the backend is resolved once per process.

use dasc_core::normalized_laplacian_inplace;
use dasc_linalg::{lanczos, vector, LanczosOptions, MatVec, Matrix};
use dasc_pool::Pool;

/// Orders around the 64-row panel edge, plus empty and one-entry.
const SIZES: [usize; 7] = [0, 1, 63, 64, 65, 257, 1031];
const THREADS: [usize; 3] = [1, 2, 4];

/// Deterministic value in `[0, 1)` for entry `(i, j)` under `salt`.
fn noise(i: usize, j: usize, salt: u64) -> f64 {
    let mut x = (i as u64) << 32 ^ (j as u64) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Upper triangle filled, lower triangle garbage — what a Gram builder
/// hands to `mirror_upper`.
fn upper_filled(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| if j >= i { noise(i, j, 1) } else { -1.0 })
}

/// Symmetric, non-negative, with every seventh vertex isolated so the
/// zero-degree branch is covered.
fn similarity(n: usize) -> Matrix {
    let isolated = |i: usize| i % 7 == 3;
    Matrix::from_fn(n, n, |i, j| {
        if isolated(i) || isolated(j) {
            0.0
        } else {
            noise(i.min(j), i.max(j), 2)
        }
    })
}

fn serial_mirror(m: &mut Matrix) {
    let n = m.nrows();
    for i in 1..n {
        for j in 0..i {
            m[(i, j)] = m[(j, i)];
        }
    }
}

fn serial_laplacian(s: &mut Matrix) -> Vec<f64> {
    let n = s.nrows();
    let degrees: Vec<f64> = (0..n).map(|i| s.row(i).iter().sum()).collect();
    let inv_sqrt: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    for i in 0..n {
        for j in 0..n {
            s[(i, j)] = inv_sqrt[i] * s[(i, j)] * inv_sqrt[j];
        }
    }
    degrees
}

#[test]
fn mirror_upper_matches_serial_copy() {
    for n in SIZES {
        let mut want = upper_filled(n);
        serial_mirror(&mut want);
        for threads in THREADS {
            let mut got = upper_filled(n);
            Pool::new(threads).install(|| got.mirror_upper());
            assert_eq!(bits(&got), bits(&want), "n={n}, {threads} threads");
        }
    }
}

#[test]
fn laplacian_matches_serial_scaling() {
    for n in SIZES {
        let mut want = similarity(n);
        let want_degrees = serial_laplacian(&mut want);
        for threads in THREADS {
            let mut got = similarity(n);
            let degrees = Pool::new(threads).install(|| normalized_laplacian_inplace(&mut got));
            assert_eq!(bits(&got), bits(&want), "n={n}, {threads} threads");
            let to_bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(to_bits(&degrees), to_bits(&want_degrees), "n={n} degrees");
        }
    }
}

#[test]
fn block_matvec_matches_one_matvec_per_vector() {
    for n in SIZES {
        let a = Matrix::from_fn(n, n, |i, j| noise(i, j, 3) - 0.5);
        for k in [1, 3, 6] {
            let xs: Vec<f64> = (0..k * n).map(|i| noise(i, k, 4) - 0.5).collect();
            let mut want = vec![0.0; k * n];
            if n > 0 {
                for (x, y) in xs.chunks_exact(n).zip(want.chunks_exact_mut(n)) {
                    a.matvec(x, y);
                }
            }
            for threads in THREADS {
                let mut got = vec![f64::NAN; k * n];
                Pool::new(threads).install(|| a.matvec_many(&xs, &mut got));
                let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    to_bits(&got),
                    to_bits(&want),
                    "n={n}, k={k}, {threads} threads"
                );
            }
        }
    }
}

/// The residual check as one matvec per Ritz vector.
fn per_column_converged(a: &Matrix, res: &dasc_linalg::LanczosResult, tol: f64) -> bool {
    let scale = res
        .eigenvalues
        .first()
        .map(|v| v.abs())
        .unwrap_or(1.0)
        .max(1.0);
    (0..res.eigenvalues.len()).all(|c| {
        let v = res.eigenvectors.col(c);
        let mut av = a.apply(&v);
        vector::axpy(-res.eigenvalues[c], &v, &mut av);
        vector::norm2(&av) <= tol.max(1e-12) * scale * 100.0
    })
}

#[test]
fn one_pass_residual_check_agrees_with_per_column_check() {
    // A normalized Laplacian of a noisy three-block similarity: the
    // default subspace converges, a subspace of k + 1 cannot.
    let n = 300;
    let mut l = Matrix::from_fn(n, n, |i, j| {
        let same = i * 3 / n == j * 3 / n;
        (if same { 1.0 } else { 0.05 }) + 0.01 * noise(i.min(j), i.max(j), 5)
    });
    normalized_laplacian_inplace(&mut l);
    let k = 4;
    for (max_subspace, expect_converged) in [(None, true), (Some(k + 1), false)] {
        let mut opts = LanczosOptions::top(k);
        opts.max_subspace = max_subspace;
        for threads in THREADS {
            let res = Pool::new(threads).install(|| lanczos(&l, &opts));
            assert_eq!(
                res.converged,
                per_column_converged(&l, &res, opts.tol),
                "max_subspace {max_subspace:?}, {threads} threads"
            );
            assert_eq!(
                res.converged, expect_converged,
                "max_subspace {max_subspace:?}"
            );
        }
    }
}
