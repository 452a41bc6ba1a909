//! Abstract linear operator used by the iterative eigensolvers.

/// A square linear operator that can apply itself to a vector.
///
/// Both [`crate::Matrix`] and [`crate::CsrMatrix`] implement this, so the
/// Lanczos solver works identically on dense per-bucket Laplacians and the
/// sparse t-NN Laplacians of the PSC baseline.
pub trait MatVec: Sync {
    /// Operator dimension `n` (the operator is `n×n`).
    fn dim(&self) -> usize;

    /// Compute `y = A x`.
    ///
    /// Implementations may assume `x.len() == y.len() == self.dim()`.
    fn matvec(&self, x: &[f64], y: &mut [f64]);

    /// Compute `Y = A X` for a block of vectors stored back to back:
    /// `xs` holds `k` inputs of length `dim()`, `ys` the `k` products.
    /// Each product must equal what [`MatVec::matvec`] gives for its
    /// input; operators override this to read themselves once for the
    /// whole block.
    fn matvec_many(&self, xs: &[f64], ys: &mut [f64]) {
        let n = self.dim();
        if n == 0 {
            return;
        }
        for (x, y) in xs.chunks_exact(n).zip(ys.chunks_exact_mut(n)) {
            self.matvec(x, y);
        }
    }

    /// Convenience allocation wrapper around [`MatVec::matvec`].
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.matvec(x, &mut y);
        y
    }
}

/// A diagonally-shifted operator `A + shift·I`, useful for mapping the
/// smallest eigenvalues of a Laplacian onto the largest of a shifted one.
pub struct Shifted<'a, A: MatVec> {
    inner: &'a A,
    shift: f64,
}

impl<'a, A: MatVec> Shifted<'a, A> {
    /// Wrap `inner` as `inner + shift·I`.
    pub fn new(inner: &'a A, shift: f64) -> Self {
        Self { inner, shift }
    }
}

impl<A: MatVec> MatVec for Shifted<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        self.inner.matvec(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += self.shift * xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn shifted_adds_diagonal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let s = Shifted::new(&a, 3.0);
        let y = s.apply(&[1.0, 0.0]);
        assert_eq!(y, vec![4.0, 2.0]);
    }

    #[test]
    fn apply_matches_matvec() {
        let a = Matrix::identity(3);
        assert_eq!(a.apply(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }
}
