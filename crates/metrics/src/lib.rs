//! Clustering-quality metrics used in the paper's evaluation
//! (Section 5.3), plus standard extras.
//!
//! * [`accuracy`] — fraction of correctly clustered points against
//!   ground truth, under the optimal label matching (Hungarian
//!   algorithm). Drives Figure 3 and Table 3.
//! * [`davies_bouldin`] — DBI, Eq. 20 (Figure 4a).
//! * [`ase`] — average squared error, Eq. 21 (Figure 4b).
//! * [`fnorm_ratio`] — Frobenius-norm ratio between approximated and
//!   exact Gram matrices, Eqs. 22–24 (Figure 5).
//! * [`nmi`] / [`purity`] — standard metrics beyond the paper, used by
//!   the ablation benches.
//!
//! ```
//! use dasc_metrics::accuracy;
//!
//! // Labels are matched up to permutation (Hungarian algorithm).
//! assert_eq!(accuracy(&[1, 1, 0, 0], &[0, 0, 1, 1]), 1.0);
//! assert_eq!(accuracy(&[0, 0, 0, 1], &[0, 0, 1, 1]), 0.75);
//! ```

pub mod accuracy;
pub mod ase;
pub mod dbi;
pub mod external;
pub mod fnorm;
pub mod hungarian;

pub use accuracy::{accuracy, confusion_matrix};
pub use ase::ase;
pub use dbi::davies_bouldin;
pub use external::{adjusted_rand_index, nmi, purity};
pub use fnorm::fnorm_ratio;
pub use hungarian::hungarian_min_assignment;
