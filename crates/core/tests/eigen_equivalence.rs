//! Pipeline-level equivalence for the eigensolver overhaul: clustering
//! labels must be independent of the eigen route on separable data,
//! bit-identical across thread counts on the k-targeted dense path, and
//! recover every one of several weakly coupled blocks on the Lanczos
//! path.

use dasc_core::{Dasc, DascConfig, EigenBackend, EigenPath, SpectralClustering, SpectralConfig};
use dasc_kernel::Kernel;
use dasc_linalg::Matrix;
use dasc_lsh::LshConfig;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Four separated blobs, `per` points each, big enough to push buckets
/// past the dense-k crossover (bucket order > 64).
fn four_blobs(per: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let centers = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]];
    let mut pts = Vec::new();
    let mut labels = Vec::new();
    for (ci, c) in centers.iter().enumerate() {
        for i in 0..per {
            let jx = (i % 13) as f64 * 0.003;
            let jy = (i % 11) as f64 * 0.003;
            pts.push(vec![c[0] + jx, c[1] + jy]);
            labels.push(ci);
        }
    }
    (pts, labels)
}

#[test]
fn spectral_backends_agree_on_separable_data() {
    // n = 200 with k = 2: past DENSE_FULL_MAX and under the Lanczos
    // threshold, so Auto resolves to the k-targeted path — and all
    // routes must produce the same labels on clean structure.
    let (pts, truth) = four_blobs(50);
    let mut runs = Vec::new();
    for backend in [
        EigenBackend::Dense,
        EigenBackend::DenseK,
        EigenBackend::Lanczos,
        EigenBackend::Auto,
    ] {
        let cfg = SpectralConfig::new(4)
            .kernel(Kernel::gaussian(0.15))
            .backend(backend)
            .seed(7);
        runs.push((backend, SpectralClustering::new(cfg).run(&pts)));
    }
    for (backend, res) in &runs {
        let acc = dasc_metrics::accuracy(&res.clustering.assignments, &truth);
        assert!(acc > 0.99, "{backend:?} accuracy {acc}");
    }
}

#[test]
fn dense_k_spectral_run_bit_identical_across_thread_counts() {
    let (pts, _) = four_blobs(50);
    let cfg = SpectralConfig::new(4)
        .kernel(Kernel::gaussian(0.15))
        .backend(EigenBackend::DenseK)
        .seed(11);
    let reference =
        dasc_pool::Pool::new(1).install(|| SpectralClustering::new(cfg.clone()).run(&pts));
    for threads in THREAD_COUNTS {
        let got = dasc_pool::Pool::new(threads)
            .install(|| SpectralClustering::new(cfg.clone()).run(&pts));
        assert_eq!(
            reference.clustering.assignments, got.clustering.assignments,
            "labels differ at {threads} threads"
        );
    }
}

#[test]
fn dasc_pipeline_bit_identical_across_thread_counts() {
    // Buckets of ~100+ points route through the k-targeted dense solve
    // under Auto; the whole pipeline (LSH → Gram blocks → per-bucket
    // spectral → consolidation) must not depend on the pool width.
    let (pts, _) = four_blobs(100);
    let cfg = DascConfig::for_dataset(pts.len(), 4)
        .kernel(Kernel::gaussian(0.15))
        .lsh(LshConfig::with_bits(2))
        .seed(3);
    let reference = dasc_pool::Pool::new(1).install(|| Dasc::new(cfg.clone()).run(&pts));
    for threads in THREAD_COUNTS {
        let got = dasc_pool::Pool::new(threads).install(|| Dasc::new(cfg.clone()).run(&pts));
        assert_eq!(
            reference.clustering.assignments, got.clustering.assignments,
            "assignments differ at {threads} threads"
        );
        assert_eq!(
            reference.clustering.num_clusters,
            got.clustering.num_clusters
        );
        assert_eq!(reference.eigen_path, got.eigen_path);
    }
}

/// Deterministic noise in `[0, 1)` for entry `(i, j)`.
fn noise(i: usize, j: usize) -> f64 {
    let x = (i as u64 * 7919 + j as u64 * 104_729).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Similarity of `blocks` equal blocks of `per` points: a Gaussian
/// kernel (σ = 0.3) on points spread over the unit cube inside each
/// block, noisy entries of order `1e-6` between blocks. Its normalized
/// Laplacian has `blocks` leading eigenvalues within about `1e-5` of 1.
fn weakly_coupled_blocks(blocks: usize, per: usize) -> Matrix {
    let n = blocks * per;
    let sigma = 0.3;
    let x: Vec<[f64; 3]> = (0..n)
        .map(|i| [noise(i, 1), noise(i, 2), noise(i, 3)])
        .collect();
    Matrix::from_fn(n, n, |i, j| {
        let (lo, hi) = (i.min(j), i.max(j));
        if lo / per == hi / per {
            let d2: f64 = x[i].iter().zip(&x[j]).map(|(a, b)| (a - b) * (a - b)).sum();
            (-d2 / (2.0 * sigma * sigma)).exp()
        } else {
            1e-6 * noise(lo, hi)
        }
    })
}

#[test]
fn lanczos_labels_recover_every_weakly_coupled_block() {
    // n = 540 is past the 512-point crossover, so Auto takes Lanczos
    // with k = 6 for six blocks: losing part of the six-fold leading
    // eigenspace merges blocks in the embedding.
    let (blocks, per) = (6, 90);
    let similarity = weakly_coupled_blocks(blocks, per);
    let truth: Vec<usize> = (0..blocks * per).map(|i| i / per).collect();
    let cfg = SpectralConfig::new(blocks).seed(5);
    let mut reference = None;
    for threads in THREAD_COUNTS {
        let (c, breakdown) = dasc_pool::Pool::new(threads).install(|| {
            SpectralClustering::new(cfg.clone()).run_on_similarity_owned(similarity.clone())
        });
        assert_eq!(breakdown.path, EigenPath::Lanczos);
        assert!(breakdown.converged, "{threads} threads");
        let acc = dasc_metrics::accuracy(&c.assignments, &truth);
        assert_eq!(acc, 1.0, "{threads} threads: accuracy {acc}");
        let reference = reference.get_or_insert_with(|| c.assignments.clone());
        assert_eq!(
            *reference, c.assignments,
            "labels differ at {threads} threads"
        );
    }
}
