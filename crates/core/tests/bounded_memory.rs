//! Fused per-bucket execution: `Dasc::run` holds only the Gram blocks
//! of the buckets in flight, never the whole block-diagonal
//! approximation, and its labels equal a two-phase run that builds
//! every block first and clusters afterwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dasc_core::{
    bucket_cluster_count, consolidate, stitch_distributed, Dasc, DascConfig, SpectralClustering,
    SpectralConfig,
};
use dasc_kernel::{ApproximateGram, Kernel};
use dasc_lsh::{BucketSet, LshConfig, Signature};
use dasc_pool::Pool;

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters never affect the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The allocator counts every thread of this binary, so the tests in
/// it take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Bucket sizes of the fixture: four buckets past the Lanczos crossover
/// (two clusters each, so each builds its block) and one small bucket
/// that gets a single cluster and builds none.
const SIZES: [usize; 5] = [900, 800, 700, 600, 150];
const DIM: usize = 8;
const K: usize = 8;
const BITS: usize = 4;

/// Points and signatures: bucket `b` holds two blobs around its own
/// corner, and every point in it carries signature `b`.
fn fixture() -> (Vec<Vec<f64>>, Vec<Signature>) {
    let mut points = Vec::new();
    let mut sigs = Vec::new();
    for (b, &size) in SIZES.iter().enumerate() {
        for i in 0..size {
            let blob = (i % 2) as f64;
            let p: Vec<f64> = (0..DIM)
                .map(|d| {
                    let jitter = ((i * 31 + d * 17) % 23) as f64 * 0.002;
                    b as f64 + 0.3 * blob * ((d % 2) as f64) + jitter
                })
                .collect();
            points.push(p);
            sigs.push(Signature::from_bits(b as u64, BITS));
        }
    }
    (points, sigs)
}

/// No merging (`P = M`): the buckets are exactly the fixture's groups.
fn config(n: usize) -> DascConfig {
    DascConfig::for_dataset(n, K)
        .kernel(Kernel::gaussian(0.5))
        .lsh(LshConfig::with_bits(BITS).merge_p(BITS))
        .seed(23)
}

#[test]
fn peak_heap_is_one_block_not_the_whole_approximation() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (points, sigs) = fixture();
    let n = points.len();
    let dasc = Dasc::new(config(n));
    let pool = Pool::new(1);

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let res = pool.install(|| dasc.run_with_signatures(&points, &sigs));
    let peak = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(res.buckets.sizes(), SIZES.to_vec());
    let largest = 8 * SIZES[0] * SIZES[0];
    let all_blocks: usize = SIZES.iter().map(|s| 8 * s * s).sum();
    // Slack for everything that is not a Gram block: the gathered
    // bucket (Nᵢ·d), the Lanczos basis and Ritz vectors (O(Nᵢ·m)), and
    // run-level O(n·d) buffers (signatures, stitching, consolidation).
    // About 0.4 MiB of it is used; all blocks together are 18.6 MB.
    let slack = 1 << 20;
    assert!(
        peak <= largest + slack,
        "peak live heap {peak} B exceeds the largest block {largest} B + {slack} B slack"
    );
    assert!(
        2 * peak < all_blocks,
        "peak live heap {peak} B is not well below all blocks together ({all_blocks} B)"
    );
}

#[test]
fn fused_labels_match_the_two_phase_reference() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (points, sigs) = fixture();
    let n = points.len();
    let cfg = config(n);

    // Two phases: every block first, then each block clustered with the
    // seed and cluster count `Dasc` derives for its bucket index.
    let buckets =
        BucketSet::from_signatures(&sigs).merge_with(cfg.lsh.merge_strategy, cfg.lsh.merge_p);
    let gram = ApproximateGram::from_buckets(&points, &buckets, &cfg.kernel);
    let mut records = Vec::with_capacity(n);
    for (bi, block) in gram.into_blocks().into_iter().enumerate() {
        let ki = bucket_cluster_count(cfg.k, block.members.len(), n);
        let mut spectral = SpectralConfig::new(ki)
            .kernel(cfg.kernel)
            .seed(cfg.seed ^ (bi as u64).wrapping_mul(0x9E37_79B9));
        spectral.lanczos_threshold = cfg.lanczos_threshold;
        let (c, _) = SpectralClustering::new(spectral).run_on_similarity_owned(block.matrix);
        records.extend(
            block
                .members
                .iter()
                .zip(&c.assignments)
                .map(|(&p, &l)| (p, bi, l)),
        );
    }
    let stitched = stitch_distributed(n, cfg.k, &buckets.sizes(), &records);
    let reference = consolidate(&points[..], &stitched, cfg.k, cfg.seed);

    for threads in [1, 2, 4] {
        let fused = Pool::new(threads)
            .install(|| Dasc::new(cfg.clone()).run_with_signatures(&points, &sigs));
        assert_eq!(
            fused.clustering.assignments, reference.assignments,
            "labels differ from the two-phase reference at {threads} threads"
        );
        assert_eq!(fused.approx_gram_bytes, 4 * buckets.approx_gram_entries());
    }
}
