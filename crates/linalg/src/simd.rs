//! Runtime-dispatched SIMD kernel backend for the flat-buffer hot loops.
//!
//! Every O(n²) loop in the pipeline bottoms out in a handful of
//! primitives over contiguous `f64` rows: the unrolled dot product and
//! the 4-column panel kernel behind `gemm::{abt_into, sq_dists_into}`,
//! plus, on the Lanczos path, `axpy` and the one-row, many-vector dot
//! behind the dense block matvec. This module provides explicitly
//! vectorized implementations of those primitives — AVX2+FMA on
//! `x86_64`, NEON on `aarch64` — behind a process-wide
//! [`KernelBackend`] resolved exactly once from the `DASC_KERNEL`
//! environment variable:
//!
//! * `DASC_KERNEL=auto` (or unset) — the best backend the CPU supports,
//!   probed with `is_x86_feature_detected!` / mandated-NEON on aarch64.
//! * `DASC_KERNEL=scalar` — the portable unrolled-scalar kernels,
//!   bitwise identical to the pre-SIMD code on every host.
//! * `DASC_KERNEL=avx2fma` / `DASC_KERNEL=neon` — force a specific SIMD
//!   backend (panics at first use if the host lacks it); useful for
//!   pinning benchmarks and reproducing results.
//!
//! # Determinism contract
//!
//! *Within* a backend, every kernel uses a fixed lane and accumulator
//! layout that depends only on the operand rows and the depth `dim` —
//! never on tiling position or thread count — so parallel drivers
//! chunking over row panels reproduce the single-threaded result bit
//! for bit, exactly as the scalar kernels always have.
//!
//! *Across* backends, results differ in the low bits: FMA contracts the
//! multiply-add rounding step and the lane layout changes the summation
//! order, so cross-backend agreement is tolerance-based (≤ 1e-12
//! entrywise on normalized inputs; see
//! `crates/linalg/tests/simd_equivalence.rs`).
//!
//! # Safety
//!
//! This is the only module in the crate using `unsafe`: the SIMD
//! kernels are `#[target_feature]` functions and the dispatcher only
//! calls them after [`KernelBackend::is_available`] confirmed the CPU
//! feature at resolution time. All loads/stores stay inside the slices
//! passed in; bounds are established by the callers' asserts exactly as
//! on the scalar path.

use std::sync::OnceLock;

/// Which kernel implementation the process uses for the gemm panel,
/// dot, and axpy primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable unrolled-scalar kernels (the pre-SIMD instruction
    /// sequences, bit-identical on every host).
    Scalar,
    /// AVX2 + FMA on `x86_64`: 4-lane f64 vectors, fused multiply-add.
    Avx2Fma,
    /// NEON on `aarch64`: 2-lane f64 vectors, fused multiply-add.
    Neon,
}

impl KernelBackend {
    /// Stable label used in obs metrics, bench JSON, and `DASC_KERNEL`.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2Fma => "avx2fma",
            KernelBackend::Neon => "neon",
        }
    }

    /// Whether this backend can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2Fma => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)] // arms above are cfg-gated
            _ => false,
        }
    }

    /// The best backend the current CPU supports.
    pub fn detect_best() -> Self {
        for candidate in [KernelBackend::Avx2Fma, KernelBackend::Neon] {
            if candidate.is_available() {
                return candidate;
            }
        }
        KernelBackend::Scalar
    }

    /// Every backend available on this host, scalar first — the
    /// enumeration benchmarks iterate to report per-backend throughput.
    pub fn all_available() -> Vec<Self> {
        [
            KernelBackend::Scalar,
            KernelBackend::Avx2Fma,
            KernelBackend::Neon,
        ]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
    }

    /// Parse a `DASC_KERNEL` value against a detected-best backend.
    ///
    /// Split out from [`KernelBackend::resolved`] so the policy is
    /// testable without touching process environment.
    pub fn from_env_value(value: &str, best: Self) -> Result<Self, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(best),
            "scalar" => Ok(KernelBackend::Scalar),
            "avx2fma" => Ok(KernelBackend::Avx2Fma),
            "neon" => Ok(KernelBackend::Neon),
            other => Err(format!(
                "DASC_KERNEL={other:?} is not a kernel backend \
                 (expected auto, scalar, avx2fma, or neon)"
            )),
        }
    }

    /// The process-wide backend, resolved once from `DASC_KERNEL`.
    ///
    /// # Panics
    /// Panics on first use if `DASC_KERNEL` names an unknown backend or
    /// one the host CPU does not support.
    pub fn resolved() -> Self {
        static RESOLVED: OnceLock<KernelBackend> = OnceLock::new();
        *RESOLVED.get_or_init(|| {
            let value = std::env::var("DASC_KERNEL").unwrap_or_default();
            let backend = KernelBackend::from_env_value(&value, KernelBackend::detect_best())
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(
                backend.is_available(),
                "DASC_KERNEL={} requested, but this host does not support it",
                backend.as_str()
            );
            backend
        })
    }
}

/// Dot product of the first `dim` entries of two rows, on an explicit
/// backend. The scalar arm is the gemm `dot1` kernel — the tree's one
/// scalar summation order.
///
/// # Panics
/// Debug builds panic if either slice is shorter than `dim`.
#[inline]
pub fn dot(backend: KernelBackend, a: &[f64], b: &[f64], dim: usize) -> f64 {
    debug_assert!(a.len() >= dim && b.len() >= dim, "simd dot: short operand");
    match backend {
        KernelBackend::Scalar => crate::gemm::dot1(&a[..dim], &b[..dim], dim),
        KernelBackend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: resolution/availability checked before this arm is
            // reachable; pointers cover `dim` elements per the assert.
            unsafe {
                avx2::dot(a.as_ptr(), b.as_ptr(), dim)
            }
            #[cfg(not(target_arch = "x86_64"))]
            crate::gemm::dot1(&a[..dim], &b[..dim], dim)
        }
        KernelBackend::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above.
            unsafe {
                neon::dot(a.as_ptr(), b.as_ptr(), dim)
            }
            #[cfg(not(target_arch = "aarch64"))]
            crate::gemm::dot1(&a[..dim], &b[..dim], dim)
        }
    }
}

/// Vectors per register group in [`dot_many`]: four vectors' two
/// accumulator chains take eight vector registers, leaving room for the
/// row loads.
const DOT_GROUP: usize = 4;

/// Dots of `rows` rows of `a` with `nv` vectors of `xs`, both stored
/// back to back at stride `dim`: `out[r * nv + v]` is row `r` dotted
/// with vector `v`. Each row is loaded once per depth step for a group
/// of up to four vectors, and each output keeps [`dot`]'s own
/// accumulators and reduction order, so it is bit for bit
/// `dot(backend, row r, vector v, dim)`. This is what lets the dense
/// block matvec read each matrix row once for a whole block of vectors.
///
/// # Panics
/// Panics if `a`, `xs` or `out` is shorter than `rows · dim`,
/// `nv · dim` or `rows · nv`.
pub fn dot_many(
    backend: KernelBackend,
    a: &[f64],
    rows: usize,
    xs: &[f64],
    nv: usize,
    dim: usize,
    out: &mut [f64],
) {
    let holds = |len: usize, x: usize, y: usize| x.checked_mul(y).is_some_and(|need| len >= need);
    assert!(
        holds(a.len(), rows, dim) && holds(xs.len(), nv, dim) && holds(out.len(), rows, nv),
        "simd dot_many: short operand"
    );
    if nv == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if backend == KernelBackend::Avx2Fma {
        // SAFETY: availability checked at resolution; operand lengths
        // asserted above.
        unsafe { avx2::dot_many(a.as_ptr(), rows, xs.as_ptr(), nv, dim, out) };
        return;
    }
    for (r, out_row) in out[..rows * nv].chunks_exact_mut(nv).enumerate() {
        let row = &a[r * dim..];
        for (g, chunk) in out_row.chunks_mut(DOT_GROUP).enumerate() {
            let x = &xs[g * DOT_GROUP * dim..];
            match chunk.len() {
                4 => chunk.copy_from_slice(&dot_group::<4>(backend, row, x, dim)),
                3 => chunk.copy_from_slice(&dot_group::<3>(backend, row, x, dim)),
                2 => chunk.copy_from_slice(&dot_group::<2>(backend, row, x, dim)),
                _ => chunk[0] = dot(backend, row, x, dim),
            }
        }
    }
}

/// One row against one register group of vectors, for the backends
/// [`dot_many`] runs row by row: NEON, and scalar (the arm any other
/// backend reaches only on hosts where it cannot be resolved).
#[inline]
fn dot_group<const N: usize>(
    backend: KernelBackend,
    a: &[f64],
    xs: &[f64],
    dim: usize,
) -> [f64; N] {
    match backend {
        KernelBackend::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: availability checked at resolution; `dot_many`
            // asserted `dim` entries behind `a` and `N · dim` behind `xs`.
            unsafe {
                neon::dot_group::<N>(a.as_ptr(), xs.as_ptr(), dim)
            }
            #[cfg(not(target_arch = "aarch64"))]
            crate::gemm::dot1_group::<N>(a, xs, dim)
        }
        _ => crate::gemm::dot1_group::<N>(a, xs, dim),
    }
}

/// `y += alpha * x` on an explicit backend (BLAS `axpy`). Elementwise,
/// so every backend touches `y[i]` exactly once; SIMD backends fuse the
/// multiply-add where the scalar path rounds twice.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(backend: KernelBackend, alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match backend {
        KernelBackend::Scalar => scalar_axpy(alpha, x, y),
        KernelBackend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: availability checked at resolution; equal lengths
            // asserted above.
            unsafe {
                avx2::axpy(alpha, x, y)
            }
            #[cfg(not(target_arch = "x86_64"))]
            scalar_axpy(alpha, x, y)
        }
        KernelBackend::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above.
            unsafe {
                neon::axpy(alpha, x, y)
            }
            #[cfg(not(target_arch = "aarch64"))]
            scalar_axpy(alpha, x, y)
        }
    }
}

/// The pre-SIMD scalar axpy loop, kept verbatim for the scalar backend.
#[inline(always)]
fn scalar_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// AVX2 + FMA kernels (`x86_64`). 4 × f64 per vector register.
///
/// Lane layout is fixed per kernel: accumulators are reduced in a fixed
/// order `(l0 + l2) + (l1 + l3)` and scalar tails are appended after the
/// horizontal sum, so a result depends only on the operands and `dim`.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use core::arch::x86_64::*;

    /// Fixed-order horizontal sum of a 4-lane accumulator:
    /// `(l0 + l2) + (l1 + l3)`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v); // l0, l1
        let hi = _mm256_extractf128_pd(v, 1); // l2, l3
        let s = _mm_add_pd(lo, hi); // l0+l2, l1+l3
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// Unrolled dot product: two 4-lane FMA chains over the depth, then
    /// the fixed-order reduction, then the scalar tail.
    ///
    /// # Safety
    /// Requires AVX2+FMA and `dim` readable elements behind `a`/`b`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: *const f64, b: *const f64, dim: usize) -> f64 {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut k = 0;
        while k + 8 <= dim {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a.add(k)), _mm256_loadu_pd(b.add(k)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(a.add(k + 4)),
                _mm256_loadu_pd(b.add(k + 4)),
                acc1,
            );
            k += 8;
        }
        if k + 4 <= dim {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a.add(k)), _mm256_loadu_pd(b.add(k)), acc0);
            k += 4;
        }
        let mut s = hsum(_mm256_add_pd(acc0, acc1));
        while k < dim {
            s += *a.add(k) * *b.add(k);
            k += 1;
        }
        s
    }

    /// Depth entries per block in [`dot_many`]: 256 `f64`s (2 KiB) of
    /// each of a panel's vectors stay in L1 while the panel's rows
    /// stream past them. A multiple of 8, so blocks end where `dot`'s
    /// 8-step loop does.
    const DEPTH_BLOCK: usize = 256;

    /// [`dot`] of each of `rows` rows against each of `nv` vectors (both
    /// back to back at stride `dim`) into `out[r * nv + v]`, blocked
    /// over the depth: for each depth block, every row runs its groups
    /// of up to four vectors over that block, carrying its two FMA
    /// chains per vector to the next block. Every chain sees the same
    /// FMAs in the same order as in `dot`, and the 4-step remainder,
    /// reduction and scalar tail follow it exactly, so every output is
    /// bit for bit its `dot`.
    ///
    /// # Safety
    /// Requires AVX2+FMA, `rows · dim` readable elements behind `a`,
    /// `nv · dim` behind `xs`, and `out.len() >= rows · nv`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_many(
        a: *const f64,
        rows: usize,
        xs: *const f64,
        nv: usize,
        dim: usize,
        out: &mut [f64],
    ) {
        // Depth covered by `dot`'s 8-step loop.
        let full = dim - dim % 8;
        let mut chains = vec![_mm256_setzero_pd(); 2 * rows * nv];
        let mut k0 = 0;
        while k0 < full {
            let k1 = (k0 + DEPTH_BLOCK).min(full);
            for (r, state) in chains.chunks_exact_mut(2 * nv).enumerate() {
                let row = a.add(r * dim);
                let mut v = 0;
                while v < nv {
                    let x = xs.add(v * dim);
                    let group = &mut state[2 * v..];
                    v += match nv - v {
                        1 => block_group::<1>(row, x, dim, k0, k1, group),
                        2 => block_group::<2>(row, x, dim, k0, k1, group),
                        3 => block_group::<3>(row, x, dim, k0, k1, group),
                        _ => block_group::<4>(row, x, dim, k0, k1, group),
                    };
                }
            }
            k0 = k1;
        }
        for (r, state) in chains.chunks_exact(2 * nv).enumerate() {
            let row = a.add(r * dim);
            for v in 0..nv {
                let x = xs.add(v * dim);
                let (mut acc0, acc1) = (state[2 * v], state[2 * v + 1]);
                let mut k = full;
                if k + 4 <= dim {
                    acc0 = _mm256_fmadd_pd(
                        _mm256_loadu_pd(row.add(k)),
                        _mm256_loadu_pd(x.add(k)),
                        acc0,
                    );
                    k += 4;
                }
                let mut s = hsum(_mm256_add_pd(acc0, acc1));
                for t in k..dim {
                    s += *row.add(t) * *x.add(t);
                }
                out[r * nv + v] = s;
            }
        }
    }

    /// `dot`'s 8-step loop over depth `k0..k1` of one row against `N`
    /// vectors at stride `dim`, continuing the chains in `state`
    /// (`acc0, acc1` per vector). Returns `N`.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `k1 <= dim` entries behind `a` and each
    /// vector, `k1 - k0` a multiple of 8, `state.len() >= 2N`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn block_group<const N: usize>(
        a: *const f64,
        xs: *const f64,
        dim: usize,
        k0: usize,
        k1: usize,
        state: &mut [__m256d],
    ) -> usize {
        let x: [*const f64; N] = std::array::from_fn(|v| xs.add(v * dim));
        let mut acc0: [__m256d; N] = std::array::from_fn(|v| state[2 * v]);
        let mut acc1: [__m256d; N] = std::array::from_fn(|v| state[2 * v + 1]);
        let mut k = k0;
        while k < k1 {
            let (a0, a1) = (_mm256_loadu_pd(a.add(k)), _mm256_loadu_pd(a.add(k + 4)));
            for v in 0..N {
                acc0[v] = _mm256_fmadd_pd(a0, _mm256_loadu_pd(x[v].add(k)), acc0[v]);
                acc1[v] = _mm256_fmadd_pd(a1, _mm256_loadu_pd(x[v].add(k + 4)), acc1[v]);
            }
            k += 8;
        }
        for v in 0..N {
            state[2 * v] = acc0[v];
            state[2 * v + 1] = acc1[v];
        }
        N
    }

    /// Panel kernel: one `A` row against four `B` rows, one 4-lane FMA
    /// accumulator per `B` row; the `A` vector is loaded once per depth
    /// step and reused across all four columns.
    ///
    /// # Safety
    /// Requires AVX2+FMA and `dim` readable elements behind every
    /// pointer.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)] // mirrors the scalar dot4 operands
    pub unsafe fn dot4(
        a: *const f64,
        b0: *const f64,
        b1: *const f64,
        b2: *const f64,
        b3: *const f64,
        dim: usize,
    ) -> [f64; 4] {
        let mut c0 = _mm256_setzero_pd();
        let mut c1 = _mm256_setzero_pd();
        let mut c2 = _mm256_setzero_pd();
        let mut c3 = _mm256_setzero_pd();
        let mut k = 0;
        while k + 4 <= dim {
            let av = _mm256_loadu_pd(a.add(k));
            c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b0.add(k)), c0);
            c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b1.add(k)), c1);
            c2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b2.add(k)), c2);
            c3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b3.add(k)), c3);
            k += 4;
        }
        let mut out = [hsum(c0), hsum(c1), hsum(c2), hsum(c3)];
        while k < dim {
            let av = *a.add(k);
            out[0] += av * *b0.add(k);
            out[1] += av * *b1.add(k);
            out[2] += av * *b2.add(k);
            out[3] += av * *b3.add(k);
            k += 1;
        }
        out
    }

    /// Fused `y += alpha * x`.
    ///
    /// # Safety
    /// Requires AVX2+FMA; slice lengths must match (caller asserts).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let av = _mm256_set1_pd(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut k = 0;
        while k + 4 <= n {
            let fused = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(k)), _mm256_loadu_pd(yp.add(k)));
            _mm256_storeu_pd(yp.add(k), fused);
            k += 4;
        }
        while k < n {
            *yp.add(k) = alpha.mul_add(*xp.add(k), *yp.add(k));
            k += 1;
        }
    }

    /// The full tiled `A·Bᵀ` panel driver, compiled as one AVX2+FMA
    /// region so [`dot`]/[`dot4`] inline into the tile loop. The tiling
    /// structure mirrors the scalar driver in `gemm.rs` exactly: same
    /// `tile`-column B tiles, same 4-row groups on contiguous B, same
    /// remainder order — only the inner kernel differs.
    ///
    /// # Safety
    /// Requires AVX2+FMA. The caller must have validated the shapes
    /// (`gemm::panel_driver_with` asserts before dispatching here).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)] // BLAS-style panel signature
    pub unsafe fn panel<F>(
        a: &[f64],
        ma: usize,
        lda: usize,
        b: &[f64],
        nb: usize,
        ldb: usize,
        dim: usize,
        out: &mut [f64],
        ldc: usize,
        tile: usize,
        finish: F,
    ) where
        F: Fn(usize, usize, f64) -> f64 + Copy,
    {
        let contiguous_b = ldb == dim;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for jb in (0..nb).step_by(tile) {
            let jend = (jb + tile).min(nb);
            for i in 0..ma {
                let ai = ap.add(i * lda);
                let orow = &mut out[i * ldc + jb..i * ldc + jend];
                let mut j = jb;
                if contiguous_b {
                    while j + 4 <= jend {
                        let brow = bp.add(j * dim);
                        let d = dot4(
                            ai,
                            brow,
                            brow.add(dim),
                            brow.add(2 * dim),
                            brow.add(3 * dim),
                            dim,
                        );
                        orow[j - jb] = finish(i, j, d[0]);
                        orow[j + 1 - jb] = finish(i, j + 1, d[1]);
                        orow[j + 2 - jb] = finish(i, j + 2, d[2]);
                        orow[j + 3 - jb] = finish(i, j + 3, d[3]);
                        j += 4;
                    }
                }
                while j < jend {
                    let d = dot(ai, bp.add(j * ldb), dim);
                    orow[j - jb] = finish(i, j, d);
                    j += 1;
                }
            }
        }
    }
}

/// NEON kernels (`aarch64`). 2 × f64 per vector register; FMA via
/// `vfmaq_f64`. Same fixed-layout rules as the AVX2 module.
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use core::arch::aarch64::*;

    /// Unrolled dot product: two 2-lane FMA chains, fixed-order lane
    /// reduction (`vaddvq` adds lane 0 then lane 1), scalar tail last.
    ///
    /// # Safety
    /// Requires NEON and `dim` readable elements behind `a`/`b`.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot(a: *const f64, b: *const f64, dim: usize) -> f64 {
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut k = 0;
        while k + 4 <= dim {
            acc0 = vfmaq_f64(acc0, vld1q_f64(a.add(k)), vld1q_f64(b.add(k)));
            acc1 = vfmaq_f64(acc1, vld1q_f64(a.add(k + 2)), vld1q_f64(b.add(k + 2)));
            k += 4;
        }
        if k + 2 <= dim {
            acc0 = vfmaq_f64(acc0, vld1q_f64(a.add(k)), vld1q_f64(b.add(k)));
            k += 2;
        }
        let mut s = vaddvq_f64(vaddq_f64(acc0, acc1));
        while k < dim {
            s += *a.add(k) * *b.add(k);
            k += 1;
        }
        s
    }

    /// [`dot`] of one row against `N` vectors stored back to back at
    /// stride `dim`: the row vectors are loaded once per depth step for
    /// all `N`, and each vector keeps `dot`'s two FMA chains, reduction
    /// and scalar tail, so every output is bit for bit its `dot`.
    ///
    /// # Safety
    /// Requires NEON, `dim` readable elements behind `a` and `N · dim`
    /// behind `xs`.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot_group<const N: usize>(a: *const f64, xs: *const f64, dim: usize) -> [f64; N] {
        let x: [*const f64; N] = std::array::from_fn(|v| xs.add(v * dim));
        let mut acc0 = [vdupq_n_f64(0.0); N];
        let mut acc1 = [vdupq_n_f64(0.0); N];
        let mut k = 0;
        while k + 4 <= dim {
            let (a0, a1) = (vld1q_f64(a.add(k)), vld1q_f64(a.add(k + 2)));
            for v in 0..N {
                acc0[v] = vfmaq_f64(acc0[v], a0, vld1q_f64(x[v].add(k)));
                acc1[v] = vfmaq_f64(acc1[v], a1, vld1q_f64(x[v].add(k + 2)));
            }
            k += 4;
        }
        if k + 2 <= dim {
            let a0 = vld1q_f64(a.add(k));
            for v in 0..N {
                acc0[v] = vfmaq_f64(acc0[v], a0, vld1q_f64(x[v].add(k)));
            }
            k += 2;
        }
        let mut out = [0.0; N];
        for v in 0..N {
            let mut s = vaddvq_f64(vaddq_f64(acc0[v], acc1[v]));
            for t in k..dim {
                s += *a.add(t) * *x[v].add(t);
            }
            out[v] = s;
        }
        out
    }

    /// Panel kernel: one `A` row against four `B` rows, one 2-lane FMA
    /// accumulator per `B` row.
    ///
    /// # Safety
    /// Requires NEON and `dim` readable elements behind every pointer.
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)] // mirrors the scalar dot4 operands
    pub unsafe fn dot4(
        a: *const f64,
        b0: *const f64,
        b1: *const f64,
        b2: *const f64,
        b3: *const f64,
        dim: usize,
    ) -> [f64; 4] {
        let mut c0 = vdupq_n_f64(0.0);
        let mut c1 = vdupq_n_f64(0.0);
        let mut c2 = vdupq_n_f64(0.0);
        let mut c3 = vdupq_n_f64(0.0);
        let mut k = 0;
        while k + 2 <= dim {
            let av = vld1q_f64(a.add(k));
            c0 = vfmaq_f64(c0, av, vld1q_f64(b0.add(k)));
            c1 = vfmaq_f64(c1, av, vld1q_f64(b1.add(k)));
            c2 = vfmaq_f64(c2, av, vld1q_f64(b2.add(k)));
            c3 = vfmaq_f64(c3, av, vld1q_f64(b3.add(k)));
            k += 2;
        }
        let mut out = [
            vaddvq_f64(c0),
            vaddvq_f64(c1),
            vaddvq_f64(c2),
            vaddvq_f64(c3),
        ];
        if k < dim {
            let av = *a.add(k);
            out[0] += av * *b0.add(k);
            out[1] += av * *b1.add(k);
            out[2] += av * *b2.add(k);
            out[3] += av * *b3.add(k);
        }
        out
    }

    /// Fused `y += alpha * x`.
    ///
    /// # Safety
    /// Requires NEON; slice lengths must match (caller asserts).
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let av = vdupq_n_f64(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut k = 0;
        while k + 2 <= n {
            vst1q_f64(
                yp.add(k),
                vfmaq_f64(vld1q_f64(yp.add(k)), av, vld1q_f64(xp.add(k))),
            );
            k += 2;
        }
        if k < n {
            *yp.add(k) = alpha.mul_add(*xp.add(k), *yp.add(k));
        }
    }

    /// The full tiled `A·Bᵀ` panel driver in one NEON region; tiling
    /// structure mirrors the scalar driver in `gemm.rs` exactly.
    ///
    /// # Safety
    /// Requires NEON. The caller must have validated the shapes
    /// (`gemm::panel_driver_with` asserts before dispatching here).
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)] // BLAS-style panel signature
    pub unsafe fn panel<F>(
        a: &[f64],
        ma: usize,
        lda: usize,
        b: &[f64],
        nb: usize,
        ldb: usize,
        dim: usize,
        out: &mut [f64],
        ldc: usize,
        tile: usize,
        finish: F,
    ) where
        F: Fn(usize, usize, f64) -> f64 + Copy,
    {
        let contiguous_b = ldb == dim;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for jb in (0..nb).step_by(tile) {
            let jend = (jb + tile).min(nb);
            for i in 0..ma {
                let ai = ap.add(i * lda);
                let orow = &mut out[i * ldc + jb..i * ldc + jend];
                let mut j = jb;
                if contiguous_b {
                    while j + 4 <= jend {
                        let brow = bp.add(j * dim);
                        let d = dot4(
                            ai,
                            brow,
                            brow.add(dim),
                            brow.add(2 * dim),
                            brow.add(3 * dim),
                            dim,
                        );
                        orow[j - jb] = finish(i, j, d[0]);
                        orow[j + 1 - jb] = finish(i, j + 1, d[1]);
                        orow[j + 2 - jb] = finish(i, j + 2, d[2]);
                        orow[j + 3 - jb] = finish(i, j + 3, d[3]);
                        j += 4;
                    }
                }
                while j < jend {
                    let d = dot(ai, bp.add(j * ldb), dim);
                    orow[j - jb] = finish(i, j, d);
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(KernelBackend::Scalar.is_available());
        assert!(KernelBackend::all_available().contains(&KernelBackend::Scalar));
        assert_eq!(KernelBackend::all_available()[0], KernelBackend::Scalar);
    }

    #[test]
    fn detect_best_is_available() {
        assert!(KernelBackend::detect_best().is_available());
    }

    #[test]
    fn env_policy() {
        let best = KernelBackend::detect_best();
        assert_eq!(KernelBackend::from_env_value("", best), Ok(best));
        assert_eq!(KernelBackend::from_env_value("auto", best), Ok(best));
        assert_eq!(KernelBackend::from_env_value(" AUTO ", best), Ok(best));
        assert_eq!(
            KernelBackend::from_env_value("scalar", best),
            Ok(KernelBackend::Scalar)
        );
        assert_eq!(
            KernelBackend::from_env_value("avx2fma", best),
            Ok(KernelBackend::Avx2Fma)
        );
        assert_eq!(
            KernelBackend::from_env_value("neon", best),
            Ok(KernelBackend::Neon)
        );
        assert!(KernelBackend::from_env_value("sse9", best).is_err());
    }

    #[test]
    fn resolved_is_stable_and_available() {
        let a = KernelBackend::resolved();
        let b = KernelBackend::resolved();
        assert_eq!(a, b);
        assert!(a.is_available());
    }

    #[test]
    fn labels_round_trip() {
        for be in [
            KernelBackend::Scalar,
            KernelBackend::Avx2Fma,
            KernelBackend::Neon,
        ] {
            assert_eq!(
                KernelBackend::from_env_value(be.as_str(), KernelBackend::Scalar),
                Ok(be)
            );
        }
    }

    #[test]
    fn dispatched_dot_matches_scalar_within_tolerance() {
        for dim in [0usize, 1, 2, 3, 4, 7, 8, 15, 63, 64, 65] {
            let a: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.61).cos()).collect();
            let want = dot(KernelBackend::Scalar, &a, &b, dim);
            for be in KernelBackend::all_available() {
                let got = dot(be, &a, &b, dim);
                assert!(
                    (got - want).abs() <= 1e-12,
                    "{} dim={dim}: {got} vs {want}",
                    be.as_str()
                );
            }
        }
    }

    #[test]
    fn dispatched_axpy_matches_scalar_within_tolerance() {
        for n in [0usize, 1, 2, 3, 5, 8, 17, 64, 65] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
            let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).cos()).collect();
            let mut want = base.clone();
            axpy(KernelBackend::Scalar, 1.75, &x, &mut want);
            for be in KernelBackend::all_available() {
                let mut got = base.clone();
                axpy(be, 1.75, &x, &mut got);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() <= 1e-12, "{} n={n}", be.as_str());
                }
            }
        }
    }
}
