//! The native low-precision GEMM kernel over pre-encoded integer words.
//!
//! This is the compute core behind the quantized fast path: instead of
//! snapping values to the format grid and multiplying in f32 (the
//! Ristretto-style simulation in `qnn-quant`), callers pre-encode both
//! operands as two's-complement i16 raws and the kernel accumulates in
//! i32. Every packable weight kind — fixed-point, binary `±2^e` and narrow
//! power-of-two — reaches it as i16 raws scaled by a power of two, so one
//! kernel serves them all: a register-blocked 4×16 microkernel over a
//! packed-B panel ([`PanelB`]) built on `vpmaddwd`, with the requantize
//! epilogue fused into its row tail ([`gemm_nt_i16_panel_emit`]). The
//! committed `BENCH_kernels.json` (256³, 1 thread, through the dispatch
//! entry in `qnn_quant::packed`) times it at 2.02× (fixed8), 2.25×
//! (fixed16), 1.80× (binary ±1 weights × fixed16) and 2.37× (pow2) the
//! f32 GEMM of [`crate::gemm`], measured against that GEMM's vectorized
//! AVX2 build.
//!
//! The kernels compute the **NT** product `C[i][j] = dot(A.row(i), B.row(j))`
//! — both operands are k-contiguous, which is the layout the dense layer
//! (activations × weightsᵀ) and the im2col'd convolution (weights × colsᵀ)
//! both want. [`gemm_nt_i16`] is the plain row-at-a-time reference the
//! microkernel is tested against.
//!
//! ## Exactness contract
//!
//! Integer arithmetic is associative, so unlike the f32 GEMM in
//! [`crate::gemm`] these kernels are bit-identical at any thread count *and*
//! any summation order by construction. The caller must guarantee
//! `Σ_k |A[i][k] · B[j][k]| <= i32::MAX` for every output (the quantized
//! dispatch enforces the far stricter `<= 2^24` certificate from
//! `qnn_quant::packed`, which also makes the final requantize-to-f32
//! exact). Under that bound no partial sum can overflow — not even
//! reassociated SIMD partials — so debug and release builds agree.
//!
//! ## SIMD dispatch
//!
//! rustc's default x86-64 baseline is SSE2, which leaves the 256-bit
//! `vpmaddwd` on the table. The microkernel is written twice over the same
//! tile walk and panel reads: a plain scalar instantiation, and a
//! `#[target_feature(enable = "avx2")]` one selected at runtime via
//! [`crate::has_avx2`]. Both run the same integer products, so
//! feature detection can never change results. The `unsafe` at the call
//! site is the narrow, standard obligation of `target_feature` dispatch:
//! the feature was verified on this CPU.

use crate::conv::{im2col_runs, Geometry, PatchSink};
use crate::error::TensorError;
use crate::par;

/// Trace counter: kernel invocations.
const CTR_CALLS: &str = "tensor.qgemm.calls";
/// Trace counter: packed multiply-accumulate operations (`m·k·n`).
const CTR_PACKED_OPS: &str = "tensor.qgemm.packed_ops";

/// Output rows per parallel work unit. Fixed (not derived from the thread
/// count) so the partition is deterministic; integer math makes any
/// partition bit-identical anyway.
const ROWS_PER_TASK: usize = 8;

/// Expands to a runtime-dispatched call of a kernel body: on x86-64 with
/// AVX2, through its `#[target_feature]` instantiation; otherwise the plain
/// safe one. Same integer results either way.
macro_rules! dispatch {
    ($body:ident, $avx2:ident, ($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if crate::has_avx2() {
                // SAFETY: `has_avx2` verified avx2 on this CPU, which is the
                // only precondition of the target_feature wrapper.
                unsafe { $avx2($($arg),*) }
            } else {
                $body($($arg),*)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            $body($($arg),*)
        }
    }};
}

/// `C[i][j] = Σ_k A[i][k]·B[j][k]` over i16 words with i32 accumulation,
/// one output at a time — the reference the panel microkernel is tested
/// against.
///
/// `a` is `m×k` row-major, `b` is `n×k` row-major (i.e. Bᵀ), `c` is
/// `m×n`. Caller contract: `Σ_k |A[i][k]·B[j][k]| <= i32::MAX` for every
/// output (see module docs).
pub fn gemm_nt_i16(m: usize, k: usize, n: usize, a: &[i16], b: &[i16], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "A must be m*k");
    assert_eq!(b.len(), n * k, "B must be n*k (row-major transposed)");
    assert_eq!(c.len(), m * n, "C must be m*n");
    for (i, crow) in c.chunks_exact_mut(n.max(1)).enumerate() {
        let ar = &a[i * k..(i + 1) * k];
        for (j, cv) in crow.iter_mut().enumerate() {
            let br = &b[j * k..(j + 1) * k];
            *cv = ar.iter().zip(br).map(|(&x, &y)| x as i32 * y as i32).sum();
        }
    }
}

// ---------------------------------------------------------------------------
// Register-blocked panel microkernel (MR×NR tiles over packed B)
// ---------------------------------------------------------------------------

/// Columns per packed-B panel: one microkernel tile covers `MR_I16` rows of
/// A against `PANEL_NR` rows of B, held in ymm accumulator banks.
pub const PANEL_NR: usize = 16;

/// Rows of A per microkernel tile.
pub const MR_I16: usize = 4;

/// B packed for the register-blocked i16 microkernel: `PANEL_NR`-column
/// panels with the reduction dimension interleaved in adjacent-`k` pairs,
/// which is exactly the operand shape `vpmaddwd` consumes (each 32-bit
/// lane holds one column's `(b[2g], b[2g+1])` pair).
///
/// Layout: `ceil(n/NR)` panels, each `ceil(k/2)` groups of `2·NR` words;
/// group `g` of panel `p` stores `[b(j,2g), b(j,2g+1)]` for the `NR`
/// columns `j = p·NR ..`, zero-padded past `n` columns and past `k` for
/// odd `k`. Packing is cheap (one pass over B) and done **once per weight
/// tensor** — plans live in the layers' bit-compare-validated PlanCache,
/// so the cost amortizes across every batched forward and serve request.
#[derive(Debug, Clone, Default)]
pub struct PanelB {
    n: usize,
    k: usize,
    data: Vec<i16>,
}

impl PanelB {
    /// Packs `b` (`n×k` row-major, i.e. Bᵀ — the NT kernels' B operand)
    /// into microkernel panels.
    pub fn pack(n: usize, k: usize, b: &[i16]) -> PanelB {
        assert_eq!(b.len(), n * k, "B must be n*k (row-major transposed)");
        let kg = k.div_ceil(2);
        let panels = n.div_ceil(PANEL_NR);
        let mut data = vec![0i16; panels * kg * 2 * PANEL_NR];
        for p in 0..panels {
            let j0 = p * PANEL_NR;
            let ncols = (n - j0).min(PANEL_NR);
            let base = p * kg * 2 * PANEL_NR;
            for c in 0..ncols {
                let row = &b[(j0 + c) * k..(j0 + c + 1) * k];
                for (g, pair) in row.chunks(2).enumerate() {
                    let off = base + g * 2 * PANEL_NR + 2 * c;
                    data[off] = pair[0];
                    if let Some(&b1) = pair.get(1) {
                        data[off + 1] = b1;
                    }
                }
            }
        }
        PanelB { n, k, data }
    }

    /// Repacks this panel in place as the patch matrix of one `(c, h, w)`
    /// image of i16 raws under `geom`: row `p` is output pixel `p`'s
    /// receptive field in `(c, kh, kw)` order, `0` for padding taps. The
    /// words equal [`PanelB::pack`] of the transposed im2col of `image`,
    /// but no patch matrix is built: the im2col walk writes each tap into
    /// its panel slot directly. Returns `(oh, ow)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry is impossible for `(h, w)`; panics
    /// if `image` is not `c·h·w` long.
    pub fn pack_patches(
        &mut self,
        image: &[i16],
        c: usize,
        h: usize,
        w: usize,
        geom: Geometry,
    ) -> Result<(usize, usize), TensorError> {
        let (oh, ow) = geom.output_hw(h, w)?;
        assert_eq!(image.len(), c * h * w, "image slice length mismatch");
        let (n, k) = (oh * ow, c * geom.kh * geom.kw);
        self.reset(n, k);
        im2col_runs(image, c, h, w, geom, oh, ow, self);
        Ok((oh, ow))
    }

    /// Sizes the panel for `n` rows of length `k` and zeroes its padding:
    /// the slots past row `n` in the last panel, and the pair partner past
    /// `k` when `k` is odd. Every other slot must then be written.
    fn reset(&mut self, n: usize, k: usize) {
        (self.n, self.k) = (n, k);
        let kg = k.div_ceil(2);
        let pstride = kg * 2 * PANEL_NR;
        self.data.resize(n.div_ceil(PANEL_NR) * pstride, 0);
        if !n.is_multiple_of(PANEL_NR) {
            let tail = 2 * (n % PANEL_NR);
            for grp in self.data[(n / PANEL_NR) * pstride..].chunks_exact_mut(2 * PANEL_NR) {
                grp[tail..].fill(0);
            }
        }
        if k % 2 == 1 {
            for pan in self.data.chunks_exact_mut(pstride) {
                for slot in pan[pstride - 2 * PANEL_NR..].iter_mut().skip(1).step_by(2) {
                    *slot = 0;
                }
            }
        }
    }

    /// Writes `val(t)` to element `(col + t, row)` for `t < len`.
    #[inline(always)]
    fn put(&mut self, row: usize, col: usize, len: usize, mut val: impl FnMut(usize) -> i16) {
        let pstride = self.k.div_ceil(2) * 2 * PANEL_NR;
        let lane = (row / 2) * 2 * PANEL_NR + row % 2;
        for t in 0..len {
            let j = col + t;
            self.data[(j / PANEL_NR) * pstride + lane + 2 * (j % PANEL_NR)] = val(t);
        }
    }

    /// Output-column count (`n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction length (`k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The packed panel words (layout documented on the type).
    pub fn words(&self) -> &[i16] {
        &self.data
    }

    /// Reads element `(j, kk)` back out of the panel layout — the
    /// round-trip inverse of [`PanelB::pack`], used by the layout
    /// property tests and the benches' self-checks. Indices may extend to
    /// the *physical* panel footprint (`n`/`k` rounded up to the 16-wide /
    /// pair-of-k tile), where the packer guarantees zeros — the microkernel
    /// multiplies those lanes unconditionally.
    pub fn read(&self, j: usize, kk: usize) -> i16 {
        assert!(
            j < self.n.div_ceil(PANEL_NR) * PANEL_NR && kk < self.k.div_ceil(2) * 2,
            "panel read out of bounds"
        );
        let kg = self.k.div_ceil(2);
        let base = (j / PANEL_NR) * kg * 2 * PANEL_NR;
        self.data[base + (kk / 2) * 2 * PANEL_NR + 2 * (j % PANEL_NR) + (kk % 2)]
    }
}

impl PatchSink<i16> for PanelB {
    fn zeros(&mut self, row: usize, col: usize, len: usize) {
        self.put(row, col, len, |_| 0);
    }

    fn taps(&mut self, row: usize, col: usize, len: usize, taps: &[i16], stride: usize) {
        self.put(row, col, len, |t| taps[t * stride]);
    }
}

/// Scalar instantiation of the panel microkernel: same tile walk, same
/// panel reads, plain integer arithmetic. Integer accumulation is exact in
/// any order, so this agrees bit-for-bit with the AVX2 tile kernel.
#[inline(always)]
fn panel_rows_i16(k: usize, n: usize, a_rows: &[i16], panel: &[i16], c: &mut [i32]) {
    let rows = a_rows.len().checked_div(k).unwrap_or(0);
    let kg = k.div_ceil(2);
    let pstride = (kg * 2 * PANEL_NR).max(1);
    for (pi, pan) in panel.chunks(pstride).enumerate() {
        let j0 = pi * PANEL_NR;
        let ncols = (n - j0).min(PANEL_NR);
        for r in 0..rows {
            let ar = &a_rows[r * k..(r + 1) * k];
            let mut acc = [0i32; PANEL_NR];
            for g in 0..kg {
                let grp = &pan[g * 2 * PANEL_NR..(g + 1) * 2 * PANEL_NR];
                let a0 = ar[2 * g] as i32;
                let a1 = if 2 * g + 1 < k {
                    ar[2 * g + 1] as i32
                } else {
                    0
                };
                for (cc, av) in acc.iter_mut().enumerate() {
                    *av += a0 * grp[2 * cc] as i32 + a1 * grp[2 * cc + 1] as i32;
                }
            }
            c[r * n + j0..r * n + j0 + ncols].copy_from_slice(&acc[..ncols]);
        }
    }
}

/// The register-blocked AVX2 microkernel: `MR_I16×PANEL_NR` output tiles
/// held in eight ymm accumulators, fed by `vpbroadcastd` pair-broadcasts
/// of A and two panel loads per k-pair, multiplied with `vpmaddwd`
/// (16 MACs/instruction) and accumulated with `vpaddd`.
///
/// Under the caller contract (`Σ_k |A[i][k]·B[j][k]| <= i32::MAX` per
/// output) no `vpmaddwd` pair-sum or `vpaddd` partial can overflow — every
/// partial is bounded by the sum of absolute products — so the result is
/// bit-identical to [`panel_rows_i16`] and to the row-at-a-time reference
/// [`gemm_nt_i16`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn panel_rows_i16_avx2(k: usize, n: usize, a_rows: &[i16], panel: &[i16], c: &mut [i32]) {
    use std::arch::x86_64::*;
    let rows = a_rows.len().checked_div(k).unwrap_or(0);
    let kfull = k / 2;
    let kg = k.div_ceil(2);
    let pstride = (kg * 2 * PANEL_NR).max(1);
    for (pi, pan) in panel.chunks(pstride).enumerate() {
        let j0 = pi * PANEL_NR;
        let ncols = (n - j0).min(PANEL_NR);
        let pbase = pan.as_ptr();
        let mut r = 0;
        while r < rows {
            let mr = (rows - r).min(MR_I16);
            // Row indices clamped to the tile: a short tail tile recomputes
            // its last row in the spare accumulators (never reading outside
            // A) and simply doesn't store the duplicates.
            let ap = [
                a_rows.as_ptr().add(r * k),
                a_rows.as_ptr().add((r + 1.min(mr - 1)) * k),
                a_rows.as_ptr().add((r + 2.min(mr - 1)) * k),
                a_rows.as_ptr().add((r + 3.min(mr - 1)) * k),
            ];
            let mut acc = [[_mm256_setzero_si256(); 2]; MR_I16];
            for g in 0..kfull {
                // SAFETY: group g of this panel spans `pbase + 32g ..+32`,
                // in bounds by the panel layout; the A pair reads cover
                // elements 2g and 2g+1 < k of rows < `rows`.
                let b0 = _mm256_loadu_si256(pbase.add(g * 2 * PANEL_NR) as *const __m256i);
                let b1 =
                    _mm256_loadu_si256(pbase.add(g * 2 * PANEL_NR + PANEL_NR) as *const __m256i);
                for (i, acc_i) in acc.iter_mut().enumerate() {
                    let pair = (ap[i].add(2 * g) as *const i32).read_unaligned();
                    let av = _mm256_set1_epi32(pair);
                    acc_i[0] = _mm256_add_epi32(acc_i[0], _mm256_madd_epi16(av, b0));
                    acc_i[1] = _mm256_add_epi32(acc_i[1], _mm256_madd_epi16(av, b1));
                }
            }
            if k % 2 == 1 {
                // Odd-k tail: the panel pads the pair partner with zero;
                // build the matching `(a[k-1], 0)` broadcast from the lone
                // element so no read ever crosses the end of an A row.
                let g = kfull;
                let b0 = _mm256_loadu_si256(pbase.add(g * 2 * PANEL_NR) as *const __m256i);
                let b1 =
                    _mm256_loadu_si256(pbase.add(g * 2 * PANEL_NR + PANEL_NR) as *const __m256i);
                for (i, acc_i) in acc.iter_mut().enumerate() {
                    let lone = ap[i].add(k - 1).read() as u16 as u32;
                    let av = _mm256_set1_epi32(lone as i32);
                    acc_i[0] = _mm256_add_epi32(acc_i[0], _mm256_madd_epi16(av, b0));
                    acc_i[1] = _mm256_add_epi32(acc_i[1], _mm256_madd_epi16(av, b1));
                }
            }
            for (i, acc_i) in acc.iter().enumerate().take(mr) {
                let crow = &mut c[(r + i) * n + j0..(r + i) * n + j0 + ncols];
                if ncols == PANEL_NR {
                    // SAFETY: crow spans 16 i32s, checked by the slice above.
                    _mm256_storeu_si256(crow.as_mut_ptr() as *mut __m256i, acc_i[0]);
                    _mm256_storeu_si256(crow.as_mut_ptr().add(8) as *mut __m256i, acc_i[1]);
                } else {
                    let mut tmp = [0i32; PANEL_NR];
                    _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, acc_i[0]);
                    _mm256_storeu_si256(tmp.as_mut_ptr().add(8) as *mut __m256i, acc_i[1]);
                    crow.copy_from_slice(&tmp[..ncols]);
                }
            }
            r += mr;
        }
    }
}

/// Runs the panel microkernel over one row chunk (AVX2 when available,
/// scalar instantiation otherwise — bit-identical either way).
fn panel_chunk_i16(k: usize, n: usize, a_rows: &[i16], panel: &PanelB, c: &mut [i32]) {
    debug_assert_eq!(panel.k, k);
    debug_assert_eq!(panel.n, n);
    dispatch!(
        panel_rows_i16,
        panel_rows_i16_avx2,
        (k, n, a_rows, &panel.data, c)
    );
}

/// `C[i][j] = Σ_k A[i][k]·B[j][k]` through the register-blocked microkernel
/// over a pre-packed B panel. Same layout and caller contract as
/// [`gemm_nt_i16`]; bit-identical output, substantially faster when the
/// panel is reused across calls (the plan-cache case).
pub fn gemm_nt_i16_panel(m: usize, k: usize, n: usize, a: &[i16], panel: &PanelB, c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "A must be m*k");
    assert_eq!((panel.n, panel.k), (n, k), "panel shape mismatch");
    assert_eq!(c.len(), m * n, "C must be m*n");
    qnn_trace::counter!(CTR_CALLS, 1);
    qnn_trace::counter!(CTR_PACKED_OPS, (m * k * n) as u64);
    if k == 0 {
        c.fill(0);
        return;
    }
    par::for_each_chunk_mut(c, ROWS_PER_TASK * n, |ci, chunk| {
        let rows = chunk.len() / n;
        let start = ci * ROWS_PER_TASK;
        panel_chunk_i16(k, n, &a[start * k..(start + rows) * k], panel, chunk);
    });
}

/// [`gemm_nt_i16_panel`] with a **fused epilogue**: instead of
/// materialising the whole `m×n` i32 accumulator tensor, each row chunk's
/// accumulators stay in a chunk-local scratch and `emit(row, acc_row,
/// out_row)` converts them to the caller's output (requantize + bias +
/// output-precision snap in `qnn-quant`) while the tile is still hot in
/// cache. `emit` must be elementwise-deterministic; it runs exactly once
/// per output row, in any order across chunks.
pub fn gemm_nt_i16_panel_emit<F>(
    m: usize,
    k: usize,
    n: usize,
    a: &[i16],
    panel: &PanelB,
    out: &mut [f32],
    emit: F,
) where
    F: Fn(usize, &[i32], &mut [f32]) + Sync,
{
    assert_eq!(a.len(), m * k, "A must be m*k");
    assert_eq!((panel.n, panel.k), (n, k), "panel shape mismatch");
    assert_eq!(out.len(), m * n, "out must be m*n");
    qnn_trace::counter!(CTR_CALLS, 1);
    qnn_trace::counter!(CTR_PACKED_OPS, (m * k * n) as u64);
    par::for_each_chunk_mut(out, ROWS_PER_TASK * n, |ci, chunk| {
        let rows = chunk.len() / n;
        let start = ci * ROWS_PER_TASK;
        let mut acc = vec![0i32; rows * n];
        if k > 0 {
            panel_chunk_i16(k, n, &a[start * k..(start + rows) * k], panel, &mut acc);
        }
        for (i, (arow, orow)) in acc
            .chunks_exact(n)
            .zip(chunk.chunks_exact_mut(n))
            .enumerate()
        {
            emit(start + i, arow, orow);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn panel_matches_reference_and_threads_agree() {
        let mut rng = seeded(12);
        let (m, k, n) = (33, 64, 17);
        let a: Vec<i16> = (0..m * k)
            .map(|_| rng.gen_range(-255i64..256) as i16)
            .collect();
        let b: Vec<i16> = (0..n * k)
            .map(|_| rng.gen_range(-255i64..256) as i16)
            .collect();
        let mut reference = vec![0i32; m * n];
        gemm_nt_i16(m, k, n, &a, &b, &mut reference);
        let panel = PanelB::pack(n, k, &b);
        for t in [1usize, 4] {
            crate::par::set_threads(Some(t));
            let mut c = vec![0i32; m * n];
            gemm_nt_i16_panel(m, k, n, &a, &panel, &mut c);
            assert_eq!(c, reference, "threads={t}");
        }
        crate::par::set_threads(None);
    }

    #[test]
    fn empty_k_zeroes_output() {
        let mut c = vec![7i32; 6];
        gemm_nt_i16(2, 0, 3, &[], &[], &mut c);
        assert!(c.iter().all(|&v| v == 0));
        let mut c = vec![7i32; 6];
        gemm_nt_i16_panel(2, 0, 3, &[], &PanelB::pack(3, 0, &[]), &mut c);
        assert!(c.iter().all(|&v| v == 0));
    }
}
