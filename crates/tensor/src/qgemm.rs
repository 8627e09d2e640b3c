//! The native low-precision GEMM kernel over pre-encoded integer words.
//!
//! This is the compute core behind the quantized fast path: instead of
//! snapping values to the format grid and multiplying in f32 (the
//! Ristretto-style simulation in `qnn-quant`), callers pre-encode both
//! operands as two's-complement i16 raws and the kernel accumulates in
//! i32. Every packable weight kind — fixed-point, binary `±2^e` and narrow
//! power-of-two — reaches it as i16 raws scaled by a power of two, so one
//! kernel serves them all: a register-blocked microkernel over a packed-B
//! panel ([`PanelB`]) built on `vpdpwssd` or `vpmaddwd`, with the requantize
//! epilogue fused into its row tail ([`gemm_nt_i16_panel_emit`]). The
//! committed `BENCH_kernels.json` (256³, 1 thread, through the dispatch
//! entry in `qnn_quant::packed`, on the AVX-512 VNNI CPU its `simd` header
//! names) times it at 2.14× (fixed8), 2.13× (fixed16), 2.34× (binary ±1
//! weights × fixed16) and 2.33× (pow2) the f32 GEMM of [`crate::gemm`],
//! measured against that GEMM's AVX-512 build.
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
//! rustc's default x86-64 baseline is SSE2, which leaves the wide integer
//! multiply-adds on the table. The microkernel has three builds over the
//! same panel layout, chosen at runtime from CPUID: a plain scalar
//! instantiation; a `#[target_feature(enable = "avx2")]` 4×16 tile on
//! `vpmaddwd` + `vpaddd` ([`crate::has_avx2`]); and an
//! `avx512f,avx512bw,avx512vnni` 4×32 tile on `vpdpwssd`
//! (`has_avx512_vnni`), in which one 32-word k-pair group of a
//! panel is exactly one zmm. All three compute the same integer sums, so
//! feature detection can never change results. The `unsafe` at the call
//! site is the narrow, standard obligation of `target_feature` dispatch:
//! the feature was verified on this CPU.
//!
//! ## AMX-INT8 tiles
//!
//! On CPUs with AMX-INT8 the native conv has a fourth build, for operands
//! that fit i8: [`conv_tiles_emit`] packs one image's patches straight into
//! AMX B tiles and runs the weights' [`TileA`] against them, one `tdpbssd`
//! per 16×16×64 block of signed-byte MACs into exact i32 sums. There is no
//! target feature for it on stable Rust, so the tile instructions are
//! `asm!` blocks: the compiler never touches `tmm0–7`, so one call's tile
//! sequence may span several blocks, and every call ends with
//! `tilerelease`. The tiles run on the calling thread; only the epilogue
//! fans out.

use crate::conv::{Border, Geometry};
use crate::error::TensorError;
use crate::par;
use std::cell::RefCell;

/// Trace counter: kernel invocations.
const CTR_CALLS: &str = "tensor.qgemm.calls";
/// Trace counter: packed multiply-accumulate operations (`m·k·n`).
const CTR_PACKED_OPS: &str = "tensor.qgemm.packed_ops";
/// Trace counter: the kernel invocations that ran on AMX tiles (also
/// counted in [`CTR_CALLS`]).
const CTR_TILE_CALLS: &str = "tensor.qgemm.tile_calls";

/// Output rows per parallel work unit. Fixed (not derived from the thread
/// count) so the partition is deterministic; integer math makes any
/// partition bit-identical anyway.
const ROWS_PER_TASK: usize = 8;

thread_local! {
    /// [`gemm_nt_i16_panel_emit`]'s row-chunk accumulators: one buffer per
    /// thread, grown to the widest chunk it has run.
    static TLS_ACC: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
    /// [`PanelB::pack_patches`]' bordered image and its two patch rows in
    /// flight.
    static TLS_PATCH: RefCell<(Vec<i16>, Vec<i16>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// [`conv_tiles_emit`]'s buffers.
    static TLS_TILE: RefCell<TileScratch> = RefCell::new(TileScratch::default());
}

/// Which build of the panel microkernel runs. Every build computes the
/// same integer sums, so the choice never changes a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Build {
    /// The scalar instantiation: the path on CPUs without AVX2.
    Plain,
    /// `vpmaddwd` + `vpaddd` at ymm width.
    Avx2,
    /// `vpdpwssd` at zmm width (AVX-512F, AVX-512BW and AVX-512 VNNI).
    Vnni,
}

impl Build {
    /// The widest build this CPU runs.
    fn detect() -> Build {
        if crate::has_avx512_vnni() {
            Build::Vnni
        } else if crate::has_avx2() {
            Build::Avx2
        } else {
            Build::Plain
        }
    }
}

/// The name of the panel-microkernel build this CPU runs: `"avx512vnni"`,
/// `"avx2"` or `"plain"`.
pub fn simd_build() -> &'static str {
    match Build::detect() {
        Build::Vnni => "avx512vnni",
        Build::Avx2 => "avx2",
        Build::Plain => "plain",
    }
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
/// tensor** — plans live in the layers' PlanCache beside their frozen
/// quantized weights, so the cost amortizes across every batched forward
/// and serve request.
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
    /// but no patch matrix is built: the image is bordered with zeros (in
    /// a thread-local, unless it needs no border), the patch walk copies
    /// rows `2g` and `2g+1` row-major into a two-row buffer (a
    /// thread-local, padded to whole panels with zeros), one run per
    /// output row, and that buffer is zipped into k-group `g` of every
    /// panel. Returns `(oh, ow)`.
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
        let border = Border::new((c, h, w), geom, (oh, ow));
        let (n, k) = (border.cols(), border.rows());
        (self.n, self.k) = (n, k);
        let npad = n.div_ceil(PANEL_NR) * PANEL_NR;
        self.data.resize(npad * 2 * k.div_ceil(2), 0);
        TLS_PATCH.with(|bufs| {
            let (buf, pair) = &mut *bufs.borrow_mut();
            let src = border.image(image, buf);
            // The walk writes columns `0..n` of each row; the rest stays 0.
            pair.clear();
            pair.resize(2 * npad, 0);
            for g in 0..k.div_ceil(2) {
                let rows = 2 * g..(2 * g + 2).min(k);
                if rows.len() == 1 {
                    // Odd k: the last group's partner row is zero.
                    pair[npad..].fill(0);
                }
                border.unfold(src, rows, npad, border.row_runs(), pair);
                self.zip_group(g, pair);
            }
        });
        Ok((oh, ow))
    }

    /// Writes the two padded patch rows in `pair` as k-group `g` of every
    /// panel: panel `p`'s group takes columns `p·NR ..` of both rows,
    /// interleaved word by word.
    fn zip_group(&mut self, g: usize, pair: &[i16]) {
        let pstride = self.k.div_ceil(2) * 2 * PANEL_NR;
        let (r0, r1) = pair.split_at(pair.len() / 2);
        let cols = r0.as_chunks::<PANEL_NR>().0.iter();
        let cols = cols.zip(r1.as_chunks::<PANEL_NR>().0);
        for (pan, (c0, c1)) in self.data.chunks_exact_mut(pstride).zip(cols) {
            let grp = pan[g * 2 * PANEL_NR..]
                .first_chunk_mut::<{ 2 * PANEL_NR }>()
                .expect("k-group inside its panel");
            for j in 0..PANEL_NR {
                grp[2 * j] = c0[j];
                grp[2 * j + 1] = c1[j];
            }
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

/// The AVX-512 VNNI microkernel: `MR_I16 × 2·PANEL_NR` tiles over each
/// pair of adjacent panels in eight zmm i32 accumulators, and an
/// `MR_I16 × PANEL_NR` tile over a lone last panel. One 32-word k-pair
/// group of a panel is exactly one zmm, so per k pair the pair tile runs
/// two panel loads, four `vpbroadcastd` pair broadcasts and 8 `vpdpwssd`.
///
/// `vpdpwssd` adds both products of a pair to its accumulator lane modulo
/// 2^32, as `vpmaddwd` + `vpaddd` do; the non-saturating form is used, so
/// the two agree on every input, and under the caller contract no sum
/// wraps, so the result is bit-identical to [`panel_rows_i16`] and
/// [`gemm_nt_i16`]. Short tail tiles, odd `k` and ragged panels are
/// handled as in [`panel_rows_i16_avx2`].
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512BW and AVX-512 VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn panel_rows_i16_vnni(k: usize, n: usize, a_rows: &[i16], panel: &[i16], c: &mut [i32]) {
    let rows = a_rows.len().checked_div(k).unwrap_or(0);
    let pstride = k.div_ceil(2) * 2 * PANEL_NR;
    let panels = n.div_ceil(PANEL_NR);
    // The tiles read whole panels and store `ncols ≤ n` columns of rows
    // below `rows`: checked once here, relied on below.
    assert!(panel.len() >= panels * pstride && c.len() >= rows * n);
    let mut pi = 0;
    while pi < panels {
        let j0 = pi * PANEL_NR;
        let pair = pi + 1 < panels;
        let ncols = (n - j0).min(if pair { 2 * PANEL_NR } else { PANEL_NR });
        // SAFETY: panel `pi` (and `pi + 1` for a pair) lies inside `panel`
        // by the assert above.
        let pan = panel.as_ptr().add(pi * pstride);
        let mut r = 0;
        while r < rows {
            let mr = (rows - r).min(MR_I16);
            // Row indices clamped to the tile: a short tail tile recomputes
            // its last row in the spare accumulators (never reading outside
            // A) and simply doesn't store the duplicates.
            let ap: [*const i16; MR_I16] =
                std::array::from_fn(|i| a_rows.as_ptr().add((r + i.min(mr - 1)) * k));
            let out = &mut c[r * n + j0..];
            if pair {
                let acc = vnni_tile::<2>(k, ap, pan, pstride);
                store_tile_i32(&acc, mr, n, ncols, out);
            } else {
                let acc = vnni_tile::<1>(k, ap, pan, pstride);
                store_tile_i32(&acc, mr, n, ncols, out);
            }
            r += mr;
        }
        pi += if pair { 2 } else { 1 };
    }
}

/// One `MR_I16 × P·PANEL_NR` tile: `acc[i][q]` accumulates row `ap[i]`
/// against panel `pan + q·pstride`, one `vpdpwssd` per k pair. Odd `k`
/// builds the last broadcast `(a[k-1], 0)` from the lone element, against
/// the panel's zero partner, so no read crosses the end of an A row.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512BW and AVX-512 VNNI; each
/// `ap[i]` must point at `k` readable words and `pan` at `P` panels of
/// `pstride` words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[inline]
unsafe fn vnni_tile<const P: usize>(
    k: usize,
    ap: [*const i16; MR_I16],
    pan: *const i16,
    pstride: usize,
) -> [[std::arch::x86_64::__m512i; P]; MR_I16] {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_si512(); P]; MR_I16];
    let mut b = [_mm512_setzero_si512(); P];
    for g in 0..k / 2 {
        for (q, bq) in b.iter_mut().enumerate() {
            *bq = _mm512_loadu_si512(pan.add(q * pstride + g * 2 * PANEL_NR).cast());
        }
        for (acc_i, &a) in acc.iter_mut().zip(&ap) {
            let av = _mm512_set1_epi32(a.add(2 * g).cast::<i32>().read_unaligned());
            for (acc_iq, &bq) in acc_i.iter_mut().zip(&b) {
                *acc_iq = _mm512_dpwssd_epi32(*acc_iq, av, bq);
            }
        }
    }
    if k % 2 == 1 {
        for (q, bq) in b.iter_mut().enumerate() {
            *bq = _mm512_loadu_si512(pan.add(q * pstride + (k / 2) * 2 * PANEL_NR).cast());
        }
        for (acc_i, &a) in acc.iter_mut().zip(&ap) {
            let av = _mm512_set1_epi32(i32::from(a.add(k - 1).read() as u16));
            for (acc_iq, &bq) in acc_i.iter_mut().zip(&b) {
                *acc_iq = _mm512_dpwssd_epi32(*acc_iq, av, bq);
            }
        }
    }
    acc
}

/// Writes the first `mr` rows and `ncols ≤ P·PANEL_NR` columns of `acc` to
/// `c`, whose row `i` starts at `c[i·n]`.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn store_tile_i32<const P: usize>(
    acc: &[[std::arch::x86_64::__m512i; P]; MR_I16],
    mr: usize,
    n: usize,
    ncols: usize,
    c: &mut [i32],
) {
    use std::arch::x86_64::*;
    for (i, acc_i) in acc.iter().enumerate().take(mr) {
        let row = &mut c[i * n..i * n + ncols];
        for (q, dst) in row.chunks_mut(PANEL_NR).enumerate() {
            // SAFETY: the mask enables exactly `dst.len() ≤ 16` lanes, all
            // inside `dst`.
            let mask = ((1u32 << dst.len()) - 1) as __mmask16;
            _mm512_mask_storeu_epi32(dst.as_mut_ptr(), mask, acc_i[q]);
        }
    }
}

/// Runs the panel microkernel over one row chunk through the vector build
/// `build` asks for when the CPU has it, else the scalar instantiation —
/// bit-identical either way.
fn panel_chunk_i16(
    build: Build,
    k: usize,
    n: usize,
    a_rows: &[i16],
    panel: &PanelB,
    c: &mut [i32],
) {
    debug_assert_eq!(panel.k, k);
    debug_assert_eq!(panel.n, n);
    let panel = &panel.data;
    match build {
        #[cfg(target_arch = "x86_64")]
        Build::Vnni if crate::has_avx512_vnni() => {
            // SAFETY: `has_avx512_vnni` verified AVX-512F, AVX-512BW and
            // AVX-512 VNNI on this CPU, the only precondition of the
            // target_feature build.
            unsafe { panel_rows_i16_vnni(k, n, a_rows, panel, c) }
        }
        #[cfg(target_arch = "x86_64")]
        Build::Avx2 if crate::has_avx2() => {
            // SAFETY: `has_avx2` verified AVX2 on this CPU, the only
            // precondition of the target_feature build.
            unsafe { panel_rows_i16_avx2(k, n, a_rows, panel, c) }
        }
        _ => panel_rows_i16(k, n, a_rows, panel, c),
    }
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
    panel_gemm(Build::detect(), k, n, a, panel, c);
}

/// The body of [`gemm_nt_i16_panel`] through a given build: row chunks of
/// `ROWS_PER_TASK` spread over the pool.
fn panel_gemm(build: Build, k: usize, n: usize, a: &[i16], panel: &PanelB, c: &mut [i32]) {
    if k == 0 {
        c.fill(0);
        return;
    }
    par::for_each_chunk_mut(c, ROWS_PER_TASK * n, |ci, chunk| {
        let rows = chunk.len() / n;
        let start = ci * ROWS_PER_TASK;
        panel_chunk_i16(build, k, n, &a[start * k..(start + rows) * k], panel, chunk);
    });
}

/// [`gemm_nt_i16_panel`] with a **fused epilogue**: instead of
/// materialising the whole `m×n` i32 accumulator tensor, each row chunk's
/// accumulators stay in a per-thread scratch and `emit(row, acc_row,
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
    let build = Build::detect();
    par::for_each_chunk_mut(out, ROWS_PER_TASK * n, |ci, chunk| {
        let rows = chunk.len() / n;
        let start = ci * ROWS_PER_TASK;
        TLS_ACC.with(|acc| {
            let mut acc = acc.borrow_mut();
            acc.clear();
            acc.resize(rows * n, 0);
            if k > 0 {
                let a_rows = &a[start * k..(start + rows) * k];
                panel_chunk_i16(build, k, n, a_rows, panel, &mut acc);
            }
            for (i, (arow, orow)) in acc
                .chunks_exact(n)
                .zip(chunk.chunks_exact_mut(n))
                .enumerate()
            {
                emit(start + i, arow, orow);
            }
        });
    });
}

// ---------------------------------------------------------------------------
// AMX-INT8 tile kernel
// ---------------------------------------------------------------------------

/// Rows of every tile: output rows of an A or C tile, k-quads of a B tile.
const TILE_ROWS: usize = 16;
/// Bytes per tile row: 64 bytes of `k` in an A tile, one k-quad of 16
/// columns in a B tile.
const TILE_K: usize = 64;
/// Bytes per A or B tile.
const TILE_BYTES: usize = TILE_ROWS * TILE_K;

/// The name of the tile build the native conv runs on this CPU: `"amx"`
/// (AMX-INT8 tiles usable by this process) or `"none"`.
pub fn tile_build() -> &'static str {
    if crate::has_amx_int8() {
        "amx"
    } else {
        "none"
    }
}

/// The row side of the tile kernel: an `m×k` matrix of i8 raws (a conv's
/// weights, one output channel per row) in AMX A tiles. Row block `i0`
/// holds `⌈k/64⌉` tiles of 16 rows × 64 bytes, and byte `r·64 + t` of tile
/// `(i0, c)` is `a[i0 + r][64c + t]`, zero past `m` and past `k`. Built
/// once per weight tensor, like [`PanelB`].
#[derive(Debug, Clone)]
pub struct TileA {
    m: usize,
    k: usize,
    data: Vec<i8>,
}

impl TileA {
    /// Packs `raws` (`m×k` row-major) into A tiles. `None` when this process
    /// cannot run AMX-INT8 tiles or a raw lies outside `[-128, 127]`.
    pub fn pack(m: usize, k: usize, raws: &[i16]) -> Option<TileA> {
        assert_eq!(raws.len(), m * k, "A must be m*k");
        if !crate::has_amx_int8() || raws.iter().any(|&r| i8::try_from(r).is_err()) {
            return None;
        }
        let kc = k.div_ceil(TILE_K);
        let mut data = vec![0i8; m.div_ceil(TILE_ROWS) * kc * TILE_BYTES];
        for (i, row) in raws.chunks_exact(k.max(1)).enumerate() {
            let block = (i / TILE_ROWS) * kc * TILE_BYTES + (i % TILE_ROWS) * TILE_K;
            for (c, seg) in row.chunks(TILE_K).enumerate() {
                let dst = &mut data[block + c * TILE_BYTES..][..seg.len()];
                for (d, &v) in dst.iter_mut().zip(seg) {
                    *d = v as i8;
                }
            }
        }
        Some(TileA { m, k, data })
    }
}

/// The column side of the tile kernel: `n` rows of `k` i8 raws (one image's
/// patches) in AMX B tiles of k-quad rows. Column block `j0` holds `⌈k/64⌉`
/// tiles of 16 k-quads × 64 bytes, and byte `q·64 + 4j + t` of tile
/// `(j0, c)` is `b[j0 + j][64c + 4q + t]`, zero past `n` and past `k`:
/// `tdpbssd` multiplies each A byte quad by the matching B quad of every
/// column.
#[derive(Debug, Clone, Default)]
struct TileB {
    n: usize,
    k: usize,
    data: Vec<i8>,
}

impl TileB {
    /// Repacks this operand as the patches of one image under `border`,
    /// read from its bordered i8 form `src`: the patch walk copies rows
    /// `4g .. 4g+4` row-major into `quad` (four rows of `n` padded to whole
    /// column blocks with zeros, like [`PanelB::pack_patches`]' row pairs),
    /// and [`TileB::put_quad`] interleaves them as k-quad `g`. The quads
    /// past `k` are zeroed in place.
    fn pack_patches(&mut self, border: &Border, src: &[i8], quad: &mut Vec<i8>) {
        let (n, k) = (border.cols(), border.rows());
        (self.n, self.k) = (n, k);
        let npad = n.div_ceil(TILE_ROWS) * TILE_ROWS;
        let kc = k.div_ceil(TILE_K);
        self.data.resize(npad * kc * TILE_K, 0);
        quad.clear();
        quad.resize(4 * npad, 0);
        let quads = k.div_ceil(4);
        for g in 0..quads {
            let rows = 4 * g..(4 * g + 4).min(k);
            if rows.len() < 4 {
                // The last quad's rows past `k` are zero.
                quad[rows.len() * npad..].fill(0);
            }
            border.unfold(src, rows, npad, border.row_runs(), quad);
            self.put_quad(g, quad);
        }
        if quads % TILE_ROWS != 0 {
            // Each column block's last tile ends in zero quads.
            let tiles = self.data.chunks_exact_mut(TILE_BYTES);
            for tile in tiles.skip(kc - 1).step_by(kc) {
                tile[quads % TILE_ROWS * TILE_K..].fill(0);
            }
        }
    }

    /// Writes the four padded patch rows in `quad` as k-quad `g` of every
    /// column block: column `j`'s four bytes, one per row, side by side.
    fn put_quad(&mut self, g: usize, quad: &[i8]) {
        let kc = self.k.div_ceil(TILE_K);
        let npad = quad.len() / 4;
        let row = |t: usize| quad[t * npad..(t + 1) * npad].as_chunks::<TILE_ROWS>().0;
        let cols = row(0).iter().zip(row(1)).zip(row(2).iter().zip(row(3)));
        for (jb, ((r0, r1), (r2, r3))) in cols.enumerate() {
            let at = (jb * kc + g / TILE_ROWS) * TILE_BYTES + (g % TILE_ROWS) * TILE_K;
            let dst = self.data[at..]
                .first_chunk_mut::<TILE_K>()
                .expect("k-quad inside its tile");
            interleave4([r0, r1, r2, r3], dst);
        }
    }
}

/// `dst[4j + t] = rows[t][j]`: column `j`'s byte of each of four rows, side
/// by side. On x86-64, two rounds of SSE2 unpacks: bytes of rows 0/1 and
/// 2/3 into pairs, then the pairs into quads.
#[inline(always)]
fn interleave4(rows: [&[i8; 16]; 4], dst: &mut [i8; 64]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86-64 baseline; each load reads one
    // whole 16-byte row and each store writes one 16-byte quarter of `dst`.
    unsafe {
        use std::arch::x86_64::*;
        let [r0, r1, r2, r3] = rows.map(|r| _mm_loadu_si128(r.as_ptr().cast()));
        let (lo01, hi01) = (_mm_unpacklo_epi8(r0, r1), _mm_unpackhi_epi8(r0, r1));
        let (lo23, hi23) = (_mm_unpacklo_epi8(r2, r3), _mm_unpackhi_epi8(r2, r3));
        let quads = [
            _mm_unpacklo_epi16(lo01, lo23),
            _mm_unpackhi_epi16(lo01, lo23),
            _mm_unpacklo_epi16(hi01, hi23),
            _mm_unpackhi_epi16(hi01, hi23),
        ];
        for (q, out) in quads.iter().zip(dst.as_chunks_mut::<16>().0) {
            _mm_storeu_si128(out.as_mut_ptr().cast(), *q);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for (j, d) in dst.as_chunks_mut::<4>().0.iter_mut().enumerate() {
        *d = rows.map(|r| r[j]);
    }
}

#[cfg(test)]
impl TileB {
    /// Packs `b` (`n×k` row-major) into B tiles, straight from the layout
    /// on the type.
    fn pack(n: usize, k: usize, b: &[i8]) -> TileB {
        assert_eq!(b.len(), n * k, "B must be n*k");
        let kc = k.div_ceil(TILE_K);
        let mut data = vec![0i8; n.div_ceil(TILE_ROWS) * kc * TILE_BYTES];
        for (j, row) in b.chunks_exact(k.max(1)).enumerate() {
            for (kk, &v) in row.iter().enumerate() {
                let tile = ((j / TILE_ROWS) * kc + kk / TILE_K) * TILE_BYTES;
                data[tile + (kk % TILE_K / 4) * TILE_K + 4 * (j % TILE_ROWS) + kk % 4] = v;
            }
        }
        TileB { n, k, data }
    }
}

/// [`conv_tiles_emit`]'s per-thread buffers: the image narrowed to i8, its
/// bordered copy, the four patch rows in flight, the B tiles and the i32
/// product.
#[derive(Debug, Default)]
struct TileScratch {
    image: Vec<i8>,
    border: Vec<i8>,
    quad: Vec<i8>,
    b: TileB,
    c: Vec<i32>,
}

/// The tile configuration every call loads: palette 1 and tiles 0–7 at
/// 16 rows × 64 bytes (`tmm0–3` C, `tmm4–5` A, `tmm6–7` B).
#[cfg(target_arch = "x86_64")]
#[repr(C, align(64))]
struct TileConfig {
    palette: u8,
    start_row: u8,
    reserved: [u8; 14],
    colsb: [u16; 16],
    rows: [u8; 16],
}

/// `C = A·Bᵀ` on AMX tiles into `c`, `⌈m/16⌉·16` rows of `⌈n/16⌉·16` i32s,
/// every one of them written: 2×2 blocks of 16×16 C tiles (`tmm0–3`)
/// against two A tiles (`tmm4–5`) and two B tiles (`tmm6–7`), k in 64-byte
/// steps, with single-block tails in m and n.
///
/// `tdpbssd` multiplies signed bytes and adds each group of four products
/// into its i32 lane, without saturation; under the caller contract
/// (`Σ_k |A[i][k]·B[j][k]| <= i32::MAX`) no partial sum wraps, so the sums
/// equal [`gemm_nt_i16`]'s.
///
/// # Safety
///
/// [`crate::has_amx_int8`] must have returned `true` in this process.
#[cfg(target_arch = "x86_64")]
unsafe fn amx_gemm(a: &TileA, b: &TileB, c: &mut [i32]) {
    use std::arch::asm;
    assert_eq!(a.k, b.k, "A and B must share k");
    let kc = a.k.div_ceil(TILE_K);
    let (mb, nb) = (a.m.div_ceil(TILE_ROWS), b.n.div_ceil(TILE_ROWS));
    let npad = nb * TILE_ROWS;
    // Every tile load and store below lies inside these three buffers.
    assert!(a.data.len() >= mb * kc * TILE_BYTES && b.data.len() >= nb * kc * TILE_BYTES);
    assert!(c.len() >= mb * TILE_ROWS * npad);
    let mut cfg = TileConfig {
        palette: 1,
        start_row: 0,
        reserved: [0; 14],
        colsb: [0; 16],
        rows: [0; 16],
    };
    cfg.colsb[..8].fill(TILE_K as u16);
    cfg.rows[..8].fill(TILE_ROWS as u8);
    // SAFETY: the caller verified AMX-INT8 and the tile permission; `cfg`
    // is a valid palette-1 configuration.
    asm!("ldtilecfg [{}]", in(reg) &cfg, options(nostack, readonly));
    let blk = kc * TILE_BYTES;
    for ib in (0..mb).step_by(2) {
        for jb in (0..nb).step_by(2) {
            let ap = a.data.as_ptr().add(ib * blk);
            let bp = b.data.as_ptr().add(jb * blk);
            let cp = c.as_mut_ptr().add(ib * TILE_ROWS * npad + jb * TILE_ROWS);
            // SAFETY: block `ib` (and `ib + 1` when two) of A, block `jb`
            // (and `jb + 1`) of B and the C tiles they write lie inside the
            // buffers by the asserts above.
            match (mb - ib >= 2, nb - jb >= 2) {
                (true, true) => tile_block::<2, 2>(ap, bp, blk, kc, cp, npad),
                (true, false) => tile_block::<2, 1>(ap, bp, blk, kc, cp, npad),
                (false, true) => tile_block::<1, 2>(ap, bp, blk, kc, cp, npad),
                (false, false) => tile_block::<1, 1>(ap, bp, blk, kc, cp, npad),
            }
        }
    }
    // SAFETY: as for `ldtilecfg`; the tiles hold nothing that is needed.
    asm!("tilerelease", options(nomem, nostack));
}

/// One `MI×NJ` block of C tiles (`MI, NJ ∈ {1, 2}`): `tmm0` is `(a0, b0)`,
/// `tmm1` `(a0, b1)`, `tmm2` `(a1, b0)` and `tmm3` `(a1, b1)`, where the
/// second A and B blocks start `blk` bytes past the first. Writes the
/// tiles to `c`, whose rows are `npad` i32s apart.
///
/// # Safety
///
/// A tile configuration from [`amx_gemm`] must be loaded; `MI` A blocks
/// and `NJ` B blocks of `kc` tiles each, and the `MI×NJ` C tiles, must lie
/// inside their buffers.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_block<const MI: usize, const NJ: usize>(
    a0: *const i8,
    b0: *const i8,
    blk: usize,
    kc: usize,
    c: *mut i32,
    npad: usize,
) {
    use std::arch::asm;
    asm!(
        "tilezero tmm0",
        "tilezero tmm1",
        "tilezero tmm2",
        "tilezero tmm3",
        options(nomem, nostack)
    );
    let (a1, b1) = (a0.wrapping_add(blk), b0.wrapping_add(blk));
    for s in 0..kc {
        let off = s * TILE_BYTES;
        let (a0, a1) = (a0.wrapping_add(off), a1.wrapping_add(off));
        let (b0, b1) = (b0.wrapping_add(off), b1.wrapping_add(off));
        if MI == 2 && NJ == 2 {
            asm!(
                "tileloadd tmm4, [{a0} + {s}*1]",
                "tileloadd tmm5, [{a1} + {s}*1]",
                "tileloadd tmm6, [{b0} + {s}*1]",
                "tileloadd tmm7, [{b1} + {s}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                "tdpbssd tmm1, tmm4, tmm7",
                "tdpbssd tmm2, tmm5, tmm6",
                "tdpbssd tmm3, tmm5, tmm7",
                a0 = in(reg) a0, a1 = in(reg) a1, b0 = in(reg) b0, b1 = in(reg) b1,
                s = in(reg) TILE_K,
                options(nostack, readonly)
            );
        } else if MI == 2 {
            asm!(
                "tileloadd tmm4, [{a0} + {s}*1]",
                "tileloadd tmm5, [{a1} + {s}*1]",
                "tileloadd tmm6, [{b0} + {s}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                "tdpbssd tmm2, tmm5, tmm6",
                a0 = in(reg) a0, a1 = in(reg) a1, b0 = in(reg) b0,
                s = in(reg) TILE_K,
                options(nostack, readonly)
            );
        } else if NJ == 2 {
            asm!(
                "tileloadd tmm4, [{a0} + {s}*1]",
                "tileloadd tmm6, [{b0} + {s}*1]",
                "tileloadd tmm7, [{b1} + {s}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                "tdpbssd tmm1, tmm4, tmm7",
                a0 = in(reg) a0, b0 = in(reg) b0, b1 = in(reg) b1,
                s = in(reg) TILE_K,
                options(nostack, readonly)
            );
        } else {
            asm!(
                "tileloadd tmm4, [{a0} + {s}*1]",
                "tileloadd tmm6, [{b0} + {s}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                a0 = in(reg) a0, b0 = in(reg) b0,
                s = in(reg) TILE_K,
                options(nostack, readonly)
            );
        }
    }
    let s = npad * 4;
    let below = c.wrapping_add(TILE_ROWS * npad);
    asm!("tilestored [{c} + {s}*1], tmm0", c = in(reg) c, s = in(reg) s, options(nostack));
    if NJ == 2 {
        let c1 = c.wrapping_add(TILE_ROWS);
        asm!("tilestored [{c} + {s}*1], tmm1", c = in(reg) c1, s = in(reg) s, options(nostack));
    }
    if MI == 2 {
        asm!("tilestored [{c} + {s}*1], tmm2", c = in(reg) below, s = in(reg) s, options(nostack));
    }
    if MI == 2 && NJ == 2 {
        let c3 = below.wrapping_add(TILE_ROWS);
        asm!("tilestored [{c} + {s}*1], tmm3", c = in(reg) c3, s = in(reg) s, options(nostack));
    }
}

/// `A·Bᵀ` on tiles into `c` (grown as needed), then `emit(row, acc_row,
/// out_row)` once per row of `out` (`a.m × b.n`), fanned out over the pool
/// in chunks of [`ROWS_PER_TASK`] rows as in [`gemm_nt_i16_panel_emit`].
fn tile_gemm_emit<F>(a: &TileA, b: &TileB, c: &mut Vec<i32>, out: &mut [f32], emit: &F)
where
    F: Fn(usize, &[i32], &mut [f32]) + Sync,
{
    let (m, k, n) = (a.m, a.k, b.n);
    assert_eq!(out.len(), m * n, "out must be m*n");
    qnn_trace::counter!(CTR_CALLS, 1);
    qnn_trace::counter!(CTR_TILE_CALLS, 1);
    qnn_trace::counter!(CTR_PACKED_OPS, (m * k * n) as u64);
    let npad = n.div_ceil(TILE_ROWS) * TILE_ROWS;
    let size = m.div_ceil(TILE_ROWS) * TILE_ROWS * npad;
    if c.len() < size {
        c.resize(size, 0);
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a `TileA` exists only where `has_amx_int8` returned true
    // (`TileA::pack`).
    unsafe {
        amx_gemm(a, b, c)
    };
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("TileA::pack refuses every CPU without AMX-INT8");
    if out.is_empty() {
        return;
    }
    let c = &c[..];
    par::for_each_chunk_mut(out, ROWS_PER_TASK * n, |ci, chunk| {
        for (i, orow) in chunk.chunks_exact_mut(n).enumerate() {
            let r = ci * ROWS_PER_TASK + i;
            emit(r, &c[r * npad..][..n], orow);
        }
    });
}

/// One image of a convolution on AMX tiles with a fused epilogue: the
/// `(c, h, w)` image of raws `image` is narrowed to i8 and bordered, its
/// patches go straight into B tiles ([`TileB::pack_patches`]), the weights
/// `a` (`o × c·kh·kw`) run against them into a per-thread i32 buffer, and
/// `emit(row, acc_row, out_row)` converts each output channel's row of
/// `out` (`o × oh·ow`), as in [`gemm_nt_i16_panel_emit`]. The sums equal
/// [`gemm_nt_i16`]'s of the weights against the transposed im2col under
/// the same caller contract.
///
/// Returns `false`, writing nothing, when `geom` is impossible for
/// `(h, w)` or an image raw lies outside `[-128, 127]`.
///
/// # Panics
///
/// Panics if `image` is not `c·h·w` long, `a` is not `c·kh·kw` wide or
/// `out` is not `o·oh·ow` long.
pub fn conv_tiles_emit<F>(
    a: &TileA,
    image: &[i16],
    (c, h, w): (usize, usize, usize),
    geom: Geometry,
    out: &mut [f32],
    emit: F,
) -> bool
where
    F: Fn(usize, &[i32], &mut [f32]) + Sync,
{
    let Ok((oh, ow)) = geom.output_hw(h, w) else {
        return false;
    };
    assert_eq!(image.len(), c * h * w, "image slice length mismatch");
    let border = Border::new((c, h, w), geom, (oh, ow));
    assert_eq!(a.k, border.rows(), "weights must be c*kh*kw wide");
    TLS_TILE.with(|s| {
        let TileScratch {
            image: narrow,
            border: buf,
            quad,
            b,
            c,
        } = &mut *s.borrow_mut();
        narrow.clear();
        narrow.extend(image.iter().map(|&v| v as i8));
        if narrow.iter().zip(image).any(|(&n, &v)| i16::from(n) != v) {
            return false;
        }
        b.pack_patches(&border, border.image(narrow, buf), quad);
        tile_gemm_emit(a, b, c, out, &emit);
        true
    })
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

    /// Seeded property test of every i16 build this CPU runs (plain, AVX2,
    /// VNNI) against the row-at-a-time [`gemm_nt_i16`], called directly
    /// rather than through dispatch, at 1 and 4 threads. Shapes put
    /// `m mod MR_I16` and `n mod 2·PANEL_NR` through every residue, so the
    /// VNNI build runs both its two-panel tile and its lone-panel tail; `k`
    /// takes 0, 1, odd values and values of 256 and more. Raws reach ±32767
    /// and −32768 with `max|a|·max|b|·k ≤ i32::MAX`, the kernel contract.
    #[test]
    fn every_i16_build_matches_reference_over_random_shapes() {
        const CASES: usize = 320;
        let mut r = seeded(0x0161_6E4E);
        let mut builds = vec![Build::Plain];
        if crate::has_avx2() {
            builds.push(Build::Avx2);
        }
        if crate::has_avx512_vnni() {
            builds.push(Build::Vnni);
        }
        let (mut k_zero, mut k_one, mut k_odd, mut k_wide, mut rails) = (0, 0, 0, 0, 0);
        let mut vnni_cases = 0;
        for case in 0..CASES {
            let m = match case % MR_I16 + MR_I16 * r.gen_range(0usize..4) {
                0 => MR_I16,
                m => m,
            };
            let n = match (case / MR_I16) % (2 * PANEL_NR) + 2 * PANEL_NR * r.gen_range(0usize..3) {
                0 => 2 * PANEL_NR,
                n => n,
            };
            let k = match r.gen_range(0u32..8) {
                0 => 0,
                1 => 1,
                2 | 3 => 2 * r.gen_range(1usize..60) + 1,
                4 | 5 => 2 * r.gen_range(1usize..60),
                _ => r.gen_range(256usize..300),
            };
            k_zero += usize::from(k == 0);
            k_one += usize::from(k == 1);
            k_odd += usize::from(k % 2 == 1 && k > 1);
            k_wide += usize::from(k >= 256);
            // One side up to the full i16 range, the other as wide as the
            // contract then allows.
            let big = match r.gen_range(0u32..3) {
                0 => 32768i64,
                1 => 32767,
                _ => r.gen_range(1i64..32768),
            };
            let small = (i64::from(i32::MAX) / (big * k.max(1) as i64)).clamp(1, 32768);
            let (amax, bmax) = if r.gen_bool(0.5) {
                (big, small)
            } else {
                (small, big)
            };
            let words = |r: &mut crate::rng::Rng, len: usize, max: i64| -> Vec<i16> {
                (0..len)
                    .map(|_| match r.gen_range(0u32..16) {
                        0 => (-max).max(-32768) as i16,
                        1 => max.min(32767) as i16,
                        _ => r.gen_range(-max..max.min(32767) + 1) as i16,
                    })
                    .collect()
            };
            let a = words(&mut r, m * k, amax);
            let b = words(&mut r, n * k, bmax);
            rails += a.iter().chain(&b).filter(|&&v| v == i16::MIN).count();
            let mut want = vec![0i32; m * n];
            gemm_nt_i16(m, k, n, &a, &b, &mut want);
            let panel = PanelB::pack(n, k, &b);
            for &build in &builds {
                vnni_cases += usize::from(build == Build::Vnni);
                for threads in [1, 4] {
                    crate::par::set_threads(Some(threads));
                    let mut got = vec![7i32; m * n];
                    panel_gemm(build, k, n, &a, &panel, &mut got);
                    assert_eq!(
                        got, want,
                        "case {case} {build:?} threads={threads} {m}x{k}x{n}"
                    );
                }
            }
        }
        crate::par::set_threads(None);
        assert!(k_zero > 0 && k_one > 0 && k_odd > 0 && k_wide > 0 && rails > 0);
        // On an AVX-512 VNNI CPU every case ran the VNNI build, which is
        // also the one the entry points dispatch to.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
        {
            assert_eq!(vnni_cases, CASES);
            assert_eq!(Build::detect(), Build::Vnni);
        }
    }

    /// Seeded property test of the AMX tile kernel against the
    /// row-at-a-time [`gemm_nt_i16`], at 1 and 4 threads (the epilogue fans
    /// out; the tiles run on the caller). `m` and `n` go through every
    /// residue mod 32, so every 2×2, 2×1, 1×2 and 1×1 block and every
    /// ragged tile edge runs; `k` takes 0, 1, 63, 64, 65 and 800 or more.
    /// Raws span `[-128, 127]`, both ends included. The emit hands back each
    /// row's i32 sums as f32 bit patterns, so the comparison is exact.
    /// Skips, saying why, where this process cannot run tiles.
    #[test]
    fn tile_kernel_matches_reference_over_random_shapes() {
        if !crate::has_amx_int8() {
            println!(
                "skipped: no AMX-INT8 tiles here (tile_build() = {})",
                tile_build()
            );
            return;
        }
        const CASES: usize = 96;
        let mut r = seeded(0x7113_A4C5);
        let (mut rails, mut wide, mut ran) = (0, 0, 0);
        for case in 0..CASES {
            let residue = |v: usize| if v == 0 { 32 } else { v };
            let m = residue(case % 32) + 32 * r.gen_range(0usize..3);
            let n = residue((case * 13 + 5) % 32) + 32 * r.gen_range(0usize..3);
            let k = match case % 6 {
                5 => r.gen_range(800usize..900),
                i => [0, 1, 63, 64, 65][i],
            };
            wide += usize::from(k >= 800);
            let words = |r: &mut crate::rng::Rng, len: usize| -> Vec<i16> {
                (0..len)
                    .map(|_| match r.gen_range(0u32..8) {
                        0 => -128,
                        1 => 127,
                        _ => r.gen_range(-128i64..128) as i16,
                    })
                    .collect()
            };
            let (a, b) = (words(&mut r, m * k), words(&mut r, n * k));
            rails += a.iter().chain(&b).filter(|&&v| v == -128).count();
            let mut want = vec![0i32; m * n];
            gemm_nt_i16(m, k, n, &a, &b, &mut want);
            let ta = TileA::pack(m, k, &a).expect("i8 raws pack where tiles run");
            let b8: Vec<i8> = b.iter().map(|&v| v as i8).collect();
            let tb = TileB::pack(n, k, &b8);
            let bits = |_r: usize, acc: &[i32], orow: &mut [f32]| {
                for (o, &v) in orow.iter_mut().zip(acc) {
                    *o = f32::from_bits(v as u32);
                }
            };
            for threads in [1, 4] {
                crate::par::set_threads(Some(threads));
                let mut out = vec![f32::NAN; m * n];
                tile_gemm_emit(&ta, &tb, &mut Vec::new(), &mut out, &bits);
                let got: Vec<i32> = out.iter().map(|v| v.to_bits() as i32).collect();
                assert_eq!(got, want, "case {case} threads={threads} {m}x{k}x{n}");
                ran += 1;
            }
        }
        crate::par::set_threads(None);
        assert!(rails > 0 && wide > 0);
        assert_eq!(ran, 2 * CASES);
        // Raws past i8 do not pack.
        assert!(TileA::pack(1, 2, &[0, 128]).is_none());
        assert!(TileA::pack(1, 2, &[-129, 0]).is_none());
        assert_eq!(tile_build(), "amx");
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
