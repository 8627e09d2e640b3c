//! The f32 conv forward with output channels on the lanes: the AVX-512
//! route of the convs whose output channels fill its tile ([`suits`]).
//!
//! The panel route (`gemm`'s tile) puts 32 output pixels on its lanes and
//! broadcasts weights, so it must first copy every patch into column
//! panels. This route turns the tile around, as the paper's DianNao-style
//! tile does (16 neuron units fed one broadcast input): two zmm hold 32
//! output channels of `Wᵀ`, packed once per call, and each k step
//! broadcasts the values of [`PIXELS`] adjacent output pixels of one
//! output row, read straight from the bordered image. No patch is copied.
//!
//! **Skipped zero steps.** A group leaves out the k steps whose taps are
//! `±0.0` for all of its pixels (padding, dead ReLU channels, zero
//! regions), and the bits stay the reference's. A finite `w` times `±0.0`
//! is `±0.0` exactly. An accumulator that starts at `+0.0` is never
//! `−0.0` under round-to-nearest: `+0.0 + −0.0` is `+0.0`, and an exact
//! cancellation gives `+0.0`. So every skipped add is `x + ±0.0` with `x`
//! not `−0.0`, which returns `x` itself (a NaN stays NaN, an infinity
//! stays infinite). The walk stays ascending, so each output gets the
//! reference's other products in the reference's order. The argument
//! needs every `w` finite (`±inf · 0` and `NaN · 0` are NaN), so one
//! non-finite weight turns the skip off, and a subnormal or a NaN tap
//! counts as a value, never as zero. A step drops out when just 8 values
//! are `±0.0`, where the panel route's 32 pixels made that rare: on
//! zoo-infer's inputs, 29% of ConvNet conv2's steps at 8 pixels against
//! 23% at 32.
//!
//! **The walk.** Per image, a bit array marks the taps that hold a value,
//! OR-ed over a group's 8 pixels, so one read per group and kernel row
//! gives the row's live steps. Each group's live steps go into a list,
//! compressed 8 at a time; a loop per run of live steps would mispredict
//! once per run. Then, per tile column of 32 output channels, the groups
//! walk their lists through k-blocks of whole kernel rows, about
//! [`BLOCK_STEPS`] steps each, so the block's `Wᵀ` rows stay in L1 while
//! every group of the image reuses them; a group's partial sums wait in a
//! pixels × channels buffer between blocks. Last, the buffer is
//! transposed into the output's `(o, oh·ow)` rows, in 16 × 16 register
//! blocks, and the bias is added after the sum. Each output is one
//! accumulator that takes one multiply and one add per live step, in
//! ascending k, never a fused multiply-add.

use super::Border;
use crate::gemm::Panels;
use crate::par;
use std::arch::x86_64::*;
use std::cell::RefCell;

/// Output channels per tile column: two zmm of `f32`.
const WIDTH: usize = 32;

/// Output pixels per group, one accumulator pair each.
const PIXELS: usize = 8;

/// About how many k steps one k-block holds: 32 KiB of `Wᵀ`, inside the
/// 48 KiB L1 data cache of the hosts this was tuned on.
const BLOCK_STEPS: usize = 256;

/// The route rule: whether a conv of `o` output channels over images in
/// layout `b` takes this route. It needs AVX-512F, and `o` a multiple of
/// 32 so that every tile column fills its lanes. Measured per conv in
/// DESIGN §4: this route won on every conv whose `o` is a multiple of 32
/// and lost or tied on the others (LeNet's 20 and 50, ConvNet conv1's 16,
/// the 8×8 serving net's 6 and 10), which keep the panel route. A step's
/// two offsets must fit 32 bits each.
pub(crate) fn suits(b: &Border, o: usize) -> bool {
    let fits = b.rows() * WIDTH <= u32::MAX as usize && b.c * b.hp * b.wp <= u32::MAX as usize;
    crate::has_avx512f() && o > 0 && o.is_multiple_of(WIDTH) && b.rows() > 0 && fits
}

/// A conv's weights `W` (`o×k`, row-major) packed once per call as `Wᵀ`:
/// `⌈o/32⌉` tile columns of `k` rows of 32 output channels, `+0.0` past
/// channel `o`, each column on a cache-line boundary.
#[derive(Debug, Default, Clone)]
pub(crate) struct PackedWt {
    k: usize,
    o: usize,
    data: Panels,
    /// Whether every weight is finite, which the zero skip needs.
    finite: bool,
}

impl PackedWt {
    /// Repacks `w` (`o×k`) in place, reusing the buffer.
    pub(crate) fn pack(&mut self, o: usize, k: usize, w: &[f32]) {
        debug_assert_eq!(w.len(), o * k);
        (self.k, self.o) = (k, o);
        self.data.zeroed(o.div_ceil(WIDTH) * k * WIDTH);
        if k == 0 {
            return;
        }
        for (c, row) in w.chunks_exact(k).enumerate() {
            let column = &mut self.data[(c / WIDTH) * k * WIDTH..][..k * WIDTH];
            for (dst, &v) in column[c % WIDTH..].iter_mut().step_by(WIDTH).zip(row) {
                *dst = v;
            }
        }
        self.finite = w.iter().fold(true, |all, v| all & v.is_finite());
    }
}

/// Up to [`PIXELS`] adjacent output pixels of one output row.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Offset in the bordered image of the first pixel's window.
    origin: usize,
    /// The first pixel's index in `0..oh·ow`.
    first: usize,
    /// How many pixels, `1..=PIXELS`.
    width: usize,
}

/// One image's walk, and the per-worker scratch of this route.
#[derive(Debug, Default, Clone)]
pub(crate) struct Walk {
    groups: Vec<Group>,
    /// The live steps, group after group, ascending: step `kk` as
    /// `kk·32 | at << 32`, the offset of its `Wᵀ` row and that of its tap
    /// for a group's first pixel, past the group's origin.
    steps: Vec<u64>,
    /// The end in `steps` of group `g`'s block `b`, at `g·blocks + b`.
    ends: Vec<usize>,
    blocks: usize,
    /// Whether every group walks group 0's list: every step.
    shared: bool,
    /// Each walked kernel row's first step.
    rows: Vec<u64>,
    /// Scratch of the zero test: [`window_bits`]'s bit arrays.
    held: Vec<u64>,
    live: Vec<u64>,
}

impl Walk {
    /// Group `g`'s steps in block `b`.
    #[inline]
    fn steps(&self, g: usize, b: usize) -> &[u64] {
        let at = if self.shared { b } else { g * self.blocks + b };
        let start = if at == 0 { 0 } else { self.ends[at - 1] };
        &self.steps[start..self.ends[at]]
    }

    /// Builds the walk of the bordered image `src`. Where `skip`, each
    /// group's steps whose taps are all `±0.0` drop out. Returns how many
    /// (step, pixel) products were dropped.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f,popcnt")]
    unsafe fn build(&mut self, b: &Border, src: &[f32], skip: bool) -> usize {
        let g = b.geom;
        let k = b.rows();
        self.groups.clear();
        for oi in 0..b.oh {
            for oj in (0..b.ow).step_by(PIXELS) {
                self.groups.push(Group {
                    origin: (oi * b.wp + oj) * g.stride,
                    first: oi * b.ow + oj,
                    width: PIXELS.min(b.ow - oj),
                });
            }
        }
        // Every tap of every window lies inside `src`, and every offset
        // fits its half of a step: the tile's loads rely on both.
        let last = self.groups.last().expect("a conv has an output pixel");
        assert!(last.origin + (last.width - 1) * g.stride + b.base(k - 1) < src.len());
        assert!(k * WIDTH <= u32::MAX as usize && src.len() <= u32::MAX as usize);
        // A kernel row wider than a word walks every step.
        self.shared = !skip || g.kw > 64;
        if !self.shared {
            window_bits(src, g.stride, &mut self.held, &mut self.live);
        }
        // Each kernel row `(ci, ki)`'s first step, `(ci, ki, 0)`, but for
        // the channels that are all `±0.0`, which no group then tests.
        self.rows.clear();
        let plane = b.hp * b.wp;
        for ci in 0..b.c {
            let dead = !self.shared
                && (0..plane).step_by(64).all(|x| {
                    let bits = bits_at(&self.held, ci * plane + x);
                    bits & (u64::MAX >> (64 - (plane - x).min(64))) == 0
                });
            if !dead {
                for ki in 0..g.kh {
                    let at = (ci * b.hp + ki) * b.wp;
                    let kk = (ci * g.kh + ki) * g.kw;
                    self.rows.push(((kk * WIDTH) | (at << 32)) as u64);
                }
            }
        }
        // At least one block, so that every group stores its sums.
        let rows_per_block = (BLOCK_STEPS / g.kw).max(1);
        self.blocks = self.rows.len().div_ceil(rows_per_block).max(1);
        let Walk {
            groups,
            steps,
            ends,
            blocks,
            shared,
            rows,
            live,
            ..
        } = self;
        let walking = if *shared { &groups[..1] } else { &groups[..] };
        // Every step, and 8 spare for the last row's whole-vector store.
        steps.clear();
        steps.reserve(walking.len() * k + 8);
        let out = steps.as_mut_ptr();
        // Lane `j`: step `j` past a step, as a step.
        let next = (WIDTH as i64) | (1 << 32);
        let ramp = _mm512_set_epi64(
            7 * next,
            6 * next,
            5 * next,
            4 * next,
            3 * next,
            2 * next,
            next,
            0,
        );
        let (mut len, mut dropped) = (0, 0);
        ends.clear();
        for group in walking {
            let first = len;
            for block in 0..*blocks {
                let block = &rows[(block * rows_per_block).min(rows.len())..];
                for &row in &block[..rows_per_block.min(block.len())] {
                    // Bit `kj`: tap `kj` of some pixel of the group may
                    // hold a value. A short last group also tests the
                    // pixels after it, which only keeps more steps.
                    let held = match shared {
                        true => u64::MAX,
                        false => bits_at(live, group.origin + (row >> 32) as usize),
                    };
                    // The row's live steps, 8 at a time: compressed to
                    // the front of a vector, stored whole, kept as many as
                    // live. No branch: the pattern is irregular.
                    let mut v = _mm512_add_epi64(ramp, _mm512_set1_epi64(row as i64));
                    for kj in (0..g.kw).step_by(8) {
                        let lanes = (g.kw - kj).min(8);
                        let bits = if kj < 64 { held >> kj } else { u64::MAX };
                        let mask = (bits & (0xff >> (8 - lanes))) as __mmask8;
                        // SAFETY: `len + 8 ≤ capacity`: at most `k` steps
                        // before this store's, and 8 spare.
                        _mm512_storeu_si512(
                            out.add(len).cast(),
                            _mm512_maskz_compress_epi64(mask, v),
                        );
                        len += mask.count_ones() as usize;
                        v = _mm512_add_epi64(v, _mm512_set1_epi64(8 * next));
                    }
                }
                ends.push(len);
            }
            dropped += (k - (len - first)) * group.width;
        }
        // SAFETY: the stores above initialised the first `len` steps.
        steps.set_len(len);
        dropped
    }
}

/// Bits `pos .. pos + 64` of the bit array `bits`, which must hold a
/// word past the one bit `pos` falls in.
#[inline]
fn bits_at(bits: &[u64], pos: usize) -> u64 {
    let (word, bit) = (pos / 64, pos % 64);
    bits[word] >> bit | bits[word + 1] << 1 << (63 - bit)
}

/// Fills `held` (overwritten) with bit `x` set where `src[x]` is not
/// `±0.0` (a subnormal or a NaN is a value), and `live` with bit `x` set
/// where any of `src[x + t·stride]`, `t < PIXELS`, is: the taps at `x` of
/// a group's pixels, when its first pixel's tap is at `x`.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn window_bits(src: &[f32], stride: usize, held: &mut Vec<u64>, live: &mut Vec<u64>) {
    let magnitude = _mm512_set1_epi32(0x7fff_ffff);
    let words = src.len().div_ceil(64);
    // Zero words past the end, so that every shifted read stays inside.
    held.clear();
    held.resize(words + ((PIXELS - 1) * stride).div_ceil(64) + 2, 0);
    for (word, values) in held.iter_mut().zip(src.chunks(64)) {
        for (q, lanes) in values.chunks(16).enumerate() {
            let mask = (u32::MAX >> (16 - lanes.len()) >> 16) as __mmask16;
            // SAFETY: the mask reads the `lanes.len()` values of `lanes`.
            let v = _mm512_maskz_loadu_epi32(mask, lanes.as_ptr().cast());
            *word |= u64::from(_mm512_test_epi32_mask(v, magnitude)) << (16 * q);
        }
    }
    live.clear();
    live.resize(words + 1, 0);
    for (w, word) in live.iter_mut().enumerate().take(words) {
        *word = (0..PIXELS).fold(0, |any, t| any | bits_at(held, 64 * w + t * stride));
    }
}

thread_local! {
    /// A tile column's pixels × channels sums, per thread: an image's
    /// tile columns may run on different workers.
    static TLS_SUMS: RefCell<Panels> = RefCell::new(Panels::default());
}

/// This route for one image: `src` is the image in `b`'s bordered layout,
/// `dst` its `(o, oh·ow)` output, overwritten with `W·patches + bias`.
/// The image's tile columns spread over the pool.
pub(crate) fn conv_image(
    b: &Border,
    wt: &PackedWt,
    walk: &mut Walk,
    src: &[f32],
    bias: &[f32],
    dst: &mut [f32],
) {
    let cols = b.cols();
    assert!(crate::has_avx512f(), "the lanes route needs AVX-512F");
    assert!(dst.len() == wt.o * cols && wt.k == b.rows());
    // SAFETY: the CPU supports AVX-512F, checked above.
    let dropped = unsafe { walk.build(b, src, wt.finite) };
    qnn_trace::counter!("tensor.conv.fwd.macs_skipped", (dropped * wt.o) as u64);
    let walk = &*walk;
    par::for_each_chunk_mut(dst, WIDTH * cols, |t, dst| {
        TLS_SUMS.with(|sums| {
            let sums = &mut sums.borrow_mut();
            sums.resize(cols * WIDTH);
            let column = &wt.data[t * wt.k * WIDTH..][..wt.k * WIDTH];
            let bias = &bias[t * WIDTH..][..dst.len() / cols];
            // SAFETY: the CPU supports AVX-512F; `walk` was built over
            // `src` for `wt.k` steps.
            unsafe {
                column_sums(walk, column, src, b.geom.stride, sums);
                transpose(sums, bias, dst);
            }
        })
    });
}

/// One tile column: every group of `walk`, 8 pixels by the 32 channels of
/// `wt`, through the k-blocks in order. Pixel `p`'s sums land in
/// `sums[p·32 ..][..32]`.
///
/// # Safety
///
/// The CPU must support AVX-512F; `walk` must have been built over `src`
/// for `wt.len() / 32` steps.
#[target_feature(enable = "avx512f")]
unsafe fn column_sums(walk: &Walk, wt: &[f32], src: &[f32], stride: usize, sums: &mut [f32]) {
    // The last group ends last.
    let end = walk.groups.last().map_or(0, |g| g.first + g.width);
    assert!(sums.len() >= end * WIDTH);
    for blk in 0..walk.blocks {
        for (gi, group) in walk.groups.iter().enumerate() {
            let out = sums.as_mut_ptr().add(group.first * WIDTH);
            let mut acc = [[_mm512_setzero_ps(); 2]; PIXELS];
            if blk > 0 {
                for (t, acc_t) in acc.iter_mut().enumerate().take(group.width) {
                    for (q, a) in acc_t.iter_mut().enumerate() {
                        *a = _mm512_loadu_ps(out.add(t * WIDTH + q * 16));
                    }
                }
            }
            // A short last group repeats its last pixel in the lanes past
            // its width; those sums are never stored.
            let dx: [usize; PIXELS] = std::array::from_fn(|t| t.min(group.width - 1) * stride);
            let x = src.as_ptr().add(group.origin);
            for &step in walk.steps(gi, blk) {
                let w = wt.as_ptr().add(step as u32 as usize);
                let xp = x.add((step >> 32) as usize);
                let wv = [_mm512_loadu_ps(w), _mm512_loadu_ps(w.add(16))];
                for (acc_t, &d) in acc.iter_mut().zip(&dx) {
                    let a = _mm512_set1_ps(*xp.add(d));
                    for (acc_tq, &v) in acc_t.iter_mut().zip(&wv) {
                        // Two roundings, never a fused multiply-add.
                        *acc_tq = _mm512_add_ps(*acc_tq, _mm512_mul_ps(a, v));
                    }
                }
            }
            for (t, acc_t) in acc.iter().enumerate().take(group.width) {
                for (q, &a) in acc_t.iter().enumerate() {
                    _mm512_storeu_ps(out.add(t * WIDTH + q * 16), a);
                }
            }
        }
    }
}

/// Writes `dst`, `bias.len()` rows of `cols`, as the transpose of `sums`,
/// `cols` rows of 32, plus each row's bias: `dst[j·cols + p] =
/// sums[p·32 + j] + bias[j]`, in 16 × 16 blocks transposed in registers.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn transpose(sums: &[f32], bias: &[f32], dst: &mut [f32]) {
    let (channels, cols) = (bias.len(), dst.len() / bias.len());
    assert!(dst.len() == channels * cols && channels <= WIDTH && sums.len() >= cols * WIDTH);
    for p in (0..cols).step_by(16) {
        let pixels = (cols - p).min(16);
        let mask = (u32::MAX >> (16 - pixels) >> 16) as __mmask16;
        for c in (0..channels).step_by(16) {
            let mut rows = [_mm512_setzero_ps(); 16];
            for (i, row) in rows.iter_mut().enumerate().take(pixels) {
                // SAFETY: row `p + i < cols` of `sums`, channels `c ..
                // c + 16 ≤ 32`.
                *row = _mm512_loadu_ps(sums.as_ptr().add((p + i) * WIDTH + c));
            }
            let out = transpose16(rows);
            for (j, &v) in out.iter().enumerate().take((channels - c).min(16)) {
                let v = _mm512_add_ps(v, _mm512_set1_ps(bias[c + j]));
                // SAFETY: the mask stores `dst[(c + j)·cols + p + i]` for
                // `p + i < cols` only.
                _mm512_mask_storeu_ps(dst.as_mut_ptr().add((c + j) * cols + p), mask, v);
            }
        }
    }
}

/// The transpose of the 16 × 16 matrix whose rows are `r`: 64 shuffles,
/// through 2 × 2, 4 × 4 and 16 × 16 blocks.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn transpose16(r: [__m512; 16]) -> [__m512; 16] {
    // Per 128-bit lane `l`: rows `2i, 2i + 1` of columns `4l, 4l + 1`
    // (`a[2i]`) and `4l + 2, 4l + 3` (`a[2i + 1]`).
    let mut a = [_mm512_setzero_ps(); 16];
    for i in 0..8 {
        a[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        a[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // `b[4i + j]`, lane `l`: rows `4i .. 4i + 4` of column `4l + j`.
    let mut b = [_mm512_setzero_ps(); 16];
    let pd = _mm512_castps_pd;
    for i in 0..4 {
        let (lo, hi) = (pd(a[4 * i]), pd(a[4 * i + 2]));
        b[4 * i] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo, hi));
        b[4 * i + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo, hi));
        let (lo, hi) = (pd(a[4 * i + 1]), pd(a[4 * i + 3]));
        b[4 * i + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo, hi));
        b[4 * i + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo, hi));
    }
    // Column `4l + j` takes lane `l` of `b[j]`, `b[4 + j]`, `b[8 + j]` and
    // `b[12 + j]`.
    let mut out = [_mm512_setzero_ps(); 16];
    for j in 0..4 {
        let c0 = _mm512_shuffle_f32x4::<0x44>(b[j], b[4 + j]);
        let c1 = _mm512_shuffle_f32x4::<0xEE>(b[j], b[4 + j]);
        let d0 = _mm512_shuffle_f32x4::<0x44>(b[8 + j], b[12 + j]);
        let d1 = _mm512_shuffle_f32x4::<0xEE>(b[8 + j], b[12 + j]);
        out[j] = _mm512_shuffle_f32x4::<0x88>(c0, d0);
        out[4 + j] = _mm512_shuffle_f32x4::<0xDD>(c0, d0);
        out[8 + j] = _mm512_shuffle_f32x4::<0x88>(c1, d1);
        out[12 + j] = _mm512_shuffle_f32x4::<0xDD>(c1, d1);
    }
    out
}
