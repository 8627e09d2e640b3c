//! The f32 conv forward with output channels on the lanes: the AVX-512
//! route of the convs whose output channels fill its tile ([`suits`]).
//!
//! The panel route (`gemm`'s tile) puts 32 output pixels on its lanes and
//! broadcasts weights, so it must first copy every patch into column
//! panels. This route turns the tile around, as the paper's DianNao-style
//! tile does (16 neuron units fed one broadcast input): `Z` zmm hold
//! `16·Z` output channels of `Wᵀ`, packed once per call, and each k step
//! broadcasts the values of `P` adjacent output pixels of one output row,
//! read straight from the bordered image. No patch is copied.
//!
//! **The tile.** Every tile keeps 16 zmm accumulators, `P` pixels by `Z`
//! zmm with `P·Z = 16`, so each step issues 16 `vmulps` and 16 `vaddps`
//! from `Z` row loads and `P` broadcasts, enough independent chains to
//! hide the add latency. [`Tile::for_channels`] takes the widest `Z` of 8,
//! 4, 2 and 1 whose `16·Z` divides `o`: 2 × 128, 4 × 64, 8 × 32 or
//! 16 × 16. Fewer pixels per group leave out more zero steps (below), and
//! 128 channels is the widest row that leaves a k-block enough steps.
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
//! counts as a value, never as zero. A step drops out when just `P`
//! values are `±0.0`: on zoo-infer's inputs, 40% of ConvNet conv2's steps
//! at 2 pixels, 29% at 8 and 23% at the panel route's 32.
//!
//! **The walk.** Per image, a bit array marks the taps that hold a value,
//! OR-ed over a group's `P` pixels by doubling. One 64-bit read of it
//! covers a span of up to 16 steps, kernel rows of one input channel, and
//! `pext` pulls out their live bits. Each group's live steps go into a
//! list of 4-byte steps, compressed a span at a time (a loop per run of
//! live steps would mispredict once per run), and a table gives each
//! step's tap offset. Then, per tile column, the groups walk their lists
//! through k-blocks of whole kernel rows, about 32 KiB of `Wᵀ` each, so
//! the block's `Wᵀ` rows stay in L1 while every group of the image reuses
//! them; a group's partial sums wait in a pixels × channels buffer between
//! blocks. Last, the buffer is transposed into the output's `(o, oh·ow)`
//! rows, in 16 × 16 register blocks, and the bias is added after the sum.
//! Each output is one accumulator that takes one multiply and one add per
//! live step, in ascending k, never a fused multiply-add.

use super::Border;
use crate::gemm::Panels;
use crate::par;
use std::arch::x86_64::*;
use std::cell::RefCell;

/// `Wᵀ` values per k-block: 32 KiB, inside the 48 KiB L1 data cache of the
/// hosts this was tuned on.
const BLOCK_VALUES: usize = 8192;

/// This route's tile: [`Tile::pixels`] adjacent output pixels of one
/// output row by [`Tile::width`] output channels, 16 zmm accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tile {
    /// zmm per `Wᵀ` row: 8, 4, 2 or 1.
    z: usize,
}

impl Tile {
    /// Every tile, widest first.
    pub(crate) const ALL: [Tile; 4] = [Tile { z: 8 }, Tile { z: 4 }, Tile { z: 2 }, Tile { z: 1 }];

    /// The tile for `o` output channels: the widest, up to 128 channels,
    /// whose width divides `o`, so that every tile column fills its lanes.
    pub(crate) fn for_channels(o: usize) -> Option<Tile> {
        Tile::ALL
            .into_iter()
            .find(|t| o > 0 && o.is_multiple_of(t.width()))
    }

    /// Output channels per tile column.
    pub(crate) fn width(self) -> usize {
        16 * self.z
    }

    /// Output pixels per group.
    pub(crate) fn pixels(self) -> usize {
        16 / self.z
    }

    /// The trace counter of this tile's calls, named `pixels x channels`.
    pub(crate) fn counter(self) -> &'static str {
        match self.z {
            8 => "tensor.conv.fwd.route.lanes.2x128",
            4 => "tensor.conv.fwd.route.lanes.4x64",
            2 => "tensor.conv.fwd.route.lanes.8x32",
            _ => "tensor.conv.fwd.route.lanes.16x16",
        }
    }
}

impl Default for Tile {
    fn default() -> Tile {
        Tile { z: 1 }
    }
}

/// Whether this CPU runs this route: AVX-512F, and BMI2 for the walk's
/// `pext`.
pub(crate) fn supported() -> bool {
    crate::has_avx512f() && std::arch::is_x86_feature_detected!("bmi2")
}

/// The route rule: the tile a conv of `o` output channels over images in
/// layout `b` takes on this route, or `None` for the panel route. It
/// needs a CPU that runs it ([`supported`]) and a tile whose width divides `o`
/// ([`Tile::for_channels`]). Measured per conv in DESIGN §4: LeNet's 20
/// and 50 and the 8×8 serving net's 6 and 10 keep the panel route. A
/// step and its tap offset must fit 32 bits each.
pub(crate) fn suits(b: &Border, o: usize) -> Option<Tile> {
    let tile = Tile::for_channels(o)?;
    let fits = b.rows() <= u32::MAX as usize && b.c * b.hp * b.wp <= u32::MAX as usize;
    (supported() && b.rows() > 0 && fits).then_some(tile)
}

/// A conv's weights `W` (`o×k`, row-major) packed once per call as `Wᵀ`:
/// `⌈o/width⌉` tile columns of `k` rows of the tile's width, `+0.0` past
/// channel `o`, each column on a cache-line boundary.
#[derive(Debug, Default, Clone)]
pub(crate) struct PackedWt {
    tile: Tile,
    k: usize,
    o: usize,
    data: Panels,
    /// Whether every weight is finite, which the zero skip needs.
    finite: bool,
}

impl PackedWt {
    /// Repacks `w` (`o×k`) for `tile` in place, reusing the buffer.
    pub(crate) fn pack(&mut self, tile: Tile, o: usize, k: usize, w: &[f32]) {
        assert!(supported(), "the lanes route needs AVX-512F and BMI2");
        assert_eq!(w.len(), o * k);
        (self.tile, self.k, self.o) = (tile, k, o);
        let len = o.div_ceil(tile.width()) * k * tile.width();
        // The pack writes every channel below `o` rounded up to 16.
        if o.is_multiple_of(tile.width()) {
            self.data.resize(len);
        } else {
            self.data.zeroed(len);
        }
        // SAFETY: the CPU supports AVX-512F, checked above.
        unsafe { transpose_wt(w, o, k, tile.width(), &mut self.data) };
        self.finite = w.iter().fold(true, |all, v| all & v.is_finite());
    }
}

/// Writes `w` (`o×k`, row-major) into `wt` as `Wᵀ` in tile columns of
/// `width` channels, `wt[(c / width)·k·width + kk·width + c % width] =
/// w[c·k + kk]`, through 16 × 16 blocks transposed in registers; the
/// channels from `o` up to the next multiple of 16 get `+0.0`.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn transpose_wt(w: &[f32], o: usize, k: usize, width: usize, wt: &mut [f32]) {
    assert!(w.len() == o * k && width.is_multiple_of(16));
    assert!(wt.len() >= o.div_ceil(width) * k * width);
    for c in (0..o).step_by(16) {
        let column = (c / width) * k * width + c % width;
        for kk in (0..k).step_by(16) {
            let n = (k - kk).min(16);
            let mask = (u32::MAX >> (32 - n)) as __mmask16;
            let mut rows = [_mm512_setzero_ps(); 16];
            for (i, row) in rows.iter_mut().enumerate().take(o - c) {
                // SAFETY: the mask reads `w[(c + i)·k + kk ..][..n]`, inside
                // row `c + i < o`.
                *row = _mm512_maskz_loadu_ps(mask, w.as_ptr().add((c + i) * k + kk));
            }
            for (j, &v) in transpose16(rows).iter().enumerate().take(n) {
                // SAFETY: channels `c % width .. + 16 ≤ width` of row
                // `kk + j < k` of column `c / width`, inside `wt`.
                _mm512_storeu_ps(wt.as_mut_ptr().add(column + (kk + j) * width), v);
            }
        }
    }
}

/// Up to [`Tile::pixels`] adjacent output pixels of one output row.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Offset in the bordered image of the first pixel's window.
    origin: usize,
    /// The first pixel's index in `0..oh·ow`.
    first: usize,
    /// How many pixels, `1..=pixels`.
    width: usize,
}

/// Up to 16 consecutive steps that one 64-bit read of the walk's bit
/// array tests: kernel rows of one input channel, `wp` apart in the
/// bordered image, whole or 16 taps of a row wider than 16.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The first step.
    kk: u32,
    /// Its tap's offset for a group's first pixel, past the group's origin.
    at: u32,
    /// The steps' bits in the 64 read from `at`, in step order.
    pattern: u64,
}

/// One image's walk, and the per-worker scratch of this route.
#[derive(Debug, Default, Clone)]
pub(crate) struct Walk {
    groups: Vec<Group>,
    /// The live steps `kk`, group after group, ascending.
    steps: Vec<u32>,
    /// Each step's tap offset for a group's first pixel, past the group's
    /// origin.
    taps: Vec<u32>,
    /// The end in `steps` of group `g`'s block `b`, at `g·blocks + b`.
    ends: Vec<usize>,
    blocks: usize,
    /// Whether every group walks group 0's list: every step.
    shared: bool,
    /// The walked spans, block after block, and the end of each block's.
    spans: Vec<Span>,
    span_ends: Vec<usize>,
    /// Scratch of the zero test: [`window_bits`]'s bit arrays.
    held: Vec<u64>,
    live: Vec<u64>,
}

impl Walk {
    /// Group `g`'s steps in block `b`.
    #[inline]
    fn steps(&self, g: usize, b: usize) -> &[u32] {
        let at = if self.shared { b } else { g * self.blocks + b };
        let start = if at == 0 { 0 } else { self.ends[at - 1] };
        &self.steps[start..self.ends[at]]
    }

    /// Builds the walk of the bordered image `src` for `tile`. Where
    /// `skip`, each group's steps whose taps are all `±0.0` drop out.
    /// Returns how many (step, pixel) products were dropped.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and BMI2 ([`supported`]).
    #[target_feature(enable = "avx512f,bmi2,popcnt")]
    unsafe fn build(&mut self, b: &Border, src: &[f32], skip: bool, tile: Tile) -> usize {
        let (g, k) = (b.geom, b.rows());
        let pixels = tile.pixels();
        self.groups.clear();
        for oi in 0..b.oh {
            for oj in (0..b.ow).step_by(pixels) {
                self.groups.push(Group {
                    origin: (oi * b.wp + oj) * g.stride,
                    first: oi * b.ow + oj,
                    width: pixels.min(b.ow - oj),
                });
            }
        }
        // Every tap of every window lies inside `src`, and every step and
        // tap offset fits 32 bits: the tile's loads rely on both.
        let last = self.groups.last().expect("a conv has an output pixel");
        assert!(last.origin + (last.width - 1) * g.stride + b.base(k - 1) < src.len());
        assert!(k <= u32::MAX as usize && src.len() <= u32::MAX as usize);
        self.taps.clear();
        for ci in 0..b.c {
            for ki in 0..g.kh {
                let at = (ci * b.hp + ki) * b.wp;
                self.taps.extend((at..at + g.kw).map(|x| x as u32));
            }
        }
        // A kernel row wider than a word walks every step.
        self.shared = !skip || g.kw > 64;
        if !self.shared {
            window_bits(src, g.stride, pixels, &mut self.held, &mut self.live);
        }
        // The spans of the kernel rows `(ci, ki)`, but for the channels
        // that are all `±0.0`, which no group then tests; k-blocks of
        // whole kernel rows, at least one, so that every group stores
        // its sums.
        let rows_per_block = (BLOCK_VALUES / tile.width() / g.kw).max(1);
        let per_span = match g.kw {
            ..=16 => (16 / g.kw).min((64 - g.kw) / b.wp + 1),
            _ => 1,
        };
        let plane = b.hp * b.wp;
        let (spans, span_ends) = (&mut self.spans, &mut self.span_ends);
        spans.clear();
        span_ends.clear();
        let mut in_block = 0;
        for ci in 0..b.c {
            let dead = !self.shared
                && (0..plane).step_by(64).all(|x| {
                    let bits = bits_at(&self.held, ci * plane + x);
                    bits & (u64::MAX >> (64 - (plane - x).min(64))) == 0
                });
            let mut ki = 0;
            while !dead && ki < g.kh {
                if in_block == rows_per_block {
                    span_ends.push(spans.len());
                    in_block = 0;
                }
                let rows = per_span.min(g.kh - ki).min(rows_per_block - in_block);
                let (at, kk) = ((ci * b.hp + ki) * b.wp, (ci * g.kh + ki) * g.kw);
                for kj in (0..g.kw).step_by(16) {
                    let taps = u64::MAX >> (64 - (g.kw - kj).min(16));
                    spans.push(Span {
                        kk: (kk + kj) as u32,
                        at: (at + kj) as u32,
                        pattern: (0..rows).fold(0, |p, r| p | taps << (r * b.wp)),
                    });
                }
                (ki, in_block) = (ki + rows, in_block + rows);
            }
        }
        span_ends.push(spans.len());
        self.blocks = span_ends.len();
        let Walk {
            groups,
            steps,
            ends,
            shared,
            spans,
            span_ends,
            live,
            ..
        } = self;
        let walking = if *shared { &groups[..1] } else { &groups[..] };
        // Every step, and 16 spare for the last span's whole-vector store.
        steps.clear();
        steps.reserve(walking.len() * k + 16);
        let out = steps.as_mut_ptr();
        let ramp = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        let (mut len, mut dropped) = (0, 0);
        ends.clear();
        for group in walking {
            let first = len;
            let mut start = 0;
            for &end in span_ends.iter() {
                for span in &spans[start..end] {
                    // Bit `kj` of row `r`: tap `kj` of some pixel of the
                    // group may hold a value. A short last group also
                    // tests the pixels after it, which only keeps more
                    // steps.
                    let held = match shared {
                        true => u64::MAX,
                        false => bits_at(live, group.origin + span.at as usize),
                    };
                    let mask = _pext_u64(held, span.pattern);
                    // The span's live steps, compressed to the front of a
                    // vector, stored whole, kept as many as live. No
                    // branch: the pattern is irregular.
                    let v = _mm512_add_epi32(ramp, _mm512_set1_epi32(span.kk as i32));
                    // SAFETY: `len + 16 ≤ capacity`: at most `k` steps
                    // before this store's, and 16 spare.
                    _mm512_storeu_si512(
                        out.add(len).cast(),
                        _mm512_maskz_compress_epi32(mask as __mmask16, v),
                    );
                    len += mask.count_ones() as usize;
                }
                ends.push(len);
                start = end;
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
/// where any of `src[x + t·stride]`, `t < pixels`, is: the taps at `x` of
/// a group's pixels, when its first pixel's tap is at `x`. `pixels` must
/// be a power of two.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn window_bits(
    src: &[f32],
    stride: usize,
    pixels: usize,
    held: &mut Vec<u64>,
    live: &mut Vec<u64>,
) {
    let magnitude = _mm512_set1_epi32(0x7fff_ffff);
    let words = src.len().div_ceil(64);
    // Zero words past the end, so that every shifted read stays inside.
    held.clear();
    held.resize(words + ((pixels - 1) * stride).div_ceil(64) + 2, 0);
    for (word, values) in held.iter_mut().zip(src.chunks(64)) {
        for (q, lanes) in values.chunks(16).enumerate() {
            let mask = (u32::MAX >> (16 - lanes.len()) >> 16) as __mmask16;
            // SAFETY: the mask reads the `lanes.len()` values of `lanes`.
            let v = _mm512_maskz_loadu_epi32(mask, lanes.as_ptr().cast());
            *word |= u64::from(_mm512_test_epi32_mask(v, magnitude)) << (16 * q);
        }
    }
    // By doubling: after the pass at `span`, bit `x` covers the taps at
    // `x, x + stride, …, x + (2·span − 1)·stride`. Each word reads only
    // itself and words after it, which this pass has not yet written.
    live.clear();
    live.extend_from_slice(held);
    let mut span = 1;
    while span < pixels {
        for w in 0..words {
            live[w] |= bits_at(live, 64 * w + span * stride);
        }
        span *= 2;
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
    let (cols, width) = (b.cols(), wt.tile.width());
    assert!(supported(), "the lanes route needs AVX-512F and BMI2");
    assert!(dst.len() == wt.o * cols && wt.k == b.rows());
    // SAFETY: the CPU supports AVX-512F and BMI2, checked above.
    let dropped = unsafe { walk.build(b, src, wt.finite, wt.tile) };
    qnn_trace::counter!("tensor.conv.fwd.macs_skipped", (dropped * wt.o) as u64);
    let walk = &*walk;
    let column_sums = match wt.tile.z {
        8 => column_sums::<2, 8>,
        4 => column_sums::<4, 4>,
        2 => column_sums::<8, 2>,
        _ => column_sums::<16, 1>,
    };
    par::for_each_chunk_mut(dst, width * cols, |t, dst| {
        TLS_SUMS.with(|sums| {
            let sums = &mut sums.borrow_mut();
            sums.resize(cols * width);
            let column = &wt.data[t * wt.k * width..][..wt.k * width];
            let bias = &bias[t * width..][..dst.len() / cols];
            // SAFETY: the CPU supports AVX-512F; `walk` was built over
            // `src` for `wt.k` steps of this tile.
            unsafe {
                column_sums(walk, column, src, b.geom.stride, sums);
                transpose(sums, width, bias, dst);
            }
        })
    });
}

/// One tile column: every group of `walk`, `P` pixels by the `16·Z`
/// channels of `wt`, through the k-blocks in order. Pixel `p`'s sums land
/// in `sums[p·16·Z ..][..16·Z]`.
///
/// # Safety
///
/// The CPU must support AVX-512F; `walk` must have been built over `src`
/// for `wt.len() / (16·Z)` steps of the `P × 16·Z` tile.
#[target_feature(enable = "avx512f")]
unsafe fn column_sums<const P: usize, const Z: usize>(
    walk: &Walk,
    wt: &[f32],
    src: &[f32],
    stride: usize,
    sums: &mut [f32],
) {
    let width = 16 * Z;
    // The last group ends last.
    let end = walk.groups.last().map_or(0, |g| g.first + g.width);
    assert!(sums.len() >= end * width);
    for blk in 0..walk.blocks {
        for (gi, group) in walk.groups.iter().enumerate() {
            let out = sums.as_mut_ptr().add(group.first * width);
            let mut acc = [[_mm512_setzero_ps(); Z]; P];
            if blk > 0 {
                for (t, acc_t) in acc.iter_mut().enumerate().take(group.width) {
                    for (q, a) in acc_t.iter_mut().enumerate() {
                        *a = _mm512_loadu_ps(out.add(t * width + q * 16));
                    }
                }
            }
            // A short last group repeats its last pixel in the lanes past
            // its width; those sums are never stored.
            let dx: [usize; P] = std::array::from_fn(|t| t.min(group.width - 1) * stride);
            let x = src.as_ptr().add(group.origin);
            for &kk in walk.steps(gi, blk) {
                let w = wt.as_ptr().add(kk as usize * width);
                let xp = x.add(walk.taps[kk as usize] as usize);
                let wv: [__m512; Z] = std::array::from_fn(|q| _mm512_loadu_ps(w.add(16 * q)));
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
                    _mm512_storeu_ps(out.add(t * width + q * 16), a);
                }
            }
        }
    }
}

/// Writes `dst`, `bias.len()` rows of `cols`, as the transpose of `sums`,
/// `cols` rows of `width`, plus each row's bias: `dst[j·cols + p] =
/// sums[p·width + j] + bias[j]`, in 16 × 16 blocks transposed in
/// registers.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn transpose(sums: &[f32], width: usize, bias: &[f32], dst: &mut [f32]) {
    let (channels, cols) = (bias.len(), dst.len() / bias.len());
    assert!(dst.len() == channels * cols && channels <= width && width.is_multiple_of(16));
    assert!(sums.len() >= cols * width);
    for p in (0..cols).step_by(16) {
        let pixels = (cols - p).min(16);
        let mask = (u32::MAX >> (16 - pixels) >> 16) as __mmask16;
        for c in (0..channels).step_by(16) {
            let mut rows = [_mm512_setzero_ps(); 16];
            for (i, row) in rows.iter_mut().enumerate().take(pixels) {
                // SAFETY: row `p + i < cols` of `sums`, channels `c ..
                // c + 16 ≤ width`.
                *row = _mm512_loadu_ps(sums.as_ptr().add((p + i) * width + c));
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
