//! 2-D convolution via im2col/col2im.
//!
//! The accelerator the paper models (a DianNao-style tile) flattens each
//! output neuron's receptive field into a dot product; im2col is the exact
//! software analogue, so using it here keeps the software MAC count equal to
//! the hardware MAC count used by the cycle model in `qnn-accel`.
//!
//! The heavy entry points come in two forms: the original allocating
//! functions ([`conv2d`], [`conv2d_backward`]) and `_with` variants taking a
//! [`ConvScratch`] so a layer that convolves every step reuses its im2col
//! and gradient buffers instead of reallocating them per call. Batches are
//! spread over the [`crate::par`] pool with per-sample output regions
//! (forward / input gradient) and fixed-size sample blocks for the weight
//! and bias gradient partials, reduced in block order — so results are
//! bit-identical at any thread count.
//!
//! The forward never materialises the patch matrix, and takes one of two
//! f32 routes, picked per layer from its shape ([`lanes::suits`]). On the
//! panel route its weights, already the GEMM's `A` operand, are packed
//! into the kernel's row panels once per call, and each image's patches
//! are written straight into the column panels of `B`. On the lanes route
//! (AVX-512, `o` a multiple of 16) output channels sit on the lanes, the
//! windows are read straight from the bordered image and each group of
//! pixels skips its all-zero k steps ([`lanes`]). Every patch transform
//! reads the image through one zero-bordered layout (`Border`), copied
//! once per image unless `pad` is 0 and every window lies inside, so that
//! each patch row of each output row is one plain run of taps. One walk
//! over those runs fills the row-major matrix of [`im2col_into`], the f32
//! GEMM's panels and the row pairs the i16 kernel's
//! [`crate::qgemm::PanelB`] is zipped from; col2im is its adjoint, summing
//! into a bordered buffer and copying the image part out.

#[cfg(target_arch = "x86_64")]
mod lanes;
#[cfg(target_arch = "x86_64")]
use lanes::{PackedWt, Tile, Walk};

use crate::error::TensorError;
use crate::gemm::{gemm_nt_with, gemm_packed, GemmScratch, PackedA, PackedB};
use crate::par;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding on all four sides.
    pub pad: usize,
    /// Ceil-mode output sizing (Caffe's pooling convention): a final
    /// partial window is emitted when the stride does not divide evenly.
    /// Convolutions use floor mode; the paper's ALEX pools are ceil mode.
    pub ceil: bool,
}

impl Geometry {
    /// Square kernel with the given stride and padding, floor-mode output
    /// sizing (the convolution convention).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stride == 0`.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        assert!(k > 0, "kernel must be non-empty");
        assert!(stride > 0, "stride must be positive");
        Geometry {
            kh: k,
            kw: k,
            stride,
            pad,
            ceil: false,
        }
    }

    /// Square kernel with ceil-mode output sizing (Caffe's pooling
    /// convention, used by the paper's ALEX 3×3/stride-2 pools).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stride == 0`.
    pub fn square_ceil(k: usize, stride: usize, pad: usize) -> Self {
        Geometry {
            ceil: true,
            ..Geometry::square(k, stride, pad)
        }
    }

    /// Output height/width for an input of `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the padded input is
    /// smaller than the kernel.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        let ph = h + 2 * self.pad;
        let pw = w + 2 * self.pad;
        if ph < self.kh || pw < self.kw {
            return Err(TensorError::InvalidGeometry {
                op: "output_hw",
                reason: format!(
                    "padded input {ph}×{pw} smaller than kernel {}×{}",
                    self.kh, self.kw
                ),
            });
        }
        let size = |full: usize, k: usize, orig: usize| -> usize {
            let span = full - k;
            let mut n = if self.ceil {
                span.div_ceil(self.stride) + 1
            } else {
                span / self.stride + 1
            };
            // Caffe's guard: the last window must start inside the
            // original (unpadded-right) extent.
            if self.ceil && self.pad > 0 && (n - 1) * self.stride >= orig + self.pad {
                n -= 1;
            }
            n
        };
        Ok((size(ph, self.kh, h), size(pw, self.kw, w)))
    }
}

/// The zero-bordered layout the patch walk reads one `(c, h, w)` image
/// in: `c` planes of `hp × wp`, the image at `(pad, pad)` of each and
/// zeros around it, large enough that every tap of every window lies
/// inside. Patch row `(ci, ki, kj)` of output row `oi` is then one run of
/// `ow` taps, `stride` apart, from `base(ci, ki, kj) + oi·stride·wp`,
/// with no padding logic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Border {
    c: usize,
    h: usize,
    w: usize,
    hp: usize,
    wp: usize,
    geom: Geometry,
    oh: usize,
    ow: usize,
}

/// One run of the patch walk: the `len` taps at `at, at + stride, …` past
/// a patch row's base land at `dst ..` past that row's start in the
/// destination.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) dst: usize,
    pub(crate) at: usize,
    pub(crate) len: usize,
}

impl Border {
    /// The layout for a `(c, h, w)` image under `geom`, which must already
    /// be validated (`(oh, ow) = geom.output_hw(h, w)`).
    pub(crate) fn new(
        (c, h, w): (usize, usize, usize),
        geom: Geometry,
        (oh, ow): (usize, usize),
    ) -> Border {
        // A ceil-mode window can reach past `h + 2·pad`.
        let hp = (h + 2 * geom.pad).max((oh - 1) * geom.stride + geom.kh);
        let wp = (w + 2 * geom.pad).max((ow - 1) * geom.stride + geom.kw);
        Border {
            c,
            h,
            w,
            hp,
            wp,
            geom,
            oh,
            ow,
        }
    }

    /// Patch rows (`c·kh·kw`).
    pub(crate) fn rows(&self) -> usize {
        self.c * self.geom.kh * self.geom.kw
    }

    /// Patch columns (`oh·ow`).
    pub(crate) fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// The windows' stride, between taps of a run.
    pub(crate) fn stride(&self) -> usize {
        self.geom.stride
    }

    /// Whether the image is its own bordered form: `pad` 0 and every
    /// window inside it.
    fn is_image(&self) -> bool {
        (self.hp, self.wp) == (self.h, self.w)
    }

    /// `(bordered, plain)` offsets of each image row, `w` long in both.
    fn image_rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (h, pad) = (self.h, self.geom.pad);
        (0..self.c * h).map(move |i| ((i / h * self.hp + i % h + pad) * self.wp + pad, i * self.w))
    }

    /// `image` (`c·h·w`) in this layout: `image` itself when it needs no
    /// border, else a copy in `buf`, which is resized and zeroed first.
    pub(crate) fn image<'a, T: Copy + Default>(
        &self,
        image: &'a [T],
        buf: &'a mut Vec<T>,
    ) -> &'a [T] {
        debug_assert_eq!(image.len(), self.c * self.h * self.w);
        if self.is_image() {
            return image;
        }
        buf.clear();
        buf.resize(self.c * self.hp * self.wp, T::default());
        for (b, i) in self.image_rows() {
            buf[b..b + self.w].copy_from_slice(&image[i..i + self.w]);
        }
        buf
    }

    /// Offset of patch row `row`'s first tap in the bordered image.
    fn base(&self, row: usize) -> usize {
        let g = self.geom;
        let (ci, ki, kj) = (row / (g.kh * g.kw), row / g.kw % g.kh, row % g.kw);
        (ci * self.hp + ki) * self.wp + kj
    }

    /// The runs of a row-major destination: output row `oi`'s `ow` taps,
    /// one run to patch columns `oi·ow ..`.
    pub(crate) fn row_runs(&self) -> impl Iterator<Item = Run> + Clone {
        let (ow, step) = (self.ow, self.geom.stride * self.wp);
        (0..self.oh).map(move |oi| Run {
            dst: oi * ow,
            at: oi * step,
            len: ow,
        })
    }

    /// The patch walk: copies patch rows `rows` of the bordered image
    /// `src`, renumbered from 0, into `dst`, each run of row `r` to
    /// `dst[r·pitch + run.dst ..][..run.len]`. Together `runs` must cover
    /// every patch column of a row; padding taps copy the border's zeros.
    pub(crate) fn unfold<T: Copy>(
        &self,
        src: &[T],
        rows: std::ops::Range<usize>,
        pitch: usize,
        runs: impl Iterator<Item = Run> + Clone,
        dst: &mut [T],
    ) {
        for (r, row) in rows.enumerate() {
            let (src, dst) = (&src[self.base(row)..], &mut dst[r * pitch..]);
            for run in runs.clone() {
                copy_run(
                    &mut dst[run.dst..][..run.len],
                    &src[run.at..],
                    self.stride(),
                );
            }
        }
    }

    /// col2im, the adjoint of the walk: adds the row-major patch matrix
    /// `cols` onto the taps it unfolds from and overwrites `dst` (`c·h·w`)
    /// with the image part. The sums run in `dst` itself when the image
    /// needs no border, else in `buf` in this layout, zeroed first, and
    /// the padding's share is dropped. Every pixel starts at `+0.0` and
    /// adds its taps in patch-row order, `(ci, ki, kj)`.
    fn fold(&self, cols: &[f32], buf: &mut Vec<f32>, dst: &mut [f32]) {
        debug_assert_eq!(cols.len(), self.rows() * self.cols());
        debug_assert_eq!(dst.len(), self.c * self.h * self.w);
        let acc = if self.is_image() {
            dst.fill(0.0);
            &mut dst[..]
        } else {
            buf.clear();
            buf.resize(self.c * self.hp * self.wp, 0.0);
            &mut buf[..]
        };
        for (row, patch) in cols.chunks_exact(self.cols()).enumerate() {
            let acc = &mut acc[self.base(row)..];
            for run in self.row_runs() {
                add_run(
                    &mut acc[run.at..],
                    &patch[run.dst..][..run.len],
                    self.stride(),
                );
            }
        }
        if !self.is_image() {
            for (b, i) in self.image_rows() {
                dst[i..i + self.w].copy_from_slice(&buf[b..b + self.w]);
            }
        }
    }
}

/// `dst[t] = src[t·stride]`. Stride-1 runs go in fixed-width blocks,
/// which compile to plain vector moves where a variable-length copy would
/// call `memcpy`.
#[inline(always)]
fn copy_run<T: Copy>(dst: &mut [T], src: &[T], stride: usize) {
    if stride != 1 {
        for (d, &s) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = s;
        }
        return;
    }
    let (n, mut t) = (dst.len(), 0);
    let src = &src[..n];
    while t + 16 <= n {
        dst[t..t + 16].copy_from_slice(&src[t..t + 16]);
        t += 16;
    }
    for block in [8, 4, 2, 1] {
        if t + block <= n {
            dst[t..t + block].copy_from_slice(&src[t..t + block]);
            t += block;
        }
    }
}

/// `acc[t·stride] += taps[t]`, in ascending `t`. Stride 1 takes a plain
/// zip, which vectorizes.
#[inline(always)]
fn add_run(acc: &mut [f32], taps: &[f32], stride: usize) {
    if stride == 1 {
        for (a, &v) in acc[..taps.len()].iter_mut().zip(taps) {
            *a += v;
        }
    } else {
        for (a, &v) in acc.iter_mut().step_by(stride).zip(taps) {
            *a += v;
        }
    }
}

/// Unfolds one image into the row-major patch matrix `dst` (`c·kh·kw ×
/// oh·ow`, overwritten entirely), bordering it in `buf` if it needs it.
fn im2col_kernel(border: &Border, image: &[f32], buf: &mut Vec<f32>, dst: &mut [f32]) {
    let (rows, cols) = (border.rows(), border.cols());
    debug_assert_eq!(dst.len(), rows * cols);
    let src = border.image(image, buf);
    border.unfold(src, 0..rows, cols, border.row_runs(), dst);
}

/// Unfolds one `(C, H, W)` image into the `(C·KH·KW, OH·OW)` patch matrix.
///
/// Column `o` holds the receptive field of output pixel `o` in row-major
/// `(c, kh, kw)` order; out-of-bounds taps read as zero (zero padding).
///
/// # Errors
///
/// Returns an error if `image` is not rank 3 or the geometry is impossible.
pub fn im2col(image: &Tensor, geom: Geometry) -> Result<Tensor, TensorError> {
    if image.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "im2col",
            expected: 3,
            actual: image.shape().rank(),
        });
    }
    let (c, h, w) = (
        image.shape().dim(0),
        image.shape().dim(1),
        image.shape().dim(2),
    );
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(image.as_slice(), c, h, w, geom, &mut out)?;
    Tensor::from_vec(Shape::d2(rows, cols), out)
}

/// Raw-slice [`im2col`]: unfolds one `(c, h, w)` image held in `image`
/// into `dst`, which must be exactly `c·kh·kw × oh·ow` long (row-major,
/// overwritten entirely). Exposed so callers that re-unfold per sample —
/// the quantized fast path in `qnn-nn` packs the patch matrix into integer
/// words — can reuse a scratch buffer instead of allocating a `Tensor`.
///
/// # Errors
///
/// Returns an error if the geometry is impossible for `(h, w)`; panics if
/// the slice lengths disagree with the derived dimensions.
pub fn im2col_into(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: Geometry,
    dst: &mut [f32],
) -> Result<(usize, usize), TensorError> {
    let (oh, ow) = geom.output_hw(h, w)?;
    assert_eq!(image.len(), c * h * w, "image slice length mismatch");
    assert_eq!(
        dst.len(),
        c * geom.kh * geom.kw * oh * ow,
        "im2col_into dst length mismatch"
    );
    let border = Border::new((c, h, w), geom, (oh, ow));
    TLS_BORDER.with(|buf| im2col_kernel(&border, image, &mut buf.borrow_mut(), dst));
    Ok((oh, ow))
}

/// Folds a `(C·KH·KW, OH·OW)` patch matrix back onto a `(C, H, W)` image,
/// accumulating overlapping taps — the adjoint of [`im2col`], used for the
/// input gradient of convolution.
///
/// # Errors
///
/// Returns an error if `cols` does not match the geometry for the target
/// `(c, h, w)`.
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    geom: Geometry,
) -> Result<Tensor, TensorError> {
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    if cols.shape().rank() != 2 || cols.shape().dim(0) != rows || cols.shape().dim(1) != oh * ow {
        return Err(TensorError::InvalidGeometry {
            op: "col2im",
            reason: format!(
                "patch matrix {} does not match target ({c}×{h}×{w}, kernel {}×{}, stride {}, pad {})",
                cols.shape(),
                geom.kh,
                geom.kw,
                geom.stride,
                geom.pad
            ),
        });
    }
    let mut out = vec![0.0f32; c * h * w];
    Border::new((c, h, w), geom, (oh, ow)).fold(cols.as_slice(), &mut Vec::new(), &mut out);
    Tensor::from_vec(Shape::d3(c, h, w), out)
}

/// Per-worker buffers for one convolution layer: the column panels (the
/// forward's patches, the backward's `dY`), the bordered image (the
/// backward's col2im sums in it too), the backward's im2col patch matrix,
/// folded gradient columns and per-sample weight-gradient product, and the
/// weight-gradient GEMM's packing buffer. Sized lazily on first use and
/// reused for the lifetime of the layer.
#[derive(Debug, Default, Clone)]
struct Slot {
    panels: PackedB,
    #[cfg(target_arch = "x86_64")]
    walk: Walk,
    border: Vec<f32>,
    cols: Vec<f32>,
    gcols: Vec<f32>,
    gw_tmp: Vec<f32>,
    gemm: GemmScratch,
}

/// Persistent scratch for [`conv2d_with`], [`conv2d_each_with`] and
/// [`conv2d_backward_with`].
///
/// Holds one buffer set per worker thread; a `Conv2d` layer owns one of
/// these so its buffers are allocated once per layer, not once per
/// forward/backward call.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    slots: Vec<Slot>,
}

impl ConvScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn slots(&mut self, workers: usize) -> &mut [Slot] {
        if self.slots.len() < workers {
            self.slots.resize(workers, Slot::default());
        }
        &mut self.slots[..workers]
    }
}

thread_local! {
    static TLS_CONV_SCRATCH: RefCell<ConvScratch> = RefCell::new(ConvScratch::new());
    /// The bordered image of [`im2col_into`], which takes no scratch.
    static TLS_BORDER: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The packed weights of one call: the forward's, in the form its
    /// route reads, and `Wᵀ` for the backward. They live only for that
    /// call, so one buffer per thread, grown to the largest layer it has
    /// run, serves every layer: no layer keeps a second copy of its weights.
    static TLS_WEIGHTS: RefCell<Weights> = RefCell::new(Weights::default());
}

/// A forward's packed weights: `W` in the GEMM's row panels for the panel
/// route, `Wᵀ` in channel panels for the lanes route.
#[derive(Debug, Default)]
struct Weights {
    panels: PackedA,
    #[cfg(target_arch = "x86_64")]
    lanes: PackedWt,
}

impl Weights {
    /// Packs `weight` for the route `d` takes, and counts the route, on
    /// the lanes route by its tile.
    fn pack(&mut self, d: &ConvDims, weight: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(tile) = d.lanes {
            qnn_trace::counter!(tile.counter(), 1);
            self.lanes.pack(tile, d.o, d.b.rows(), weight);
            return;
        }
        qnn_trace::counter!("tensor.conv.fwd.route.panels", 1);
        self.panels.pack(d.o, d.b.rows(), weight);
    }
}

/// Samples per weight-gradient partial block. Fixed (never derived from the
/// thread count) so the reduction tree — and therefore the rounding — is
/// identical no matter how many workers run.
const GRAD_BLOCK: usize = 4;

/// Convolves a batch `(N, C, H, W)` with weights `(O, C, KH, KW)` and bias
/// `(O)`, producing `(N, O, OH, OW)`.
///
/// Allocating wrapper around [`conv2d_with`] (uses a thread-local scratch).
///
/// # Errors
///
/// Returns an error on rank/shape mismatches or impossible geometry.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Geometry,
) -> Result<Tensor, TensorError> {
    TLS_CONV_SCRATCH.with(|s| conv2d_with(&mut s.borrow_mut(), input, weight, bias, geom))
}

/// [`conv2d`] with an explicit per-layer scratch: zero heap traffic in
/// steady state beyond the output tensor itself.
///
/// The weights are packed into the GEMM's row panels once per call; each
/// image's patches go straight into the column panels, and every output
/// still accumulates over `k` in ascending order with one multiply and one
/// add per step, so the bits are those of im2col, the naive GEMM and a
/// per-channel bias add.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches or impossible geometry.
pub fn conv2d_with(
    scratch: &mut ConvScratch,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Geometry,
) -> Result<Tensor, TensorError> {
    let d = ConvDims::of(input, weight, bias, geom)?;
    TLS_WEIGHTS.with(|w| conv2d_batch(scratch, &d, &mut w.borrow_mut(), input, weight, bias))
}

/// The body of [`conv2d_with`] on the route `d` names: the weights packed
/// into `weights`, then the batch's images spread over the pool, one slot
/// per worker.
fn conv2d_batch(
    scratch: &mut ConvScratch,
    d: &ConvDims,
    weights: &mut Weights,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    weights.pack(d, weight.as_slice());
    let weights = &*weights;
    let n = d.n;
    let sample_out = d.o * d.b.cols();
    let in_data = input.as_slice();
    let bslice = bias.as_slice();
    let mut out = vec![0.0f32; n * sample_out];

    let workers = par::workers_for(n);
    let parts: Vec<_> = par::split_ranges(&mut out, &par::partition(n, workers), sample_out)
        .into_iter()
        .zip(scratch.slots(workers))
        .collect();
    par::run_parts(parts, |((range, slab), slot)| {
        for (ni, dst) in range.zip(slab.chunks_mut(sample_out)) {
            conv_image(d, weights, slot, d.image(in_data, ni), bslice, dst);
        }
    });
    Tensor::from_vec(d.out_shape(), out)
}

/// [`conv2d_with`] one image at a time, in order, offering each image
/// first to `first` and running the f32 route on the images it declines.
///
/// `first(image, dst)` gets one `(c, h, w)` image and its `(o, oh·ow)`
/// output, and returns whether it wrote that output; it must then have
/// written exactly what the f32 route would. The native quantized conv
/// runs through this: the f32 route packs the weights at most once per call,
/// on the first declined image, and each image's GEMM may still spread its
/// row panels over the pool. Returns the output and how many images
/// `first` took.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches or impossible geometry.
pub fn conv2d_each_with<F>(
    scratch: &mut ConvScratch,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Geometry,
    mut first: F,
) -> Result<(Tensor, usize), TensorError>
where
    F: FnMut(&[f32], &mut [f32]) -> bool,
{
    let d = ConvDims::of(input, weight, bias, geom)?;
    let sample_out = d.o * d.b.cols();
    let slot = &mut scratch.slots(1)[0];
    let in_data = input.as_slice();
    let mut out = vec![0.0f32; d.n * sample_out];
    let (mut taken, mut packed) = (0, false);
    TLS_WEIGHTS.with(|w| {
        let mut weights = w.borrow_mut();
        for (ni, dst) in out.chunks_mut(sample_out).enumerate() {
            let image = d.image(in_data, ni);
            if first(image, dst) {
                taken += 1;
                continue;
            }
            if !packed {
                weights.pack(&d, weight.as_slice());
                packed = true;
            }
            conv_image(&d, &weights, slot, image, bias.as_slice(), dst);
        }
    });
    Ok((Tensor::from_vec(d.out_shape(), out)?, taken))
}

/// The validated dimensions of one conv forward: the batch, the output
/// channels, each image's bordered layout and the f32 route.
#[derive(Debug, Clone, Copy)]
struct ConvDims {
    n: usize,
    o: usize,
    b: Border,
    /// The lanes route's tile, where the forward takes that route
    /// ([`lanes::suits`]).
    #[cfg(target_arch = "x86_64")]
    lanes: Option<Tile>,
}

impl ConvDims {
    /// Checks `input (N, C, H, W)`, `weight (O, C, KH, KW)` and `bias (O)`
    /// against each other and `geom`, and counts the forward.
    fn of(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        geom: Geometry,
    ) -> Result<ConvDims, TensorError> {
        let (n, c, h, w) = conv_input_dims(input)?;
        let (o, wc, wkh, wkw) = conv_weight_dims(weight)?;
        if wc != c || wkh != geom.kh || wkw != geom.kw {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: input.shape().clone(),
                rhs: weight.shape().clone(),
            });
        }
        if bias.len() != o {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d/bias",
                lhs: weight.shape().clone(),
                rhs: bias.shape().clone(),
            });
        }
        let b = Border::new((c, h, w), geom, geom.output_hw(h, w)?);
        qnn_trace::counter!("tensor.conv.fwd.calls", 1);
        qnn_trace::counter!("tensor.conv.fwd.macs", (n * o * b.cols() * b.rows()) as u64);
        Ok(ConvDims {
            n,
            o,
            b,
            #[cfg(target_arch = "x86_64")]
            lanes: lanes::suits(&b, o),
        })
    }

    fn out_shape(&self) -> Shape {
        Shape::d4(self.n, self.o, self.b.oh, self.b.ow)
    }

    /// Image `ni` of the batch `data`.
    fn image<'a>(&self, data: &'a [f32], ni: usize) -> &'a [f32] {
        let len = self.b.c * self.b.h * self.b.w;
        &data[ni * len..(ni + 1) * len]
    }
}

/// The f32 route for one image into `dst` (`o × oh·ow`): the lanes route
/// where `d` takes it, else the panel route: its patches straight from the
/// bordered image into `slot`'s column panels, the GEMM against the packed
/// weights, then the per-channel bias.
fn conv_image(
    d: &ConvDims,
    weights: &Weights,
    slot: &mut Slot,
    image: &[f32],
    bias: &[f32],
    dst: &mut [f32],
) {
    let src = d.b.image(image, &mut slot.border);
    #[cfg(target_arch = "x86_64")]
    if d.lanes.is_some() {
        lanes::conv_image(&d.b, &weights.lanes, &mut slot.walk, src, bias, dst);
        return;
    }
    slot.panels.pack_patches(&d.b, src);
    gemm_packed(&weights.panels, &slot.panels, dst);
    for (row, &b) in dst.chunks_exact_mut(d.b.cols()).zip(bias) {
        for v in row {
            *v += b;
        }
    }
}

/// Gradients of [`conv2d`] given the upstream gradient `grad_out`
/// `(N, O, OH, OW)`.
///
/// Returns `(grad_input, grad_weight, grad_bias)`. Allocating wrapper
/// around [`conv2d_backward_with`].
///
/// # Errors
///
/// Returns an error on rank/shape mismatches.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geom: Geometry,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    TLS_CONV_SCRATCH
        .with(|s| conv2d_backward_with(&mut s.borrow_mut(), input, weight, grad_out, geom))
}

/// [`conv2d_backward`] with an explicit per-layer scratch.
///
/// The weight/bias gradients are summed as fixed [`GRAD_BLOCK`]-sample
/// partials reduced in block order, so they are bit-identical at any
/// thread count. `Wᵀ`, the left operand of every image's `dCols = Wᵀ·dY`,
/// is packed into the GEMM's row panels once per call and shared by the
/// workers; packing never reorders an accumulation, so the bits are those
/// of `gemm_tn` per image.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches.
pub fn conv2d_backward_with(
    scratch: &mut ConvScratch,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geom: Geometry,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    let (n, c, h, w) = conv_input_dims(input)?;
    let (o, _, _, _) = conv_weight_dims(weight)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    if grad_out.shape().dims() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: grad_out.shape().clone(),
            rhs: Shape::d4(n, o, oh, ow),
        });
    }
    let border = Border::new((c, h, w), geom, (oh, ow));
    let (px, kdim, csz) = (border.cols(), border.rows(), c * h * w);
    qnn_trace::counter!("tensor.conv.bwd.calls", 1);
    qnn_trace::counter!("tensor.conv.bwd.macs", (2 * n * o * px * kdim) as u64);
    let in_data = input.as_slice();
    let go_data = grad_out.as_slice();
    let mut gx = vec![0.0f32; n * csz];
    let n_blocks = n.div_ceil(GRAD_BLOCK);
    // One (dW, db) partial per fixed-size sample block, indexed by block.
    let mut partials: Vec<(Vec<f32>, Vec<f32>)> = vec![(Vec::new(), Vec::new()); n_blocks];
    // Wᵀ (kdim×o) for every image's dCols; the buffer goes back to the
    // thread-local once the workers are done.
    let mut wt = TLS_WEIGHTS.with(|w| std::mem::take(&mut w.borrow_mut().panels));
    wt.pack_transposed(kdim, o, weight.as_slice());

    // Processes the samples of blocks `blocks`, writing dX into `gx_slab`
    // (whose first element is sample `blocks.start * GRAD_BLOCK`) and the
    // per-block partials into `parts`.
    let run = |blocks: std::ops::Range<usize>,
               gx_slab: &mut [f32],
               parts: &mut [(Vec<f32>, Vec<f32>)],
               slot: &mut Slot| {
        slot.cols.resize(kdim * px, 0.0);
        slot.gcols.resize(kdim * px, 0.0);
        slot.gw_tmp.resize(o * kdim, 0.0);
        let first_sample = blocks.start * GRAD_BLOCK;
        for (blk, part) in blocks.zip(parts.iter_mut()) {
            let (pgw, pgb) = part;
            pgw.resize(o * kdim, 0.0);
            pgw.fill(0.0);
            pgb.resize(o, 0.0);
            pgb.fill(0.0);
            let lo = blk * GRAD_BLOCK;
            let hi = (lo + GRAD_BLOCK).min(n);
            for ni in lo..hi {
                let img = &in_data[ni * csz..(ni + 1) * csz];
                let go = &go_data[ni * o * px..(ni + 1) * o * px];
                im2col_kernel(&border, img, &mut slot.border, &mut slot.cols);
                // dW_sample = dY · colsᵀ  (o×px · px×kdim).
                gemm_nt_with(
                    &mut slot.gemm,
                    o,
                    px,
                    kdim,
                    go,
                    &slot.cols,
                    &mut slot.gw_tmp,
                );
                for (acc, &v) in pgw.iter_mut().zip(slot.gw_tmp.iter()) {
                    *acc += v;
                }
                for (oi, acc) in pgb.iter_mut().enumerate() {
                    *acc += go[oi * px..(oi + 1) * px].iter().sum::<f32>();
                }
                // dCols = Wᵀ · dY  (kdim×o · o×px).
                slot.panels.pack(o, px, go);
                gemm_packed(&wt, &slot.panels, &mut slot.gcols);
                let dst = &mut gx_slab[(ni - first_sample) * csz..(ni - first_sample + 1) * csz];
                border.fold(&slot.gcols, &mut slot.border, dst);
            }
        }
    };

    let workers = par::workers_for(n_blocks);
    let ranges = par::partition(n_blocks, workers);
    let parts: Vec<_> = par::split_ranges(&mut gx, &ranges, GRAD_BLOCK * csz)
        .into_iter()
        .zip(par::split_ranges(&mut partials, &ranges, 1))
        .zip(scratch.slots(workers))
        .collect();
    par::run_parts(parts, |(((blocks, gx_slab), (_, parts)), slot)| {
        run(blocks, gx_slab, parts, slot)
    });
    TLS_WEIGHTS.with(|w| w.borrow_mut().panels = wt);

    // Sequential reduction in ascending block order: the summation tree is
    // a function of (n, GRAD_BLOCK) only, never of the worker count.
    let mut gw = vec![0.0f32; o * kdim];
    let mut gb = vec![0.0f32; o];
    for (pgw, pgb) in &partials {
        for (acc, &v) in gw.iter_mut().zip(pgw.iter()) {
            *acc += v;
        }
        for (acc, &v) in gb.iter_mut().zip(pgb.iter()) {
            *acc += v;
        }
    }
    let gw = Tensor::from_vec(weight.shape().clone(), gw)?;
    let gb = Tensor::from_vec(Shape::d1(o), gb)?;
    let gx = Tensor::from_vec(Shape::d4(n, c, h, w), gx)?;
    Ok((gx, gw, gb))
}

pub(crate) fn conv_input_dims(input: &Tensor) -> Result<(usize, usize, usize, usize), TensorError> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: input.shape().rank(),
        });
    }
    Ok((
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    ))
}

fn conv_weight_dims(weight: &Tensor) -> Result<(usize, usize, usize, usize), TensorError> {
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d/weight",
            expected: 4,
            actual: weight.shape().rank(),
        });
    }
    Ok((
        weight.shape().dim(0),
        weight.shape().dim(1),
        weight.shape().dim(2),
        weight.shape().dim(3),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Shape, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, v).unwrap()
    }

    /// im2col one tap at a time, every bound checked per element: the
    /// reference the bordered walk's runs must reproduce bit for bit.
    fn im2col_reference(image: &[f32], c: usize, h: usize, w: usize, geom: Geometry) -> Vec<f32> {
        let (oh, ow) = geom.output_hw(h, w).unwrap();
        let cols = oh * ow;
        let mut dst = vec![0.0f32; c * geom.kh * geom.kw * cols];
        for ci in 0..c {
            for ki in 0..geom.kh {
                for kj in 0..geom.kw {
                    let row = (ci * geom.kh + ki) * geom.kw + kj;
                    for oi in 0..oh {
                        let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                        if ii < 0 || ii as usize >= h {
                            continue;
                        }
                        for oj in 0..ow {
                            let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                            if jj < 0 || jj as usize >= w {
                                continue;
                            }
                            dst[row * cols + oi * ow + oj] =
                                image[(ci * h + ii as usize) * w + jj as usize];
                        }
                    }
                }
            }
        }
        dst
    }

    #[test]
    fn im2col_rows_match_per_element_reference() {
        let mut r = crate::rng::seeded(0x1C01_2C01);
        let (mut cases, mut strided, mut padded) = (0, 0, 0);
        while cases < 320 {
            let geom = Geometry {
                kh: r.gen_range(1usize..8),
                kw: r.gen_range(1usize..8),
                stride: r.gen_range(1usize..4),
                pad: r.gen_range(0usize..4),
                ceil: r.gen_bool(0.25),
            };
            let (c, h, w) = (
                r.gen_range(1usize..5),
                r.gen_range(1usize..14),
                r.gen_range(1usize..14),
            );
            let Ok((oh, ow)) = geom.output_hw(h, w) else {
                continue;
            };
            cases += 1;
            strided += usize::from(geom.stride > 1);
            padded += usize::from(geom.pad > 0);
            // Signed zeros among the pixels: copies must keep their sign,
            // padding must be `+0.0`.
            let image: Vec<f32> = (0..c * h * w)
                .map(|_| match r.gen_range(0u32..8) {
                    0 => -0.0,
                    1 => 0.0,
                    _ => r.gen_range(-4.0f32..4.0),
                })
                .collect();
            let want = im2col_reference(&image, c, h, w, geom);
            let mut got = vec![f32::NAN; want.len()];
            assert_eq!(
                im2col_into(&image, c, h, w, geom, &mut got).unwrap(),
                (oh, ow)
            );
            for (i, (g, v)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    v.to_bits(),
                    "{geom:?} c={c} h={h} w={w} at {i}: got {g:e}, want {v:e}"
                );
            }
        }
        assert!(strided > 0 && padded > 0);
    }

    /// col2im one tap at a time, every bound checked per element: the
    /// loop the bordered fold replaced, kept as its reference.
    fn col2im_reference(cols: &[f32], c: usize, h: usize, w: usize, geom: Geometry) -> Vec<f32> {
        let (oh, ow) = geom.output_hw(h, w).unwrap();
        let ncols = oh * ow;
        let mut dst = vec![0.0f32; c * h * w];
        for ci in 0..c {
            for ki in 0..geom.kh {
                for kj in 0..geom.kw {
                    let row = (ci * geom.kh + ki) * geom.kw + kj;
                    for oi in 0..oh {
                        let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                        if ii < 0 || ii as usize >= h {
                            continue;
                        }
                        for oj in 0..ow {
                            let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                            if jj < 0 || jj as usize >= w {
                                continue;
                            }
                            dst[(ci * h + ii as usize) * w + jj as usize] +=
                                cols[row * ncols + oi * ow + oj];
                        }
                    }
                }
            }
        }
        dst
    }

    /// The backward's fold against [`col2im_reference`] over 256+ seeded
    /// geometries, a quarter of them ceil mode, with one sum buffer reused
    /// across cases. Non-NaN pixels must be bit-equal, so each pixel must
    /// add its taps in the reference's `(ci, ki, kj)` order; NaN must
    /// appear exactly where the reference has NaN.
    #[test]
    fn col2im_matches_per_element_reference() {
        let mut r = crate::rng::seeded(0xC0_12_1E_B1);
        let mut buf = Vec::new();
        let (mut cases, mut strided, mut padded, mut ceil, mut nans) = (0, 0, 0, 0, 0);
        while cases < 288 {
            let geom = Geometry {
                kh: r.gen_range(1usize..8),
                kw: r.gen_range(1usize..8),
                stride: r.gen_range(1usize..4),
                pad: r.gen_range(0usize..4),
                ceil: r.gen_bool(0.25),
            };
            let (c, h, w) = (
                r.gen_range(1usize..5),
                r.gen_range(1usize..14),
                r.gen_range(1usize..14),
            );
            let Ok((oh, ow)) = geom.output_hw(h, w) else {
                continue;
            };
            cases += 1;
            strided += usize::from(geom.stride > 1);
            padded += usize::from(geom.pad > 0);
            ceil += usize::from(geom.ceil);
            let k = c * geom.kh * geom.kw;
            let cols: Vec<f32> = (0..k * oh * ow).map(|_| operand(&mut r)).collect();
            let want = col2im_reference(&cols, c, h, w, geom);
            nans += want.iter().filter(|v| v.is_nan()).count();
            let mut got = vec![f32::NAN; want.len()];
            Border::new((c, h, w), geom, (oh, ow)).fold(&cols, &mut buf, &mut got);
            let public = col2im(&t(Shape::d2(k, oh * ow), cols), c, h, w, geom).unwrap();
            let both = got.iter().zip(public.as_slice());
            for (i, ((&g, &p), &v)) in both.zip(&want).enumerate() {
                let same = |x: f32| {
                    if v.is_nan() {
                        x.is_nan()
                    } else {
                        x.to_bits() == v.to_bits()
                    }
                };
                assert!(
                    same(g) && same(p),
                    "{geom:?} c={c} h={h} w={w} at {i}: got {g:e} and {p:e}, want {v:e}"
                );
            }
        }
        assert!(strided > 0 && padded > 0 && ceil > 0 && nans > 0);
    }

    /// One conv operand: mostly uniform in [-2, 2], sometimes a signed
    /// zero, a subnormal, ±inf or NaN.
    fn operand(r: &mut crate::rng::Rng) -> f32 {
        let sign = if r.gen_bool(0.5) { 1.0 } else { -1.0 };
        match r.gen_range(0u32..100) {
            0..=4 => sign * 0.0,
            5..=7 => sign * f32::from_bits(r.gen_range(1u32..0x0080_0000)),
            8 => sign * f32::INFINITY,
            9 => f32::NAN,
            _ => r.gen_range(-2.0f32..2.0),
        }
    }

    /// One finite conv operand: [`operand`] with its ±inf and NaN redrawn.
    fn finite_operand(r: &mut crate::rng::Rng) -> f32 {
        loop {
            let v = operand(r);
            if v.is_finite() {
                return v;
            }
        }
    }

    /// A `(c, h, w)` image of finite operands in which some channels are
    /// dead (all `±0.0`) and others hold zero regions: bands of whole rows
    /// and patches of a few columns. The zeros take both signs. The
    /// subnormals among the other values stay, and some regions keep one,
    /// which no skip may drop.
    fn zeroed_image(r: &mut crate::rng::Rng, (c, h, w): (usize, usize, usize)) -> Vec<f32> {
        let mut img: Vec<f32> = (0..c * h * w).map(|_| finite_operand(r)).collect();
        for plane in img.chunks_exact_mut(h * w) {
            let (rows, cols) = match r.gen_range(0u32..4) {
                0 => (0..h, 0..w),
                1 => {
                    let y = r.gen_range(0..h);
                    (y..r.gen_range(y..h) + 1, 0..w)
                }
                2 => {
                    let (y, x) = (r.gen_range(0..h), r.gen_range(0..w));
                    (y..r.gen_range(y..h) + 1, x..r.gen_range(x..w) + 1)
                }
                _ => continue,
            };
            let keep = (r.gen_range(rows.clone()), r.gen_range(cols.clone()));
            for y in rows {
                for v in &mut plane[y * w..][cols.clone()] {
                    *v = if r.gen_bool(0.5) { 0.0 } else { -0.0 };
                }
            }
            if r.gen_bool(0.3) {
                plane[keep.0 * w + keep.1] = f32::from_bits(r.gen_range(1u32..0x0080_0000));
            }
        }
        img
    }

    /// `conv2d_with`, `conv2d_each_with` and, where AVX-512F runs, the
    /// lanes route called directly for every shape, against the
    /// per-element im2col, the naive triple-loop GEMM and a per-channel
    /// bias add, over 288 seeded geometries at 1 and 4 threads with a
    /// reused scratch: strides 1–3, pads 0–3, a quarter ceil mode (whose
    /// last window can reach past `h + 2·pad`), output channels through
    /// every residue mod 32 and mod 4 (the panel tile's rows) and every
    /// multiple of 16 that picks a lanes tile (16, 48, 64, 96, 128, 192
    /// and 256), several 16-column panels and 16-pixel transpose blocks,
    /// and, for each of the four lanes tiles, output rows that end in a
    /// partial group (also past a whole 16-pixel group) and cases with
    /// more kernel rows than one k-block holds. The direct call takes the
    /// tile the rule picks for `o`, and each tile in turn where none fits,
    /// so channels past `o` pad a tile column. A third of the cases draw
    /// every operand at random, ±0, subnormals, ±inf and NaN among them; a
    /// third give the images dead channels and zero regions (some keeping
    /// one subnormal) under finite weights, so the lanes route skips steps,
    /// which `tensor.conv.fwd.macs_skipped` must show; the last third add
    /// one ±inf or NaN weight to those images, which must turn the skip
    /// off. Non-NaN outputs must be bit-equal; NaN must appear exactly
    /// where the reference has NaN (which NaN survives an add of two is up
    /// to instruction selection, see `gemm`'s module docs).
    #[test]
    fn conv_matches_im2col_naive_gemm_and_bias_bitwise() {
        const SHAPES: [usize; 7] = [16, 48, 64, 96, 128, 192, 256];
        let mut r = crate::rng::seeded(0xC0_2D_3E_F5);
        let mut scratch = ConvScratch::new();
        let (mut cases, mut residues, mut quads, mut wide, mut nans, mut beyond) =
            (0, [0usize; 32], [0usize; 4], 0, 0, 0);
        let (mut kinds, mut shapes, mut strides, mut pads) =
            ([0usize; 3], [0usize; 7], [0usize; 3], [0usize; 4]);
        // Per lanes tile, widest first: direct calls, calls with a
        // partial last group, with one past a whole 16-pixel group, and
        // with more than one k-block.
        let (mut tiles, mut partial, mut partial16, mut blocked) =
            ([0usize; 4], [0usize; 4], 0, [0usize; 4]);
        // Lanes route calls, and the steps they skipped per kind.
        let (mut lanes_calls, mut skipped) = (0, [0u64; 3]);
        while cases < 288 {
            // An eighth of the cases: enough kernel rows for two k-blocks
            // of every tile; another eighth: output rows past 16 pixels.
            let (deep, long) = (cases % 8 == 7, cases % 8 == 3);
            let kernel = if deep { 6usize..8 } else { 1..8 };
            let geom = Geometry {
                kh: r.gen_range(kernel.clone()),
                kw: r.gen_range(kernel),
                stride: r.gen_range(1usize..4),
                pad: r.gen_range(0usize..4),
                ceil: r.gen_bool(0.25),
            };
            let c = if deep {
                r.gen_range(16usize..20)
            } else {
                r.gen_range(1usize..5)
            };
            let (n, h, w) = if long {
                (
                    r.gen_range(1usize..3),
                    r.gen_range(1usize..5),
                    r.gen_range(20usize..48),
                )
            } else {
                (
                    r.gen_range(1usize..4),
                    r.gen_range(1usize..14),
                    r.gen_range(1usize..14),
                )
            };
            let Ok((oh, ow)) = geom.output_hw(h, w) else {
                continue;
            };
            // Every other case a multiple of 16, else 1..=64 in turn.
            let o = if cases % 2 == 1 {
                shapes[cases / 2 % 7] += 1;
                SHAPES[cases / 2 % 7]
            } else {
                cases / 2 % 64 + 1
            };
            cases += 1;
            residues[o % 32] += 1;
            quads[o % 4] += 1;
            wide += usize::from(oh * ow > 32);
            strides[geom.stride - 1] += 1;
            pads[geom.pad] += 1;
            beyond += usize::from((oh - 1) * geom.stride + geom.kh > h + 2 * geom.pad);
            let (px, kdim) = (oh * ow, c * geom.kh * geom.kw);
            let kind = cases % 3;
            kinds[kind] += 1;
            let (x, wt) = if kind == 0 {
                let x: Vec<f32> = (0..n * c * h * w).map(|_| operand(&mut r)).collect();
                (x, (0..o * kdim).map(|_| operand(&mut r)).collect())
            } else {
                let x = (0..n)
                    .flat_map(|_| zeroed_image(&mut r, (c, h, w)))
                    .collect();
                let mut wt: Vec<f32> = (0..o * kdim).map(|_| finite_operand(&mut r)).collect();
                if kind == 2 {
                    let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                    wt[r.gen_range(0..o * kdim)] = poison[r.gen_range(0..poison.len())];
                }
                (x, wt)
            };
            let b: Vec<f32> = (0..o).map(|_| operand(&mut r)).collect();
            let mut want = Vec::with_capacity(n * o * px);
            for img in x.chunks_exact(c * h * w) {
                let cols = im2col_reference(img, c, h, w, geom);
                for oi in 0..o {
                    for p in 0..px {
                        let mut acc = 0.0f32;
                        for kk in 0..kdim {
                            acc += wt[oi * kdim + kk] * cols[kk * px + p];
                        }
                        want.push(acc + b[oi]);
                    }
                }
            }
            nans += want.iter().filter(|v| v.is_nan()).count();
            let x = t(Shape::d4(n, c, h, w), x);
            let wt = t(Shape::d4(o, c, geom.kh, geom.kw), wt);
            let b = t(Shape::d1(o), b);
            let check = |got: &Tensor, what: &str, threads: usize| {
                assert_eq!(got.shape().dims(), &[n, o, oh, ow]);
                for (i, (&g, &v)) in got.as_slice().iter().zip(&want).enumerate() {
                    let same = if v.is_nan() {
                        g.is_nan()
                    } else {
                        g.to_bits() == v.to_bits()
                    };
                    assert!(
                        same,
                        "{what}: {geom:?} n={n} c={c} h={h} w={w} o={o} threads={threads} \
                         at {i}: got {g:e}, want {v:e}"
                    );
                }
            };
            // The lanes tile of the direct call.
            #[cfg(target_arch = "x86_64")]
            let tile = Tile::for_channels(o).unwrap_or(Tile::ALL[cases % 4]);
            #[cfg(target_arch = "x86_64")]
            if lanes::supported() {
                let ti = Tile::ALL.iter().position(|&t| t == tile).unwrap();
                tiles[ti] += 1;
                partial[ti] += usize::from(!ow.is_multiple_of(tile.pixels()));
                partial16 += usize::from(tile.pixels() == 16 && ow > 16 && ow % 16 != 0);
                blocked[ti] += usize::from(c * geom.kh > 8192 / tile.width() / geom.kw);
            }
            for threads in [1, 4] {
                crate::par::set_threads(Some(threads));
                check(
                    &conv2d_with(&mut scratch, &x, &wt, &b, geom).unwrap(),
                    "conv2d_with",
                    threads,
                );
                // `conv2d_each_with`: image 0 is taken as the reference
                // output, the others run the f32 route.
                let mut seen = 0;
                let (each, taken) = conv2d_each_with(&mut scratch, &x, &wt, &b, geom, |_, dst| {
                    seen += 1;
                    if seen > 1 {
                        return false;
                    }
                    dst.copy_from_slice(&want[..o * px]);
                    true
                })
                .unwrap();
                assert_eq!((seen, taken), (n, 1));
                check(&each, "conv2d_each_with", threads);
                // The lanes route on `tile`, whatever the rule picks.
                #[cfg(target_arch = "x86_64")]
                if lanes::supported() {
                    qnn_trace::start();
                    let mut d = ConvDims::of(&x, &wt, &b, geom).unwrap();
                    d.lanes = Some(tile);
                    let got = TLS_WEIGHTS
                        .with(|w| conv2d_batch(&mut scratch, &d, &mut w.borrow_mut(), &x, &wt, &b));
                    let trace = qnn_trace::stop();
                    check(&got.unwrap(), tile.counter(), threads);
                    let count = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
                    lanes_calls += count(tile.counter());
                    skipped[kind] += count("tensor.conv.fwd.macs_skipped");
                }
            }
        }
        crate::par::set_threads(None);
        assert!(residues.iter().all(|&k| k > 0) && quads.iter().all(|&k| k > 0));
        assert!(strides.iter().all(|&k| k > 0) && pads.iter().all(|&k| k > 0));
        assert!(shapes.iter().all(|&k| k > 0), "{shapes:?}");
        assert!(wide > 0 && nans > 0 && beyond > 0);
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
        #[cfg(target_arch = "x86_64")]
        if lanes::supported() {
            // Every tile ran, with partial groups and several k-blocks;
            // every direct call took the lanes route; the finite-weight
            // zeroed images skipped steps and one non-finite weight
            // turned the skip off.
            for counts in [tiles, partial, blocked] {
                assert!(
                    counts.iter().all(|&k| k > 0),
                    "{tiles:?} {partial:?} {blocked:?}"
                );
            }
            assert!(partial16 > 0);
            assert_eq!(lanes_calls, 2 * cases as u64);
            assert!(skipped[1] > 0 && skipped[2] == 0, "skipped {skipped:?}");
        }
    }

    #[test]
    fn geometry_output_sizes() {
        let g = Geometry::square(5, 1, 0);
        assert_eq!(g.output_hw(28, 28).unwrap(), (24, 24));
        let g = Geometry::square(5, 1, 2);
        assert_eq!(g.output_hw(32, 32).unwrap(), (32, 32));
        let g = Geometry::square(2, 2, 0);
        assert_eq!(g.output_hw(24, 24).unwrap(), (12, 12));
        let g = Geometry::square(3, 2, 0);
        assert_eq!(g.output_hw(32, 32).unwrap(), (15, 15));
    }

    #[test]
    fn geometry_rejects_tiny_input() {
        let g = Geometry::square(5, 1, 0);
        assert!(g.output_hw(3, 3).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, stride 1: im2col is the identity (one row per channel).
        let img = t(Shape::d3(2, 2, 2), vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let cols = im2col(&img, Geometry::square(1, 1, 0)).unwrap();
        assert_eq!(cols.shape().dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_extracts_patches() {
        // 3×3 image, 2×2 kernel, stride 1 → 4 patches.
        let img = t(Shape::d3(1, 3, 3), vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let cols = im2col(&img, Geometry::square(2, 1, 0)).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // Patch at (0,0) is [1,2,4,5]; columns are output pixels.
        assert_eq!(cols.at(&[0, 0]), 1.0);
        assert_eq!(cols.at(&[1, 0]), 2.0);
        assert_eq!(cols.at(&[2, 0]), 4.0);
        assert_eq!(cols.at(&[3, 0]), 5.0);
        // Patch at (1,1) is [5,6,8,9].
        assert_eq!(cols.at(&[0, 3]), 5.0);
        assert_eq!(cols.at(&[3, 3]), 9.0);
    }

    #[test]
    fn im2col_zero_pads() {
        let img = t(Shape::d3(1, 2, 2), vec![1., 2., 3., 4.]);
        let cols = im2col(&img, Geometry::square(3, 1, 1)).unwrap();
        // Output is 2×2; the (0,0) patch's top-left tap is padding.
        assert_eq!(cols.shape().dims(), &[9, 4]);
        assert_eq!(cols.at(&[0, 0]), 0.0);
        assert_eq!(cols.at(&[4, 0]), 1.0); // centre tap hits pixel (0,0)
    }

    #[test]
    fn conv2d_matches_hand_computation() {
        // Single 2×2 "sum" kernel over a 3×3 ramp.
        let x = t(
            Shape::d4(1, 1, 3, 3),
            vec![1., 2., 3., 4., 5., 6., 7., 8., 9.],
        );
        let w = Tensor::ones(Shape::d4(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::d1(1));
        let y = conv2d(&x, &w, &b, Geometry::square(2, 1, 0)).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[12., 16., 24., 28.]);
    }

    #[test]
    fn conv2d_applies_bias_per_channel() {
        let x = Tensor::zeros(Shape::d4(1, 1, 2, 2));
        let w = Tensor::zeros(Shape::d4(2, 1, 1, 1));
        let b = t(Shape::d1(2), vec![1.5, -2.5]);
        let y = conv2d(&x, &w, &b, Geometry::square(1, 1, 0)).unwrap();
        assert_eq!(&y.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..], &[-2.5; 4]);
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let x = Tensor::zeros(Shape::d4(1, 3, 4, 4));
        let w = Tensor::zeros(Shape::d4(2, 2, 3, 3));
        let b = Tensor::zeros(Shape::d1(2));
        assert!(conv2d(&x, &w, &b, Geometry::square(3, 1, 0)).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y — the adjoint
        // property gradient correctness rests on.
        let geom = Geometry::square(3, 2, 1);
        let (c, h, w) = (2, 5, 5);
        let x = t(
            Shape::d3(c, h, w),
            (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let cols = im2col(&x, geom).unwrap();
        let y = cols.map(|v| (v * 1.7 + 0.3).cos());
        let lhs = cols.dot(&y).unwrap();
        let folded = col2im(&y, c, h, w, geom).unwrap();
        let rhs = x.dot(&folded).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn conv2d_backward_matches_numeric_gradient() {
        let geom = Geometry::square(3, 1, 1);
        let x = t(
            Shape::d4(1, 2, 4, 4),
            (0..32).map(|i| ((i as f32) * 0.21).sin()).collect(),
        );
        let w0 = t(
            Shape::d4(2, 2, 3, 3),
            (0..36).map(|i| ((i as f32) * 0.13).cos() * 0.5).collect(),
        );
        let b0 = t(Shape::d1(2), vec![0.1, -0.2]);
        // Loss = sum(conv(x, w, b)); its gradient wrt w is checked by finite
        // differences on a few taps.
        let y = conv2d(&x, &w0, &b0, geom).unwrap();
        let gout = Tensor::ones(y.shape().clone());
        let (gx, gw, gb) = conv2d_backward(&x, &w0, &gout, geom).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 7, 20, 35] {
            let mut wp = w0.clone();
            wp.as_mut_slice()[idx] += eps;
            let yp = conv2d(&x, &wp, &b0, geom).unwrap().sum();
            let mut wm = w0.clone();
            wm.as_mut_slice()[idx] -= eps;
            let ym = conv2d(&x, &wm, &b0, geom).unwrap().sum();
            let num = (yp - ym) / (2.0 * eps);
            let ana = gw.as_slice()[idx];
            assert!((num - ana).abs() < 1e-2, "w[{idx}]: num={num} ana={ana}");
        }
        for idx in [0usize, 13, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp = conv2d(&xp, &w0, &b0, geom).unwrap().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let ym = conv2d(&xm, &w0, &b0, geom).unwrap().sum();
            let num = (yp - ym) / (2.0 * eps);
            let ana = gx.as_slice()[idx];
            assert!((num - ana).abs() < 1e-2, "x[{idx}]: num={num} ana={ana}");
        }
        // Bias gradient of a sum-loss is the number of output pixels.
        assert_eq!(gb.as_slice(), &[16.0, 16.0]);
    }

    /// Random batch conv: forward and all three gradients must be
    /// bit-identical at 1 and 4 worker threads, with fresh or reused scratch.
    #[test]
    fn conv_results_invariant_under_thread_count_and_scratch_reuse() {
        let geom = Geometry::square(3, 1, 1);
        let mut r = crate::rng::seeded(0xC04F);
        let x = crate::init::uniform(Shape::d4(9, 3, 6, 6), -1.0, 1.0, &mut r);
        let w = crate::init::uniform(Shape::d4(4, 3, 3, 3), -0.5, 0.5, &mut r);
        let b = crate::init::uniform(Shape::d1(4), -0.1, 0.1, &mut r);
        let y = conv2d(&x, &w, &b, geom).unwrap();
        let go = crate::init::uniform(y.shape().clone(), -1.0, 1.0, &mut r);

        crate::par::set_threads(Some(1));
        let y1 = conv2d(&x, &w, &b, geom).unwrap();
        let (gx1, gw1, gb1) = conv2d_backward(&x, &w, &go, geom).unwrap();
        crate::par::set_threads(Some(4));
        let mut scratch = ConvScratch::new();
        let y4 = conv2d_with(&mut scratch, &x, &w, &b, geom).unwrap();
        let (gx4, gw4, gb4) = conv2d_backward_with(&mut scratch, &x, &w, &go, geom).unwrap();
        // Second pass through the same scratch must not change anything.
        let y4b = conv2d_with(&mut scratch, &x, &w, &b, geom).unwrap();
        crate::par::set_threads(None);

        assert_eq!(y1, y);
        assert_eq!(y4, y);
        assert_eq!(y4b, y);
        assert_eq!(gx1, gx4);
        assert_eq!(gw1, gw4);
        assert_eq!(gb1, gb4);
    }
}
