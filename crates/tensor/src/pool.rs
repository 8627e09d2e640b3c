//! Max and average pooling with the argmax bookkeeping backprop needs.
//!
//! The paper's networks use `maxpool 2×2`/`3×3` (LeNet, ConvNet, ALEX's
//! first stage) and `avgpool 3×3` (ALEX's later stages); both are supported
//! with arbitrary square windows, stride and padding via
//! [`Geometry`].
//!
//! [`max_pool2d`] records the argmax that [`max_pool2d_backward`] needs;
//! [`max_pool2d_eval`] is the inference forward, which has no backward and
//! returns the pooled tensor alone. It and [`avg_pool2d`] have two bodies,
//! picked from CPUID (see [`simd_build`]):
//!
//! - On AVX-512F, a gather kernel computes 16 outputs of a plane at a
//!   time, one masked gather per tap. Per-lane masks leave out the taps
//!   that fall outside the plane (padding, ceil mode), so one body covers
//!   every window, stride and kernel size.
//! - Elsewhere (plain and AVX2 builds), each output row is split into
//!   windows that lie wholly inside the input and border windows. The full
//!   windows are computed one tap at a time, sweeping across the row's
//!   output columns, so the per-column updates are independent and
//!   vectorize; the border windows run the scalar loop.
//!
//! Both visit the same in-bounds taps in the same `(ki, kj)` order as the
//! scalar loop and apply the same per-tap update, so the bits match it.

use crate::conv::{conv_input_dims, Geometry};
use crate::error::TensorError;
use crate::gemm::Build;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Result of a max-pooling forward pass: the pooled tensor plus, for each
/// output element, the linear index of the winning input element (used by
/// [`max_pool2d_backward`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolOutput {
    /// Pooled activations, `(N, C, OH, OW)`.
    pub output: Tensor,
    /// For each output element, the flat index into the input of the max.
    pub argmax: Vec<usize>,
}

/// Max-pools a `(N, C, H, W)` batch.
///
/// Padding positions never win the max: windows are evaluated only over
/// in-bounds taps (matching Caffe's behaviour for `MAX` pooling).
///
/// # Errors
///
/// Returns an error if the input is not rank 4 or the geometry is
/// impossible.
pub fn max_pool2d(input: &Tensor, geom: Geometry) -> Result<MaxPoolOutput, TensorError> {
    let (n, c, h, w) = conv_input_dims(input)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];
    let data = input.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            let oplane = (ni * c + ci) * oh * ow;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = None;
                    for ki in 0..geom.kh {
                        let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                        if ii < 0 || ii as usize >= h {
                            continue;
                        }
                        for kj in 0..geom.kw {
                            let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                            if jj < 0 || jj as usize >= w {
                                continue;
                            }
                            let idx = plane + ii as usize * w + jj as usize;
                            if data[idx] > best || best_idx.is_none() {
                                best = data[idx];
                                best_idx = Some(idx);
                            }
                        }
                    }
                    let idx = best_idx.ok_or_else(|| TensorError::InvalidGeometry {
                        op: "max_pool2d",
                        reason: "pooling window contains no in-bounds taps".to_string(),
                    })?;
                    out[oplane + oi * ow + oj] = best;
                    argmax[oplane + oi * ow + oj] = idx;
                }
            }
        }
    }
    Ok(MaxPoolOutput {
        output: Tensor::from_vec(Shape::d4(n, c, oh, ow), out)?,
        argmax,
    })
}

/// Routes the upstream gradient back to the argmax positions recorded by
/// [`max_pool2d`].
///
/// # Errors
///
/// Returns an error if `grad_out` length differs from `argmax` length.
pub fn max_pool2d_backward(
    input_shape: &Shape,
    argmax: &[usize],
    grad_out: &Tensor,
) -> Result<Tensor, TensorError> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::ShapeMismatch {
            op: "max_pool2d_backward",
            lhs: grad_out.shape().clone(),
            rhs: Shape::d1(argmax.len()),
        });
    }
    let mut gx = Tensor::zeros(input_shape.clone());
    let gxs = gx.as_mut_slice();
    for (&idx, &g) in argmax.iter().zip(grad_out.as_slice().iter()) {
        gxs[idx] += g;
    }
    Ok(gx)
}

/// Max-pools a `(N, C, H, W)` batch without the argmax: the pooled tensor
/// of [`max_pool2d`], bit for bit.
///
/// Each window takes its first in-bounds tap as is and then applies
/// `best = if x > best { x } else { best }` tap by tap in `(ki, kj)` order,
/// exactly [`max_pool2d`]'s update. That select is x86's `maxps(x, best)`:
/// a NaN tap never replaces `best`, a NaN first tap stays, and of two equal
/// values (`+0.0`, `-0.0`) the earlier one stays, as in [`max_pool2d`].
///
/// # Errors
///
/// Returns an error if the input is not rank 4, the geometry is
/// impossible, or a window has no in-bounds tap (as [`max_pool2d`] does).
pub fn max_pool2d_eval(input: &Tensor, geom: Geometry) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = conv_input_dims(input)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let build = Build::detect();
    pool_planes::<MaxTaps>(build, input.as_slice(), (h, w), geom, (oh, ow), &mut out)?;
    Tensor::from_vec(Shape::d4(n, c, oh, ow), out)
}

/// Average-pools a `(N, C, H, W)` batch.
///
/// The divisor is the full window size `kh·kw` regardless of padding
/// (Caffe's `AVE` pooling semantics), so padded border windows average in
/// zeros. Each window's sum starts at `+0.0` and adds its in-bounds taps in
/// `(ki, kj)` order before the one multiply by `1/(kh·kw)`.
///
/// # Errors
///
/// Returns an error if the input is not rank 4 or the geometry is
/// impossible.
pub fn avg_pool2d(input: &Tensor, geom: Geometry) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = conv_input_dims(input)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let build = Build::detect();
    pool_planes::<AvgTaps>(build, input.as_slice(), (h, w), geom, (oh, ow), &mut out)?;
    Tensor::from_vec(Shape::d4(n, c, oh, ow), out)
}

/// The name of the build [`max_pool2d_eval`] and [`avg_pool2d`] run on
/// this CPU: `"avx512"` (the gather kernel), `"avx2"` or `"plain"`.
pub fn simd_build() -> &'static str {
    Build::detect().name()
}

/// One pooling reduction as a per-tap update. The scalar window loop and
/// the sweep across output columns both run it, so they agree bit for bit;
/// the gather kernel runs the same update on 16 lanes, chosen by `MAX`.
trait PoolTaps {
    /// Max (the gather kernel's masked `vmaxps`), not avg (masked `vaddps`).
    const MAX: bool;
    /// A window's running value after its first tap `x`.
    fn first(x: f32) -> f32;
    /// A window's running value after one more tap `x`.
    fn next(acc: f32, x: f32) -> f32;
    /// The running value of a window with no in-bounds tap.
    fn empty() -> Result<f32, TensorError>;
    /// The window's output from its running value.
    fn finish(acc: f32, geom: Geometry) -> f32;
}

/// Max: first tap as is, then `if x > best { x } else { best }`.
struct MaxTaps;

impl PoolTaps for MaxTaps {
    const MAX: bool = true;

    #[inline(always)]
    fn first(x: f32) -> f32 {
        x
    }

    #[inline(always)]
    fn next(best: f32, x: f32) -> f32 {
        if x > best {
            x
        } else {
            best
        }
    }

    fn empty() -> Result<f32, TensorError> {
        Err(TensorError::InvalidGeometry {
            op: "max_pool2d",
            reason: "pooling window contains no in-bounds taps".to_string(),
        })
    }

    #[inline(always)]
    fn finish(best: f32, _: Geometry) -> f32 {
        best
    }
}

/// Average: `+0.0` plus each tap, times `1/(kh·kw)`.
struct AvgTaps;

impl PoolTaps for AvgTaps {
    const MAX: bool = false;

    #[inline(always)]
    fn first(x: f32) -> f32 {
        0.0 + x
    }

    #[inline(always)]
    fn next(acc: f32, x: f32) -> f32 {
        acc + x
    }

    fn empty() -> Result<f32, TensorError> {
        Ok(0.0)
    }

    #[inline(always)]
    fn finish(acc: f32, geom: Geometry) -> f32 {
        acc * (1.0 / (geom.kh * geom.kw) as f32)
    }
}

/// Applies `out[j] = f(out[j], src[j·stride])` for every `j`; `src` must
/// reach index `(out.len() − 1)·stride`. Strides 1 and 2 (every pool of
/// the paper's networks) run over exact chunks of a constant length, so
/// the loop has no bounds checks and vectorizes.
#[inline(always)]
fn sweep(out: &mut [f32], src: &[f32], stride: usize, f: impl Fn(f32, f32) -> f32) {
    #[inline(always)]
    fn chunked<const S: usize>(out: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32) {
        let Some((last, body)) = out.split_last_mut() else {
            return;
        };
        for (o, x) in body.iter_mut().zip(src.chunks_exact(S)) {
            *o = f(*o, x[0]);
        }
        *last = f(*last, src[body.len() * S]);
    }
    match stride {
        1 => chunked::<1>(out, src, f),
        2 => chunked::<2>(out, src, f),
        _ => {
            for (j, o) in out.iter_mut().enumerate() {
                *o = f(*o, src[j * stride]);
            }
        }
    }
}

/// The input indices window `o` covers along one axis of length `len`,
/// clipped to the input: `o·stride − pad + (0..k)` within `0..len`.
fn window_span(o: usize, k: usize, geom: Geometry, len: usize) -> std::ops::Range<usize> {
    let start = o * geom.stride;
    let lo = start.saturating_sub(geom.pad).min(len);
    let hi = (start + k).saturating_sub(geom.pad).clamp(lo, len);
    lo..hi
}

/// The output indices `lo..hi` along one axis whose windows lie wholly
/// inside an input of length `len`: `o·stride ≥ pad` and
/// `o·stride − pad + k ≤ len`.
fn full_windows(k: usize, geom: Geometry, len: usize, out: usize) -> std::ops::Range<usize> {
    let lo = geom.pad.div_ceil(geom.stride).min(out);
    let hi = match (len + geom.pad).checked_sub(k) {
        Some(span) => (span / geom.stride + 1).clamp(lo, out),
        None => lo,
    };
    lo..hi
}

/// Pools every `(h, w)` plane of `data` into `out` (`oh×ow` per plane)
/// through `build`: the gather kernel, or the AVX2 or plain build of the
/// sweep body. A build the CPU lacks runs as the plain one, and so do
/// planes too large for the gather's `i32` indices.
fn pool_planes<P: PoolTaps>(
    build: Build,
    data: &[f32],
    hw: (usize, usize),
    geom: Geometry,
    ohw: (usize, usize),
    out: &mut [f32],
) -> Result<(), TensorError> {
    match build {
        #[cfg(target_arch = "x86_64")]
        Build::Avx512 if crate::has_avx512f() && i32::try_from(hw.0 * hw.1).is_ok() => {
            TLS_GATHER.with(|table| {
                // SAFETY: `has_avx512f` verified AVX-512F on this CPU, the
                // only precondition of the target_feature build.
                unsafe {
                    pool_planes_avx512::<P>(data, hw, geom, ohw, &mut table.borrow_mut(), out)
                }
            })
        }
        #[cfg(target_arch = "x86_64")]
        Build::Avx2 if crate::has_avx2() => {
            // SAFETY: `has_avx2` verified AVX2 on this CPU, the only
            // precondition of the target_feature build.
            unsafe { pool_planes_avx2::<P>(data, hw, geom, ohw, out) }
        }
        _ => pool_planes_body::<P>(data, hw, geom, ohw, out),
    }
}

/// Outputs per block of the gather kernel: one zmm of f32 lanes.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 16;

/// The gather kernel's plan for one call, shared by every plane. Outputs
/// are taken in blocks of 16 consecutive row-major positions of a plane.
#[cfg(target_arch = "x86_64")]
struct GatherTable {
    /// Per block, each lane's window origin: the offset of tap `(0, 0)`
    /// from the plane's start, negative under padding.
    origins: Vec<[i32; LANES]>,
    /// Per tap in `(ki, kj)` order, its offset from the origin: `ki·w + kj`.
    offsets: Vec<i32>,
    /// Per block, then per tap: the lanes whose tap lies inside the plane.
    masks: Vec<u16>,
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// The gather kernel's table, rebuilt in place by every call: grown to
    /// the largest pool a thread has run, so a steady stream of forwards
    /// allocates nothing for it.
    static TLS_GATHER: std::cell::RefCell<GatherTable> = const {
        std::cell::RefCell::new(GatherTable {
            origins: Vec::new(),
            offsets: Vec::new(),
            masks: Vec::new(),
        })
    };
}

#[cfg(target_arch = "x86_64")]
impl GatherTable {
    /// Rebuilds the table for `(h, w)` planes pooled to `(oh, ow)`, and
    /// returns whether some window has no in-bounds tap.
    fn build(&mut self, (h, w): (usize, usize), geom: Geometry, (oh, ow): (usize, usize)) -> bool {
        let (kw, taps) = (geom.kw, geom.kh * geom.kw);
        self.offsets.clear();
        self.offsets
            .extend((0..taps).map(|t| (t / kw * w + t % kw) as i32));
        self.origins.clear();
        self.masks.clear();
        let mut empty = false;
        for block in 0..(oh * ow).div_ceil(LANES) {
            let at = self.masks.len();
            self.masks.resize(at + taps, 0);
            let mut origin = [0i32; LANES];
            for (lane, o) in (block * LANES..(oh * ow).min(block * LANES + LANES)).enumerate() {
                let (oi, oj) = (o / ow, o % ow);
                let rows = window_span(oi, geom.kh, geom, h);
                let cols = window_span(oj, geom.kw, geom, w);
                empty |= rows.is_empty() || cols.is_empty();
                let i0 = (oi * geom.stride) as isize - geom.pad as isize;
                let j0 = (oj * geom.stride) as isize - geom.pad as isize;
                // `as` wraps modulo 2^32 and so does the kernel's index add,
                // so every in-bounds index, below `h·w ≤ i32::MAX`, is exact.
                origin[lane] = (i0 * w as isize + j0) as i32;
                for i in rows {
                    let ki = i + geom.pad - oi * geom.stride;
                    for j in cols.clone() {
                        let kj = j + geom.pad - oj * geom.stride;
                        self.masks[at + ki * kw + kj] |= 1 << lane;
                    }
                }
            }
            self.origins.push(origin);
        }
        empty
    }
}

/// The AVX-512 build: per plane, 16 outputs at a time, one masked gather
/// per tap at `origin + ki·w + kj` for the lanes whose tap lies inside the
/// plane; taps outside are masked off, never substituted. Max moves a
/// lane's first in-bounds tap into `best` and then runs the masked
/// `vmaxps(x, best)`, which is `if x > best { x } else { best }`; avg adds
/// each tap to a `+0.0` sum and multiplies by `1/(kh·kw)` once. So every
/// output applies the same updates to the same taps in the same order as
/// [`PoolTaps`]. Fails as the sweep body does: max on an empty window
/// when there is a plane to pool.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pool_planes_avx512<P: PoolTaps>(
    data: &[f32],
    (h, w): (usize, usize),
    geom: Geometry,
    (oh, ow): (usize, usize),
    table: &mut GatherTable,
    out: &mut [f32],
) -> Result<(), TensorError> {
    use std::arch::x86_64::*;
    if table.build((h, w), geom, (oh, ow)) && !out.is_empty() {
        P::empty()?;
    }
    let (taps, len, total) = (geom.kh * geom.kw, h * w, oh * ow);
    let norm = _mm512_set1_ps(1.0 / taps as f32);
    // The gathers read plane `p` at in-bounds offsets below `h·w`, and
    // those fit the `i32` lanes: checked once here, relied on below.
    assert!(i32::try_from(len).is_ok() && data.len() >= out.len() / total * len);
    for (p, oplane) in out.chunks_exact_mut(total).enumerate() {
        // SAFETY: plane `p` starts inside `data` by the assert above.
        let plane = data.as_ptr().add(p * len);
        for (block, origin) in table.origins.iter().enumerate() {
            // SAFETY: `origin` is 16 `i32`s, one zmm.
            let origin = _mm512_loadu_si512(origin.as_ptr().cast());
            let masks = &table.masks[block * taps..(block + 1) * taps];
            let mut acc = _mm512_setzero_ps();
            let mut started: __mmask16 = 0;
            for (&mask, &offset) in masks.iter().zip(&table.offsets) {
                if mask == 0 {
                    continue;
                }
                let index = _mm512_add_epi32(origin, _mm512_set1_epi32(offset));
                // SAFETY: the lanes in `mask` index in-bounds taps of
                // plane `p`, which lies inside `data` by the assert above;
                // the other lanes read nothing.
                let x = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), mask, index, plane);
                if P::MAX {
                    acc = _mm512_mask_mov_ps(acc, mask & !started, x);
                    acc = _mm512_mask_max_ps(acc, mask & started, x, acc);
                    started |= mask;
                } else {
                    acc = _mm512_mask_add_ps(acc, mask, acc, x);
                }
            }
            if !P::MAX {
                acc = _mm512_mul_ps(acc, norm);
            }
            let dst = &mut oplane[block * LANES..total.min(block * LANES + LANES)];
            // SAFETY: the mask enables exactly `dst.len() ≤ 16` lanes, all
            // inside `dst`.
            let valid = ((1u32 << dst.len()) - 1) as __mmask16;
            _mm512_mask_storeu_ps(dst.as_mut_ptr(), valid, acc);
        }
    }
    Ok(())
}

/// The AVX2 build of [`pool_planes_body`].
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pool_planes_avx2<P: PoolTaps>(
    data: &[f32],
    hw: (usize, usize),
    geom: Geometry,
    ohw: (usize, usize),
    out: &mut [f32],
) -> Result<(), TensorError> {
    pool_planes_body::<P>(data, hw, geom, ohw, out)
}

/// The loop both builds compile: per output row, the border windows one
/// by one over their clipped tap ranges, then the full windows tap by tap
/// across their columns.
#[inline(always)]
fn pool_planes_body<P: PoolTaps>(
    data: &[f32],
    (h, w): (usize, usize),
    geom: Geometry,
    (oh, ow): (usize, usize),
    out: &mut [f32],
) -> Result<(), TensorError> {
    let (stride, pad) = (geom.stride, geom.pad);
    let full_rows = full_windows(geom.kh, geom, h, oh);
    let full_cols = full_windows(geom.kw, geom, w, ow);
    // Planes by output, so an empty `h·w` plane (only empty windows) does
    // not panic as a zero chunk size would.
    for (p, oplane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let plane = &data[p * h * w..(p + 1) * h * w];
        for (oi, orow) in oplane.chunks_exact_mut(ow).enumerate() {
            let (lo, hi) = if full_rows.contains(&oi) {
                (full_cols.start, full_cols.end)
            } else {
                (0, 0)
            };
            let rows = window_span(oi, geom.kh, geom, h);
            for oj in (0..lo).chain(hi..ow) {
                let cols = window_span(oj, geom.kw, geom, w);
                let mut taps = rows
                    .clone()
                    .flat_map(|i| plane[i * w + cols.start..i * w + cols.end].iter().copied());
                let acc = match taps.next() {
                    Some(x) => taps.fold(P::first(x), P::next),
                    None => P::empty()?,
                };
                orow[oj] = P::finish(acc, geom);
            }
            if lo == hi {
                continue;
            }
            let full = &mut orow[lo..hi];
            let (i0, j0) = (oi * stride - pad, lo * stride - pad);
            for ki in 0..geom.kh {
                for kj in 0..geom.kw {
                    let src = &plane[(i0 + ki) * w + j0 + kj..];
                    if ki + kj == 0 {
                        sweep(full, src, stride, |_, x| P::first(x));
                    } else {
                        sweep(full, src, stride, P::next);
                    }
                }
            }
            for v in full {
                *v = P::finish(*v, geom);
            }
        }
    }
    Ok(())
}

/// Gradient of [`avg_pool2d`]: spreads each upstream gradient uniformly over
/// its window's in-bounds taps with weight `1/(kh·kw)`.
///
/// # Errors
///
/// Returns an error if `grad_out` is not rank 4 or shapes are inconsistent.
pub fn avg_pool2d_backward(
    input_shape: &Shape,
    grad_out: &Tensor,
    geom: Geometry,
) -> Result<Tensor, TensorError> {
    if input_shape.rank() != 4 || grad_out.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "avg_pool2d_backward",
            expected: 4,
            actual: input_shape.rank().min(grad_out.shape().rank()),
        });
    }
    let (n, c, h, w) = (
        input_shape.dim(0),
        input_shape.dim(1),
        input_shape.dim(2),
        input_shape.dim(3),
    );
    let (oh, ow) = geom.output_hw(h, w)?;
    if grad_out.shape().dims() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool2d_backward",
            lhs: grad_out.shape().clone(),
            rhs: Shape::d4(n, c, oh, ow),
        });
    }
    let norm = 1.0 / (geom.kh * geom.kw) as f32;
    let mut gx = Tensor::zeros(input_shape.clone());
    let gxs = gx.as_mut_slice();
    let gos = grad_out.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            let oplane = (ni * c + ci) * oh * ow;
            for oi in 0..oh {
                for oj in 0..ow {
                    let g = gos[oplane + oi * ow + oj] * norm;
                    for ki in 0..geom.kh {
                        let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                        if ii < 0 || ii as usize >= h {
                            continue;
                        }
                        for kj in 0..geom.kw {
                            let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                            if jj < 0 || jj as usize >= w {
                                continue;
                            }
                            gxs[plane + ii as usize * w + jj as usize] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(gx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Shape, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, v).unwrap()
    }

    /// The scalar average-pool loop: one window at a time, every tap
    /// bounds-checked. [`avg_pool2d`] must reproduce it bit for bit.
    fn avg_pool2d_reference(input: &Tensor, geom: Geometry) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = conv_input_dims(input)?;
        let (oh, ow) = geom.output_hw(h, w)?;
        let norm = 1.0 / (geom.kh * geom.kw) as f32;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let data = input.as_slice();
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                let oplane = (ni * c + ci) * oh * ow;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0.0f32;
                        for ki in 0..geom.kh {
                            let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                            if ii < 0 || ii as usize >= h {
                                continue;
                            }
                            for kj in 0..geom.kw {
                                let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                                if jj < 0 || jj as usize >= w {
                                    continue;
                                }
                                acc += data[plane + ii as usize * w + jj as usize];
                            }
                        }
                        out[oplane + oi * ow + oj] = acc * norm;
                    }
                }
            }
        }
        Tensor::from_vec(Shape::d4(n, c, oh, ow), out)
    }

    /// A seeded pooling case: a geometry (padding, ceil mode and strides
    /// 1–4 included) and an input batch whose values include NaN, ±0, ±inf
    /// and runs of equal values, or `None` when the geometry is impossible.
    fn pool_case(r: &mut crate::rng::Rng) -> Option<(Geometry, Tensor)> {
        let k = r.gen_range(1usize..5);
        let geom = Geometry {
            kh: k,
            kw: if r.gen_bool(0.7) {
                k
            } else {
                r.gen_range(1usize..5)
            },
            stride: r.gen_range(1usize..5),
            pad: r.gen_range(0usize..3),
            ceil: r.gen_bool(0.5),
        };
        let (n, c, h, w) = (
            r.gen_range(1usize..3),
            r.gen_range(1usize..4),
            r.gen_range(1usize..14),
            r.gen_range(1usize..40),
        );
        geom.output_hw(h, w).ok()?;
        let data = (0..n * c * h * w)
            .map(|_| match r.gen_range(0u32..20) {
                0 => f32::NAN,
                1 => -f32::NAN,
                2 => 0.0,
                3 => -0.0,
                4 => f32::INFINITY,
                5 => f32::NEG_INFINITY,
                6 => 1.5,
                _ => r.gen_range(-4.0f32..4.0),
            })
            .collect();
        Some((geom, t(Shape::d4(n, c, h, w), data)))
    }

    /// The argmax-free Eval pool against [`max_pool2d`]'s output over 256+
    /// seeded geometries: the same bits everywhere, NaN payloads and the
    /// signs of zeros included (the pool only ever copies a tap), and the
    /// same error where a window has no in-bounds tap.
    #[test]
    fn eval_max_pool_matches_argmax_pool_bitwise() {
        let mut r = crate::rng::seeded(0x9001_E7A1);
        let (mut cases, mut padded, mut ceil, mut empty) = (0, 0, 0, 0);
        while cases < 320 {
            let Some((geom, x)) = pool_case(&mut r) else {
                continue;
            };
            cases += 1;
            padded += usize::from(geom.pad > 0);
            ceil += usize::from(geom.ceil);
            let got = max_pool2d_eval(&x, geom);
            match max_pool2d(&x, geom) {
                Ok(want) => {
                    let got = got.unwrap();
                    assert_eq!(got.shape(), want.output.shape());
                    for (i, (g, v)) in got
                        .as_slice()
                        .iter()
                        .zip(want.output.as_slice())
                        .enumerate()
                    {
                        assert_eq!(
                            g.to_bits(),
                            v.to_bits(),
                            "{geom:?} {} at {i}: {g:e} vs {v:e}",
                            x.shape()
                        );
                    }
                }
                Err(e) => {
                    empty += 1;
                    assert_eq!(got.unwrap_err(), e, "{geom:?}");
                }
            }
        }
        assert!(padded > 0 && ceil > 0 && empty > 0);
    }

    /// [`avg_pool2d`] against the scalar loop over 256+ seeded geometries:
    /// every non-NaN output bit-equal, NaN exactly where the loop has NaN
    /// (which NaN survives an add of two is up to instruction selection).
    #[test]
    fn avg_pool_matches_scalar_loop_bitwise() {
        let mut r = crate::rng::seeded(0xA7E_9001);
        let (mut cases, mut nans) = (0, 0);
        while cases < 320 {
            let Some((geom, x)) = pool_case(&mut r) else {
                continue;
            };
            cases += 1;
            let want = avg_pool2d_reference(&x, geom).unwrap();
            let got = avg_pool2d(&x, geom).unwrap();
            assert_eq!(got.shape(), want.shape());
            for (i, (g, v)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                let same = if v.is_nan() {
                    nans += 1;
                    g.is_nan()
                } else {
                    g.to_bits() == v.to_bits()
                };
                assert!(same, "{geom:?} {} at {i}: {g:e} vs {v:e}", x.shape());
            }
        }
        assert!(nans > 0);
    }

    /// The builds this CPU runs: plain always, AVX2 and the gather kernel
    /// where the CPU has them.
    fn builds() -> Vec<Build> {
        let mut builds = vec![Build::Plain];
        if crate::has_avx2() {
            builds.push(Build::Avx2);
        }
        if crate::has_avx512f() {
            builds.push(Build::Avx512);
        }
        builds
    }

    /// Every build this CPU runs, called directly, over the 320 seeded
    /// geometries of each of the two tests above: max bit for bit against
    /// [`max_pool2d`]'s output (NaN payloads and zero signs included) or
    /// its error, avg against the scalar loop with NaN exactly where it has
    /// NaN. The entry points run only the build the CPU dispatches to.
    #[test]
    fn every_build_matches_reference_bitwise() {
        let (mut cases, mut avx512_cases, mut empty) = (0, 0, 0);
        for seed in [0x9001_E7A1, 0xA7E_9001] {
            let mut r = crate::rng::seeded(seed);
            let mut seeded_cases = 0;
            while seeded_cases < 320 {
                let Some((geom, x)) = pool_case(&mut r) else {
                    continue;
                };
                seeded_cases += 1;
                let (n, c, h, w) = conv_input_dims(&x).unwrap();
                let (oh, ow) = geom.output_hw(h, w).unwrap();
                let max_want = max_pool2d(&x, geom);
                let avg_want = avg_pool2d_reference(&x, geom).unwrap();
                empty += usize::from(max_want.is_err());
                for build in builds() {
                    let ctx = format!("{build:?} {geom:?} {}", x.shape());
                    avx512_cases += usize::from(build == Build::Avx512);
                    let mut got = vec![7.0f32; n * c * oh * ow];
                    let res = pool_planes::<MaxTaps>(
                        build,
                        x.as_slice(),
                        (h, w),
                        geom,
                        (oh, ow),
                        &mut got,
                    );
                    match &max_want {
                        Ok(want) => {
                            res.unwrap();
                            for (i, (g, v)) in got.iter().zip(want.output.as_slice()).enumerate() {
                                assert_eq!(
                                    g.to_bits(),
                                    v.to_bits(),
                                    "max {ctx} at {i}: {g:e} vs {v:e}"
                                );
                            }
                        }
                        Err(e) => assert_eq!(&res.unwrap_err(), e, "max {ctx}"),
                    }
                    let mut got = vec![7.0f32; n * c * oh * ow];
                    pool_planes::<AvgTaps>(build, x.as_slice(), (h, w), geom, (oh, ow), &mut got)
                        .unwrap();
                    for (i, (g, v)) in got.iter().zip(avg_want.as_slice()).enumerate() {
                        let same = if v.is_nan() {
                            g.is_nan()
                        } else {
                            g.to_bits() == v.to_bits()
                        };
                        assert!(same, "avg {ctx} at {i}: {g:e} vs {v:e}");
                    }
                }
            }
            cases += seeded_cases;
        }
        assert!(empty > 0);
        // On an AVX-512 CPU every case ran the gather kernel, which is also
        // the build the entry points dispatch to.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert_eq!(avx512_cases, cases);
            assert_eq!(Build::detect(), Build::Avx512);
        }
    }

    /// A window with no in-bounds tap (`k = 1`, `pad = 2`: the outer ring
    /// of a 3×3 plane's 7×7 output; every window of a plane of height 0):
    /// every build pools a batch of no images to an empty tensor; with one
    /// plane, max fails as [`max_pool2d`] does and avg returns `0.0` there.
    #[test]
    fn empty_windows_fail_max_only_when_there_is_a_plane() {
        let geom = Geometry::square(1, 1, 2);
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let want_err = max_pool2d(&t(Shape::d4(1, 1, 3, 3), x.clone()), geom).unwrap_err();
        for build in builds() {
            let mut none: Vec<f32> = Vec::new();
            pool_planes::<MaxTaps>(build, &[], (3, 3), geom, (7, 7), &mut none).unwrap();
            pool_planes::<AvgTaps>(build, &[], (3, 3), geom, (7, 7), &mut none).unwrap();
            let mut out = vec![7.0f32; 49];
            let err =
                pool_planes::<MaxTaps>(build, &x, (3, 3), geom, (7, 7), &mut out).unwrap_err();
            assert_eq!(err, want_err, "{build:?}");
            pool_planes::<AvgTaps>(build, &x, (3, 3), geom, (7, 7), &mut out).unwrap();
            for (o, &v) in out.iter().enumerate() {
                let (oi, oj) = (o / 7, o % 7);
                let want = if (2..5).contains(&oi) && (2..5).contains(&oj) {
                    x[(oi - 2) * 3 + oj - 2]
                } else {
                    0.0
                };
                assert_eq!(v.to_bits(), want.to_bits(), "{build:?} at {o}");
            }
        }
        // A plane of height 0 has only empty windows.
        let flat = Geometry::square(2, 1, 1);
        for build in builds() {
            let mut out = vec![7.0f32; 4];
            let err = pool_planes::<MaxTaps>(build, &[], (0, 3), flat, (1, 4), &mut out);
            assert_eq!(err.unwrap_err(), want_err, "{build:?}");
            pool_planes::<AvgTaps>(build, &[], (0, 3), flat, (1, 4), &mut out).unwrap();
            assert_eq!(out, [0.0; 4], "{build:?}");
        }
        let none = Tensor::zeros(Shape::d4(0, 1, 3, 3));
        assert_eq!(
            max_pool2d_eval(&none, geom).unwrap().shape().dims(),
            &[0, 1, 7, 7]
        );
        assert_eq!(
            avg_pool2d(&none, geom).unwrap().shape().dims(),
            &[0, 1, 7, 7]
        );
    }

    #[test]
    fn max_pool_2x2() {
        let x = t(
            Shape::d4(1, 1, 4, 4),
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let p = max_pool2d(&x, Geometry::square(2, 2, 0)).unwrap();
        assert_eq!(p.output.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(p.output.as_slice(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn max_pool_handles_negative_inputs() {
        // All-negative window must still pick the (negative) max, not 0.
        let x = t(Shape::d4(1, 1, 2, 2), vec![-5., -3., -9., -7.]);
        let p = max_pool2d(&x, Geometry::square(2, 2, 0)).unwrap();
        assert_eq!(p.output.as_slice(), &[-3.]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = t(Shape::d4(1, 1, 2, 2), vec![1., 9., 3., 4.]);
        let p = max_pool2d(&x, Geometry::square(2, 2, 0)).unwrap();
        let g = t(Shape::d4(1, 1, 1, 1), vec![2.5]);
        let gx = max_pool2d_backward(x.shape(), &p.argmax, &g).unwrap();
        assert_eq!(gx.as_slice(), &[0., 2.5, 0., 0.]);
    }

    #[test]
    fn max_pool_overlapping_stride() {
        // ALEX uses 3×3 pooling with stride 2 — overlapping windows.
        let x = Tensor::ones(Shape::d4(1, 1, 5, 5));
        let p = max_pool2d(&x, Geometry::square(3, 2, 0)).unwrap();
        assert_eq!(p.output.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn avg_pool_2x2() {
        let x = t(Shape::d4(1, 1, 2, 2), vec![1., 2., 3., 4.]);
        let y = avg_pool2d(&x, Geometry::square(2, 2, 0)).unwrap();
        assert_eq!(y.as_slice(), &[2.5]);
    }

    #[test]
    fn avg_pool_padded_window_averages_in_zeros() {
        let x = t(Shape::d4(1, 1, 2, 2), vec![4., 4., 4., 4.]);
        let y = avg_pool2d(&x, Geometry::square(2, 2, 1)).unwrap();
        // Each corner window sees one real pixel + three pads → 4/4 = 1.
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[1., 1., 1., 1.]);
    }

    #[test]
    fn avg_pool_backward_matches_numeric_gradient() {
        let geom = Geometry::square(3, 2, 1);
        let x = t(
            Shape::d4(1, 2, 4, 4),
            (0..32).map(|i| (i as f32 * 0.3).sin()).collect(),
        );
        let y = avg_pool2d(&x, geom).unwrap();
        let gout = Tensor::ones(y.shape().clone());
        let gx = avg_pool2d_backward(x.shape(), &gout, geom).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp = avg_pool2d(&xp, geom).unwrap().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let ym = avg_pool2d(&xm, geom).unwrap().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 1e-2,
                "x[{idx}]: num={num} ana={}",
                gx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn max_pool_backward_length_check() {
        let g = Tensor::ones(Shape::d4(1, 1, 1, 2));
        assert!(max_pool2d_backward(&Shape::d4(1, 1, 2, 2), &[0], &g).is_err());
    }
}
