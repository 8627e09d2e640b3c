#![warn(missing_docs)]

//! # qnn-tensor — dense f32 tensor substrate
//!
//! The minimal linear-algebra layer the rest of the `qnn` workspace is built
//! on: an owned, contiguous, row-major [`Tensor`] of `f32` plus the handful
//! of kernels a convolutional network needs — blocked [`matmul`](Tensor::matmul),
//! im2col-based [`conv2d`](conv::conv2d), max/average
//! [pooling](pool), and weight [initializers](init).
//!
//! The paper this workspace reproduces (Hashemi et al., DATE 2017) simulates
//! reduced precision *on top of* float arithmetic, Ristretto-style, so an
//! f32 substrate is the faithful choice: quantizers in `qnn-quant` snap
//! values of these tensors onto fixed-point / power-of-two / binary grids.
//!
//! ## Example
//!
//! ```
//! use qnn_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::ones(Shape::d2(3, 2));
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.as_slice(), &[6., 6., 15., 15.]);
//! # Ok::<(), qnn_tensor::TensorError>(())
//! ```

mod error;
mod shape;
#[allow(clippy::module_inception)]
mod tensor;

pub mod conv;
pub mod gemm;
pub mod init;
pub mod par;
pub mod pool;
pub mod qgemm;
pub mod rng;
pub mod stats;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// True when this CPU supports AVX2, so the kernels'
/// `#[target_feature(enable = "avx2")]` builds may run. This workspace
/// targets baseline x86-64 (SSE2); every kernel with a wider build also
/// has a plain one, which runs when this is `false` (always, off x86-64).
pub fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when this CPU supports AVX-512F, so the f32 GEMM's and the pool's
/// `#[target_feature(enable = "avx512f")]` builds may run.
pub(crate) fn has_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when this CPU supports AVX-512F, AVX-512BW and AVX-512 VNNI, so
/// the i16 GEMM's `vpdpwssd` build may run.
pub(crate) fn has_avx512_vnni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
