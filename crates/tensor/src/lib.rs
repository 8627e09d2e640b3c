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

/// True when this CPU supports AVX-512F, so the `#[target_feature(enable =
/// "avx512f")]` builds may run: the f32 GEMM's, the pool's, and
/// `qnn-quant`'s snap and requantize.
pub fn has_avx512f() -> bool {
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

/// True when this process may run AMX-INT8 tiles, so the native conv's
/// tile kernel ([`qgemm::TileA`]) may run. Decided once per process: the
/// CPU must report AMX-TILE and AMX-INT8 (CPUID leaf 7, EDX bits 24 and
/// 25), the OS must enable the tile state in XCR0 (bits 17 and 18), and,
/// on Linux, `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)` must
/// grant this process the tile data. That call grants tiles to this
/// process only. Other operating systems never run tiles.
pub(crate) fn has_amx_int8() -> bool {
    static AMX: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AMX.get_or_init(detect_amx_int8)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn detect_amx_int8() -> bool {
    use std::arch::asm;
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    const AMX_TILE_INT8: u32 = 3 << 24;
    const OSXSAVE: u32 = 1 << 27;
    const XTILECFG_XTILEDATA: u64 = 3 << 17;
    if __cpuid_count(7, 0).edx & AMX_TILE_INT8 != AMX_TILE_INT8 || __cpuid(1).ecx & OSXSAVE == 0 {
        return false;
    }
    let (lo, hi): (u32, u32);
    // SAFETY: OSXSAVE is set, so `xgetbv` with ECX = 0 reads XCR0 and
    // touches nothing else.
    unsafe {
        asm!("xgetbv", in("ecx") 0u32, out("eax") lo, out("edx") hi,
             options(nomem, nostack, preserves_flags));
    }
    if (u64::from(hi) << 32 | u64::from(lo)) & XTILECFG_XTILEDATA != XTILECFG_XTILEDATA {
        return false;
    }
    // arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA): the workspace
    // has no libc, so the syscall is issued directly.
    const SYS_ARCH_PRCTL: i64 = 158;
    const ARCH_REQ_XCOMP_PERM: i64 = 0x1023;
    const XFEATURE_XTILEDATA: i64 = 18;
    let ret: i64;
    // SAFETY: this arch_prctl request only changes which extended states
    // this process may use; the kernel clobbers rcx and r11 on `syscall`.
    unsafe {
        asm!("syscall", inlateout("rax") SYS_ARCH_PRCTL => ret,
             in("rdi") ARCH_REQ_XCOMP_PERM, in("rsi") XFEATURE_XTILEDATA,
             lateout("rcx") _, lateout("r11") _, options(nostack));
    }
    ret == 0
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn detect_amx_int8() -> bool {
    false
}
