//! f32 GEMM over packed panels with a 4×16 register microkernel (4×32 at
//! AVX-512 width).
//!
//! Three variants cover every product the network layers need without
//! materialising a transpose: `C = A·B` ([`gemm_nn`]), `C = A·Bᵀ`
//! ([`gemm_nt`], dense forward `x·Wᵀ`) and `C = Aᵀ·B` ([`gemm_tn`], dense
//! weight gradient `dYᵀ·X`). The conv forward's panel route skips both of
//! their packing passes: it packs its weights once per call (`PackedA`)
//! and writes each image's patches straight into the column panels
//! (`PackedB`), then runs the same microkernel through `gemm_packed`.
//! Panels start on 64-byte boundaries ([`Panels`]).
//!
//! **Bit-exactness contract.** Each output element is produced by a single
//! accumulator that walks `k` in ascending order with one multiply and one
//! add per step — the same rounding sequence as the reference triple loop
//! (`Tensor::matmul_naive`). Packing rearranges memory, never the
//! accumulation order, and the kernel uses no fused multiply-add and no
//! split-`k` reassociation, so results are bit-identical to the naive
//! kernel and invariant under the worker-thread count (row panels are
//! disjoint output regions). The one exception is a NaN's sign and
//! payload: an output is NaN exactly where the reference's is, but not
//! necessarily the same NaN. On x86 the default NaN (`inf − inf`,
//! `0 · inf`) is negative, and LLVM treats `fadd` as commutative, so when
//! both addends are NaN which one survives is up to instruction selection,
//! in either build.
//!
//! **SIMD dispatch.** rustc's x86-64 baseline is SSE2, so the microkernel
//! has three builds, chosen at runtime by `Build::detect`: a plain one
//! (the reference the tests hold the others to), a
//! `#[target_feature(enable = "avx2")]` build of the same 4×16 body, whose 64
//! accumulators fill eight ymm registers, and an AVX-512 build
//! (`row_panel_avx512`) that runs a 4×32 tile over two adjacent column
//! panels in eight zmm accumulators, with a 4×16 zmm tile for a lone last
//! panel. Every build still runs one multiply and then one add per
//! accumulator per k step. `avx512f` implies `fma` in rustc's feature set,
//! so what keeps the bits is that Rust never contracts a multiply and an add
//! on its own and the AVX-512 tile writes `_mm512_mul_ps` and
//! `_mm512_add_ps`, never a fused intrinsic. All three builds round exactly
//! like the naive loop and agree bit for bit.

use crate::conv::{Border, Run};
use crate::par;
use std::cell::RefCell;

/// Microkernel row count (output rows per panel).
pub const MR: usize = 4;
/// Microkernel column count (output columns per panel).
pub const NR: usize = 16;

/// A reusable `B` packing buffer so steady-state GEMM calls allocate
/// nothing but their output. Layers hold one per layer; the
/// `Tensor::matmul*` wrappers fall back to a thread-local instance.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    packed_b: Panels,
}

/// A growable `f32` buffer whose values start on a 64-byte boundary, so a
/// panel row of 16 values at a multiple of 16 never splits two cache
/// lines under a zmm load (a split load cost the tile 8–21% per GEMM).
/// The view starts up to 15 values into a plain `Vec`: an over-aligned
/// allocation cannot grow in place, and it raised zoo-qat's peak RSS by
/// 4–8 MiB.
#[derive(Debug, Default, Clone)]
pub(crate) struct Panels {
    buf: Vec<f32>,
    /// Where the view starts in `buf`.
    start: usize,
    len: usize,
}

impl Panels {
    /// Resizes to `len` values, for a caller that writes every one it
    /// reads: the values are left as they come.
    pub(crate) fn resize(&mut self, len: usize) {
        self.buf.resize(len + 15, 0.0);
        // Alignment only speeds the loads: `min` keeps the view inside
        // should `align_offset` not find the boundary.
        self.start = self.buf.as_ptr().align_offset(64).min(15);
        self.len = len;
    }

    /// Resizes to `len` values, all `+0.0`.
    pub(crate) fn zeroed(&mut self, len: usize) {
        self.resize(len);
        self.fill(0.0);
    }
}

impl std::ops::Deref for Panels {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[self.start..][..self.len]
    }
}

impl std::ops::DerefMut for Panels {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..][..self.len]
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::default());
    /// The `A` panel a thread packs for the row panel it is computing,
    /// reused across panels, calls and layers.
    static TLS_PANEL_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C = A·B` — `a` is `m×k`, `b` is `k×n`, `c` is `m×n` (overwritten).
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    TLS_SCRATCH.with(|s| gemm_nn_with(&mut s.borrow_mut(), m, k, n, a, b, c));
}

/// `C = A·Bᵀ` — `a` is `m×k`, `b` is `n×k`, `c` is `m×n` (overwritten).
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    TLS_SCRATCH.with(|s| gemm_nt_with(&mut s.borrow_mut(), m, k, n, a, b, c));
}

/// `C = Aᵀ·B` — `a` is `k×m`, `b` is `k×n`, `c` is `m×n` (overwritten).
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    TLS_SCRATCH.with(|s| gemm_tn_with(&mut s.borrow_mut(), m, k, n, a, b, c));
}

/// [`gemm_nn`] with an explicit scratch buffer (no allocation after warmup).
pub fn gemm_nn_with(
    scratch: &mut GemmScratch,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm(Build::detect(), Layout::Nn, scratch, (m, k, n), a, b, c);
}

/// [`gemm_nt`] with an explicit scratch buffer.
pub fn gemm_nt_with(
    scratch: &mut GemmScratch,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm(Build::detect(), Layout::Nt, scratch, (m, k, n), a, b, c);
}

/// [`gemm_tn`] with an explicit scratch buffer.
pub fn gemm_tn_with(
    scratch: &mut GemmScratch,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm(Build::detect(), Layout::Tn, scratch, (m, k, n), a, b, c);
}

/// Which build of a kernel runs: the microkernel loop here, and the plane
/// loop of [`crate::pool`]'s Eval max-pool and avg-pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Build {
    /// The baseline-target build: the path on CPUs without AVX2, and the
    /// reference the tests hold the vector builds to.
    Plain,
    /// The AVX2 build; runs as the plain one on a CPU without AVX2.
    Avx2,
    /// The AVX-512F build (the GEMM's 4×32 tile, the pool's gather
    /// kernel); runs as the plain build on a CPU without AVX-512F.
    Avx512,
}

impl Build {
    /// The widest build this CPU runs.
    pub(crate) fn detect() -> Build {
        if crate::has_avx512f() {
            Build::Avx512
        } else if crate::has_avx2() {
            Build::Avx2
        } else {
            Build::Plain
        }
    }

    /// The build's name: `"avx512"`, `"avx2"` or `"plain"`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Build::Avx512 => "avx512",
            Build::Avx2 => "avx2",
            Build::Plain => "plain",
        }
    }
}

/// The name of the microkernel build this CPU runs: `"avx512"`, `"avx2"`
/// or `"plain"`.
pub fn simd_build() -> &'static str {
    Build::detect().name()
}

/// Operand layouts of the three entry points.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// `a` is `m×k`, `b` is `k×n`.
    Nn,
    /// `a` is `m×k`, `b` is `n×k`.
    Nt,
    /// `a` is `k×m`, `b` is `k×n`.
    Tn,
}

/// The body of the three entry points: packs `B` for its layout, then runs
/// the row-panel driver with the matching `A` packer.
fn gemm(
    build: Build,
    layout: Layout,
    scratch: &mut GemmScratch,
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    qnn_trace::counter!("tensor.gemm.calls", 1);
    qnn_trace::counter!("tensor.gemm.flops", (2 * m * k * n) as u64);
    match layout {
        Layout::Nt => pack_b_nt(scratch, k, n, b),
        Layout::Nn | Layout::Tn => pack_b_nn(&mut scratch.packed_b, k, n, b),
    }
    let a = match layout {
        Layout::Tn => ASide::Cols(a),
        Layout::Nn | Layout::Nt => ASide::Rows(a),
    };
    driver(build, (m, k, n), a, &scratch.packed_b, c);
}

/// `C = A·B` (`c` is `m×n`, overwritten) on operands already in panel
/// form: the same microkernel, rounding and row-panel partition as
/// [`gemm_nn`] on the row-major operands.
pub(crate) fn gemm_packed(a: &PackedA, b: &PackedB, c: &mut [f32]) {
    debug_assert_eq!(a.k, b.k);
    let (m, k, n) = (a.m, a.k, b.n);
    debug_assert_eq!(c.len(), m * n);
    qnn_trace::counter!("tensor.gemm.calls", 1);
    qnn_trace::counter!("tensor.gemm.flops", (2 * m * k * n) as u64);
    driver(
        Build::detect(),
        (m, k, n),
        ASide::Panels(&a.data),
        &b.data,
        c,
    );
}

/// A left operand `A` (`m×k`, row-major) packed once into the
/// microkernel's `MR`-row panels, for a product whose left side stays
/// fixed while its right side changes: a conv layer's weights across the
/// images of a batch. Panel `ip` holds rows `ip·MR ..` in k-major order,
/// zero past row `m`.
#[derive(Debug, Default, Clone)]
pub(crate) struct PackedA {
    m: usize,
    k: usize,
    data: Vec<f32>,
}

impl PackedA {
    /// Repacks row-major `a` (`m×k`) in place, reusing the buffer.
    pub(crate) fn pack(&mut self, m: usize, k: usize, a: &[f32]) {
        debug_assert_eq!(a.len(), m * k);
        self.pack_with(m, k, |i0, h, dst| pack_a_rows(a, k, i0, h, dst));
    }

    /// Repacks `A` (`m×k`) given as its row-major transpose `at`
    /// (`k×m`), as [`gemm_tn`] takes it.
    pub(crate) fn pack_transposed(&mut self, m: usize, k: usize, at: &[f32]) {
        debug_assert_eq!(at.len(), m * k);
        self.pack_with(m, k, |i0, h, dst| pack_a_cols(at, m, k, i0, h, dst));
    }

    /// Sizes the panels for `m×k` and fills each with `pack(i0, h, dst)`.
    fn pack_with(&mut self, m: usize, k: usize, pack: impl Fn(usize, usize, &mut [f32])) {
        (self.m, self.k) = (m, k);
        self.data.resize(m.div_ceil(MR) * k * MR, 0.0);
        if k == 0 {
            return;
        }
        for (ip, dst) in self.data.chunks_exact_mut(k * MR).enumerate() {
            pack(ip * MR, MR.min(m - ip * MR), dst);
        }
    }
}

/// A right operand `B` (`k×n`) held in the microkernel's `NR`-column
/// panels (the layout of [`pack_b_nn`]): packed from a row-major `B`, or,
/// for the conv forward, written straight from a bordered image's patch
/// walk, so no patch matrix is ever made.
#[derive(Debug, Default, Clone)]
pub(crate) struct PackedB {
    k: usize,
    n: usize,
    data: Panels,
    /// The patch walk's runs, split where they cross a panel.
    runs: Vec<Run>,
}

impl PackedB {
    /// Repacks row-major `b` (`k×n`) in place, reusing the buffer.
    pub(crate) fn pack(&mut self, k: usize, n: usize, b: &[f32]) {
        debug_assert_eq!(b.len(), k * n);
        (self.k, self.n) = (k, n);
        pack_b_nn(&mut self.data, k, n, b);
    }

    /// Repacks in place as the patch matrix of one image, `src` in the
    /// layout `border` describes. Each output row's run of taps lands in
    /// fixed stretches of at most `NR` lanes of fixed panels; that split
    /// is the same for every patch row, so it is made once here, and each
    /// patch row is then one copy per stretch. The lanes past column `n`
    /// are set to `+0.0`: they are never written back, but a stale
    /// subnormal there would still slow the kernel.
    pub(crate) fn pack_patches(&mut self, border: &Border, src: &[f32]) {
        let (k, n) = (border.rows(), border.cols());
        (self.k, self.n) = (k, n);
        self.data.resize(n.div_ceil(NR) * k * NR);
        let tail = n % NR;
        if tail != 0 {
            for row in self.data[(n / NR) * k * NR..].chunks_exact_mut(NR) {
                row[tail..].fill(0.0);
            }
        }
        self.runs.clear();
        for run in border.row_runs() {
            let (mut col, end) = (run.dst, run.dst + run.len);
            while col < end {
                let len = (NR - col % NR).min(end - col);
                self.runs.push(Run {
                    dst: (col / NR) * k * NR + col % NR,
                    at: run.at + (col - run.dst) * border.stride(),
                    len,
                });
                col += len;
            }
        }
        border.unfold(src, 0..k, NR, self.runs.iter().copied(), &mut self.data);
    }
}

/// Packs `B` (`k×n`, row-major) into `⌈n/NR⌉` column panels: panel `jp`
/// holds, for each `kk`, the `NR` values `b[kk, jp·NR .. jp·NR+NR]`
/// (zero-padded past column `n`). Padding only ever multiplies into
/// output lanes that are never written back.
fn pack_b_nn(packed_b: &mut Panels, k: usize, n: usize, b: &[f32]) {
    let n_panels = n.div_ceil(NR);
    packed_b.zeroed(n_panels * k * NR);
    for jp in 0..n_panels {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let panel = &mut packed_b[jp * k * NR..(jp + 1) * k * NR];
        for kk in 0..k {
            let src = &b[kk * n + j0..kk * n + j0 + w];
            let dst = &mut panel[kk * NR..kk * NR + w];
            dst.copy_from_slice(src);
        }
    }
}

/// Packs `B` given as `n×k` row-major (i.e. the transpose of the logical
/// `k×n` operand) into the same panel layout as [`pack_b_nn`].
fn pack_b_nt(scratch: &mut GemmScratch, k: usize, n: usize, b: &[f32]) {
    let n_panels = n.div_ceil(NR);
    scratch.packed_b.zeroed(n_panels * k * NR);
    for jp in 0..n_panels {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let panel = &mut scratch.packed_b[jp * k * NR..(jp + 1) * k * NR];
        for s in 0..w {
            let row = &b[(j0 + s) * k..(j0 + s + 1) * k];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * NR + s] = v;
            }
        }
    }
}

/// Packs `MR` rows of row-major `a` (`?×k`) into k-major order:
/// `dst[kk·MR + r] = a[i0+r, kk]`, zero past row `i0+h`.
fn pack_a_rows(a: &[f32], k: usize, i0: usize, h: usize, dst: &mut [f32]) {
    dst.fill(0.0);
    for r in 0..h {
        let row = &a[(i0 + r) * k..(i0 + r + 1) * k];
        for (kk, &v) in row.iter().enumerate() {
            dst[kk * MR + r] = v;
        }
    }
}

/// Packs `MR` columns of row-major `a` (`k×m`) — the rows of `Aᵀ` — into
/// k-major order: `dst[kk·MR + r] = a[kk, i0+r]`.
fn pack_a_cols(a: &[f32], m: usize, k: usize, i0: usize, h: usize, dst: &mut [f32]) {
    dst.fill(0.0);
    for kk in 0..k {
        let src = &a[kk * m + i0..kk * m + i0 + h];
        let d = &mut dst[kk * MR..kk * MR + h];
        d.copy_from_slice(src);
    }
}

/// Where the driver takes each `MR`-row panel of `A` from.
#[derive(Debug, Clone, Copy)]
enum ASide<'a> {
    /// Row-major `a` (`m×k`), packed per panel.
    Rows(&'a [f32]),
    /// `a` given as `k×m` (the rows of `Aᵀ`), packed per panel.
    Cols(&'a [f32]),
    /// Already packed ([`PackedA`]).
    Panels(&'a [f32]),
}

impl<'a> ASide<'a> {
    /// Panel `ip` of `A`, packed into `buf` unless it already is.
    fn panel<'b>(self, (m, k): (usize, usize), ip: usize, buf: &'b mut Vec<f32>) -> &'b [f32]
    where
        'a: 'b,
    {
        let (i0, h) = (ip * MR, MR.min(m - ip * MR));
        match self {
            ASide::Panels(p) => &p[i0 * k..(i0 + MR) * k],
            ASide::Rows(a) => {
                buf.resize(k * MR, 0.0);
                pack_a_rows(a, k, i0, h, buf);
                buf
            }
            ASide::Cols(a) => {
                buf.resize(k * MR, 0.0);
                pack_a_cols(a, m, k, i0, h, buf);
                buf
            }
        }
    }
}

/// Shared panel loop: splits `c` into `MR`-row slabs, parallelised over the
/// pool (each slab is a disjoint output region, so the partition cannot
/// affect the result), and runs the microkernel over the packed panels.
fn driver(
    build: Build,
    (m, k, n): (usize, usize, usize),
    a: ASide,
    packed_b: &[f32],
    c: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    par::for_each_chunk_mut(c, MR * n, |ip, c_slab| {
        let h = MR.min(m - ip * MR);
        TLS_PANEL_A.with(|buf| {
            let mut buf = buf.borrow_mut();
            let pa = a.panel((m, k), ip, &mut buf);
            row_panel(build, (k, n, h), pa, packed_b, c_slab);
        });
    });
}

/// Computes one `h×n` output slab (`h ≤ MR`) from a packed A panel and all
/// packed B panels, through the vector build `build` asks for when the CPU
/// has it, else the plain build.
fn row_panel(
    build: Build,
    (k, n, h): (usize, usize, usize),
    pa: &[f32],
    packed_b: &[f32],
    c_slab: &mut [f32],
) {
    match build {
        #[cfg(target_arch = "x86_64")]
        Build::Avx512 if crate::has_avx512f() => {
            // SAFETY: `has_avx512f` verified AVX-512F on this CPU, the only
            // precondition of the target_feature build.
            unsafe { row_panel_avx512((k, n, h), pa, packed_b, c_slab) }
        }
        #[cfg(target_arch = "x86_64")]
        Build::Avx2 if crate::has_avx2() => {
            // SAFETY: `has_avx2` verified AVX2 on this CPU, the only
            // precondition of the target_feature build.
            unsafe { row_panel_avx2(k, n, h, pa, packed_b, c_slab) }
        }
        _ => row_panel_body(k, n, h, pa, packed_b, c_slab),
    }
}

/// The AVX-512 build: a 4×32 tile of eight zmm accumulators over each pair
/// of adjacent `NR`-column panels, and a 4×16 tile over a lone last panel.
/// Per k step the pair tile loads two B rows, broadcasts four A values and
/// runs 8 `vmulps` and then 8 `vaddps`, in ascending k: one rounded
/// multiply and one rounded add per accumulator, as in the naive loop.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn row_panel_avx512(
    (k, n, h): (usize, usize, usize),
    pa: &[f32],
    packed_b: &[f32],
    c_slab: &mut [f32],
) {
    let pstride = k * NR;
    let n_panels = n.div_ceil(NR);
    // The tiles read `MR·k` A values and whole panels, and store whole
    // rows of up to `n` columns: checked once here, relied on below.
    assert!(h <= MR && pa.len() >= k * MR && c_slab.len() >= h * n);
    assert!(packed_b.len() >= n_panels * pstride);
    let mut jp = 0;
    while jp < n_panels {
        let j0 = jp * NR;
        let w = (n - j0).min(2 * NR);
        // SAFETY: panels `jp` (and `jp + 1` for a pair) lie inside
        // `packed_b` by the assert above; `pa` holds `k·MR` values.
        let pb = packed_b.as_ptr().add(jp * pstride);
        if jp + 1 < n_panels {
            let acc = tile_f32::<2>(k, pa.as_ptr(), pb, pstride);
            store_tile(&acc, h, n, w, &mut c_slab[j0..]);
            jp += 2;
        } else {
            let acc = tile_f32::<1>(k, pa.as_ptr(), pb, pstride);
            store_tile(&acc, h, n, w, &mut c_slab[j0..]);
            jp += 1;
        }
    }
}

/// One `MR × P·NR` tile: `acc[r][q]` accumulates `pa[kk, r] · B[kk, q·NR ..]`
/// over panels `pb + q·pstride`, multiply then add, for ascending `kk < k`.
///
/// # Safety
///
/// The CPU must support AVX-512F; `pa` must hold `k·MR` values and `pb`
/// `P` panels of `k·NR` values, `pstride` apart.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_f32<const P: usize>(
    k: usize,
    pa: *const f32,
    pb: *const f32,
    pstride: usize,
) -> [[std::arch::x86_64::__m512; P]; MR] {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); P]; MR];
    for kk in 0..k {
        let mut b = [_mm512_setzero_ps(); P];
        for (q, bq) in b.iter_mut().enumerate() {
            *bq = _mm512_loadu_ps(pb.add(q * pstride + kk * NR));
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*pa.add(kk * MR + r));
            for (acc_rq, &bq) in acc_r.iter_mut().zip(&b) {
                // Two roundings, never a fused multiply-add.
                *acc_rq = _mm512_add_ps(*acc_rq, _mm512_mul_ps(a, bq));
            }
        }
    }
    acc
}

/// Writes the first `h` rows and `w ≤ P·NR` columns of `acc` to `c`, whose
/// row `r` starts at `c[r·n]`.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn store_tile<const P: usize>(
    acc: &[[std::arch::x86_64::__m512; P]; MR],
    h: usize,
    n: usize,
    w: usize,
    c: &mut [f32],
) {
    use std::arch::x86_64::*;
    for (r, acc_r) in acc.iter().enumerate().take(h) {
        let row = &mut c[r * n..r * n + w];
        for (q, dst) in row.chunks_mut(NR).enumerate() {
            // SAFETY: the mask enables exactly `dst.len() ≤ 16` lanes, all
            // inside `dst`.
            let mask = ((1u32 << dst.len()) - 1) as __mmask16;
            _mm512_mask_storeu_ps(dst.as_mut_ptr(), mask, acc_r[q]);
        }
    }
}

/// The AVX2 build of [`row_panel_body`].
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_panel_avx2(
    k: usize,
    n: usize,
    h: usize,
    pa: &[f32],
    packed_b: &[f32],
    c_slab: &mut [f32],
) {
    row_panel_body(k, n, h, pa, packed_b, c_slab);
}

/// The loop both builds compile: one microkernel tile per `NR`-column
/// panel, of which the first `h` rows and `w` columns are written back.
#[inline(always)]
fn row_panel_body(k: usize, n: usize, h: usize, pa: &[f32], packed_b: &[f32], c_slab: &mut [f32]) {
    for (jp, pb) in packed_b.chunks_exact(k * NR).enumerate() {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let mut acc = [[0.0f32; NR]; MR];
        microkernel(pa, pb, &mut acc);
        for (r, acc_row) in acc.iter().enumerate().take(h) {
            let dst = &mut c_slab[r * n + j0..r * n + j0 + w];
            dst.copy_from_slice(&acc_row[..w]);
        }
    }
}

/// The `MR×NR` register microkernel: `acc[r][s] += pa[kk,r] · pb[kk,s]`
/// for ascending `kk`. One multiply-round and one add-round per step per
/// accumulator — the naive kernel's exact rounding sequence.
#[inline(always)]
fn microkernel(pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a, b) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        let b: [f32; NR] = b.try_into().expect("panel stride");
        for r in 0..MR {
            let ar = a[r];
            for s in 0..NR {
                acc[r][s] += ar * b[s];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn reference_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn random(len: usize, seed: u64) -> Vec<f32> {
        let mut r = seeded(seed);
        (0..len).map(|_| r.gen_range(-2.0f32..2.0)).collect()
    }

    #[test]
    fn nn_matches_reference_bitwise_over_shapes() {
        for (case, &(m, k, n)) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 4, 4),
            (5, 9, 6),
            (17, 23, 19),
            (32, 64, 48),
            (1, 100, 1),
        ]
        .iter()
        .enumerate()
        {
            let a = random(m * k, 100 + case as u64);
            let b = random(k * n, 200 + case as u64);
            let mut c = vec![f32::NAN; m * n];
            gemm_nn(m, k, n, &a, &b, &mut c);
            assert_eq!(c, reference_nn(m, k, n, &a, &b), "shape {m}x{k}x{n}");
        }
    }

    /// One operand value: mostly uniform in [-2, 2], sometimes a signed
    /// zero, a subnormal or a tiny normal whose products go subnormal.
    fn operand(r: &mut crate::rng::Rng) -> f32 {
        let sign = if r.gen_bool(0.5) { 1.0 } else { -1.0 };
        match r.gen_range(0u32..100) {
            0..=3 => sign * 0.0,
            4..=6 => sign * f32::from_bits(r.gen_range(1u32..0x0080_0000)),
            7..=9 => sign * r.gen_range(1e-30f32..1e-20),
            _ => r.gen_range(-2.0f32..2.0),
        }
    }

    /// `len` operands with up to three values that poison a dot product
    /// dropped in at random positions: ±inf, ±`f32::MAX` (whose products
    /// and sums overflow to inf) and NaN.
    fn operands(r: &mut crate::rng::Rng, len: usize) -> Vec<f32> {
        const POISON: [f32; 5] = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
            f32::NAN,
        ];
        let mut v: Vec<f32> = (0..len).map(|_| operand(r)).collect();
        if len > 0 {
            for _ in 0..r.gen_range(0usize..4) {
                let at = r.gen_range(0..len);
                v[at] = POISON[r.gen_range(0..POISON.len())];
            }
        }
        v
    }

    /// Seeded property test of every entry point and every build this CPU
    /// runs against the naive triple loop, at 1 and 4 threads. Shapes put
    /// `m mod MR` and `n mod 2·NR` through every residue, so the AVX-512
    /// build runs both its two-panel tile and its lone-panel tail; `k` takes
    /// 0, 1, odd values and values of 256 and more. Every non-NaN output
    /// must be bit-equal to the reference, and NaN must appear exactly where
    /// the reference has NaN.
    /// NaN bits are not compared: on x86 the default NaN (`inf − inf`,
    /// `0 · inf`) is negative and LLVM treats `fadd` as commutative, so when
    /// a negative NaN accumulator meets a positive NaN product, which one
    /// survives is up to instruction selection (see the module docs).
    #[test]
    fn every_build_matches_reference_bitwise_over_random_shapes() {
        const CASES: usize = 256;
        let mut r = seeded(0x6E77_4D4D);
        let (mut k_zero, mut k_one, mut k_odd, mut k_wide, mut nans) = (0, 0, 0, 0, 0);
        let mut builds = vec![Build::Plain];
        if crate::has_avx2() {
            builds.push(Build::Avx2);
        }
        if crate::has_avx512f() {
            builds.push(Build::Avx512);
        }
        let mut avx512_cases = 0;
        for case in 0..CASES {
            let m = match case % MR + MR * r.gen_range(0usize..5) {
                0 => MR,
                m => m,
            };
            let n = match (case / MR) % (2 * NR) + 2 * NR * r.gen_range(0usize..3) {
                0 => 2 * NR,
                n => n,
            };
            let k = match r.gen_range(0u32..8) {
                0 => 0,
                1 => 1,
                2 | 3 => 2 * r.gen_range(1usize..50) + 1,
                4 | 5 => 2 * r.gen_range(1usize..50),
                _ => r.gen_range(256usize..320),
            };
            k_zero += usize::from(k == 0);
            k_one += usize::from(k == 1);
            k_odd += usize::from(k % 2 == 1 && k > 1);
            k_wide += usize::from(k >= 256);
            // Logical operands A (m×k) and B (k×n), and their transposes.
            let a = operands(&mut r, m * k);
            let b = operands(&mut r, k * n);
            let at: Vec<f32> = (0..k * m).map(|x| a[(x % m) * k + x / m]).collect();
            let bt: Vec<f32> = (0..n * k).map(|x| b[(x % k) * n + x / k]).collect();
            let want = reference_nn(m, k, n, &a, &b);
            nans += want.iter().filter(|v| v.is_nan()).count();
            for &build in &builds {
                avx512_cases += usize::from(build == Build::Avx512);
                for threads in [1, 4] {
                    crate::par::set_threads(Some(threads));
                    for (layout, lhs, rhs) in [
                        (Layout::Nn, &a, &b),
                        (Layout::Nt, &a, &bt),
                        (Layout::Tn, &at, &b),
                    ] {
                        let mut got = vec![7.0f32; m * n];
                        let mut scratch = GemmScratch::default();
                        gemm(build, layout, &mut scratch, (m, k, n), lhs, rhs, &mut got);
                        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                            let same = if w.is_nan() {
                                g.is_nan()
                            } else {
                                g.to_bits() == w.to_bits()
                            };
                            assert!(
                                same,
                                "case {case} {layout:?} {build:?} threads={threads} \
                                 {m}x{k}x{n} at {i}: got {g:e}, want {w:e}"
                            );
                        }
                    }
                }
            }
        }
        crate::par::set_threads(None);
        assert!(k_zero > 0 && k_one > 0 && k_odd > 0 && k_wide > 0);
        assert!(nans > 0, "the special operands must produce NaN outputs");
        // On an AVX-512 CPU every case ran the AVX-512 build, which is also
        // the one the entry points dispatch to.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert_eq!(avx512_cases, CASES);
            assert_eq!(Build::detect(), Build::Avx512);
        }
    }

    #[test]
    fn nt_and_tn_match_explicit_transposes() {
        let (m, k, n) = (13, 21, 11);
        let a = random(m * k, 1);
        let bt = random(n * k, 2); // logical B is k×n; bt is its transpose n×k
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let mut c_nt = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &bt, &mut c_nt);
        assert_eq!(c_nt, reference_nn(m, k, n, &a, &b));

        let at = random(k * m, 3); // logical A is m×k; at is its transpose k×m
        let mut a2 = vec![0.0f32; m * k];
        for i in 0..m {
            for kk in 0..k {
                a2[i * k + kk] = at[kk * m + i];
            }
        }
        let mut c_tn = vec![0.0f32; m * n];
        gemm_tn(m, k, n, &at, &b, &mut c_tn);
        assert_eq!(c_tn, reference_nn(m, k, n, &a2, &b));
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let (m, k, n) = (37, 29, 41);
        let a = random(m * k, 7);
        let b = random(k * n, 8);
        let mut c1 = vec![0.0f32; m * n];
        crate::par::set_threads(Some(1));
        gemm_nn(m, k, n, &a, &b, &mut c1);
        let mut c4 = vec![0.0f32; m * n];
        crate::par::set_threads(Some(4));
        gemm_nn(m, k, n, &a, &b, &mut c4);
        crate::par::set_threads(None);
        assert_eq!(c1, c4);
    }

    #[test]
    fn degenerate_dims() {
        // k == 0 → zero matrix.
        let mut c = vec![f32::NAN; 6];
        gemm_nn(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![0.0; 6]);
        // m == 0 → nothing to do (and nothing to write).
        let mut empty: Vec<f32> = vec![];
        gemm_nn(0, 4, 3, &[], &random(12, 9), &mut empty);
    }
}
