//! Property tests for the packed-B panel layout behind the register-blocked
//! i16 microkernel: pack → read round-trips bit-identically for arbitrary
//! K/N (including ragged edge tiles), padding lanes are exactly zero, and
//! the panel microkernel agrees with the row-at-a-time reference kernel in
//! every association order the dispatcher can pick, and a panel written
//! straight from an image's patches equals the packed im2col.
//!
//! Deterministic seeded loops (≥256 cases each), same harness idiom as
//! `properties.rs` — no external property-testing dependency.

use qnn_tensor::conv::{im2col_into, Geometry};
use qnn_tensor::qgemm::{gemm_nt_i16, gemm_nt_i16_panel, gemm_nt_i16_panel_emit, PanelB};
use qnn_tensor::rng::{derive_seed, seeded, Rng};

const CASES: u64 = 256;

fn cases(suite_seed: u64, f: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = seeded(derive_seed(suite_seed, case));
        f(&mut rng);
    }
}

/// Ragged-leaning dimensions: biased toward tile edges (n around multiples
/// of the 16-wide panel, odd k, m around the 4-row block).
fn ragged_dims(rng: &mut Rng) -> (usize, usize, usize) {
    let m = rng.gen_range(1usize..10);
    let k = rng.gen_range(1usize..48);
    let n = match rng.gen_range(0u32..4) {
        0 => rng.gen_range(1usize..16),     // sub-panel
        1 => 16 * rng.gen_range(1usize..3), // exact panels
        2 => 16 * rng.gen_range(1usize..3) + rng.gen_range(1usize..16), // ragged tail
        _ => rng.gen_range(1usize..40),
    };
    (m, k, n)
}

fn words(len: usize, max_abs: i16, rng: &mut Rng) -> Vec<i16> {
    (0..len)
        .map(|_| rng.gen_range(-(max_abs as i32)..max_abs as i32 + 1) as i16)
        .collect()
}

#[test]
fn pack_read_round_trips_bit_identically() {
    cases(0x71, |rng| {
        let (_, k, n) = ragged_dims(rng);
        let b = words(n * k, 1000, rng);
        let panel = PanelB::pack(n, k, &b);
        assert_eq!(panel.n(), n);
        assert_eq!(panel.k(), k);
        for j in 0..n {
            for kk in 0..k {
                assert_eq!(
                    panel.read(j, kk),
                    b[j * k + kk],
                    "panel({j},{kk}) round-trip, n={n} k={k}"
                );
            }
        }
    });
}

#[test]
fn padding_lanes_are_exactly_zero() {
    // The microkernels multiply padding lanes unconditionally; any nonzero
    // value there would corrupt edge-tile columns or the odd-k pair slot.
    cases(0x72, |rng| {
        let (_, k, n) = ragged_dims(rng);
        let b = words(n * k, i16::MAX, rng);
        let panel = PanelB::pack(n, k, &b);
        let n_padded = n.div_ceil(16) * 16;
        let k_padded = k.div_ceil(2) * 2;
        for j in 0..n_padded {
            for kk in 0..k_padded {
                if j < n && kk < k {
                    continue;
                }
                assert_eq!(panel.read(j, kk), 0, "padding ({j},{kk}) n={n} k={k}");
            }
        }
        assert_eq!(panel.words().len(), n.div_ceil(16) * k.div_ceil(2) * 32);
    });
}

#[test]
fn panel_kernel_matches_row_reference_on_ragged_tiles() {
    cases(0x73, |rng| {
        let (m, k, n) = ragged_dims(rng);
        let a = words(m * k, 127, rng);
        let b = words(n * k, 127, rng);
        let panel = PanelB::pack(n, k, &b);
        let mut c_ref = vec![0i32; m * n];
        gemm_nt_i16(m, k, n, &a, &b, &mut c_ref);
        let mut c_panel = vec![0i32; m * n];
        gemm_nt_i16_panel(m, k, n, &a, &panel, &mut c_panel);
        assert_eq!(c_ref, c_panel, "m={m} k={k} n={n}");
    });
}

#[test]
fn panel_emit_sees_each_row_once_with_final_accumulators() {
    cases(0x74, |rng| {
        let (m, k, n) = ragged_dims(rng);
        let a = words(m * k, 127, rng);
        let b = words(n * k, 127, rng);
        let panel = PanelB::pack(n, k, &b);
        let mut c_ref = vec![0i32; m * n];
        gemm_nt_i16(m, k, n, &a, &b, &mut c_ref);
        let mut out = vec![0.0f32; m * n];
        gemm_nt_i16_panel_emit(m, k, n, &a, &panel, &mut out, |r, acc, orow| {
            assert_eq!(acc.len(), n);
            assert_eq!(orow.len(), n);
            for (j, (&v, o)) in acc.iter().zip(orow.iter_mut()).enumerate() {
                assert_eq!(v, c_ref[r * n + j], "row {r} col {j}");
                *o = v as f32;
            }
        });
        for (i, (&o, &r)) in out.iter().zip(c_ref.iter()).enumerate() {
            assert_eq!(o, r as f32, "emit output {i}");
        }
    });
}

/// `PanelB::pack_patches` against `PanelB::pack` of the transposed im2col
/// over 256+ seeded geometries (c 1–4, h and w 1–13, kernel 1–7, stride
/// 1–3, padding 0–3, ceil mode a quarter of the time, whose last window
/// can reach past `h + 2·pad`), read back over the whole physical panel,
/// padding slots included. One panel is reused across cases, so a slot
/// the walk fails to write shows up as a stale word from an earlier case.
#[test]
fn patch_panel_equals_packed_transposed_im2col() {
    let mut rng = seeded(0x9A7C_4E55);
    let mut panel = PanelB::default();
    let (mut cases, mut odd_k, mut ragged, mut beyond) = (0, 0, 0, 0);
    while cases < 288 {
        let geom = Geometry {
            kh: rng.gen_range(1usize..8),
            kw: rng.gen_range(1usize..8),
            stride: rng.gen_range(1usize..4),
            pad: rng.gen_range(0usize..4),
            ceil: rng.gen_bool(0.25),
        };
        let (c, h, w) = (
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..14),
            rng.gen_range(1usize..14),
        );
        let Ok((oh, ow)) = geom.output_hw(h, w) else {
            continue;
        };
        cases += 1;
        let (n, k) = (oh * ow, c * geom.kh * geom.kw);
        odd_k += usize::from(k % 2 == 1);
        ragged += usize::from(n % 16 != 0);
        beyond += usize::from((oh - 1) * geom.stride + geom.kh > h + 2 * geom.pad);
        let image = words(c * h * w, 300, &mut rng);
        let image_f32: Vec<f32> = image.iter().map(|&v| f32::from(v)).collect();
        let mut cols = vec![0.0f32; k * n];
        im2col_into(&image_f32, c, h, w, geom, &mut cols).unwrap();
        let transposed: Vec<i16> = (0..n * k)
            .map(|x| cols[(x % k) * n + x / k] as i16)
            .collect();
        let want = PanelB::pack(n, k, &transposed);
        assert_eq!(panel.pack_patches(&image, c, h, w, geom).unwrap(), (oh, ow));
        assert_eq!((panel.n(), panel.k()), (n, k));
        assert_eq!(panel.words().len(), want.words().len());
        for j in 0..n.div_ceil(16) * 16 {
            for kk in 0..k.div_ceil(2) * 2 {
                assert_eq!(
                    panel.read(j, kk),
                    want.read(j, kk),
                    "{geom:?} c={c} h={h} w={w} at ({j}, {kk})"
                );
            }
        }
    }
    assert!(odd_k > 0 && ragged > 0 && beyond > 0);
}
