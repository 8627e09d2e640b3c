//! Property tests for the packed-B panel layout behind the register-blocked
//! i16 microkernel: pack → read round-trips bit-identically for arbitrary
//! K/N (including ragged edge tiles), padding lanes are exactly zero, and
//! the panel microkernel agrees with the row-at-a-time reference kernel in
//! every association order the dispatcher can pick.
//!
//! Deterministic seeded loops (≥256 cases each), same harness idiom as
//! `properties.rs` — no external property-testing dependency.

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
