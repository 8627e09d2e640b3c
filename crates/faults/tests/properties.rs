//! Seeded property tests for the fault-injection engine and the `QNNF`
//! container: corruption detection at every byte and every truncation
//! length, and thread-count independence of injection.

use qnn_faults::{store, BufferKind, FaultInjector};
use qnn_quant::{BitCodec, Fixed, Minifloat, PowerOfTwo};
use qnn_tensor::rng::seeded;

/// A representative container written through the real encoder to
/// `file`. Each test passes its own name: tests run in parallel, and two
/// writes to one path let one test's rename take the other's file.
fn sample_container(file: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join("qnn-faults-prop-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    let payload: Vec<u8> = (0u32..400)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    store::write_atomic(&path, store::KIND_TRAIN_CHECKPOINT, &payload).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

#[test]
fn single_byte_corruption_detected_at_every_offset() {
    let good = sample_container("corruption.qnnf");
    assert!(store::decode(&good, store::KIND_TRAIN_CHECKPOINT).is_ok());
    let mut rng = seeded(2024);
    for i in 0..good.len() {
        let mut bad = good.clone();
        // Random nonzero XOR so all bit positions get exercised across
        // the sweep, not just one.
        let x = (rng.gen_range(1u32..256)) as u8;
        bad[i] ^= x;
        assert!(
            store::decode(&bad, store::KIND_TRAIN_CHECKPOINT).is_err(),
            "corruption at byte {i} (xor {x:#04x}) went undetected"
        );
    }
}

#[test]
fn truncation_detected_at_every_prefix_length() {
    let good = sample_container("truncation.qnnf");
    for len in 0..good.len() {
        let err = store::decode(&good[..len], store::KIND_TRAIN_CHECKPOINT).unwrap_err();
        assert!(
            err.is_corruption(),
            "prefix of {len} bytes decoded as {err:?}"
        );
    }
}

#[test]
fn injection_is_identical_across_thread_counts() {
    // The injector is serial by construction; this pins the contract that
    // nothing in the corrupt path consults the worker pool.
    let codecs = [
        BitCodec::Float32,
        BitCodec::Fixed(Fixed::new(8, 4).unwrap()),
        BitCodec::PowerOfTwo(PowerOfTwo::new(6, 0).unwrap()),
        BitCodec::Minifloat(Minifloat::new(4, 3).unwrap()),
    ];
    let run = |threads: usize| {
        qnn_tensor::par::set_threads(Some(threads));
        let mut out = Vec::new();
        for (s, codec) in codecs.iter().enumerate() {
            let mut data: Vec<f32> = {
                let mut r = seeded(500 + s as u64);
                (0..2048).map(|_| r.gen_range(-4.0f32..4.0)).collect()
            };
            let mut inj = FaultInjector::new(1e-3, 77 + s as u64).unwrap();
            let flips = inj.corrupt_slice(codec, BufferKind::Weight, &mut data);
            out.push((flips, data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
        }
        out
    };
    let one = run(1);
    let four = run(4);
    qnn_tensor::par::set_threads(None); // restore default
    assert_eq!(one, four);
}

#[test]
fn windowed_walks_are_deterministic() {
    // Successive sites() windows on one injector consume RNG state in
    // order; two identically seeded injectors walk identical windows.
    let walk = || {
        let mut inj = FaultInjector::new(0.01, 9).unwrap();
        let w1: Vec<u64> = inj.sites(1000).collect();
        let w2: Vec<u64> = inj.sites(1000).collect();
        (w1, w2)
    };
    assert_eq!(walk(), walk());
}
