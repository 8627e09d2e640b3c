//! End-to-end tests over real TCP sockets: concurrent bit-identity,
//! backpressure, graceful drain ordering, and malformed-frame handling.

use std::sync::Arc;
use std::time::Duration;

use qnn_serve::proto::{Frame, FrameKind, HEADER_LEN, MAX_PAYLOAD};
use qnn_serve::{
    ErrorCode, ModelBank, ServeClient, ServeConfig, ServeError, Server, MODEL_SEED, NUM_PRECISIONS,
};

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("server start");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn concurrent_clients_all_tags_bit_identical() {
    let (server, addr) = start(ServeConfig::default());
    let bank = Arc::new({
        let mut b = ModelBank::default_bank().unwrap();
        // Precompute every expectation single-shot up front, so worker
        // threads only compare bytes.
        let n = 28usize;
        let imgs: Vec<Vec<f32>> = (0..n)
            .map(|i| qnn_serve::model::test_image(MODEL_SEED, i as u64, b.input_len()))
            .collect();
        let expected: Vec<Vec<f32>> = imgs
            .iter()
            .enumerate()
            .map(|(i, img)| {
                b.forward_single((i % NUM_PRECISIONS as usize) as u8, img)
                    .unwrap()
            })
            .collect();
        (imgs, expected)
    });

    let clients = 4usize;
    let mut threads = Vec::new();
    for t in 0..clients {
        let addr = addr.clone();
        let bank = Arc::clone(&bank);
        threads.push(std::thread::spawn(move || {
            let (imgs, expected) = &*bank;
            let mut c = ServeClient::connect(&addr).unwrap();
            for i in (t..imgs.len()).step_by(clients) {
                let tag = (i % NUM_PRECISIONS as usize) as u8;
                let (_version, logits, _retries) = c.infer_retry(tag, &imgs[i], 64).unwrap();
                let got: Vec<u32> = logits.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = expected[i].iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "image {i} tag {tag}: served logits drifted");
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.requests, 28, "every request answered exactly once");
    assert_eq!(stats.connections, clients as u64);
}

#[test]
fn full_queue_rejects_busy_with_retry_hint() {
    // A tiny queue and a long batch window: the engine sits in its batch
    // window while a pipelining client floods it, so pushes past cap=2
    // must bounce with Busy.
    let cfg = ServeConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(500),
        queue_cap: 2,
        ..ServeConfig::default()
    };
    let (server, addr) = start(cfg);
    let mut c = ServeClient::connect(&addr).unwrap();
    let mut bank = ModelBank::default_bank().unwrap();
    let img = qnn_serve::model::test_image(MODEL_SEED, 0, bank.input_len());
    let expected = bank.forward_single(0, &img).unwrap();

    let total = 10usize;
    let mut ids = Vec::new();
    for _ in 0..total {
        ids.push(c.send_infer(0, &img).unwrap());
    }
    let mut ok = 0usize;
    let mut busy = 0usize;
    for _ in 0..total {
        let f = c.recv_frame().unwrap();
        assert!(ids.contains(&f.req_id));
        match f.kind {
            FrameKind::InferOk => {
                assert_eq!(f.payload_f32s().unwrap(), expected);
                ok += 1;
            }
            FrameKind::Error => {
                let (code, retry_after_us, _msg) = f.error_info().unwrap();
                assert_eq!(code, ErrorCode::Busy);
                assert!(retry_after_us >= 100, "Busy must carry a retry hint");
                busy += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(ok >= 2, "at least the queued requests succeed (got {ok})");
    assert!(busy > 0, "cap-2 queue under a 10-deep pipeline must reject");
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.rejected_busy, busy as u64);
}

#[test]
fn graceful_drain_answers_inflight_before_ack() {
    let cfg = ServeConfig {
        // A long window keeps the pipelined requests queued when the
        // shutdown lands, making the drain do real work.
        max_batch: 64,
        max_wait: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (server, addr) = start(cfg);
    let mut c = ServeClient::connect(&addr).unwrap();
    let bank = ModelBank::default_bank().unwrap();
    let img = qnn_serve::model::test_image(MODEL_SEED, 7, bank.input_len());

    let n = 6usize;
    let mut infer_ids = Vec::new();
    for i in 0..n {
        infer_ids.push(
            c.send_infer((i % NUM_PRECISIONS as usize) as u8, &img)
                .unwrap(),
        );
    }
    let shutdown_id = c.send_shutdown().unwrap();

    let mut answered = Vec::new();
    loop {
        let f = c.recv_frame().unwrap();
        match f.kind {
            FrameKind::InferOk => answered.push(f.req_id),
            FrameKind::ShutdownAck => {
                assert_eq!(f.req_id, shutdown_id);
                break;
            }
            FrameKind::Error => {
                // Requests that raced the queue close are refused with
                // ShuttingDown — allowed, but they count as answered.
                let (code, _, _) = f.error_info().unwrap();
                assert_eq!(code, ErrorCode::ShuttingDown);
                answered.push(f.req_id);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(
        answered.len(),
        n,
        "every pipelined request is answered before the ShutdownAck"
    );
    for id in infer_ids {
        assert!(answered.contains(&id));
    }
    server.join();
}

#[test]
fn new_work_after_shutdown_is_refused_typed() {
    let (server, addr) = start(ServeConfig::default());
    let bank = ModelBank::default_bank().unwrap();
    let img = qnn_serve::model::test_image(MODEL_SEED, 1, bank.input_len());

    let mut c1 = ServeClient::connect(&addr).unwrap();
    server.shutdown(); // close the queue without stopping the sockets yet
    match c1.infer(0, &img) {
        Err(ServeError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    server.join();
}

#[test]
fn bad_precision_tag_is_rejected_and_connection_survives() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    let mut bank = ModelBank::default_bank().unwrap();
    let img = qnn_serve::model::test_image(MODEL_SEED, 2, bank.input_len());

    match c.infer(NUM_PRECISIONS + 3, &img) {
        Err(ServeError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::BadPrecision),
        other => panic!("expected BadPrecision, got {other:?}"),
    }
    // The same connection still serves valid requests afterwards.
    let logits = c.infer(0, &img).unwrap();
    assert_eq!(logits, bank.forward_single(0, &img).unwrap());
    c.shutdown_server().unwrap();
    server.join();
}

#[test]
fn wrong_image_length_is_bad_payload_and_connection_survives() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    let mut bank = ModelBank::default_bank().unwrap();
    let img = qnn_serve::model::test_image(MODEL_SEED, 3, bank.input_len());

    match c.infer(0, &img[..img.len() - 1]) {
        Err(ServeError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::BadPayload),
        other => panic!("expected BadPayload, got {other:?}"),
    }
    let logits = c.infer(0, &img).unwrap();
    assert_eq!(logits, bank.forward_single(0, &img).unwrap());
    c.shutdown_server().unwrap();
    server.join();
}

#[test]
fn corrupted_crc_over_tcp_gets_typed_error_then_close() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(10)).unwrap();

    let mut bytes = Frame::infer(42, 0, &[0.5f32; 4]).encode();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // smash the CRC trailer
    c.send_raw(&bytes).unwrap();

    let f = c.recv_frame().expect("server answers before closing");
    assert_eq!(f.kind, FrameKind::Error);
    assert_eq!(f.req_id, 42, "error frame echoes the request id");
    let (code, _, _) = f.error_info().unwrap();
    assert_eq!(code, ErrorCode::BadCrc);
    // CRC failure poisons the stream: the server hangs up afterwards.
    match c.recv_frame() {
        Err(ServeError::Proto(qnn_serve::ProtoError::Eof)) => {}
        other => panic!("expected EOF after fatal frame, got {other:?}"),
    }
    server.shutdown();
    server.join();
}

#[test]
fn bad_magic_over_tcp_gets_typed_error_then_close() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(10)).unwrap();

    let mut bytes = Frame::shutdown(7).encode();
    bytes[0] = b'X';
    // Re-seal the CRC so only the magic is wrong (proves field ordering:
    // magic is checked before anything else, req_id is not trusted).
    let crc = qnn_faults::crc32::checksum(&bytes[..bytes.len() - 4]);
    let last = bytes.len() - 4;
    bytes[last..].copy_from_slice(&crc.to_le_bytes());
    c.send_raw(&bytes).unwrap();

    let f = c.recv_frame().unwrap();
    assert_eq!(f.kind, FrameKind::Error);
    assert_eq!(f.req_id, 0, "req_id is untrusted when the magic is wrong");
    let (code, _, _) = f.error_info().unwrap();
    assert_eq!(code, ErrorCode::BadMagic);
    server.shutdown();
    server.join();
}

#[test]
fn oversized_declaration_is_refused_without_allocation() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(10)).unwrap();

    let mut bytes = Frame::shutdown(9).encode();
    bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB payload, allegedly
    c.send_raw(&bytes).unwrap();

    let f = c.recv_frame().unwrap();
    assert_eq!(f.kind, FrameKind::Error);
    let (code, _, msg) = f.error_info().unwrap();
    assert_eq!(code, ErrorCode::Oversized);
    assert!(
        msg.contains(&MAX_PAYLOAD.to_string()),
        "error names the cap: {msg}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn truncated_frame_then_half_close_gets_typed_error() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(10)).unwrap();

    let bytes = Frame::infer(11, 0, &[1.0f32; 8]).encode();
    c.send_raw(&bytes[..HEADER_LEN + 5]).unwrap(); // header + partial payload
    c.finish_writes().unwrap(); // EOF mid-frame

    let f = c.recv_frame().unwrap();
    assert_eq!(f.kind, FrameKind::Error);
    assert_eq!(f.req_id, 11, "header made it through, so the id is known");
    let (code, _, _) = f.error_info().unwrap();
    assert_eq!(code, ErrorCode::Truncated);
    server.shutdown();
    server.join();
}

#[test]
fn response_kind_sent_to_server_is_protocol_misuse_not_a_crash() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(10)).unwrap();

    c.send_raw(&Frame::infer_ok(13, &[1.0, 2.0]).encode())
        .unwrap();
    let f = c.recv_frame().unwrap();
    assert_eq!(f.kind, FrameKind::Error);
    assert_eq!(f.req_id, 13);
    let (code, _, _) = f.error_info().unwrap();
    assert_eq!(code, ErrorCode::BadKind);

    // Misuse is survivable: the stream still frames, so real work flows.
    let mut bank = ModelBank::default_bank().unwrap();
    let img = qnn_serve::model::test_image(MODEL_SEED, 4, bank.input_len());
    let logits = c.infer(0, &img).unwrap();
    assert_eq!(logits, bank.forward_single(0, &img).unwrap());
    c.shutdown_server().unwrap();
    server.join();
}

// ---------------------------------------------------------------------------
// Hot-reload lifecycle: promote, reject, persist, recover.
// ---------------------------------------------------------------------------

fn reload_tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("qnn-serve-reload-e2e")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One versioned round trip asserting the logits are bit-identical to a
/// local forward on `bank` and that the version byte matches.
fn assert_serves_bank(c: &mut ServeClient, bank: &mut ModelBank, version_byte: u8, salt: u64) {
    let img = qnn_serve::model::test_image(MODEL_SEED, salt, bank.input_len());
    let tag = (salt % u64::from(NUM_PRECISIONS)) as u8;
    let (v, logits) = c.infer_versioned(tag, &img).unwrap();
    assert_eq!(v, version_byte, "version byte drifted");
    let got: Vec<u32> = logits.iter().map(|x| x.to_bits()).collect();
    let want: Vec<u32> = bank
        .forward_single(tag, &img)
        .unwrap()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(got, want, "served logits are not the pinned version's bits");
}

#[test]
fn hot_reload_promotes_and_serves_the_new_version_bit_identically() {
    let dir = reload_tmp_dir("promote");
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(30)).unwrap();

    let mut old_bank = ModelBank::default_bank().unwrap();
    assert_serves_bank(&mut c, &mut old_bank, 1, 0);
    assert_eq!(server.model_version(), 1);
    assert_eq!(server.model_seed(), MODEL_SEED);

    // Checkpoint a different seed's weights and hot-swap to them.
    let new_seed = 0xB0B5u64;
    let path = dir.join("next.qnnf");
    qnn_serve::BankCheckpoint::capture(new_seed)
        .unwrap()
        .save(&path)
        .unwrap();
    let (version, seed) = c.reload(path.to_str().unwrap()).unwrap();
    assert_eq!((version, seed), (2, new_seed));
    assert_eq!(server.model_version(), 2);
    assert_eq!(server.model_seed(), new_seed);

    // Every post-swap response carries the new version byte and the new
    // bank's exact bits.
    let mut new_bank = ModelBank::build(new_seed).unwrap();
    for salt in 1..8 {
        assert_serves_bank(&mut c, &mut new_bank, 2, salt);
    }
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.reloads_promoted, 1);
    assert_eq!(stats.reloads_rejected, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_is_rejected_typed_and_the_old_version_keeps_serving() {
    let dir = reload_tmp_dir("reject");
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(30)).unwrap();

    // Missing file, then garbage bytes: both must be typed refusals,
    // never a crash or a partial swap.
    let missing = dir.join("nope.qnnf");
    let err = c.reload(missing.to_str().unwrap()).unwrap_err();
    match err {
        ServeError::Rejected { code, .. } => assert_eq!(code, ErrorCode::ReloadRejected),
        other => panic!("expected typed ReloadRejected, got {other:?}"),
    }

    let garbage = dir.join("garbage.qnnf");
    std::fs::write(&garbage, b"not a checkpoint at all").unwrap();
    let err = c.reload(garbage.to_str().unwrap()).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Rejected {
                code: ErrorCode::ReloadRejected,
                ..
            }
        ),
        "garbage checkpoint must reject typed, got {err:?}"
    );

    // The rejection left version 1 serving its exact bits.
    assert_eq!(server.model_version(), 1);
    let mut bank = ModelBank::default_bank().unwrap();
    for salt in 0..4 {
        assert_serves_bank(&mut c, &mut bank, 1, salt);
    }
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.reloads_promoted, 0);
    assert_eq!(stats.reloads_rejected, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_canary_rejects_zeroed_weights_and_rolls_back() {
    let dir = reload_tmp_dir("canary");
    let (server, addr) = start(ServeConfig {
        canary_min_agree: 1.0,
        ..ServeConfig::default()
    });
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(30)).unwrap();

    // A structurally valid checkpoint whose weights are all zero: it
    // loads and builds fine, but its top-1 predictions diverge from the
    // live bank, so a strict canary floor must refuse it.
    let mut cp = qnn_serve::BankCheckpoint::capture(MODEL_SEED).unwrap();
    for t in &mut cp.state {
        for w in t.as_mut_slice() {
            *w = 0.0;
        }
    }
    let path = dir.join("zeroed.qnnf");
    cp.save(&path).unwrap();

    let err = c.reload(path.to_str().unwrap()).unwrap_err();
    match err {
        ServeError::Rejected { code, msg, .. } => {
            assert_eq!(code, ErrorCode::ReloadRejected);
            assert!(
                msg.contains("canary"),
                "reason should name the canary: {msg}"
            );
        }
        other => panic!("expected canary rejection, got {other:?}"),
    }

    // Rollback is the no-op path: version 1 never stopped serving.
    assert_eq!(server.model_version(), 1);
    let mut bank = ModelBank::default_bank().unwrap();
    assert_serves_bank(&mut c, &mut bank, 1, 3);
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.reloads_rejected, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn promoted_reload_is_durable_and_bak_rotation_survives_primary_corruption() {
    let dir = reload_tmp_dir("durable");
    let cp_path = dir.join("bank.qnnf");

    // First boot with a checkpoint path persists the seed bank.
    let (server, addr) = start(ServeConfig {
        checkpoint: Some(cp_path.clone()),
        ..ServeConfig::default()
    });
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(30)).unwrap();
    assert!(cp_path.exists(), "first boot must persist the seed bank");

    // Promote seed B; the persist-before-swap rotates the seed-A bank
    // into `bank.qnnf.bak` and writes seed B as the new primary.
    let new_seed = 0xD00Du64;
    let next = dir.join("next.qnnf");
    qnn_serve::BankCheckpoint::capture(new_seed)
        .unwrap()
        .save(&next)
        .unwrap();
    assert_eq!(c.reload(next.to_str().unwrap()).unwrap(), (2, new_seed));
    server.shutdown();
    server.join();

    // Restart on the primary: the promoted version is what boots.
    let (server, addr) = start(ServeConfig {
        checkpoint: Some(cp_path.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(server.model_seed(), new_seed);
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(30)).unwrap();
    let mut new_bank = ModelBank::build(new_seed).unwrap();
    assert_serves_bank(&mut c, &mut new_bank, 1, 5);
    server.shutdown();
    server.join();

    // Corrupt the primary in place: restart must fall back to the
    // `.bak` rotation (the pre-reload seed bank) and say so in stats.
    std::fs::write(&cp_path, b"torn by a crash").unwrap();
    let (server, addr) = start(ServeConfig {
        checkpoint: Some(cp_path.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(
        server.model_seed(),
        MODEL_SEED,
        "fallback is the rotated bank"
    );
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(30)).unwrap();
    let mut old_bank = ModelBank::default_bank().unwrap();
    assert_serves_bank(&mut c, &mut old_bank, 1, 6);
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.checkpoint_fallback, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_utf8_reload_payload_is_bad_payload_not_a_crash() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = ServeClient::connect(&addr).unwrap();
    c.set_read_timeout(Duration::from_secs(10)).unwrap();

    let mut f = Frame::reload(77, "x");
    f.payload = vec![0xFF, 0xFE, 0xFD];
    c.send_raw(&f.encode()).unwrap();
    let reply = c.recv_frame().unwrap();
    assert_eq!(reply.kind, FrameKind::Error);
    let (code, _, _) = reply.error_info().unwrap();
    assert_eq!(code, ErrorCode::BadPayload);

    // Still serving.
    let mut bank = ModelBank::default_bank().unwrap();
    assert_serves_bank(&mut c, &mut bank, 1, 2);
    server.shutdown();
    server.join();
}
