//! The kill-a-shard-mid-soak chaos test the tentpole contract pins:
//! with a fixed seed, killing one of three shards mid-soak yields a
//! bit-identical answer or a typed retryable error for 100% of
//! requests — zero hangs, zero panics.
//!
//! Kill point and victim come from `derive_seed` streams off a fixed
//! fault seed — the same seeding discipline `qnn-faults` uses for its
//! deterministic corruption campaigns — so the schedule is a pure
//! function of the seed, not of timing.

use std::time::Duration;

use qnn_serve::client::ServeClient;
use qnn_serve::cluster::{Router, RouterConfig};
use qnn_serve::model::{self, ModelBank, MODEL_SEED};
use qnn_serve::server::{ServeConfig, Server};
use qnn_serve::NUM_PRECISIONS;
use qnn_tensor::rng::derive_seed;

/// The fault seed: every kill-schedule quantity derives from it.
const CHAOS_SEED: u64 = 0x000C_1A05;

fn start_shard() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("shard start")
}

#[test]
fn killing_a_shard_mid_soak_stays_bit_identical_or_typed_retryable() {
    let shards: Vec<Server> = (0..3).map(|_| start_shard()).collect();
    let shard_addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Router::start(RouterConfig {
        shards: shard_addrs,
        heartbeat: Duration::from_millis(20),
        k_misses: 2,
        probe_timeout: Duration::from_millis(200),
        forward_timeout: Duration::from_secs(2),
        ..RouterConfig::default()
    })
    .expect("router start");

    let mut bank = ModelBank::default_bank().expect("reference bank");
    let input_len = bank.input_len();

    // Deterministic kill schedule: which shard dies, and after how many
    // verified responses. Both are seed streams, nothing is timing- or
    // thread-dependent.
    let requests = 84usize; // 12 per Table III precision
    let victim = (derive_seed(CHAOS_SEED, 1) % 3) as usize;
    let kill_after = 20 + (derive_seed(CHAOS_SEED, 2) % 20) as usize; // 20..40

    let mut client = ServeClient::connect(&router.local_addr().to_string()).expect("connect");
    // Any hang surfaces as a read timeout, which fails the test.
    client
        .set_read_timeout(Duration::from_secs(5))
        .expect("timeout");

    let mut killed = false;
    let (mut busy_retries, mut shard_down_retries) = (0usize, 0usize);
    for i in 0..requests {
        if i == kill_after {
            shards[victim].kill();
            killed = true;
        }
        let tag = (i % usize::from(NUM_PRECISIONS)) as u8;
        let image = model::test_image(MODEL_SEED, i as u64, input_len);
        let expected = bank.forward_single(tag, &image).expect("reference forward");
        // The contract under test: every request either returns the
        // exact single-shot bits (possibly after retryable rejections)
        // or the retry loop surfaces a typed error — it must never
        // hang, and a wrong-bits answer is an immediate failure.
        let (_version, logits, retries) = client
            .infer_retry(tag, &image, 64)
            .unwrap_or_else(|e| panic!("request {i} failed non-retryably: {e}"));
        assert_eq!(
            logits, expected,
            "request {i}: logits must be bit-identical"
        );
        busy_retries += retries.busy;
        shard_down_retries += retries.shard_down;
    }
    assert!(killed, "kill point {kill_after} must fall inside the soak");

    // The soak can outrun the heartbeat (k_misses · interval = 40 ms of
    // grace); wait for membership to converge on the kill before
    // asserting it registered. Bounded: a dead shard cannot pong, so
    // this settles within a few beats — 5 s means something is broken.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.live_shards() != 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "membership never noticed the kill"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Whole-cluster drain through the router: the two live shards ack,
    // the dead one is skipped.
    client.shutdown_server().expect("cluster shutdown");
    let stats = router.join();
    assert!(
        stats.went_down >= 1,
        "the kill must register in membership: {stats:?}"
    );
    // Every client attempt got exactly one reply: the successful ones
    // as relayed logits, each retry as its typed rejection.
    assert_eq!(stats.requests, requests as u64, "{stats:?}");
    assert_eq!(stats.shard_down, shard_down_retries as u64, "{stats:?}");
    assert_eq!(stats.relayed_errors, busy_retries as u64, "{stats:?}");

    for (i, shard) in shards.into_iter().enumerate() {
        let st = shard.join();
        if i != victim {
            assert!(st.requests > 0, "live shard {i} should have served: {st:?}");
        }
    }
}

#[test]
fn router_rejects_typed_and_retryable_when_every_shard_is_dead() {
    // One shard, killed before any traffic: once membership notices,
    // every inference answers ShardDown — typed, retryable, immediate.
    let shard = start_shard();
    let addr = shard.local_addr().to_string();
    let router = Router::start(RouterConfig {
        shards: vec![addr],
        heartbeat: Duration::from_millis(10),
        k_misses: 1,
        probe_timeout: Duration::from_millis(100),
        forward_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("router start");
    shard.kill();
    let _ = shard.join();

    let mut client = ServeClient::connect(&router.local_addr().to_string()).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(5))
        .expect("timeout");
    let image = vec![0.0f32; 64];
    match client.infer(0, &image) {
        Err(e) if e.is_retryable() => {}
        Err(qnn_serve::ServeError::Rejected { code, .. }) => {
            panic!("expected a retryable rejection, got {code:?}")
        }
        Err(e) => panic!("expected a typed rejection, got {e}"),
        Ok(_) => panic!("dead shard cannot answer"),
    }

    router.shutdown();
    let stats = router.join();
    assert!(stats.shard_down >= 1, "{stats:?}");
}

#[test]
fn rolling_reload_promotes_every_shard_and_a_bad_path_stops_the_roll() {
    let dir = std::env::temp_dir()
        .join("qnn-serve-rolling-reload")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let shards: Vec<Server> = (0..2).map(|_| start_shard()).collect();
    let shard_addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Router::start(RouterConfig {
        shards: shard_addrs,
        heartbeat: Duration::from_millis(20),
        k_misses: 2,
        probe_timeout: Duration::from_millis(200),
        forward_timeout: Duration::from_secs(5),
        ..RouterConfig::default()
    })
    .expect("router start");

    // A checkpoint path every shard can read (same filesystem here).
    let new_seed = 0x0F17u64;
    let path = dir.join("roll.qnnf");
    qnn_serve::BankCheckpoint::capture(new_seed)
        .unwrap()
        .save(&path)
        .unwrap();

    let mut c = ServeClient::connect(&router.local_addr().to_string()).expect("connect");
    c.set_read_timeout(Duration::from_secs(30)).unwrap();

    // One Reload at the edge rolls shard by shard: both shards end up
    // on version 2 with the new seed.
    let (version, seed) = c.reload(path.to_str().unwrap()).expect("rolling reload");
    assert_eq!((version, seed), (2, new_seed));
    for s in &shards {
        assert_eq!(s.model_version(), 2, "every shard must be promoted");
        assert_eq!(s.model_seed(), new_seed);
    }

    // Routed answers now carry the new bank's exact bits.
    let mut bank = ModelBank::build(new_seed).unwrap();
    let img = model::test_image(MODEL_SEED, 9, bank.input_len());
    let (_version, logits, _retries) = c.infer_retry(2, &img, 64).unwrap();
    assert_eq!(logits, bank.forward_single(2, &img).unwrap());

    // A path no shard can load refuses typed at the first shard and the
    // roll stops there — the cluster stays on the promoted version.
    let err = c
        .reload(dir.join("missing.qnnf").to_str().unwrap())
        .unwrap_err();
    assert!(
        matches!(
            err,
            qnn_serve::ServeError::Rejected {
                code: qnn_serve::ErrorCode::ReloadRejected,
                ..
            }
        ),
        "bad rolling reload must be typed, got {err:?}"
    );
    for s in &shards {
        assert_eq!(
            s.model_version(),
            2,
            "a refused roll must not regress shards"
        );
    }

    router.shutdown();
    let stats = router.join();
    assert_eq!(stats.reloads, 1, "only the good roll completes");
    for s in shards {
        s.shutdown();
        s.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
