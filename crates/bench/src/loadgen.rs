//! `serve-soak` — the load generator behind the serve-soak,
//! cluster-soak, reload-soak and reload-chaos CI stages.
//!
//! Client threads stripe the requests between them, cycling every
//! request through all Table III precisions, and check every response
//! **bit for bit** against a local single-shot forward on the bank of
//! the model version that answered it: the `InferOk` tag byte carries
//! `version % 256`, and a router relays a shard's frame verbatim, so the
//! same check works through one. Retryable rejections (`Busy`
//! backpressure, `ShardDown` failover) are retried after the hinted
//! delay and counted, never excused into wrong answers. A hang is a
//! failure: [`ServeClient::connect`] sets a 30 s read timeout.
//!
//! One control thread adds the chaos. It is gated on *completed*
//! requests, not on time, so each event lands at the same place in the
//! request stream on any machine:
//! - With `cycles > 0` it authors a bank checkpoint per cycle (seed
//!   [`cycle_seed`]) and hot-reloads the server to it once
//!   `k/(cycles+1)` of the requests are done.
//! - With `kill_pid` and cycles, it `SIGKILL`s that process (the server)
//!   right after sending one seed-chosen cycle's reload frame, inside the
//!   load/canary/persist/swap window; [`verify`] then probes the
//!   restarted server for a complete bank.
//! - With `kill_pid` and no cycles, it `SIGKILL`s that process (a shard
//!   behind the router at `addr`) at a seed-derived point in the middle
//!   half of the soak.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qnn_serve::model::test_image;
use qnn_serve::{
    BankCheckpoint, Frame, ModelBank, Retries, ServeClient, MODEL_SEED, NUM_PRECISIONS,
};
use qnn_tensor::rng::derive_seed;

/// Retry budget per request: generous, because a retry loop that gives
/// up during a failover window would fail the soak for the wrong reason.
const MAX_RETRIES: usize = 10_000;

/// Seed domain for per-cycle checkpoint seeds.
const CYCLE_DOMAIN: u64 = 0x7E10AD;

/// Seed domain for the kill schedule (the kill cycle or the kill point).
const KILL_DOMAIN: u64 = 0xC1A0;

/// The checkpoint seed for reload cycle `k` (cycle 0 is the base seed
/// the server booted with). Pure function of the base seed, so
/// [`verify`] can reconstruct the full candidate set after a crash.
pub fn cycle_seed(base: u64, k: usize) -> u64 {
    if k == 0 {
        base
    } else {
        derive_seed(base, CYCLE_DOMAIN + k as u64)
    }
}

/// Load-generator knobs, filled from `qnn-bench serve-soak` flags.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Server or router address (usually read from its `--port-file`).
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total requests, striped across the client threads.
    pub requests: usize,
    /// Base model-bank seed; must match the server's. Also seeds the
    /// images, the reload checkpoints and the kill schedule.
    pub seed: u64,
    /// Live reload cycles to run mid-soak (0: none).
    pub cycles: usize,
    /// Directory the per-cycle checkpoint files are written to.
    pub dir: PathBuf,
    /// OS pid to `SIGKILL` mid-soak: the server itself when cycles run,
    /// otherwise a shard worker behind the router at `addr`.
    pub kill_pid: Option<u32>,
    /// Send a `Shutdown` frame when done; through a router it drains the
    /// whole cluster.
    pub shutdown: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            addr: String::new(),
            clients: 4,
            requests: 256,
            seed: MODEL_SEED,
            cycles: 0,
            dir: std::env::temp_dir().join(format!("qnn-soak-{}", std::process::id())),
            kill_pid: None,
            shutdown: false,
        }
    }
}

impl SoakConfig {
    /// The cycle whose reload the kill rides on: seed-derived, never
    /// cycle 0 (there must be a version to roll back to).
    pub fn kill_cycle(&self) -> usize {
        1 + (derive_seed(self.seed, KILL_DOMAIN) % self.cycles.max(1) as u64) as usize
    }

    /// The completed-request count a kill without cycles waits for: a
    /// seed-derived point in the middle half of the soak, never the very
    /// first or last request.
    pub fn kill_point(&self) -> usize {
        let quarter = (self.requests / 4).max(1);
        let span = (self.requests / 2).max(1) as u64;
        let point = quarter + (derive_seed(self.seed, KILL_DOMAIN) % span) as usize;
        point.min(self.requests.saturating_sub(1))
    }

    /// True when the kill rides a reload, so it takes down the clients'
    /// own server: what that server leaves unanswered is aborted, not
    /// failed. A shard killed behind a router excuses nothing.
    fn kill_rides_reload(&self) -> bool {
        self.kill_pid.is_some() && self.cycles > 0
    }
}

/// What one soak run did.
#[derive(Debug, Default)]
pub struct SoakOutcome {
    /// Responses verified bit-identical to their version's local bank.
    pub verified: usize,
    /// Requests left unanswered after a kill that rode a reload; zero
    /// otherwise.
    pub aborted_after_kill: usize,
    /// `Busy` retries across all threads (backpressure engaging).
    pub busy_retries: usize,
    /// `ShardDown` retries across all threads (failover windows where a
    /// request's whole candidate set was dead).
    pub shard_down_retries: usize,
    /// Reload cycles the server promoted.
    pub promoted: usize,
    /// Distinct model versions observed in responses.
    pub versions_seen: usize,
    /// Whether the kill fired.
    pub killed: bool,
    /// Human-readable failures; empty iff nothing went wrong.
    pub failures: Vec<String>,
}

impl SoakOutcome {
    /// The pass rule: no failures; the kill fired whenever one was asked
    /// for; every request verified, except those a kill riding a reload
    /// left unanswered; and with cycles but no kill, every cycle promoted
    /// and more than one version actually observed.
    pub fn passed(&self, cfg: &SoakConfig) -> bool {
        self.failures.is_empty()
            && self.verified + self.aborted_after_kill == cfg.requests
            && (cfg.kill_pid.is_none() || self.killed)
            && (cfg.cycles == 0
                || cfg.kill_pid.is_some()
                || (self.promoted == cfg.cycles && self.versions_seen > 1))
    }
}

/// Precision tag for the `i`-th request: round-robin through the whole
/// Table III sweep so every precision is exercised.
fn tag_for(i: usize) -> u8 {
    (i % NUM_PRECISIONS as usize) as u8
}

/// State the client threads and the control thread share.
struct Shared {
    /// `InferOk` version byte → bank seed. The control thread records a
    /// cycle's version before sending its reload, so no response can
    /// carry a version the ledger has not learnt yet.
    ledger: Mutex<HashMap<u8, u64>>,
    /// Requests completed, verified or failed: the control thread's clock.
    done: AtomicUsize,
    /// Set once every client thread has stopped.
    finished: AtomicBool,
    /// Set just before the kill is sent.
    killed: AtomicBool,
}

impl Shared {
    /// Blocks until `gate` requests have completed; false if the clients
    /// stopped first.
    fn wait_for(&self, gate: usize) -> bool {
        while self.done.load(Ordering::SeqCst) < gate {
            if self.finished.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Marks the kill as fired, then `SIGKILL`s `pid`. The flag goes
    /// first: the victim can die, and clients see broken pipes, before
    /// `kill` returns.
    fn sigkill(&self, pid: u32, when: &str) -> Result<(), String> {
        self.killed.store(true, Ordering::SeqCst);
        match std::process::Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
        {
            Ok(s) if s.success() => {
                println!("serve-soak: SIGKILL delivered to pid {pid} {when}");
                Ok(())
            }
            Ok(s) => Err(format!("kill -9 {pid} exited with {s}")),
            Err(e) => Err(format!("kill -9 {pid}: {e}")),
        }
    }
}

/// One client thread's share of the outcome.
#[derive(Default)]
struct Tally {
    verified: usize,
    aborted: usize,
    retries: Retries,
    versions: BTreeSet<u8>,
    failures: Vec<String>,
}

/// Client thread `t`: sends requests `t, t + clients, …` and checks each
/// response against the bank of the version that answered it.
fn client(t: usize, cfg: &SoakConfig, shared: &Shared, input_len: usize) -> Tally {
    let mut tally = Tally::default();
    let mut client = match ServeClient::connect(&cfg.addr) {
        Ok(c) => c,
        Err(e) => {
            tally.failures.push(format!("thread {t}: connect: {e}"));
            return tally;
        }
    };
    // Version byte → local bank of that version, built on first sight.
    let mut banks: HashMap<u8, ModelBank> = HashMap::new();
    let stride = cfg.clients.max(1);
    for i in (t..cfg.requests).step_by(stride) {
        let tag = tag_for(i);
        let image = test_image(cfg.seed, i as u64, input_len);
        match client.infer_retry(tag, &image, MAX_RETRIES) {
            Ok((version, logits, retries)) => {
                tally.retries.busy += retries.busy;
                tally.retries.shard_down += retries.shard_down;
                tally.versions.insert(version);
                match check(&mut banks, shared, version, tag, &image, &logits) {
                    Ok(()) => tally.verified += 1,
                    Err(why) => tally
                        .failures
                        .push(format!("request {i} (tag {tag}): {why}")),
                }
            }
            Err(_) if cfg.kill_rides_reload() && shared.killed.load(Ordering::SeqCst) => {
                // The server is gone by design: everything unanswered is
                // aborted, not failed.
                tally.aborted = (i..cfg.requests).step_by(stride).count();
                break;
            }
            Err(e) => tally.failures.push(format!("request {i} (tag {tag}): {e}")),
        }
        shared.done.fetch_add(1, Ordering::SeqCst);
    }
    tally
}

/// Compares one response bit for bit with a local forward on the bank
/// of the version that answered it.
fn check(
    banks: &mut HashMap<u8, ModelBank>,
    shared: &Shared,
    version: u8,
    tag: u8,
    image: &[f32],
    logits: &[f32],
) -> Result<(), String> {
    let bank = match banks.entry(version) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            let seed = shared
                .ledger
                .lock()
                .expect("ledger mutex poisoned by a panicked soak thread")
                .get(&version)
                .copied()
                .ok_or_else(|| format!("version byte {version} was never promoted by this soak"))?;
            e.insert(
                ModelBank::build(seed)
                    .map_err(|err| format!("local bank for version {version}: {err}"))?,
            )
        }
    };
    let expect = bank
        .forward_single(tag, image)
        .map_err(|e| format!("local forward: {e}"))?;
    if expect
        .iter()
        .map(|x| x.to_bits())
        .eq(logits.iter().map(|x| x.to_bits()))
    {
        Ok(())
    } else {
        Err(format!(
            "logits differ from the version-{version} bank the server answered with"
        ))
    }
}

/// The control thread: runs the reload cycles and the kill, each once
/// its share of the requests has completed. Returns the cycles promoted
/// and any failures.
fn control(cfg: &SoakConfig, shared: &Shared) -> (usize, Vec<String>) {
    let mut failures = Vec::new();
    if cfg.cycles == 0 {
        if let Some(pid) = cfg.kill_pid {
            let point = cfg.kill_point();
            println!("serve-soak: will SIGKILL pid {pid} after {point} completed requests");
            if shared.wait_for(point) {
                if let Err(e) = shared.sigkill(pid, &format!("after {point} completed requests")) {
                    failures.push(e);
                }
            }
        }
        return (0, failures);
    }
    let mut client = match ServeClient::connect(&cfg.addr) {
        Ok(c) => c,
        Err(e) => return (0, vec![format!("control: connect: {e}")]),
    };
    let mut promoted = 0;
    for k in 1..=cfg.cycles {
        if !shared.wait_for(k * cfg.requests / (cfg.cycles + 1)) {
            failures.push(format!("cycle {k}: soak ended before its gate"));
            break;
        }
        let seed = cycle_seed(cfg.seed, k);
        let path = cfg.dir.join(format!("cycle-{k}.qnnf"));
        if let Err(e) = BankCheckpoint::capture(seed).and_then(|cp| cp.save(&path)) {
            failures.push(format!("cycle {k}: checkpoint: {e}"));
            continue;
        }
        let path = path.display().to_string();
        // The server starts at version 1 and adds one per promoted reload.
        let next = (promoted + 2) as u32;
        shared
            .ledger
            .lock()
            .expect("ledger mutex poisoned by a panicked soak thread")
            .insert((next & 0xFF) as u8, seed);
        if let Some(pid) = cfg.kill_pid.filter(|_| k == cfg.kill_cycle()) {
            // Get the reload in flight, then kill the server under it:
            // no ack will come.
            let _ = client.send_raw(&Frame::reload(u64::MAX, &path).encode());
            if let Err(e) = shared.sigkill(pid, &format!("mid-reload (cycle {k})")) {
                failures.push(e);
            }
            break;
        }
        match client.reload(&path) {
            Ok((version, _)) if version == next => {
                promoted += 1;
                println!(
                    "serve-soak: cycle {k} promoted as version {version} (seed {seed:#x}) \
                     at {} completed",
                    shared.done.load(Ordering::SeqCst)
                );
            }
            Ok((version, _)) => {
                failures.push(format!(
                    "cycle {k}: promoted as version {version}, expected {next}"
                ));
                break;
            }
            Err(e) => failures.push(format!("cycle {k}: reload: {e}")),
        }
    }
    (promoted, failures)
}

/// Runs the soak. Prints a summary; returns the outcome for the caller
/// to turn into an exit code.
///
/// # Errors
///
/// A `String` for setup failures (model bank, checkpoint dir);
/// per-request and per-cycle failures land in
/// [`SoakOutcome::failures`] instead, so one bad response does not mask
/// the rest of the report.
pub fn run(cfg: &SoakConfig) -> Result<SoakOutcome, String> {
    let started = Instant::now();
    let input_len = ModelBank::build(cfg.seed)
        .map_err(|e| format!("model bank: {e}"))?
        .input_len();
    if cfg.cycles > 0 {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    }
    println!(
        "serve-soak: {} request(s) x {} precision(s), {} client thread(s), \
         {} live reload cycle(s) -> {}",
        cfg.requests, NUM_PRECISIONS, cfg.clients, cfg.cycles, cfg.addr
    );

    let shared = Shared {
        ledger: Mutex::new(HashMap::from([(1, cfg.seed)])),
        done: AtomicUsize::new(0),
        finished: AtomicBool::new(false),
        killed: AtomicBool::new(false),
    };
    let mut outcome = SoakOutcome::default();
    let mut versions = BTreeSet::new();
    std::thread::scope(|s| {
        let shared = &shared;
        let control = s.spawn(|| control(cfg, shared));
        let clients: Vec<_> = (0..cfg.clients.max(1))
            .map(|t| s.spawn(move || client(t, cfg, shared, input_len)))
            .collect();
        for (t, th) in clients.into_iter().enumerate() {
            match th.join() {
                Ok(tally) => {
                    outcome.verified += tally.verified;
                    outcome.aborted_after_kill += tally.aborted;
                    outcome.busy_retries += tally.retries.busy;
                    outcome.shard_down_retries += tally.retries.shard_down;
                    versions.extend(tally.versions);
                    outcome.failures.extend(tally.failures);
                }
                Err(_) => outcome.failures.push(format!("thread {t} panicked")),
            }
        }
        // Unstick the control thread if the clients stopped before its
        // next gate.
        shared.finished.store(true, Ordering::SeqCst);
        match control.join() {
            Ok((promoted, failures)) => {
                outcome.promoted = promoted;
                outcome.failures.extend(failures);
            }
            Err(_) => outcome.failures.push("control thread panicked".to_string()),
        }
    });
    outcome.versions_seen = versions.len();
    outcome.killed = shared.killed.load(Ordering::SeqCst);
    if cfg.kill_pid.is_some() && !outcome.killed {
        outcome
            .failures
            .push("the seeded kill never fired inside the soak".to_string());
    }

    if cfg.shutdown && !(cfg.kill_rides_reload() && outcome.killed) {
        match ServeClient::connect(&cfg.addr).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => println!("serve-soak: drained and shut down"),
            Err(e) => outcome.failures.push(format!("shutdown: {e}")),
        }
    }

    let secs = started.elapsed().as_secs_f64();
    println!(
        "serve-soak: {}/{} bit-identical across version(s) {:?}, {} reload(s) promoted, \
         {} busy / {} shard-down retries, {} aborted after the kill, {:.2}s \
         ({:.0} images/sec achieved)",
        outcome.verified,
        cfg.requests,
        versions,
        outcome.promoted,
        outcome.busy_retries,
        outcome.shard_down_retries,
        outcome.aborted_after_kill,
        secs,
        if secs > 0.0 {
            outcome.verified as f64 / secs
        } else {
            0.0
        },
    );
    for f in &outcome.failures {
        eprintln!("serve-soak: FAIL: {f}");
    }
    Ok(outcome)
}

/// `reload-verify` — the post-crash probe: proves a restarted server is
/// serving exactly one *complete* version out of `candidates` (seed
/// values), bit-identically across every precision tag. A torn bank —
/// some tags answering one version, some another, or logits matching no
/// candidate — fails. Returns the matching seed.
///
/// # Errors
///
/// A `String` naming what went wrong: no candidate matched, more than
/// one matched (candidate seeds collide — a config error), a mixed
/// match across tags, or transport trouble.
pub fn verify(addr: &str, candidates: &[u64]) -> Result<u64, String> {
    if candidates.is_empty() {
        return Err("reload-verify: no candidate seeds given".to_string());
    }
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("reload-verify: connect: {e}"))?;
    let mut banks: Vec<(u64, ModelBank)> = Vec::with_capacity(candidates.len());
    for &seed in candidates {
        banks.push((
            seed,
            ModelBank::build(seed).map_err(|e| format!("bank {seed:#x}: {e}"))?,
        ));
    }
    let input_len = banks[0].1.input_len();
    // Still-matching candidates; probes across every tag narrow it.
    let mut alive: Vec<bool> = vec![true; banks.len()];
    for tag in 0..NUM_PRECISIONS {
        for probe in 0..2u64 {
            let image = test_image(0xFE11F, u64::from(tag) * 16 + probe, input_len);
            let got = client
                .infer(tag, &image)
                .map_err(|e| format!("probe tag {tag}: {e}"))?;
            let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            for (i, (_, bank)) in banks.iter_mut().enumerate() {
                if !alive[i] {
                    continue;
                }
                let local = bank
                    .forward_single(tag, &image)
                    .map_err(|e| format!("local forward: {e}"))?;
                let local_bits: Vec<u32> = local.iter().map(|x| x.to_bits()).collect();
                if local_bits != got_bits {
                    alive[i] = false;
                }
            }
        }
    }
    let matches: Vec<u64> = banks
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|((s, _), _)| *s)
        .collect();
    match matches.as_slice() {
        [seed] => {
            println!(
                "reload-verify: server at {addr} serves seed {seed:#x} completely \
                 and bit-identically across all {NUM_PRECISIONS} precisions"
            );
            Ok(*seed)
        }
        [] => Err(format!(
            "reload-verify: server matches NO candidate ({candidates:#x?}) — \
             torn or unknown bank"
        )),
        many => Err(format!(
            "reload-verify: server matches {} candidates {many:#x?} — \
             candidate seeds collide",
            many.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_serve::cluster::{Router, RouterConfig};
    use qnn_serve::{ServeConfig, Server};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("qnn-loadgen-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn cycle_seeds_are_distinct_and_pure() {
        let base = 7u64;
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..=12 {
            assert_eq!(cycle_seed(base, k), cycle_seed(base, k), "pure");
            assert!(seen.insert(cycle_seed(base, k)), "distinct at k={k}");
        }
        assert_eq!(cycle_seed(base, 0), base, "cycle 0 is the base seed");
    }

    #[test]
    fn kill_cycle_is_seeded_and_never_zero() {
        let cfg = SoakConfig {
            cycles: 8,
            ..SoakConfig::default()
        };
        let k = cfg.kill_cycle();
        assert_eq!(k, cfg.kill_cycle(), "pure function of the seed");
        assert!((1..=8).contains(&k), "got {k}");
    }

    #[test]
    fn kill_point_is_seeded_and_mid_soak() {
        let cfg = SoakConfig {
            requests: 256,
            ..SoakConfig::default()
        };
        let p = cfg.kill_point();
        assert_eq!(p, cfg.kill_point(), "pure function of the seed");
        assert!((64..192).contains(&p), "middle half, got {p}");
    }

    #[test]
    fn mini_soak_against_in_process_server() {
        let server = Server::start(ServeConfig {
            // A small queue so the soak exercises the Busy-retry path at
            // least plausibly, without making the test slow.
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            queue_cap: 8,
            ..ServeConfig::default()
        })
        .unwrap();
        let cfg = SoakConfig {
            addr: server.local_addr().to_string(),
            clients: 3,
            requests: 21,
            shutdown: true,
            ..SoakConfig::default()
        };
        let outcome = run(&cfg).unwrap();
        assert!(outcome.passed(&cfg), "failures: {:?}", outcome.failures);
        let stats = server.join();
        // Retries mean a request may be *submitted* more than once, but
        // the engine answers each exactly once on its successful pass.
        assert_eq!(stats.requests, 21);
        assert_eq!(stats.rejected_busy as usize, outcome.busy_retries);
    }

    #[test]
    fn mini_cluster_soak_against_in_process_cluster() {
        // No OS-level kill here (that needs real processes — the CI
        // stage covers it); this pins the striped verifier, the retry
        // accounting, and the whole-cluster drain against a real router.
        let shards: Vec<Server> = (0..2)
            .map(|_| {
                Server::start(ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    ..ServeConfig::default()
                })
                .unwrap()
            })
            .collect();
        let router = Router::start(RouterConfig {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .unwrap();
        let cfg = SoakConfig {
            addr: router.local_addr().to_string(),
            clients: 3,
            requests: 21,
            shutdown: true,
            ..SoakConfig::default()
        };
        let outcome = run(&cfg).unwrap();
        assert!(outcome.passed(&cfg), "failures: {:?}", outcome.failures);
        assert!(!outcome.killed);
        let stats = router.join();
        assert_eq!(stats.requests, 21);
        let served: u64 = shards.into_iter().map(|s| s.join().requests).sum();
        assert_eq!(served, 21, "every request served by exactly one shard");
    }

    #[test]
    fn mini_reload_soak_against_in_process_server() {
        // The whole loop in miniature: 3 clients, 2 live reload cycles,
        // every response verified against the version that accepted it.
        let dir = temp_dir("mini");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            seed: 11,
            ..ServeConfig::default()
        })
        .unwrap();
        let cfg = SoakConfig {
            addr: server.local_addr().to_string(),
            clients: 3,
            requests: 48,
            cycles: 2,
            dir: dir.clone(),
            seed: 11,
            shutdown: true,
            kill_pid: None,
        };
        let outcome = run(&cfg).unwrap();
        assert!(outcome.passed(&cfg), "failures: {:?}", outcome.failures);
        assert_eq!(outcome.promoted, 2);
        assert!(outcome.versions_seen >= 2, "swap must be visible mid-soak");
        let stats = server.join();
        assert_eq!(stats.requests, 48);
        assert_eq!(stats.reloads_promoted, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A soak whose seed differs from the server's, with its kill aimed
    /// at a harmless child process: `run` must return within a bounded
    /// wait and fail, naming the mismatched responses.
    fn mismatched_soak_with_a_kill(cycles: usize) -> Vec<String> {
        let dir = temp_dir(&format!("mismatch-{cycles}"));
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            seed: 11,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut victim = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        let cfg = SoakConfig {
            addr: server.local_addr().to_string(),
            clients: 2,
            requests: 14,
            seed: 12,
            cycles,
            dir: dir.clone(),
            kill_pid: Some(victim.id()),
            shutdown: false,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let soak = std::thread::spawn(move || {
            let outcome = run(&cfg).unwrap();
            tx.send((outcome.passed(&cfg), outcome)).unwrap();
        });
        let (passed, outcome) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("run() must return, not hang");
        soak.join().unwrap();
        assert!(!passed, "a seed mismatch must fail the soak");
        assert!(outcome.killed, "the kill still fires on failed requests");
        assert!(
            outcome.failures.iter().any(|f| f.contains("logits differ")),
            "failures must name the mismatches: {:?}",
            outcome.failures
        );
        let _ = victim.kill();
        let _ = victim.wait();
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
        outcome.failures
    }

    #[test]
    fn mismatched_soak_with_a_shard_kill_returns_and_fails() {
        let failures = mismatched_soak_with_a_kill(0);
        // Every request fails, so every precision's check must have run.
        for tag in 0..NUM_PRECISIONS {
            let named = format!("(tag {tag}): logits differ");
            assert!(
                failures.iter().any(|f| f.contains(&named)),
                "no mismatch named for tag {tag}: {failures:?}"
            );
        }
    }

    #[test]
    fn mismatched_soak_with_a_reload_kill_returns_and_fails() {
        mismatched_soak_with_a_kill(2);
    }

    #[test]
    fn verify_finds_the_live_seed_among_candidates() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            seed: 21,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let found = verify(&addr, &[19, 21, 23]).unwrap();
        assert_eq!(found, 21);
        // A candidate set that excludes the live seed is a typed miss.
        let err = verify(&addr, &[19, 23]).unwrap_err();
        assert!(err.contains("NO candidate"), "{err}");
        let mut c = ServeClient::connect(&addr).unwrap();
        c.shutdown_server().unwrap();
        server.join();
    }
}
