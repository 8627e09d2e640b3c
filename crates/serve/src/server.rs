//! The server: an accept loop, one reader + one writer thread per
//! connection, and an inference engine draining the batching queue with
//! a bounded fan-out of parallel forwards.
//!
//! ## Thread structure
//!
//! * **accept** — blocks in `TcpListener::accept`, spawns a handler per
//!   connection, exits when the stop flag rises (woken by a loopback
//!   self-connect from [`Server::join`] or [`Server::kill`]).
//! * **handler** (per connection) — decodes frames with a 50 ms poll so
//!   it can observe the stop flag, validates them, and enqueues
//!   [`Request`]s. Inference payloads decode straight into recycled
//!   [`Arena`] slabs — steady-state request intake allocates nothing.
//!   Malformed input answers with a typed error frame where the stream
//!   is still answerable, and never panics the server.
//! * **writer** (per connection) — owns the write half; everything sent
//!   to a connection (engine responses and handler rejections alike)
//!   funnels through one mpsc channel, so frames never interleave
//!   mid-write.
//! * **engine** — drains batches, groups them by precision tag, splits
//!   each group into at most `engine_threads` contiguous sub-batches,
//!   and fans the stacked Eval forwards out over
//!   [`qnn_tensor::par::map_capped`] against a pool of identical
//!   [`ModelBank`] replicas. Each sub-batch's logits depend only on
//!   `(seed, tag, images)` — never on which replica or thread ran it —
//!   so responses stay bit-identical to single-shot at any
//!   `engine_threads` (and any `QNN_THREADS`: engine workers are pool
//!   workers, so kernels inside them run serial rather than nesting).
//!   With `engine_threads = 1` the fan-out collapses to the plain
//!   sequential loop and kernels keep their own data-parallelism.
//!
//! ## Graceful shutdown
//!
//! A `Shutdown` frame (or [`Server::shutdown`]) closes the queue: new
//! work is refused with `ShuttingDown`, the engine drains every request
//! already accepted and acknowledges each shutdown requester with
//! `ShutdownAck` *after* the drain. [`Server::join`] waits for the
//! engine, then raises the stop flag, wakes the accept loop, reaps every
//! thread and returns the run's [`ServeStats`]. Until `join` raises it,
//! the accept loop keeps serving connections, so a client whose connect
//! completed before the shutdown is refused with `ShuttingDown`, never
//! reset.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qnn_tensor::par;
use qnn_tensor::Tensor;
use qnn_trace::Histogram;

use crate::arena::{Arena, Slab};
use crate::lifecycle::{canary_gate, BankCheckpoint, ReloadError};
use crate::model::{ModelBank, MODEL_SEED, NUM_PRECISIONS};
use crate::proto::{self, ErrorCode, Frame, FrameKind, ProtoError, HEADER_LEN};
use crate::queue::{self, BatchQueue, PushError, Request};
use crate::ServeError;

/// Tuning knobs for a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (report it via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Flush a batch as soon as this many requests are waiting.
    pub max_batch: usize,
    /// ... or when the oldest request has waited this long.
    pub max_wait: Duration,
    /// Queue capacity; pushes beyond it are rejected with `Busy`.
    pub queue_cap: usize,
    /// Model-bank seed (both ends of a soak run must agree).
    pub seed: u64,
    /// Maximum parallel engine forwards per batch (`--engine-threads`).
    /// Responses are bit-identical at any setting; 1 restores the
    /// sequential engine.
    pub engine_threads: usize,
    /// Durable model-bank checkpoint path. When set, startup loads the
    /// bank from this file (falling back to its `.bak` rotation if the
    /// primary is corrupt — surfaced as the `serve.checkpoint.fallback`
    /// counter), writing an initial seed-derived checkpoint if neither
    /// exists; every promoted hot-reload is persisted here *before* the
    /// in-memory swap, so a SIGKILL mid-swap always restarts into a
    /// complete old or new bank. `None` serves the seed bank with no
    /// durability.
    pub checkpoint: Option<PathBuf>,
    /// Canary floor: minimum fraction of seeded probe forwards whose
    /// top-1 class must agree with the live bank before a reload is
    /// promoted. `0.0` (the default) keeps the integrity checks —
    /// finite logits, batched ≡ single-shot, reproducibility — but
    /// accepts any accuracy drift; `1.0` demands full probe agreement.
    pub canary_min_agree: f32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 16,
            max_wait: Duration::from_micros(2000),
            queue_cap: 256,
            seed: MODEL_SEED,
            engine_threads: 1,
            checkpoint: None,
            canary_min_agree: 0.0,
        }
    }
}

/// What a finished server run did, returned by [`Server::join`].
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Inference requests answered with logits.
    pub requests: u64,
    /// Batches flushed through the engine.
    pub batches: u64,
    /// Requests rejected with `Busy` (backpressure).
    pub rejected_busy: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Hot-reloads canary-approved and promoted.
    pub reloads_promoted: u64,
    /// Hot-reloads refused (`ReloadRejected`) — the previous version
    /// kept serving through every one of these.
    pub reloads_rejected: u64,
    /// 1 when startup recovered the bank from the checkpoint's `.bak`
    /// rotation because the primary was corrupt or missing.
    pub checkpoint_fallback: u64,
    /// Per-request queue→response latency, microseconds.
    pub latency_us: Histogram,
    /// Requests per flushed batch.
    pub batch_size: Histogram,
}

impl ServeStats {
    /// A human-readable run summary (printed by `qnn serve` at exit).
    pub fn render(&self) -> String {
        format!(
            "served {} request(s) in {} batch(es) over {} connection(s); \
             {} busy rejection(s); {} reload(s) promoted, {} rejected\n\
             batch size  mean {:.2}  p50 {:.0}  p99 {:.0}  max {:.0}\n\
             latency us  mean {:.0}  p50 {:.0}  p99 {:.0}  max {:.0}\n",
            self.requests,
            self.batches,
            self.connections,
            self.rejected_busy,
            self.reloads_promoted,
            self.reloads_rejected,
            self.batch_size.mean(),
            self.batch_size.quantile(0.5),
            self.batch_size.quantile(0.99),
            if self.batch_size.count == 0 {
                0.0
            } else {
                self.batch_size.max
            },
            self.latency_us.mean(),
            self.latency_us.quantile(0.5),
            self.latency_us.quantile(0.99),
            if self.latency_us.count == 0 {
                0.0
            } else {
                self.latency_us.max
            },
        )
    }
}

/// A version-tagged set of identical [`ModelBank`] replicas — what one
/// epoch of the model lifecycle serves.
///
/// The live set lives behind `Ctl::live`; every accepted request pins
/// its own `Arc` clone, so a hot-reload swap is a pointer replacement:
/// queued and in-flight requests keep computing on the set that
/// admitted them, new requests pick up the new set, and the old set's
/// replicas drop (emitting `serve.bank.reclaimed`) exactly when the
/// last pinned request finishes.
pub struct BankSet {
    /// Monotonically increasing model version; 1 at startup. Responses
    /// stamp `version % 256` into the `InferOk` tag byte.
    pub version: u32,
    /// The seed this bank was built and calibrated from.
    pub seed: u64,
    /// Identical replicas, one per engine thread.
    pub(crate) banks: Vec<Mutex<ModelBank>>,
}

impl std::fmt::Debug for BankSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BankSet")
            .field("version", &self.version)
            .field("seed", &self.seed)
            .field("replicas", &self.banks.len())
            .finish()
    }
}

impl BankSet {
    fn build(
        version: u32,
        seed: u64,
        state: Option<&[Tensor]>,
        replicas: usize,
    ) -> Result<BankSet, ReloadError> {
        let mut banks = Vec::with_capacity(replicas.max(1));
        for _ in 0..replicas.max(1) {
            banks.push(Mutex::new(ModelBank::build_from(seed, state).map_err(
                |e| ReloadError::Build {
                    detail: e.to_string(),
                },
            )?));
        }
        Ok(BankSet {
            version,
            seed,
            banks,
        })
    }

    #[cfg(test)]
    pub(crate) fn test_stub() -> Arc<BankSet> {
        Arc::new(BankSet {
            version: 1,
            seed: 0,
            banks: Vec::new(),
        })
    }
}

impl Drop for BankSet {
    fn drop(&mut self) {
        // The last pinned request just drained: this version's replicas
        // are reclaimed here, never mid-flight.
        qnn_trace::counter!("serve.bank.reclaimed", 1);
    }
}

/// Shared control state.
struct Ctl {
    queue: BatchQueue,
    /// The live model epoch. Handlers pin a clone per accepted request;
    /// [`try_reload`] replaces it under the lock after the canary gate
    /// and the durable persist.
    live: Mutex<Arc<BankSet>>,
    /// Single-flight reload guard: a second `Reload` while one is in
    /// progress is refused with [`ReloadError::InFlight`].
    reload: Mutex<()>,
    /// Replica count for newly promoted bank sets (= engine threads).
    replicas: usize,
    /// Canary agreement floor (see `ServeConfig::canary_min_agree`).
    canary_min_agree: f32,
    /// Durable checkpoint path promoted reloads persist to.
    checkpoint: Option<PathBuf>,
    /// Reloads promoted (engine folds into stats at exit).
    reloads_promoted: AtomicU64,
    /// Reloads refused.
    reloads_rejected: AtomicU64,
    /// 1 when startup used the `.bak` rotation.
    checkpoint_fallback: AtomicU64,
    /// Everything exits when this rises (set by the engine after drain).
    stop: AtomicBool,
    /// Raised only by [`Server::kill`]: handlers abandon their peers
    /// between frames even when traffic keeps the socket hot. Graceful
    /// shutdown leaves this low so handlers keep answering typed
    /// refusals (and heartbeats) until their peer hangs up.
    killed: AtomicBool,
    /// Connections that asked for shutdown, acked after the drain.
    shutdown_waiters: Mutex<Vec<(u64, mpsc::Sender<Frame>)>>,
    /// Busy rejections (handlers increment, engine folds into stats).
    rejected_busy: AtomicU64,
    /// Accepted connections.
    connections: AtomicU64,
    /// Expected image length in floats, for request validation.
    input_len: usize,
    /// Retry hint handed out with `Busy` rejections, microseconds. The
    /// engine re-derives it after every batch from the queue depth and
    /// its recent drain rate ([`queue::retry_hint_us`]); handlers read
    /// the latest value when rejecting.
    retry_hint_us: AtomicU32,
    /// Floor for the adaptive hint (the engine's batch window).
    hint_floor_us: u32,
    /// Recycled-slab pool every connection decodes images into.
    arena: Arena,
}

impl Ctl {
    fn begin_shutdown(&self) {
        self.queue.close();
    }
}

/// A running server; dropping it does *not* stop it — call
/// [`shutdown`](Server::shutdown) + [`join`](Server::join) (or have a
/// client send a `Shutdown` frame).
pub struct Server {
    addr: SocketAddr,
    ctl: Arc<Ctl>,
    engine: Option<JoinHandle<ServeStats>>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, builds the model bank, and spawns the thread structure.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on bind failure, and model-bank construction
    /// errors flattened into [`ServeError::Io`].
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        // Resolve the startup bank: a durable checkpoint when configured
        // (with `.bak` rescue for a corrupt primary), else the seed.
        let mut checkpoint_fallback = 0u64;
        let (seed, state) = match &cfg.checkpoint {
            Some(path) => {
                let bak = qnn_nn::checkpoint::bak_path(path);
                if path.exists() || bak.exists() {
                    let (cp, used_fallback) = BankCheckpoint::load_latest(path)
                        .map_err(|e| ServeError::Io(format!("checkpoint {path:?}: {e}")))?;
                    if used_fallback {
                        checkpoint_fallback = 1;
                        qnn_trace::counter!("serve.checkpoint.fallback", 1);
                        eprintln!(
                            "warning: checkpoint {path:?} corrupt or missing; \
                             recovered from {bak:?}"
                        );
                    }
                    (cp.seed, Some(cp.state))
                } else {
                    // First boot: make the seed bank durable so later
                    // reloads have something to rotate.
                    let cp = BankCheckpoint::capture(cfg.seed)
                        .map_err(|e| ServeError::Io(format!("model bank: {e}")))?;
                    cp.save(path)
                        .map_err(|e| ServeError::Io(format!("checkpoint {path:?}: {e}")))?;
                    (cp.seed, Some(cp.state))
                }
            }
            None => (cfg.seed, None),
        };
        // One identical bank replica per engine thread — all built from
        // the same seed + weights, so any replica answers any request
        // with the same bits.
        let replicas = cfg.engine_threads.max(1);
        let bank_set = BankSet::build(1, seed, state.as_deref(), replicas)
            .map_err(|e| ServeError::Io(format!("model bank: {e}")))?;
        let input_len = bank_set.banks[0].lock().unwrap().input_len();
        qnn_trace::gauge!("serve.model.version", 1.0);
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| ServeError::io(&e))?;
        let addr = listener.local_addr().map_err(|e| ServeError::io(&e))?;
        let hint_floor_us = (cfg.max_wait.as_micros() as u32).max(100);
        let ctl = Arc::new(Ctl {
            queue: BatchQueue::new(cfg.queue_cap),
            live: Mutex::new(Arc::new(bank_set)),
            reload: Mutex::new(()),
            replicas,
            canary_min_agree: cfg.canary_min_agree,
            checkpoint: cfg.checkpoint.clone(),
            reloads_promoted: AtomicU64::new(0),
            reloads_rejected: AtomicU64::new(0),
            checkpoint_fallback: AtomicU64::new(checkpoint_fallback),
            stop: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            shutdown_waiters: Mutex::new(Vec::new()),
            rejected_busy: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            input_len,
            retry_hint_us: AtomicU32::new(hint_floor_us),
            hint_floor_us,
            arena: Arena::new(),
        });

        let engine = {
            let ctl = Arc::clone(&ctl);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("qnn-serve-engine".to_string())
                .spawn(move || engine_loop(&ctl, &cfg))
                .map_err(|e| ServeError::io(&e))?
        };

        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let ctl = Arc::clone(&ctl);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("qnn-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &ctl, &handlers))
                .map_err(|e| ServeError::io(&e))?
        };

        Ok(Server {
            addr,
            ctl,
            engine: Some(engine),
            accept: Some(accept),
            handlers,
        })
    }

    /// The actually-bound address (resolves a port-0 bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live model version (1 at startup, +1 per promoted reload).
    pub fn model_version(&self) -> u32 {
        self.ctl.live.lock().unwrap().version
    }

    /// The live bank's seed — after a reload, the seed of whatever
    /// checkpoint was promoted last.
    pub fn model_seed(&self) -> u64 {
        self.ctl.live.lock().unwrap().seed
    }

    /// Bytes the request arena has genuinely allocated so far. Flat
    /// once the slab pool reaches its working set — the observable the
    /// arena-reuse e2e test asserts on.
    pub fn arena_allocated_bytes(&self) -> u64 {
        self.ctl.arena.allocated_bytes()
    }

    /// Requests a graceful shutdown: stop accepting work, drain what is
    /// queued. Pair with [`join`](Server::join).
    pub fn shutdown(&self) {
        self.ctl.begin_shutdown();
    }

    /// Simulates an abrupt crash for chaos tests: the queued backlog is
    /// discarded *without responses*, the stop flag rises, and every
    /// socket closes as its threads exit — peers see EOF mid-request,
    /// exactly what a `kill -9` leaves behind. A batch already inside
    /// the engine may still answer (or not escape before the connection
    /// drops); that ambiguity is the point. Pair with
    /// [`join`](Server::join) to reap threads.
    pub fn kill(&self) {
        self.ctl.queue.close_discarding();
        self.ctl.killed.store(true, Ordering::SeqCst);
        self.ctl.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the accept loop
    }

    /// Blocks until the server has fully shut down (triggered by a
    /// client `Shutdown` frame or [`shutdown`](Server::shutdown)) and
    /// every thread is reaped; returns the run's stats.
    pub fn join(mut self) -> ServeStats {
        let stats = self
            .engine
            .take()
            .expect("join called once")
            .join()
            .unwrap_or_else(|_| ServeStats {
                requests: 0,
                batches: 0,
                rejected_busy: 0,
                connections: 0,
                reloads_promoted: 0,
                reloads_rejected: 0,
                checkpoint_fallback: 0,
                latency_us: Histogram::new(),
                batch_size: Histogram::new(),
            });
        // The drain is over (or the engine panicked): only now stop the
        // accept loop, so a connection accepted during the drain got a
        // handler and its `ShuttingDown` answer.
        self.ctl.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the accept loop
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handlers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        stats
    }
}

fn accept_loop(listener: &TcpListener, ctl: &Arc<Ctl>, handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if ctl.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if ctl.stop.load(Ordering::SeqCst) {
            return; // the wake-up self-connect, or a straggler
        }
        ctl.connections.fetch_add(1, Ordering::Relaxed);
        qnn_trace::counter!("serve.connections", 1);
        let ctl = Arc::clone(ctl);
        if let Ok(h) = std::thread::Builder::new()
            .name("qnn-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &ctl))
        {
            handlers.lock().unwrap().push(h);
        }
    }
}

/// Outcome of one interruptible frame read.
pub(crate) enum ReadEvent {
    /// A non-inference frame (shutdown, protocol misuse), materialised
    /// the ordinary owned way — rare, so the copy is irrelevant.
    Frame(Frame),
    /// An inference request, its payload already decoded into an arena
    /// slab — the zero-copy hot path: the image bytes went straight from
    /// the socket buffer into the floats the engine will read, with no
    /// intermediate `Frame`/`Vec` materialisation.
    Infer { req_id: u64, tag: u8, image: Slab },
    /// Peer closed cleanly on a frame boundary.
    Eof,
    /// The stop flag rose while waiting.
    Stopped,
    /// Malformed input; `req_id` is best-effort (0 when unrecoverable).
    Bad { err: ProtoError, req_id: u64 },
}

/// Reads exactly `buf.len()` bytes through the connection's poll
/// timeout, bailing out when the stop flag rises. Shared with the
/// router's edge-side reader in [`crate::cluster`].
pub(crate) fn fill(
    stream: &mut impl std::io::Read,
    buf: &mut [u8],
    got_before: usize,
    stop: &AtomicBool,
) -> Result<(), ReadEvent> {
    let mut off = 0;
    while off < buf.len() {
        match stream.read(&mut buf[off..]) {
            Ok(0) => {
                return Err(if got_before + off == 0 {
                    ReadEvent::Eof
                } else {
                    ReadEvent::Bad {
                        err: ProtoError::Truncated {
                            got: got_before + off,
                        },
                        req_id: 0,
                    }
                });
            }
            Ok(n) => off += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Err(ReadEvent::Stopped);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(ReadEvent::Bad {
                    err: ProtoError::Io { msg: e.to_string() },
                    req_id: 0,
                });
            }
        }
    }
    Ok(())
}

/// Reads one frame, decoding inference payloads into the connection's
/// reusable `payload_buf` and then an arena slab — the per-request
/// allocations the naive path would make (payload `Vec<u8>`, image
/// `Vec<f32>`) are both recycled buffers here.
fn read_frame_interruptible(
    stream: &mut impl std::io::Read,
    ctl: &Ctl,
    payload_buf: &mut Vec<u8>,
) -> ReadEvent {
    let mut header_bytes = [0u8; HEADER_LEN];
    if let Err(ev) = fill(stream, &mut header_bytes, 0, &ctl.stop) {
        return ev;
    }
    // Best-effort request id for error replies: only meaningful once the
    // magic checks out.
    let magic_ok = header_bytes[..4] == proto::MAGIC.to_le_bytes();
    let req_id = if magic_ok {
        u64::from_le_bytes(header_bytes[8..16].try_into().unwrap())
    } else {
        0
    };
    let header = match proto::parse_header(&header_bytes) {
        Ok(h) => h,
        Err(err) => return ReadEvent::Bad { err, req_id },
    };
    // Past the header, the request id is known: stamp it onto any
    // mid-frame failure so the error frame can echo it.
    let stamp = |ev: ReadEvent| match ev {
        ReadEvent::Eof => ReadEvent::Bad {
            err: ProtoError::Truncated { got: HEADER_LEN },
            req_id,
        },
        ReadEvent::Bad { err, .. } => ReadEvent::Bad { err, req_id },
        other => other,
    };
    payload_buf.clear();
    payload_buf.resize(header.payload_len as usize, 0);
    if let Err(ev) = fill(stream, payload_buf, HEADER_LEN, &ctl.stop) {
        return stamp(ev);
    }
    let mut crc = [0u8; 4];
    if let Err(ev) = fill(stream, &mut crc, HEADER_LEN + payload_buf.len(), &ctl.stop) {
        return stamp(ev);
    }
    if let Err(err) = proto::verify_crc(&header_bytes, payload_buf, u32::from_le_bytes(crc)) {
        return ReadEvent::Bad { err, req_id };
    }
    if header.kind == FrameKind::Infer {
        let mut image = ctl.arena.take(payload_buf.len() / 4);
        return match proto::decode_f32s_into(payload_buf, image.as_mut_vec()) {
            Ok(()) => ReadEvent::Infer {
                req_id,
                tag: header.tag,
                image,
            },
            Err(err) => ReadEvent::Bad { err, req_id },
        };
    }
    ReadEvent::Frame(Frame {
        kind: header.kind,
        tag: header.tag,
        req_id: header.req_id,
        payload: std::mem::take(payload_buf),
    })
}

/// Whether a decode error poisons the stream (respond, then close) or
/// leaves it answerable and framed (respond, keep reading).
fn is_fatal(err: &ProtoError) -> bool {
    !matches!(err, ProtoError::BadPayload { .. })
}

fn handle_connection(stream: TcpStream, ctl: &Arc<Ctl>) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    // Response frames are small; Nagle would hold each one hostage to
    // the peer's delayed ACK (tens of ms per stall) — the single biggest
    // serving-throughput lever on a loopback benchmark.
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Frame>();
    let writer = std::thread::Builder::new()
        .name("qnn-serve-write".to_string())
        .spawn(move || writer_loop(write_half, &rx));
    // Buffered so a frame costs one `read` syscall, not three. The
    // 50 ms poll timeout still applies: an empty buffer surfaces the
    // underlying `WouldBlock` untouched.
    let mut stream = std::io::BufReader::new(stream);
    // Reused across frames: the raw-payload staging buffer. After the
    // first request, steady-state intake on this connection performs no
    // heap allocation (pinned by the arena-reuse e2e test).
    let mut payload_buf: Vec<u8> = Vec::new();

    loop {
        // The in-read poll only observes the stop flag when the socket
        // goes idle; a steadily chatty peer (e.g. a 20 ms heartbeat)
        // never times out, so check between frames too — otherwise a
        // killed server keeps answering pings forever. Only a kill
        // breaks here: graceful shutdown keeps answering typed
        // refusals until the peer hangs up.
        if ctl.killed.load(Ordering::SeqCst) {
            break;
        }
        match read_frame_interruptible(&mut stream, ctl, &mut payload_buf) {
            ReadEvent::Eof | ReadEvent::Stopped => break,
            ReadEvent::Bad { err, req_id } => {
                qnn_trace::counter!("serve.rx.bad_frames", 1);
                if let Some(code) = err.as_error_code() {
                    let _ = tx.send(Frame::error(req_id, code, 0, &err.to_string()));
                }
                if is_fatal(&err) {
                    break;
                }
            }
            ReadEvent::Infer { req_id, tag, image } => handle_infer(req_id, tag, image, &tx, ctl),
            ReadEvent::Frame(frame) => match frame.kind {
                FrameKind::Shutdown => {
                    ctl.shutdown_waiters
                        .lock()
                        .unwrap()
                        .push((frame.req_id, tx.clone()));
                    ctl.begin_shutdown();
                }
                // Heartbeats are answered here, not through the engine:
                // a Ping measures "is the process alive and reading its
                // sockets", so it must not queue behind inference work —
                // and must keep answering during a graceful drain.
                FrameKind::Ping => {
                    let _ = tx.send(Frame::pong(frame.req_id));
                }
                // Reloads run right here on the connection thread —
                // loading, building and canarying the candidate never
                // touches the engine thread, so inference keeps flowing
                // on the old version until the instant of the swap.
                FrameKind::Reload => {
                    let resp = match frame.reload_path() {
                        Ok(path) => do_reload(ctl, frame.req_id, Path::new(&path)),
                        Err(e) => {
                            Frame::error(frame.req_id, ErrorCode::BadPayload, 0, &e.to_string())
                        }
                    };
                    let _ = tx.send(resp);
                }
                // Server-bound streams carry requests only; a response
                // kind here is protocol misuse, answered but survivable.
                // (Infer never reaches this arm — the reader decodes it
                // straight to `ReadEvent::Infer` — but stays total.)
                FrameKind::Infer
                | FrameKind::InferOk
                | FrameKind::Error
                | FrameKind::ShutdownAck
                | FrameKind::Pong
                | FrameKind::ReloadOk => {
                    let _ = tx.send(Frame::error(
                        frame.req_id,
                        ErrorCode::BadKind,
                        0,
                        &format!("{:?} is not a request frame", frame.kind),
                    ));
                }
            },
        }
    }
    // Dropping tx lets the writer flush engine responses still in flight
    // for this connection (their Request clones keep the channel alive)
    // and exit once the last one is delivered.
    drop(tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

/// Handles one `Reload` frame end to end, translating the typed outcome
/// into its wire frame and recording the `serve.reload.*` telemetry.
fn do_reload(ctl: &Ctl, req_id: u64, path: &Path) -> Frame {
    qnn_trace::counter!("serve.reload.attempted", 1);
    let started = Instant::now();
    match try_reload(ctl, path) {
        Ok((version, seed)) => {
            ctl.reloads_promoted.fetch_add(1, Ordering::Relaxed);
            qnn_trace::counter!("serve.reload.promoted", 1);
            qnn_trace::observe!(
                "serve.reload.promote_us",
                started.elapsed().as_micros() as f64
            );
            Frame::reload_ok(req_id, version, seed)
        }
        Err(e) => {
            ctl.reloads_rejected.fetch_add(1, Ordering::Relaxed);
            qnn_trace::counter!("serve.reload.rejected", 1);
            Frame::error(req_id, ErrorCode::ReloadRejected, 0, &e.reason())
        }
    }
}

/// The lifecycle state machine: Load → Canary → Persist → Swap. Every
/// `Err` leaves the live set untouched — rollback is "do nothing", which
/// is why it cannot fail.
fn try_reload(ctl: &Ctl, path: &Path) -> Result<(u32, u64), ReloadError> {
    // Single-flight: concurrent reloads would race the persist/swap
    // ordering, so the second one is refused typed rather than queued.
    let _guard = ctl.reload.try_lock().map_err(|_| ReloadError::InFlight)?;

    // Load: CRC mismatch, truncation, wrong kind, malformed payload.
    let cp = BankCheckpoint::load(path).map_err(|e| ReloadError::Load {
        detail: e.to_string(),
    })?;
    // Build: tensor count/shape mismatch against the serving spec.
    let mut candidate = cp.to_bank().map_err(|e| ReloadError::Build {
        detail: e.to_string(),
    })?;

    // Canary: probe the candidate against the live bank. Borrows one
    // live replica; with multiple replicas the engine keeps serving on
    // the others, and even single-replica servers only pause for the
    // probe forwards, not the bank build.
    let live_set = Arc::clone(&*ctl.live.lock().unwrap());
    {
        let mut live_bank = live_set.banks[0].lock().unwrap();
        canary_gate(&mut candidate, &mut live_bank, ctl.canary_min_agree)?;
    }

    // The canary-validated bank becomes replica 0; clone-by-rebuild for
    // the rest (identical bits by construction).
    let version = live_set.version.wrapping_add(1);
    let mut banks = Vec::with_capacity(ctl.replicas.max(1));
    banks.push(Mutex::new(candidate));
    while banks.len() < ctl.replicas.max(1) {
        banks.push(Mutex::new(cp.to_bank().map_err(|e| {
            ReloadError::Build {
                detail: e.to_string(),
            }
        })?));
    }
    let next = BankSet {
        version,
        seed: cp.seed,
        banks,
    };

    // Persist *before* swap: once clients can observe the new version,
    // a crash must restart into it (or, killed earlier, into the old
    // one) — the checkpoint file is always a complete bank, old or new,
    // with the previous one rotated to `.bak`.
    if let Some(primary) = &ctl.checkpoint {
        // Reloading from the durable path itself means the new bank is
        // already on disk; re-saving would rotate the *new* weights
        // into `.bak` and lose the old ones.
        if primary.as_path() != path {
            cp.save(primary).map_err(|e| ReloadError::Persist {
                detail: e.to_string(),
            })?;
        }
    }

    // Swap: a pointer replacement under the lock. In-flight and queued
    // requests hold their own pins; nothing blocks on this.
    *ctl.live.lock().unwrap() = Arc::new(next);
    qnn_trace::gauge!("serve.model.version", f64::from(version));
    Ok((version, cp.seed))
}

fn handle_infer(req_id: u64, tag: u8, image: Slab, tx: &mpsc::Sender<Frame>, ctl: &Ctl) {
    if tag >= NUM_PRECISIONS {
        let _ = tx.send(Frame::error(
            req_id,
            ErrorCode::BadPrecision,
            0,
            &format!("precision tag {tag} outside Table III (0..{NUM_PRECISIONS})"),
        ));
        return;
    }
    if image.len() != ctl.input_len {
        let _ = tx.send(Frame::error(
            req_id,
            ErrorCode::BadPayload,
            0,
            &format!(
                "image has {} floats, model wants {}",
                image.len(),
                ctl.input_len
            ),
        ));
        return;
    }
    let req = Request {
        id: req_id,
        tag,
        image,
        reply: tx.clone(),
        enqueued: Instant::now(),
        // Pin the live epoch at admission: however long this request
        // queues, it computes on the model version that accepted it.
        bank: Arc::clone(&*ctl.live.lock().unwrap()),
    };
    match ctl.queue.try_push(req) {
        Ok(()) => {}
        Err(PushError::Full) => {
            ctl.rejected_busy.fetch_add(1, Ordering::Relaxed);
            qnn_trace::counter!("serve.rejected.busy", 1);
            let _ = tx.send(Frame::error(
                req_id,
                ErrorCode::Busy,
                ctl.retry_hint_us.load(Ordering::Relaxed),
                "batching queue full",
            ));
        }
        Err(PushError::Closed) => {
            let _ = tx.send(Frame::error(
                req_id,
                ErrorCode::ShuttingDown,
                0,
                "server is draining",
            ));
        }
    }
}

fn writer_loop(mut stream: TcpStream, rx: &mpsc::Receiver<Frame>) {
    // Coalesce whatever responses are already queued into one write, so
    // a drained batch costs one syscall/packet instead of one per frame.
    let mut out: Vec<u8> = Vec::new();
    while let Ok(frame) = rx.recv() {
        out.clear();
        out.extend_from_slice(&frame.encode());
        let mut frames = 1u64;
        while let Ok(next) = rx.try_recv() {
            out.extend_from_slice(&next.encode());
            frames += 1;
        }
        if stream
            .write_all(&out)
            .and_then(|()| stream.flush())
            .is_err()
        {
            return; // peer gone; remaining responses have nowhere to go
        }
        qnn_trace::counter!("serve.tx.frames", frames);
    }
}

/// Checks a bank replica out of the pool: first replica whose lock is
/// free, else block on the unit's home replica. Any replica computes the
/// same bits, so the choice only affects timing.
fn checkout(banks: &[Mutex<ModelBank>], unit: usize) -> MutexGuard<'_, ModelBank> {
    for bank in banks {
        if let Ok(guard) = bank.try_lock() {
            return guard;
        }
    }
    banks[unit % banks.len()].lock().unwrap()
}

fn engine_loop(ctl: &Arc<Ctl>, cfg: &ServeConfig) -> ServeStats {
    let engine_threads = ctl.replicas;
    let mut stats = ServeStats {
        requests: 0,
        batches: 0,
        rejected_busy: 0,
        connections: 0,
        reloads_promoted: 0,
        reloads_rejected: 0,
        checkpoint_fallback: 0,
        latency_us: Histogram::new(),
        batch_size: Histogram::new(),
    };
    // Recent drain cost, EWMA-smoothed nanoseconds per request — feeds
    // the adaptive Busy retry hint. 0 until the first batch lands.
    let mut drain_ewma_ns: u64 = 0;
    while let Some(batch) = ctl.queue.next_batch(cfg.max_batch, cfg.max_wait) {
        qnn_trace::span!("serve.batch");
        qnn_trace::counter!("serve.batches", 1);
        qnn_trace::counter!("serve.requests", batch.len() as u64);
        qnn_trace::observe!("serve.batch.size", batch.len() as f64);
        qnn_trace::gauge!("serve.queue.depth", ctl.queue.depth() as f64);
        stats.batches += 1;
        stats.batch_size.observe(batch.len() as f64);
        let drain_start = Instant::now();

        // Group by (pinned model version, precision tag) — a batch that
        // straddles a hot-reload swap splits into one group per epoch,
        // each computed on the bank set that admitted its requests —
        // then split each group into at most `engine_threads` contiguous
        // sub-batches, the work units the fan-out schedules. Unit
        // boundaries depend only on the batch composition and the
        // thread count, never on timing. Each unit owns its requests.
        let batch_len = batch.len();
        let mut groups: BTreeMap<(u32, u8), Vec<Request>> = BTreeMap::new();
        for req in batch {
            groups
                .entry((req.bank.version, req.tag))
                .or_default()
                .push(req);
        }
        let mut units: Vec<Mutex<Vec<Request>>> = Vec::new();
        for ((version, _), reqs) in groups {
            qnn_trace::counter!(format!("serve.requests.v{version}"), reqs.len() as u64);
            let ranges = par::partition(reqs.len(), engine_threads.min(reqs.len()).max(1));
            let mut reqs = reqs.into_iter();
            for range in ranges {
                if !range.is_empty() {
                    units.push(Mutex::new(reqs.by_ref().take(range.len()).collect()));
                }
            }
        }

        // Fan the units out over at most `engine_threads` workers. Each
        // worker checks a replica out of its unit's *pinned* bank set
        // (all requests in a unit share one set by construction), runs
        // the stacked forward, and sends its responses directly —
        // per-request latencies come back for the stats fold. Each
        // request's image slab goes back to the arena before its response
        // is sent, so a closed-loop client's next request finds it there.
        // Workers are pool workers, so kernels inside them run serial
        // instead of nesting.
        let unit_latencies = par::map_capped(units.len(), engine_threads, |u| {
            let reqs =
                std::mem::take(&mut *units[u].lock().expect("a unit lock guards only this take"));
            let set = Arc::clone(&reqs[0].bank);
            let tag = reqs[0].tag;
            let version_byte = (set.version & 0xFF) as u8;
            let mut bank = checkout(&set.banks, u);
            qnn_trace::span!("serve.infer:{}", tag);
            let images: Vec<&[f32]> = reqs.iter().map(|r| &*r.image).collect();
            let result = bank.forward_batch_flat(tag, &images);
            drop(images);
            match result {
                Ok((flat, k)) => {
                    let mut latencies = Vec::with_capacity(reqs.len());
                    for (req, row) in reqs.into_iter().zip(flat.chunks_exact(k)) {
                        let Request {
                            id,
                            image,
                            reply,
                            enqueued,
                            ..
                        } = req;
                        drop(image);
                        qnn_trace::span!("serve.request");
                        let us = enqueued.elapsed().as_micros() as f64;
                        qnn_trace::observe!("serve.latency.us", us);
                        latencies.push(us);
                        let _ = reply.send(Frame::infer_ok_v(id, version_byte, row));
                    }
                    latencies
                }
                Err(e) => {
                    for req in reqs {
                        let Request {
                            id, image, reply, ..
                        } = req;
                        drop(image);
                        let _ = reply.send(Frame::error(
                            id,
                            ErrorCode::Internal,
                            0,
                            &format!("forward failed: {e}"),
                        ));
                    }
                    Vec::new()
                }
            }
        });
        for us in unit_latencies.into_iter().flatten() {
            stats.latency_us.observe(us);
            stats.requests += 1;
        }

        // Refresh the adaptive backpressure hint from this batch's
        // measured drain rate and the depth left behind.
        let per_req_ns = (drain_start.elapsed().as_nanos() as u64) / batch_len.max(1) as u64;
        drain_ewma_ns = if drain_ewma_ns == 0 {
            per_req_ns
        } else {
            (3 * drain_ewma_ns + per_req_ns) / 4
        };
        let hint = queue::retry_hint_us(ctl.queue.depth(), drain_ewma_ns, ctl.hint_floor_us);
        ctl.retry_hint_us.store(hint, Ordering::Relaxed);
        qnn_trace::gauge!("serve.retry_hint.us", f64::from(hint));
    }
    // Drain complete: acknowledge every shutdown requester; `join` brings
    // the rest of the thread structure down.
    for (req_id, tx) in ctl.shutdown_waiters.lock().unwrap().drain(..) {
        let _ = tx.send(Frame::shutdown_ack(req_id));
    }
    stats.rejected_busy = ctl.rejected_busy.load(Ordering::Relaxed);
    stats.connections = ctl.connections.load(Ordering::Relaxed);
    stats.reloads_promoted = ctl.reloads_promoted.load(Ordering::Relaxed);
    stats.reloads_rejected = ctl.reloads_rejected.load(Ordering::Relaxed);
    stats.checkpoint_fallback = ctl.checkpoint_fallback.load(Ordering::Relaxed);
    qnn_trace::gauge!("serve.queue.depth", 0.0);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_render_mentions_every_line() {
        let mut s = ServeStats {
            requests: 3,
            batches: 2,
            rejected_busy: 1,
            connections: 4,
            reloads_promoted: 5,
            reloads_rejected: 6,
            checkpoint_fallback: 0,
            latency_us: Histogram::new(),
            batch_size: Histogram::new(),
        };
        s.latency_us.observe(100.0);
        s.batch_size.observe(2.0);
        let text = s.render();
        assert!(text.contains("served 3 request(s)"), "{text}");
        assert!(text.contains("5 reload(s) promoted, 6 rejected"), "{text}");
        assert!(text.contains("batch size"), "{text}");
        assert!(text.contains("latency us"), "{text}");
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.max_batch >= 1);
        assert!(c.queue_cap >= c.max_batch);
        assert_eq!(c.seed, MODEL_SEED);
    }
}
