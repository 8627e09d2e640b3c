#![warn(missing_docs)]

//! # qnn-serve — batched inference over TCP, bit-identical to single-shot
//!
//! The serving front-end the ROADMAP's "heavy traffic" north star calls
//! for: a std-only TCP server that funnels concurrent client requests
//! into a dynamic batching queue, runs stacked Eval-mode forwards through
//! the `PlanCache`/native-kernel path once per precision group, and
//! streams responses back — each bit-identical to a single-shot forward
//! of the same image (the invariant `model::tests` pins and the
//! `serve-soak` CI stage enforces end to end).
//!
//! * [`proto`] — the `QSRV` length-prefixed binary wire format: fixed
//!   header (magic, version, kind, precision tag, request id, payload
//!   length), payload, CRC32 trailer (reusing `qnn_faults::crc32`).
//!   Every way a frame can be wrong decodes to a typed [`ProtoError`],
//!   never a panic.
//! * [`arena`] — the recycled-slab float arena the zero-copy decode path
//!   draws request buffers from; steady-state serving allocates nothing
//!   per request (the `serve.alloc.bytes` counter goes flat).
//! * [`model`] — the [`ModelBank`]: one calibrated network per Table III
//!   precision, shared by server and load generator via [`MODEL_SEED`].
//! * [`lifecycle`] — versioned hot-reload: [`BankCheckpoint`] (a `QNNF`
//!   snapshot of the seed + base weights, `.bak`-rotated on save), the
//!   [`canary_gate`] that probes a candidate bank before promotion, and
//!   the typed [`ReloadError`] reasons a reload can be refused for.
//! * [`queue`] — the bounded dynamic-batching queue: flush on
//!   `max_batch` or `max_wait`, whichever first; reject when full
//!   (backpressure, surfaced to clients as a `Busy` error frame with a
//!   retry-after hint).
//! * [`server`] — the accept/handler/engine thread structure, graceful
//!   shutdown draining in-flight batches, and per-batch `qnn-trace`
//!   telemetry (queue-depth gauge, batch-size histogram, per-request
//!   latency histogram).
//! * [`client`] — a small blocking client used by the `qnn-bench
//!   serve-soak` load generator, the e2e tests, and anyone scripting
//!   against the server.
//! * [`membership`] — the heartbeat-driven liveness table: a pure state
//!   machine (mark-dead after `k_misses` unanswered `Ping`s, one `Pong`
//!   revives) plus the typed-error probe that feeds it.
//! * [`cluster`] — the [`Router`]: consistent-hashes `(req_id,
//!   precision)` across N shard workers (each a stock [`Server`]),
//!   fails over to the ring successor when a shard dies mid-request,
//!   and answers `ShardDown` — typed, retryable — when nothing is live.
//!   Bit-identical answers from any replica, never a hang.
//!
//! ## Example (in-process round trip)
//!
//! ```
//! use qnn_serve::{client::ServeClient, model, server::{ServeConfig, Server}};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let mut bank = model::ModelBank::default_bank().unwrap();
//! let image = model::test_image(model::MODEL_SEED, 0, bank.input_len());
//!
//! let mut client = ServeClient::connect(&server.local_addr().to_string()).unwrap();
//! let logits = client.infer(3, &image).unwrap(); // tag 3 = Fixed-Point (8,8)
//! assert_eq!(logits, bank.forward_single(3, &image).unwrap());
//!
//! client.shutdown_server().unwrap();
//! server.join();
//! ```

pub mod arena;
pub mod client;
pub mod cluster;
pub mod lifecycle;
pub mod membership;
pub mod model;
pub mod proto;
pub mod queue;
pub mod server;

pub use arena::{Arena, Slab};
pub use client::{Retries, ServeClient};
pub use cluster::{HashRing, Router, RouterConfig, RouterStats};
pub use lifecycle::{canary_gate, BankCheckpoint, CanaryReport, ReloadError};
pub use membership::{DownReason, Membership, ProbeError, ShardState, Transition};
pub use model::{ModelBank, MODEL_SEED, NUM_PRECISIONS};
pub use proto::{ErrorCode, Frame, FrameKind, ProtoError};
pub use server::{ServeConfig, ServeStats, Server};

use std::fmt;

/// Errors surfaced by the client API and the server's request path.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A socket-level failure (connect, read, write), flattened to keep
    /// this type `Clone + PartialEq`.
    Io(String),
    /// The byte stream did not decode as a `QSRV` frame.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Rejected {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Microseconds the client should wait before retrying (only
        /// meaningful for the retryable codes, see
        /// [`ErrorCode::is_retryable`]).
        retry_after_us: u32,
        /// Human-readable detail.
        msg: String,
    },
    /// The server answered with a frame kind the client did not expect.
    UnexpectedFrame(FrameKind),
}

impl ServeError {
    /// True for any retryable rejection: `Busy` backpressure or a
    /// router's `ShardDown` failover window (see
    /// [`ErrorCode::is_retryable`]).
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::Rejected { code, .. } if code.is_retryable())
    }

    pub(crate) fn io(e: &std::io::Error) -> ServeError {
        ServeError::Io(e.to_string())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "i/o: {msg}"),
            ServeError::Proto(e) => write!(f, "protocol: {e}"),
            ServeError::Rejected {
                code,
                retry_after_us,
                msg,
            } => {
                write!(f, "rejected ({code:?}): {msg}")?;
                if *retry_after_us > 0 {
                    write!(f, " [retry after {retry_after_us}us]")?;
                }
                Ok(())
            }
            ServeError::UnexpectedFrame(kind) => write!(f, "unexpected frame {kind:?}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ProtoError> for ServeError {
    fn from(e: ProtoError) -> Self {
        ServeError::Proto(e)
    }
}
