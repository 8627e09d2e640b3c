//! A small blocking client for the `QSRV` protocol — what the
//! `qnn-bench serve-soak` load generator, the e2e tests, and scripts
//! drive the server with.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::proto::{read_frame, ErrorCode, Frame, FrameKind};
use crate::ServeError;

/// Retryable rejections one [`ServeClient::infer_retry`] call rode out,
/// by code.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Retries {
    /// `Busy` rejections: the server's queue was full.
    pub busy: usize,
    /// `ShardDown` rejections: a router found no live replica.
    pub shard_down: usize,
}

/// One connection to a `qnn-serve` server.
///
/// Writes go straight to the socket with `TCP_NODELAY` set (request
/// frames are small; Nagle coalescing would stall the pipelined path
/// behind delayed ACKs), reads come through a buffer so each frame costs
/// one `read` syscall instead of three.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl ServeClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:7117"`). Reads time out
    /// after 30 s so a wedged server surfaces as an error, not a hang.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connect failure.
    pub fn connect(addr: &str) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr).map_err(|e| ServeError::io(&e))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| ServeError::io(&e))?;
        stream.set_nodelay(true).map_err(|e| ServeError::io(&e))?;
        // The clone shares the socket (and its options) with `stream`;
        // it exists only to give the reader its own buffered handle.
        let reader = BufReader::new(stream.try_clone().map_err(|e| ServeError::io(&e))?);
        Ok(ServeClient {
            stream,
            reader,
            next_id: 1,
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ServeError> {
        self.stream
            .write_all(&frame.encode())
            .and_then(|()| self.stream.flush())
            .map_err(|e| ServeError::io(&e))
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Reads response frames until one matches `req_id` (responses to
    /// pipelined requests may interleave; strays are dropped).
    fn recv_for(&mut self, req_id: u64) -> Result<Frame, ServeError> {
        loop {
            let frame = read_frame(&mut self.reader)?;
            if frame.req_id == req_id {
                return Ok(frame);
            }
        }
    }

    /// Sends one inference request and blocks for its response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] carrying the server's typed error frame
    /// (check [`is_retryable`](ServeError::is_retryable) for `Busy`
    /// backpressure and `ShardDown` failover), [`ServeError::Proto`]/
    /// [`ServeError::Io`] on transport trouble.
    pub fn infer(&mut self, tag: u8, image: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.infer_versioned(tag, image).map(|(_, logits)| logits)
    }

    /// [`infer`](ServeClient::infer) that also returns the model-version
    /// byte the server stamped into the response (`version % 256`) —
    /// what the soak uses to pick which version's local bank to verify
    /// each response against.
    ///
    /// # Errors
    ///
    /// Same as [`infer`](ServeClient::infer).
    pub fn infer_versioned(
        &mut self,
        tag: u8,
        image: &[f32],
    ) -> Result<(u8, Vec<f32>), ServeError> {
        let id = self.next_id();
        self.send(&Frame::infer(id, tag, image))?;
        let frame = self.recv_for(id)?;
        match frame.kind {
            FrameKind::InferOk => Ok((frame.tag, frame.payload_f32s()?)),
            FrameKind::Error => {
                let (code, retry_after_us, msg) = frame.error_info()?;
                Err(ServeError::Rejected {
                    code,
                    retry_after_us,
                    msg,
                })
            }
            other => Err(ServeError::UnexpectedFrame(other)),
        }
    }

    /// Asks the server (or a router, which rolls it across every live
    /// shard) to hot-reload the `QNNF` bank checkpoint at `path` —
    /// resolved against the *server's* filesystem. Blocks for the
    /// verdict: the promoted `(version, seed)` on success.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] with [`crate::ErrorCode::ReloadRejected`]
    /// carrying the typed refusal reason (corrupt checkpoint, canary
    /// divergence, a reload already in flight…) — the previous version
    /// is still serving whenever this returns `Err`.
    pub fn reload(&mut self, path: &str) -> Result<(u32, u64), ServeError> {
        let id = self.next_id();
        self.send(&Frame::reload(id, path))?;
        let frame = self.recv_for(id)?;
        match frame.kind {
            FrameKind::ReloadOk => Ok(frame.reload_ok_info()?),
            FrameKind::Error => {
                let (code, retry_after_us, msg) = frame.error_info()?;
                Err(ServeError::Rejected {
                    code,
                    retry_after_us,
                    msg,
                })
            }
            other => Err(ServeError::UnexpectedFrame(other)),
        }
    }

    /// [`infer_versioned`](ServeClient::infer_versioned), retrying every
    /// retryable rejection ([`ErrorCode::is_retryable`]: `Busy`
    /// backpressure from a server, `ShardDown` failover from a router)
    /// after each one's hinted delay, up to `max_retries` in all. Returns
    /// the version byte, the logits and the retries by code.
    ///
    /// # Errors
    ///
    /// The final error once retries are exhausted, or any non-retryable
    /// failure immediately.
    pub fn infer_retry(
        &mut self,
        tag: u8,
        image: &[f32],
        max_retries: usize,
    ) -> Result<(u8, Vec<f32>, Retries), ServeError> {
        let mut retries = Retries::default();
        loop {
            match self.infer_versioned(tag, image) {
                Ok((version, logits)) => return Ok((version, logits, retries)),
                Err(ServeError::Rejected {
                    code,
                    retry_after_us,
                    ..
                }) if code.is_retryable() && retries.busy + retries.shard_down < max_retries => {
                    if code == ErrorCode::Busy {
                        retries.busy += 1;
                    } else {
                        retries.shard_down += 1;
                    }
                    std::thread::sleep(Duration::from_micros(u64::from(
                        retry_after_us.clamp(100, 50_000),
                    )));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends a liveness probe and blocks for the matching `Pong`.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServeError::UnexpectedFrame`] /
    /// [`ServeError::Rejected`] if the peer answers anything else.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        let id = self.next_id();
        self.send(&Frame::ping(id))?;
        let frame = self.recv_for(id)?;
        match frame.kind {
            FrameKind::Pong => Ok(()),
            FrameKind::Error => {
                let (code, retry_after_us, msg) = frame.error_info()?;
                Err(ServeError::Rejected {
                    code,
                    retry_after_us,
                    msg,
                })
            }
            other => Err(ServeError::UnexpectedFrame(other)),
        }
    }

    /// Asks the server to drain and stop; blocks until the post-drain
    /// `ShutdownAck` arrives.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServeError::UnexpectedFrame`] /
    /// [`ServeError::Rejected`] if the server answers anything else.
    pub fn shutdown_server(&mut self) -> Result<(), ServeError> {
        let id = self.next_id();
        self.send(&Frame::shutdown(id))?;
        let frame = self.recv_for(id)?;
        match frame.kind {
            FrameKind::ShutdownAck => Ok(()),
            FrameKind::Error => {
                let (code, retry_after_us, msg) = frame.error_info()?;
                Err(ServeError::Rejected {
                    code,
                    retry_after_us,
                    msg,
                })
            }
            other => Err(ServeError::UnexpectedFrame(other)),
        }
    }

    /// Sends raw bytes down the socket — the malformed-input hammer the
    /// protocol tests use. Not part of the polite API.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.stream
            .write_all(bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| ServeError::io(&e))
    }

    /// Reads one frame off the socket (for tests driving `send_raw`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Proto`] with the decode failure.
    pub fn recv_frame(&mut self) -> Result<Frame, ServeError> {
        Ok(read_frame(&mut self.reader)?)
    }

    /// Half-closes the write side, so the server sees EOF while this end
    /// can still read any final response (used by truncation tests).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on failure.
    pub fn finish_writes(&mut self) -> Result<(), ServeError> {
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| ServeError::io(&e))
    }

    /// Tightens the read timeout (tests use short ones to prove the
    /// server answers promptly rather than hanging).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on failure.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), ServeError> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| ServeError::io(&e))
    }

    /// Fire-and-forget pipelining: send an inference request without
    /// waiting, returning its request id for a later
    /// [`recv_frame`](ServeClient::recv_frame) match-up.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on write failure.
    pub fn send_infer(&mut self, tag: u8, image: &[f32]) -> Result<u64, ServeError> {
        let id = self.next_id();
        self.send(&Frame::infer(id, tag, image))?;
        Ok(id)
    }

    /// Pipelined shutdown: send without waiting for the ack.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on write failure.
    pub fn send_shutdown(&mut self) -> Result<u64, ServeError> {
        let id = self.next_id();
        self.send(&Frame::shutdown(id))?;
        Ok(id)
    }
}
