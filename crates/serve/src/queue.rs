//! The bounded dynamic-batching queue between connection handlers and
//! the inference engine.
//!
//! Handlers [`try_push`](BatchQueue::try_push) requests; a full queue is
//! an immediate [`PushError::Full`] — the backpressure contract: the
//! server never buffers unboundedly, it tells the client to retry. The
//! engine blocks in [`next_batch`](BatchQueue::next_batch), which
//! implements the flush policy: once at least one request is waiting,
//! collect until either `max_batch` requests are available or `max_wait`
//! has elapsed, whichever comes first, then drain up to `max_batch`.
//!
//! [`close`](BatchQueue::close) flips the queue into drain mode: pushes
//! fail with [`PushError::Closed`], and `next_batch` keeps handing out
//! whatever is still queued (graceful shutdown drains in-flight work)
//! until it is empty, then returns `None`.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::arena::Slab;
use crate::proto::{self, Frame};
use crate::server::BankSet;

/// One queued inference request, carrying everything the engine needs to
/// compute and route the response.
#[derive(Debug)]
pub struct Request {
    /// Wire request id, echoed in the response frame.
    pub id: u64,
    /// Precision tag (already validated against the model bank).
    pub tag: u8,
    /// The image, decoded to floats into a recycled arena slab — the
    /// engine drops the slab, returning it to its pool, before it sends
    /// this request's response.
    pub image: Slab,
    /// The model version pinned at admission time: whatever
    /// [`BankSet`] was live when the handler accepted the request
    /// answers it, even if a hot-reload promotes a newer version while
    /// it waits in the queue. The old version's banks are reclaimed
    /// when the last pinned request drops this `Arc`.
    pub bank: Arc<BankSet>,
    /// The owning connection's writer channel.
    pub reply: mpsc::Sender<Frame>,
    /// When the request entered the queue (for the latency histogram).
    pub enqueued: Instant,
}

/// Adaptive `Busy` retry hint: how long a rejected client should back
/// off, given the queue depth it was rejected at and the engine's
/// recently observed per-request drain time.
///
/// The hint estimates how long the engine needs to work through the
/// backlog (`depth · drain_ns_per_req`), raised to at least `floor_us`
/// (so an idle or freshly started server still spreads retries out) and
/// then clamped into the protocol-wide 1ms..1s band by
/// [`proto::clamp_retry_hint_us`] — the same clamp the router's
/// `ShardDown` hint rides, so the two paths can never drift apart.
/// **Contract:** for a fixed drain rate the hint grows monotonically
/// with depth — a deeper queue never shortens the suggested backoff.
/// Pinned by `retry_hint_grows_with_depth`.
pub fn retry_hint_us(depth: usize, drain_ns_per_req: u64, floor_us: u32) -> u32 {
    let est_us = (depth as u64).saturating_mul(drain_ns_per_req) / 1_000;
    proto::clamp_retry_hint_us(est_us.max(u64::from(floor_us)))
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — backpressure; retry later.
    Full,
    /// The server is draining for shutdown; no new work is accepted.
    Closed,
}

struct Inner {
    items: VecDeque<Request>,
    closed: bool,
}

/// A bounded MPSC queue with a batching consumer.
pub struct BatchQueue {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    cap: usize,
}

impl BatchQueue {
    /// A queue holding at most `cap` requests (`cap >= 1`).
    pub fn new(cap: usize) -> BatchQueue {
        BatchQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues a request, or refuses immediately — this never blocks,
    /// so a slow engine translates into `Full` rejections at the edge
    /// rather than unbounded buffering.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](BatchQueue::close).
    pub fn try_push(&self, req: Request) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.cap {
            return Err(PushError::Full);
        }
        inner.items.push_back(req);
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Current queue depth (requests waiting, not yet drained).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Stops accepting new work and wakes the engine so it can drain
    /// what remains. Idempotent.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.nonempty.notify_all();
    }

    /// The crash-simulation variant of [`close`](BatchQueue::close):
    /// stops accepting work *and discards everything still queued*, so
    /// queued requests are dropped without a response — exactly what a
    /// `kill -9` does to a real process's backlog. Used by
    /// `Server::kill` so chaos tests can crash an in-process shard.
    /// Idempotent.
    pub fn close_discarding(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        inner.items.clear();
        drop(inner);
        self.nonempty.notify_all();
    }

    /// True once [`close`](BatchQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Blocks until work is available, applies the flush policy, and
    /// drains up to `max_batch` requests. Returns `None` only when the
    /// queue is closed *and* empty — the engine's signal to exit after a
    /// complete drain.
    pub fn next_batch(&self, max_batch: usize, max_wait: Duration) -> Option<Vec<Request>> {
        let max_batch = max_batch.max(1);
        let mut inner = self.inner.lock().unwrap();
        // Phase 1: wait for the first request (or a close).
        loop {
            if !inner.items.is_empty() {
                break;
            }
            if inner.closed {
                return None;
            }
            inner = self.nonempty.wait(inner).unwrap();
        }
        // Phase 2: the batch window. Collect until max_batch requests are
        // waiting or max_wait elapses; a close flushes immediately.
        let deadline = Instant::now() + max_wait;
        while inner.items.len() < max_batch && !inner.closed {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self.nonempty.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let take = inner.items.len().min(max_batch);
        Some(inner.items.drain(..take).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn req(id: u64) -> (Request, mpsc::Receiver<Frame>) {
        let (tx, rx) = channel();
        let arena = crate::arena::Arena::new();
        let mut image = arena.take(1);
        image.as_mut_vec().push(0.0);
        (
            Request {
                id,
                tag: 0,
                image,
                bank: BankSet::test_stub(),
                reply: tx,
                enqueued: Instant::now(),
            },
            rx,
        )
    }

    #[test]
    fn retry_hint_grows_with_depth() {
        // The adaptive-backpressure contract: for a fixed drain rate the
        // hint is monotone non-decreasing in depth, and never escapes
        // the protocol-wide 1ms..1s band.
        for &drain_ns in &[0u64, 10_000, 150_000, 2_000_000] {
            let mut last = 0;
            for depth in 0..512 {
                let hint = retry_hint_us(depth, drain_ns, 100);
                assert!(
                    hint >= last,
                    "hint shrank: depth {depth} drain {drain_ns} {hint} < {last}"
                );
                assert!(
                    u64::from(hint) >= proto::RETRY_HINT_MIN_US,
                    "band floor violated at depth {depth}"
                );
                last = hint;
            }
        }
    }

    #[test]
    fn retry_hint_floor_and_ceiling() {
        // Empty queue with a sub-band floor: the shared 1 ms minimum
        // applies (a shorter hint would just make clients spin).
        assert_eq!(retry_hint_us(0, 1_000_000, 250), 1_000);
        // A floor inside the band is respected as-is.
        assert_eq!(retry_hint_us(0, 1_000_000, 2_500), 2_500);
        // Backlog estimate dominates once it exceeds the floor.
        assert_eq!(retry_hint_us(8, 500_000, 100), 4_000);
        // A pathological estimate is capped at one second...
        assert_eq!(retry_hint_us(10_000, u64::MAX, 100), 1_000_000);
        // ...and so is a pathological floor.
        assert_eq!(retry_hint_us(0, 0, u32::MAX), 1_000_000);
    }

    #[test]
    fn full_queue_rejects_immediately() {
        let q = BatchQueue::new(2);
        let mut rxs = Vec::new();
        for id in 0..2 {
            let (r, rx) = req(id);
            q.try_push(r).unwrap();
            rxs.push(rx);
        }
        let (r, _rx) = req(2);
        assert_eq!(q.try_push(r).unwrap_err(), PushError::Full);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn closed_queue_rejects_but_drains() {
        let q = BatchQueue::new(8);
        let (r, _rx) = req(0);
        q.try_push(r).unwrap();
        q.close();
        let (r, _rx2) = req(1);
        assert_eq!(q.try_push(r).unwrap_err(), PushError::Closed);
        // The queued request still comes out before the None.
        let batch = q.next_batch(16, Duration::from_millis(1)).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(q.next_batch(16, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn close_discarding_drops_the_backlog_unanswered() {
        let q = BatchQueue::new(8);
        let (r, rx) = req(0);
        q.try_push(r).unwrap();
        q.close_discarding();
        assert!(q.is_closed());
        assert_eq!(q.depth(), 0);
        // The engine sees an immediate end-of-work, and the queued
        // request's reply channel is simply dropped — no response.
        assert!(q.next_batch(16, Duration::from_millis(1)).is_none());
        assert!(rx.recv().is_err());
    }

    #[test]
    fn flush_on_max_batch_without_waiting_out_the_window() {
        let q = Arc::new(BatchQueue::new(64));
        let mut rxs = Vec::new();
        for id in 0..4 {
            let (r, rx) = req(id);
            q.try_push(r).unwrap();
            rxs.push(rx);
        }
        let start = Instant::now();
        // Window is a full second, but 4 requests ≥ max_batch=4 flush now.
        let batch = q.next_batch(4, Duration::from_secs(1)).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(start.elapsed() < Duration::from_millis(500));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn flush_on_window_expiry_with_a_short_batch() {
        let q = BatchQueue::new(64);
        let (r, _rx) = req(0);
        q.try_push(r).unwrap();
        let batch = q.next_batch(16, Duration::from_millis(5)).unwrap();
        assert_eq!(batch.len(), 1, "window expiry flushes a partial batch");
    }

    #[test]
    fn drains_at_most_max_batch_leaving_the_rest() {
        let q = BatchQueue::new(64);
        let mut rxs = Vec::new();
        for id in 0..10 {
            let (r, rx) = req(id);
            q.try_push(r).unwrap();
            rxs.push(rx);
        }
        let batch = q.next_batch(4, Duration::from_millis(1)).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].id, 0, "FIFO order");
        assert_eq!(q.depth(), 6);
    }

    #[test]
    fn waiting_engine_wakes_on_push() {
        let q = Arc::new(BatchQueue::new(8));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.next_batch(8, Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(20));
        let (r, _rx) = req(0);
        q.try_push(r).unwrap();
        let batch = t.join().unwrap().unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn close_wakes_a_blocked_engine() {
        let q = Arc::new(BatchQueue::new(8));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.next_batch(8, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(t.join().unwrap().is_none());
    }
}
