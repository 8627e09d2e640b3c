//! Reusable `f32` slab arena for the request hot path.
//!
//! Every inference request needs one image-sized float buffer between
//! frame decode and the engine's batched forward. Allocating it per
//! request puts an allocator round-trip on the hot path and (worse)
//! makes steady-state throughput depend on allocator behaviour; the
//! arena instead recycles slabs — a request checks one out
//! ([`Arena::take`]), carries it through the queue into the engine, and
//! the engine drops it, returning it to the pool, after the batched
//! forward and before the request's response is sent.
//!
//! ## Ownership and lifetime
//!
//! A [`Slab`] *owns* its buffer; the arena only keeps a free list. The
//! pool's high-water mark is therefore bounded by the maximum number of
//! in-flight requests (queue capacity plus one draining batch) — slabs
//! never accumulate beyond what the server actually had in flight at
//! once.
//!
//! ## Accounting
//!
//! The arena counts every byte it genuinely allocates (fresh slabs and
//! capacity growth of recycled ones) into [`Arena::allocated_bytes`] and
//! the `serve.alloc.bytes` trace counter. Reuse costs zero, so in steady
//! state — once the pool holds enough slabs of the right size — the
//! counter stops moving. The arena-reuse test pins exactly that: no
//! allocation growth after warmup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Inner {
    free: Mutex<Vec<Vec<f32>>>,
    allocated: AtomicU64,
}

impl Inner {
    fn count_alloc(&self, floats: usize) {
        let bytes = (floats * std::mem::size_of::<f32>()) as u64;
        self.allocated.fetch_add(bytes, Ordering::Relaxed);
        qnn_trace::counter!("serve.alloc.bytes", bytes);
    }
}

/// A shared pool of reusable `Vec<f32>` slabs. Cloning shares the pool.
#[derive(Clone)]
pub struct Arena {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("free", &self.inner.free.lock().unwrap().len())
            .field("allocated_bytes", &self.allocated_bytes())
            .finish()
    }
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl Arena {
    /// An empty pool.
    pub fn new() -> Arena {
        Arena {
            inner: Arc::new(Inner {
                free: Mutex::new(Vec::new()),
                allocated: AtomicU64::new(0),
            }),
        }
    }

    /// Checks out an empty slab with capacity for at least `capacity`
    /// floats, recycling a pooled buffer when one is available and only
    /// allocating (counted) when the pool is empty or the recycled
    /// buffer is too small.
    pub fn take(&self, capacity: usize) -> Slab {
        let mut data = self.inner.free.lock().unwrap().pop().unwrap_or_default();
        data.clear();
        if data.capacity() < capacity {
            self.inner.count_alloc(capacity - data.capacity());
            data.reserve(capacity - data.capacity());
        }
        Slab {
            data,
            home: Arc::clone(&self.inner),
        }
    }

    /// Total bytes this arena has genuinely allocated since creation.
    /// Flat across steady-state request traffic — the arena-reuse test's
    /// assertion.
    pub fn allocated_bytes(&self) -> u64 {
        self.inner.allocated.load(Ordering::Relaxed)
    }

    /// Slabs currently pooled (checked back in, awaiting reuse).
    pub fn pooled(&self) -> usize {
        self.inner.free.lock().unwrap().len()
    }
}

/// An owned float buffer checked out of an [`Arena`]; returns itself to
/// the pool on drop. Dereferences to the slice; use
/// [`as_mut_vec`](Slab::as_mut_vec) to fill it.
pub struct Slab {
    data: Vec<f32>,
    home: Arc<Inner>,
}

impl Slab {
    /// The underlying vector, for filling the slab in place. Growing it
    /// past the checked-out capacity allocates *uncounted* — callers
    /// should size the [`Arena::take`] hint correctly instead.
    pub fn as_mut_vec(&mut self) -> &mut Vec<f32> {
        &mut self.data
    }
}

impl std::ops::Deref for Slab {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slab({} floats)", self.data.len())
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        self.home.free.lock().unwrap().push(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_allocates_then_reuses() {
        let a = Arena::new();
        {
            let _s = a.take(64);
            assert_eq!(a.allocated_bytes(), 256);
        }
        assert_eq!(a.pooled(), 1);
        {
            // Same-size checkout after return: no new allocation.
            let _s = a.take(64);
            assert_eq!(a.allocated_bytes(), 256);
            assert_eq!(a.pooled(), 0);
        }
        // Growth of a recycled slab counts only the delta.
        let _s = a.take(96);
        assert_eq!(a.allocated_bytes(), 384);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_slabs() {
        let a = Arena::new();
        let mut s1 = a.take(4);
        let mut s2 = a.take(4);
        s1.as_mut_vec().push(1.0);
        s2.as_mut_vec().push(2.0);
        assert_eq!(&s1[..], &[1.0]);
        assert_eq!(&s2[..], &[2.0]);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let a = Arena::new();
        // Warmup: create the pool's working set.
        for _ in 0..4 {
            let mut s = a.take(64);
            s.as_mut_vec().extend(std::iter::repeat_n(0.5, 64));
        }
        let after_warmup = a.allocated_bytes();
        for _ in 0..1000 {
            let mut s = a.take(64);
            s.as_mut_vec().extend(std::iter::repeat_n(0.5, 64));
        }
        assert_eq!(a.allocated_bytes(), after_warmup);
    }
}
