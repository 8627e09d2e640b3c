//! Minimal scoped thread pool with deterministic partitioning.
//!
//! The compute kernels (`matmul` row panels, per-image conv work,
//! fake-quantize passes) and the experiment runner fan work out over
//! scoped standard-library threads — no external runtime. Every fan-out in
//! the crate goes through one private helper, `run_parts`: given a list of
//! parts, it runs the first on the calling thread and each of the others
//! on a scoped worker. Zero or one part is a plain call on the caller — no
//! spawn, no nested flag, no trace capture — so a single-threaded region
//! spawns nothing and leaves the kernels it calls free to use the pool.
//! Three invariants make this safe to use everywhere:
//!
//! 1. **Determinism:** work is split into *fixed* units whose boundaries do
//!    not depend on the thread count (contiguous index ranges for disjoint
//!    outputs; fixed-size blocks for reductions, combined sequentially in
//!    block order). Results are bit-identical at any thread count.
//! 2. **No nesting blow-up:** with two or more parts, every part (the
//!    caller's too) runs with a thread-local nested flag raised, so the
//!    parallel regions it opens run serially and a parallel sweep over
//!    training runs does not multiply into `T²` threads. A drop guard
//!    lowers the flag, so it is restored when a part panics and the caller
//!    catches the panic: later regions on that thread fan out again.
//! 3. **Panics propagate:** a worker's panic resumes on the caller.
//!
//! The thread count defaults to the host parallelism, can be pinned with the
//! `QNN_THREADS` environment variable, and can be overridden at runtime with
//! [`set_threads`] (used by the determinism regression tests to compare
//! 1-thread and N-thread execution on the same host).
//!
//! **Tracing.** When a `qnn_trace` session is active, every worker records
//! its telemetry into a [`qnn_trace::capture`] buffer and the caller
//! [`qnn_trace::splice`]s the buffers back in part order after the join —
//! so the trace event stream, like the numeric results, is bit-identical
//! at any thread count. Disabled tracing costs one atomic load per worker.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runtime override set by [`set_threads`]; 0 means "no override".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Default thread count: `QNN_THREADS` if set and valid, else host parallelism.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("QNN_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// Non-zero while this thread runs a part of a multi-part region.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The number of worker threads parallel regions will use.
pub fn threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the thread count process-wide; `None` restores the default
/// (`QNN_THREADS` or host parallelism). Results are bit-identical at any
/// setting; this only changes how work is distributed.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// True when called from inside a part of an enclosing parallel region.
pub(crate) fn is_nested() -> bool {
    DEPTH.with(|d| d.get() > 0)
}

/// The nested flag, raised for as long as this guard lives. Dropping it
/// lowers the flag on unwind as well as on return.
struct Nested;

impl Nested {
    fn raise() -> Nested {
        DEPTH.with(|d| d.set(d.get() + 1));
        Nested
    }
}

impl Drop for Nested {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Runs `f` on every part: the first on the calling thread, each of the
/// others on a scoped worker, all with the nested flag raised. Zero or one
/// part is a plain call on the caller. Each worker's trace is captured and
/// spliced back in part order, so the event stream does not depend on how
/// many parts ran; a worker's panic resumes on the caller.
pub(crate) fn run_parts<P: Send>(parts: Vec<P>, f: impl Fn(P) + Sync) {
    if parts.len() <= 1 {
        parts.into_iter().for_each(f);
        return;
    }
    let f = &f;
    let mut parts = parts.into_iter();
    let own = parts.next().expect("two or more parts");
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .map(|part| {
                s.spawn(move || {
                    let _nested = Nested::raise();
                    qnn_trace::capture(|| f(part)).1
                })
            })
            .collect();
        {
            let _nested = Nested::raise();
            f(own);
        }
        for h in handles {
            match h.join() {
                Ok(buf) => qnn_trace::splice(buf),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
}

/// Splits `data` into one slab per range, `unit` elements per index, in
/// range order; the last slab takes what is left when `data` ends short.
pub(crate) fn split_ranges<'a, T>(
    data: &'a mut [T],
    ranges: &[Range<usize>],
    unit: usize,
) -> Vec<(Range<usize>, &'a mut [T])> {
    let mut rest = data;
    ranges
        .iter()
        .map(|range| {
            let take = (range.len() * unit).min(rest.len());
            let (slab, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            (range.clone(), slab)
        })
        .collect()
}

/// Effective worker count for a region of `n_units` independent units:
/// 1 when nested or single-threaded, never more than `n_units`.
pub(crate) fn workers_for(n_units: usize) -> usize {
    if is_nested() {
        return 1;
    }
    threads().min(n_units).max(1)
}

/// Splits `0..n` into `w` contiguous ranges whose sizes differ by at most
/// one. The partition depends only on `(n, w)`.
pub fn partition(n: usize, w: usize) -> Vec<Range<usize>> {
    let w = w.max(1);
    let base = n / w;
    let extra = n % w;
    let mut out = Vec::with_capacity(w);
    let mut start = 0;
    for i in 0..w {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// Each unit of work is identified by its index alone, so the output is
/// independent of the thread count.
pub fn map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_with_workers(n, workers_for(n), f)
}

/// [`map`] with an explicit worker cap, decoupled from the global
/// [`threads`] setting: uses at most `max_workers` threads (still 1 when
/// nested, never more than `n`). Callers with their own concurrency knob
/// — the serving engine's `--engine-threads` — fan out through this so
/// the compute pool's `QNN_THREADS` setting keeps its meaning.
pub fn map_capped<R, F>(n: usize, max_workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let w = if is_nested() {
        1
    } else {
        max_workers.min(n).max(1)
    };
    map_with_workers(n, w, f)
}

fn map_with_workers<R, F>(n: usize, w: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let parts = split_ranges(&mut slots, &partition(n, w), 1);
    run_parts(parts, |(range, slab)| {
        for (slot, i) in slab.iter_mut().zip(range) {
            *slot = Some(f(i));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("a part filled every slot"))
        .collect()
}

/// Splits `data` into chunks of `chunk_len` (last may be short) and applies
/// `f(chunk_index, chunk)` in parallel. Chunk boundaries depend only on
/// `chunk_len`, so in-place transforms are bit-identical at any thread count.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let parts = split_ranges(data, &partition(n_chunks, workers_for(n_chunks)), chunk_len);
    run_parts(parts, |(range, slab)| {
        for (ci, chunk) in range.zip(slab.chunks_mut(chunk_len)) {
            f(ci, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_exact_and_balanced() {
        for n in [0usize, 1, 7, 8, 9, 100] {
            for w in 1..6 {
                let parts = partition(n, w);
                assert_eq!(parts.len(), w);
                assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), n);
                let max = parts.iter().map(|r| r.len()).max().unwrap();
                let min = parts.iter().map(|r| r.len()).min().unwrap();
                assert!(max - min <= 1, "n={n} w={w} {parts:?}");
                // Contiguity.
                let mut next = 0;
                for r in &parts {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn map_returns_in_index_order() {
        for w in [1usize, 2, 3, 8] {
            set_threads(Some(w));
            let out = map(57, |i| i * i);
            assert_eq!(out, (0..57).map(|i| i * i).collect::<Vec<_>>());
        }
        set_threads(None);
    }

    #[test]
    fn map_capped_ignores_the_global_setting() {
        set_threads(Some(1));
        // Even at QNN_THREADS=1, an explicit cap of 4 parallelises — and
        // still returns results in index order.
        let out = map_capped(10, 4, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        // Nested regions stay serial regardless of the cap.
        let nested = map_capped(2, 2, |_| map_capped(2, 2, |_| is_nested()));
        set_threads(None);
        assert!(nested.iter().flatten().all(|&n| n));
    }

    #[test]
    fn chunked_transform_is_thread_count_invariant() {
        let base: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        let mut one = base.clone();
        set_threads(Some(1));
        for_each_chunk_mut(&mut one, 64, |_, c| c.iter_mut().for_each(|x| *x = x.sin()));
        let mut four = base.clone();
        set_threads(Some(4));
        for_each_chunk_mut(&mut four, 64, |_, c| {
            c.iter_mut().for_each(|x| *x = x.sin())
        });
        set_threads(None);
        assert_eq!(one, four);
    }

    #[test]
    fn nested_regions_run_serial() {
        set_threads(Some(4));
        let out = map(4, |i| {
            assert!(is_nested() || threads() == 1 || workers_for(8) >= 1);
            // Inside a worker, further regions must not spawn.
            map(3, move |j| (i, j, is_nested()))
        });
        set_threads(None);
        for (i, inner) in out.iter().enumerate() {
            for (j, (ii, jj, nested)) in inner.iter().enumerate() {
                assert_eq!((*ii, *jj), (i, j));
                assert!(*nested);
            }
        }
    }

    #[test]
    fn a_panic_caught_on_the_caller_lowers_the_nested_flag() {
        // Part 0 runs on this thread and panics; part 1 runs on a worker.
        // `map_capped` fans out whatever the global setting, which other
        // tests change concurrently.
        let caught = std::panic::catch_unwind(|| {
            map_capped(2, 2, |i| if i == 0 { panic!("part 0") } else { i })
        });
        assert!(caught.is_err());
        // Left raised, the flag would keep every later region on this
        // thread serial.
        assert!(!is_nested());
    }
}
