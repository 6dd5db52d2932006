//! Parallel regions, and the per-thread scratch pools that outlive them.
//!
//! [`par_map`] and [`par_map_mut`] are the workspace's one parallel map:
//! each call opens a region of fresh scoped worker threads, which claim
//! chunks of the input from a shared queue until it drains (workunit
//! batches here are deliberately non-uniform, so a thread that finishes
//! early keeps pulling work). Results come back in input order, and a
//! worker's panic is re-raised in the caller with its payload. The
//! region's width is [`threads`], read once per process.
//!
//! Region threads die when the region ends, so warm scratch (SSSP
//! engines, De Pina buffers, Brandes path DAGs) must outlive the thread
//! that last used it. A scratch pool hands out the calling thread's
//! parked value, else a spare from a bounded global free list, else a
//! fresh `T::default()`, and parks it in the thread's slot afterwards; the
//! slot's destructor returns it to the free list at thread exit. The bound
//! keeps a burst of short-lived threads from hoarding memory. A static
//! cannot be generic, so [`scratch_pool!`](crate::scratch_pool) declares
//! each pool's static, its thread-local slot and its `with_*` function.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::thread::LocalKey;

/// The width of every parallel region: the host's available parallelism,
/// read on first use and kept for the life of the process.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on a parallel region; the results are in input
/// order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunks = items.chunks(chunk_len(items.len()));
    run_chunks(items.len(), chunks, |c| c.iter().map(&f).collect())
}

/// [`par_map`] over mutable items: each item is handed to exactly one
/// call of `f`.
pub fn par_map_mut<T: Send, R: Send>(items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R> {
    let len = items.len();
    let chunks = items.chunks_mut(chunk_len(len));
    run_chunks(len, chunks, |c| c.iter_mut().map(&f).collect())
}

/// Items per claimed chunk: a quarter of a fair share, so threads that
/// finish early find work left to claim.
fn chunk_len(len: usize) -> usize {
    len.div_ceil(threads().min(len.max(1)) * 4).max(1)
}

/// The scheduling core: up to [`threads`] workers pull numbered chunks
/// from one queue, holding its lock only to take the next chunk, and the
/// per-chunk results are stitched back in chunk order. Each worker roots
/// the span stacks it publishes at the caller's open stack, so a sampled
/// stack from inside the region starts where the caller's does.
fn run_chunks<C: Send, R: Send>(
    len: usize,
    chunks: impl Iterator<Item = C> + Send,
    work: impl Fn(C) -> Vec<R> + Sync,
) -> Vec<R> {
    let workers = threads().min(len);
    if workers <= 1 {
        return chunks.flat_map(work).collect();
    }
    let queue = Mutex::new(chunks.enumerate());
    let claim = || queue.lock().expect("taking a chunk never panics").next();
    let root = ear_obs::open_stack();
    let worker = || {
        root.adopt();
        std::iter::from_fn(claim)
            .map(|(k, c)| (k, work(c)))
            .collect::<Vec<_>>()
    };
    let mut pieces: Vec<(usize, Vec<R>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    pieces.sort_unstable_by_key(|&(k, _)| k);
    let mut out = Vec::with_capacity(len);
    for (_, piece) in pieces {
        out.extend(piece);
    }
    out
}

/// A bounded global free list of `T`, counting thread-slot hits, free-list
/// hits and misses under three counter names when given.
pub struct ScratchPool<T: 'static> {
    free: Mutex<Vec<T>>,
    bound: usize,
    counters: Option<[&'static str; 3]>,
}

/// One thread's parked value; dropping the slot at thread exit recycles it.
pub struct Slot<T: 'static>(&'static ScratchPool<T>, RefCell<Option<T>>);

impl<T> Slot<T> {
    /// An empty slot feeding `pool`.
    pub const fn new(pool: &'static ScratchPool<T>) -> Self {
        Slot(pool, RefCell::new(None))
    }
}

impl<T> Drop for Slot<T> {
    fn drop(&mut self) {
        if let Some(t) = self.1.get_mut().take() {
            self.0.recycle(t);
        }
    }
}

impl<T> ScratchPool<T> {
    /// An empty pool keeping at most `bound` spare values.
    pub const fn new(bound: usize, counters: Option<[&'static str; 3]>) -> Self {
        let free = Mutex::new(Vec::new());
        ScratchPool {
            free,
            bound,
            counters,
        }
    }

    fn recycle(&self, t: T) {
        if let Ok(mut free) = self.free.lock() {
            if free.len() < self.bound {
                free.push(t);
            }
        }
    }
}

impl<T: Default> ScratchPool<T> {
    /// Runs `f` with a pooled value, parking it in `slot` afterwards.
    pub fn with<R>(&self, slot: &'static LocalKey<Slot<T>>, f: impl FnOnce(&mut T) -> R) -> R {
        let (mut t, hit) = match slot.try_with(|s| s.1.take()) {
            Ok(Some(t)) => (t, 0),
            _ => match self.free.lock().ok().and_then(|mut v| v.pop()) {
                Some(t) => (t, 1),
                None => (T::default(), 2),
            },
        };
        if let Some(names) = self.counters {
            ear_obs::counter_add(names[hit], 1);
        }
        let r = f(&mut t);
        // A nested call can displace a parked value; keep both. On a
        // thread that is tearing down, `t` is dropped here.
        if let Ok(Some(displaced)) = slot.try_with(|s| s.1.replace(Some(t))) {
            self.recycle(displaced);
        }
        r
    }
}

/// Declares a scratch pool of `T: Default` keeping at most `bound` spares,
/// and its accessor `fn name<R>(f: impl FnOnce(&mut T) -> R) -> R`. With
/// `counters = "prefix"` it counts `prefix.tls_hits`,
/// `prefix.freelist_hits` and `prefix.misses`.
///
/// ```
/// ear_graph::scratch_pool! {
///     /// Runs `f` with a pooled buffer.
///     pub fn with_buffer(Vec<u64>, bound = 8);
/// }
/// with_buffer(|b| b.push(7));
/// // The thread's buffer comes back warm.
/// assert_eq!(with_buffer(|b| b.len()), 1);
/// ```
#[macro_export]
macro_rules! scratch_pool {
    (@counters) => {
        None
    };
    (@counters $prefix:literal) => {
        Some([
            concat!($prefix, ".tls_hits"),
            concat!($prefix, ".freelist_hits"),
            concat!($prefix, ".misses"),
        ])
    };
    ($(#[$attr:meta])* $vis:vis fn $name:ident($ty:ty, bound = $bound:expr $(, counters = $prefix:literal)?);) => {
        $(#[$attr])*
        $vis fn $name<R>(f: impl FnOnce(&mut $ty) -> R) -> R {
            static POOL: $crate::pool::ScratchPool<$ty> =
                $crate::pool::ScratchPool::new($bound, $crate::scratch_pool!(@counters $($prefix)?));
            ::std::thread_local! {
                static SLOT: $crate::pool::Slot<$ty> = const { $crate::pool::Slot::new(&POOL) };
            }
            POOL.with(&SLOT, f)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::{par_map, par_map_mut};

    #[test]
    fn par_map_keeps_input_order() {
        let xs: Vec<u64> = (0..10_000).collect();
        let ys = par_map(&xs, |&x| x * 2);
        assert_eq!(ys, xs.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert!(par_map(&[] as &[u8], |&x| x).is_empty());
    }

    #[test]
    fn par_map_mut_writes_each_item_once() {
        let mut xs = vec![0u32; 1000];
        let seen = par_map_mut(&mut xs, |x| {
            *x += 1;
            *x
        });
        assert!(xs.iter().all(|&x| x == 1));
        assert_eq!(seen, xs);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let xs: Vec<u32> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(&xs, |&x| if x == 40 { panic!("boom at {x}") } else { x })
        });
        let payload = r.unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom at 40");
    }

    #[test]
    fn a_finished_thread_hands_its_value_to_the_next() {
        crate::scratch_pool! {
            fn with_buffer(Vec<u64>, bound = 1);
        }
        std::thread::spawn(|| with_buffer(|b| b.push(7)))
            .join()
            .unwrap();
        // The first thread's slot recycled its buffer at exit; a fresh
        // thread draws it from the free list.
        let len = std::thread::spawn(|| with_buffer(|b| b.len())).join();
        assert_eq!(len.unwrap(), 1);
    }

    #[test]
    fn nested_calls_keep_both_values() {
        crate::scratch_pool! {
            fn with_buffer(Vec<u64>, bound = 1);
        }
        let inner = with_buffer(|outer| {
            outer.push(1);
            with_buffer(|inner| {
                inner.push(2);
                inner.len()
            })
        });
        // The nested call could not reuse the checked-out buffer; the
        // outer one displaced it from the slot into the free list.
        assert_eq!(inner, 1);
        assert_eq!(with_buffer(|b| b.clone()), [1]);
        assert_eq!(with_buffer(|b| b.clone()), [1]);
        let spare = std::thread::spawn(|| with_buffer(|b| b.clone())).join();
        assert_eq!(spare.unwrap(), [2]);
    }
}
