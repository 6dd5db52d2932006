//! Per-thread scratch pools: a thread-local slot backed by a bounded
//! global free list.
//!
//! The executor and the rayon shim spawn fresh scoped worker threads per
//! parallel region, so warm scratch (SSSP engines, De Pina buffers,
//! Brandes path DAGs) must outlive the thread that last used it. A pool
//! hands out the calling thread's parked value, else a spare from the free
//! list, else a fresh `T::default()`, and parks it in the thread's slot
//! afterwards; the slot's destructor returns it to the free list at thread
//! exit. The bound keeps a burst of short-lived threads from hoarding
//! memory. A static cannot be generic, so [`scratch_pool!`](crate::scratch_pool)
//! declares each pool's static, its thread-local slot and its `with_*`
//! function.

use std::cell::RefCell;
use std::sync::Mutex;
use std::thread::LocalKey;

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
