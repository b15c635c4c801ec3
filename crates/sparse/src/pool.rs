//! A tiny object pool for per-thread scratch reuse.
//!
//! The parallel query path hands each refine lane its own solver scratch
//! (dense epoch buffers sized to the graph). Allocating those per query would
//! dominate small queries, so sessions keep a [`ScratchPool`]: a lane takes
//! an object when it starts, the caller puts it back when it folds the
//! lanes' results, and the buffers survive across queries. The pool is
//! deliberately dumb — a mutexed free list, locked only at lane start and
//! at the fold, never inside hot loops.

use std::sync::Mutex;

/// A mutexed free list of reusable scratch objects.
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> ScratchPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self { free: Mutex::new(Vec::new()) }
    }

    /// Takes a pooled object, or builds a fresh one with `make` when the
    /// pool is empty (first use, or more concurrent workers than ever
    /// before).
    pub fn take_with(&self, make: impl FnOnce() -> T) -> T {
        let pooled = self.free.lock().expect("scratch pool poisoned").pop();
        pooled.unwrap_or_else(make)
    }

    /// Returns an object to the pool for the next worker.
    pub fn put(&self, item: T) {
        self.free.lock().expect("scratch pool poisoned").push(item);
    }

    /// Number of idle objects currently pooled.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }

    /// Drops every pooled object (e.g. when the graph they were sized for
    /// goes away).
    pub fn clear(&self) {
        self.free.lock().expect("scratch pool poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_makes_when_empty_and_reuses_after_put() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        let mut a = pool.take_with(|| vec![1, 2, 3]);
        assert_eq!(a, vec![1, 2, 3]);
        a.push(4);
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        // Reuse keeps the mutated object — pools recycle, not reset.
        let b = pool.take_with(|| unreachable!("pool should not be empty"));
        assert_eq!(b, vec![1, 2, 3, 4]);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn concurrent_workers_share_the_pool() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let mut v = pool.take_with(|| Vec::with_capacity(16));
                        v.push(1);
                        pool.put(v);
                    }
                });
            }
        });
        // At most 4 objects ever existed.
        assert!(pool.idle() <= 4);
        pool.clear();
        assert_eq!(pool.idle(), 0);
    }
}
