//! A persistent, std-only worker pool with scoped (borrowing) tasks.
//!
//! The parallel hot paths of this workspace — the SpMV applies in
//! `rtk-graph`, the screen phase and batch fan-out in `rtk-query`, and the
//! hub/index builders in `rtk-index` — all follow the same fork/join shape:
//! spawn a handful of workers over borrowed slices, join, continue. Using
//! `std::thread::scope` directly makes every such region pay a full
//! spawn/join round trip; a single reverse top-k query crosses dozens of
//! these regions (one per refinement power iteration), so thread churn
//! dominates small-graph latency.
//!
//! [`WorkerPool`] keeps a fixed set of parked threads alive for the life of
//! the process and re-dispatches them per region via [`WorkerPool::scope`],
//! which mirrors the `std::thread::scope` API: tasks may borrow from the
//! caller's stack, and `scope` does not return until every spawned task has
//! finished (panics are forwarded to the caller). Thread spawn count is
//! therefore *O(pool size)* per process — not per apply, per query, or per
//! refinement iteration — which [`WorkerPool::threads_spawned`] exposes so
//! tests can pin the invariant down.
//!
//! Scheduling details that matter for correctness:
//!
//! * each scope owns its own task queue; the injector only carries "this
//!   scope has work" tickets, so concurrent scopes (e.g. parallel tests)
//!   never steal each other's tasks into the wrong join;
//! * the **caller helps drain its own queue** while waiting. This guarantees
//!   progress even when every pool worker is busy (nested scopes) or the
//!   pool has zero threads, and it means a scope over `N` tasks uses up to
//!   `pool size + 1` execution lanes — the caller's thread was going to
//!   block anyway;
//! * a panicking task poisons nothing: the first payload is captured and
//!   re-thrown from `scope` on the caller's thread after all tasks join.
//!
//! Two ways in, one per loop shape:
//!
//! * [`WorkerPool::claim`] runs a loop over independent items: lanes claim
//!   indices off one counter, each folding into its own state, and the
//!   caller merges the states. Index construction's node sweep and hub
//!   solve, the query's classify and refine passes, and `query_batch` all
//!   run through it, and its one-lane case runs inline with no scope;
//! * [`WorkerPool::scope`] spawns arbitrary borrowing tasks. Outside
//!   `claim`, only the SpMV row split (behind `TransitionMatrix`'s forward
//!   and transpose applies) uses it directly, handing each task a fixed,
//!   disjoint output slice.
//!
//! The pool never re-orders observable results by itself — `claim` callers
//! record each item's index with its output and merge by it, and `scope`
//! callers assign each task a disjoint output slot. That keeps the
//! workspace-wide bitwise-determinism contract intact: the pool changes
//! *when* work runs, never *what* it computes.

// The one unsafe block below (a lifetime transmute on boxed tasks) is what
// lets a long-lived pool run borrowing closures; its soundness argument is
// documented at the site and everything else in the crate stays safe.
#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A type-erased task. Stored as `'static` after the scoped transmute; the
/// scope's join barrier is what makes that fiction sound.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Join-barrier bookkeeping for one scope.
#[derive(Default)]
struct ScopeProgress {
    /// Tasks spawned but not yet finished (queued or running).
    pending: usize,
    /// First panic payload observed among this scope's tasks.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Shared state of one `scope` call: its private task queue plus the join
/// barrier the caller blocks on.
#[derive(Default)]
struct ScopeState {
    tasks: Mutex<VecDeque<Task>>,
    progress: Mutex<ScopeProgress>,
    /// Signalled on every task completion (and late spawn) so the waiting
    /// caller can re-check the barrier and keep helping.
    done: Condvar,
}

impl ScopeState {
    fn pop(&self) -> Option<Task> {
        self.tasks.lock().expect("scope queue poisoned").pop_front()
    }

    /// Runs one task, recording a panic instead of unwinding through the
    /// worker, and wakes the scope's caller.
    fn run(&self, task: Task) {
        let outcome = catch_unwind(AssertUnwindSafe(task));
        let mut progress = self.progress.lock().expect("scope progress poisoned");
        if let Err(payload) = outcome {
            progress.panic.get_or_insert(payload);
        }
        progress.pending -= 1;
        drop(progress);
        self.done.notify_all();
    }
}

/// The pool-wide work feed: one ticket per spawned task. Tickets may be
/// stale (the scope's caller already helped that task away) — workers just
/// find the queue empty and go back to sleep.
struct Injector {
    queue: Mutex<InjectorQueue>,
    ready: Condvar,
}

#[derive(Default)]
struct InjectorQueue {
    tickets: VecDeque<Arc<ScopeState>>,
    shutdown: bool,
}

impl Injector {
    fn push(&self, scope: Arc<ScopeState>) {
        let mut queue = self.queue.lock().expect("injector poisoned");
        queue.tickets.push_back(scope);
        drop(queue);
        self.ready.notify_one();
    }
}

/// A fixed-size pool of parked worker threads executing scoped, borrowing
/// tasks. See the [module docs](self) for the design; in short it is
/// `std::thread::scope` without the per-region spawn/join cost.
///
/// ```
/// let pool = rtk_sparse::WorkerPool::new(2);
/// let mut halves = [0u64, 0];
/// let (a, b) = halves.split_at_mut(1);
/// pool.scope(|s| {
///     s.spawn(|| a[0] = (1..=50).sum());
///     s.spawn(|| b[0] = (51..=100).sum());
/// });
/// assert_eq!(halves[0] + halves[1], 5050);
/// assert_eq!(pool.threads_spawned(), 2); // forever, however many scopes run
/// ```
pub struct WorkerPool {
    injector: Arc<Injector>,
    handles: Vec<JoinHandle<()>>,
    /// Total worker threads ever created by this pool — stays equal to the
    /// construction size for the pool's whole life (workers are never
    /// respawned), which is exactly the reuse invariant tests assert.
    spawned: AtomicUsize,
}

impl WorkerPool {
    /// Creates a pool with `size` parked worker threads. `size == 0` is
    /// valid: every scope then runs entirely on the calling thread (the
    /// caller always helps drain its own queue).
    pub fn new(size: usize) -> Self {
        let injector = Arc::new(Injector {
            queue: Mutex::new(InjectorQueue::default()),
            ready: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(size);
        for i in 0..size {
            let feed = Arc::clone(&injector);
            let handle = std::thread::Builder::new()
                .name(format!("rtk-pool-{i}"))
                .spawn(move || worker_loop(&feed))
                .expect("spawning pool worker");
            handles.push(handle);
        }
        Self { injector, handles, spawned: AtomicUsize::new(size) }
    }

    /// The process-wide shared pool, created on first use with one worker
    /// per available core. All library hot paths dispatch through this —
    /// which is what caps the process at *O(cores)* pool threads total.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
            WorkerPool::new(cores)
        })
    }

    /// Number of worker threads in the pool.
    #[inline]
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Total worker threads this pool has ever spawned. Equal to
    /// [`Self::size`] for the pool's whole life: running more scopes never
    /// spawns more threads.
    #[inline]
    pub fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Runs `f` with a [`PoolScope`] that can spawn tasks borrowing from the
    /// caller's environment, and returns once **all** spawned tasks have
    /// finished. If any task panicked, the first payload is re-thrown here;
    /// if `f` itself unwinds, all already-spawned tasks are still joined
    /// first so no task can outlive the borrows it captured.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::default());
        let scope = PoolScope { pool: self, state: Arc::clone(&state), env: PhantomData };
        let result = {
            // Drop-based join: runs on unwind out of `f` too.
            let _join = JoinGuard { state: &state };
            f(&scope)
        };
        let payload = state.progress.lock().expect("scope progress poisoned").panic.take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        result
    }

    /// Runs `body(&mut state, i)` for every `i` in `0..items` on up to
    /// `lanes` lanes (`0` counts as one) and returns the lanes' final states,
    /// in no set order. Each lane starts from `init()` and claims indices
    /// one at a time off a shared counter, so a lane that draws cheap items
    /// simply claims more of them. One lane runs inline on the caller with
    /// no scope; zero items return no lanes and never call `init`. A panic
    /// in `body` is re-thrown here, as from [`Self::scope`].
    ///
    /// Which lane ran which index is scheduling: callers whose answer must
    /// not depend on it record the index with each output and merge by it.
    pub fn claim<S, I, B>(&self, lanes: usize, items: usize, init: I, body: B) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        B: Fn(&mut S, usize) + Sync,
    {
        if items == 0 {
            return Vec::new();
        }
        let lanes = lanes.clamp(1, items);
        if lanes == 1 {
            let mut state = init();
            for i in 0..items {
                body(&mut state, i);
            }
            return vec![state];
        }
        // `Relaxed` suffices: the counter only hands out indices, and the
        // states reach the caller through the scope's join.
        let next = AtomicUsize::new(0);
        let mut states: Vec<Option<S>> = (0..lanes).map(|_| None).collect();
        self.scope(|s| {
            for slot in &mut states {
                let (next, init, body) = (&next, &init, &body);
                s.spawn(move || {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        body(&mut state, i);
                    }
                    *slot = Some(state);
                });
            }
        });
        states.into_iter().flatten().collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.injector.queue.lock().expect("injector poisoned");
            queue.shutdown = true;
        }
        self.injector.ready.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a task would surface here; tasks
            // themselves are caught, so this join is expected to succeed.
            let _ = handle.join();
        }
    }
}

fn worker_loop(injector: &Injector) {
    loop {
        let scope = {
            let mut queue = injector.queue.lock().expect("injector poisoned");
            loop {
                if let Some(scope) = queue.tickets.pop_front() {
                    break scope;
                }
                if queue.shutdown {
                    return;
                }
                queue = injector.ready.wait(queue).expect("injector poisoned");
            }
        };
        // One ticket ↔ at most one task; a stale ticket is a cheap no-op.
        if let Some(task) = scope.pop() {
            scope.run(task);
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`]. Mirrors
/// `std::thread::Scope`: tasks may borrow anything that outlives `'env`.
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Queues `f` for execution by a pool worker (or by the scope's caller
    /// while it waits). Completion — and any panic — is observed by the
    /// enclosing [`WorkerPool::scope`] call before it returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the task is type-erased to `'static` so a long-lived
        // worker thread can hold it, but it never outlives `'env`: the
        // enclosing `scope` call blocks (in `JoinGuard::drop`) until
        // `pending == 0`, i.e. until this task has finished running, before
        // any `'env` borrow it captured can expire. The box's layout is
        // identical; only the lifetime parameter is erased.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
        // Barrier increment must precede queue publication: a worker may
        // run the task the instant it is visible.
        self.state.progress.lock().expect("scope progress poisoned").pending += 1;
        self.state.tasks.lock().expect("scope queue poisoned").push_back(task);
        self.pool.injector.push(Arc::clone(&self.state));
        // Wake the caller too, in case it is already parked on the barrier
        // with no pool workers to hand the task to.
        self.state.done.notify_all();
    }
}

/// Blocks until every task of `state` has finished, helping to run queued
/// tasks on the current thread while waiting. Implemented as a `Drop` guard
/// so the join also happens when the scope closure unwinds.
struct JoinGuard<'a> {
    state: &'a ScopeState,
}

impl Drop for JoinGuard<'_> {
    fn drop(&mut self) {
        loop {
            while let Some(task) = self.state.pop() {
                self.state.run(task);
            }
            let progress = self.state.progress.lock().expect("scope progress poisoned");
            if progress.pending == 0 {
                return;
            }
            // In-flight tasks on pool workers: wait for one to finish, then
            // loop back and keep helping.
            let _unused = self.state.done.wait(progress).expect("scope progress poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tasks_borrow_and_join_before_scope_returns() {
        let pool = WorkerPool::new(2);
        let mut data = vec![0u64; 64];
        pool.scope(|s| {
            for (i, chunk) in data.chunks_mut(16).enumerate() {
                s.spawn(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (i * 16 + j) as u64;
                    }
                });
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn many_scopes_never_respawn_threads() {
        // The acceptance invariant: thread spawn count is O(pool size) per
        // pool lifetime, not O(scopes) — 200 fork/join regions later the
        // pool has still only ever created its construction-time threads.
        let pool = WorkerPool::new(3);
        let ran = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 200 * 8);
        assert_eq!(pool.threads_spawned(), 3);
        assert_eq!(pool.size(), 3);
    }

    #[test]
    fn zero_sized_pool_runs_everything_on_the_caller() {
        let pool = WorkerPool::new(0);
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        pool.scope(|s| {
            let seen = &mut seen;
            s.spawn(move || seen.push(std::thread::current().id()));
        });
        assert_eq!(seen, vec![caller]);
        assert_eq!(pool.threads_spawned(), 0);
    }

    #[test]
    fn nested_scopes_make_progress_even_on_a_tiny_pool() {
        // A task that itself opens a scope must not deadlock when every
        // worker is busy: the inner scope's caller (the lone worker) helps
        // drain its own queue.
        let pool = WorkerPool::new(1);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            let total = &total;
            let pool = &pool;
            outer.spawn(move || {
                pool.scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(|| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
        assert_eq!(pool.threads_spawned(), 1);
    }

    #[test]
    fn task_panics_propagate_to_the_scope_caller() {
        let pool = WorkerPool::new(2);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("screen worker exploded"));
                s.spawn(|| { /* healthy sibling still joins */ });
            });
        }));
        let payload = outcome.expect_err("panic must cross the scope");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "screen worker exploded");
        // The pool survives a panicked task and keeps serving scopes.
        let mut x = 0u32;
        pool.scope(|s| {
            let x = &mut x;
            s.spawn(move || *x = 7);
        });
        assert_eq!(x, 7);
    }

    #[test]
    fn claim_visits_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        for lanes in [0usize, 1, 2, 3, 8] {
            for items in [1usize, 7, 100] {
                let states = pool.claim(lanes, items, Vec::new, |seen, i| seen.push(i));
                assert_eq!(states.len(), lanes.max(1).min(items), "lanes={lanes} items={items}");
                let mut seen: Vec<usize> = states.into_iter().flatten().collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..items).collect::<Vec<_>>(), "lanes={lanes} items={items}");
            }
        }
    }

    #[test]
    fn claim_over_no_items_returns_no_lanes() {
        let pool = WorkerPool::new(2);
        let states: Vec<()> =
            pool.claim(4, 0, || panic!("init must not run"), |_, _| panic!("no items"));
        assert!(states.is_empty());
    }

    #[test]
    fn one_lane_claims_on_the_calling_thread() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let states =
            pool.claim(1, 5, Vec::new, |threads, _| threads.push(std::thread::current().id()));
        assert_eq!(states, vec![vec![caller; 5]]);
    }

    #[test]
    fn claim_panics_propagate_and_the_pool_keeps_serving() {
        let pool = WorkerPool::new(2);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.claim(3, 20, || (), |_, i| assert_ne!(i, 11, "item eleven exploded"));
        }));
        let payload = outcome.expect_err("panic must cross the claim");
        let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("item eleven exploded"), "{message}");
        let sums = pool.claim(3, 20, || 0usize, |sum, i| *sum += i);
        assert_eq!(sums.iter().sum::<usize>(), (0..20).sum());
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_machine() {
        let pool = WorkerPool::global();
        assert!(std::ptr::eq(pool, WorkerPool::global()));
        assert_eq!(pool.threads_spawned(), pool.size());
        let mut out = vec![0u32; 8];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u32 + 1);
            }
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
