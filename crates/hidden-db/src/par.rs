//! Concurrency primitives shared by the whole workspace: the scoped
//! [`fan_out`] function and the persistent [`WorkerPool`].
//!
//! Both layers of the system parallelise through the same claiming
//! contract: tasks are claimed from a shared atomic dispenser (each index
//! runs exactly once), results are keyed by task index, and the caller
//! merges them in an order-independent way — so thread scheduling can
//! never leak into a result. The estimation engine in `hdb-core` fans
//! independent drill-down *passes* through [`fan_out`] (re-exported there
//! as `hdb_core::engine::fan_out`, one thread scope per estimator run —
//! the spawn cost amortises over the run), while per-*query* work
//! ([`ShardedDb`](crate::ShardedDb) shard evaluation,
//! [`FederatedBackend`](crate::FederatedBackend) fleet fan-out) runs on a
//! [`WorkerPool`], whose threads persist across calls so a single
//! drill-down probe never pays a thread spawn.
//!
//! The worker count defaults to [`default_workers`], which honours the
//! `HDB_ENGINE_WORKERS` environment variable (CI runs the test suite
//! under both `=1` and `=4`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Environment variable consulted by [`default_workers`].
pub const WORKERS_ENV: &str = "HDB_ENGINE_WORKERS";

/// The worker count used when the caller does not pick one explicitly:
/// `HDB_ENGINE_WORKERS` if set to a positive integer, otherwise the
/// machine's available parallelism capped at 8 (the workloads fanned here
/// are query-bound, not memory-bound; more threads than that only adds
/// contention on the simulator's shared counters).
#[must_use]
pub fn default_workers() -> usize {
    std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
        })
}

/// Outcome of a [`fan_out`]: per-task results (unordered), how many task
/// indices were claimed, and the first error any worker hit.
pub struct FanOut<T, E> {
    /// `(task_index, result)` pairs from completed tasks, in arbitrary
    /// arrival order — merge them order-independently (sort by index, or
    /// fold through an order-insensitive reduction).
    pub results: Vec<(u64, T)>,
    /// One past the highest task index handed to a worker.
    pub claimed: u64,
    /// The first error observed (workers stop claiming once one is set).
    pub error: Option<E>,
}

/// The shared state of one fan-out run: the dispenser every participating
/// thread claims from, plus the merged results. One `RunCtx` lives on the
/// initiating caller's stack for exactly the duration of the run — both
/// the scoped-thread [`fan_out`] and [`WorkerPool::fan_out`] drive it.
struct RunCtx<T, E, F> {
    tasks: u64,
    dispenser: AtomicU64,
    stop: AtomicBool,
    first_error: Mutex<Option<E>>,
    results: Mutex<Vec<(u64, T)>>,
    run_task: F,
}

impl<T, E, F> RunCtx<T, E, F>
where
    T: Send,
    E: Send,
    F: Fn(u64) -> Result<T, E> + Sync,
{
    fn new(tasks: u64, run_task: F) -> Self {
        Self {
            tasks,
            dispenser: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            first_error: Mutex::new(None),
            results: Mutex::new(Vec::new()),
            run_task,
        }
    }

    /// The claiming loop: run on the caller and every helper thread.
    /// Results accumulate thread-locally and merge once at the end, so
    /// the only cross-thread traffic during the run is the dispenser.
    fn work(&self) {
        let mut local: Vec<(u64, T)> = Vec::new();
        loop {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let idx = self.dispenser.fetch_add(1, Ordering::Relaxed);
            if idx >= self.tasks {
                // undo the overshoot so `claimed` stays meaningful
                self.dispenser.fetch_sub(1, Ordering::Relaxed);
                break;
            }
            match (self.run_task)(idx) {
                Ok(result) => local.push((idx, result)),
                Err(e) => {
                    self.stop.store(true, Ordering::Release);
                    let mut slot = self.first_error.lock().expect("error slot poisoned");
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            }
        }
        if !local.is_empty() {
            self.results.lock().expect("results poisoned").append(&mut local);
        }
    }

    fn into_fan_out(self) -> FanOut<T, E> {
        let claimed = self.dispenser.load(Ordering::Relaxed).min(self.tasks);
        FanOut {
            results: self.results.into_inner().expect("results poisoned"),
            claimed,
            error: self.first_error.into_inner().expect("error slot poisoned"),
        }
    }
}

/// Runs `run_task(i)` for `i` in `0..tasks` across `workers` OS threads
/// (the calling thread plus `workers - 1` scoped spawns).
///
/// Task indices are claimed from a shared atomic dispenser, so each index
/// runs exactly once; results are collected per worker and merged after
/// the join, so the only cross-thread traffic during the run is the
/// dispenser and whatever synchronisation `run_task` does internally.
/// With `workers == 1` the claiming loop runs on the calling thread (no
/// spawn cost) and therefore executes tasks in canonical index order —
/// the property the estimation engine relies on for deterministic
/// budget-exhaustion behaviour.
///
/// For *per-query* fan-outs (one per drill-down probe) prefer
/// [`WorkerPool::fan_out`], which reuses persistent threads instead of
/// spawning per call.
///
/// ```
/// use hdb_interface::par::fan_out;
///
/// // Sum the squares of 0..10 across 4 workers. The per-index results
/// // arrive in arbitrary order; the sum is order-independent.
/// let out = fan_out(10, 4, |i| Ok::<u64, String>(i * i));
/// assert_eq!(out.claimed, 10);
/// assert!(out.error.is_none());
/// let total: u64 = out.results.iter().map(|&(_, sq)| sq).sum();
/// assert_eq!(total, 285);
/// ```
pub fn fan_out<T, E, F>(tasks: u64, workers: usize, run_task: F) -> FanOut<T, E>
where
    T: Send,
    E: Send,
    F: Fn(u64) -> Result<T, E> + Sync,
{
    let workers = workers
        .max(1)
        .min(usize::try_from(tasks).unwrap_or(usize::MAX).max(1));
    let ctx = RunCtx::new(tasks, run_task);
    if workers == 1 {
        // In-thread fast path: identical claiming logic, no spawn cost,
        // canonical (ascending) execution order.
        ctx.work();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(|| ctx.work())).collect();
            ctx.work();
            for h in handles {
                h.join().expect("fan-out worker panicked");
            }
        });
    }
    ctx.into_fan_out()
}

/// A queued pool job: boxed so owned jobs and scoped fan-out helpers
/// travel through the same queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    queue: Mutex<PoolQueue>,
    available: Condvar,
    /// Jobs accepted onto the queue so far (telemetry).
    enqueued: AtomicU64,
    /// Deepest the queue has ever been (telemetry).
    depth_high: AtomicU64,
}

/// A pointer to a [`RunCtx`] with its type erased, handed to pool helper
/// threads through the [`Gate`]. Sound to send across threads because the
/// gate protocol guarantees the pointee outlives every dereference (see
/// [`WorkerPool::fan_out`]).
#[derive(Clone, Copy)]
struct ErasedCtx {
    ptr: *const (),
    // SAFETY: `run` may only be invoked while the gate protocol holds the
    // pointee alive, and `ptr` must point at the `RunCtx` type `run` was
    // instantiated for — both upheld by `fan_out`, the sole constructor.
    run: unsafe fn(*const ()),
}

// SAFETY: the pointee is a `RunCtx` whose T/E/F are all `Send`/`Sync`
// (enforced by the bounds on `WorkerPool::fan_out`), and the gate keeps
// it alive for as long as any helper can reach it.
unsafe impl Send for ErasedCtx {}

/// Synchronises one scoped [`WorkerPool::fan_out`] run with the helper
/// jobs it enqueued: helpers register before touching the context and
/// deregister after; the initiating caller revokes the context and then
/// waits for every registered helper to finish before returning.
#[derive(Default)]
struct Gate {
    slot: Mutex<GateSlot>,
    done: Condvar,
}

#[derive(Default)]
struct GateSlot {
    job: Option<ErasedCtx>,
    active: usize,
}

/// A persistent pool of worker threads.
///
/// [`WorkerPool::fan_out`] runs a *scoped* fan-out over borrowed data —
/// how [`ShardedDb`](crate::ShardedDb) evaluates shards per probe without
/// paying a thread spawn per AND. Its helpers ride the pool's job queue
/// as owned jobs, and the calling thread always participates, so a busy
/// pool degrades to in-thread execution, never to a deadlock.
///
/// Dropping the pool finishes the jobs currently running, discards any
/// still queued, and joins the threads.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.handles.len()).finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` persistent worker threads.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a worker pool needs at least one thread");
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(PoolQueue { jobs: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
            enqueued: AtomicU64::new(0),
            depth_high: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = inner.queue.lock().expect("pool queue poisoned");
                        loop {
                            if q.shutdown {
                                return;
                            }
                            if let Some(job) = q.jobs.pop_front() {
                                break job;
                            }
                            q = inner.available.wait(q).expect("pool queue poisoned");
                        }
                    };
                    job();
                })
            })
            .collect();
        Self { inner, handles }
    }

    /// Number of persistent threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Jobs accepted onto the queue so far (telemetry; scoped fan-out
    /// helper jobs included).
    #[must_use]
    pub fn jobs_enqueued(&self) -> u64 {
        self.inner.enqueued.load(Ordering::Relaxed)
    }

    /// The deepest the job queue has ever been (telemetry) — sustained
    /// growth here means the pool is under-provisioned for its offered
    /// load.
    #[must_use]
    pub fn queue_depth_high_water(&self) -> u64 {
        self.inner.depth_high.load(Ordering::Relaxed)
    }

    /// Enqueues an owned job; some pool thread runs it eventually. Jobs
    /// are claimed in FIFO order.
    fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = self.inner.queue.lock().expect("pool queue poisoned");
        if q.shutdown {
            return; // racing a drop: the job is discarded, like the rest of the queue
        }
        q.jobs.push_back(Box::new(job));
        let depth = q.jobs.len() as u64;
        drop(q);
        self.inner.enqueued.fetch_add(1, Ordering::Relaxed);
        self.inner.depth_high.fetch_max(depth, Ordering::Relaxed);
        self.inner.available.notify_one();
    }

    /// [`fan_out`] over the pool's persistent threads: runs `run_task(i)`
    /// for `i` in `0..tasks` on the calling thread plus up to
    /// [`WorkerPool::threads`] helpers, with the same claiming contract
    /// (each index exactly once, results keyed by index, first error
    /// stops the run).
    ///
    /// The calling thread always participates, so the call makes progress
    /// even when every pool thread is busy; helpers that start after the
    /// work is finished return immediately. The call blocks until every
    /// helper that touched the run has finished — the borrowed closure
    /// and results never outlive the call.
    pub fn fan_out<T, E, F>(&self, tasks: u64, run_task: F) -> FanOut<T, E>
    where
        T: Send,
        E: Send,
        F: Fn(u64) -> Result<T, E> + Sync,
    {
        /// Monomorphic re-entry point handed through the type-erased gate.
        ///
        /// SAFETY (caller): `ptr` must point to a live `RunCtx<T, E, F>`.
        unsafe fn trampoline<T, E, F>(ptr: *const ())
        where
            T: Send,
            E: Send,
            F: Fn(u64) -> Result<T, E> + Sync,
        {
            // SAFETY: the caller contract above — `ptr` points to a live
            // `RunCtx<T, E, F>`, kept alive by the gate until every
            // helper deregisters, and `work` only touches Sync state.
            unsafe { (*ptr.cast::<RunCtx<T, E, F>>()).work() }
        }

        let helpers = self
            .threads()
            .min(usize::try_from(tasks.saturating_sub(1)).unwrap_or(usize::MAX));
        let ctx = RunCtx::new(tasks, run_task);
        if helpers == 0 {
            ctx.work();
            return ctx.into_fan_out();
        }

        let gate = Arc::new(Gate::default());
        gate.slot.lock().expect("gate poisoned").job = Some(ErasedCtx {
            ptr: std::ptr::from_ref(&ctx).cast::<()>(),
            run: trampoline::<T, E, F>,
        });
        for _ in 0..helpers {
            let gate = Arc::clone(&gate);
            self.execute(move || {
                let job = {
                    let mut slot = gate.slot.lock().expect("gate poisoned");
                    match slot.job {
                        // Register under the same lock that revocation
                        // takes: once registered, the caller will wait.
                        Some(job) => {
                            slot.active += 1;
                            job
                        }
                        // The run already finished; nothing to do.
                        None => return,
                    }
                };
                // SAFETY: `job.ptr` points at `ctx` on the initiating
                // caller's stack; the caller cannot return before this
                // helper deregisters below.
                unsafe { (job.run)(job.ptr) };
                let mut slot = gate.slot.lock().expect("gate poisoned");
                slot.active -= 1;
                drop(slot);
                gate.done.notify_all();
            });
        }
        ctx.work();
        // Revoke the context, then wait out every registered helper: after
        // this block no thread can reach `ctx` again.
        let mut slot = gate.slot.lock().expect("gate poisoned");
        slot.job = None;
        while slot.active > 0 {
            slot = gate.done.wait(slot).expect("gate poisoned");
        }
        drop(slot);
        ctx.into_fan_out()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
            q.jobs.clear();
        }
        self.inner.available.notify_all();
        for h in self.handles.drain(..) {
            h.join().expect("pool worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_covers_every_index_exactly_once() {
        for workers in [1, 2, 5] {
            let out = fan_out(100, workers, Ok::<_, ()>);
            assert_eq!(out.claimed, 100);
            assert!(out.error.is_none());
            let mut indices: Vec<u64> = out.results.iter().map(|&(i, _)| i).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..100).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn fan_out_stops_on_error_and_keeps_completed() {
        let out = fan_out(1000, 4, |i| {
            if i == 3 {
                Err("boom".to_string())
            } else {
                Ok(0.0f64)
            }
        });
        assert_eq!(out.error.as_deref(), Some("boom"));
        assert!(out.results.iter().all(|&(i, _)| i != 3));
        assert!(out.results.len() < 1000);
    }

    #[test]
    fn single_worker_executes_in_canonical_order() {
        let log = Mutex::new(Vec::new());
        let out = fan_out(10, 1, |i| {
            log.lock().unwrap().push(i);
            Ok::<_, ()>(())
        });
        assert_eq!(out.claimed, 10);
        assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let out = fan_out(0, 4, Ok::<_, ()>);
        assert_eq!(out.claimed, 0);
        assert!(out.results.is_empty());
        assert!(out.error.is_none());
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn non_copy_results_and_errors_are_supported() {
        let out = fan_out(3, 2, |i| Ok::<_, String>(vec![i; 2]));
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn pool_executes_owned_jobs() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.threads(), 2);
        let (tx, rx) = std::sync::mpsc::channel::<u64>();
        for i in 0..64 {
            let tx = tx.clone();
            pool.execute(move || {
                tx.send(i).expect("receiver alive");
            });
        }
        let mut got: Vec<u64> = (0..64).map(|_| rx.recv().expect("job ran")).collect();
        got.sort_unstable();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        assert_eq!(pool.jobs_enqueued(), 64);
        assert!(pool.queue_depth_high_water() >= 1);
    }

    #[test]
    fn pool_fan_out_matches_the_scoped_fan_out() {
        let pool = WorkerPool::new(3);
        for tasks in [0u64, 1, 7, 100] {
            let out = pool.fan_out(tasks, |i| Ok::<u64, ()>(i * i));
            assert_eq!(out.claimed, tasks);
            assert!(out.error.is_none());
            let mut got: Vec<(u64, u64)> = out.results;
            got.sort_unstable();
            let want: Vec<(u64, u64)> = (0..tasks).map(|i| (i, i * i)).collect();
            assert_eq!(got, want, "tasks={tasks}");
        }
    }

    #[test]
    fn pool_fan_out_with_borrowed_state_and_errors() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..50).collect();
        let out = pool.fan_out(data.len() as u64, |i| {
            if i == 17 {
                Err(format!("bad {i}"))
            } else {
                Ok(data[i as usize] * 2)
            }
        });
        assert_eq!(out.error.as_deref(), Some("bad 17"));
        assert!(out.results.iter().all(|&(i, _)| i != 17));
    }

    #[test]
    fn pool_fan_out_reuses_threads_across_many_calls() {
        // The per-probe pattern ShardedDb runs: thousands of small
        // fan-outs over the same pool, no spawn per call.
        let pool = WorkerPool::new(2);
        let total = Arc::new(AtomicU64::new(0));
        for round in 0..500u64 {
            let out = pool.fan_out(4, |i| Ok::<u64, ()>(round + i));
            assert_eq!(out.results.len(), 4);
            total.fetch_add(out.results.iter().map(|&(_, v)| v).sum::<u64>(), Ordering::Relaxed);
        }
        assert_eq!(total.load(Ordering::Relaxed), (0..500u64).map(|r| 4 * r + 6).sum::<u64>());
    }

    #[test]
    fn concurrent_pool_fan_outs_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..100 {
                        let out = pool.fan_out(8, |i| Ok::<u64, ()>(t * 1000 + i));
                        assert_eq!(out.claimed, 8);
                        assert!(out.error.is_none());
                    }
                });
            }
        });
    }
}
