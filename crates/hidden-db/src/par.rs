//! The workspace's one concurrency primitive: the persistent
//! [`WorkerPool`] and its scoped [`WorkerPool::fan_out`].
//!
//! Every parallel layer of the system goes through the same claiming
//! contract: tasks are claimed from a shared atomic dispenser (each index
//! runs exactly once), results are keyed by task index, and the caller
//! merges them in an order-independent way — so thread scheduling can
//! never leak into a result. The estimation engine in `hdb-core` fans
//! independent drill-down *passes* across a pool built for the run
//! (`UnbiasedAggEstimator::run_parallel`; the thread start-up cost
//! amortises over the run), while per-*query* work
//! ([`ShardedDb`](crate::ShardedDb) shard evaluation,
//! [`FederatedBackend`](crate::FederatedBackend) fleet fan-out) runs on a
//! pool whose threads persist across calls, so a single drill-down probe
//! never pays a thread spawn.
//!
//! The worker count defaults to [`default_workers`], which honours the
//! `HDB_ENGINE_WORKERS` environment variable (CI runs the test suite
//! under both `=1` and `=4`).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// Outcome of a [`WorkerPool::fan_out`]: per-task results (unordered),
/// how many task indices were claimed, and the first error any worker
/// hit.
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
/// initiating caller's stack for exactly the duration of the run.
struct RunCtx<T, E, F> {
    tasks: u64,
    dispenser: AtomicU64,
    stop: AtomicBool,
    first_error: Mutex<Option<E>>,
    /// The first panic a task raised, resumed on the caller once every
    /// thread has left the run.
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
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
            first_panic: Mutex::new(None),
            results: Mutex::new(Vec::new()),
            run_task,
        }
    }

    /// The claiming loop: run on the caller and every helper thread.
    /// Results accumulate thread-locally and merge once at the end, so
    /// the only cross-thread traffic during the run is the dispenser.
    /// A panic in a task, or in dropping an error that lost the race to
    /// be first, is caught here and stops the run like an error; the
    /// caller resumes it once every thread has left the run.
    fn work(&self) {
        let mut local: Vec<(u64, T)> = Vec::new();
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| {
            while !self.stop.load(Ordering::Acquire) {
                let idx = self.dispenser.fetch_add(1, Ordering::Relaxed);
                if idx >= self.tasks {
                    // undo the overshoot so `claimed` stays meaningful
                    self.dispenser.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                match (self.run_task)(idx) {
                    Ok(result) => local.push((idx, result)),
                    Err(e) => return self.halt(&self.first_error, e),
                }
            }
        }));
        if let Err(payload) = claimed {
            self.halt(&self.first_panic, payload);
        }
        if !local.is_empty() {
            self.results.lock().expect("results poisoned").append(&mut local);
        }
    }

    /// Stops further claiming and keeps `value` if `slot` is still empty.
    /// A value that lost the race drops after the slot is unlocked, so a
    /// `Drop` that panics cannot poison the slot.
    fn halt<V>(&self, slot: &Mutex<Option<V>>, value: V) {
        self.stop.store(true, Ordering::Release);
        let mut value = Some(value);
        let mut kept = slot.lock().expect("failure slot poisoned");
        if kept.is_none() {
            *kept = value.take();
        }
        drop(kept);
    }

    /// The run's outcome, once no other thread can reach `self`; resumes
    /// the first task panic instead, if there was one.
    fn into_fan_out(self) -> FanOut<T, E> {
        if let Some(payload) = self.first_panic.into_inner().expect("panic slot poisoned") {
            panic::resume_unwind(payload);
        }
        let claimed = self.dispenser.load(Ordering::Relaxed).min(self.tasks);
        FanOut {
            results: self.results.into_inner().expect("results poisoned"),
            claimed,
            error: self.first_error.into_inner().expect("error slot poisoned"),
        }
    }
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

impl Gate {
    /// Locks the slot. Nothing panics while holding it, and the guards
    /// below take it while unwinding, so a poisoned lock is read through.
    fn lock(&self) -> MutexGuard<'_, GateSlot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Held by a pool helper while it runs a fan-out: deregisters the helper
/// on every exit from the job, unwinding included, so the caller's wait
/// always ends.
struct Registered<'a>(&'a Gate);

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.0.lock().active -= 1;
        self.0.done.notify_all();
    }
}

/// Held by the caller of a fan-out with helpers: on every exit from the
/// call, unwinding included, revokes the context and then waits out
/// every registered helper, so no thread can reach the context after.
struct Revoke<'a>(&'a Gate);

impl Drop for Revoke<'_> {
    fn drop(&mut self) {
        let mut slot = self.0.lock();
        slot.job = None;
        while slot.active > 0 {
            slot = self.0.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A persistent pool of worker threads.
///
/// [`WorkerPool::fan_out`] runs a *scoped* fan-out over borrowed data —
/// how [`ShardedDb`](crate::ShardedDb) evaluates shards per probe without
/// paying a thread spawn per AND, and how the estimation engine fans its
/// passes. Its helpers ride the pool's job queue as owned jobs, and the
/// calling thread always participates, so a busy pool degrades to
/// in-thread execution, never to a deadlock. A pool of zero threads is
/// valid: it runs every task on the caller, in index order.
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
    /// Spawns a pool of `threads` persistent worker threads; with
    /// `threads == 0` it spawns none and [`WorkerPool::fan_out`] runs on
    /// the caller alone.
    ///
    /// # Panics
    /// Panics if the operating system fails to spawn a thread.
    #[must_use]
    pub fn new(threads: usize) -> Self {
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

    /// Runs `run_task(i)` for `i` in `0..tasks` on the calling thread plus
    /// up to [`WorkerPool::threads`] helpers. Task indices are claimed
    /// from a shared atomic dispenser, so each index runs exactly once;
    /// results are keyed by index, and the first error stops the run.
    /// With no helper (a zero-thread pool, or a single task) the tasks
    /// run on the caller in canonical index order.
    ///
    /// The calling thread always participates, so the call makes progress
    /// even when every pool thread is busy; helpers that start after the
    /// work is finished return immediately. The call blocks until every
    /// helper that touched the run has finished — the borrowed closure
    /// and results never outlive the call.
    ///
    /// ```
    /// use hdb_interface::WorkerPool;
    ///
    /// // Sum the squares of 0..10 on the caller plus 3 pool threads. The
    /// // per-index results arrive in arbitrary order; the sum is
    /// // order-independent.
    /// let pool = WorkerPool::new(3);
    /// let out = pool.fan_out(10, |i| Ok::<u64, String>(i * i));
    /// assert_eq!(out.claimed, 10);
    /// assert!(out.error.is_none());
    /// let total: u64 = out.results.iter().map(|&(_, sq)| sq).sum();
    /// assert_eq!(total, 285);
    /// ```
    ///
    /// # Panics
    /// If a task panics, on the caller or on a helper, the run stops
    /// claiming; once every thread has left it, the first panic resumes
    /// on the caller. The pool keeps all its threads. An error whose
    /// `Drop` panics when it loses the race to be first counts as a
    /// panicking task.
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
        gate.lock().job = Some(ErasedCtx {
            ptr: std::ptr::from_ref(&ctx).cast::<()>(),
            run: trampoline::<T, E, F>,
        });
        // From here a helper may reach `ctx`. `revoke` is declared after
        // `ctx`, so it drops first, unwinding included: the helpers are
        // waited out before `ctx` is freed.
        let revoke = Revoke(&gate);
        for _ in 0..helpers {
            let gate = Arc::clone(&gate);
            self.execute(move || {
                let job = {
                    let mut slot = gate.lock();
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
                let _registered = Registered(&gate);
                // SAFETY: `job.ptr` points at `ctx` on the initiating
                // caller's stack. The caller's `Revoke` guard keeps its
                // frame, and `ctx`, alive until this helper deregisters,
                // and `_registered` deregisters it only once `run` has
                // returned or unwound.
                unsafe { (job.run)(job.ptr) };
            });
        }
        ctx.work();
        drop(revoke);
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on a thread of its own and returns how it ended: its
    /// value, or the message it panicked with. A run that has not ended
    /// within 30 s fails the test instead of hanging the suite.
    fn bounded<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> Result<R, String> {
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let ended = panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|m| (*m).to_string()))
                    .unwrap_or_default()
            });
            tx.send(ended).expect("receiver alive");
        });
        let ended = rx.recv_timeout(Duration::from_secs(30)).expect("the fan-out hung");
        runner.join().expect("the runner catches every panic");
        ended
    }

    #[test]
    fn fan_out_covers_every_index_exactly_once() {
        for threads in [0, 1, 4] {
            let out = WorkerPool::new(threads).fan_out(100, Ok::<_, ()>);
            assert_eq!(out.claimed, 100);
            assert!(out.error.is_none());
            let mut indices: Vec<u64> = out.results.iter().map(|&(i, _)| i).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn fan_out_stops_on_error_and_keeps_completed() {
        for threads in [0, 3] {
            let out = WorkerPool::new(threads).fan_out(1000, |i| {
                if i == 3 {
                    Err("boom".to_string())
                } else {
                    Ok(0.0f64)
                }
            });
            assert_eq!(out.error.as_deref(), Some("boom"));
            assert!(out.results.iter().all(|&(i, _)| i != 3));
            assert!(out.results.len() < 1000, "threads={threads}");
        }
    }

    #[test]
    fn single_worker_executes_in_canonical_order() {
        let log = Mutex::new(Vec::new());
        let out = WorkerPool::new(0).fan_out(10, |i| {
            log.lock().unwrap().push(i);
            Ok::<_, ()>(())
        });
        assert_eq!(out.claimed, 10);
        assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let out = WorkerPool::new(3).fan_out(0, Ok::<_, ()>);
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
        let out = WorkerPool::new(1).fan_out(3, |i| Ok::<_, String>(vec![i; 2]));
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
        // With three helpers or none, every index runs once and keeps its
        // own result.
        let (pool, alone) = (WorkerPool::new(3), WorkerPool::new(0));
        assert_eq!(alone.threads(), 0);
        for tasks in [0u64, 1, 7, 100] {
            let want: Vec<(u64, u64)> = (0..tasks).map(|i| (i, i * i)).collect();
            for p in [&pool, &alone] {
                let out = p.fan_out(tasks, |i| Ok::<u64, ()>(i * i));
                assert_eq!(out.claimed, tasks);
                assert!(out.error.is_none());
                let mut got: Vec<(u64, u64)> = out.results;
                got.sort_unstable();
                assert_eq!(got, want, "threads={} tasks={tasks}", p.threads());
            }
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

    #[test]
    fn a_panic_on_a_helper_panics_the_caller_and_the_pool_keeps_its_threads() {
        let pool = Arc::new(WorkerPool::new(2));
        let shared = Arc::clone(&pool);
        let ended = bounded(move || {
            let caller = std::thread::current().id();
            let helper_ran = AtomicBool::new(false);
            shared.fan_out(64, |i| {
                if std::thread::current().id() != caller {
                    helper_ran.store(true, Ordering::Release);
                    panic!("helper task {i}");
                }
                // The caller's tasks wait for a helper to panic, so one
                // is sure to.
                while !helper_ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                Ok::<u64, ()>(i)
            })
            .claimed
        });
        let message = ended.expect_err("the helper's panic must reach the caller");
        assert!(message.starts_with("helper task"), "{message}");

        // Both pool threads survived: three tasks that each wait until
        // all three have started need the caller and both helpers.
        let shared = Arc::clone(&pool);
        let out = bounded(move || {
            let started = AtomicUsize::new(0);
            shared.fan_out(3, |i| {
                started.fetch_add(1, Ordering::AcqRel);
                while started.load(Ordering::Acquire) < 3 {
                    std::thread::yield_now();
                }
                Ok::<u64, ()>(i)
            })
        })
        .expect("no task panics");
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn a_panic_on_the_caller_waits_out_the_helpers_before_it_resumes() {
        let inside = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&inside);
        let ended = bounded(move || {
            let pool = WorkerPool::new(2);
            let caller = std::thread::current().id();
            let caller_panicking = AtomicBool::new(false);
            let inside = &*counter;
            pool.fan_out(64, |i| {
                if std::thread::current().id() == caller {
                    while inside.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                    caller_panicking.store(true, Ordering::Release);
                    panic!("caller task {i}");
                }
                inside.fetch_add(1, Ordering::AcqRel);
                while !caller_panicking.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // Stay in the run long after the caller's panic, so a
                // caller that did not wait would be seen returning first.
                std::thread::sleep(Duration::from_millis(50));
                inside.fetch_sub(1, Ordering::AcqRel);
                Ok::<u64, ()>(i)
            })
            .claimed
        });
        let message = ended.expect_err("the caller's panic must resume");
        assert!(message.starts_with("caller task"), "{message}");
        assert_eq!(inside.load(Ordering::Acquire), 0, "a helper outlived the run");
    }

    #[test]
    fn a_panic_dropping_a_losing_error_panics_the_caller() {
        /// An error whose `Drop` panics unless its thread is unwinding.
        struct Loud;
        impl Drop for Loud {
            fn drop(&mut self) {
                if !std::thread::panicking() {
                    panic!("dropping an error");
                }
            }
        }
        let ended = bounded(|| {
            // Three tasks that each wait until all three have started run
            // on three threads, and two of their errors lose the race to
            // be first: they drop inside the run, on a helper at least.
            let started = AtomicUsize::new(0);
            let out = WorkerPool::new(2).fan_out(3, |_| {
                started.fetch_add(1, Ordering::AcqRel);
                while started.load(Ordering::Acquire) < 3 {
                    std::thread::yield_now();
                }
                Err::<(), _>(Loud)
            });
            // Reached only if the run did not panic; the kept error must
            // not panic here in its place.
            std::mem::forget(out);
        });
        let message = ended.expect_err("the panic in `Drop` must reach the caller");
        assert_eq!(message, "dropping an error");
    }
}
