//! Persistent worker pool for extraction work.
//!
//! Before this crate, every parallel path in the workspace paid thread
//! startup on the request path: batch extraction spawned a
//! `std::thread::scope` per call, and the server ran its own pump threads. At
//! realistic document sizes the spawn + join cost swamps the extraction
//! work itself.
//!
//! A [`Pool`] owns N persistent worker threads, created once per
//! engine/fleet lifetime. Each worker owns a long-lived
//! [`ExtractScratch`], so steady-state extraction through the pool
//! allocates nothing (guarded by the counting-allocator test in
//! `aeetes-core`). Tasks flow through one FIFO queue that every worker
//! pops; a batch spreads its documents over the workers through a claim
//! counter, so no task is ever pinned to a worker or stolen from one.
//!
//! Two execution shapes sit on top:
//!
//! - [`Pool::spawn`]: fire-and-forget jobs (the server's request path).
//! - [`batch`](crate::extract_batch_into): document-parallel batches with
//!   claim-counter work distribution — results land in input order, one
//!   panic isolates to its document.
//!
//! Borrowed-task safety: batches keep their state on the submitter's stack
//! and enqueue raw-pointer stubs. The submitter returns only after every
//! stub has *retired* — executed to exhaustion or swept
//! back out of the queue — so the queue never holds a pointer into a dead
//! stack frame.

use aeetes_core::ExtractScratch;
use aeetes_obs::{MetricRegistry, PoolMetrics};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

mod batch;

pub use batch::{extract_batch_into, extract_batch_with, run_batch, BatchBuf, BatchSlot};

thread_local! {
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is a pool worker. Batch submission from a
/// worker falls back to inline execution (the worker cannot wait on the
/// pool it is part of without risking deadlock).
pub(crate) fn on_pool_worker() -> bool {
    IS_POOL_WORKER.with(std::cell::Cell::get)
}

/// A queued unit of work: either an owned fire-and-forget job or a
/// borrowed stub pointing into a live `run_indexed` call frame.
enum Task {
    Job(Box<dyn FnOnce(&mut ExtractScratch) + Send>),
    Stub(Stub),
}

/// Type-erased pointer to a [`RunState`] (or [`EachState`]) living on a
/// submitter's stack. The submitter guarantees the pointee outlives the
/// stub (see the retire protocol on [`RunState`]).
struct Stub {
    data: *const (),
    run: unsafe fn(*const (), usize, &mut ExtractScratch),
}

// SAFETY: the pointee is Sync (shared by every executor) and the submitter
// keeps it alive until every stub retires.
unsafe impl Send for Stub {}

/// One cache line of per-worker counter state.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

struct Inner {
    /// Every queued task, in submission order. Idle workers wait on `wake`
    /// with this lock released.
    queue: Mutex<VecDeque<Task>>,
    wake: Condvar,
    shutdown: AtomicBool,
    executed: AtomicU64,
    busy_nanos: Vec<PaddedU64>,
    tasks_run: Vec<PaddedU64>,
    obs: OnceLock<PoolMetrics>,
}

impl Inner {
    fn queue(&self) -> MutexGuard<'_, VecDeque<Task>> {
        self.queue.lock().expect("pool queue poisoned")
    }

    fn push(&self, task: Task) {
        self.queue().push_back(task);
        if let Some(m) = self.obs.get() {
            m.queue_depth.add(1);
        }
        // A worker waits only while it holds the queue lock and sees the
        // queue empty, so this push either precedes its look or wakes it.
        self.wake.notify_one();
    }

    fn execute(&self, id: usize, task: Task, scratch: &mut ExtractScratch) {
        let start = Instant::now();
        match task {
            // A panic escaping a job must not take the worker down; the
            // job's own error handling (e.g. the server's per-request
            // catch_unwind) is responsible for reporting it.
            Task::Job(job) => {
                let _ = catch_unwind(AssertUnwindSafe(move || job(scratch)));
            }
            Task::Stub(stub) => unsafe { (stub.run)(stub.data, id, scratch) },
        }
        let nanos = start.elapsed().as_nanos() as u64;
        self.busy_nanos[id].0.fetch_add(nanos, Ordering::Relaxed);
        self.tasks_run[id].0.fetch_add(1, Ordering::Relaxed);
        self.executed.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.busy_nanos[id].observe_nanos(nanos);
            m.tasks.inc(1);
        }
    }

    /// Removes every queued stub whose state pointer equals `data`,
    /// returning how many were removed. Called by a `run_indexed` submitter
    /// once all indices are claimed: the leftover stubs would find no work
    /// and must not outlive the submitter's stack frame.
    fn sweep(&self, data: *const ()) -> usize {
        let mut q = self.queue();
        let before = q.len();
        q.retain(|t| !matches!(t, Task::Stub(s) if std::ptr::eq(s.data, data)));
        let removed = before - q.len();
        if removed > 0 {
            if let Some(m) = self.obs.get() {
                m.queue_depth.add(-(removed as i64));
            }
        }
        removed
    }
}

/// Pops tasks until the pool shuts down with the queue empty: a dropped pool
/// drains what was queued before its workers exit.
fn worker_main(inner: &Inner, id: usize) {
    IS_POOL_WORKER.with(|f| f.set(true));
    let mut scratch = ExtractScratch::new();
    let mut q = inner.queue();
    loop {
        if let Some(task) = q.pop_front() {
            drop(q);
            if let Some(m) = inner.obs.get() {
                m.queue_depth.add(-1);
            }
            inner.execute(id, task, &mut scratch);
            q = inner.queue();
        } else if inner.shutdown.load(Ordering::SeqCst) {
            return;
        } else {
            q = inner.wake.wait(q).expect("pool queue poisoned");
        }
    }
}

/// Shared state of one `run_indexed` call, living on the submitter's stack.
///
/// Retire protocol: `created` stubs are enqueued; each either runs its
/// claim loop to exhaustion and then retires, or is swept out of the
/// queue by the submitter (counted as retired on its behalf). The
/// `retired` increment happens *inside* the `lock` critical section and is
/// the stub's final touch of this state, so once the submitter observes
/// `retired == created` while holding the lock, no other thread can hold
/// or be blocked on any part of this struct — it is safe to return.
struct RunState<'f, F: ?Sized> {
    f: &'f F,
    len: usize,
    next: AtomicUsize,
    panicked: AtomicBool,
    created: usize,
    retired: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl<F> RunState<'_, F>
where
    F: Fn(usize, &mut ExtractScratch) + Sync + ?Sized,
{
    /// Claims indices until exhaustion, running `f` on each. Item-level
    /// panics are recorded and do not stop the remaining items.
    fn claim_loop(&self, scratch: &mut ExtractScratch) {
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.len {
                return;
            }
            // AssertUnwindSafe: extraction engines are immutable (`&self`)
            // and scratches reset at the start of every pass, so a caught
            // panic cannot corrupt state observed by other items.
            let r = catch_unwind(AssertUnwindSafe(|| (self.f)(i, scratch)));
            if r.is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
        }
    }

    fn retire(&self, by: usize) {
        let _g = self.lock.lock().expect("run state lock poisoned");
        self.retired.fetch_add(by, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

unsafe fn run_stub<F>(data: *const (), _worker: usize, scratch: &mut ExtractScratch)
where
    F: Fn(usize, &mut ExtractScratch) + Sync,
{
    let state = unsafe { &*(data as *const RunState<'_, F>) };
    state.claim_loop(scratch);
    state.retire(1);
}

/// Shared state of one `on_each_worker` call. The barrier guarantees the
/// `workers` stubs are held by `workers` distinct threads simultaneously —
/// which, since only workers execute stubs, pins one stub to each worker.
struct EachState<'f, F: ?Sized> {
    barrier: Barrier,
    f: &'f F,
    total: usize,
    done: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

unsafe fn run_each<F>(data: *const (), worker: usize, scratch: &mut ExtractScratch)
where
    F: Fn(usize, &mut ExtractScratch) + Sync,
{
    let state = unsafe { &*(data as *const EachState<'_, F>) };
    state.barrier.wait();
    // A panicking warm-up closure must not take the worker down; the
    // payload is dropped (warm-up is best-effort by contract).
    let _ = catch_unwind(AssertUnwindSafe(|| (state.f)(worker, scratch)));
    // Same final-touch discipline as RunState::retire.
    let _g = state.lock.lock().expect("each state lock poisoned");
    state.done.fetch_add(1, Ordering::SeqCst);
    state.cv.notify_all();
}

/// Point-in-time scheduling statistics of a [`Pool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent worker threads.
    pub workers: usize,
    /// Tasks currently queued, excluding executing.
    pub queued: usize,
    /// Always 0: the pool has one queue and nothing to steal from. Kept
    /// because the benchmark harness still reads it.
    pub steals: u64,
    /// Tasks executed to completion.
    pub executed: u64,
    /// Cumulative busy nanoseconds per worker.
    pub busy_nanos: Vec<u64>,
    /// Tasks executed per worker.
    pub tasks: Vec<u64>,
}

/// A persistent pool of extraction workers. See the crate docs.
///
/// Dropping an explicit pool drains every queued task, then joins the
/// workers. The process-wide [`Pool::global`] pool is never dropped.
pub struct Pool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool of `workers.max(1)` persistent threads, each owning
    /// a long-lived [`ExtractScratch`].
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            busy_nanos: (0..workers).map(|_| PaddedU64::default()).collect(),
            tasks_run: (0..workers).map(|_| PaddedU64::default()).collect(),
            obs: OnceLock::new(),
        });
        let handles = (0..workers)
            .map(|id| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("aeetes-pool-{id}"))
                    .spawn(move || worker_main(&inner, id))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { inner, handles }
    }

    /// The process-wide pool, created on first use. Sized by (first match
    /// wins): the `AEETES_POOL_THREADS` environment variable, the last
    /// [`Pool::configure_global`] call, or `available_parallelism`.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| {
            let n = std::env::var("AEETES_POOL_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .or_else(|| {
                    let r = REQUESTED.load(Ordering::SeqCst);
                    (r > 0).then_some(r)
                })
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
            Pool::new(n)
        })
    }

    /// Requests `threads` workers for the global pool and returns it. Only
    /// effective before the global pool's first use — a pool never resizes
    /// once its workers exist (callers that need a specific size later
    /// should build an explicit [`Pool::new`]).
    pub fn configure_global(threads: usize) -> &'static Pool {
        if threads > 0 {
            REQUESTED.store(threads, Ordering::SeqCst);
        }
        Pool::global()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submits a fire-and-forget job; some worker runs it with its
    /// resident scratch. Jobs still queued when an explicit pool is
    /// dropped are executed during the drop's drain.
    pub fn spawn(&self, job: impl FnOnce(&mut ExtractScratch) + Send + 'static) {
        self.inner.push(Task::Job(Box::new(job)));
    }

    /// Runs `f(i, &mut items[i], scratch)` for every item, distributing
    /// indices over `stubs` queued executors (clamped into `1..=workers`).
    /// Indices are claimed from a shared atomic counter, so one long item
    /// never serializes the rest behind a static partition. Returns whether
    /// any item panicked (payloads are dropped; item-level isolation is the
    /// caller's job via its own `catch_unwind` inside `f`).
    ///
    /// Every item runs on a pool worker, with that worker's scratch. The
    /// call must not come from a pool worker (it would wait on a queue only
    /// it can drain); [`extract_batch_into`] guards this by falling back to
    /// inline execution.
    pub fn run_indexed<T, F>(&self, items: &mut [T], stubs: usize, f: F) -> bool
    where
        T: Send,
        F: Fn(usize, &mut T, &mut ExtractScratch) + Sync,
    {
        /// The items, shared with every executor. This is the one place
        /// that turns "index `i` is claimed once" into `&mut items[i]`.
        struct Items<T>(*mut T);
        // SAFETY: executors on other threads only ever reach element `i`
        // through `at(i)` after claiming `i`, each as the element's sole
        // user — which moves a `&mut T` to that thread, hence `T: Send`.
        unsafe impl<T: Send> Sync for Items<T> {}
        impl<T> Items<T> {
            /// A method, not the raw field, so that closures capture the
            /// `Sync` wrapper rather than the bare pointer under disjoint
            /// field capture.
            ///
            /// # Safety
            /// `i` must be in bounds of the slice the pointer came from.
            unsafe fn at(&self, i: usize) -> *mut T {
                self.0.add(i)
            }
        }
        let base = Items(items.as_mut_ptr());
        self.run_claimed(items.len(), stubs, |i, scratch| {
            // SAFETY: `run_claimed` calls this with every `i < items.len()`
            // exactly once (indices come from one `fetch_add` counter) and
            // returns only after every executor has retired, while `items`
            // stays mutably borrowed by this call: the reference is in
            // bounds, unique, and dead before the borrow ends.
            let item = unsafe { &mut *base.at(i) };
            f(i, item, scratch)
        })
    }

    /// The claim loop behind [`Pool::run_indexed`]: `f(i, scratch)` once
    /// for every `i < len`.
    fn run_claimed<F>(&self, len: usize, stubs: usize, f: F) -> bool
    where
        F: Fn(usize, &mut ExtractScratch) + Sync,
    {
        if len == 0 {
            return false;
        }
        debug_assert!(!on_pool_worker(), "a pool worker cannot wait on its own pool");
        let stubs = stubs.clamp(1, self.workers());
        let state = RunState {
            f: &f,
            len,
            next: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            created: stubs,
            retired: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        };
        let data = &state as *const RunState<'_, F> as *const ();
        for _ in 0..stubs {
            self.inner.push(Task::Stub(Stub { data, run: run_stub::<F> }));
        }
        // Wait for every stub to retire. `retired == created` implies all
        // indices were claimed and completed: a stub only exits its claim
        // loop at exhaustion, and sweeping only happens past exhaustion.
        let mut swept = false;
        let mut guard = state.lock.lock().expect("run state lock poisoned");
        while state.retired.load(Ordering::SeqCst) < state.created {
            if !swept && state.next.load(Ordering::SeqCst) >= len {
                // All indices claimed: stubs still queued would find no
                // work — remove them before their pointee goes away.
                swept = true;
                drop(guard);
                let n = self.inner.sweep(data);
                if n > 0 {
                    state.retire(n);
                }
                guard = state.lock.lock().expect("run state lock poisoned");
                continue;
            }
            // Timeout only to re-check the sweep condition; retires notify.
            guard = state.cv.wait_timeout(guard, Duration::from_millis(10)).expect("run state lock poisoned").0;
        }
        drop(guard);
        state.panicked.load(Ordering::SeqCst)
    }

    /// Runs `f(worker_id, scratch)` exactly once on *every* worker thread,
    /// blocking until all have finished. A barrier holds early finishers
    /// until every worker has picked up its pin task, so the same worker
    /// can never run two of them. Intended for warming worker scratches to
    /// their steady-state capacity (benches, the zero-allocation gate) —
    /// not for request-path use. Must be called from outside the pool.
    pub fn on_each_worker<F>(&self, f: F)
    where
        F: Fn(usize, &mut ExtractScratch) + Sync,
    {
        assert!(!on_pool_worker(), "on_each_worker must be called from outside the pool");
        let total = self.workers();
        let state = EachState {
            barrier: Barrier::new(total),
            f: &f,
            total,
            done: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        };
        let data = &state as *const EachState<'_, F> as *const ();
        for _ in 0..total {
            self.inner.push(Task::Stub(Stub { data, run: run_each::<F> }));
        }
        let mut guard = state.lock.lock().expect("each state lock poisoned");
        while state.done.load(Ordering::SeqCst) < state.total {
            guard = state.cv.wait_timeout(guard, Duration::from_millis(10)).expect("each state lock poisoned").0;
        }
    }

    /// Attaches observability handles: from here on the pool records queue
    /// depth, task counts and per-worker busy histograms into
    /// `registry`. Idempotent; the first attach wins.
    pub fn attach_metrics(&self, registry: &Arc<MetricRegistry>) {
        let m = PoolMetrics::register(registry, self.workers());
        m.workers.set(self.workers() as i64);
        let _ = self.inner.obs.set(m);
    }

    /// Point-in-time scheduling statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers(),
            queued: self.inner.queue().len(),
            steals: 0,
            executed: self.inner.executed.load(Ordering::Relaxed),
            busy_nanos: self.inner.busy_nanos.iter().map(|c| c.0.load(Ordering::Relaxed)).collect(),
            tasks: self.inner.tasks_run.iter().map(|c| c.0.load(Ordering::Relaxed)).collect(),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            // Under the queue lock, so no worker is between its shutdown
            // check and its wait.
            let _q = self.inner.queue();
            self.inner.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn spawn_runs_jobs_on_workers() {
        let pool = Pool::new(2);
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            pool.spawn(move |_scratch| {
                assert!(on_pool_worker());
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drains the queue, joins workers
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn run_indexed_covers_every_index_exactly_once() {
        let pool = Pool::new(3);
        for len in [0usize, 1, 2, 7, 64] {
            // Each item is handed to its own index, mutably, exactly once.
            let mut visits: Vec<(usize, u32)> = vec![(usize::MAX, 0); len];
            let panicked = pool.run_indexed(&mut visits, 3.min(len.max(1)), |i, visit, _scratch| {
                assert!(on_pool_worker(), "stubs run on workers");
                *visit = (i, visit.1 + 1);
            });
            assert!(!panicked);
            assert!(visits.iter().enumerate().all(|(i, &v)| v == (i, 1)), "len={len}: {visits:?}");
        }
    }

    /// The stub count is clamped into `1..=workers`: none still runs every
    /// item, and more than the workers runs no item twice.
    #[test]
    fn run_indexed_runs_every_index_once_for_any_stub_count() {
        let workers = 3;
        let pool = Pool::new(workers);
        for stubs in [0, 1, workers, workers + 3] {
            let mut runs = vec![0u32; 40];
            assert!(!pool.run_indexed(&mut runs, stubs, |_, runs, _| *runs += 1));
            assert!(runs.iter().all(|&n| n == 1), "stubs={stubs}: {runs:?}");
        }
        assert_eq!(pool.stats().queued, 0);
    }

    #[test]
    fn on_each_worker_pins_one_task_per_worker() {
        let pool = Pool::new(3);
        let seen: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(0)).collect();
        pool.on_each_worker(|worker, _scratch| {
            seen[worker].fetch_add(1, Ordering::SeqCst);
        });
        assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1), "{seen:?}");
    }

    #[test]
    fn stats_count_executed_tasks() {
        let pool = Pool::new(2);
        pool.run_indexed(&mut [(); 8], 2, |_, _, _| {});
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.queued, 0);
        // 2 stubs were queued; both either executed or got swept, and the
        // executed count only grows.
        assert!(stats.executed <= 2);
        assert_eq!(stats.busy_nanos.len(), 2);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Pool::global() as *const Pool;
        let b = Pool::configure_global(7) as *const Pool;
        assert_eq!(a, b, "configure after first use must not rebuild the pool");
    }
}
