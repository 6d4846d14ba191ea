//! Parallel-for over the host CPUs on a persistent worker pool.
//!
//! The interpreter runs simulated thread blocks across host threads the
//! way blocks run across SMs. This module is the in-tree replacement for
//! the slice of `rayon` the workspace used: a parallel `for_each` and a
//! parallel `map` over an index range.
//!
//! The pool threads start once per process and live for its lifetime, so a
//! launch pays a wake-up instead of a thread spawn, and anything a worker
//! keeps in thread-local storage (the interpreter's lane register file)
//! survives from one launch to the next.
//!
//! Every call is a *job*. The calling thread always works on its own job
//! and pool threads help whichever open job still has unclaimed indices.
//! A caller therefore never waits for a pool thread to pick its job up;
//! it waits only for helpers already inside the job to finish their
//! current chunk. That makes concurrent callers (several serving workers,
//! several simulated ranks) and nested calls deadlock-free.
//!
//! Work distribution is dynamic: participants claim chunks of the index
//! range from the job's atomic cursor, so uneven per-index cost (e.g.
//! boundary blocks doing halo loads) still balances. A panic in any
//! participant stops further claims and is re-raised on the calling
//! thread once every helper has left the job, so a failed simulated block
//! fails the launch just like a device-side assert would.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Host parallelism: the calling thread plus the pool threads.
fn host_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

type Task = dyn Fn(usize) + Sync;

/// One parallel region: the index range, its claim cursor and the first
/// panic raised while running it.
struct Job {
    /// The caller's closure with its lifetime erased. Valid while the job
    /// is open or has helpers inside (see [`parallel_for`]).
    task: *const Task,
    n: usize,
    chunk: usize,
    /// Next unclaimed index. Only hands out indices: what the task wrote
    /// reaches the caller through the pool lock each helper takes to
    /// leave, so `Relaxed` suffices.
    cursor: AtomicUsize,
    /// Pool threads currently inside the job; changed under the pool lock.
    helpers: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `task` points at a `Sync` closure, and the caller that owns it
// does not return before the job is closed and no helper is inside it.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn has_work(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.n
    }

    /// Claim and run chunks until the range is exhausted or a participant
    /// panicked. Panics are caught and parked in the job.
    fn work(&self) {
        // SAFETY: see `task`.
        let task = unsafe { &*self.task };
        let run = catch_unwind(AssertUnwindSafe(|| loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            for i in start..(start + self.chunk).min(self.n) {
                task(i);
            }
        }));
        if let Err(payload) = run {
            self.cursor.store(self.n, Ordering::Relaxed);
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
}

struct Pool {
    /// Open jobs, oldest first.
    jobs: Mutex<Vec<Arc<Job>>>,
    /// Signalled when a job opens.
    work: Condvar,
    /// Signalled when a helper leaves a job.
    left: Condvar,
}

/// A poisoned pool lock only means a panic unwound past it; the protected
/// data (job lists, panic slots) stays consistent, so keep going.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Pool {
    fn get() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                jobs: Mutex::new(Vec::new()),
                work: Condvar::new(),
                left: Condvar::new(),
            }));
            // The threads are never joined: they serve the whole process,
            // and `Job::work` catches every panic a task raises.
            for i in 1..host_threads() {
                std::thread::Builder::new()
                    .name(format!("qdp-par-{i}"))
                    .spawn(move || pool.helper())
                    .expect("spawn pool thread");
            }
            pool
        })
    }

    fn helper(&self) {
        loop {
            let job = {
                let mut jobs = lock(&self.jobs);
                loop {
                    if let Some(j) = jobs.iter().find(|j| j.has_work()) {
                        j.helpers.fetch_add(1, Ordering::Relaxed);
                        break Arc::clone(j);
                    }
                    jobs = self.work.wait(jobs).unwrap_or_else(|e| e.into_inner());
                }
            };
            job.work();
            let _jobs = lock(&self.jobs);
            job.helpers.fetch_sub(1, Ordering::Relaxed);
            self.left.notify_all();
        }
    }

    /// Run `job` with the calling thread as a participant, close it, and
    /// return once no helper is inside it any more.
    fn run(&self, job: Arc<Job>) {
        lock(&self.jobs).push(Arc::clone(&job));
        self.work.notify_all();
        job.work();
        let mut jobs = lock(&self.jobs);
        jobs.retain(|j| !Arc::ptr_eq(j, &job));
        while job.helpers.load(Ordering::Relaxed) > 0 {
            jobs = self.left.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Run `f(i)` for every `i in 0..n`, in parallel across the host CPUs.
///
/// Calls may run in any order and concurrently; `f` must be `Sync`. If any
/// invocation panics the panic propagates to the caller after every
/// participant has left the region (remaining indices may or may not have
/// run).
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = host_threads().min(n);
    if threads <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let task: &(dyn Fn(usize) + Sync + '_) = &f;
    let job = Arc::new(Job {
        // SAFETY: `Pool::run` returns only after the job is closed and has
        // no helper inside, so the erased borrow of `f` never outlives it.
        task: unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), *const Task>(task) },
        n,
        // Big enough to amortise the atomic, small enough to balance
        // uneven blocks.
        chunk: (n / (threads * 8)).max(1),
        cursor: AtomicUsize::new(0),
        helpers: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    Pool::get().run(Arc::clone(&job));
    let panic = lock(&job.panic).take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Compute `[f(0), f(1), …, f(n-1)]` in parallel across the host CPUs.
///
/// The output order matches the index order regardless of scheduling.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = host_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // Each chunk of the output is produced by one participant into its
    // own slot, then the chunks are concatenated in order.
    let chunk = n.div_ceil(threads * 4);
    let parts: Vec<Mutex<Vec<T>>> = (0..n.div_ceil(chunk))
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    parallel_for(parts.len(), |c| {
        let part: Vec<T> = (c * chunk..((c + 1) * chunk).min(n)).map(&f).collect();
        *lock(&parts[c]) = part;
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p.into_inner().unwrap_or_else(|e| e.into_inner()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_visits_every_index_exactly_once() {
        for n in [0, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn map_preserves_index_order() {
        for n in [0, 1, 3, 17, 256, 999] {
            let v = parallel_map(n, |i| i * i);
            assert_eq!(v, (0..n).map(|i| i * i).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn work_completes_before_return() {
        // all side effects of the region must be visible afterwards
        let sum = AtomicU64::new(0);
        parallel_for(10_000, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 9_999 * 10_000 / 2);
    }

    #[test]
    fn panics_propagate_from_for() {
        let r = std::panic::catch_unwind(|| {
            parallel_for(100, |i| {
                if i == 37 {
                    panic!("block failed");
                }
            });
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn panics_propagate_from_map() {
        let r = std::panic::catch_unwind(|| {
            parallel_map(100, |i| {
                if i == 63 {
                    panic!("block failed");
                }
                i
            })
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let _ = std::panic::catch_unwind(|| parallel_for(64, |_| panic!("every block fails")));
        let v = parallel_map(64, |i| i + 1);
        assert_eq!(v, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_complete() {
        let sum = AtomicU64::new(0);
        parallel_for(8, |i| {
            parallel_for(50, |j| {
                sum.fetch_add((i * 50 + j) as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 399 * 400 / 2);
    }

    #[test]
    fn caller_never_waits_for_a_busy_pool() {
        if host_threads() < 2 {
            return;
        }
        // Job A parks every participant, pool threads included, inside
        // its closure until released.
        let n = host_threads();
        let inside = AtomicUsize::new(0);
        let gate = (Mutex::new(false), Condvar::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                parallel_for(n, |_| {
                    inside.fetch_add(1, Ordering::SeqCst);
                    let mut open = lock(&gate.0);
                    while !*open {
                        open = gate.1.wait(open).unwrap();
                    }
                })
            });
            while inside.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
            // With no pool thread free, this job runs on its caller alone.
            let v = parallel_map(100, |i| i * 3);
            assert_eq!(v, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            *lock(&gate.0) = true;
            gate.1.notify_all();
        });
    }

    #[test]
    fn concurrent_callers_complete() {
        // More callers than host threads, all starting at once: each
        // caller drives its own job, so none of them can starve waiting
        // for a pool thread.
        let callers = host_threads() * 2 + 1;
        let start = std::sync::Barrier::new(callers);
        let totals: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..callers)
                .map(|c| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        let mut total = 0;
                        for round in 0..20 {
                            let v = parallel_map(97, |i| (i * (c + round)) as u64);
                            total += v.iter().sum::<u64>();
                        }
                        total
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (c, t) in totals.iter().enumerate() {
            let expect: u64 = (0..20).map(|r| (96 * 97 / 2) * (c + r) as u64).sum();
            assert_eq!(*t, expect, "caller {c}");
        }
    }
}
