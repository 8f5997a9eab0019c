//! The bounded worker pool behind every per-library fan-out.
//!
//! PR 2's locate/compact fan-out spawned **one thread per library**,
//! which is fine for a single debloat but quadratically wrong for a
//! long-lived service running many debloats at once (N requests × M
//! libraries threads). [`WorkerPool`] replaces it with an admission
//! gate shared across every in-flight request: a fan-out spawns at most
//! `min(pool size, items)` task threads, and each item additionally
//! acquires a pool permit before it executes, so the number of library
//! jobs *running* at any instant — across all concurrent debloats
//! sharing the pool — never exceeds the configured size. Everything
//! else about the fan-out is unchanged: results are collected in item
//! order, so the output (and every compacted byte downstream) is
//! byte-identical to the serial path.
//!
//! Every session fans out through a [`WorkerPool`].
//! [`WorkerPool::shared`] is the process-wide default sized to the
//! machine; `WorkerPool::new(1)` runs one job at a time, for a caller
//! that wants to pin work to one core.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::Result;

/// Point-in-time counters of one [`WorkerPool`]; see
/// [`WorkerPool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Configured pool size (maximum concurrently executing jobs).
    pub workers: usize,
    /// High-water mark of jobs observed executing at the same instant
    /// since the pool was created. Never exceeds `workers`.
    pub peak_active: usize,
    /// Total jobs the pool has finished executing.
    pub completed: u64,
    /// Fan-out calls ([`WorkerPool::run`]) the pool has served. Each
    /// debloat costs exactly three — one locate pass, one compact pass,
    /// one verify pass — so this is the batch-scoped accounting unit: a
    /// service batch of any size that shares one union debloat advances
    /// it by 3, where N unbatched requests would advance it by 3·N. A
    /// framework bundle generated cold through the pool
    /// ([`crate::Debloater::session`] on a bundle not yet cached in the
    /// process) adds one more.
    pub fan_outs: u64,
    /// Verification runs actually executed through this pool. The
    /// verify stage deduplicates by workload fingerprint, so a workload
    /// set with duplicates advances this once per *unique* workload —
    /// the batch-scoped verify accounting, mirroring
    /// [`PoolStats::fan_outs`].
    pub verify_runs: u64,
    /// Workloads whose verification outcome was served by a duplicate's
    /// run or the verify memo instead of a re-execution, counted by
    /// every verify pass.
    pub verify_deduped: u64,
}

/// A bounded admission gate for per-library work, shared across every
/// debloat in flight.
///
/// The pool does not own long-lived threads: a fan-out call spawns its
/// (scoped, borrowing) task threads itself, capped at the pool size,
/// and every item acquires a permit from this gate before running. The
/// permit accounting is what makes the bound *global*: two concurrent
/// requests sharing one pool of `n` workers execute at most `n` library
/// jobs between them, the rest park until a slot frees.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
    active: Mutex<usize>,
    freed: Condvar,
    peak_active: AtomicUsize,
    completed: AtomicU64,
    fan_outs: AtomicU64,
    verify_runs: AtomicU64,
    verify_deduped: AtomicU64,
}

impl WorkerPool {
    /// Size of the process-wide [`WorkerPool::shared`] pool: the
    /// machine's available parallelism, at least 2.
    fn default_workers() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).max(2)
    }

    /// A pool allowing at most `workers` concurrently executing jobs
    /// (clamped to at least 1).
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            workers: workers.max(1),
            active: Mutex::new(0),
            freed: Condvar::new(),
            peak_active: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            fan_outs: AtomicU64::new(0),
            verify_runs: AtomicU64::new(0),
            verify_deduped: AtomicU64::new(0),
        })
    }

    /// The process-wide default pool, sized to the machine's available
    /// parallelism (at least 2). Every [`crate::Debloater`] that
    /// was not given an explicit pool fans out through this one, so even
    /// independent debloaters cannot oversubscribe the machine.
    pub fn shared() -> Arc<WorkerPool> {
        static SHARED: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        SHARED.get_or_init(|| WorkerPool::new(WorkerPool::default_workers())).clone()
    }

    /// Configured pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current counters (peak concurrency, completed jobs, fan-outs
    /// served).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            peak_active: self.peak_active.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            fan_outs: self.fan_outs.load(Ordering::Relaxed),
            verify_runs: self.verify_runs.load(Ordering::Relaxed),
            verify_deduped: self.verify_deduped.load(Ordering::Relaxed),
        }
    }

    /// Account one verify pass routed through this pool: `runs` unique
    /// workloads were actually re-executed, `deduped` duplicates were
    /// served their twin's [`simml::RunOutcome`] without a run. Called
    /// by the debloat session after its verify fan-out.
    pub(crate) fn record_verifies(&self, runs: u64, deduped: u64) {
        self.verify_runs.fetch_add(runs, Ordering::Relaxed);
        self.verify_deduped.fetch_add(deduped, Ordering::Relaxed);
    }

    /// Run `f` over every item, at most [`WorkerPool::workers`] at a
    /// time (counting jobs admitted through *this* pool from any
    /// thread), and collect the results in item order.
    ///
    /// Semantically identical to the serial loop: same outputs in the
    /// same order, and when items fail, the error of the smallest
    /// failing index is returned (every item is still attempted).
    ///
    /// # Errors
    ///
    /// The first error in item order, if any item's `f` fails.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> Result<R> + Sync,
    {
        self.fan_outs.fetch_add(1, Ordering::Relaxed);
        if items.len() < 2 {
            // No task threads, but still through the admission gate:
            // the global bound and the stats must count every job.
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let _permit = self.admit();
                    f(i, item)
                })
                .collect();
        }
        let task_threads = self.workers.min(items.len());
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R>>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let f = &f;
            let next = &next;
            let slots = &slots;
            for _ in 0..task_threads {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let permit = self.admit();
                    let result = f(i, item);
                    drop(permit);
                    *slots[i].lock().expect("pool result slot poisoned") = Some(result);
                });
            }
        });
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            let result = slot
                .into_inner()
                .expect("pool result slot poisoned")
                .expect("every item is processed before the scope ends");
            out.push(result?);
        }
        Ok(out)
    }

    /// Block until an execution slot is free, then claim it.
    fn admit(&self) -> Permit<'_> {
        let mut active = self.active.lock().expect("worker pool poisoned");
        while *active >= self.workers {
            active = self.freed.wait(active).expect("worker pool poisoned");
        }
        *active += 1;
        self.peak_active.fetch_max(*active, Ordering::Relaxed);
        Permit { pool: self }
    }
}

/// RAII claim on one pool slot; releasing wakes one parked worker.
struct Permit<'a> {
    pool: &'a WorkerPool,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut active = self.pool.active.lock().expect("worker pool poisoned");
        *active -= 1;
        self.pool.completed.fetch_add(1, Ordering::Relaxed);
        self.pool.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NegativaError;

    #[test]
    fn pooled_run_matches_serial_and_keeps_order() {
        let items: Vec<u64> = (0..37).collect();
        let serial = WorkerPool::new(1).run(&items, |i, v| Ok(i as u64 * 1000 + v)).unwrap();
        let pooled = WorkerPool::new(3).run(&items, |i, v| Ok(i as u64 * 1000 + v)).unwrap();
        assert_eq!(serial, pooled);
        assert_eq!(serial[3], 3003);
    }

    #[test]
    fn errors_propagate_and_prefer_the_smallest_index() {
        let items: Vec<u64> = (0..16).collect();
        for par in [WorkerPool::new(1), WorkerPool::new(4)] {
            let err = par
                .run(&items, |_, v| {
                    if *v >= 5 {
                        Err(NegativaError::EmptyDevices { workload: format!("w{v}") })
                    } else {
                        Ok(*v)
                    }
                })
                .unwrap_err();
            match err {
                NegativaError::EmptyDevices { workload } => assert_eq!(workload, "w5"),
                other => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn concurrency_never_exceeds_the_pool_size() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..64).collect();
        let in_f = AtomicUsize::new(0);
        let seen_peak = AtomicUsize::new(0);
        pool.run(&items, |_, v| {
            let now = in_f.fetch_add(1, Ordering::SeqCst) + 1;
            seen_peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            in_f.fetch_sub(1, Ordering::SeqCst);
            Ok(*v)
        })
        .unwrap();
        assert!(seen_peak.load(Ordering::SeqCst) <= 3, "pool admitted more than 3 workers");
        let stats = pool.stats();
        assert!(stats.peak_active <= 3);
        assert_eq!(stats.completed, 64);
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.fan_outs, 1, "one run() call is one fan-out");
        assert_eq!(*pool.active.lock().unwrap(), 0, "all permits released");
    }

    #[test]
    fn one_pool_bounds_concurrent_fan_outs_globally() {
        let pool = WorkerPool::new(2);
        let items: Vec<u64> = (0..32).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = pool.clone();
                let items = &items;
                scope.spawn(move || pool.run(items, |_, v| Ok(*v)).unwrap());
            }
        });
        let stats = pool.stats();
        assert!(stats.peak_active <= 2, "shared pool exceeded its bound: {stats:?}");
        assert_eq!(stats.completed, 4 * 32);
    }

    #[test]
    fn single_item_runs_go_through_the_admission_gate() {
        let pool = WorkerPool::new(2);
        let out = pool.run(&[7u64], |_, v| Ok(v * 3)).unwrap();
        assert_eq!(out, vec![21]);
        let stats = pool.stats();
        assert_eq!(stats.completed, 1, "inline jobs still count");
        assert_eq!(stats.peak_active, 1, "inline jobs still claim a slot");
        assert_eq!(stats.fan_outs, 1, "inline runs still count as a fan-out");
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let out = pool.run(&[1u64, 2, 3], |_, v| Ok(v * 2)).unwrap();
        assert_eq!(out, vec![2, 4, 6]);
    }
}
