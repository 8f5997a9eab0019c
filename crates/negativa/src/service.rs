//! The long-lived debloat service — the ROADMAP's serve-at-scale
//! layer: one locked queue of batches between client handles and
//! executors.
//!
//! The paper's deployment story is one framework installation serving
//! many jobs; operationally that makes debloating a *resident service*,
//! and its economics are amortization: one detect → plan → compact pass
//! should serve every concurrent consumer of the same bundle, not run
//! once per request. [`DebloatService`] realizes that with two stages
//! around one queue:
//!
//! 1. **Admission into a batch queue.** Clients submit workload sets
//!    through cheap cloneable [`ServiceHandle`]s. The submitting thread
//!    validates and keys its set by *plan identity* — framework, target
//!    GPU fleet, and the workload fingerprint of [`crate::PlanKey`] —
//!    and folds it into the queued batch of that identity (up to
//!    [`DebloatService::DEFAULT_MAX_BATCH`] requests) or appends a new
//!    batch. A batch keeps absorbing same-identity requests until an
//!    executor takes it, so a burst of N same-bundle requests arriving
//!    while every executor is busy runs as **one** union debloat.
//!    Grouping by full plan identity (never by framework alone) keeps
//!    batching invisible in the output: every requester receives
//!    libraries byte-identical to an unbatched run. The queue is
//!    bounded in requests: at the bound [`ServiceHandle::submit`] blocks
//!    (backpressure) and [`ServiceHandle::try_submit`] sheds the request
//!    with a typed [`ServiceError::Overloaded`].
//! 2. **Execution.** A free executor takes the oldest batch, runs its
//!    single detection/plan/compaction through the shared single-flight
//!    [`PlanCache`] and bounded [`WorkerPool`], verifies, and fans the
//!    response out to every requester in the batch — each reply carrying
//!    a [`MultiDebloatReport`] stamped with its batch provenance
//!    ([`MultiDebloatReport::batched`] /
//!    [`MultiDebloatReport::batch_size`]) plus the compacted libraries.
//!
//! [`DebloatService::shutdown`] refuses new submissions, lets the
//! executors drain every queued batch, and joins them. Should the last
//! executor die instead, every queued request is answered with
//! [`ServiceError::Shutdown`] and later submissions are refused the
//! same way; [`Ticket::wait`] never surfaces a bare channel error.
//!
//! ```
//! use negativa_ml::service::{DebloatService, ServiceError};
//! use negativa_ml::NegativaError;
//! use simcuda::GpuModel;
//! use simml::{FrameworkKind, ModelKind, Operation, Workload};
//!
//! # fn main() -> Result<(), negativa_ml::NegativaError> {
//! let service = DebloatService::builder(GpuModel::T4).queue_capacity(32).build();
//! let handle = service.handle();
//! let w = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                         Operation::Inference);
//! // Non-blocking admission: a full queue sheds with a typed error
//! // instead of stalling the caller.
//! match handle.try_submit(vec![w]) {
//!     Ok(ticket) => {
//!         let response = ticket.wait()?;
//!         assert!(response.report.all_verified());
//!     }
//!     Err(NegativaError::Service(ServiceError::Overloaded { capacity })) => {
//!         assert_eq!(capacity, 32); // saturated: back off and retry
//!     }
//!     Err(e) => return Err(e),
//! }
//! service.shutdown(); // queued requests drain first
//! assert!(handle.submit(Vec::new()).is_err());
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use simcuda::GpuModel;
use simml::{GeneratedLibrary, Workload};

use crate::plan::{PlanCache, PlanKey};
use crate::pool::WorkerPool;
use crate::report::MultiDebloatReport;
use crate::{shared_framework, DebloatSession, Debloater, NegativaError, Result};

/// Why a [`DebloatService`] could not serve a request. Carried inside
/// [`NegativaError::Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded queue was full and the request was shed
    /// ([`ServiceHandle::try_submit`] only — [`ServiceHandle::submit`]
    /// blocks instead). Retry later or scale the service.
    Overloaded {
        /// The queue bound that was hit
        /// ([`DebloatServiceBuilder::queue_capacity`]).
        capacity: usize,
    },
    /// The service shut down (or its last executor died) before this
    /// request completed: submission was refused, or the request was
    /// answered without a result.
    Shutdown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { capacity } => write!(
                f,
                "debloat service overloaded: admission queue full (capacity {capacity}); \
                 request shed"
            ),
            ServiceError::Shutdown => {
                write!(f, "debloat service shut down before the request completed")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// What the service streams back for a successful request: the verified
/// report (with batch provenance) and the compacted library images
/// themselves.
#[derive(Debug, Clone)]
pub struct DebloatResponse {
    /// The multi-workload report; every contributing workload verified.
    /// [`MultiDebloatReport::batch_size`] records how many requests the
    /// underlying execution served.
    pub report: MultiDebloatReport,
    /// The debloated libraries, in bundle order — byte-identical to
    /// what a direct [`DebloatSession::debloat_many_artifact`] call
    /// returns, batched or not (grouping is by full plan identity). Shared
    /// behind an `Arc` so fanning one batch result out to N requesters
    /// is a refcount bump, not N copies of every library image.
    pub libraries: Arc<Vec<GeneratedLibrary>>,
}

/// Counters and live gauges of one [`DebloatService`]; see
/// [`DebloatService::stats`].
///
/// Every field except `queue_depth` and `executing` (point-in-time
/// gauges that move with the queue) is a lifetime counter that only
/// grows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests submitted and not shed: queued ones plus invalid sets
    /// refused at submission (which also count as `failed`).
    pub accepted: u64,
    /// Requests answered with a verified report.
    pub completed: u64,
    /// Requests answered with an error: invalid sets at submission,
    /// pipeline failures at execution, and queued requests the last
    /// executor left behind.
    pub failed: u64,
    /// Requests shed by [`ServiceHandle::try_submit`] because the
    /// bounded queue was full ([`ServiceError::Overloaded`]).
    pub shed: u64,
    /// Live gauge: requests queued but not yet taken by an executor;
    /// never more than [`DebloatServiceBuilder::queue_capacity`].
    pub queue_depth: u64,
    /// Live gauge: batches currently executing.
    pub executing: u64,
    /// Batches executed (one union debloat each, successful or not).
    pub batches: u64,
    /// Total requests served across those batches; divided by
    /// [`ServiceStats::batches`] this is the mean batch size
    /// ([`ServiceStats::mean_batch_size`]) — the amortization factor
    /// batching achieved.
    pub batched_requests: u64,
    /// Library bytes deep-copied by executed batches' compactions
    /// (copy-on-write: at most one whole-file copy per library per
    /// batch, no matter how many requesters the batch served).
    pub bytes_copied: u64,
    /// Library bytes handed out *shared*: compacted images each
    /// requester's response references behind the batch's `Arc`, plus
    /// libraries whose plan had nothing to zero. Grows with the fan-out
    /// while [`ServiceStats::bytes_copied`] does not — their ratio is
    /// the zero-copy win.
    pub bytes_shared: u64,
    /// Payload bytes executed batches removed because the element's
    /// architecture runs on no fleet member
    /// ([`crate::LibraryReport::bytes_sliced_arch`], summed); always 0
    /// for a single-architecture fleet.
    pub bytes_sliced_arch: u64,
    /// Compressed elements executed batches rewrote in place
    /// ([`crate::LibraryReport::compressed_rewritten`], summed).
    pub compressed_rewritten: u64,
}

impl ServiceStats {
    /// Mean number of requests served per executed batch (0.0 before
    /// any batch ran). 1.0 means no amortization; a burst of N
    /// same-bundle requests pushed through a busy service approaches N.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Account one executed batch of `size` requests; `None` is a
    /// debloat that unwound.
    fn record(&mut self, size: usize, result: Option<&Result<DebloatResponse>>) {
        let size = size as u64;
        self.batches += 1;
        self.batched_requests += size;
        let Some(Ok(response)) = result else {
            self.failed += size;
            return;
        };
        self.completed += size;
        // Zero-copy accounting: the batch's single compaction copied
        // what it copied (O(1) in the batch size), while every
        // requester's response shares the compacted images behind one
        // Arc — each fanned-out reference counts its library bytes as
        // shared, which is exactly the copying a pre-copy-on-write
        // fan-out would have done.
        let report = &response.report;
        let fanned_out: u64 = response.libraries.iter().map(|lib| lib.image.len()).sum();
        let totals = report.totals();
        self.bytes_copied += report.bytes_copied;
        self.bytes_shared += report.bytes_shared + size * fanned_out;
        self.bytes_sliced_arch += totals.bytes_sliced_arch;
        self.compressed_rewritten += totals.compressed_rewritten;
    }
}

/// Configuration of a [`DebloatService`]; built with
/// [`DebloatService::builder`].
#[derive(Debug)]
pub struct DebloatServiceBuilder {
    gpu: GpuModel,
    service_workers: usize,
    queue_capacity: usize,
    pool: Option<Arc<WorkerPool>>,
    cache_capacity: usize,
}

impl DebloatServiceBuilder {
    /// Number of executor threads running batches (default 2, clamped
    /// to at least 1). This is the number of *union debloats* in
    /// flight; per-library work inside each is bounded separately by
    /// the worker pool.
    pub fn service_workers(mut self, workers: usize) -> Self {
        self.service_workers = workers.max(1);
        self
    }

    /// Bound on queued requests, counted across all queued batches and
    /// not yet taken by an executor (default
    /// [`DebloatService::DEFAULT_QUEUE_CAPACITY`], clamped to at least
    /// 1). At the bound, [`ServiceHandle::submit`] blocks and
    /// [`ServiceHandle::try_submit`] sheds with
    /// [`ServiceError::Overloaded`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Share `pool` for per-library locate/compact work (default: the
    /// process-wide [`WorkerPool::shared`]).
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Per-framework capacity of the service's private plan cache
    /// (default [`PlanCache::DEFAULT_CAPACITY`]; pass a small value to
    /// exercise LRU eviction under key churn). The cache itself is
    /// [`DebloatService::plan_cache`].
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Start the service: spawn the executors and return the running
    /// front end.
    pub fn build(self) -> DebloatService {
        let shared = Arc::new(Shared::new(
            self.gpu,
            self.pool.unwrap_or_else(WorkerPool::shared),
            self.cache_capacity,
            self.queue_capacity,
        ));
        let executors = (0..self.service_workers)
            .map(|i| {
                let registration = Shared::register(&shared);
                std::thread::Builder::new()
                    .name(format!("debloat-exec-{i}"))
                    .spawn(move || registration.serve())
                    .expect("spawning a service executor failed")
            })
            .collect();
        DebloatService { shared, executors }
    }
}

/// Queued requests sharing a plan identity, executed as a single union
/// debloat.
#[derive(Debug)]
struct Batch {
    key: PlanKey,
    session: DebloatSession,
    /// The canonical (normalized) workload set — taken from the first
    /// grouped request; equal plan identity means an equal set.
    workloads: Vec<Workload>,
    /// Reply channels of every requester served by this batch.
    replies: Vec<mpsc::Sender<Result<DebloatResponse>>>,
}

/// Everything the handles and the executors share, behind one lock.
#[derive(Debug, Default)]
struct Queue {
    /// Batches waiting for an executor, oldest first.
    batches: VecDeque<Batch>,
    /// Set by shutdown, or when the last executor exits: no more
    /// submissions are taken.
    stopping: bool,
    /// Executors still registered ([`Registration`]).
    executors: usize,
    stats: ServiceStats,
}

/// State shared between the service front end, its handles and its
/// executors.
#[derive(Debug)]
struct Shared {
    debloater: Debloater,
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
    queue_capacity: usize,
    queue: Mutex<Queue>,
    /// Signalled when a batch is queued, and at shutdown.
    work: Condvar,
    /// Signalled when queued requests leave the queue, and at shutdown.
    room: Condvar,
    /// Makes the next executed batch panic, to test the unwind path.
    #[cfg(test)]
    panic_next_batch: std::sync::atomic::AtomicBool,
}

impl Shared {
    fn new(
        gpu: GpuModel,
        pool: Arc<WorkerPool>,
        cache_capacity: usize,
        queue_capacity: usize,
    ) -> Shared {
        let cache = Arc::new(PlanCache::new(cache_capacity));
        Shared {
            debloater: Debloater::new(gpu).with_pool(pool.clone()).with_plan_cache(cache.clone()),
            pool,
            cache,
            queue_capacity,
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            room: Condvar::new(),
            #[cfg(test)]
            panic_next_batch: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The queue. Every critical section leaves it consistent and none
    /// can panic midway, so a poisoned lock still guards a sound queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count one more live executor until the returned guard drops.
    fn register(shared: &Arc<Shared>) -> Registration {
        shared.lock().executors += 1;
        Registration(shared.clone())
    }

    /// Validate, normalize and key `workloads`.
    fn prepare(&self, workloads: &[Workload]) -> Result<(PlanKey, DebloatSession, Vec<Workload>)> {
        let session = self.debloater.session(shared_framework(workloads)?);
        let normalized: Vec<Workload> =
            workloads.iter().map(|w| session.normalize(w)).collect::<Result<_>>()?;
        Ok((session.plan_key(&normalized), session, normalized))
    }

    /// Queue `workloads`, waiting for room when `block` is set and
    /// shedding otherwise.
    fn submit(&self, workloads: &[Workload], block: bool) -> Result<Ticket> {
        let prepared = self.prepare(workloads);
        let mut queue = self.lock();
        if queue.stopping {
            return Err(ServiceError::Shutdown.into());
        }
        let (key, session, normalized) = match prepared {
            Ok(prepared) => prepared,
            Err(e) => {
                queue.stats.accepted += 1;
                queue.stats.failed += 1;
                return Err(e);
            }
        };
        while queue.stats.queue_depth >= self.queue_capacity as u64 {
            if !block {
                queue.stats.shed += 1;
                return Err(ServiceError::Overloaded { capacity: self.queue_capacity }.into());
            }
            queue = self.room.wait(queue).unwrap_or_else(PoisonError::into_inner);
            if queue.stopping {
                return Err(ServiceError::Shutdown.into());
            }
        }
        queue.stats.accepted += 1;
        queue.stats.queue_depth += 1;
        let (reply, rx) = mpsc::channel();
        let open = queue.batches.iter_mut().find(|batch| {
            batch.key == key && batch.replies.len() < DebloatService::DEFAULT_MAX_BATCH
        });
        match open {
            Some(batch) => batch.replies.push(reply),
            None => {
                queue.batches.push_back(Batch {
                    key,
                    session,
                    workloads: normalized,
                    replies: vec![reply],
                });
                drop(queue);
                self.work.notify_one();
            }
        }
        Ok(Ticket { rx })
    }

    /// Wait for the oldest batch and move its requests from the queue
    /// into execution; `None` once stopping with nothing left to run.
    fn next_batch(&self) -> Option<Batch> {
        let mut queue = self.lock();
        loop {
            if let Some(batch) = queue.batches.pop_front() {
                queue.stats.queue_depth -= batch.replies.len() as u64;
                queue.stats.executing += 1;
                drop(queue);
                self.room.notify_all();
                return Some(batch);
            }
            if queue.stopping {
                return None;
            }
            queue = self.work.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One union debloat for the whole batch, then the response fan-out
    /// to every grouped requester.
    fn execute(&self, batch: Batch) {
        let size = batch.replies.len();
        let mut executing = Executing { shared: self, size, result: None };
        #[cfg(test)]
        if self.panic_next_batch.swap(false, std::sync::atomic::Ordering::SeqCst) {
            panic!("injected executor panic");
        }
        let result = batch.session.debloat_many_artifact(&batch.workloads).map(|mut artifact| {
            artifact.report.batch_size = size;
            artifact.report.batched = size > 1;
            DebloatResponse { report: artifact.report, libraries: Arc::new(artifact.libraries) }
        });
        executing.result = Some(&result);
        drop(executing);
        // Requesters that dropped their tickets just discard their copy.
        let (last, rest) = batch.replies.split_last().expect("batches are never empty");
        for reply in rest {
            let _ = reply.send(result.clone());
        }
        let _ = last.send(result);
    }
}

/// One batch in execution. Dropping it counts the batch out of
/// `executing` and into the lifetime stats; a debloat that unwinds
/// drops it with no result, so the batch's requests count as failed.
struct Executing<'a> {
    shared: &'a Shared,
    size: usize,
    result: Option<&'a Result<DebloatResponse>>,
}

impl Drop for Executing<'_> {
    fn drop(&mut self) {
        let mut queue = self.shared.lock();
        queue.stats.executing -= 1;
        queue.stats.record(self.size, self.result);
    }
}

/// One live executor. Dropping it — the executor returned or unwound —
/// unregisters it; the last one out stops the service and answers every
/// request still queued with [`ServiceError::Shutdown`], so no ticket
/// waits on a batch nobody will run.
#[derive(Debug)]
struct Registration(Arc<Shared>);

impl Registration {
    /// The executor loop: run batches until the service stops and the
    /// queue is empty.
    fn serve(self) {
        while let Some(batch) = self.0.next_batch() {
            self.0.execute(batch);
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let mut queue = self.0.lock();
        queue.executors -= 1;
        if queue.executors > 0 {
            return;
        }
        queue.stopping = true;
        // Dropping a queued request's reply sender answers its ticket
        // with ServiceError::Shutdown (see Ticket::wait).
        for batch in std::mem::take(&mut queue.batches) {
            queue.stats.queue_depth -= batch.replies.len() as u64;
            queue.stats.failed += batch.replies.len() as u64;
        }
        drop(queue);
        self.0.room.notify_all();
    }
}

/// A pending request's claim check: blocks until the service answers.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<DebloatResponse>>,
}

impl Ticket {
    /// Block until the service answers this request.
    ///
    /// # Errors
    ///
    /// Whatever the debloat produced, or
    /// [`ServiceError::Shutdown`] (inside [`NegativaError::Service`])
    /// if the service shut down — or its executor died — without
    /// answering; a bare channel error never escapes.
    pub fn wait(self) -> Result<DebloatResponse> {
        self.rx.recv().map_err(|_| NegativaError::Service(ServiceError::Shutdown))?
    }
}

/// A cheap, cloneable client of a running [`DebloatService`]. Handles
/// outliving the service are safe: their submissions fail with
/// [`ServiceError::Shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Queue a debloat of `workloads` (one framework, shared bundle)
    /// and return a [`Ticket`] for the response, **blocking while the
    /// bounded queue is full** — the backpressure entry point. Use
    /// [`ServiceHandle::try_submit`] to shed instead of waiting.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Shutdown`] if the service already shut down;
    /// [`NegativaError::InvalidWorkloadSet`] /
    /// [`NegativaError::EmptyDevices`] for a set no debloat accepts.
    pub fn submit(&self, workloads: Vec<Workload>) -> Result<Ticket> {
        self.shared.submit(&workloads, true)
    }

    /// Non-blocking admission: queue `workloads` if the bounded queue
    /// has room, otherwise shed the request immediately.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the queue is full (counted in
    /// [`ServiceStats::shed`]); otherwise as
    /// [`ServiceHandle::submit`].
    pub fn try_submit(&self, workloads: Vec<Workload>) -> Result<Ticket> {
        self.shared.submit(&workloads, false)
    }

    /// Submit and wait: the blocking convenience for clients that have
    /// nothing else to do meanwhile.
    ///
    /// # Errors
    ///
    /// As [`ServiceHandle::submit`] and [`Ticket::wait`].
    pub fn request(&self, workloads: Vec<Workload>) -> Result<DebloatResponse> {
        self.submit(workloads)?.wait()
    }
}

/// The long-lived debloat service; see the [module docs](self).
///
/// Construct with [`DebloatService::builder`], talk to it through
/// [`DebloatService::handle`] clones, and stop it with
/// [`DebloatService::shutdown`] (dropping the service does the same:
/// queued requests drain through the executors, which are joined, and
/// outstanding handles get [`ServiceError::Shutdown`] on their next
/// submit).
#[derive(Debug)]
pub struct DebloatService {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
}

impl DebloatService {
    /// Default bound on queued requests.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

    /// Cap on how many requests one batch may serve; a queued batch
    /// that reaches it takes no more, and later requests with the same
    /// plan identity start the next batch.
    pub const DEFAULT_MAX_BATCH: usize = 32;

    /// Start configuring a service whose sessions target `gpu`.
    pub fn builder(gpu: GpuModel) -> DebloatServiceBuilder {
        DebloatServiceBuilder {
            gpu,
            service_workers: 2,
            queue_capacity: Self::DEFAULT_QUEUE_CAPACITY,
            pool: None,
            cache_capacity: PlanCache::DEFAULT_CAPACITY,
        }
    }

    /// A new client of this service's queue.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle { shared: self.shared.clone() }
    }

    /// The service's private plan cache backing every session
    /// (observability: stats and per-framework occupancy).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.shared.cache
    }

    /// The worker pool bounding per-library work across batches.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.shared.pool
    }

    /// Lifetime counters plus the live queue-depth / executing gauges.
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock().stats.clone()
    }

    /// Stop the service: refuse new submissions, let the executors run
    /// every batch queued ahead of the shutdown, and join them.
    /// Outstanding [`ServiceHandle`]s stay valid — their submissions
    /// simply fail with [`ServiceError::Shutdown`] — so shutdown never
    /// blocks on clients.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.lock().stopping = true;
        self.shared.work.notify_all();
        self.shared.room.notify_all();
        let mut panicked = false;
        for executor in self.executors.drain(..) {
            panicked |= executor.join().is_err();
        }
        if panicked && !std::thread::panicking() {
            // Surface worker panics from an explicit shutdown, but
            // never panic inside a Drop that runs during unwinding —
            // that would abort the process and mask the root cause.
            panic!("a service worker panicked");
        }
    }
}

impl Drop for DebloatService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::Gen;
    use simml::{FrameworkKind, ModelKind, Operation};

    fn workload(op: Operation) -> Workload {
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, op)
    }

    /// A service whose one executor is registered but not running yet,
    /// so everything submitted stays queued until the caller starts it
    /// (or drops the registration).
    fn parked(queue_capacity: usize) -> (Arc<Shared>, Registration) {
        let shared = Arc::new(Shared::new(
            GpuModel::T4,
            WorkerPool::new(2),
            PlanCache::DEFAULT_CAPACITY,
            queue_capacity,
        ));
        let registration = Shared::register(&shared);
        (shared, registration)
    }

    /// The drop guard: an executor that exits without running the queue
    /// leaves no ticket waiting and no submission accepted.
    #[test]
    fn the_last_executor_out_answers_every_queued_request_with_shutdown() {
        let (shared, registration) = parked(8);
        let handle = ServiceHandle { shared: shared.clone() };
        let tickets: Vec<Ticket> = [Operation::Inference, Operation::Train, Operation::Inference]
            .into_iter()
            .map(|op| handle.submit(vec![workload(op)]).expect("the queue has room"))
            .collect();
        assert_eq!(shared.lock().batches.len(), 2, "the two inference requests share a batch");
        drop(registration); // the executor died before running anything
        for ticket in tickets {
            let err = ticket.wait().unwrap_err();
            assert!(matches!(err, NegativaError::Service(ServiceError::Shutdown)), "got {err}");
        }
        let stats = shared.lock().stats.clone();
        assert_eq!((stats.accepted, stats.failed, stats.completed), (3, 3, 0));
        assert_eq!((stats.queue_depth, stats.batches), (0, 0));
        let err = handle.submit(vec![workload(Operation::Inference)]).unwrap_err();
        assert!(matches!(err, NegativaError::Service(ServiceError::Shutdown)), "got {err}");
        let err = handle.try_submit(vec![workload(Operation::Inference)]).unwrap_err();
        assert!(matches!(err, NegativaError::Service(ServiceError::Shutdown)), "got {err}");
    }

    /// An executor whose debloat unwinds still counts its batch out of
    /// `executing` and as failed, and the other executor goes on serving.
    #[test]
    fn an_executor_that_unwinds_is_still_counted() {
        let (shared, doomed) = parked(8);
        let survivor = Shared::register(&shared);
        let handle = ServiceHandle { shared: shared.clone() };
        shared.panic_next_batch.store(true, std::sync::atomic::Ordering::SeqCst);
        let tickets: Vec<Ticket> = (0..2)
            .map(|_| handle.submit(vec![workload(Operation::Inference)]).expect("room"))
            .collect();
        assert_eq!(shared.lock().batches.len(), 1, "one batch of two requests");
        let doomed = std::thread::spawn(move || doomed.serve());
        assert!(doomed.join().is_err(), "the injected panic unwinds the executor");
        for ticket in tickets {
            let err = ticket.wait().unwrap_err();
            assert!(matches!(err, NegativaError::Service(ServiceError::Shutdown)), "got {err}");
        }
        let stats = shared.lock().stats.clone();
        assert_eq!((stats.executing, stats.queue_depth), (0, 0));
        assert_eq!((stats.accepted, stats.failed, stats.completed), (2, 2, 0));
        assert_eq!((stats.batches, stats.batched_requests), (1, 2));

        let survivor = std::thread::spawn(move || survivor.serve());
        let response = handle.request(vec![workload(Operation::Inference)]).expect("served");
        assert_eq!(response.report.batch_size, 1);
        shared.lock().stopping = true;
        shared.work.notify_all();
        survivor.join().expect("the survivor exits cleanly");
        let stats = shared.lock().stats.clone();
        assert_eq!((stats.executing, stats.failed, stats.completed), (0, 2, 1));
    }

    /// Batched equals unbatched over generated bursts: each round
    /// queues a plug and the generated bursts before its one executor
    /// starts, so every distinct set runs as one batch, and every
    /// response equals a direct debloat of its set apart from the batch
    /// provenance.
    #[test]
    fn batched_responses_equal_unbatched_over_generated_bursts() {
        let (train, infer) = (workload(Operation::Train), workload(Operation::Inference));
        let sets = [vec![infer.clone()], vec![train.clone()], vec![train, infer]];
        let direct = Debloater::new(GpuModel::T4)
            .with_plan_cache(Arc::new(PlanCache::new(8)))
            .session(FrameworkKind::PyTorch);
        let expected: Vec<_> =
            sets.iter().map(|set| direct.debloat_many_artifact(set).expect("verifies")).collect();
        let plug = vec![Workload::paper(
            FrameworkKind::TensorFlow,
            ModelKind::MobileNetV2,
            Operation::Inference,
        )];
        let mut g = Gen(0x0b47_c4ed_05e7_b0a5);
        for round in 0..3 {
            let (shared, registration) = parked(DebloatService::DEFAULT_QUEUE_CAPACITY);
            let handle = ServiceHandle { shared: shared.clone() };
            let plug_ticket = handle.submit(plug.clone()).expect("the queue has room");
            let mut copies = [0usize; 3];
            let mut tickets = Vec::new();
            for _ in 0..g.pick(&[2, 3, 4]) {
                let (set, burst) = (g.pick(&[0, 1, 2]), g.pick(&[1, 2, 3]));
                copies[set] += burst;
                for _ in 0..burst {
                    let ticket = handle.submit(sets[set].clone()).expect("the queue has room");
                    tickets.push((set, ticket));
                }
            }
            let service = DebloatService {
                shared,
                executors: vec![std::thread::spawn(move || registration.serve())],
            };
            assert!(plug_ticket.wait().expect("plug answered").report.all_verified());
            for (set, ticket) in tickets {
                let DebloatResponse { report, libraries } = ticket.wait().expect("answered");
                assert_eq!((report.batch_size, report.batched), (copies[set], copies[set] > 1));
                let unbatched = MultiDebloatReport { batched: false, batch_size: 1, ..report };
                assert_eq!(unbatched, expected[set].report, "round {round}, set {set}");
                assert_eq!(*libraries, expected[set].libraries, "round {round}, set {set}");
            }
            let distinct = copies.iter().filter(|&&n| n > 0).count() as u64;
            assert_eq!(service.stats().batches, distinct + 1, "round {round}: {copies:?}");
            service.shutdown();
        }
    }

    #[test]
    fn invalid_sets_are_answered_not_fatal() {
        let service = DebloatService::builder(GpuModel::T4).service_workers(1).build();
        let handle = service.handle();
        let err = handle.request(Vec::new()).unwrap_err();
        assert!(matches!(err, NegativaError::InvalidWorkloadSet { .. }), "got {err}");
        let mixed = vec![
            workload(Operation::Inference),
            Workload::paper(FrameworkKind::TensorFlow, ModelKind::MobileNetV2, Operation::Train),
        ];
        let err = handle.request(mixed).unwrap_err();
        assert!(matches!(err, NegativaError::InvalidWorkloadSet { .. }), "got {err}");
        // The service survives bad requests and keeps serving.
        let mut bad = workload(Operation::Inference);
        bad.devices.clear();
        let err = handle.request(vec![bad]).unwrap_err();
        assert!(matches!(err, NegativaError::EmptyDevices { .. }), "got {err}");
        let stats = service.stats();
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.queue_depth, 0, "answered requests leave the pipeline");
        assert_eq!(stats.batches, 0, "invalid requests never reach an executor");
        drop(handle);
        service.shutdown();
    }

    #[test]
    fn submitting_after_shutdown_is_a_typed_shutdown_error() {
        let service = DebloatService::builder(GpuModel::T4).service_workers(1).build();
        let handle = service.handle();
        service.shutdown();
        let err = handle.submit(vec![workload(Operation::Inference)]).unwrap_err();
        assert!(matches!(err, NegativaError::Service(ServiceError::Shutdown)), "got {err}");
        let err = handle.try_submit(vec![workload(Operation::Inference)]).unwrap_err();
        assert!(matches!(err, NegativaError::Service(ServiceError::Shutdown)), "got {err}");
    }

    #[test]
    fn a_reply_channel_closed_without_an_answer_is_a_typed_shutdown_error() {
        // The executor-died / raced-shutdown path: the reply sender is
        // gone before any response was written. `wait` must surface the
        // typed Shutdown error, not a bare RecvError.
        let (reply, rx) = mpsc::channel::<Result<DebloatResponse>>();
        drop(reply);
        let err = Ticket { rx }.wait().unwrap_err();
        assert!(matches!(err, NegativaError::Service(ServiceError::Shutdown)), "got {err}");
    }

    #[test]
    fn dropped_ticket_does_not_wedge_the_service() {
        let service = DebloatService::builder(GpuModel::T4).service_workers(1).build();
        let handle = service.handle();
        let ticket = handle.submit(vec![workload(Operation::Inference)]).unwrap();
        drop(ticket); // client walked away; service must still drain
        let response = handle.request(vec![workload(Operation::Inference)]).unwrap();
        assert!(response.report.all_verified());
        assert!(response.report.batch_size >= 1);
        drop(handle);
        service.shutdown();
    }

    #[test]
    fn mean_batch_size_is_zero_before_any_batch() {
        let stats = ServiceStats::default();
        assert_eq!(stats.mean_batch_size(), 0.0);
        let stats = ServiceStats { batches: 2, batched_requests: 9, ..ServiceStats::default() };
        assert!((stats.mean_batch_size() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_snapshot_is_all_zeros_and_every_ratio_is_finite() {
        // A service that never saw a request must report a fully zeroed
        // snapshot, and every derived ratio must be 0.0 — never NaN or
        // a division panic.
        let service = DebloatService::builder(GpuModel::T4).service_workers(1).build();
        let stats = service.stats();
        service.shutdown();
        assert_eq!(stats, ServiceStats::default());
        assert_eq!(stats.mean_batch_size(), 0.0, "mean_batch_size must be exactly 0.0");
    }

    #[test]
    fn service_errors_display_their_cause() {
        let overloaded = NegativaError::from(ServiceError::Overloaded { capacity: 4 });
        assert!(overloaded.to_string().contains("overloaded"), "{overloaded}");
        assert!(overloaded.to_string().contains("capacity 4"), "{overloaded}");
        let shutdown = NegativaError::from(ServiceError::Shutdown);
        assert!(shutdown.to_string().contains("shut down"), "{shutdown}");
    }
}
