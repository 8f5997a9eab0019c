//! The long-lived debloat service — the ROADMAP's serve-at-scale
//! layer, structured as a **staged admission pipeline**.
//!
//! The paper's deployment story is one framework installation serving
//! many jobs; operationally that makes debloating a *resident service*,
//! and its economics are amortization: one detect → plan → compact pass
//! should serve every concurrent consumer of the same bundle, not run
//! once per request. [`DebloatService`] realizes that with three
//! stages:
//!
//! 1. **Admission.** Clients submit [`DebloatRequest`]s over a
//!    *bounded* queue via cheap cloneable [`ServiceHandle`]s.
//!    [`ServiceHandle::submit`] blocks while the queue is full
//!    (backpressure); [`ServiceHandle::try_submit`] never blocks — a
//!    full queue sheds the request with a typed
//!    [`ServiceError::Overloaded`] so callers can retry or fail fast
//!    instead of piling up unbounded work.
//! 2. **Batching.** A batcher thread drains admitted requests and
//!    groups those sharing a *plan identity* — framework, target GPU
//!    fleet, and the workload/config fingerprints of
//!    [`crate::PlanKey`] — into one batch. Batching is adaptive: while
//!    every executor is busy, arriving requests accumulate into the
//!    pending batch of their identity (up to a configurable cap), so a
//!    burst of N same-bundle requests leaves the batcher as **one**
//!    union debloat. Grouping by full plan identity (never by framework
//!    alone) keeps batching invisible in the output: every requester
//!    receives libraries byte-identical to an unbatched run.
//! 3. **Execution.** Executor workers rendezvous with the batcher (a
//!    batch is handed over only when an executor is actually free), run
//!    the batch's single detection/plan/compaction through the shared
//!    single-flight [`PlanCache`] and bounded [`WorkerPool`], verify,
//!    and fan the response out to every requester in the batch — each
//!    reply carrying a [`MultiDebloatReport`] stamped with its batch
//!    provenance ([`MultiDebloatReport::batched`] /
//!    [`MultiDebloatReport::batch_size`]) plus the compacted libraries.
//!
//! Shutdown is staged too: [`DebloatService::shutdown`] stops
//! admission, lets the batcher drain and dispatch everything already
//! queued, then stops each executor after its last batch. A request
//! that raced shutdown and could not be served resolves to
//! [`ServiceError::Shutdown`] on [`Ticket::wait`] — never a bare
//! channel error.
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

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fatbin::FleetSpec;
use simcuda::GpuModel;
use simml::{FrameworkKind, GeneratedLibrary, RunConfig, Workload};

use crate::plan::{PlanCache, PlanKey};
use crate::pool::WorkerPool;
use crate::report::MultiDebloatReport;
use crate::{shared_framework, DebloatSession, Debloater, NegativaError, Result};

/// How often the batcher re-attempts dispatch while batches are waiting
/// for a free executor. This is the only polling in the pipeline, it
/// only happens under load (pending batches + saturated executors), and
/// it is what lets batches keep *growing* while they wait.
const DISPATCH_POLL: Duration = Duration::from_millis(1);

/// Why a [`DebloatService`] could not serve a request. Carried inside
/// [`NegativaError::Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded admission queue was full and the request was shed
    /// ([`ServiceHandle::try_submit`] only — [`ServiceHandle::submit`]
    /// blocks instead). Retry later or scale the service.
    Overloaded {
        /// The admission queue bound that was hit
        /// ([`DebloatServiceBuilder::queue_capacity`]).
        capacity: usize,
    },
    /// The service shut down (or an executor died) before this request
    /// completed: submission was refused, or the response channel closed
    /// without an answer.
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

/// One unit of work on the admission queue: a workload set to debloat
/// (all one framework, sharing one bundle) and the channel the answer
/// goes back on.
#[derive(Debug)]
pub struct DebloatRequest {
    /// Workloads whose union usage the debloat targets. Must be
    /// non-empty and single-framework ([`shared_framework`]); the
    /// batcher reports violations back on the reply channel instead of
    /// dying.
    pub workloads: Vec<Workload>,
    /// Per-request response channel. The service sends exactly one
    /// message per request; a dropped receiver is tolerated (the result
    /// is discarded).
    pub reply: mpsc::Sender<Result<DebloatResponse>>,
}

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
/// gauges that move with the pipeline) is a lifetime counter that only
/// grows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests taken off the admission queue by the batcher.
    pub accepted: u64,
    /// Requests answered with a verified report.
    pub completed: u64,
    /// Requests answered with an error (invalid sets at admission,
    /// pipeline failures at execution).
    pub failed: u64,
    /// Requests shed by [`ServiceHandle::try_submit`] because the
    /// bounded admission queue was full ([`ServiceError::Overloaded`]).
    pub shed: u64,
    /// Live gauge: requests admitted (queued or pending in the batcher)
    /// but not yet handed to an executor. Meaningful while the service
    /// runs; a request lost to a shutdown race can leave a residual.
    pub queue_depth: u64,
    /// Live gauge: batches currently executing.
    pub executing: u64,
    /// Batches executed (one union debloat each, successful or not).
    pub batches: u64,
    /// Total requests served across those batches; divided by
    /// [`ServiceStats::batches`] this is the mean batch size
    /// ([`ServiceStats::mean_batch_size`]) — the amortization factor
    /// the batcher achieved.
    pub batched_requests: u64,
    /// Library bytes deep-copied by executed batches' compactions
    /// (copy-on-write: at most one whole-file copy per library per
    /// batch, no matter how many requesters the batch served).
    pub bytes_copied: u64,
    /// Library bytes handed out *shared*: compacted images each
    /// requester's response references behind the batch's `Arc`, plus
    /// libraries whose plan had nothing to zero. Grows with the fan-out
    /// while [`ServiceStats::bytes_copied`] does not — their ratio is
    /// the zero-copy win ([`ServiceStats::sharing_ratio`]).
    pub bytes_shared: u64,
    /// Total wall time executed batches spent in *incremental*
    /// re-planning (usage diff + touched-library relocation), in
    /// nanoseconds; 0 until a changed workload set rides a prior plan.
    pub plan_diff_ns: u64,
    /// Payload bytes executed batches removed because the element's
    /// architecture runs on no fleet member
    /// ([`crate::LibraryReport::bytes_sliced_arch`], summed); always 0
    /// for a single-architecture fleet.
    pub bytes_sliced_arch: u64,
    /// Non-zero bytes executed batches eliminated by rewriting kept
    /// compressed elements in place with their unused kernels sliced
    /// ([`crate::LibraryReport::bytes_sliced_compressed`], summed);
    /// always 0 for a single-architecture fleet.
    pub bytes_sliced_compressed: u64,
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

    /// Fraction of served library bytes that were *shared* rather than
    /// deep-copied (0.0 before any traffic — never NaN). 0.5 means
    /// every byte copied once was handed out once more for free; a
    /// well-batched burst pushes this toward 1.0.
    pub fn sharing_ratio(&self) -> f64 {
        let total = self.bytes_copied + self.bytes_shared;
        if total == 0 {
            0.0
        } else {
            self.bytes_shared as f64 / total as f64
        }
    }

    /// Requests answered per request accepted (0.0 before any traffic —
    /// never NaN). Completed and failed both count as answered; the
    /// gap to 1.0 is work still in flight.
    pub fn answered_ratio(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / self.accepted as f64
        }
    }
}

/// Configuration of a [`DebloatService`]; built with
/// [`DebloatService::builder`].
#[derive(Debug)]
pub struct DebloatServiceBuilder {
    gpu: GpuModel,
    config: RunConfig,
    fleet: Option<FleetSpec>,
    service_workers: usize,
    queue_capacity: usize,
    max_batch: usize,
    pool: Option<Arc<WorkerPool>>,
    cache: Option<Arc<PlanCache>>,
    cache_capacity: usize,
    plan_ttl: Option<Duration>,
}

impl DebloatServiceBuilder {
    /// Override the execution settings every session uses (scale, cost
    /// model, sampling, subscribers).
    pub fn run_config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Scope every plan to an entire GPU **fleet** instead of just the
    /// service's own GPU ([`crate::Debloater::with_fleet`]): one
    /// artifact per identity serves every member architecture, with
    /// foreign-arch elements sliced and kept compressed elements
    /// rewritten in place. The service GPU's architecture is always
    /// folded in; batching then groups by the full fleet-scoped
    /// identity.
    pub fn fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Number of executor threads running batches (default 2, clamped
    /// to at least 1). This is the number of *union debloats* in
    /// flight; per-library work inside each is bounded separately by
    /// the worker pool, and batches are only handed to executors that
    /// are actually free.
    pub fn service_workers(mut self, workers: usize) -> Self {
        self.service_workers = workers.max(1);
        self
    }

    /// Bound of the admission queue (default
    /// [`DebloatService::DEFAULT_QUEUE_CAPACITY`], clamped to at least
    /// 1). The batcher buffers at most this many additional admitted
    /// requests, so the total undispatched backlog is bounded by twice
    /// this value; beyond it, [`ServiceHandle::submit`] blocks and
    /// [`ServiceHandle::try_submit`] sheds with
    /// [`ServiceError::Overloaded`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Maximum requests one batch may serve (default
    /// [`DebloatService::DEFAULT_MAX_BATCH`], clamped to at least 1). A
    /// group that reaches the cap is sealed and dispatched as-is; later
    /// requests with the same plan identity start the next batch.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Share `pool` for per-library locate/compact work (default: the
    /// process-wide [`WorkerPool::shared`]).
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Use `cache` for plans (default: a private per-framework
    /// partitioned cache with [`PlanCache::DEFAULT_CAPACITY`] per
    /// partition). An explicit cache wins over
    /// [`DebloatServiceBuilder::cache_capacity`] and
    /// [`DebloatServiceBuilder::plan_ttl`].
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Per-partition capacity of the service's private plan cache (pass
    /// a small value to exercise LRU eviction under key churn). Ignored
    /// if [`DebloatServiceBuilder::plan_cache`] supplies a cache.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Expire cached plans `ttl` after they are computed: the next
    /// request for a stale key transparently re-runs detection
    /// (refresh-on-expiry, still single-flight), so a long-lived
    /// service keeps its baselines current. Ignored if
    /// [`DebloatServiceBuilder::plan_cache`] supplies a cache.
    pub fn plan_ttl(mut self, ttl: Duration) -> Self {
        self.plan_ttl = Some(ttl);
        self
    }

    /// Start the service: spawn the batcher and the executors and
    /// return the running front end.
    pub fn build(self) -> DebloatService {
        let pool = self.pool.unwrap_or_else(WorkerPool::shared);
        let cache = self.cache.unwrap_or_else(|| {
            Arc::new(match self.plan_ttl {
                Some(ttl) => PlanCache::with_ttl(self.cache_capacity, ttl),
                None => PlanCache::new(self.cache_capacity),
            })
        });
        let mut debloater = Debloater::with_config(self.gpu, self.config.clone())
            .with_pool(pool.clone())
            .with_plan_cache(cache.clone());
        if let Some(fleet) = self.fleet {
            debloater = debloater.with_fleet(fleet);
        }
        let fleet = debloater.fleet();
        let shared = Arc::new(ServiceShared {
            debloater,
            pool,
            cache,
            fleet,
            config: self.config,
            queue_capacity: self.queue_capacity,
            sessions: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            executing: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            bytes_copied: AtomicU64::new(0),
            bytes_shared: AtomicU64::new(0),
            plan_diff_ns: AtomicU64::new(0),
            bytes_sliced_arch: AtomicU64::new(0),
            bytes_sliced_compressed: AtomicU64::new(0),
            compressed_rewritten: AtomicU64::new(0),
        });
        let (admission_tx, admission_rx) = mpsc::sync_channel::<QueueItem>(self.queue_capacity);
        // One rendezvous channel per executor: a batch leaves the
        // batcher only when some executor is actually parked in recv,
        // which is what lets batches keep growing while all are busy.
        let mut exec_txs = Vec::with_capacity(self.service_workers);
        let executors = (0..self.service_workers)
            .map(|i| {
                let (tx, rx) = mpsc::sync_channel::<ExecItem>(0);
                exec_txs.push(tx);
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("debloat-exec-{i}"))
                    .spawn(move || executor_loop(&shared, &rx))
                    .expect("spawning a service executor failed")
            })
            .collect();
        let batcher = {
            let shared = shared.clone();
            let max_batch = self.max_batch;
            std::thread::Builder::new()
                .name("debloat-batcher".into())
                .spawn(move || batcher_loop(&shared, &admission_rx, &exec_txs, max_batch))
                .expect("spawning the service batcher failed")
        };
        DebloatService { shared, tx: Some(admission_tx), batcher: Some(batcher), executors }
    }
}

/// What travels on the admission queue: a client request, or the
/// shutdown sentinel ([`DebloatService::shutdown`] enqueues exactly one
/// so the batcher can stop even while client handles are alive).
#[derive(Debug)]
enum QueueItem {
    Request(DebloatRequest),
    Shutdown,
}

/// What the batcher hands an executor: one batch (one union debloat
/// fanned out to every grouped requester), or the stop sentinel.
#[derive(Debug)]
enum ExecItem {
    Batch(Batch),
    Shutdown,
}

/// One group of admitted requests sharing a plan identity, executed as
/// a single union debloat.
#[derive(Debug)]
struct Batch {
    framework: FrameworkKind,
    /// The canonical (normalized) workload set — taken from the first
    /// grouped request; equal plan identity means an equal set.
    workloads: Vec<Workload>,
    /// Reply channels of every requester served by this batch.
    replies: Vec<mpsc::Sender<Result<DebloatResponse>>>,
}

/// A batch still sitting in the batcher, waiting for an executor.
#[derive(Debug)]
struct PendingBatch {
    key: PlanKey,
    /// Sealed batches reached [`DebloatServiceBuilder::max_batch`] and
    /// accept no further requests.
    sealed: bool,
    batch: Batch,
}

/// State shared between the service front end, the batcher, and the
/// executors.
#[derive(Debug)]
struct ServiceShared {
    debloater: Debloater,
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
    /// The fleet every plan identity is scoped to (always contains the
    /// service GPU's architecture).
    fleet: FleetSpec,
    config: RunConfig,
    queue_capacity: usize,
    /// One pinned session per framework, created on first request.
    sessions: Mutex<HashMap<FrameworkKind, DebloatSession>>,
    /// Set by shutdown so handles reject new submissions immediately.
    stopping: AtomicBool,
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    queue_depth: AtomicU64,
    executing: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    bytes_copied: AtomicU64,
    bytes_shared: AtomicU64,
    plan_diff_ns: AtomicU64,
    bytes_sliced_arch: AtomicU64,
    bytes_sliced_compressed: AtomicU64,
    compressed_rewritten: AtomicU64,
}

impl ServiceShared {
    /// The session pinned for `framework`, creating it on first use.
    fn session(&self, framework: FrameworkKind) -> DebloatSession {
        let mut sessions = self.sessions.lock().expect("service session map poisoned");
        sessions.entry(framework).or_insert_with(|| self.debloater.session(framework)).clone()
    }
}

/// The batching stage: drain admitted requests, group them by plan
/// identity, dispatch each group to a free executor as one batch.
fn batcher_loop(
    shared: &ServiceShared,
    rx: &mpsc::Receiver<QueueItem>,
    exec_txs: &[mpsc::SyncSender<ExecItem>],
    max_batch: usize,
) {
    let mut pending: VecDeque<PendingBatch> = VecDeque::new();
    let mut pending_total = 0usize;
    let mut stopping = false;
    loop {
        // Drain whatever is already admitted, up to the pending bound —
        // past it the admission queue itself fills and backpressure
        // reaches the handles. A draining shutdown ignores the bound so
        // the queue always empties.
        while stopping || pending_total < shared.queue_capacity {
            match rx.try_recv() {
                Ok(QueueItem::Request(request)) => {
                    pending_total += admit(shared, &mut pending, request, max_batch);
                }
                Ok(QueueItem::Shutdown) => stopping = true,
                Err(_) => break,
            }
        }
        // Dispatch in arrival order onto whichever executors are free.
        while let Some(item) = pending.pop_front() {
            let size = item.batch.replies.len();
            match try_dispatch(exec_txs, item.batch) {
                Dispatch::Done => {
                    pending_total -= size;
                    shared.queue_depth.fetch_sub(size as u64, Ordering::Relaxed);
                }
                Dispatch::Busy(batch) => {
                    // No executor free; put the batch back (it may keep
                    // growing) and stop trying this round.
                    pending.push_front(PendingBatch { batch, ..item });
                    break;
                }
                Dispatch::Dead(batch) => {
                    // Every executor died (panicked): the batch can
                    // never run. Fail its requesters with the typed
                    // Shutdown error instead of spinning forever.
                    pending_total -= size;
                    shared.queue_depth.fetch_sub(size as u64, Ordering::Relaxed);
                    shared.failed.fetch_add(size as u64, Ordering::Relaxed);
                    for reply in &batch.replies {
                        let _ = reply.send(Err(ServiceError::Shutdown.into()));
                    }
                }
            }
        }
        if stopping {
            if pending.is_empty() {
                // Everything visible was drained and dispatched; one
                // last look for requests that raced the sentinel, then
                // stop the executors.
                match rx.try_recv() {
                    Ok(QueueItem::Request(request)) => {
                        pending_total += admit(shared, &mut pending, request, max_batch);
                        continue;
                    }
                    _ => break,
                }
            }
            // Batches are waiting on busy executors; let them finish.
            std::thread::sleep(DISPATCH_POLL);
            continue;
        }
        // Wait for work: block when fully idle, poll briefly while
        // batches are parked so they dispatch the moment an executor
        // frees (and keep absorbing new same-identity requests). At the
        // pending bound, only sleep — receiving more would quietly
        // bypass the backpressure budget.
        if pending.is_empty() {
            match rx.recv() {
                Ok(QueueItem::Request(request)) => {
                    pending_total += admit(shared, &mut pending, request, max_batch);
                }
                Ok(QueueItem::Shutdown) => stopping = true,
                Err(_) => break, // service and every handle dropped
            }
        } else if pending_total < shared.queue_capacity {
            match rx.recv_timeout(DISPATCH_POLL) {
                Ok(QueueItem::Request(request)) => {
                    pending_total += admit(shared, &mut pending, request, max_batch);
                }
                Ok(QueueItem::Shutdown) => stopping = true,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        } else {
            std::thread::sleep(DISPATCH_POLL);
        }
    }
    // One sentinel per executor; each consumes exactly one and exits
    // after finishing its current batch.
    for tx in exec_txs {
        let _ = tx.send(ExecItem::Shutdown);
    }
}

/// Validate one admitted request and fold it into the pending batches.
/// Returns how many requests joined the pending set (0 when the request
/// was answered immediately with a validation error).
fn admit(
    shared: &ServiceShared,
    pending: &mut VecDeque<PendingBatch>,
    request: DebloatRequest,
    max_batch: usize,
) -> usize {
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    let DebloatRequest { workloads, reply } = request;
    let prepared = (|| {
        let framework = shared_framework(&workloads)?;
        let session = shared.session(framework);
        let normalized: Vec<Workload> =
            workloads.iter().map(|w| session.normalize(w)).collect::<Result<_>>()?;
        let key = PlanKey::for_fleet(framework, shared.fleet, &shared.config, &normalized);
        Ok((key, framework, normalized))
    })();
    match prepared {
        Ok((key, framework, normalized)) => {
            if let Some(open) =
                pending.iter_mut().rev().find(|item| item.key == key && !item.sealed)
            {
                open.batch.replies.push(reply);
                if open.batch.replies.len() >= max_batch {
                    open.sealed = true;
                }
            } else {
                pending.push_back(PendingBatch {
                    key,
                    sealed: max_batch <= 1,
                    batch: Batch { framework, workloads: normalized, replies: vec![reply] },
                });
            }
            1
        }
        Err(e) => {
            // Invalid sets never reach an executor: answer right away.
            shared.failed.fetch_add(1, Ordering::Relaxed);
            shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            let _ = reply.send(Err(e));
            0
        }
    }
}

/// Outcome of one dispatch attempt.
enum Dispatch {
    /// An executor took the batch.
    Done,
    /// Every live executor is busy; the batch stays pending (and may
    /// keep growing).
    Busy(Batch),
    /// Every executor's channel is disconnected — the workers died. The
    /// batch can never execute and must be failed, not re-queued.
    Dead(Batch),
}

/// Hand `batch` to any free executor (rendezvous try_send).
fn try_dispatch(exec_txs: &[mpsc::SyncSender<ExecItem>], batch: Batch) -> Dispatch {
    let mut item = ExecItem::Batch(batch);
    let mut all_dead = true;
    for tx in exec_txs {
        match tx.try_send(item) {
            Ok(()) => return Dispatch::Done,
            Err(mpsc::TrySendError::Full(back)) => {
                all_dead = false;
                item = back;
            }
            Err(mpsc::TrySendError::Disconnected(back)) => item = back,
        }
    }
    match item {
        ExecItem::Batch(batch) if all_dead => Dispatch::Dead(batch),
        ExecItem::Batch(batch) => Dispatch::Busy(batch),
        ExecItem::Shutdown => unreachable!("the batcher only dispatches batches"),
    }
}

/// The execution stage: one union debloat per batch, response fan-out
/// to every grouped requester.
fn executor_loop(shared: &ServiceShared, rx: &mpsc::Receiver<ExecItem>) {
    loop {
        match rx.recv() {
            Ok(ExecItem::Batch(batch)) => execute(shared, batch),
            Ok(ExecItem::Shutdown) | Err(_) => return,
        }
    }
}

fn execute(shared: &ServiceShared, batch: Batch) {
    let size = batch.replies.len();
    shared.executing.fetch_add(1, Ordering::Relaxed);
    let session = shared.session(batch.framework);
    // One detection / plan / compaction / verification for the whole
    // group; each per-request report carries the batch provenance.
    let result = session.debloat_many_artifact(&batch.workloads).map(|mut artifact| {
        artifact.report.batch_size = size;
        artifact.report.batched = size > 1;
        // Zero-copy accounting: the batch's single compaction copied
        // what it copied (O(1) in the batch size), while every
        // requester's response shares the compacted images behind one
        // Arc — each fanned-out reference counts its library bytes as
        // shared, which is exactly the copying a pre-copy-on-write
        // fan-out would have done.
        let fanned_out: u64 = artifact.libraries.iter().map(|lib| lib.image.len()).sum();
        shared.bytes_copied.fetch_add(artifact.report.bytes_copied, Ordering::Relaxed);
        shared
            .bytes_shared
            .fetch_add(artifact.report.bytes_shared + size as u64 * fanned_out, Ordering::Relaxed);
        shared.plan_diff_ns.fetch_add(artifact.report.plan_diff_ns, Ordering::Relaxed);
        let totals = artifact.report.totals();
        shared.bytes_sliced_arch.fetch_add(totals.bytes_sliced_arch, Ordering::Relaxed);
        shared.bytes_sliced_compressed.fetch_add(totals.bytes_sliced_compressed, Ordering::Relaxed);
        shared.compressed_rewritten.fetch_add(totals.compressed_rewritten, Ordering::Relaxed);
        DebloatResponse { report: artifact.report, libraries: Arc::new(artifact.libraries) }
    });
    let counter = if result.is_ok() { &shared.completed } else { &shared.failed };
    counter.fetch_add(size as u64, Ordering::Relaxed);
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared.batched_requests.fetch_add(size as u64, Ordering::Relaxed);
    // Requesters that dropped their tickets just discard their copy.
    let (last, rest) = batch.replies.split_last().expect("batches are never empty");
    for reply in rest {
        let _ = reply.send(result.clone());
    }
    let _ = last.send(result);
    shared.executing.fetch_sub(1, Ordering::Relaxed);
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
    tx: mpsc::SyncSender<QueueItem>,
    shared: Arc<ServiceShared>,
}

impl ServiceHandle {
    /// Enqueue a debloat of `workloads` (one framework, shared bundle)
    /// and return a [`Ticket`] for the response, **blocking while the
    /// bounded admission queue is full** — the backpressure entry
    /// point. Use [`ServiceHandle::try_submit`] to shed instead of
    /// waiting.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Shutdown`] if the service already shut down.
    pub fn submit(&self, workloads: Vec<Workload>) -> Result<Ticket> {
        if self.shared.stopping.load(Ordering::SeqCst) {
            return Err(ServiceError::Shutdown.into());
        }
        let (reply, rx) = mpsc::channel();
        self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.send(QueueItem::Request(DebloatRequest { workloads, reply })) {
            Ok(()) => Ok(Ticket { rx }),
            Err(_) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                Err(ServiceError::Shutdown.into())
            }
        }
    }

    /// Non-blocking admission: enqueue `workloads` if the bounded queue
    /// has room, otherwise shed the request immediately.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the admission queue is full
    /// (counted in [`ServiceStats::shed`]);
    /// [`ServiceError::Shutdown`] if the service already shut down.
    pub fn try_submit(&self, workloads: Vec<Workload>) -> Result<Ticket> {
        if self.shared.stopping.load(Ordering::SeqCst) {
            return Err(ServiceError::Shutdown.into());
        }
        let (reply, rx) = mpsc::channel();
        self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(QueueItem::Request(DebloatRequest { workloads, reply })) {
            Ok(()) => Ok(Ticket { rx }),
            Err(mpsc::TrySendError::Full(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded { capacity: self.shared.queue_capacity }.into())
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                Err(ServiceError::Shutdown.into())
            }
        }
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
/// [`DebloatService::shutdown`] (dropping the service performs the same
/// staged shutdown: admitted requests drain through the batcher and
/// executors, the stages join in order, and outstanding handles get
/// [`ServiceError::Shutdown`] on their next submit).
#[derive(Debug)]
pub struct DebloatService {
    shared: Arc<ServiceShared>,
    tx: Option<mpsc::SyncSender<QueueItem>>,
    batcher: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl DebloatService {
    /// Default bound of the admission queue.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

    /// Default cap on how many requests one batch may serve.
    pub const DEFAULT_MAX_BATCH: usize = 32;

    /// Start configuring a service whose sessions target `gpu`.
    pub fn builder(gpu: GpuModel) -> DebloatServiceBuilder {
        DebloatServiceBuilder {
            gpu,
            config: RunConfig::default(),
            service_workers: 2,
            queue_capacity: Self::DEFAULT_QUEUE_CAPACITY,
            max_batch: Self::DEFAULT_MAX_BATCH,
            fleet: None,
            pool: None,
            cache: None,
            cache_capacity: PlanCache::DEFAULT_CAPACITY,
            plan_ttl: None,
        }
    }

    /// A new client of this service's admission queue.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            tx: self.tx.as_ref().expect("service sender lives until shutdown").clone(),
            shared: self.shared.clone(),
        }
    }

    /// The plan cache backing every session (observability: stats,
    /// partitions, TTL, explicit invalidation).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.shared.cache
    }

    /// The worker pool bounding per-library work across batches.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.shared.pool
    }

    /// Lifetime counters plus the live queue-depth / executing gauges.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            queue_depth: self.shared.queue_depth.load(Ordering::Relaxed),
            executing: self.shared.executing.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            batched_requests: self.shared.batched_requests.load(Ordering::Relaxed),
            bytes_copied: self.shared.bytes_copied.load(Ordering::Relaxed),
            bytes_shared: self.shared.bytes_shared.load(Ordering::Relaxed),
            plan_diff_ns: self.shared.plan_diff_ns.load(Ordering::Relaxed),
            bytes_sliced_arch: self.shared.bytes_sliced_arch.load(Ordering::Relaxed),
            bytes_sliced_compressed: self.shared.bytes_sliced_compressed.load(Ordering::Relaxed),
            compressed_rewritten: self.shared.compressed_rewritten.load(Ordering::Relaxed),
        }
    }

    /// Stop the service in stages: reject new submissions, let the
    /// batcher drain and dispatch every request admitted ahead of the
    /// shutdown, stop each executor after its last batch, and join
    /// everything. Outstanding [`ServiceHandle`]s stay valid — their
    /// submissions simply fail with [`ServiceError::Shutdown`] — so
    /// shutdown never blocks on clients. A submission racing the
    /// shutdown either drains normally or resolves to
    /// [`ServiceError::Shutdown`] on its [`Ticket::wait`]; it is never
    /// silently lost.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        let Some(tx) = self.tx.take() else { return };
        self.shared.stopping.store(true, Ordering::SeqCst);
        // One sentinel for the batcher; it drains the queue first, then
        // stops each executor with its own sentinel.
        let _ = tx.send(QueueItem::Shutdown);
        drop(tx);
        let mut panicked = false;
        if let Some(batcher) = self.batcher.take() {
            panicked |= batcher.join().is_err();
        }
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
    use simml::{ModelKind, Operation};

    fn workload(op: Operation) -> Workload {
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, op)
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
        for (name, ratio) in [
            ("mean_batch_size", stats.mean_batch_size()),
            ("sharing_ratio", stats.sharing_ratio()),
            ("answered_ratio", stats.answered_ratio()),
        ] {
            assert_eq!(ratio, 0.0, "{name} must be exactly 0.0 with no traffic");
            assert!(ratio.is_finite(), "{name} must never be NaN/inf");
        }
    }

    #[test]
    fn sharing_and_answered_ratios_guard_their_denominators() {
        let stats = ServiceStats {
            bytes_copied: 100,
            bytes_shared: 300,
            accepted: 8,
            completed: 5,
            failed: 1,
            ..ServiceStats::default()
        };
        assert!((stats.sharing_ratio() - 0.75).abs() < 1e-9);
        assert!((stats.answered_ratio() - 0.75).abs() < 1e-9);
        // All-copied traffic is a valid 0.0, not a divide-by-zero dodge.
        let all_copied = ServiceStats { bytes_copied: 100, ..ServiceStats::default() };
        assert_eq!(all_copied.sharing_ratio(), 0.0);
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
