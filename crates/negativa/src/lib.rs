//! # negativa-ml — the paper's contribution
//!
//! The debloater from *The Hidden Bloat in Machine Learning Systems*
//! (MLSys 2025; see `PAPER.md` at the repository root), implemented
//! against the simulated substrates of this workspace. ML frameworks
//! ship shared libraries dominated by code a given workload never runs —
//! device code for GPUs you don't have, kernels for ops your model never
//! executes, host functions nothing calls. Negativa-ML removes it.
//!
//! ## Architecture: detect → plan → apply
//!
//! The pipeline is organized as three separable phases driven by a
//! [`DebloatSession`], which pins one framework bundle (and its
//! parse-once [`simelf::ElfIndex`] views — no open re-parses a symbol
//! table) for its whole lifetime:
//!
//! 1. **Detect** ([`DebloatSession::detect`], module [`detect`]) — run
//!    each workload once with a CUPTI `cuModuleGetFunction` hook (plus
//!    host-call probes) attached and record every kernel and CPU
//!    function actually used, as a [`UsageMap`]. Distributed workloads
//!    attach one detector *per rank* and union the rank-specific maps;
//!    multiple workloads sharing the bundle union the same way.
//! 2. **Plan** ([`DebloatSession::plan`], module [`plan`]) — map the
//!    union usage to byte ranges ([`locate()`]) per library, fanned out
//!    through a bounded [`WorkerPool`] shared across every in-flight
//!    debloat (module [`pool`]), producing a cacheable [`BundlePlan`]:
//!    per-library [`RetainPlan`]s keyed by framework, the target GPU
//!    **fleet** ([`fatbin::FleetSpec`] — one or more architectures a
//!    single artifact must serve, see [`Debloater::with_fleet`]),
//!    and a usage fingerprint, alongside each workload's baseline
//!    checksum and metrics. Plans live in a [`PlanCache`] partitioned
//!    per framework — each partition an independently locked,
//!    capacity-bounded LRU with **single-flight** miss handling
//!    (concurrent requests for one key run one detection between them)
//!    and optional TTL-based staleness (an expired plan is recomputed
//!    on the next request) — so a repeated debloat of the same
//!    (framework, model, operation, GPU) skips detection entirely.
//! 3. **Apply** ([`DebloatSession::apply`] + [`DebloatSession::verify_all`],
//!    modules [`mod@compact`] / [`mod@verify`]) — zero the planned ranges in
//!    place (offsets never move; the debloated library is a drop-in
//!    replacement) and re-run *every* contributing workload, demanding
//!    bit-identical output against its own baseline checksum. The
//!    re-runs are deduplicated by (workload, config) fingerprint —
//!    each unique workload verifies exactly once, duplicates share the
//!    outcome — and fan out through the same bounded [`WorkerPool`] as
//!    the locate and compact passes, in input order with first-error
//!    semantics preserved.
//!
//! Two entry points compose the phases. [`Debloater::debloat_many`]
//! debloats one or more workloads sharing one bundle (the paper's
//! deployment scenario: one framework installation serving many jobs —
//! compact once, against the union of everything observed) and returns
//! the [`MultiDebloatReport`]. [`DebloatSession::debloat_many_artifact`]
//! runs the same pipeline on a pinned session and returns everything it
//! produced — plan identity, normalized workloads, plan, report and the
//! compacted libraries — as a [`DebloatArtifact`].
//!
//! ## The service layer
//!
//! On top of the sessions sits [`service::DebloatService`], a staged
//! **admission → batch → execute** pipeline: a *bounded* admission
//! queue with blocking [`service::ServiceHandle::submit`] and
//! non-blocking [`service::ServiceHandle::try_submit`] (a full queue
//! sheds with the typed [`service::ServiceError::Overloaded`]); a
//! batcher that groups admitted requests sharing a plan identity
//! ([`PlanKey`]) into one union debloat while the executors are busy;
//! and executor workers that run each batch once — through the
//! partitioned single-flight [`PlanCache`] and the bounded shared
//! [`WorkerPool`] — then fan the verified [`MultiDebloatReport`] plus
//! the compacted libraries out to every grouped requester. A burst of N
//! same-bundle requests costs one detection and one compaction, not N,
//! and every response is byte-identical to the unbatched path. This is
//! the ROADMAP's serve-at-scale direction: debloating as a resident
//! operational service with backpressure, not a one-shot tool.
//!
//! ## The packaging and distribution layer
//!
//! A debloat's end product is a *shippable, smaller bundle*. Produce
//! one with [`DebloatSession::debloat_many_artifact`] and publish it
//! with [`Registry::publish`]. A [`registry`] root is the one on-disk
//! format: compacted bytes and the encoded [`BundlePlan`] as
//! content-addressed pool objects, plus a self-hashed manifest per
//! artifact with its per-workload baseline checksums. [`Registry::open`] hands back a [`StoredArtifact`]
//! ([`store`]) whose [`StoredArtifact::verify`] checks every content
//! hash and re-runs every contributing workload against its recorded
//! baseline from a cold process. The on-disk formats live in
//! [`manifest`], encoded through the shared dependency-free JSON codec
//! in [`codec`].
//!
//! One registry holds *many* artifacts over one shared
//! content-addressed object pool (byte-identical libraries two
//! artifacts both ship are stored once), ships between registries as
//! a want-list delta (only the objects the receiver lacks move,
//! hash-checked on both ends), garbage-collects by refcounting over
//! the index, and resolves by compatibility
//! ([`registry::Registry::resolve`] — the newest artifact whose
//! [`fatbin::FleetSpec`] runs on a given architecture). The [`net`]
//! module puts those verbs on the wire with nothing but `std::net`
//! loopback TCP: a [`RegistryServer`] serves one registry over a
//! length-prefixed framed RPC protocol, and [`RemoteRegistry`] pulls,
//! pushes, resolves, and even cold-verifies over the socket — with
//! bounded retries, range-read resumption of interrupted transfers,
//! whole-object hash checks (corruption is re-fetched, never
//! installed), and a deterministic [`FaultInjector`] to prove all of
//! that under dropped connections, truncations, and flipped bytes.
//!
//! ```
//! use negativa_ml::Debloater;
//! use simcuda::GpuModel;
//! use simml::{FrameworkKind, ModelKind, Operation, Workload};
//!
//! # fn main() -> Result<(), negativa_ml::NegativaError> {
//! let workload = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                                Operation::Inference);
//! let report = Debloater::new(GpuModel::T4).debloat_many(&[workload])?;
//! assert!(report.totals().file_reduction_pct() > 30.0);
//! assert!(report.workloads[0].time_reduction_pct() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use simcuda::cupti::CuptiSubscriber;
use simcuda::GpuModel;
use simelf::ElfIndex;
use simml::{
    cached_bundle, cached_bundle_with, cached_indexes, generate_library, BundleHandle,
    FrameworkBundle, FrameworkKind, GeneratedLibrary, RunConfig, RunOutcome, Workload,
};

pub mod codec;
pub mod compact;
pub mod detect;
mod error;
pub mod locate;
pub mod manifest;
pub mod net;
pub mod plan;
pub mod pool;
pub mod registry;
pub mod report;
pub mod service;
pub mod store;
pub mod verify;

pub use compact::{compact, CompactionOutcome};
pub use detect::{KernelDetector, UsageMap};
pub use error::NegativaError;
pub use fatbin::{FleetSpec, SmArch};
pub use locate::{locate, ElementRewrite, LocateStats, RetainPlan, RewriteKind};
pub use manifest::{ManifestEntry, StoreManifest, WorkloadRecord};
pub use net::{
    Dialer, FaultInjector, NetClient, NetError, NetStats, RegistryServer, RemoteRegistry,
    RetryPolicy, TcpDialer,
};
pub use plan::{BundlePlan, PlanCache, PlanCacheStats, PlanKey, PlanSource, WorkloadBaseline};
pub use pool::{Parallelism, PoolStats, WorkerPool};
pub use registry::{
    ArtifactOffer, ExpireReport, GcReport, Registry, RegistryStats, ShipReport, WantList,
};
pub use report::{LibraryReport, MultiDebloatReport, Totals, WorkloadVerification};
pub use service::{
    DebloatRequest, DebloatResponse, DebloatService, ServiceError, ServiceHandle, ServiceStats,
    Ticket,
};
pub use store::{StoreError, StoreVerification, StoredArtifact, VerifiedWorkload};
pub use verify::verify_indexed;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, NegativaError>;

/// Validate that `workloads` is non-empty and single-framework, and
/// return that shared framework — the precondition for every
/// shared-bundle debloat (`debloat_many`, service requests).
///
/// # Errors
///
/// [`NegativaError::InvalidWorkloadSet`] for an empty set or one mixing
/// frameworks.
pub fn shared_framework(workloads: &[Workload]) -> Result<FrameworkKind> {
    let Some(first) = workloads.first() else {
        return Err(NegativaError::InvalidWorkloadSet {
            reason: "debloat_many needs at least one workload".into(),
        });
    };
    let framework = first.framework;
    if let Some(stray) = workloads.iter().find(|w| w.framework != framework) {
        return Err(NegativaError::InvalidWorkloadSet {
            reason: format!(
                "workloads mix frameworks ({} vs {}); they cannot share a bundle",
                framework.name(),
                stray.framework.name()
            ),
        });
    }
    Ok(framework)
}

/// Bound on the per-workload detection memo; past it the memo resets
/// (measurements are pure and re-derivable, so a reset only costs
/// re-detection, never correctness).
const DETECTION_MEMO_CAP: usize = 256;

/// Per-workload detection memo shared by a [`Debloater`]'s sessions,
/// keyed by ([`plan::workload_fingerprint`],
/// [`plan::config_fingerprint`]) — the workload fingerprint covers the
/// normalized device list, so one GPU's measurements never serve
/// another's. This is what powers incremental re-planning: when one
/// workload in a set changes, the unchanged workloads' usage and
/// baselines come from here instead of re-running detection.
#[derive(Debug, Default)]
struct DetectionCache {
    memos: Mutex<HashMap<(u64, u64), DetectionMemo>>,
}

/// One memoized detection: the usage a workload exercised plus the
/// baseline it was measured against, shared between the memo map and
/// every plan built from it.
type DetectionMemo = Arc<(UsageMap, WorkloadBaseline)>;

/// The diff base for incremental re-planning: the last planned identity
/// and its normalized workload set, per framework, shared by a
/// [`Debloater`] and all its sessions.
type PriorPlans = Arc<Mutex<HashMap<FrameworkKind, (PlanKey, Vec<Workload>)>>>;

impl DetectionCache {
    fn get(&self, key: (u64, u64)) -> Option<DetectionMemo> {
        self.memos.lock().expect("detection memo poisoned").get(&key).cloned()
    }

    fn insert(&self, key: (u64, u64), memo: DetectionMemo) {
        let mut memos = self.memos.lock().expect("detection memo poisoned");
        if memos.len() >= DETECTION_MEMO_CAP && !memos.contains_key(&key) {
            memos.clear();
        }
        memos.insert(key, memo);
    }
}

/// Bound on the cross-pair verification memo; same reset-past-the-cap
/// policy as the detection memo (outcomes are pure measurements, so a
/// reset only costs re-verification, never correctness).
const VERIFY_MEMO_CAP: usize = 256;

/// Cross-pair verification memo shared by a [`Debloater`]'s sessions
/// (and their clones): one proven [`RunOutcome`] per
/// ([`plan::workload_fingerprint`], [`plan::config_fingerprint`],
/// [`plan::bundle_fingerprint`]) triple. The bundle fingerprint folds
/// the per-library content hashes — the same digests an artifact
/// manifest's entries record — so a hit means *these exact bytes* were
/// already verified for this workload under this config, and runs are
/// deterministic in exactly that triple. This closes the last
/// in-process duplicate run: identical (workload, bundle) pairs are
/// deduplicated **across** verify passes, not just within one.
#[derive(Debug, Default)]
struct VerifyCache {
    memos: Mutex<HashMap<(u64, u64, u64), RunOutcome>>,
}

/// One verification the memo could not serve: the unique slot it
/// fills, its `(workload fp, config fp, bundle fp)` memo key, and the
/// workload with its expected baseline checksum.
type PendingVerify<'w> = (usize, (u64, u64, u64), &'w Workload, u64);

impl VerifyCache {
    fn get(&self, key: (u64, u64, u64)) -> Option<RunOutcome> {
        self.memos.lock().expect("verify memo poisoned").get(&key).cloned()
    }

    fn insert(&self, key: (u64, u64, u64), outcome: RunOutcome) {
        let mut memos = self.memos.lock().expect("verify memo poisoned");
        if memos.len() >= VERIFY_MEMO_CAP && !memos.contains_key(&key) {
            memos.clear();
        }
        memos.insert(key, outcome);
    }
}

/// The end-to-end debloat pipeline for one GPU model.
#[derive(Debug, Clone)]
pub struct Debloater {
    gpu: GpuModel,
    fleet: FleetSpec,
    config: RunConfig,
    parallelism: Parallelism,
    cache: Arc<PlanCache>,
    /// Per-workload detection memo, shared across this debloater's
    /// sessions (and their clones) to feed incremental re-planning.
    detections: Arc<DetectionCache>,
    /// Cross-pair verification memo, shared the same way: identical
    /// (workload, config, bundle content) verifications run once per
    /// debloater, across passes.
    verifications: Arc<VerifyCache>,
    /// Last planned identity per framework: the diff base for
    /// incremental re-planning when the workload set changes.
    prior: PriorPlans,
}

impl Debloater {
    /// A debloater targeting `gpu` with default execution settings: the
    /// process-wide shared [`WorkerPool`] and [`PlanCache`].
    pub fn new(gpu: GpuModel) -> Debloater {
        Debloater::with_config(gpu, RunConfig::default())
    }

    /// Override the execution settings (scale, cost model, sampling).
    ///
    /// Subscribers in `config` are attached to *every* run including
    /// verification; the kernel detector is added on top (one per rank)
    /// for detection runs.
    pub fn with_config(gpu: GpuModel, config: RunConfig) -> Debloater {
        Debloater {
            gpu,
            fleet: FleetSpec::single(gpu.arch()),
            config,
            parallelism: Parallelism::shared(),
            cache: plan::process_cache(),
            detections: Arc::new(DetectionCache::default()),
            verifications: Arc::new(VerifyCache::default()),
            prior: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Toggle the per-library locate/compact fan-out (on by default,
    /// through the process-wide shared [`WorkerPool`]). The serial path
    /// produces byte-identical results; turn it off to debug or to pin
    /// work to one core.
    pub fn with_parallelism(mut self, parallel: bool) -> Debloater {
        self.parallelism = if parallel { Parallelism::shared() } else { Parallelism::Serial };
        self
    }

    /// Fan per-library work out through `pool` instead of the
    /// process-wide shared one — e.g. a service's private pool with an
    /// explicit bound.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Debloater {
        self.parallelism = Parallelism::Pool(pool);
        self
    }

    /// Use `cache` for plans instead of the process-wide default — e.g.
    /// a service's own capacity-bounded instance.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Debloater {
        self.cache = cache;
        self
    }

    /// Plan for an entire GPU **fleet** instead of just this
    /// debloater's own GPU: location retains the best compatible SASS
    /// flavor *per fleet member* (union of the per-member keeps), and
    /// compaction **slices** device code no fleet member can run —
    /// zeroing foreign-arch elements (flagged [`fatbin::Element::SLICED_FLAG`])
    /// and rewriting kept *compressed* elements in place with their
    /// unused kernels removed. One artifact then serves every member.
    ///
    /// The session's own GPU is always folded into the fleet
    /// (verification re-runs every workload on it, and its loader
    /// ignores kept higher-arch flavors), so
    /// `with_fleet(FleetSpec::single(self.gpu.arch()))` is a no-op and
    /// a single-member fleet produces output byte-identical to the
    /// default path.
    pub fn with_fleet(mut self, fleet: FleetSpec) -> Debloater {
        self.fleet = fleet.including(self.gpu.arch());
        self
    }

    /// The GPU model this debloater targets.
    pub fn gpu(&self) -> GpuModel {
        self.gpu
    }

    /// The GPU fleet plans are scoped to — the session GPU's
    /// architecture alone unless widened by [`Debloater::with_fleet`].
    pub fn fleet(&self) -> FleetSpec {
        self.fleet
    }

    /// Open a session against `framework`'s bundle: pins the bundle
    /// handle and its parse-once ELF indexes, exposing the detect /
    /// plan / apply phases individually for callers that want to
    /// compose them (e.g. the long-lived [`service::DebloatService`]).
    pub fn session(&self, framework: FrameworkKind) -> DebloatSession {
        DebloatSession {
            gpu: self.gpu,
            fleet: self.fleet,
            config: self.config.clone(),
            parallelism: self.parallelism.clone(),
            cache: self.cache.clone(),
            detections: self.detections.clone(),
            verifications: self.verifications.clone(),
            prior: self.prior.clone(),
            framework,
            bundle: self.bundle_for(framework),
            indexes: cached_indexes(framework),
        }
    }

    /// The pinned, process-shared bundle for `framework`. With a worker
    /// pool configured, a cold cache is filled by fanning per-library
    /// generation out through that pool ([`generate_library`] per
    /// roster entry, reassembled via
    /// [`FrameworkBundle::from_libraries`]); generation is pure, so the
    /// result is byte-identical to the serial fill and whichever path
    /// ran first is unobservable to every later caller.
    fn bundle_for(&self, framework: FrameworkKind) -> BundleHandle {
        match &self.parallelism {
            Parallelism::Serial => cached_bundle(framework),
            pooled => cached_bundle_with::<NegativaError>(framework, || {
                let specs = framework.lib_specs();
                let libraries = pooled
                    .run(&specs, |_, spec| generate_library(spec).map_err(NegativaError::from))?;
                FrameworkBundle::from_libraries(framework, libraries).map_err(NegativaError::from)
            })
            .expect("bundle generation is deterministic and must not fail"),
        }
    }

    /// Debloat one shared bundle against the **union** usage of one or
    /// more workloads — the paper's multi-workload deployment scenario.
    /// Usage is detected per workload (and per rank for distributed
    /// ones), unioned via [`UsageMap::merge`], compacted once, and the
    /// result is verified against *every* workload's own baseline
    /// checksum. [`DebloatSession::debloat_many_artifact`] returns the
    /// compacted libraries and plan as well.
    ///
    /// # Errors
    ///
    /// [`NegativaError::InvalidWorkloadSet`] for an empty set or one
    /// mixing frameworks, [`NegativaError::EmptyDevices`] if a workload
    /// names no devices, [`NegativaError::Workload`] if the bundle
    /// cannot execute at all, [`NegativaError::OverCompaction`] /
    /// [`NegativaError::ChecksumMismatch`] if verification rejects the
    /// debloated bundle (no report is produced — a failed verification
    /// means the originals must stay).
    pub fn debloat_many(&self, workloads: &[Workload]) -> Result<MultiDebloatReport> {
        let framework = shared_framework(workloads)?;
        Ok(self.session(framework).debloat_many_artifact(workloads)?.report)
    }
}

/// Everything one finished debloat produced, bundled for persistence:
/// the full plan identity, the normalized workloads, the (shared) plan,
/// the verified report, and the compacted libraries. Produced by
/// [`DebloatSession::debloat_many_artifact`]; consumed by
/// [`Registry::publish`].
#[derive(Debug, Clone)]
pub struct DebloatArtifact {
    /// Full plan identity of this debloat.
    pub key: PlanKey,
    /// GPU the debloat targeted.
    pub gpu: GpuModel,
    /// The contributing workloads, normalized to `gpu` — exactly what
    /// out-of-process verification must re-run.
    pub workloads: Vec<Workload>,
    /// The plan the compaction applied (shared with the plan cache).
    pub plan: Arc<BundlePlan>,
    /// The verified multi-workload report.
    pub report: MultiDebloatReport,
    /// The compacted, verified libraries, in bundle order.
    pub libraries: Vec<GeneratedLibrary>,
}

/// Everything the detection phase measured: the union [`UsageMap`] plus
/// each contributing workload's baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Union of everything observed in use, across workloads and ranks.
    pub usage: UsageMap,
    /// One baseline per workload, in input order.
    pub baselines: Vec<WorkloadBaseline>,
}

/// One framework bundle pinned for a detect → plan → apply lifetime.
///
/// Created by [`Debloater::session`]. Holds the shared
/// [`BundleHandle`] and the bundle's parse-once [`ElfIndex`] views, so
/// no phase — baseline, detection, location, or verification — parses a
/// symbol table more than once per library per process.
#[derive(Debug, Clone)]
pub struct DebloatSession {
    gpu: GpuModel,
    fleet: FleetSpec,
    config: RunConfig,
    parallelism: Parallelism,
    cache: Arc<PlanCache>,
    detections: Arc<DetectionCache>,
    verifications: Arc<VerifyCache>,
    prior: PriorPlans,
    framework: FrameworkKind,
    bundle: BundleHandle,
    indexes: Arc<Vec<ElfIndex>>,
}

impl DebloatSession {
    /// The framework this session's bundle belongs to.
    pub fn framework(&self) -> FrameworkKind {
        self.framework
    }

    /// The GPU fleet this session's plans are scoped to (always
    /// contains the session GPU's own architecture).
    pub fn fleet(&self) -> FleetSpec {
        self.fleet
    }

    /// The pinned bundle handle.
    pub fn bundle(&self) -> &BundleHandle {
        &self.bundle
    }

    /// Pin a workload to this session: every rank is retargeted to the
    /// session's GPU, preserving the rank count.
    ///
    /// # Errors
    ///
    /// [`NegativaError::EmptyDevices`] if the workload names no devices
    /// (the debloater refuses to guess a world size), and
    /// [`NegativaError::InvalidWorkloadSet`] if the workload belongs to
    /// a different framework than this session.
    pub fn normalize(&self, workload: &Workload) -> Result<Workload> {
        if workload.framework != self.framework {
            return Err(NegativaError::InvalidWorkloadSet {
                reason: format!(
                    "workload {} does not run on this session's {} bundle",
                    workload.label(),
                    self.framework.name()
                ),
            });
        }
        if workload.devices.is_empty() {
            return Err(NegativaError::EmptyDevices { workload: workload.label() });
        }
        let mut workload = workload.clone();
        workload.devices = vec![self.gpu; workload.devices.len()];
        Ok(workload)
    }

    /// Phase 1 — run every workload twice on the original bundle:
    /// baseline (no profiler) and detection (one [`KernelDetector`] per
    /// rank, rank-specific usage unioned via [`UsageMap::merge`]).
    ///
    /// # Errors
    ///
    /// [`NegativaError::InvalidWorkloadSet`] for an empty set;
    /// normalization and execution errors as documented on
    /// [`DebloatSession::normalize`] and [`Debloater::debloat_many`].
    pub fn detect(&self, workloads: &[Workload]) -> Result<Detection> {
        let normalized: Vec<Workload> =
            workloads.iter().map(|w| self.normalize(w)).collect::<Result<_>>()?;
        self.detect_normalized(&normalized)
    }

    /// [`DebloatSession::detect`] for workloads already pinned by
    /// [`DebloatSession::normalize`] (so composed phases normalize each
    /// workload exactly once).
    fn detect_normalized(&self, workloads: &[Workload]) -> Result<Detection> {
        if workloads.is_empty() {
            return Err(NegativaError::InvalidWorkloadSet {
                reason: "detection needs at least one workload".into(),
            });
        }
        let mut usage = UsageMap::new();
        let mut baselines = Vec::with_capacity(workloads.len());
        for workload in workloads {
            // Always measure (full detection is the ground truth), but
            // write through to the memo so a later *incremental*
            // re-plan can reuse the unchanged workloads' measurements.
            let memo = Arc::new(self.detect_one(workload)?);
            self.detections.insert(self.memo_key(workload), memo.clone());
            usage.merge(&memo.0);
            baselines.push(memo.1.clone());
        }
        Ok(Detection { usage, baselines })
    }

    /// Run one workload twice — baseline, then detection with one
    /// [`KernelDetector`] per rank — and return its usage union and
    /// baseline record. Pure measurement of a deterministic run: the
    /// result depends only on (workload, config, bundle).
    fn detect_one(&self, workload: &Workload) -> Result<(UsageMap, WorkloadBaseline)> {
        let libraries = self.bundle.libraries();
        let baseline = self.run(workload, libraries, &self.config)?;

        let detectors: Vec<Arc<KernelDetector>> =
            (0..workload.devices.len()).map(|_| Arc::new(KernelDetector::new())).collect();
        let mut detect_config = self.config.clone();
        let handout = detectors.clone();
        // Pushed, not assigned: any caller-installed per-rank
        // profilers keep receiving the detection run's events.
        detect_config
            .rank_subscribers
            .push(simml::RankSubscriberSpec::new("negativa-rank-detectors", move |rank| {
                handout[rank].clone() as Arc<dyn CuptiSubscriber>
            }));
        let detection = self.run(workload, libraries, &detect_config)?;
        let mut usage = UsageMap::new();
        for detector in &detectors {
            usage.merge(&detector.snapshot());
        }
        let baseline = WorkloadBaseline {
            label: workload.label(),
            checksum: baseline.checksum,
            baseline: baseline.metrics,
            detection: detection.metrics,
        };
        Ok((usage, baseline))
    }

    /// Memo key of one normalized workload's detection (the workload
    /// fingerprint covers the normalized device list, so the session's
    /// GPU is part of the key).
    fn memo_key(&self, workload: &Workload) -> (u64, u64) {
        (plan::workload_fingerprint(workload), plan::config_fingerprint(&self.config))
    }

    /// [`DebloatSession::detect_one`] through the shared memo: a hit
    /// skips both runs (detection is a pure measurement), a miss
    /// measures and writes through.
    fn detect_one_memoized(&self, workload: &Workload) -> Result<DetectionMemo> {
        let key = self.memo_key(workload);
        if let Some(memo) = self.detections.get(key) {
            return Ok(memo);
        }
        let memo = Arc::new(self.detect_one(workload)?);
        self.detections.insert(key, memo.clone());
        Ok(memo)
    }

    /// Phase 2 — turn a detection result into a cacheable
    /// [`BundlePlan`]: locate every library under the union usage,
    /// fanned out per library through the session's bounded
    /// [`WorkerPool`] (byte-identical to the serial path).
    ///
    /// # Errors
    ///
    /// [`NegativaError::Elf`] / [`NegativaError::Fatbin`] for images
    /// that fail to parse during location.
    pub fn plan(&self, detection: &Detection) -> Result<BundlePlan> {
        let retain = plan::locate_all(
            self.bundle.libraries(),
            &detection.usage,
            self.fleet,
            &self.parallelism,
        )?;
        Ok(BundlePlan {
            framework: self.framework,
            gpu: self.gpu,
            usage_fingerprint: detection.usage.fingerprint(),
            retain,
            baselines: detection.baselines.clone(),
            used_kernels: detection.usage.kernel_count(),
            used_host_fns: detection.usage.host_fn_count(),
        })
    }

    /// Phases 1+2 with the session's [`PlanCache`] in front: returns
    /// `(plan, true)` when the workload set's key was already planned —
    /// or when another thread was planning it and this call coalesced
    /// into that single-flight computation — skipping baseline and
    /// detection runs entirely; `(plan, false)` when this call ran the
    /// full detect + plan itself, caching the result.
    ///
    /// # Errors
    ///
    /// As [`DebloatSession::detect`] and [`DebloatSession::plan`].
    pub fn plan_cached(&self, workloads: &[Workload]) -> Result<(Arc<BundlePlan>, bool)> {
        let normalized: Vec<Workload> =
            workloads.iter().map(|w| self.normalize(w)).collect::<Result<_>>()?;
        let (_, plan, source) = self.plan_cached_normalized(&normalized)?;
        Ok((plan, source.cache_hit()))
    }

    /// The single home of the cache-keying logic: derive the plan
    /// identity of an already-normalized workload set and resolve its
    /// plan through the session's single-flight cache. Both
    /// [`DebloatSession::plan_cached`] and
    /// [`DebloatSession::debloat_many_artifact`] go through here, so
    /// the key derivation can never drift between entry points.
    ///
    /// When a *different* key was planned before on this debloater, the
    /// miss path first attempts an **incremental re-plan** against that
    /// prior plan ([`PlanCache::refresh_incremental`]): re-detect only
    /// workloads without a memoized measurement, diff the union usage,
    /// re-locate only the touched libraries, and reuse every other
    /// library's cached [`RetainPlan`]. Any divergence — missing memos,
    /// fingerprint drift, roster mismatch — falls back to a full
    /// detect + plan. Both paths produce equal plans (location is
    /// per-library and detection is a pure measurement), so the choice
    /// is invisible in the output and recorded only in [`PlanSource`]
    /// and the cache stats.
    fn plan_cached_normalized(
        &self,
        normalized: &[Workload],
    ) -> Result<(PlanKey, Arc<BundlePlan>, PlanSource)> {
        let key = PlanKey::for_fleet(self.framework, self.fleet, &self.config, normalized);
        let prior =
            self.prior.lock().expect("prior-plan map poisoned").get(&self.framework).cloned();
        let (plan, source) = match prior {
            Some((prior_key, prior_workloads)) => self.cache.refresh_incremental(
                key,
                &prior_key,
                |prior_plan| self.plan_incremental(prior_plan, &prior_workloads, normalized),
                || self.plan_full(normalized),
            )?,
            None => {
                let (plan, cached) =
                    self.cache.get_or_compute(key, || self.plan_full(normalized))?;
                (plan, if cached { PlanSource::Cached } else { PlanSource::Full })
            }
        };
        self.prior
            .lock()
            .expect("prior-plan map poisoned")
            .insert(self.framework, (key, normalized.to_vec()));
        Ok((key, plan, source))
    }

    /// The from-scratch miss path: full detection of every workload,
    /// then a full per-library location pass.
    fn plan_full(&self, normalized: &[Workload]) -> Result<BundlePlan> {
        let detection = self.detect_normalized(normalized)?;
        self.plan(&detection)
    }

    /// Attempt an incremental re-plan of `normalized` against
    /// `prior_plan` (whose contributing set was `prior_workloads`).
    /// Returns `Ok(None)` on any divergence that would make the diff
    /// unsound — the caller then runs [`DebloatSession::plan_full`].
    fn plan_incremental(
        &self,
        prior_plan: &BundlePlan,
        prior_workloads: &[Workload],
        normalized: &[Workload],
    ) -> Result<Option<BundlePlan>> {
        if normalized.is_empty() {
            return Ok(None);
        }
        // Reconstruct the prior union usage from the per-workload
        // memos; a missing or drifted memo means we cannot prove what
        // changed, so the diff is off the table.
        let mut old_usage = UsageMap::new();
        for workload in prior_workloads {
            match self.detections.get(self.memo_key(workload)) {
                Some(memo) => old_usage.merge(&memo.0),
                None => return Ok(None),
            }
        }
        if old_usage.fingerprint() != prior_plan.usage_fingerprint {
            return Ok(None);
        }
        // Measure only what the memo does not already hold — for a
        // one-workload change this is one detection, not |set|.
        let mut new_usage = UsageMap::new();
        let mut baselines = Vec::with_capacity(normalized.len());
        for workload in normalized {
            let memo = self.detect_one_memoized(workload)?;
            new_usage.merge(&memo.0);
            baselines.push(memo.1.clone());
        }
        // Roster drift is handled inside the incremental locator —
        // added libraries locate from scratch, removed ones drop out —
        // so provenance (checked above) is the only fallback trigger.
        let retain = plan::locate_all_incremental(
            self.bundle.libraries(),
            prior_plan,
            &old_usage,
            &new_usage,
            self.fleet,
            &self.parallelism,
        )?;
        Ok(Some(BundlePlan {
            framework: self.framework,
            gpu: self.gpu,
            usage_fingerprint: new_usage.fingerprint(),
            retain,
            baselines,
            used_kernels: new_usage.kernel_count(),
            used_host_fns: new_usage.host_fn_count(),
        }))
    }

    /// Debloat this session's bundle against the union usage of
    /// `workloads` — the core of [`Debloater::debloat_many`], shared
    /// with the service's executors. Plans through the session's cache
    /// (single-flight), compacts once through the bounded pool, verifies
    /// every workload's baseline checksum, and returns everything a
    /// registry publish persists: the plan identity, the normalized
    /// workloads, and the (shared) plan next to the report and the
    /// verified libraries.
    ///
    /// # Errors
    ///
    /// As [`Debloater::debloat_many`].
    pub fn debloat_many_artifact(&self, workloads: &[Workload]) -> Result<DebloatArtifact> {
        let normalized: Vec<Workload> =
            workloads.iter().map(|w| self.normalize(w)).collect::<Result<_>>()?;
        let (key, plan, source) = self.plan_cached_normalized(&normalized)?;
        let (libraries, debloated) = self.apply(&plan)?;
        let outcomes = self.verify_all(&normalized, &plan, &debloated)?;
        let per_workload = plan
            .baselines
            .iter()
            .zip(&outcomes)
            .map(|(base, outcome)| WorkloadVerification {
                label: base.label.clone(),
                baseline_checksum: base.checksum,
                verified_checksum: outcome.checksum,
                baseline: base.baseline.clone(),
                detection: base.detection.clone(),
                debloated: outcome.metrics.clone(),
            })
            .collect();
        let report = MultiDebloatReport {
            gpu: self.gpu,
            workloads: per_workload,
            used_kernels: plan.used_kernels,
            used_host_fns: plan.used_host_fns,
            plan_cache_hit: source.cache_hit(),
            batched: false,
            batch_size: 1,
            bytes_copied: libraries.iter().map(|l| l.bytes_copied).sum(),
            bytes_shared: libraries.iter().map(|l| l.bytes_shared).sum(),
            plan_diff_ns: source.plan_diff_ns(),
            libraries,
        };
        Ok(DebloatArtifact {
            key,
            gpu: self.gpu,
            workloads: normalized,
            plan,
            report,
            libraries: debloated,
        })
    }

    /// Phase 3a — compact every library according to `plan`, fanned out
    /// per library through the session's bounded [`WorkerPool`].
    /// Returns the per-library reports and the debloated (not yet
    /// verified!) libraries.
    ///
    /// # Errors
    ///
    /// [`NegativaError::InvalidWorkloadSet`] if the plan does not belong
    /// to this session's bundle or targets a different GPU (its retain
    /// ranges would keep the wrong SASS flavors); [`NegativaError::Elf`]
    /// for plan ranges outside an image (a location bug, never
    /// data-dependent).
    pub fn apply(&self, plan: &BundlePlan) -> Result<(Vec<LibraryReport>, Vec<GeneratedLibrary>)> {
        let libraries = self.bundle.libraries();
        if plan.framework != self.framework
            || plan.gpu != self.gpu
            || plan.retain.len() != libraries.len()
        {
            return Err(NegativaError::InvalidWorkloadSet {
                reason: format!(
                    "plan for {} on {} ({} libraries) does not match this session's {} bundle \
                     on {} ({} libraries)",
                    plan.framework.name(),
                    plan.gpu,
                    plan.retain.len(),
                    self.framework.name(),
                    self.gpu,
                    libraries.len()
                ),
            });
        }
        let compacted =
            self.parallelism.run(libraries, |i, lib| compact(&lib.image, &plan.retain[i]))?;
        let mut reports = Vec::with_capacity(libraries.len());
        let mut debloated = Vec::with_capacity(libraries.len());
        let (mut copied, mut shared) = (0u64, 0u64);
        let (mut sliced_arch, mut sliced_compressed) = (0u64, 0u64);
        for ((image, outcome), (retain, lib)) in
            compacted.into_iter().zip(plan.retain.iter().zip(libraries))
        {
            copied += outcome.bytes_copied;
            shared += outcome.bytes_shared;
            sliced_arch += outcome.bytes_sliced_arch;
            sliced_compressed += outcome.bytes_sliced_compressed;
            reports.push(LibraryReport::new(retain.soname.clone(), retain.stats, outcome));
            debloated.push(GeneratedLibrary { image, manifest: lib.manifest.clone() });
        }
        if let Parallelism::Pool(pool) = &self.parallelism {
            pool.record_bytes(copied, shared);
            pool.record_sliced(sliced_arch, sliced_compressed);
        }
        Ok((reports, debloated))
    }

    /// Phase 3b — re-run every workload on the debloated libraries and
    /// require each to reproduce its own baseline checksum from `plan`.
    /// Outcomes are returned in workload order. `workloads` must
    /// already be pinned by [`DebloatSession::normalize`] — every
    /// composed entry point normalizes exactly once, up front.
    ///
    /// Verification runs are deduplicated by detection identity (the
    /// (workload, config) fingerprint pair): a set containing the same
    /// workload twice re-executes it once and hands the duplicate a
    /// clone of the [`RunOutcome`], and the unique runs fan out through
    /// the session's bounded [`WorkerPool`] — the same admission
    /// discipline as the locate and compact passes. On top of that,
    /// unique runs are memoized **across** verify passes on the
    /// debloater's shared cache, keyed by (workload, config, bundle
    /// *content* fingerprint — the same per-library hashes an artifact
    /// manifest records): re-verifying a pair already proven against
    /// byte-identical debloated libraries costs a lookup, not a run. A
    /// memo hit is consumed only when its outcome reproduced exactly
    /// the baseline checksum this pass expects; any other expectation
    /// falls through to a real run. Dedup, pooling, and memoization
    /// are all invisible in the result: outcomes come back in input
    /// order, byte-identical to the serial per-workload loop.
    ///
    /// # Errors
    ///
    /// [`NegativaError::OverCompaction`] /
    /// [`NegativaError::ChecksumMismatch`] on the first workload (in
    /// input order) the debloated bundle breaks — the compacted
    /// libraries must then be discarded.
    pub fn verify_all(
        &self,
        workloads: &[Workload],
        plan: &BundlePlan,
        debloated: &[GeneratedLibrary],
    ) -> Result<Vec<RunOutcome>> {
        if workloads.len() != plan.baselines.len() {
            return Err(NegativaError::InvalidWorkloadSet {
                reason: format!(
                    "{} workloads to verify but the plan holds {} baselines",
                    workloads.len(),
                    plan.baselines.len()
                ),
            });
        }
        // Unique workloads in first-appearance order, each carrying its
        // baseline checksum (equal fingerprints imply equal workloads,
        // and detection is pure, so duplicates share one baseline).
        // First-appearance ordering is what preserves first-error
        // semantics: the smallest failing unique index is also the
        // first failing input index.
        let mut unique: Vec<(&Workload, u64)> = Vec::new();
        let mut slots = Vec::with_capacity(workloads.len());
        let mut seen: HashMap<(u64, u64), usize> = HashMap::new();
        for (workload, base) in workloads.iter().zip(&plan.baselines) {
            let slot = *seen.entry(self.memo_key(workload)).or_insert_with(|| {
                unique.push((workload, base.checksum));
                unique.len() - 1
            });
            slots.push(slot);
        }
        // Split the unique runs into cross-pass memo hits and real
        // work. A hit is usable only when the memoized outcome proved
        // *this pass's* claim — it reproduced the expected baseline
        // checksum against these exact bundle bytes; a different
        // expectation (e.g. a caller probing a corrupted baseline)
        // falls through to a real run, which then fails exactly as the
        // unmemoized path would.
        let bundle_fp = plan::bundle_fingerprint(debloated);
        let mut outcomes: Vec<Option<RunOutcome>> = Vec::with_capacity(unique.len());
        let mut to_run: Vec<PendingVerify> = Vec::new();
        for (i, &(workload, checksum)) in unique.iter().enumerate() {
            let (workload_fp, config_fp) = self.memo_key(workload);
            let key = (workload_fp, config_fp, bundle_fp);
            match self.verifications.get(key) {
                Some(outcome) if outcome.checksum == checksum => outcomes.push(Some(outcome)),
                _ => {
                    to_run.push((i, key, workload, checksum));
                    outcomes.push(None);
                }
            }
        }
        // Memo hits are proven-good, so errors can only come from the
        // real runs — whose first-appearance order is a subsequence of
        // `unique`'s, preserving first-error semantics.
        let ran = self.parallelism.run(&to_run, |_, &(_, _, workload, checksum)| {
            verify_indexed(workload, debloated, Some(&self.indexes), checksum, &self.config)
        })?;
        for (&(slot, key, _, _), outcome) in to_run.iter().zip(&ran) {
            self.verifications.insert(key, outcome.clone());
            outcomes[slot] = Some(outcome.clone());
        }
        if let Parallelism::Pool(pool) = &self.parallelism {
            pool.record_verifies(to_run.len() as u64, (workloads.len() - to_run.len()) as u64);
        }
        let outcomes: Vec<RunOutcome> =
            outcomes.into_iter().map(|o| o.expect("every unique slot was filled")).collect();
        Ok(slots.into_iter().map(|slot| outcomes[slot].clone()).collect())
    }

    /// Execute one workload on `libraries` through the session's pinned
    /// parse-once indexes.
    fn run(
        &self,
        workload: &Workload,
        libraries: &[GeneratedLibrary],
        config: &RunConfig,
    ) -> Result<RunOutcome> {
        simml::run_workload_indexed(workload, libraries, Some(&self.indexes), config)
            .map_err(NegativaError::Workload)
    }
}
