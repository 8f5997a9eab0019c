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
//!    function actually used, as a [`UsageMap`]. One run, two clocks:
//!    the simulator keeps the hook's overhead on a clock of its own, so
//!    the same run also gives the workload's baseline checksum and
//!    metrics (§4.6's overhead compares the two clocks). A distributed
//!    workload's ranks are replicas of one simulated rank per distinct
//!    device, so one detector per workload sees all of its usage;
//!    multiple workloads sharing the bundle union their maps.
//! 2. **Plan** ([`DebloatSession::plan`], module [`plan`]) — map the
//!    union usage to byte ranges ([`locate()`]) per library, fanned out
//!    through a bounded [`WorkerPool`] shared across every in-flight
//!    debloat (module [`pool`]), producing a cacheable [`BundlePlan`]:
//!    per-library [`RetainPlan`]s keyed by framework, the target GPU
//!    **fleet** ([`fatbin::FleetSpec`] — one or more architectures a
//!    single artifact must serve, see [`Debloater::with_fleet`]),
//!    and a usage fingerprint, alongside each workload's baseline
//!    checksum and metrics. Plans live in a [`PlanCache`] — an LRU with
//!    a per-framework capacity and **single-flight** miss handling
//!    (concurrent requests for one key run one computation between
//!    them) — so a repeated debloat of the same (framework, model,
//!    operation, GPU) skips detection entirely.
//!
//!    A plan miss has one path. It takes each workload's detection from
//!    the debloater's detection memo and each library's [`RetainPlan`]
//!    from its location memo — keyed by framework, soname, the
//!    fingerprint of that library's used kernels and host functions,
//!    and the fleet: exactly what [`locate()`] reads — and measures or
//!    locates only what the memos lack. Growing or changing a workload
//!    set therefore re-detects only the new workloads and re-locates
//!    only the libraries whose usage changed, and every plan equals one
//!    computed from scratch by construction.
//! 3. **Apply** ([`DebloatSession::apply`] + [`DebloatSession::verify_all`],
//!    modules [`mod@compact`] / [`mod@verify`]) — zero the planned ranges in
//!    place (offsets never move; the debloated library is a drop-in
//!    replacement) and re-run *every* contributing workload, demanding
//!    bit-identical output against its own baseline checksum. The
//!    re-runs are deduplicated by workload fingerprint —
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
//! On top of the sessions sits [`service::DebloatService`]: one locked,
//! *bounded* queue of batches between client handles and executor
//! threads. [`service::ServiceHandle::submit`] (blocking at the bound)
//! and [`service::ServiceHandle::try_submit`] (shedding with the typed
//! [`service::ServiceError::Overloaded`]) key each request by plan
//! identity ([`PlanKey`]) on the caller's thread and fold it into the
//! queued batch of that identity, which keeps absorbing requests until
//! an executor takes it. Each executor runs a batch once — through the
//! single-flight [`PlanCache`] and the bounded shared [`WorkerPool`] —
//! then fans the verified [`MultiDebloatReport`] plus the compacted
//! libraries out to every grouped requester. A burst of N
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

use simcuda::GpuModel;
use simelf::{ElfImage, ElfIndex};
use simml::{
    cached_bundle_with, cached_indexes, generate_library, BundleHandle, FrameworkBundle,
    FrameworkKind, GeneratedLibrary, RunConfig, RunOutcome, Workload,
};

#[cfg(test)]
mod arbitrary;
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
    Dialer, FaultInjector, NetError, NetStats, RegistryServer, RemoteRegistry, RetryPolicy,
    TcpDialer,
};
pub use plan::{BundlePlan, PlanCache, PlanCacheStats, PlanKey, WorkloadBaseline};
pub use pool::{PoolStats, WorkerPool};
pub use registry::{
    ArtifactOffer, ExpireReport, GcReport, Registry, RegistryStats, ShipReport, WantList,
};
pub use report::{LibraryReport, MultiDebloatReport, Totals, WorkloadVerification};
pub use service::{
    DebloatResponse, DebloatService, ServiceError, ServiceHandle, ServiceStats, Ticket,
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
pub(crate) fn shared_framework(workloads: &[Workload]) -> Result<FrameworkKind> {
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

/// Bound on each [`Memo`]; past it the memo resets (its values are pure
/// measurements, so a reset only costs re-measuring, never correctness).
const MEMO_CAP: usize = 256;

/// A bounded memo of pure measurements, shared by a [`Debloater`]'s
/// sessions (and their clones).
#[derive(Debug)]
struct Memo<K, V> {
    entries: Mutex<HashMap<K, V>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo { entries: Mutex::new(HashMap::new()) }
    }
}

impl<K: Eq + std::hash::Hash, V: Clone> Memo<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        self.entries.lock().expect("memo poisoned").get(key).cloned()
    }

    fn insert(&self, key: K, value: V) {
        let mut entries = self.entries.lock().expect("memo poisoned");
        if entries.len() >= MEMO_CAP && !entries.contains_key(&key) {
            entries.clear();
        }
        entries.insert(key, value);
    }
}

/// Per-workload detection memo, keyed by the workload fingerprint
/// ([`plan::workload_fingerprint`]) — it covers the normalized device
/// list, so one GPU's measurements never serve another's, and every run
/// uses the default [`RunConfig`]. Every detection goes through it, so
/// a workload is measured again only after the memo resets, however
/// many workload sets, plan misses or evictions it appears in.
type DetectionCache = Memo<u64, DetectionMemo>;

/// One memoized detection: the usage a workload exercised plus the
/// baseline it was measured against, shared between the memo map and
/// every plan built from it.
type DetectionMemo = Arc<(UsageMap, WorkloadBaseline)>;

/// Cross-pair verification memo: one proven [`RunOutcome`] per
/// ([`plan::workload_fingerprint`], [`plan::bundle_fingerprint`]) pair.
/// The bundle fingerprint folds the per-library content hashes — the
/// same digests an artifact manifest's entries record — so a hit means
/// *these exact bytes* were already verified for this workload, and
/// runs (always under the default [`RunConfig`]) are deterministic in
/// exactly that pair. Identical (workload, bundle) pairs are therefore
/// deduplicated **across** verify passes, not just within one.
type VerifyCache = Memo<(u64, u64), RunOutcome>;

/// Per-library location memo: one [`RetainPlan`] per (framework,
/// soname, [`UsageMap::library_fingerprint`], fleet) — everything
/// [`locate()`] reads, since a framework's bundle is pinned per
/// process. A plan whose union usage leaves a library's kernel and
/// host-function sets unchanged reuses that library's location.
type LocationCache = Memo<(FrameworkKind, String, u64, FleetSpec), RetainPlan>;

/// One verification the memo could not serve: the unique slot it
/// fills, its `(workload fp, bundle fp)` memo key, and the workload
/// with its expected baseline checksum.
type PendingVerify<'w> = (usize, (u64, u64), &'w Workload, u64);

/// The end-to-end debloat pipeline for one GPU model.
#[derive(Debug, Clone)]
pub struct Debloater {
    gpu: GpuModel,
    fleet: FleetSpec,
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
    /// Per-workload detection memo, shared across this debloater's
    /// sessions (and their clones).
    detections: Arc<DetectionCache>,
    /// Per-library location memo, shared the same way; its key holds
    /// the fleet, so clones re-targeted by [`Debloater::with_fleet`]
    /// share it safely.
    locations: Arc<LocationCache>,
    /// Cross-pair verification memo, shared the same way: identical
    /// (workload, bundle content) verifications run once per
    /// debloater, across passes.
    verifications: Arc<VerifyCache>,
}

impl Debloater {
    /// A debloater targeting `gpu` with default execution settings: the
    /// process-wide shared [`WorkerPool`] and [`PlanCache`]. Every run
    /// — baseline, detection and verification — uses the default
    /// [`RunConfig`].
    pub fn new(gpu: GpuModel) -> Debloater {
        Debloater {
            gpu,
            fleet: FleetSpec::single(gpu.arch()),
            pool: WorkerPool::shared(),
            cache: plan::process_cache(),
            detections: Arc::default(),
            locations: Arc::default(),
            verifications: Arc::default(),
        }
    }

    /// Fan per-library work out through `pool` instead of the
    /// process-wide shared one — e.g. a service's private pool with an
    /// explicit bound, or `WorkerPool::new(1)` to run one job at a
    /// time. The pool's size never changes a result.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Debloater {
        self.pool = pool;
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
            pool: self.pool.clone(),
            cache: self.cache.clone(),
            detections: self.detections.clone(),
            locations: self.locations.clone(),
            verifications: self.verifications.clone(),
            framework,
            bundle: self.bundle_for(framework),
            indexes: cached_indexes(framework),
        }
    }

    /// The pinned, process-shared bundle for `framework`. A cold cache
    /// is filled by fanning per-library generation out through the
    /// debloater's pool ([`generate_library`] per roster entry,
    /// reassembled via [`FrameworkBundle::from_libraries`]); generation
    /// is pure, so the result is byte-identical to a serial fill and
    /// whichever caller ran first is unobservable to every later one.
    fn bundle_for(&self, framework: FrameworkKind) -> BundleHandle {
        cached_bundle_with::<NegativaError>(framework, || {
            let specs = framework.lib_specs();
            let libraries = self
                .pool
                .run(&specs, |_, spec| generate_library(spec).map_err(NegativaError::from))?;
            FrameworkBundle::from_libraries(framework, libraries).map_err(NegativaError::from)
        })
        .expect("bundle generation is deterministic and must not fail")
    }

    /// Debloat one shared bundle against the **union** usage of one or
    /// more workloads — the paper's multi-workload deployment scenario.
    /// Usage is detected per workload (a distributed one's replica
    /// ranks share one detector), unioned via [`UsageMap::merge`],
    /// compacted once, and the result is verified against *every*
    /// workload's own baseline checksum.
    /// [`DebloatSession::debloat_many_artifact`] returns the compacted
    /// libraries and plan as well.
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
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
    detections: Arc<DetectionCache>,
    locations: Arc<LocationCache>,
    verifications: Arc<VerifyCache>,
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

    /// Phase 1 — run every workload once on the original bundle with one
    /// [`KernelDetector`] attached, unioning the workloads' usage via
    /// [`UsageMap::merge`]. One run, two clocks: the run gives both the
    /// detection metrics and the baseline ones (the same run without
    /// the detector's overhead).
    /// Detection is a pure measurement, so a workload this session's
    /// debloater has measured before is served from its memo instead.
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
            let memo = self.detect_one_memoized(workload)?;
            usage.merge(&memo.0);
            baselines.push(memo.1.clone());
        }
        Ok(Detection { usage, baselines })
    }

    /// Run one workload once with one fresh [`KernelDetector`] and return
    /// its usage and baseline record. One run, two clocks: a subscriber
    /// changes nothing a run does but its time, so the run's checksum is
    /// the baseline checksum, its overhead-free clock
    /// ([`RunOutcome::unprofiled`]) the baseline metrics, and its
    /// profiled clock the detection metrics — exactly what a baseline
    /// run and a separate detection run would report.
    /// The detector sees one simulated rank per distinct device; ranks
    /// on one device are replicas, so their usage sets are identical and
    /// their union is that one set. The detector's costs are stateless,
    /// so the detection clock is the same as with one detector per rank.
    /// Pure measurement of a deterministic run: the result depends only
    /// on (workload, bundle).
    fn detect_one(&self, workload: &Workload) -> Result<(UsageMap, WorkloadBaseline)> {
        let detector = Arc::new(KernelDetector::new());
        let config = RunConfig { subscribers: vec![detector.clone()], ..RunConfig::default() };
        let run = self.run(workload, self.bundle.libraries(), &config)?;
        let baseline = WorkloadBaseline {
            label: workload.label(),
            checksum: run.checksum,
            baseline: run.unprofiled,
            detection: run.metrics,
        };
        Ok((detector.snapshot(), baseline))
    }

    /// [`DebloatSession::detect_one`] through the shared memo: a hit
    /// skips the run (detection is a pure measurement), a miss
    /// measures and writes through.
    fn detect_one_memoized(&self, workload: &Workload) -> Result<DetectionMemo> {
        let key = plan::workload_fingerprint(workload);
        if let Some(memo) = self.detections.get(&key) {
            return Ok(memo);
        }
        let memo = Arc::new(self.detect_one(workload)?);
        self.detections.insert(key, memo.clone());
        Ok(memo)
    }

    /// Phase 2 — turn a detection result into a cacheable
    /// [`BundlePlan`]: locate every library under the union usage.
    /// A library whose kernel and host-function sets this debloater
    /// has located before for the same fleet takes its [`RetainPlan`]
    /// from the location memo; the rest fan out through the session's
    /// bounded [`WorkerPool`] (the pool's size never changes a plan).
    ///
    /// # Errors
    ///
    /// [`NegativaError::Elf`] / [`NegativaError::Fatbin`] for images
    /// that fail to parse during location.
    pub fn plan(&self, detection: &Detection) -> Result<BundlePlan> {
        let usage = &detection.usage;
        let libraries = self.bundle.libraries();
        let keys: Vec<_> = libraries
            .iter()
            .map(|lib| {
                let soname = lib.image.soname();
                (self.framework, soname.to_owned(), usage.library_fingerprint(soname), self.fleet)
            })
            .collect();
        let mut retain: Vec<Option<RetainPlan>> =
            keys.iter().map(|key| self.locations.get(key)).collect();
        let missing: Vec<usize> = (0..retain.len()).filter(|&i| retain[i].is_none()).collect();
        let images: Vec<&ElfImage> = missing.iter().map(|&i| &libraries[i].image).collect();
        let located = plan::locate_all(&images, usage, self.fleet, &self.pool)?;
        for (i, located) in missing.into_iter().zip(located) {
            self.locations.insert(keys[i].clone(), located.clone());
            retain[i] = Some(located);
        }
        let retain = retain.into_iter().map(|r| r.expect("every library was located")).collect();
        Ok(BundlePlan {
            framework: self.framework,
            gpu: self.gpu,
            usage_fingerprint: usage.fingerprint(),
            retain,
            baselines: detection.baselines.clone(),
            used_kernels: usage.kernel_count(),
            used_host_fns: usage.host_fn_count(),
        })
    }

    /// The plan identity of an already-normalized workload set on this
    /// session: framework, fleet and workloads. The single home of the
    /// keying logic, shared with the service's queue so the two can
    /// never drift.
    pub(crate) fn plan_key(&self, normalized: &[Workload]) -> PlanKey {
        PlanKey::for_fleet(self.framework, self.fleet, normalized)
    }

    /// Debloat this session's bundle against the union usage of
    /// `workloads` — the core of [`Debloater::debloat_many`], shared
    /// with the service's executors. Plans through the session's cache
    /// (single-flight; a miss detects and locates through the
    /// debloater's memos), compacts once through the bounded pool, verifies
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
        let key = self.plan_key(&normalized);
        let (plan, plan_cache_hit) =
            self.cache.get_or_compute(key, || self.plan(&self.detect_normalized(&normalized)?))?;
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
            plan_cache_hit,
            batched: false,
            batch_size: 1,
            bytes_copied: libraries.iter().map(|l| l.bytes_copied).sum(),
            bytes_shared: libraries.iter().map(|l| l.bytes_shared).sum(),
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
        let compacted = self.pool.run(libraries, |i, lib| compact(&lib.image, &plan.retain[i]))?;
        let mut reports = Vec::with_capacity(libraries.len());
        let mut debloated = Vec::with_capacity(libraries.len());
        for ((image, outcome), (retain, lib)) in
            compacted.into_iter().zip(plan.retain.iter().zip(libraries))
        {
            reports.push(LibraryReport::new(retain.soname.clone(), retain.stats, outcome));
            debloated.push(GeneratedLibrary { image, manifest: lib.manifest.clone() });
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
    /// workload fingerprint): a set containing the same workload twice
    /// re-executes it once and hands the duplicate a clone of the
    /// [`RunOutcome`], and the unique runs fan out through the
    /// session's bounded [`WorkerPool`] — the same admission
    /// discipline as the locate and compact passes. On top of that,
    /// unique runs are memoized **across** verify passes on the
    /// debloater's shared cache, keyed by (workload fingerprint, bundle
    /// *content* fingerprint — the same per-library hashes an artifact
    /// manifest records): re-verifying a pair already proven against
    /// byte-identical debloated libraries costs a lookup, not a run. A
    /// memo hit is consumed only when its outcome reproduced exactly
    /// the baseline checksum this pass expects; any other expectation
    /// falls through to a real run. Dedup, pooling, and memoization
    /// are all invisible in the result: outcomes come back in input
    /// order, byte-identical to a serial per-workload loop. Every pass
    /// adds its runs and its deduplicated workloads to the pool's
    /// [`PoolStats`].
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
        let mut unique: Vec<(u64, &Workload, u64)> = Vec::new();
        let mut slots = Vec::with_capacity(workloads.len());
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for (workload, base) in workloads.iter().zip(&plan.baselines) {
            let fingerprint = plan::workload_fingerprint(workload);
            let slot = *seen.entry(fingerprint).or_insert_with(|| {
                unique.push((fingerprint, workload, base.checksum));
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
        for (i, &(workload_fp, workload, checksum)) in unique.iter().enumerate() {
            let key = (workload_fp, bundle_fp);
            match self.verifications.get(&key) {
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
        let config = RunConfig::default();
        let ran = self.pool.run(&to_run, |_, &(_, _, workload, checksum)| {
            verify_indexed(workload, debloated, Some(&self.indexes), checksum, &config)
        })?;
        for (&(slot, key, _, _), outcome) in to_run.iter().zip(&ran) {
            self.verifications.insert(key, outcome.clone());
            outcomes[slot] = Some(outcome.clone());
        }
        self.pool.record_verifies(to_run.len() as u64, (workloads.len() - to_run.len()) as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::{Arbitrary, Gen};
    use simcuda::cupti::{CuptiSubscriber, NsysTracer};
    use simcuda::LoadMode;
    use simml::{cached_bundle, run_workload, Dataset, ModelKind, Operation};
    use std::collections::HashSet;

    fn inference(model: ModelKind) -> Workload {
        Workload::paper(FrameworkKind::PyTorch, model, Operation::Inference)
    }

    fn memo_len<K, V>(memo: &Memo<K, V>) -> usize {
        memo.entries.lock().expect("memo poisoned").len()
    }

    /// A re-planned set equals a from-scratch plan: one debloater walks
    /// generated workload sets, each step planned through the memos the
    /// steps before it filled, and every step's plan and compacted
    /// bytes equal what a fresh debloater computes from scratch. The
    /// walk measures each distinct workload exactly once.
    #[test]
    fn incremental_plans_equal_full_plans_over_generated_walks() {
        let mut lazy = inference(ModelKind::MobileNetV2);
        lazy.load_mode = LoadMode::Lazy;
        let mut wide = inference(ModelKind::MobileNetV2);
        wide.batch_size *= 2;
        let pool =
            [inference(ModelKind::MobileNetV2), inference(ModelKind::Transformer), lazy, wide];
        let cache = Arc::new(PlanCache::new(4));
        let walker = Debloater::new(GpuModel::T4).with_plan_cache(cache.clone());
        let mut g = Gen(0x001c_4e5e_ed0f_da7a);
        let mut walked_workloads = HashSet::new();
        let mut steps = 0;
        while steps < 8 {
            let mut picked: Vec<usize> =
                (0..pool.len()).filter(|_| bool::arbitrary(&mut g)).collect();
            picked.truncate(3);
            if picked.is_empty() {
                continue;
            }
            steps += 1;
            walked_workloads.extend(picked.iter().copied());
            let set: Vec<Workload> = picked.iter().map(|&i| pool[i].clone()).collect();
            let walked =
                walker.session(FrameworkKind::PyTorch).debloat_many_artifact(&set).unwrap();
            let fresh = Debloater::new(GpuModel::T4).session(FrameworkKind::PyTorch);
            let full = fresh.plan(&fresh.detect(&set).unwrap()).unwrap();
            assert_eq!(*walked.plan, full, "step {steps}: {set:?}");
            let (_, compacted) = fresh.apply(&full).unwrap();
            assert_eq!(walked.libraries, compacted, "step {steps}: compacted bytes differ");
        }
        assert!(cache.stats().misses > 1, "the walk never re-planned");
        assert_eq!(
            memo_len(&walker.detections),
            walked_workloads.len(),
            "the detection memo holds exactly the distinct workloads walked"
        );
    }

    /// `workload` cut to `steps` total steps: an inference decodes that
    /// many steps, a training run makes that many one-batch epochs.
    fn cut_to(workload: &Workload, steps: u64) -> Workload {
        let mut w = workload.clone();
        match w.operation {
            Operation::Inference => w.inference_steps = steps as u32,
            Operation::Train => {
                w.dataset = Dataset::ManualPrompt;
                w.epochs = steps as u32;
            }
        }
        assert_eq!(w.total_steps(), steps);
        w
    }

    /// One run, two clocks, over generated (workload, `sample_steps`,
    /// subscriber set) triples: every Table-1 workload, the H100 lazy
    /// one, an 8×A100 one and a mixed A100/T4 device list, each with a
    /// generated sample count and no subscriber, a [`KernelDetector`] or
    /// an [`NsysTracer`]. Each case checks that
    /// 1. a profiled run's unprofiled clock and checksum are a plain
    ///    run's metrics and checksum;
    /// 2. a fast-forward extrapolates each clock from its own sampled
    ///    steps, rounded down once, and equals full execution where
    ///    every step costs the same: on the workload's own clock under
    ///    eager loading (checked on copies cut to a few steps, so full
    ///    execution stays cheap). The first step also resolves every
    ///    kernel, which costs a profiler callback and, under lazy
    ///    loading, an element load, so there the sampled mean runs
    ///    ahead of full execution;
    /// 3. [`DebloatSession::detect`] gives the usage and baseline that
    ///    a plain run followed by a separate detection run give.
    #[test]
    fn one_profiled_run_gives_both_clocks_over_generated_runs() {
        let cheapest = || ModelKind::leaderboard_top9().remove(1);
        let mut mixed = Workload::distributed_a100(FrameworkKind::Vllm, cheapest());
        mixed.devices = vec![GpuModel::A100, GpuModel::T4, GpuModel::A100];
        let mut workloads = Workload::paper_set();
        workloads.push(Workload::h100(FrameworkKind::Vllm, LoadMode::Lazy));
        workloads.push(Workload::distributed_a100(FrameworkKind::Vllm, cheapest()));
        workloads.push(mixed);
        let mut g = Gen(0x0c10_c4ed_7e1c_0002);
        // The tools take turns from a generated start, so every kind of
        // workload meets a profiler.
        let tools = ["none", "detector", "nsys"];
        let first_tool = usize::arbitrary(&mut g);
        for (i, workload) in workloads.iter().enumerate() {
            let sample_steps = 1 + u64::arbitrary(&mut g) % 4;
            let tool = tools[(first_tool + i) % tools.len()];
            let case = format!(
                "{} on {:?}, {sample_steps} sampled, {tool}",
                workload.label(),
                workload.devices
            );
            let config = |sample_steps| {
                let subscribers: Vec<Arc<dyn CuptiSubscriber>> = match tool {
                    "detector" => vec![Arc::new(KernelDetector::new())],
                    "nsys" => vec![Arc::new(NsysTracer::new())],
                    _ => Vec::new(),
                };
                RunConfig { subscribers, sample_steps, ..RunConfig::default() }
            };
            let bundle = cached_bundle(workload.framework);
            let libraries = bundle.libraries();

            let profiled = run_workload(workload, libraries, &config(sample_steps)).unwrap();
            let plain = run_workload(
                workload,
                libraries,
                &RunConfig { sample_steps, ..RunConfig::default() },
            )
            .unwrap();
            assert_eq!(profiled.checksum, plain.checksum, "{case}");
            assert_eq!(profiled.unprofiled, plain.metrics, "{case}");

            let steps = sample_steps + 1 + u64::arbitrary(&mut g) % 8;
            let run_cut = |steps, sample_steps| {
                run_workload(&cut_to(workload, steps), libraries, &config(sample_steps)).unwrap()
            };
            let sampled = run_cut(sample_steps, sample_steps);
            let forwarded = run_cut(steps, sample_steps);
            let full = run_cut(steps, steps);
            assert_eq!(forwarded.checksum, full.checksum, "{case}");
            for (s, f, x) in [
                (&sampled.metrics, &forwarded.metrics, &full.metrics),
                (&sampled.unprofiled, &forwarded.unprofiled, &full.unprofiled),
            ] {
                let measured = s.elapsed_ns - s.load_ns;
                let extrapolated = f.load_ns + measured * steps / sample_steps;
                assert_eq!(f.elapsed_ns, extrapolated, "{case}");
                assert_eq!(f.load_ns, x.load_ns, "{case}");
            }
            if workload.load_mode == LoadMode::Eager {
                let (f, x) = (&forwarded.unprofiled, &full.unprofiled);
                assert_eq!(f.elapsed_ns, x.elapsed_ns, "{case}");
            }

            let session = Debloater::new(workload.devices[0]).session(workload.framework);
            let detection = session.detect(std::slice::from_ref(workload)).unwrap();
            let normalized = session.normalize(workload).unwrap();
            let baseline = run_workload(&normalized, libraries, &RunConfig::default()).unwrap();
            let detector = Arc::new(KernelDetector::new());
            let detect_config =
                RunConfig { subscribers: vec![detector.clone()], ..RunConfig::default() };
            let detected = run_workload(&normalized, libraries, &detect_config).unwrap();
            assert_eq!(detection.usage, detector.snapshot(), "{case}");
            let expected = WorkloadBaseline {
                label: workload.label(),
                checksum: baseline.checksum,
                baseline: baseline.metrics,
                detection: detected.metrics,
            };
            assert_eq!(detection.baselines, [expected], "{case}");
        }
    }

    /// With room for one plan, S → T → S evicts S's plan, and the
    /// second S is a miss. It is assembled entirely from the memos: no
    /// workload is measured and no library located again, and the plan
    /// equals the first.
    #[test]
    fn an_evicted_plan_replans_without_measuring() {
        let cache = Arc::new(PlanCache::new(1));
        let debloater = Debloater::new(GpuModel::T4).with_plan_cache(cache.clone());
        let session = debloater.session(FrameworkKind::PyTorch);
        let s = [inference(ModelKind::MobileNetV2)];
        let t = [inference(ModelKind::Transformer)];
        let first = session.debloat_many_artifact(&s).unwrap();
        session.debloat_many_artifact(&t).unwrap();
        let detections = memo_len(&debloater.detections);
        let locations = memo_len(&debloater.locations);
        let again = session.debloat_many_artifact(&s).unwrap();
        assert!(!again.report.plan_cache_hit, "S's plan was evicted");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.evictions), (3, 2));
        assert_eq!(memo_len(&debloater.detections), detections, "no workload was measured");
        assert_eq!(memo_len(&debloater.locations), locations, "no library was located");
        assert_eq!(again.plan, first.plan);
        assert_eq!(again.libraries, first.libraries);
    }

    /// A fleet of one to three paper architectures plus sm_90, so it is
    /// never the T4 session's own single-member fleet (that GPU's
    /// sm_75 joins every fleet in [`Debloater::with_fleet`]).
    fn fleet(g: &mut Gen) -> FleetSpec {
        let members: Vec<SmArch> = (0..=usize::arbitrary(g) % 3)
            .map(|_| g.pick(&SmArch::PAPER_SET))
            .chain([SmArch::SM90])
            .collect();
        FleetSpec::new(&members).expect("one to four architectures form a fleet")
    }

    /// Generated fleets plan through shared memos exactly as fresh
    /// debloaters do. Clones re-targeted with `with_fleet` share one
    /// debloater's memos and plan, in turn, a multi-member fleet, the
    /// single-member fleet of the session's own architecture, and
    /// another multi-member fleet; each plan and compaction equals a
    /// fresh debloater's for that fleet. The single-member fleet's
    /// output is byte-identical to the default debloater's.
    #[test]
    fn generated_fleets_plan_alike_through_shared_memos() {
        let set = [inference(ModelKind::MobileNetV2)];
        let mut g = Gen(0x00f1_ee75_9e4e_0001);
        let shared = Debloater::new(GpuModel::T4).with_plan_cache(Arc::new(PlanCache::new(4)));
        let own = FleetSpec::single(GpuModel::T4.arch());
        let default = Debloater::new(GpuModel::T4)
            .with_plan_cache(Arc::new(PlanCache::new(4)))
            .session(FrameworkKind::PyTorch)
            .debloat_many_artifact(&set)
            .unwrap();
        for fleet in [fleet(&mut g), own, fleet(&mut g)] {
            let walked = shared
                .clone()
                .with_fleet(fleet)
                .session(FrameworkKind::PyTorch)
                .debloat_many_artifact(&set)
                .unwrap();
            let fresh = Debloater::new(GpuModel::T4)
                .with_plan_cache(Arc::new(PlanCache::new(4)))
                .with_fleet(fleet)
                .session(FrameworkKind::PyTorch)
                .debloat_many_artifact(&set)
                .unwrap();
            assert_eq!(walked.plan, fresh.plan, "{fleet:?}: plans differ");
            assert_eq!(walked.libraries, fresh.libraries, "{fleet:?}: compacted bytes differ");
            if fleet == own {
                assert_eq!(walked.plan, default.plan);
                assert_eq!(walked.libraries, default.libraries);
                assert_eq!(walked.report, default.report);
            }
        }
        assert_eq!(memo_len(&shared.detections), 1, "fleets share one detection");
    }
}
