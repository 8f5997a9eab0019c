//! The planning layer — cacheable, reusable compaction work orders.
//!
//! Detection produces a [`UsageMap`]; planning turns it into a
//! [`BundlePlan`]: one [`RetainPlan`] per library (computed by
//! [`crate::locate()`], fanned out across libraries through the bounded
//! [`crate::pool::WorkerPool`]) plus the per-workload baselines the
//! apply stage verifies against. A plan is pure data — applying it
//! never re-runs detection — which is what makes it cacheable.
//!
//! Plans live in a [`PlanCache`]: an instantiable LRU cache with a
//! **per-framework capacity** behind one lock, and **single-flight**
//! miss handling — concurrent requests for one key run one detection
//! between them. Keys carry what the ROADMAP's serve-at-scale direction
//! needs: framework, GPU fleet, and a fingerprint of the workload set.
//! Every run uses the default [`RunConfig`], whose fingerprint each key
//! records for the manifest and the artifact id. A plan is a
//! pure function of its key and the process-pinned bundle, so a cached
//! plan never goes stale. The long-lived
//! [`crate::service::DebloatService`] owns one; standalone
//! [`crate::Debloater`]s default to one process-wide instance.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use fatbin::FleetSpec;
use simcuda::GpuModel;
use simml::namegen::stable_hash;
use simml::{FrameworkKind, GeneratedLibrary, RunConfig, Workload, WorkloadMetrics};

use crate::detect::UsageMap;
use crate::locate::{locate, RetainPlan};
use crate::pool::WorkerPool;
use crate::Result;

/// Cache key of one [`BundlePlan`]: which framework bundle, which GPU
/// fleet it was located for, a fingerprint of the workload set whose
/// union usage produced it, and the fingerprint of the execution
/// configuration the detection runs used (always the default
/// [`RunConfig`]; recorded so a manifest names what its baselines were
/// measured under).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Framework whose bundle the plan compacts.
    pub framework: FrameworkKind,
    /// GPU fleet the location stage targeted. A single-member fleet is
    /// the paper's original per-GPU plan identity.
    pub fleet: FleetSpec,
    /// Order-sensitive fold of the workloads' fingerprints.
    pub workloads: u64,
    /// [`config_fingerprint`] of the detection runs' [`RunConfig`].
    pub config: u64,
}

impl PlanKey {
    /// The key for debloating `workloads` (already normalized to the
    /// debloat target GPU) for a GPU `fleet` — a single-member fleet is
    /// one GPU's plan — under the default [`RunConfig`].
    pub fn for_fleet(
        framework: FrameworkKind,
        fleet: FleetSpec,
        workloads: &[Workload],
    ) -> PlanKey {
        let parts: Vec<String> =
            workloads.iter().map(|w| workload_fingerprint(w).to_string()).collect();
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        PlanKey {
            framework,
            fleet,
            workloads: stable_hash(&refs),
            config: default_config_fingerprint(),
        }
    }

    /// A filesystem- and log-friendly rendering of this identity, used
    /// as the artifact id that names a registry record and its
    /// manifest file: `torch-sm75-<workloads hex>-<config hex>`
    /// (single-member fleet, unchanged from the pre-fleet format) or
    /// `torch-sm75x80x90-...` (multi-member).
    pub fn artifact_id(&self) -> String {
        format!(
            "{}-{}-{:016x}-{:016x}",
            self.framework.tag(),
            self.fleet.label(),
            self.workloads,
            self.config
        )
    }
}

/// A stable fingerprint of everything about a [`RunConfig`] that can
/// change what a run measures or records: sampling, byte scale, the
/// cost model, and the attached subscribers — shared and per-rank alike
/// — by name (a different profiler mix yields different timing
/// baselines). Per-rank specs carry their name explicitly, so no
/// factory is ever invoked outside a run.
pub fn config_fingerprint(config: &RunConfig) -> u64 {
    let subscribers: Vec<&str> = config.subscribers.iter().map(|s| s.name()).collect();
    let rank_subscribers: Vec<&str> =
        config.rank_subscribers.iter().map(|spec| spec.name.as_str()).collect();
    stable_hash(&[
        &config.sample_steps.to_string(),
        &config.byte_scale.to_string(),
        &format!("{:?}", config.cost),
        &subscribers.join(","),
        &rank_subscribers.join(","),
    ])
}

/// [`config_fingerprint`] of the default [`RunConfig`], the one every
/// run uses: computed once per process.
pub(crate) fn default_config_fingerprint() -> u64 {
    static FINGERPRINT: OnceLock<u64> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| config_fingerprint(&RunConfig::default()))
}

/// A stable fingerprint of everything about a [`Workload`] that can
/// change which code runs: framework, model, operation, dataset, batch
/// geometry, device list, and loading mode.
pub(crate) fn workload_fingerprint(workload: &Workload) -> u64 {
    let devices: Vec<String> = workload.devices.iter().map(|d| d.to_string()).collect();
    stable_hash(&[
        &workload.label(),
        &format!("{:?}", workload.dataset),
        &workload.batch_size.to_string(),
        &workload.epochs.to_string(),
        &workload.inference_steps.to_string(),
        &format!("{:?}", workload.load_mode),
        &devices.join(","),
    ])
}

/// A stable fingerprint of a bundle's *content*: the per-library
/// content hashes — exactly what an artifact manifest's entries record —
/// folded in roster order. Two bundles fingerprint equal iff every
/// library's bytes are identical, so a verification outcome measured
/// against one bundle is valid for any bundle with the same
/// fingerprint (runs are deterministic in (workload, bundle bytes)).
/// This is the bundle half of the cross-pair verification
/// memo key.
pub fn bundle_fingerprint(libraries: &[GeneratedLibrary]) -> u64 {
    let mut folded = Vec::with_capacity(libraries.len() * 8);
    for library in libraries {
        folded.extend_from_slice(&crate::codec::content_hash(library.image.bytes()).to_le_bytes());
    }
    crate::codec::content_hash(&folded)
}

/// What detection measured for one workload on the *original* bundle:
/// the reference checksum verification must reproduce, plus the metrics
/// the report compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBaseline {
    /// Workload label (e.g. `PyTorch/Train/MobileNetV2`).
    pub label: String,
    /// Output checksum of the baseline run — the correctness reference.
    pub checksum: u64,
    /// Metrics of the baseline run (no profiler attached).
    pub baseline: WorkloadMetrics,
    /// Metrics of the detection run (kernel detector attached).
    pub detection: WorkloadMetrics,
}

/// The cacheable product of the detection + planning stages for one
/// bundle: per-library retain plans plus the baselines of every
/// workload whose usage the plan unions.
#[derive(Debug, Clone, PartialEq)]
pub struct BundlePlan {
    /// Framework whose bundle this plan compacts.
    pub framework: FrameworkKind,
    /// GPU the plan targets.
    pub gpu: GpuModel,
    /// [`UsageMap::fingerprint`] of the union usage the plan was
    /// located from — its provenance identity. Two plans with equal
    /// fingerprints (and GPU) retain identical byte sets, which is what
    /// a serve-at-scale layer can deduplicate on.
    pub usage_fingerprint: u64,
    /// One retain plan per library, in bundle order.
    pub retain: Vec<RetainPlan>,
    /// Baselines of every contributing workload, in workload order.
    pub baselines: Vec<WorkloadBaseline>,
    /// Distinct kernels in the union usage.
    pub used_kernels: usize,
    /// Distinct host functions in the union usage.
    pub used_host_fns: usize,
}

/// Compute the retain plan of every library in `libraries` under the
/// union `usage`, targeting `fleet`. Libraries fan out through `pool`;
/// results are collected in bundle order, so the output — and
/// therefore every compacted byte downstream — does not depend on the
/// pool's size.
///
/// # Errors
///
/// The first [`crate::NegativaError::Elf`] / `Fatbin` parse failure (in
/// bundle order).
pub fn locate_all(
    libraries: &[GeneratedLibrary],
    usage: &UsageMap,
    fleet: FleetSpec,
    pool: &WorkerPool,
) -> Result<Vec<RetainPlan>> {
    pool.run(libraries, |_, lib| locate(&lib.image, usage, fleet))
}

/// Incrementally re-locate `libraries` after a usage change: libraries
/// untouched by `old_usage.diff(new_usage)` reuse their cached
/// [`RetainPlan`] from `prior` verbatim, only touched ones re-run
/// [`crate::locate()`]. Location is a pure per-library function of
/// (image, that library's usage entries, arch), so the result is
/// *provably identical* to a full [`locate_all`] under `new_usage` —
/// pinned by test.
///
/// The prior plan's library roster may differ from `libraries`: prior
/// retains are matched **by soname**, so a library added to the bundle
/// since `prior` was computed simply locates from scratch, and one
/// removed from it drops out of the result (which always follows
/// `libraries`, in bundle order). Roster drift is therefore never a
/// reason to fall back to full planning — only usage-provenance
/// divergence (missing memos, fingerprint drift), which the session
/// layer detects before calling here.
///
/// # Errors
///
/// As [`locate_all`], for the relocated libraries.
pub fn locate_all_incremental(
    libraries: &[GeneratedLibrary],
    prior: &BundlePlan,
    old_usage: &UsageMap,
    new_usage: &UsageMap,
    fleet: FleetSpec,
    pool: &WorkerPool,
) -> Result<Vec<RetainPlan>> {
    let diff = old_usage.diff(new_usage);
    let prior_by_soname: HashMap<&str, &RetainPlan> =
        prior.retain.iter().map(|retain| (retain.soname.as_str(), retain)).collect();
    pool.run(libraries, |_, lib| {
        match prior_by_soname.get(lib.image.soname()) {
            // In the prior roster and untouched by the usage diff: the
            // cached plan is still exact.
            Some(prior_retain) if !diff.touched.contains(lib.image.soname()) => {
                Ok((*prior_retain).clone())
            }
            // Touched, or new to the roster: locate from scratch.
            _ => locate(&lib.image, new_usage, fleet),
        }
    })
}

/// Plan-cache counters; see [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache — including single-flight waiters
    /// handed a plan another thread was already computing.
    pub hits: u64,
    /// Lookups that found nothing and triggered a detection + planning
    /// run.
    pub misses: u64,
    /// Plans evicted to keep a framework within the cache's capacity.
    pub evictions: u64,
    /// Detection + planning computations actually started. With
    /// single-flight coalescing this stays at one per unique key no
    /// matter how many concurrent requests miss on it.
    pub detections: u64,
    /// Calls that blocked on another thread's in-flight computation of
    /// the same key instead of starting their own.
    pub coalesced: u64,
    /// Plans produced by incremental re-planning: a usage diff against
    /// a prior key's cached plan, re-locating only touched libraries.
    pub incremental: u64,
    /// Incremental re-plans that fell back to full planning — no usable
    /// prior plan, or the diff diverged.
    pub incremental_fallbacks: u64,
    /// Cumulative nanoseconds spent inside successful incremental
    /// re-planning closures (perfbench reports it per re-plan as
    /// `plan.diff_ms`).
    pub plan_diff_ns: u64,
}

/// How a [`PlanCache::refresh_incremental`] call obtained its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanSource {
    /// The plan was already cached (or this call coalesced into another
    /// thread's in-flight computation).
    Cached,
    /// The incremental closure diffed the prior key's plan and
    /// re-located only touched libraries.
    Incremental,
    /// Full planning ran — no usable prior plan, or the diff diverged.
    Full,
}

impl PlanSource {
    /// True if the plan was served from cache (no computation ran).
    pub(crate) fn cache_hit(&self) -> bool {
        matches!(self, PlanSource::Cached)
    }
}

/// One cache slot: a finished plan, or a marker that some thread is
/// computing it right now (single-flight).
#[derive(Debug)]
enum Slot {
    Ready { plan: Arc<BundlePlan>, last_used: u64 },
    InFlight,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<PlanKey, Slot>,
    /// Monotonic recency counter; every touch stamps the entry.
    tick: u64,
    stats: PlanCacheStats,
}

impl CacheState {
    /// Advance the recency counter and return the new stamp.
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Finished plans cached for `framework`.
    fn ready_count(&self, framework: FrameworkKind) -> usize {
        self.entries
            .iter()
            .filter(|(key, slot)| key.framework == framework && matches!(slot, Slot::Ready { .. }))
            .count()
    }

    /// Store `plan` under `key` as most recently used, then evict
    /// `key.framework`'s least recently used finished plans until that
    /// framework is back within `capacity`. In-flight markers are never
    /// evicted and never count.
    fn store(&mut self, key: PlanKey, plan: Arc<BundlePlan>, capacity: usize) {
        let last_used = self.touch();
        self.entries.insert(key, Slot::Ready { plan, last_used });
        while self.ready_count(key.framework) > capacity {
            let victim = self
                .entries
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } if k.framework == key.framework => {
                        Some((*last_used, *k))
                    }
                    _ => None,
                })
                .min_by_key(|&(last_used, _)| last_used)
                .map(|(_, k)| k)
                .expect("over capacity implies at least one ready entry");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }
}

/// An LRU cache of [`BundlePlan`]s with a per-framework capacity and
/// single-flight miss handling.
///
/// A plan is a pure function of its [`PlanKey`] and the process-pinned
/// framework bundle, so a cached plan never goes stale: the only policy
/// is how many to keep.
///
/// ## Capacity contract
///
/// The cache holds at most [`PlanCache::capacity`] *finished* plans
/// **per framework** ([`PlanKey::framework`]), behind one lock. Every
/// hit, insert, or completed computation stamps its entry's recency;
/// when a store would push the key's framework past the bound, that
/// framework's least recently used finished plan is evicted (counted in
/// [`PlanCacheStats::evictions`]) — churn on one framework never evicts
/// another's plans. In-flight computations are tracked outside the
/// bound: they are transient markers, never evicted, and do not count
/// toward [`PlanCache::len`].
///
/// ## Single-flight contract
///
/// A lookup runs at most one computation per key at a time: the first
/// miss inserts an in-flight marker and computes the plan outside the
/// lock; concurrent callers for the same key block until it finishes
/// and then share the resulting plan (counted as hits +
/// [`PlanCacheStats::coalesced`]). If the computation fails, the marker
/// is removed, every waiter wakes, and the first to re-check becomes
/// the new computer — an error never wedges a key.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    state: Mutex<CacheState>,
    ready: Condvar,
}

impl PlanCache {
    /// Per-framework capacity of the process-wide default instance:
    /// generous enough that a single process never evicts in practice,
    /// while still bounding a pathological key churn.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// An empty cache holding at most `capacity` plans per framework
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState::default()),
            ready: Condvar::new(),
        }
    }

    /// Maximum number of finished plans retained per framework.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Finished plans currently cached across every framework
    /// (in-flight markers excluded).
    pub fn len(&self) -> usize {
        let state = self.lock();
        state.entries.values().filter(|slot| matches!(slot, Slot::Ready { .. })).count()
    }

    /// True if no finished plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finished plans currently cached for `framework`; never exceeds
    /// [`PlanCache::capacity`].
    pub fn framework_len(&self, framework: FrameworkKind) -> usize {
        self.lock().ready_count(framework)
    }

    /// Counters since this cache was created.
    pub fn stats(&self) -> PlanCacheStats {
        self.lock().stats
    }

    /// Insert a plan as most recently used, evicting its framework's
    /// LRU entry if the capacity bound would be exceeded. Last writer
    /// wins — plans for one key are identical by construction, detection
    /// being deterministic.
    pub fn insert(&self, key: PlanKey, plan: Arc<BundlePlan>) {
        self.lock().store(key, plan, self.capacity);
        // The insert may have replaced an in-flight marker some thread
        // is waiting on; wake them so they observe the finished plan.
        self.ready.notify_all();
    }

    /// Look up `key`, computing (and caching) the plan on a miss, with
    /// at-most-one computation per key in flight. Returns the plan and
    /// whether this call was served without running `compute` itself —
    /// a plain hit or a single-flight wait.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; the error is delivered to this
    /// caller only, and the key is left uncached so a later request can
    /// retry.
    pub(crate) fn get_or_compute<F>(
        &self,
        key: PlanKey,
        compute: F,
    ) -> Result<(Arc<BundlePlan>, bool)>
    where
        F: FnOnce() -> Result<BundlePlan>,
    {
        let mut waited = false;
        let mut state = self.lock();
        loop {
            let tick = state.touch();
            match state.entries.get_mut(&key) {
                Some(Slot::Ready { plan, last_used }) => {
                    *last_used = tick;
                    let plan = plan.clone();
                    state.stats.hits += 1;
                    return Ok((plan, true));
                }
                Some(Slot::InFlight) => {
                    if !waited {
                        waited = true;
                        state.stats.coalesced += 1;
                    }
                    state = self.ready.wait(state).expect("plan cache poisoned");
                }
                None => {
                    state.entries.insert(key, Slot::InFlight);
                    state.stats.misses += 1;
                    state.stats.detections += 1;
                    break;
                }
            }
        }
        drop(state);
        let computed = compute();
        let mut state = self.lock();
        let result = match computed {
            Ok(plan) => {
                let plan = Arc::new(plan);
                state.store(key, plan.clone(), self.capacity);
                Ok((plan, false))
            }
            Err(e) => {
                // Remove only our own marker: a concurrent insert() may
                // have replaced it with a finished plan already.
                if matches!(state.entries.get(&key), Some(Slot::InFlight)) {
                    state.entries.remove(&key);
                }
                Err(e)
            }
        };
        drop(state);
        self.ready.notify_all();
        result
    }

    /// Serve `key` like [`PlanCache::get_or_compute`], but on a miss try
    /// *incremental re-planning* against the cached plan of `prior` — a
    /// sibling key whose workload fingerprint differs — before paying
    /// for full planning.
    ///
    /// The `incremental` closure receives the prior plan and returns
    /// `Ok(Some(plan))` on success or `Ok(None)` on any divergence it
    /// detects (roster mismatch, unreconstructable prior usage), in
    /// which case — or when `prior` has no cached plan at all — `full`
    /// runs instead ([`PlanCacheStats::incremental_fallbacks`]).
    /// Successful diffs are timed into [`PlanCacheStats::plan_diff_ns`].
    /// Single-flight and LRU semantics are exactly those of
    /// [`PlanCache::get_or_compute`]; the incremental path only changes
    /// *how* the missing plan is computed, never what is cached.
    ///
    /// # Errors
    ///
    /// Whatever the closure that ran returns; the key stays uncached
    /// and retryable.
    pub(crate) fn refresh_incremental<I, F>(
        &self,
        key: PlanKey,
        prior: &PlanKey,
        incremental: I,
        full: F,
    ) -> Result<(Arc<BundlePlan>, PlanSource)>
    where
        I: FnOnce(&BundlePlan) -> Result<Option<BundlePlan>>,
        F: FnOnce() -> Result<BundlePlan>,
    {
        let prior_plan = if key == *prior { None } else { self.peek(prior) };
        let source = std::cell::Cell::new(PlanSource::Full);
        let (plan, cached) = self.get_or_compute(key, || {
            if let Some(prior_plan) = prior_plan {
                let started = Instant::now();
                if let Some(plan) = incremental(&prior_plan)? {
                    let diff_ns = started.elapsed().as_nanos() as u64;
                    let mut state = self.lock();
                    state.stats.incremental += 1;
                    state.stats.plan_diff_ns += diff_ns;
                    source.set(PlanSource::Incremental);
                    return Ok(plan);
                }
            }
            self.lock().stats.incremental_fallbacks += 1;
            full()
        })?;
        Ok((plan, if cached { PlanSource::Cached } else { source.get() }))
    }

    /// The finished plan for `key`, without touching recency or the
    /// hit/miss counters — the prior-plan probe of
    /// [`PlanCache::refresh_incremental`], which must not skew the
    /// cache's observable behavior.
    fn peek(&self, key: &PlanKey) -> Option<Arc<BundlePlan>> {
        match self.lock().entries.get(key) {
            Some(Slot::Ready { plan, .. }) => Some(plan.clone()),
            _ => None,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().expect("plan cache poisoned")
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(PlanCache::DEFAULT_CAPACITY)
    }
}

/// The process-wide default [`PlanCache`] instance, shared by every
/// [`crate::Debloater`] not given an explicit cache.
pub(crate) fn process_cache() -> Arc<PlanCache> {
    static CACHE: OnceLock<Arc<PlanCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(PlanCache::default())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatbin::SmArch;
    use simcuda::LoadMode;
    use simml::{cached_bundle, ModelKind, Operation};
    use std::sync::atomic::Ordering;

    fn workload() -> Workload {
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference)
    }

    fn key(tag: u64) -> PlanKey {
        PlanKey {
            framework: FrameworkKind::PyTorch,
            fleet: FleetSpec::single(SmArch::SM75),
            workloads: tag,
            config: 0,
        }
    }

    fn plan(tag: u64) -> Arc<BundlePlan> {
        Arc::new(BundlePlan {
            framework: FrameworkKind::PyTorch,
            gpu: GpuModel::T4,
            usage_fingerprint: tag,
            retain: Vec::new(),
            baselines: Vec::new(),
            used_kernels: 0,
            used_host_fns: 0,
        })
    }

    #[test]
    fn plan_keys_distinguish_workload_configs() {
        let w = workload();
        let mut lazy = workload();
        lazy.load_mode = LoadMode::Lazy;
        let mut train = workload();
        train.operation = Operation::Train;
        let on = |gpu: GpuModel, w: &Workload| {
            PlanKey::for_fleet(
                FrameworkKind::PyTorch,
                FleetSpec::single(gpu.arch()),
                std::slice::from_ref(w),
            )
        };
        let key = |w: &Workload| on(GpuModel::T4, w);
        assert_eq!(key(&w), key(&workload()));
        assert_ne!(key(&w), key(&lazy));
        assert_ne!(key(&w), key(&train));
        assert_ne!(key(&w), on(GpuModel::H100, &workload()));
    }

    #[test]
    fn artifact_ids_are_unique_per_identity_and_path_safe() {
        let a = key(0x0abc);
        let id = a.artifact_id();
        assert_eq!(id, "torch-sm75-0000000000000abc-0000000000000000");
        assert!(id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'), "{id}");
        let mut b = a;
        b.config = 1;
        assert_ne!(a.artifact_id(), b.artifact_id(), "config is part of the identity");
        let mut c = a;
        c.framework = FrameworkKind::TensorFlow;
        assert_ne!(a.artifact_id(), c.artifact_id());
        // Multi-member fleets widen the identity without touching the
        // single-member (legacy) format.
        let mut d = a;
        d.fleet = FleetSpec::new(&[SmArch::SM75, SmArch::SM80, SmArch::SM90]).unwrap();
        let fleet_id = d.artifact_id();
        assert_eq!(fleet_id, "torch-sm75x80x90-0000000000000abc-0000000000000000");
        assert!(fleet_id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'), "{fleet_id}");
    }

    #[test]
    fn fleet_keys_distinguish_and_normalize_membership() {
        let w = [workload()];
        let single =
            PlanKey::for_fleet(FrameworkKind::PyTorch, FleetSpec::single(GpuModel::T4.arch()), &w);
        assert_eq!(
            single,
            PlanKey::for_fleet(FrameworkKind::PyTorch, FleetSpec::single(SmArch::SM75), &w),
            "a GPU's key is the single-member fleet of its architecture"
        );
        let fleet = FleetSpec::new(&[SmArch::SM90, SmArch::SM75]).unwrap();
        let multi = PlanKey::for_fleet(FrameworkKind::PyTorch, fleet, &w);
        assert_ne!(single, multi, "fleet membership is part of the identity");
        let reordered = FleetSpec::new(&[SmArch::SM75, SmArch::SM90]).unwrap();
        assert_eq!(
            multi,
            PlanKey::for_fleet(FrameworkKind::PyTorch, reordered, &w),
            "member order never splits the cache"
        );
    }

    #[test]
    fn config_fingerprints_distinguish_run_configs() {
        let default = RunConfig::default();
        let mut more_samples = RunConfig::default();
        more_samples.sample_steps += 3;
        let mut rescaled = RunConfig::default();
        rescaled.byte_scale *= 2;
        let fp = config_fingerprint;
        assert_eq!(fp(&default), fp(&RunConfig::default()));
        assert_ne!(fp(&default), fp(&more_samples), "sampling changes baselines");
        assert_ne!(fp(&default), fp(&rescaled), "byte scale changes every measurement");
        let key = PlanKey::for_fleet(FrameworkKind::PyTorch, FleetSpec::single(SmArch::SM75), &[]);
        assert_eq!(key.config, fp(&default), "every key records the default configuration");
    }

    #[test]
    fn locate_all_parallel_equals_serial() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let mut usage = UsageMap::new();
        // A tiny synthetic usage map: enough to make plans non-trivial.
        for lib in bundle.libraries() {
            for f in lib.manifest.infra_fns.iter().take(2) {
                usage.record_host_fn(&lib.manifest.soname, f);
            }
        }
        let fleet = FleetSpec::single(SmArch::SM75);
        let serial = locate_all(bundle.libraries(), &usage, fleet, &WorkerPool::new(1)).unwrap();
        let pooled = locate_all(bundle.libraries(), &usage, fleet, &WorkerPool::shared()).unwrap();
        assert_eq!(serial, pooled, "fan-out must not change any plan byte");
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let k = key(0xdead_beef_0001);
        let cache = process_cache();
        let before = cache.stats();
        assert!(cache.peek(&k).is_none());
        let p = plan(1);
        cache.insert(k, p.clone());
        let (found, cached) =
            cache.get_or_compute(k, || panic!("an inserted plan must be served")).unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&found, &p));
        assert!(cache.stats().hits > before.hits);
    }

    /// Touch `k` through the counting, recency-stamping path; the key
    /// must already be cached.
    fn hit(cache: &PlanCache, k: PlanKey) {
        let (_, cached) = cache.get_or_compute(k, || panic!("{k:?} must be cached")).unwrap();
        assert!(cached);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = PlanCache::new(3);
        for tag in 1..=3 {
            cache.insert(key(tag), plan(tag));
        }
        assert_eq!(cache.len(), 3);
        // Touch 1 and 2 so 3 becomes the LRU entry.
        hit(&cache, key(1));
        hit(&cache, key(2));
        cache.insert(key(4), plan(4));
        assert_eq!(cache.len(), 3, "capacity bound holds");
        assert!(cache.peek(&key(3)).is_none(), "the LRU entry was evicted");
        for tag in [1, 2, 4] {
            assert!(cache.peek(&key(tag)).is_some(), "entry {tag} must survive");
        }
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_never_exceeded_under_churn() {
        let cache = PlanCache::new(2);
        for tag in 0..20 {
            cache.insert(key(tag), plan(tag));
            assert!(cache.len() <= 2, "insert {tag} blew the bound");
        }
        assert_eq!(cache.stats().evictions, 18);
        assert_eq!(cache.capacity(), 2);
    }

    #[test]
    fn get_or_compute_caches_and_reports_provenance() {
        let cache = PlanCache::new(4);
        let (first, cached) =
            cache.get_or_compute(key(7), || Ok(plan(7).as_ref().clone())).unwrap();
        assert!(!cached, "a fresh key computes");
        let (second, cached) =
            cache.get_or_compute(key(7), || panic!("hit must not recompute")).unwrap();
        assert!(cached, "the second request is served from cache");
        assert!(Arc::ptr_eq(&first, &second), "one shared plan instance");
        let stats = cache.stats();
        assert_eq!(stats.detections, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn compute_errors_leave_the_key_retryable() {
        let cache = PlanCache::new(4);
        let err = cache
            .get_or_compute(key(9), || {
                Err(crate::NegativaError::EmptyDevices { workload: "w".into() })
            })
            .unwrap_err();
        assert!(matches!(err, crate::NegativaError::EmptyDevices { .. }));
        assert_eq!(cache.len(), 0, "a failed computation caches nothing");
        let (_, cached) = cache.get_or_compute(key(9), || Ok(plan(9).as_ref().clone())).unwrap();
        assert!(!cached, "the retry computes anew");
        assert_eq!(cache.stats().detections, 2);
    }

    fn key_for(framework: FrameworkKind, tag: u64) -> PlanKey {
        PlanKey { framework, fleet: FleetSpec::single(SmArch::SM75), workloads: tag, config: 0 }
    }

    #[test]
    fn partitions_isolate_frameworks_and_their_capacity() {
        // Capacity 1 *per framework*: one PyTorch and one TensorFlow
        // plan coexist.
        let cache = PlanCache::new(1);
        cache.insert(key_for(FrameworkKind::PyTorch, 1), plan(1));
        cache.insert(key_for(FrameworkKind::TensorFlow, 2), plan(2));
        assert_eq!(cache.len(), 2, "frameworks are bounded independently");
        assert_eq!(cache.framework_len(FrameworkKind::PyTorch), 1);
        assert_eq!(cache.framework_len(FrameworkKind::TensorFlow), 1);
        assert_eq!(cache.framework_len(FrameworkKind::Vllm), 0, "untouched framework is empty");
        assert_eq!(cache.stats().evictions, 0, "cross-framework inserts never evict each other");
        // Churn within one framework still evicts within it only.
        cache.insert(key_for(FrameworkKind::PyTorch, 3), plan(3));
        assert_eq!(cache.framework_len(FrameworkKind::PyTorch), 1);
        assert!(cache.peek(&key_for(FrameworkKind::PyTorch, 3)).is_some(), "newest plan stays");
        assert!(cache.peek(&key_for(FrameworkKind::TensorFlow, 2)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn refresh_incremental_diffs_against_the_prior_plan() {
        let cache = PlanCache::new(4);
        let prior_key = key(1);
        cache.insert(prior_key, plan(1));

        // Miss with a usable prior: the incremental closure runs and its
        // product is cached under the new key.
        let (p, source) = cache
            .refresh_incremental(
                key(2),
                &prior_key,
                |prior| {
                    assert_eq!(prior.usage_fingerprint, 1, "the cached prior plan is handed in");
                    Ok(Some(plan(2).as_ref().clone()))
                },
                || panic!("incremental success must not fall back"),
            )
            .unwrap();
        assert_eq!(p.usage_fingerprint, 2);
        assert_eq!(source, PlanSource::Incremental);
        let stats = cache.stats();
        assert_eq!(stats.incremental, 1);
        assert_eq!(stats.incremental_fallbacks, 0);
        assert!(stats.plan_diff_ns > 0, "successful diffs are timed");

        // Second request for the same key is a plain hit.
        let (again, source) = cache
            .refresh_incremental(
                key(2),
                &prior_key,
                |_| panic!("hit must not diff"),
                || panic!("hit must not plan"),
            )
            .unwrap();
        assert!(Arc::ptr_eq(&p, &again));
        assert_eq!(source, PlanSource::Cached);
    }

    #[test]
    fn refresh_incremental_falls_back_on_divergence_or_missing_prior() {
        let cache = PlanCache::new(4);
        // No prior cached at all -> full planning.
        let (p, source) = cache
            .refresh_incremental(
                key(10),
                &key(9),
                |_| panic!("no prior plan exists to diff against"),
                || Ok(plan(10).as_ref().clone()),
            )
            .unwrap();
        assert_eq!(p.usage_fingerprint, 10);
        assert_eq!(source, PlanSource::Full);

        // Prior cached but the closure reports divergence -> full.
        let (p, source) = cache
            .refresh_incremental(key(11), &key(10), |_| Ok(None), || Ok(plan(11).as_ref().clone()))
            .unwrap();
        assert_eq!(p.usage_fingerprint, 11);
        assert_eq!(source, PlanSource::Full);

        // prior == key degenerates to plain get_or_compute.
        let (_, source) = cache
            .refresh_incremental(
                key(12),
                &key(12),
                |_| panic!("a key is never its own prior"),
                || Ok(plan(12).as_ref().clone()),
            )
            .unwrap();
        assert_eq!(source, PlanSource::Full);

        let stats = cache.stats();
        assert_eq!(stats.incremental, 0);
        assert_eq!(stats.incremental_fallbacks, 3);
        assert_eq!(stats.plan_diff_ns, 0, "fallbacks are not timed as diffs");
    }

    #[test]
    fn refresh_incremental_errors_leave_the_key_retryable() {
        let cache = PlanCache::new(4);
        cache.insert(key(1), plan(1));
        let err = cache
            .refresh_incremental(
                key(2),
                &key(1),
                |_| Err(crate::NegativaError::EmptyDevices { workload: "w".into() }),
                || panic!("an incremental error propagates, not falls back"),
            )
            .unwrap_err();
        assert!(matches!(err, crate::NegativaError::EmptyDevices { .. }));
        assert!(cache.peek(&key(2)).is_none(), "nothing cached on error");
        let (_, source) = cache
            .refresh_incremental(
                key(2),
                &key(1),
                |_| Ok(Some(plan(2).as_ref().clone())),
                || panic!("retry diffs again"),
            )
            .unwrap();
        assert_eq!(source, PlanSource::Incremental);
    }

    #[test]
    fn single_flight_coalesces_concurrent_misses() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        const THREADS: usize = 8;
        let cache = PlanCache::new(4);
        let runs = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let cache = &cache;
                let runs = &runs;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let (p, _) = cache
                        .get_or_compute(key(42), || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Deterministic proof the others *blocked*
                            // rather than raced: hold the computation
                            // open until every other thread is waiting
                            // on this key's in-flight marker.
                            while cache.stats().coalesced < (THREADS - 1) as u64 {
                                std::thread::yield_now();
                            }
                            Ok(plan(42).as_ref().clone())
                        })
                        .unwrap();
                    assert_eq!(p.usage_fingerprint, 42);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one detection ran");
        let stats = cache.stats();
        assert_eq!(stats.detections, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.coalesced, (THREADS - 1) as u64);
        assert_eq!(stats.hits, (THREADS - 1) as u64, "waiters count as hits");
    }
}
