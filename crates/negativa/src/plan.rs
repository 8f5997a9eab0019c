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
//! miss handling — concurrent requests for one key run one computation
//! between them. A miss has one path, whatever was planned before: the
//! session assembles the plan from its debloater's memos — each
//! workload's detection and each library's [`RetainPlan`] — and
//! measures or locates only what those lack. Keys carry what the
//! ROADMAP's serve-at-scale direction needs: framework, GPU fleet, and
//! a fingerprint of the workload set.
//! Every run uses the default [`RunConfig`], whose fingerprint each key
//! records for the manifest and the artifact id. A plan is a
//! pure function of its key and the process-pinned bundle, so a cached
//! plan never goes stale. The long-lived
//! [`crate::service::DebloatService`] owns one; standalone
//! [`crate::Debloater`]s default to one process-wide instance.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use fatbin::FleetSpec;
use simcuda::GpuModel;
use simelf::ElfImage;
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
/// cost model, and the attached subscribers by name (a different
/// profiler mix yields different timing baselines).
///
/// The last hash input is an empty string: the slot once held the
/// names of per-rank subscriber factories, which no longer exist.
/// Keeping it keeps every recorded fingerprint — `PlanKey::config`,
/// artifact ids, manifest hashes — what it was.
pub fn config_fingerprint(config: &RunConfig) -> u64 {
    let subscribers: Vec<&str> = config.subscribers.iter().map(|s| s.name()).collect();
    stable_hash(&[
        &config.sample_steps.to_string(),
        &config.byte_scale.to_string(),
        &format!("{:?}", config.cost),
        &subscribers.join(","),
        "",
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
/// the report compares against. One run, two clocks: the detection run
/// gives all three, because the detector changes nothing but its time.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBaseline {
    /// Workload label (e.g. `PyTorch/Train/MobileNetV2`).
    pub label: String,
    /// Output checksum of the detection run, which is the baseline
    /// output — the correctness reference.
    pub checksum: u64,
    /// Baseline metrics: the detection run on its overhead-free clock,
    /// as if no profiler were attached.
    pub baseline: WorkloadMetrics,
    /// Detection metrics: the same run on the clock the kernel
    /// detector's overhead slowed.
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

/// Compute the retain plan of every image in `images` under the union
/// `usage`, targeting `fleet`. Images fan out through `pool`; results
/// are collected in input order, so the output — and therefore every
/// compacted byte downstream — does not depend on the pool's size.
///
/// # Errors
///
/// The first [`crate::NegativaError::Elf`] / `Fatbin` parse failure (in
/// input order).
pub(crate) fn locate_all(
    images: &[&ElfImage],
    usage: &UsageMap,
    fleet: FleetSpec,
    pool: &WorkerPool,
) -> Result<Vec<RetainPlan>> {
    pool.run(images, |_, image| locate(image, usage, fleet))
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
    /// Plan computations actually started; always equal to `misses`.
    /// With single-flight coalescing this stays at one per unique key
    /// no matter how many concurrent requests miss on it. A computation
    /// measures only the workloads its debloater's detection memo
    /// lacks, so it may run no detection at all.
    pub detections: u64,
    /// Calls that blocked on another thread's in-flight computation of
    /// the same key instead of starting their own.
    pub coalesced: u64,
    /// Always 0: a miss has one path, so there is no incremental
    /// re-plan to count. Kept because the benchmark reports it.
    pub incremental: u64,
    /// Always 0, as [`PlanCacheStats::incremental`].
    pub incremental_fallbacks: u64,
    /// Always 0, as [`PlanCacheStats::incremental`] (the benchmark
    /// reports it as `plan.diff_ms`).
    pub plan_diff_ns: u64,
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
        let images: Vec<&ElfImage> = bundle.libraries().iter().map(|lib| &lib.image).collect();
        let serial = locate_all(&images, &usage, fleet, &WorkerPool::new(1)).unwrap();
        let pooled = locate_all(&images, &usage, fleet, &WorkerPool::shared()).unwrap();
        assert_eq!(serial, pooled, "fan-out must not change any plan byte");
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let k = key(0xdead_beef_0001);
        let cache = process_cache();
        let before = cache.stats();
        assert!(!cached(&cache, k));
        let p = plan(1);
        cache.insert(k, p.clone());
        let (found, cached) =
            cache.get_or_compute(k, || panic!("an inserted plan must be served")).unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&found, &p));
        assert!(cache.stats().hits > before.hits);
    }

    /// True if a finished plan for `k` is cached; unlike a lookup, it
    /// touches neither recency nor the counters.
    fn cached(cache: &PlanCache, k: PlanKey) -> bool {
        matches!(cache.lock().entries.get(&k), Some(Slot::Ready { .. }))
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
        assert!(!cached(&cache, key(3)), "the LRU entry was evicted");
        for tag in [1, 2, 4] {
            assert!(cached(&cache, key(tag)), "entry {tag} must survive");
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
        assert!(cached(&cache, key_for(FrameworkKind::PyTorch, 3)), "newest plan stays");
        assert!(cached(&cache, key_for(FrameworkKind::TensorFlow, 2)));
        assert_eq!(cache.stats().evictions, 1);
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
