//! The planning layer — cacheable, reusable compaction work orders.
//!
//! Detection produces a [`UsageMap`]; planning turns it into a
//! [`BundlePlan`]: one [`RetainPlan`] per library (computed by
//! [`crate::locate()`], fanned out across libraries through the bounded
//! [`crate::pool::WorkerPool`]) plus the per-workload baselines the
//! apply stage verifies against. A plan is pure data — applying it
//! never re-runs detection — which is what makes it cacheable.
//!
//! Plans live in a [`PlanCache`]: an instantiable LRU cache
//! **partitioned per framework**, each partition capacity-bounded and
//! independently locked, with **single-flight** miss handling
//! ([`PlanCache::get_or_compute`]) scoped to its partition — a stampede
//! of PyTorch requests never contends with, or wakes, TensorFlow
//! waiters. Keys carry what the ROADMAP's serve-at-scale direction
//! needs: framework, GPU architecture, and a fingerprint of the
//! workload set and run configuration. A cache built with
//! [`PlanCache::with_ttl`] additionally treats plans older than the TTL
//! as stale: the next request **refreshes on expiry**, recomputing the
//! plan under the same single-flight guarantee instead of serving
//! outdated baselines forever. The long-lived
//! [`crate::service::DebloatService`] owns one; standalone
//! [`crate::Debloater`]s default to the process-wide instance,
//! [`process_cache`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fatbin::FleetSpec;
use simcuda::GpuModel;
use simml::namegen::stable_hash;
use simml::{FrameworkKind, GeneratedLibrary, RunConfig, Workload, WorkloadMetrics};

use crate::detect::UsageMap;
use crate::locate::{locate, RetainPlan};
use crate::pool::Parallelism;
use crate::Result;

/// Cache key of one [`BundlePlan`]: which framework bundle, which GPU
/// fleet it was located for, a fingerprint of the workload set whose
/// union usage produced it, and a fingerprint of the execution
/// configuration the detection runs used (two debloaters with different
/// cost models or scales must never serve each other's baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Framework whose bundle the plan compacts.
    pub framework: FrameworkKind,
    /// GPU fleet the location stage targeted. A single-member fleet is
    /// the paper's original per-GPU plan identity.
    pub fleet: FleetSpec,
    /// Order-sensitive fold of [`workload_fingerprint`] over the
    /// workload set.
    pub workloads: u64,
    /// [`config_fingerprint`] of the detection runs' [`RunConfig`].
    pub config: u64,
}

impl PlanKey {
    /// The key for debloating `workloads` (already normalized to the
    /// debloat target GPU) on `gpu` under `config` — a single-member
    /// fleet of that GPU's architecture.
    pub fn for_workloads(
        framework: FrameworkKind,
        gpu: GpuModel,
        config: &RunConfig,
        workloads: &[Workload],
    ) -> PlanKey {
        PlanKey::for_fleet(framework, FleetSpec::single(gpu.arch()), config, workloads)
    }

    /// The key for debloating `workloads` for an entire GPU `fleet`
    /// under `config`: one artifact identity serving every member
    /// architecture.
    pub fn for_fleet(
        framework: FrameworkKind,
        fleet: FleetSpec,
        config: &RunConfig,
        workloads: &[Workload],
    ) -> PlanKey {
        let parts: Vec<String> =
            workloads.iter().map(|w| workload_fingerprint(w).to_string()).collect();
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        PlanKey {
            framework,
            fleet,
            workloads: stable_hash(&refs),
            config: config_fingerprint(config),
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

/// A stable fingerprint of everything about a [`Workload`] that can
/// change which code runs: framework, model, operation, dataset, batch
/// geometry, device list, and loading mode.
pub fn workload_fingerprint(workload: &Workload) -> u64 {
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
/// fingerprint (runs are deterministic in (workload, config, bundle
/// bytes)). This is the bundle half of the cross-pair verification
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
/// union `usage`, targeting `gpu`. Libraries fan out per `parallelism`
/// (bounded pool or inline); results are collected in bundle order
/// either way, so the output — and therefore every compacted byte
/// downstream — is identical to the serial path.
///
/// # Errors
///
/// The first [`crate::NegativaError::Elf`] / `Fatbin` parse failure (in
/// bundle order).
pub fn locate_all(
    libraries: &[GeneratedLibrary],
    usage: &UsageMap,
    fleet: FleetSpec,
    parallelism: &Parallelism,
) -> Result<Vec<RetainPlan>> {
    parallelism.run(libraries, |_, lib| locate(&lib.image, usage, fleet))
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
    parallelism: &Parallelism,
) -> Result<Vec<RetainPlan>> {
    let diff = old_usage.diff(new_usage);
    let prior_by_soname: HashMap<&str, &RetainPlan> =
        prior.retain.iter().map(|retain| (retain.soname.as_str(), retain)).collect();
    parallelism.run(libraries, |_, lib| {
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
    /// Lookups that found nothing and (for
    /// [`PlanCache::get_or_compute`]) triggered a detection + planning
    /// run.
    pub misses: u64,
    /// Plans evicted to keep the cache within its capacity.
    pub evictions: u64,
    /// Detection + planning computations actually started. With
    /// single-flight coalescing this stays at one per unique key no
    /// matter how many concurrent requests miss on it.
    pub detections: u64,
    /// Calls that blocked on another thread's in-flight computation of
    /// the same key instead of starting their own.
    pub coalesced: u64,
    /// Lookups that found only a plan older than the cache's TTL. The
    /// stale plan is dropped and the lookup proceeds as a miss, so every
    /// expiry is also counted in [`PlanCacheStats::misses`].
    pub expired: u64,
    /// Plans produced by the incremental path of
    /// [`PlanCache::refresh_incremental`]: a usage diff against a prior
    /// key's cached plan, re-locating only touched libraries.
    pub incremental: u64,
    /// [`PlanCache::refresh_incremental`] calls that fell back to full
    /// planning — no usable prior plan, or the incremental closure
    /// reported divergence.
    pub incremental_fallbacks: u64,
    /// Cumulative nanoseconds spent inside successful incremental
    /// re-planning closures (perfbench reports it per re-plan as
    /// `plan.diff_ms`).
    pub plan_diff_ns: u64,
}

/// How a [`PlanCache::refresh_incremental`] call obtained its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// A fresh plan was already cached (or this call coalesced into
    /// another thread's in-flight computation).
    Cached,
    /// The incremental closure diffed the prior key's plan and
    /// re-located only touched libraries, in `plan_diff_ns`.
    Incremental {
        /// Wall time the incremental re-plan took.
        plan_diff_ns: u64,
    },
    /// Full planning ran — no usable prior plan, or the diff diverged.
    Full,
}

impl PlanSource {
    /// True if the plan was served from cache (no computation ran).
    pub fn cache_hit(&self) -> bool {
        matches!(self, PlanSource::Cached)
    }

    /// Wall time of the incremental re-plan, or 0 for the cached and
    /// full paths.
    pub fn plan_diff_ns(&self) -> u64 {
        match self {
            PlanSource::Incremental { plan_diff_ns } => *plan_diff_ns,
            PlanSource::Cached | PlanSource::Full => 0,
        }
    }
}

/// One cache slot: a finished plan, or a marker that some thread is
/// computing it right now (single-flight).
#[derive(Debug)]
enum Slot {
    Ready { plan: Arc<BundlePlan>, last_used: u64, stored_at: Instant },
    InFlight,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<PlanKey, Slot>,
    /// Monotonic recency counter; every touch stamps the entry.
    tick: u64,
}

/// One per-framework shard of a [`PlanCache`]: its own entry map, lock,
/// and single-flight wakeup channel. Partitioning means a planning
/// stampede on one framework never contends with — or spuriously wakes —
/// requests against another.
#[derive(Debug, Default)]
struct Partition {
    state: Mutex<CacheState>,
    ready: Condvar,
}

/// An LRU cache of [`BundlePlan`]s, partitioned per framework, with
/// single-flight miss handling and optional TTL-based staleness.
///
/// ## Partitioning contract
///
/// Entries live in per-framework partitions (one per
/// [`PlanKey::framework`] value, created on first use). Each partition
/// has its own lock, its own LRU order, its own capacity bound, and its
/// own single-flight wakeup channel, so concurrent traffic against
/// different frameworks never contends. [`PlanCache::capacity`] is the
/// *per-partition* bound; [`PlanCache::len`] sums every partition.
///
/// ## Eviction contract
///
/// A partition holds at most [`PlanCache::capacity`] *finished* plans.
/// Every hit, insert, or completed computation stamps its entry's
/// recency; when an insert would exceed the partition's capacity, the
/// least recently used finished plan in that partition is evicted (and
/// counted in [`PlanCacheStats::evictions`]). In-flight computations
/// are tracked outside the bound — they are transient markers, never
/// evicted, and do not count toward [`PlanCache::len`].
///
/// ## Single-flight contract
///
/// [`PlanCache::get_or_compute`] guarantees at most one computation per
/// key runs at a time: the first miss inserts an in-flight marker and
/// runs `compute` outside the lock; concurrent callers for the same key
/// block until it finishes and then share the resulting plan (counted
/// as hits + [`PlanCacheStats::coalesced`]). If the computation fails,
/// the marker is removed, every waiter wakes, and the first to re-check
/// becomes the new computer — an error never wedges a key. Waiting and
/// waking are partition-scoped: a computation finishing for one
/// framework never wakes waiters of another.
///
/// ## Staleness contract
///
/// A cache built with [`PlanCache::with_ttl`] treats a finished plan
/// older than the TTL as stale ([`PlanCacheStats::expired`]): the next
/// [`PlanCache::lookup`] drops it and misses, and the next
/// [`PlanCache::get_or_compute`] **refreshes on expiry** — it replaces
/// the stale entry with an in-flight marker and recomputes, with
/// concurrent requests coalescing into that one refresh exactly as on a
/// cold miss. A cache built with [`PlanCache::new`] never expires
/// anything ([`PlanCache::ttl`] is `None`).
///
/// ## Refresh contract
///
/// [`PlanCache::invalidate`] drops a finished plan so the next request
/// recomputes it; [`PlanCache::refresh`] is the compound
/// invalidate-then-recompute. Neither cancels an in-flight computation:
/// a refresh that races one simply coalesces into it, which keeps the
/// single-flight guarantee unconditional.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    ttl: Option<Duration>,
    partitions: Mutex<HashMap<FrameworkKind, Arc<Partition>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    detections: AtomicU64,
    coalesced: AtomicU64,
    expired: AtomicU64,
    incremental: AtomicU64,
    incremental_fallbacks: AtomicU64,
    plan_diff_ns: AtomicU64,
}

impl PlanCache {
    /// Per-partition capacity of the process-wide default instance:
    /// generous enough that a single process never evicts in practice,
    /// while still bounding a pathological key churn.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// An empty cache holding at most `capacity` plans per framework
    /// partition (clamped to at least 1). Plans never expire; see
    /// [`PlanCache::with_ttl`] for TTL-based staleness.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache::build(capacity, None)
    }

    /// An empty cache whose plans go stale `ttl` after they are stored:
    /// the next request for an expired key recomputes the plan
    /// (refresh-on-expiry) instead of serving baselines measured
    /// arbitrarily long ago.
    pub fn with_ttl(capacity: usize, ttl: Duration) -> PlanCache {
        PlanCache::build(capacity, Some(ttl))
    }

    fn build(capacity: usize, ttl: Option<Duration>) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            ttl,
            partitions: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            detections: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            incremental: AtomicU64::new(0),
            incremental_fallbacks: AtomicU64::new(0),
            plan_diff_ns: AtomicU64::new(0),
        }
    }

    /// Maximum number of finished plans each framework partition
    /// retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The staleness bound, if this cache expires plans at all.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    /// Finished plans currently cached across every partition
    /// (in-flight markers excluded; stale plans still count until a
    /// lookup drops them). Never exceeds [`PlanCache::capacity`] ×
    /// [`PlanCache::partition_count`].
    pub fn len(&self) -> usize {
        let partitions: Vec<Arc<Partition>> = self.partitions().values().cloned().collect();
        partitions.iter().map(|p| Self::ready_count(&Self::lock(p))).sum()
    }

    /// True if no finished plan is cached in any partition.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of framework partitions created so far (one per framework
    /// that has been looked up or planned against).
    pub fn partition_count(&self) -> usize {
        self.partitions().len()
    }

    /// Finished plans currently cached in `framework`'s partition.
    pub fn partition_len(&self, framework: FrameworkKind) -> usize {
        match self.partitions().get(&framework).cloned() {
            Some(partition) => Self::ready_count(&Self::lock(&partition)),
            None => 0,
        }
    }

    /// Counters since this cache was created (summed over partitions).
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            detections: self.detections.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            incremental: self.incremental.load(Ordering::Relaxed),
            incremental_fallbacks: self.incremental_fallbacks.load(Ordering::Relaxed),
            plan_diff_ns: self.plan_diff_ns.load(Ordering::Relaxed),
        }
    }

    /// Non-blocking lookup: a fresh finished plan counts (and stamps) a
    /// hit; a missing, stale, or still-in-flight key counts a miss (a
    /// stale plan is additionally dropped and counted in
    /// [`PlanCacheStats::expired`]).
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<BundlePlan>> {
        let partition = self.partition(key.framework);
        let mut state = Self::lock(&partition);
        state.tick += 1;
        let tick = state.tick;
        match state.entries.get_mut(key) {
            Some(Slot::Ready { plan, last_used, stored_at }) => {
                if self.is_fresh(*stored_at) {
                    *last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(plan.clone());
                }
                state.entries.remove(key);
                self.expired.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a plan as most recently used (and freshly stored),
    /// evicting the partition's LRU entry if its capacity bound would
    /// be exceeded. Last writer wins — plans for one key are identical
    /// by construction, detection being deterministic.
    pub fn insert(&self, key: PlanKey, plan: Arc<BundlePlan>) {
        let partition = self.partition(key.framework);
        let mut state = Self::lock(&partition);
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(key, Slot::Ready { plan, last_used: tick, stored_at: Instant::now() });
        self.evict_over_capacity(&mut state);
        // The insert may have replaced an in-flight marker some thread
        // is waiting on; wake them so they observe the finished plan.
        partition.ready.notify_all();
    }

    /// Drop the finished plan for `key`, if any, so the next request
    /// recomputes it. Returns whether a plan was dropped. An in-flight
    /// computation is left untouched (its waiters still get a plan).
    pub fn invalidate(&self, key: &PlanKey) -> bool {
        let partition = self.partition(key.framework);
        let mut state = Self::lock(&partition);
        if matches!(state.entries.get(key), Some(Slot::Ready { .. })) {
            state.entries.remove(key);
            true
        } else {
            false
        }
    }

    /// Drop every finished plan in every partition (in-flight
    /// computations keep running).
    pub fn clear(&self) {
        let partitions: Vec<Arc<Partition>> = self.partitions().values().cloned().collect();
        for partition in partitions {
            let mut state = Self::lock(&partition);
            state.entries.retain(|_, slot| matches!(slot, Slot::InFlight));
        }
    }

    /// Look up `key`, computing (and caching) the plan on a miss — or a
    /// TTL expiry — with at-most-one computation per key in flight.
    /// Returns the plan and whether this call was served without
    /// running `compute` itself — a plain hit or a single-flight wait.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; the error is delivered to this
    /// caller only, and the key is left uncached so a later request can
    /// retry.
    pub fn get_or_compute<F>(&self, key: PlanKey, compute: F) -> Result<(Arc<BundlePlan>, bool)>
    where
        F: FnOnce() -> Result<BundlePlan>,
    {
        let partition = self.partition(key.framework);
        let mut waited = false;
        {
            let mut state = Self::lock(&partition);
            loop {
                state.tick += 1;
                let tick = state.tick;
                match state.entries.get_mut(&key) {
                    Some(Slot::Ready { plan, last_used, stored_at }) => {
                        if self.is_fresh(*stored_at) {
                            *last_used = tick;
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Ok((plan.clone(), true));
                        }
                        // Refresh-on-expiry: this caller becomes the
                        // single-flight computer for the stale key.
                        state.entries.insert(key, Slot::InFlight);
                        self.expired.fetch_add(1, Ordering::Relaxed);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Some(Slot::InFlight) => {
                        if !waited {
                            waited = true;
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                        }
                        state = partition.ready.wait(state).expect("plan cache poisoned");
                    }
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        state.entries.insert(key, Slot::InFlight);
                        break;
                    }
                }
            }
        }
        self.detections.fetch_add(1, Ordering::Relaxed);
        match compute() {
            Ok(plan) => {
                let plan = Arc::new(plan);
                let mut state = Self::lock(&partition);
                state.tick += 1;
                let tick = state.tick;
                state.entries.insert(
                    key,
                    Slot::Ready { plan: plan.clone(), last_used: tick, stored_at: Instant::now() },
                );
                self.evict_over_capacity(&mut state);
                drop(state);
                partition.ready.notify_all();
                Ok((plan, false))
            }
            Err(e) => {
                let mut state = Self::lock(&partition);
                // Remove only our own marker: a concurrent insert() may
                // have replaced it with a finished plan already.
                if matches!(state.entries.get(&key), Some(Slot::InFlight)) {
                    state.entries.remove(&key);
                }
                drop(state);
                partition.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Force a recomputation: invalidate `key` and compute it anew. If
    /// another thread is already computing the key, this coalesces into
    /// that computation instead (second result of `true`), preserving
    /// single-flight.
    ///
    /// # Errors
    ///
    /// As [`PlanCache::get_or_compute`].
    pub fn refresh<F>(&self, key: PlanKey, compute: F) -> Result<(Arc<BundlePlan>, bool)>
    where
        F: FnOnce() -> Result<BundlePlan>,
    {
        self.invalidate(&key);
        self.get_or_compute(key, compute)
    }

    /// Serve `key` like [`PlanCache::get_or_compute`], but on a miss try
    /// *incremental re-planning* against the cached plan of `prior` — a
    /// sibling key whose workload fingerprint differs — before paying
    /// for full planning.
    ///
    /// The `incremental` closure receives the prior plan and returns
    /// `Ok(Some(plan))` on success or `Ok(None)` on any divergence it
    /// detects (roster mismatch, unreconstructable prior usage), in
    /// which case — or when `prior` has no fresh cached plan at all —
    /// `full` runs instead ([`PlanCacheStats::incremental_fallbacks`]).
    /// Successful diffs are timed into [`PlanCacheStats::plan_diff_ns`].
    /// Single-flight, LRU, and TTL semantics are exactly those of
    /// [`PlanCache::get_or_compute`]; the incremental path only changes
    /// *how* the missing plan is computed, never what is cached.
    ///
    /// # Errors
    ///
    /// Whatever the closure that ran returns; the key stays uncached
    /// and retryable.
    pub fn refresh_incremental<I, F>(
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
                match incremental(&prior_plan)? {
                    Some(plan) => {
                        let diff_ns = started.elapsed().as_nanos() as u64;
                        self.incremental.fetch_add(1, Ordering::Relaxed);
                        self.plan_diff_ns.fetch_add(diff_ns, Ordering::Relaxed);
                        source.set(PlanSource::Incremental { plan_diff_ns: diff_ns });
                        return Ok(plan);
                    }
                    None => {
                        self.incremental_fallbacks.fetch_add(1, Ordering::Relaxed);
                    }
                }
            } else {
                self.incremental_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            full()
        })?;
        Ok((plan, if cached { PlanSource::Cached } else { source.get() }))
    }

    /// A fresh finished plan for `key`, without touching recency or the
    /// hit/miss counters — the prior-plan probe of
    /// [`PlanCache::refresh_incremental`], which must not skew the
    /// cache's observable behavior.
    fn peek(&self, key: &PlanKey) -> Option<Arc<BundlePlan>> {
        let partition = self.partition(key.framework);
        let state = Self::lock(&partition);
        match state.entries.get(key) {
            Some(Slot::Ready { plan, stored_at, .. }) if self.is_fresh(*stored_at) => {
                Some(plan.clone())
            }
            _ => None,
        }
    }

    /// The partition for `framework`, created on first use. The outer
    /// map lock is held only for this lookup, never while any entry is
    /// touched.
    fn partition(&self, framework: FrameworkKind) -> Arc<Partition> {
        self.partitions().entry(framework).or_default().clone()
    }

    fn partitions(&self) -> std::sync::MutexGuard<'_, HashMap<FrameworkKind, Arc<Partition>>> {
        self.partitions.lock().expect("plan cache partition map poisoned")
    }

    fn lock(partition: &Partition) -> std::sync::MutexGuard<'_, CacheState> {
        partition.state.lock().expect("plan cache poisoned")
    }

    fn is_fresh(&self, stored_at: Instant) -> bool {
        match self.ttl {
            None => true,
            Some(ttl) => stored_at.elapsed() <= ttl,
        }
    }

    fn ready_count(state: &CacheState) -> usize {
        state.entries.values().filter(|slot| matches!(slot, Slot::Ready { .. })).count()
    }

    /// Evict least-recently-used finished plans until the partition's
    /// bound holds. In-flight markers are never evicted and never
    /// count.
    fn evict_over_capacity(&self, state: &mut CacheState) {
        while Self::ready_count(state) > self.capacity {
            let victim = state
                .entries
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Ready { last_used, .. } => Some((*last_used, *key)),
                    Slot::InFlight => None,
                })
                .min_by_key(|&(last_used, _)| last_used)
                .map(|(_, key)| key)
                .expect("over capacity implies at least one ready entry");
            state.entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(PlanCache::DEFAULT_CAPACITY)
    }
}

/// The process-wide default [`PlanCache`] instance, shared by every
/// [`crate::Debloater`] not given an explicit cache.
pub fn process_cache() -> Arc<PlanCache> {
    static CACHE: OnceLock<Arc<PlanCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(PlanCache::default())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatbin::SmArch;
    use simcuda::LoadMode;
    use simml::{cached_bundle, ModelKind, Operation};

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
        let config = RunConfig::default();
        let w = workload();
        let mut lazy = workload();
        lazy.load_mode = LoadMode::Lazy;
        let mut train = workload();
        train.operation = Operation::Train;
        let key = |w: &Workload| {
            PlanKey::for_workloads(
                FrameworkKind::PyTorch,
                GpuModel::T4,
                &config,
                std::slice::from_ref(w),
            )
        };
        assert_eq!(key(&w), key(&workload()));
        assert_ne!(key(&w), key(&lazy));
        assert_ne!(key(&w), key(&train));
        assert_ne!(
            key(&w),
            PlanKey::for_workloads(FrameworkKind::PyTorch, GpuModel::H100, &config, &[workload()]),
        );
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
        let config = RunConfig::default();
        let w = [workload()];
        let single = PlanKey::for_workloads(FrameworkKind::PyTorch, GpuModel::T4, &config, &w);
        assert_eq!(
            single,
            PlanKey::for_fleet(
                FrameworkKind::PyTorch,
                FleetSpec::single(SmArch::SM75),
                &config,
                &w
            ),
            "for_workloads is the single-member fleet key"
        );
        let fleet = FleetSpec::new(&[SmArch::SM90, SmArch::SM75]).unwrap();
        let multi = PlanKey::for_fleet(FrameworkKind::PyTorch, fleet, &config, &w);
        assert_ne!(single, multi, "fleet membership is part of the identity");
        let reordered = FleetSpec::new(&[SmArch::SM75, SmArch::SM90]).unwrap();
        assert_eq!(
            multi,
            PlanKey::for_fleet(FrameworkKind::PyTorch, reordered, &config, &w),
            "member order never splits the cache"
        );
    }

    #[test]
    fn plan_keys_distinguish_run_configs() {
        let w = [workload()];
        let default = RunConfig::default();
        let mut more_samples = RunConfig::default();
        more_samples.sample_steps += 3;
        let mut rescaled = RunConfig::default();
        rescaled.byte_scale *= 2;
        let key =
            |c: &RunConfig| PlanKey::for_workloads(FrameworkKind::PyTorch, GpuModel::T4, c, &w);
        assert_eq!(key(&default), key(&RunConfig::default()));
        assert_ne!(key(&default), key(&more_samples), "sampling changes baselines");
        assert_ne!(key(&default), key(&rescaled), "byte scale changes every measurement");
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
        let serial = locate_all(bundle.libraries(), &usage, fleet, &Parallelism::Serial).unwrap();
        let pooled = locate_all(bundle.libraries(), &usage, fleet, &Parallelism::shared()).unwrap();
        assert_eq!(serial, pooled, "fan-out must not change any plan byte");
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let k = key(0xdead_beef_0001);
        let cache = process_cache();
        let before = cache.stats();
        assert!(cache.lookup(&k).is_none());
        let p = plan(1);
        cache.insert(k, p.clone());
        let found = cache.lookup(&k).expect("inserted plan must be found");
        assert!(Arc::ptr_eq(&found, &p));
        let after = cache.stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = PlanCache::new(3);
        for tag in 1..=3 {
            cache.insert(key(tag), plan(tag));
        }
        assert_eq!(cache.len(), 3);
        // Touch 1 and 2 so 3 becomes the LRU entry.
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_some());
        cache.insert(key(4), plan(4));
        assert_eq!(cache.len(), 3, "capacity bound holds");
        assert!(cache.lookup(&key(3)).is_none(), "the LRU entry was evicted");
        for tag in [1, 2, 4] {
            assert!(cache.lookup(&key(tag)).is_some(), "entry {tag} must survive");
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

    #[test]
    fn invalidate_then_refresh_recomputes() {
        let cache = PlanCache::new(4);
        let (first, _) = cache.get_or_compute(key(7), || Ok(plan(1).as_ref().clone())).unwrap();
        assert_eq!(first.usage_fingerprint, 1);

        assert!(cache.invalidate(&key(7)), "a cached plan is dropped");
        assert!(!cache.invalidate(&key(7)), "already gone");
        assert_eq!(cache.len(), 0);
        let (recomputed, cached) =
            cache.get_or_compute(key(7), || Ok(plan(2).as_ref().clone())).unwrap();
        assert!(!cached, "invalidation forces a recomputation");
        assert_eq!(recomputed.usage_fingerprint, 2, "the new plan replaces the old");

        // refresh = invalidate + recompute in one call.
        let (refreshed, cached) = cache.refresh(key(7), || Ok(plan(3).as_ref().clone())).unwrap();
        assert!(!cached);
        assert_eq!(refreshed.usage_fingerprint, 3);
        assert_eq!(cache.stats().detections, 3);
        assert_eq!(cache.len(), 1);
    }

    fn key_for(framework: FrameworkKind, tag: u64) -> PlanKey {
        PlanKey { framework, fleet: FleetSpec::single(SmArch::SM75), workloads: tag, config: 0 }
    }

    #[test]
    fn partitions_isolate_frameworks_and_their_capacity() {
        // Capacity 1 *per partition*: one PyTorch and one TensorFlow
        // plan coexist because they shard to different partitions.
        let cache = PlanCache::new(1);
        cache.insert(key_for(FrameworkKind::PyTorch, 1), plan(1));
        cache.insert(key_for(FrameworkKind::TensorFlow, 2), plan(2));
        assert_eq!(cache.len(), 2, "partitions are bounded independently");
        assert_eq!(cache.partition_count(), 2);
        assert_eq!(cache.partition_len(FrameworkKind::PyTorch), 1);
        assert_eq!(cache.partition_len(FrameworkKind::TensorFlow), 1);
        assert_eq!(cache.partition_len(FrameworkKind::Vllm), 0, "untouched framework is empty");
        assert_eq!(cache.stats().evictions, 0, "cross-framework inserts never evict each other");
        // Churn within one partition still evicts within it only.
        cache.insert(key_for(FrameworkKind::PyTorch, 3), plan(3));
        assert_eq!(cache.partition_len(FrameworkKind::PyTorch), 1);
        assert!(cache.lookup(&key_for(FrameworkKind::TensorFlow, 2)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn ttl_expires_plans_and_refreshes_on_next_request() {
        let ttl = Duration::from_millis(40);
        let cache = PlanCache::with_ttl(4, ttl);
        assert_eq!(cache.ttl(), Some(ttl));
        let (_, cached) = cache.get_or_compute(key(11), || Ok(plan(1).as_ref().clone())).unwrap();
        assert!(!cached);
        assert!(cache.lookup(&key(11)).is_some(), "fresh plan is served");

        std::thread::sleep(ttl + Duration::from_millis(25));
        // A stale plan is dropped by lookup and counted as expired.
        assert!(cache.lookup(&key(11)).is_none(), "expired plan must not be served");
        let stats = cache.stats();
        assert_eq!(stats.expired, 1);
        // Refresh-on-expiry through get_or_compute: recomputes, and the
        // refreshed plan is fresh again.
        let (refreshed, cached) =
            cache.get_or_compute(key(11), || Ok(plan(2).as_ref().clone())).unwrap();
        assert!(!cached, "an expired key recomputes");
        assert_eq!(refreshed.usage_fingerprint, 2);
        assert_eq!(cache.stats().detections, 2);
        assert!(cache.lookup(&key(11)).is_some());
    }

    #[test]
    fn get_or_compute_refreshes_a_stale_entry_in_place() {
        // Expiry observed by get_or_compute directly (no lookup first):
        // the stale Ready slot becomes this caller's in-flight marker.
        let cache = PlanCache::with_ttl(4, Duration::from_millis(30));
        cache.insert(key(5), plan(1));
        std::thread::sleep(Duration::from_millis(55));
        let (p, cached) = cache.get_or_compute(key(5), || Ok(plan(9).as_ref().clone())).unwrap();
        assert!(!cached);
        assert_eq!(p.usage_fingerprint, 9, "the refresh replaced the stale plan");
        let stats = cache.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.detections, 1);
    }

    #[test]
    fn untimed_caches_never_expire() {
        let cache = PlanCache::new(4);
        assert_eq!(cache.ttl(), None);
        cache.insert(key(3), plan(3));
        std::thread::sleep(Duration::from_millis(15));
        assert!(cache.lookup(&key(3)).is_some());
        assert_eq!(cache.stats().expired, 0);
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
        assert!(matches!(source, PlanSource::Incremental { .. }));
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
        assert!(cache.lookup(&key(2)).is_none(), "nothing cached on error");
        let (_, source) = cache
            .refresh_incremental(
                key(2),
                &key(1),
                |_| Ok(Some(plan(2).as_ref().clone())),
                || panic!("retry diffs again"),
            )
            .unwrap();
        assert!(matches!(source, PlanSource::Incremental { .. }));
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
