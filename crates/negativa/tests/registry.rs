//! Acceptance tests of the registry tier: cross-artifact object
//! pooling, want-list delta shipping, refcounting GC, cold-node
//! consumption out of the pool, and typed corruption detection.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use negativa_ml::manifest::{ObjectRef, RegistryRecord, OBJECTS_DIR, REGISTRY_FILE};
use negativa_ml::registry::Registry;
use negativa_ml::store::StoreError;
use negativa_ml::{DebloatArtifact, DebloatService, Debloater, NegativaError, PlanCache};
use simcuda::GpuModel;
use simml::{FrameworkKind, ModelKind, Operation, Workload};

fn small_workloads() -> Vec<Workload> {
    vec![Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference)]
}

fn big_workloads() -> Vec<Workload> {
    vec![
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::Transformer, Operation::Train),
    ]
}

/// Two same-fleet artifacts computed once for the whole test binary.
/// `big`'s usage is a superset of `small`'s, so every library whose
/// retain plan the extra workload does not touch compacts to
/// byte-identical output — the cross-artifact sharing the pool dedups.
fn artifacts() -> &'static (DebloatArtifact, DebloatArtifact) {
    static ARTIFACTS: OnceLock<(DebloatArtifact, DebloatArtifact)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let session = Debloater::new(GpuModel::T4).session(FrameworkKind::PyTorch);
        let small = session.debloat_many_artifact(&small_workloads()).expect("small debloats");
        let big = session.debloat_many_artifact(&big_workloads()).expect("big debloats");
        assert_ne!(small.key, big.key);
        (small, big)
    })
}

fn test_root(name: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("negativa-registry-{}-{name}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    root
}

fn store_error(err: NegativaError) -> StoreError {
    match err {
        NegativaError::Store(e) => e,
        other => panic!("expected a store error, got {other}"),
    }
}

fn hashes(record: &RegistryRecord) -> HashSet<u64> {
    record.referenced().map(|o| o.hash).collect()
}

fn referenced_bytes(record: &RegistryRecord, only: impl Fn(&ObjectRef) -> bool) -> u64 {
    let mut seen = HashSet::new();
    record.referenced().filter(|o| seen.insert(o.hash) && only(o)).map(|o| o.byte_len).sum()
}

/// *.bin files currently in a registry's pool.
fn pool_files(root: &Path) -> Vec<String> {
    match fs::read_dir(root.join(OBJECTS_DIR)) {
        Ok(entries) => entries
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".bin"))
            .collect(),
        Err(_) => Vec::new(),
    }
}

#[test]
fn two_artifacts_sharing_libraries_occupy_one_object_copy() {
    let root = test_root("dedup");
    let (small, big) = artifacts();
    let registry = Registry::at(&root);
    let record_small = registry.publish(small).unwrap();
    let record_big = registry.publish(big).unwrap();

    let shared: HashSet<u64> =
        hashes(&record_small).intersection(&hashes(&record_big)).copied().collect();
    assert!(
        !shared.is_empty(),
        "superset usage must leave at least one library byte-identical across the artifacts"
    );

    // Stat-pinned: publishing `big` wrote only the objects `small` had
    // not already pooled — the shared ones were dedup hits, never
    // rewritten.
    let stats = registry.stats();
    assert_eq!(stats.objects_deduped, shared.len() as u64);
    assert_eq!(
        stats.objects_pooled,
        (hashes(&record_small).len() + hashes(&record_big).len() - shared.len()) as u64
    );

    // The pool itself holds exactly one file per distinct hash — the
    // union, not the sum.
    let union: HashSet<u64> = hashes(&record_small).union(&hashes(&record_big)).copied().collect();
    assert_eq!(pool_files(&root).len(), union.len(), "one pool copy per distinct object");

    // Sharing is invisible to consumers: both artifacts still verify
    // cold out of the shared pool.
    assert!(registry.verify(&record_small.artifact_id).unwrap().all_verified());
    assert!(registry.verify(&record_big.artifact_id).unwrap().all_verified());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn delta_shipping_moves_only_the_objects_the_receiver_lacks() {
    let origin_root = test_root("delta-origin");
    let node_root = test_root("delta-node");
    let (small, big) = artifacts();
    let origin = Registry::at(&origin_root);
    let node = Registry::at(&node_root);
    let record_big = origin.publish(big).unwrap();
    let record_small = origin.publish(small).unwrap();

    // Cold first pull: everything moves — the full-ship cost.
    let full = node.pull(&origin, &record_big.artifact_id).unwrap();
    assert_eq!(full.objects_skipped, 0, "a cold pool wants everything");
    assert_eq!(full.bytes_shipped, referenced_bytes(&record_big, |_| true));
    assert!(node.verify(&record_big.artifact_id).unwrap().all_verified());

    // Second pull differs from the first by the workload change:
    // stat-pinned, exactly the objects outside the first pull's record
    // move, and everything shared rides the want-list skip.
    let shared = hashes(&record_big);
    let delta = node.pull(&origin, &record_small.artifact_id).unwrap();
    let fresh: HashSet<u64> = hashes(&record_small).difference(&shared).copied().collect();
    assert_eq!(delta.objects_shipped, fresh.len() as u64, "only the changed objects transfer");
    assert_eq!(delta.bytes_shipped, referenced_bytes(&record_small, |o| fresh.contains(&o.hash)));
    assert_eq!(delta.bytes_skipped, referenced_bytes(&record_small, |o| shared.contains(&o.hash)));
    assert!(delta.bytes_shipped < full.bytes_shipped, "the delta beats the full ship");
    assert!(delta.objects_skipped > 0, "the shared objects were never re-sent");

    // Idempotence: re-pushing an artifact the node already holds ships
    // zero objects.
    let nothing = origin.push(&node, &record_small.artifact_id).unwrap();
    assert_eq!(nothing.objects_shipped, 0);
    assert_eq!(nothing.bytes_shipped, 0);
    assert_eq!(nothing.full_bytes(), referenced_bytes(&record_small, |_| true));

    // The pulled artifacts are consumable exactly like local ones.
    assert!(node.verify(&record_small.artifact_id).unwrap().all_verified());
    let sender = origin.stats();
    assert_eq!(sender.bytes_shipped, full.bytes_shipped + delta.bytes_shipped);
    fs::remove_dir_all(&origin_root).ok();
    fs::remove_dir_all(&node_root).ok();
}

/// The GC refcount edge case: a TTL-expired plan whose objects are
/// still referenced by a live artifact must not lose those objects;
/// deleting the last referencing manifest reclaims them.
#[test]
fn expired_plans_keep_objects_a_live_artifact_still_references() {
    let root = test_root("gc-refcount");
    let (small, big) = artifacts();
    let registry = Registry::at(&root);
    let record_small = registry.publish(small).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let record_big = registry.publish(big).unwrap();

    let small_hashes = hashes(&record_small);
    let big_hashes = hashes(&record_big);
    let exclusive: HashSet<u64> = small_hashes.difference(&big_hashes).copied().collect();
    let shared: HashSet<u64> = small_hashes.intersection(&big_hashes).copied().collect();
    assert!(!exclusive.is_empty(), "the plans at least are artifact-exclusive");
    assert!(!shared.is_empty(), "the artifacts share objects");

    // Only `small` is older than the TTL. Expiring it reclaims exactly
    // its exclusive objects — every shared one survives because the
    // live `big` record still references it.
    let report = registry.expire(Duration::from_millis(150)).unwrap();
    assert_eq!(report.expired, vec![record_small.artifact_id.clone()]);
    assert_eq!(report.gc.objects_reclaimed, exclusive.len() as u64, "only exclusives reclaimed");
    assert_eq!(
        report.gc.bytes_reclaimed,
        referenced_bytes(&record_small, |o| exclusive.contains(&o.hash))
    );
    assert_eq!(report.gc.objects_live, big_hashes.len() as u64);
    assert_eq!(pool_files(&root).len(), big_hashes.len());

    // The survivor lost nothing: it still fully verifies, and the
    // expired artifact is now a typed miss.
    assert!(registry.verify(&record_big.artifact_id).unwrap().all_verified());
    let err = store_error(registry.open(&record_small.artifact_id).map(|_| ()).unwrap_err());
    assert!(matches!(err, StoreError::MissingArtifact { .. }), "got {err}");

    // Deleting the last referencing manifest reclaims the rest.
    let report = registry.remove(&record_big.artifact_id).unwrap();
    assert_eq!(report.objects_reclaimed, big_hashes.len() as u64);
    assert_eq!(report.objects_live, 0);
    assert!(pool_files(&root).is_empty(), "an empty index means an empty pool");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn republishing_refreshes_the_ttl() {
    let root = test_root("ttl-refresh");
    let (small, _) = artifacts();
    let registry = Registry::at(&root);
    registry.publish(small).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // The republish stamps a fresh timestamp, so the hot identity
    // survives a TTL that would have expired the original record.
    let record = registry.publish(small).unwrap();
    let report = registry.expire(Duration::from_millis(150)).unwrap();
    assert!(report.expired.is_empty(), "a refreshed record does not age out");
    assert!(registry.verify(&record.artifact_id).unwrap().all_verified());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_cold_node_seeds_its_plan_cache_from_a_pulled_artifact() {
    let origin_root = test_root("seed-origin");
    let node_root = test_root("seed-node");
    let (small, _) = artifacts();
    let origin = Registry::at(&origin_root);
    let record = origin.publish(small).unwrap();
    let node = Registry::at(&node_root);
    node.pull(&origin, &record.artifact_id).unwrap();

    // A cold consumer on the pulled side: fresh plan cache, nothing
    // ever planned in this "process".
    let cache = Arc::new(PlanCache::new(8));
    let opened = node.open(&record.artifact_id).unwrap();
    let installed = opened.install_plan(&cache).expect("the pooled plan installs");
    assert_eq!(installed.as_ref(), small.plan.as_ref());

    let debloater = Debloater::new(GpuModel::T4).with_plan_cache(cache.clone());
    let artifact = debloater
        .session(FrameworkKind::PyTorch)
        .debloat_many_artifact(&small_workloads())
        .unwrap();
    let (report, libraries) = (artifact.report, artifact.libraries);
    assert!(report.plan_cache_hit, "the pulled plan serves the debloat");
    assert!(report.all_verified());
    let stats = cache.stats();
    assert_eq!(stats.detections, 0, "a registry-seeded cache costs zero new detections");
    assert_eq!(stats.hits, 1);
    assert_eq!(
        libraries,
        opened.load_bundle().unwrap(),
        "the cache-hit debloat reproduces the pooled bytes exactly"
    );
    fs::remove_dir_all(&origin_root).ok();
    fs::remove_dir_all(&node_root).ok();
}

#[test]
fn corruption_and_misses_are_typed_errors() {
    let root = test_root("corruption");
    let (small, _) = artifacts();
    let registry = Registry::at(&root);
    let record = registry.publish(small).unwrap();

    // An id the index does not hold.
    let err = store_error(registry.open("torch-sm75-ffffffffffffffff-0").map(|_| ()).unwrap_err());
    match &err {
        StoreError::MissingArtifact { artifact_id, registry: at } => {
            assert_eq!(artifact_id, "torch-sm75-ffffffffffffffff-0");
            assert!(at.contains("negativa-registry"), "{at}");
        }
        other => panic!("expected MissingArtifact, got {other}"),
    }

    // A flipped byte in the index fails its self-hash: every entry
    // point that reads the index reports CorruptIndex.
    let path = root.join(REGISTRY_FILE);
    let pristine = fs::read(&path).unwrap();
    let mut bytes = pristine.clone();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01; // ASCII-safe flip: the file stays valid UTF-8
    fs::write(&path, &bytes).unwrap();
    let err = store_error(registry.open(&record.artifact_id).map(|_| ()).unwrap_err());
    assert!(
        matches!(&err, StoreError::CorruptIndex { path, .. } if path.contains("REGISTRY.json")),
        "expected CorruptIndex, got {err}"
    );
    assert!(registry.artifacts().is_err());
    assert!(registry.gc().is_err(), "GC refuses to sweep against a corrupt index");

    // A manifest that drifted from the index's recorded hash is caught
    // before the artifact is opened.
    fs::write(&path, &pristine).unwrap();
    let manifest_path = root.join(format!("manifests/{}.json", record.artifact_id));
    let mut manifest = fs::read(&manifest_path).unwrap();
    let at = manifest.len() / 2;
    manifest[at] ^= 0x01;
    fs::write(&manifest_path, &manifest).unwrap();
    let err = store_error(registry.open(&record.artifact_id).map(|_| ()).unwrap_err());
    match &err {
        StoreError::HashMismatch { entry, expected, actual } => {
            assert!(entry.contains(&record.artifact_id), "{entry}");
            assert_eq!(*expected, record.manifest_hash);
            assert_ne!(actual, expected);
        }
        other => panic!("expected HashMismatch, got {other}"),
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_corrupted_pool_object_fails_its_hash_on_load() {
    let root = test_root("corrupt-object");
    let (small, _) = artifacts();
    let registry = Registry::at(&root);
    let record = registry.publish(small).unwrap();

    let object = &record.objects[0];
    let path = root.join(object.object_path());
    let mut bytes = fs::read(&path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0xff;
    fs::write(&path, &bytes).unwrap();

    let err = store_error(registry.open(&record.artifact_id).unwrap().load_bundle().unwrap_err());
    match &err {
        StoreError::HashMismatch { expected, actual, .. } => {
            assert_eq!(*expected, object.hash);
            assert_ne!(actual, expected);
        }
        other => panic!("expected HashMismatch, got {other}"),
    }
    // Shipping refuses to forward the corrupted bytes, too.
    let other_root = test_root("corrupt-object-dest");
    let err =
        store_error(registry.push(&Registry::at(&other_root), &record.artifact_id).unwrap_err());
    assert!(matches!(err, StoreError::HashMismatch { .. }), "got {err}");
    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&other_root).ok();
}

#[test]
fn a_served_response_equals_its_published_and_reloaded_artifact() {
    let service = DebloatService::builder(GpuModel::T4).service_workers(1).build();
    let response = service.handle().request(small_workloads()).expect("the service answers");
    assert!(response.report.all_verified());
    service.shutdown();

    // Publishing the same set explicitly yields one registry record; it
    // verifies cold and reloads the same bytes the service answered
    // with, under the same per-library and per-workload report.
    let root = test_root("service");
    let registry = Registry::at(&root);
    let (small, _) = artifacts();
    let record = registry.publish(small).unwrap();
    assert_eq!(registry.artifacts().unwrap().len(), 1, "one plan identity was published");
    assert!(registry.verify(&record.artifact_id).unwrap().all_verified());
    assert_eq!(
        *response.libraries,
        registry.open(&record.artifact_id).unwrap().load_bundle().unwrap()
    );
    assert_eq!(response.report.libraries, small.report.libraries);
    assert_eq!(response.report.workloads, small.report.workloads);
    fs::remove_dir_all(&root).ok();
}
