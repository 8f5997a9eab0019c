//! Acceptance tests of the opened-artifact view over a registry root:
//! publish → cold open round-trip fidelity, out-of-process-style
//! re-verification, the object-reuse rule on republish, and detection
//! of single-byte corruption and torn writes anywhere in the artifact.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use negativa_ml::codec::content_hash;
use negativa_ml::manifest::{RegistryRecord, REGISTRY_FILE};
use negativa_ml::store::StoreError;
use negativa_ml::{DebloatArtifact, Debloater, NegativaError, PlanCache, Registry};
use simcuda::GpuModel;
use simml::{FrameworkKind, ModelKind, Operation, RunConfig, Workload};

fn workloads() -> Vec<Workload> {
    vec![
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Train),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference),
    ]
}

/// One shared artifact for the whole test binary: the union debloat of
/// the two paper workloads, computed once (the process-wide plan cache
/// would dedupe the detection anyway).
fn artifact() -> &'static DebloatArtifact {
    static ARTIFACT: OnceLock<DebloatArtifact> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        Debloater::new(GpuModel::T4)
            .session(FrameworkKind::PyTorch)
            .debloat_many_artifact(&workloads())
            .expect("the paper workloads debloat and verify")
    })
}

/// A fresh registry root per test, cleaned of any previous run's
/// leftovers.
fn test_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("negativa-store-{}-{name}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    root
}

/// A registry at a fresh root holding the shared artifact.
fn published(name: &str) -> (PathBuf, Registry, RegistryRecord) {
    let root = test_root(name);
    let registry = Registry::at(&root);
    let record = registry.publish(artifact()).expect("publishing a verified artifact succeeds");
    (root, registry, record)
}

fn manifest_path(root: &Path, record: &RegistryRecord) -> PathBuf {
    root.join(format!("manifests/{}.json", record.artifact_id))
}

fn flip_middle_byte(path: &Path, mask: u8) {
    let mut bytes = fs::read(path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= mask;
    fs::write(path, &bytes).unwrap();
}

fn store_error(err: NegativaError) -> StoreError {
    match err {
        NegativaError::Store(e) => e,
        other => panic!("expected a store error, got {other}"),
    }
}

#[test]
fn publish_then_cold_open_round_trips_bytes_plan_and_identity() {
    let (root, registry, record) = published("round-trip");
    let artifact = artifact();
    assert_eq!(record.artifact_id, artifact.key.artifact_id());
    assert_eq!(record.objects.len(), artifact.libraries.len());

    // Cold open through a fresh handle: everything reconstructed from
    // disk is identical to the in-memory originals.
    let opened = Registry::at(&root).open(&record.artifact_id).expect("the artifact opens");
    assert_eq!(opened.plan_key(), artifact.key);
    let manifest = opened.manifest();
    assert_eq!(manifest.entries.len(), artifact.libraries.len());
    assert_eq!(manifest.workloads.len(), 2);
    assert_eq!(manifest.plan_hash, record.plan.hash);
    let loaded = opened.load_bundle().expect("every content hash checks out");
    assert_eq!(loaded, artifact.libraries, "stored bytes and manifests are byte-identical");
    let plan = opened.load_plan().expect("the plan decodes");
    assert_eq!(&plan, artifact.plan.as_ref(), "the plan survives field-for-field");

    // Re-verification replays every contributing workload against its
    // recorded baseline checksum.
    let verification = opened.verify().expect("the stored bundle re-verifies cold");
    assert_eq!(verification.workloads.len(), 2);
    assert!(verification.all_verified());
    for (record, verified) in manifest.workloads.iter().zip(&verification.workloads) {
        assert_eq!(verified.label, record.label);
        assert_eq!(verified.verified_checksum, record.baseline_checksum);
    }

    // Publishing the same identity again is idempotent, byte-stable
    // included: same manifest bytes, same objects.
    let before = fs::read(manifest_path(&root, &record)).unwrap();
    let again = registry.publish(artifact).expect("re-publishing the same identity is allowed");
    assert_eq!(fs::read(manifest_path(&root, &record)).unwrap(), before);
    assert_eq!(
        (again.manifest_hash, again.plan, &again.objects),
        (record.manifest_hash, record.plan, &record.objects)
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn reopened_plan_seeds_a_cache_with_zero_new_detections() {
    let (root, _, record) = published("cache-seed");

    // A cold consumer: fresh plan cache, nothing ever planned in it.
    let cache = Arc::new(PlanCache::new(8));
    let opened = Registry::at(&root).open(&record.artifact_id).unwrap();
    let installed = opened.install_plan(&cache).expect("the stored plan installs");
    assert_eq!(installed.as_ref(), artifact().plan.as_ref());
    assert_eq!(cache.len(), 1);

    let debloater = Debloater::new(GpuModel::T4).with_plan_cache(cache.clone());
    let artifact =
        debloater.session(FrameworkKind::PyTorch).debloat_many_artifact(&workloads()).unwrap();
    let (report, libraries) = (artifact.report, artifact.libraries);
    assert!(report.plan_cache_hit, "the seeded plan serves the debloat");
    assert!(report.all_verified());
    let stats = cache.stats();
    assert_eq!(stats.detections, 0, "a registry-seeded cache costs zero new detections");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.hits, 1);
    assert_eq!(
        libraries,
        Registry::at(&root).open(&record.artifact_id).unwrap().load_bundle().unwrap(),
        "the cache-hit debloat reproduces the stored bytes exactly"
    );
    fs::remove_dir_all(&root).ok();
}

/// The write side of the object-reuse rule, stat-pinned: republishing
/// over an existing identity performs zero object writes — both over an
/// intact root and over one whose manifest was lost, where every
/// hash-named object already present at its recorded length is reused.
#[test]
fn republishing_skips_objects_already_present() {
    let (root, registry, record) = published("republish-skip");
    let objects = record.referenced().count() as u64;
    let fresh = registry.stats();
    assert_eq!(fresh.objects_pooled, objects, "a fresh publish writes every object");
    assert_eq!(fresh.objects_deduped, 0);

    // Intact root: every object, the plan included, is a dedup hit.
    let republisher = Registry::at(&root);
    republisher.publish(artifact()).unwrap();
    let intact = republisher.stats();
    assert_eq!(intact.objects_pooled, 0, "an intact republish writes zero objects");
    assert_eq!(intact.objects_deduped, objects);

    // Torn manifest, intact objects: the republish rewrites the
    // manifest but reuses every object already present under its
    // content-hash name.
    fs::remove_file(manifest_path(&root, &record)).unwrap();
    let repaired = republisher.publish(artifact()).expect("republishing repairs the manifest");
    assert_eq!(repaired.manifest_hash, record.manifest_hash, "the manifest is byte-stable");
    let after = republisher.stats();
    assert_eq!(after.objects_pooled, 0, "objects were reused, not rewritten");
    assert_eq!(after.objects_deduped, 2 * objects);
    assert!(republisher.verify(&record.artifact_id).unwrap().all_verified());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupting_a_stored_library_is_a_hash_mismatch_naming_the_entry() {
    let (root, registry, record) = published("corrupt-object");
    let entry = registry.open(&record.artifact_id).unwrap().manifest().entries[0].clone();

    // Flip one byte in the middle of the first stored library.
    flip_middle_byte(&root.join(entry.object_path()), 0xff);

    let opened = registry.open(&record.artifact_id).unwrap();
    for err in [
        store_error(opened.load_bundle().unwrap_err()),
        store_error(registry.verify(&record.artifact_id).unwrap_err()),
    ] {
        match &err {
            StoreError::HashMismatch { entry: name, expected, actual } => {
                assert_eq!(*name, entry.soname, "the error names the corrupted library");
                assert_eq!(*expected, entry.content_hash);
                assert_ne!(actual, expected);
            }
            other => panic!("expected HashMismatch, got {other}"),
        }
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupting_the_manifest_is_detected_by_its_self_hash() {
    let (root, registry, record) = published("corrupt-manifest");
    let path = manifest_path(&root, &record);
    flip_middle_byte(&path, 0x01); // ASCII-safe flip: the file stays valid UTF-8

    // The index's recorded hash catches the flip first.
    let err = store_error(registry.open(&record.artifact_id).map(|_| ()).unwrap_err());
    assert!(
        matches!(&err, StoreError::HashMismatch { entry, .. } if entry.contains(&record.artifact_id)),
        "expected HashMismatch naming the manifest, got {err}"
    );

    // An index rewritten to agree with the corrupted bytes still cannot
    // smuggle them in: the manifest's embedded self-hash fails.
    let mut index = registry.index().unwrap();
    index.records[0].manifest_hash = content_hash(&fs::read(&path).unwrap());
    fs::write(root.join(REGISTRY_FILE), index.encode()).unwrap();
    let err = store_error(registry.open(&record.artifact_id).map(|_| ()).unwrap_err());
    assert!(
        matches!(&err, StoreError::CorruptManifest { path, .. }
            if path.contains(&format!("manifests/{}.json", record.artifact_id))),
        "expected CorruptManifest, got {err}"
    );
    let err = store_error(registry.verify(&record.artifact_id).unwrap_err());
    assert!(matches!(err, StoreError::CorruptManifest { .. }));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupting_the_stored_plan_is_a_hash_mismatch_naming_plan_json() {
    let (root, registry, record) = published("corrupt-plan");
    flip_middle_byte(&root.join(record.plan.object_path()), 0x01);

    let err = store_error(registry.open(&record.artifact_id).unwrap().load_plan().unwrap_err());
    assert!(
        matches!(&err, StoreError::HashMismatch { entry, .. } if entry == "plan.json"),
        "expected HashMismatch naming plan.json, got {err}"
    );
    // verify() checks plan integrity before running anything.
    let err = store_error(registry.verify(&record.artifact_id).unwrap_err());
    assert!(matches!(err, StoreError::HashMismatch { .. }));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn torn_publishes_are_detected_not_loaded() {
    let (root, registry, record) = published("torn-publish");
    let victim = registry.open(&record.artifact_id).unwrap().manifest().entries[1].clone();

    // Simulate a torn write that lost a pool object: the index and the
    // manifest survived, but a library's backing file is gone.
    fs::remove_file(root.join(victim.object_path())).unwrap();
    let err = store_error(registry.verify(&record.artifact_id).unwrap_err());
    match &err {
        StoreError::MissingEntry { entry, .. } => assert_eq!(*entry, victim.soname),
        other => panic!("expected MissingEntry, got {other}"),
    }

    // Republishing the same identity notices the hole (presence at the
    // recorded length decides every object) and rewrites only it.
    let repairer = Registry::at(&root);
    repairer.publish(artifact()).unwrap();
    assert_eq!(repairer.stats().objects_pooled, 1, "only the lost object is rewritten");
    assert!(registry.verify(&record.artifact_id).unwrap().all_verified());

    // Simulate the other half: the manifest file is gone while the
    // index still names the artifact. Opening reports exactly that, it
    // never guesses.
    fs::remove_file(manifest_path(&root, &record)).unwrap();
    let err = store_error(registry.open(&record.artifact_id).map(|_| ()).unwrap_err());
    assert!(matches!(err, StoreError::MissingManifest { .. }), "got {err}");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn verification_under_a_different_run_config_is_refused() {
    let (root, registry, record) = published("config-mismatch");

    let mut config = RunConfig::default();
    config.sample_steps += 1; // different fingerprint → incomparable baselines
    let opened = registry.open(&record.artifact_id).unwrap();
    let err = store_error(opened.verify_with_config(&config).unwrap_err());
    match err {
        StoreError::ConfigMismatch { stored, provided } => {
            assert_eq!(stored, artifact().key.config);
            assert_ne!(provided, stored);
        }
        other => panic!("expected ConfigMismatch, got {other}"),
    }
    fs::remove_dir_all(&root).ok();
}
