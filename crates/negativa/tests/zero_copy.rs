//! The zero-copy hot path, end to end: a batched burst of same-identity
//! service requests costs O(1) full-image copies (copy-on-write fan-out),
//! incremental re-planning produces the exact plan a from-scratch run
//! would (even across library-roster drift), pooled bundle generation
//! and pooled deduplicated verification are byte-identical to serial,
//! and an opened artifact reads each unique content hash once.

use std::sync::Arc;
use std::time::{Duration, Instant};

use negativa_ml::plan::{self, BundlePlan};
use negativa_ml::{DebloatService, Debloater, NegativaError, PlanCache, Registry, WorkerPool};
use simcuda::GpuModel;
use simml::{FrameworkBundle, FrameworkKind, ModelKind, Operation, Workload};

fn mobilenet() -> Workload {
    Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference)
}

fn transformer() -> Workload {
    Workload::paper(FrameworkKind::PyTorch, ModelKind::Transformer, Operation::Inference)
}

/// The plan of a verified PyTorch debloat of `workloads` on a throwaway
/// debloater, so the caller's own pool and memos stay untouched.
fn plan_of(workloads: &[Workload]) -> Arc<BundlePlan> {
    Debloater::new(GpuModel::T4)
        .session(FrameworkKind::PyTorch)
        .debloat_many_artifact(workloads)
        .expect("the debloat verifies")
        .plan
}

#[test]
fn a_grouped_burst_of_identical_sets_costs_one_image_copy() {
    let service = DebloatService::builder(GpuModel::T4)
        .service_workers(1)
        .pool(WorkerPool::new(2))
        .cache_capacity(4)
        .build();
    let handle = service.handle();
    // Plug the single executor with another framework's set so the
    // burst below queues up and runs as one group.
    let plug = vec![Workload::paper(
        FrameworkKind::TensorFlow,
        ModelKind::MobileNetV2,
        Operation::Inference,
    )];
    let plug_ticket = handle.submit(plug).unwrap();
    let start = Instant::now();
    loop {
        let stats = service.stats();
        if stats.executing == 1 && stats.queue_depth == 0 {
            break;
        }
        assert!(start.elapsed() < Duration::from_secs(30), "the plug never occupied the executor");
        std::thread::sleep(Duration::from_millis(1));
    }
    let tickets: Vec<_> = (0..4).map(|_| handle.submit(vec![mobilenet()]).unwrap()).collect();
    let plug_report = plug_ticket.wait().expect("plug answered").report;
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait().expect("burst verifies")).collect();
    let service_stats = service.stats();
    service.shutdown();

    // Every member of the group receives byte-identical output, stamped
    // with the group's provenance.
    let first = &results[0];
    assert!(first.report.batched);
    assert_eq!(first.report.batch_size, 4);
    for member in &results[1..] {
        assert_eq!(member.report, first.report);
        assert_eq!(member.libraries, first.libraries);
    }

    // Byte-identical via *sharing*, not copying: every member holds the
    // one compacted library set behind the batch's `Arc`, and its
    // images are refcount bumps on that set.
    for member in &results[1..] {
        assert!(Arc::ptr_eq(&member.libraries, &first.libraries));
        for (mine, theirs) in member.libraries.iter().zip(first.libraries.iter()) {
            assert!(
                mine.image.shares_bytes_with(&theirs.image),
                "{}: members must share one image allocation",
                mine.manifest.soname
            );
        }
    }

    // The service's byte ledger confirms O(1) copies: past the plug's
    // own compaction, the burst copied exactly what one compaction
    // copies, never once per member, and that one pass accounts every
    // library exactly once (copied or shared).
    let burst_copied = service_stats.bytes_copied - plug_report.bytes_copied;
    assert!(burst_copied > 0, "an effective plan detaches at least one image");
    assert_eq!(
        burst_copied, first.report.bytes_copied,
        "a burst of 4 same-identity sets pays for one compaction, not four"
    );
    let total: u64 = first.libraries.iter().map(|lib| lib.image.len()).sum();
    assert_eq!(first.report.bytes_copied + first.report.bytes_shared, total);
}

#[test]
fn incremental_replanning_equals_full_planning() {
    // Debloater A plans [w1], then grows the set to [w1, w2]: the
    // second plan goes through the incremental path (diff the cached
    // usage union, re-locate only touched symbols).
    let cache_a = Arc::new(PlanCache::new(4));
    let a = Debloater::new(GpuModel::T4).with_plan_cache(cache_a.clone());
    let session_a = a.session(FrameworkKind::PyTorch);
    let seed = session_a.debloat_many_artifact(&[mobilenet()]).expect("seed debloat");
    assert!(!seed.report.plan_cache_hit);
    let grown =
        session_a.debloat_many_artifact(&[mobilenet(), transformer()]).expect("grown debloat");
    assert!(!grown.report.plan_cache_hit, "a new key is never a cache hit");
    let stats = cache_a.stats();
    assert_eq!(stats.incremental, 1, "the grown key re-plans incrementally");
    assert_eq!(stats.incremental_fallbacks, 0, "no divergence on this path");
    assert_ne!(*grown.plan, *seed.plan, "the added workload changes the plan");

    // Debloater B plans [w1, w2] from scratch on a fresh cache. The
    // incremental result must be indistinguishable from it.
    let cache_b = Arc::new(PlanCache::new(4));
    let b = Debloater::new(GpuModel::T4).with_plan_cache(cache_b.clone());
    let full = b
        .session(FrameworkKind::PyTorch)
        .debloat_many_artifact(&[mobilenet(), transformer()])
        .expect("cold debloat");
    assert_eq!(cache_b.stats().incremental, 0, "the fresh cache planned from scratch");
    assert_eq!(*grown.plan, *full.plan, "incremental re-planning must equal full planning");

    // And the debloat built on the incremental plan verifies clean.
    assert!(grown.report.all_verified());
}

/// The report of a debloat planned incrementally equals the report of
/// the same set planned cold: how a plan was computed is host-side
/// provenance, and reports carry only deterministic fields.
#[test]
fn incremental_and_cold_debloats_report_identically() {
    let cache_a = Arc::new(PlanCache::new(4));
    let a = Debloater::new(GpuModel::T4).with_plan_cache(cache_a.clone());
    a.debloat_many(&[mobilenet()]).expect("seed debloat");
    let grown = a.debloat_many(&[mobilenet(), transformer()]).expect("grown debloat");
    assert_eq!(cache_a.stats().incremental, 1, "A re-planned incrementally");

    let cache_c = Arc::new(PlanCache::new(4));
    let c = Debloater::new(GpuModel::T4).with_plan_cache(cache_c.clone());
    let cold = c.debloat_many(&[mobilenet(), transformer()]).expect("cold debloat");
    assert_eq!(cache_c.stats().incremental, 0, "C planned from scratch");
    assert_eq!(grown, cold, "the planning path must be invisible in the report");
}

/// Roster drift through the incremental planner: a prior plan computed
/// over a *smaller* library roster still re-plans incrementally when
/// the bundle grows — the added library locates from scratch, the rest
/// ride the prior plan — and the result equals full planning. Same in
/// the shrink direction: dropped libraries just fall out.
#[test]
fn roster_drift_replans_incrementally_and_equals_full() {
    let debloater = Debloater::new(GpuModel::T4).with_plan_cache(Arc::new(PlanCache::new(4)));
    let session = debloater.session(FrameworkKind::PyTorch);
    let old_detection = session.detect(&[mobilenet()]).expect("seed detection");
    let new_detection = session.detect(&[mobilenet(), transformer()]).expect("grown detection");
    let libraries = session.bundle().libraries();
    let arch = negativa_ml::FleetSpec::single(GpuModel::T4.arch());
    let serial = WorkerPool::new(1);

    // The prior plan knows one library fewer than the bundle now holds
    // — as if the roster grew since it was computed.
    let truncated = &libraries[..libraries.len() - 1];
    let prior = BundlePlan {
        framework: FrameworkKind::PyTorch,
        gpu: GpuModel::T4,
        usage_fingerprint: old_detection.usage.fingerprint(),
        retain: plan::locate_all(truncated, &old_detection.usage, arch, &serial).unwrap(),
        baselines: old_detection.baselines.clone(),
        used_kernels: old_detection.usage.kernel_count(),
        used_host_fns: old_detection.usage.host_fn_count(),
    };
    let grown = plan::locate_all_incremental(
        libraries,
        &prior,
        &old_detection.usage,
        &new_detection.usage,
        arch,
        &serial,
    )
    .expect("roster growth stays on the incremental path");
    let full = plan::locate_all(libraries, &new_detection.usage, arch, &serial).unwrap();
    assert_eq!(grown, full, "incremental planning across roster growth must equal full");

    // Shrink: the prior plan covers the full roster, the bundle now
    // holds one library fewer.
    let prior_full = BundlePlan { retain: full, ..prior };
    let shrunk = plan::locate_all_incremental(
        truncated,
        &prior_full,
        &old_detection.usage,
        &new_detection.usage,
        arch,
        &serial,
    )
    .expect("roster shrinkage stays on the incremental path");
    assert_eq!(shrunk, plan::locate_all(truncated, &new_detection.usage, arch, &serial).unwrap());
}

/// Pooled, deduplicated verification is invisible in the results: same
/// outcomes, same order, and the same first error as the serial path,
/// even with duplicate workloads in the set.
#[test]
fn pooled_verification_is_byte_identical_to_serial() {
    // Duplicates on purpose: indexes 0/2 and 1/3 share fingerprints.
    let workloads = vec![mobilenet(), transformer(), mobilenet(), transformer(), mobilenet()];
    let serial_session = Debloater::new(GpuModel::T4)
        .with_pool(WorkerPool::new(1))
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .session(FrameworkKind::PyTorch);
    let pool = WorkerPool::new(4);
    let pooled_session = Debloater::new(GpuModel::T4)
        .with_pool(pool.clone())
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .session(FrameworkKind::PyTorch);

    let plan = plan_of(&workloads);
    let (_, debloated) = serial_session.apply(&plan).expect("apply");
    let normalized: Vec<Workload> =
        workloads.iter().map(|w| serial_session.normalize(w).unwrap()).collect();

    let serial = serial_session.verify_all(&normalized, &plan, &debloated).expect("serial verify");
    let pooled = pooled_session.verify_all(&normalized, &plan, &debloated).expect("pooled verify");
    assert_eq!(serial, pooled, "pooling and dedup must be invisible in the outcomes");
    assert_eq!(serial.len(), workloads.len(), "every workload gets its outcome, in input order");
    assert_eq!(serial[0], serial[2], "duplicates share one re-execution's outcome");
    let stats = pool.stats();
    assert_eq!(stats.verify_runs, 2, "five workloads, two unique fingerprints");
    assert_eq!(stats.verify_deduped, 3);

    // First-error semantics: corrupt the second unique workload's
    // baseline and both paths must fail identically, naming it.
    let mut corrupted = (*plan).clone();
    corrupted.baselines[1].checksum ^= 1;
    corrupted.baselines[3].checksum ^= 1;
    let serial_err = serial_session.verify_all(&normalized, &corrupted, &debloated).unwrap_err();
    let pooled_err = pooled_session.verify_all(&normalized, &corrupted, &debloated).unwrap_err();
    assert_eq!(serial_err.to_string(), pooled_err.to_string());
    assert!(
        matches!(serial_err, NegativaError::ChecksumMismatch { .. }),
        "a corrupted baseline fails as a checksum mismatch: {serial_err}"
    );
}

/// Cross-pair verification memoization, the last in-process duplicate
/// run: identical (workload, config, bundle content) pairs verify once
/// per debloater — across `verify_all` passes and across sessions —
/// with byte-identical outcomes, while different bundle bytes or a
/// different expected baseline always fall through to a real run.
#[test]
fn verification_memo_spans_passes_and_stays_byte_identical() {
    let workloads = vec![mobilenet(), transformer(), mobilenet(), transformer(), mobilenet()];
    let pool = WorkerPool::new(4);
    let debloater = Debloater::new(GpuModel::T4)
        .with_pool(pool.clone())
        .with_plan_cache(Arc::new(PlanCache::new(4)));
    let session = debloater.session(FrameworkKind::PyTorch);
    let plan = plan_of(&workloads);
    let (_, debloated) = session.apply(&plan).expect("apply");
    let normalized: Vec<Workload> =
        workloads.iter().map(|w| session.normalize(w).unwrap()).collect();

    let first = session.verify_all(&normalized, &plan, &debloated).expect("first pass");
    let stats = pool.stats();
    assert_eq!(stats.verify_runs, 2, "five workloads, two unique fingerprints");
    assert_eq!(stats.verify_deduped, 3);

    // A second pass over byte-identical libraries re-runs nothing:
    // every unique pair is served from the cross-pass memo, and the
    // outcomes are indistinguishable from the first pass's.
    let second = session.verify_all(&normalized, &plan, &debloated).expect("second pass");
    assert_eq!(second, first, "memoization must be invisible in the outcomes");
    let stats = pool.stats();
    assert_eq!(stats.verify_runs, 2, "the memoized pass re-ran nothing");
    assert_eq!(stats.verify_deduped, 3 + 5, "all five workloads rode the memo");

    // The memo belongs to the debloater, not one session: a sibling
    // session serves the same pairs without a run either.
    let sibling = debloater.session(FrameworkKind::PyTorch);
    let third = sibling.verify_all(&normalized, &plan, &debloated).expect("sibling pass");
    assert_eq!(third, first);
    assert_eq!(pool.stats().verify_runs, 2);

    // Different bundle *content* is never served from the memo: the
    // same workload against differently compacted bytes re-runs.
    let small_plan = plan_of(&workloads[..1]);
    let (_, small_bundle) = session.apply(&small_plan).expect("small apply");
    session
        .verify_all(&normalized[..1], &small_plan, &small_bundle)
        .expect("the small bundle verifies");
    assert_eq!(pool.stats().verify_runs, 3, "new bundle bytes cost a real run");

    // A memo hit never masks a changed expectation: flipping the
    // expected baseline checksum falls through to a real run that
    // fails exactly as an unmemoized debloater does.
    let mut corrupted = (*plan).clone();
    corrupted.baselines[0].checksum ^= 1;
    let memo_err = session.verify_all(&normalized, &corrupted, &debloated).unwrap_err();
    let cold_session = Debloater::new(GpuModel::T4)
        .with_pool(WorkerPool::new(1))
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .session(FrameworkKind::PyTorch);
    let cold_err = cold_session.verify_all(&normalized, &corrupted, &debloated).unwrap_err();
    assert_eq!(memo_err.to_string(), cold_err.to_string());
    assert!(
        matches!(memo_err, NegativaError::ChecksumMismatch { .. }),
        "a corrupted expectation fails as a checksum mismatch: {memo_err}"
    );
}

/// The read side of the object-reuse rule: each unique content hash is
/// read once per opened artifact, and every image handed out for that
/// hash — within one load and across repeat loads — shares the one
/// buffer.
#[test]
fn reopened_store_bundles_share_bytes_per_content_hash() {
    let root = std::env::temp_dir().join(format!("negativa-zc-store-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let artifact = Debloater::new(GpuModel::T4)
        .session(FrameworkKind::PyTorch)
        .debloat_many_artifact(&[mobilenet()])
        .expect("the debloat verifies");
    assert!(artifact.report.all_verified());
    let record = Registry::at(&root).publish(&artifact).expect("publish");

    let opened = Registry::at(&root).open(&record.artifact_id).expect("reopen");
    let entries = &opened.manifest().entries;
    let first = opened.load_bundle().expect("first load");
    let second = opened.load_bundle().expect("second load");
    assert_eq!(first, artifact.libraries, "the shared buffers hold the published bytes");
    for (i, a) in first.iter().enumerate() {
        assert!(
            a.image.shares_bytes_with(&second[i].image),
            "{}: images of one content hash must share one buffer across loads",
            a.manifest.soname
        );
        for (j, b) in first.iter().enumerate().skip(i + 1) {
            assert_eq!(
                a.image.shares_bytes_with(&b.image),
                entries[i].content_hash == entries[j].content_hash,
                "{} / {}: within one load, exactly the repeats of a hash share a buffer",
                a.manifest.soname,
                b.manifest.soname
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn pooled_bundle_generation_is_byte_identical_to_serial() {
    // Fan library generation out across a real worker pool and
    // reassemble: the bundle must equal the serial generator's output,
    // library for library, byte for byte.
    let pool = WorkerPool::new(3);
    let specs = FrameworkKind::TensorFlow.lib_specs();
    let libraries = pool
        .run(&specs, |_, spec| simml::generate_library(spec).map_err(NegativaError::from))
        .expect("pooled generation succeeds");
    let rebuilt = FrameworkBundle::from_libraries(FrameworkKind::TensorFlow, libraries)
        .expect("reassembly validates against the specs");
    assert_eq!(rebuilt, FrameworkBundle::generate(FrameworkKind::TensorFlow).unwrap());
}

#[test]
fn pooled_and_serial_debloats_report_identically() {
    let serial = Debloater::new(GpuModel::T4)
        .with_pool(WorkerPool::new(1))
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .debloat_many(&[mobilenet()])
        .expect("serial debloat verifies");
    let pooled = Debloater::new(GpuModel::T4)
        .with_pool(WorkerPool::new(4))
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .debloat_many(&[mobilenet()])
        .expect("pooled debloat verifies");
    // Every field is deterministic (virtual clock, content-derived
    // bytes), so parallelism must be invisible in the report.
    assert_eq!(serial, pooled);
}
