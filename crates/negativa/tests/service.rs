//! Integration tests of the serve-at-scale layer: a bounded batch
//! queue with typed load shedding and blocking backpressure,
//! plan-identity batching (one union debloat per group, byte-identical
//! to the unbatched path), the per-framework LRU plan cache behind it,
//! and the bounded `WorkerPool` shared across batches.

use std::sync::Arc;
use std::time::{Duration, Instant};

use negativa_ml::service::{DebloatResponse, DebloatService, ServiceError};
use negativa_ml::{Debloater, MultiDebloatReport, NegativaError, WorkerPool};
use simcuda::GpuModel;
use simml::{FrameworkKind, GeneratedLibrary, ModelKind, Operation, Workload};

fn workload(framework: FrameworkKind, operation: Operation) -> Workload {
    Workload::paper(framework, ModelKind::MobileNetV2, operation)
}

/// Ground truth for a served set: the direct, unqueued debloat on the
/// process-wide cache and pool (so a service's private ones stay clean
/// for accounting assertions).
fn direct(set: &[Workload]) -> (MultiDebloatReport, Vec<GeneratedLibrary>) {
    let artifact = Debloater::new(GpuModel::T4)
        .session(set[0].framework)
        .debloat_many_artifact(set)
        .expect("direct verifies");
    (artifact.report, artifact.libraries)
}

/// Occupy the service's single executor with `set` — a plan identity
/// none of the requests submitted next shares — and wait until it
/// executes, so those requests accumulate in the queue instead of
/// trickling out one at a time.
fn plug(service: &DebloatService, set: Vec<Workload>) -> negativa_ml::service::Ticket {
    let ticket = service.handle().submit(set).unwrap();
    wait_until("the plug to occupy the executor", || {
        let stats = service.stats();
        stats.executing == 1 && stats.queue_depth == 0
    });
    ticket
}

/// Spin until `ready` holds (1 ms granularity, 30 s guard).
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(start.elapsed() < Duration::from_secs(30), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The ISSUE's acceptance scenario: a same-framework burst of 8
/// concurrent requests costs exactly one detection and one compaction
/// for the whole group, and every per-request response is verified and
/// byte-identical to the unbatched path.
#[test]
fn same_framework_burst_shares_one_detection_and_one_compaction() {
    const BURST: usize = 8;
    // Generate both bundles up front: a cold bundle cache is filled
    // through the service's private pool, one more fan-out than the
    // debloats below account for, so run alone this test would count 7.
    simml::cached_bundle(FrameworkKind::TensorFlow);
    simml::cached_bundle(FrameworkKind::PyTorch);
    let pool = WorkerPool::new(3);
    let service = DebloatService::builder(GpuModel::T4)
        .service_workers(1)
        .queue_capacity(32)
        .pool(pool.clone())
        .cache_capacity(4)
        .build();
    let handle = service.handle();

    let plug_ticket = plug(
        &service,
        vec![
            workload(FrameworkKind::TensorFlow, Operation::Train),
            workload(FrameworkKind::TensorFlow, Operation::Inference),
        ],
    );

    // The burst: 8 concurrent same-identity requests, all admitted
    // while the executor is busy.
    let set = vec![workload(FrameworkKind::PyTorch, Operation::Train)];
    let tickets: Vec<_> =
        (0..BURST).map(|_| handle.submit(set.clone()).expect("queue has room")).collect();

    let (direct_report, direct_libs) = direct(&set);

    assert!(plug_ticket.wait().expect("plug answered").report.all_verified());
    for ticket in tickets {
        let DebloatResponse { report, libraries } = ticket.wait().expect("burst answered");
        // Verified, and stamped with the batch provenance.
        assert!(report.all_verified());
        assert!(report.batched, "the burst must execute as one batch");
        assert_eq!(report.batch_size, BURST);
        // Byte-identical to individual `debloat_many` calls: same
        // per-library reports, same per-workload metrics and checksums,
        // and the compacted images match byte for byte.
        assert_eq!(report.libraries, direct_report.libraries);
        assert_eq!(report.workloads, direct_report.workloads);
        assert_eq!(report.used_kernels, direct_report.used_kernels);
        assert_eq!(report.used_host_fns, direct_report.used_host_fns);
        assert_eq!(libraries.len(), direct_libs.len());
        for (served, expected) in libraries.iter().zip(&direct_libs) {
            assert_eq!(served.manifest.soname, expected.manifest.soname);
            assert_eq!(
                served.image.bytes(),
                expected.image.bytes(),
                "{} diverged from the direct debloat",
                served.manifest.soname
            );
        }
    }

    // Exactly one detection per executed group (plug + burst), and
    // exactly one locate + compact + verify fan-out per group: the
    // burst of 8 cost one detection, one compaction, and one
    // verification pass, not 8.
    let cache_stats = service.plan_cache().stats();
    assert_eq!(cache_stats.detections, 2, "plug + burst = two unique plan identities");
    assert_eq!(cache_stats.misses, 2);
    let pool_stats = pool.stats();
    assert_eq!(pool_stats.fan_outs, 6, "2 executed union debloats x (locate + compact + verify)");
    assert_eq!(
        pool_stats.verify_runs, 3,
        "2 plug workloads + 1 burst workload, each verified exactly once"
    );
    assert_eq!(pool_stats.verify_deduped, 0, "no duplicate workloads inside either set");
    assert!(pool_stats.peak_active <= 3, "pool bound held: {pool_stats:?}");

    let stats = service.stats();
    assert_eq!(stats.accepted, (BURST + 1) as u64);
    assert_eq!(stats.completed, (BURST + 1) as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.batches, 2, "plug batch + one burst batch");
    assert_eq!(stats.batched_requests, (BURST + 1) as u64);
    assert!((stats.mean_batch_size() - 4.5).abs() < 1e-9, "{}", stats.mean_batch_size());
    // Copy-on-write fan-out: each batch's compaction copies at most one
    // bundle, while every requester's response shares the compacted
    // images, so the shared bytes outgrow the copied ones.
    assert!(stats.bytes_copied > 0, "a union debloat pays its O(1) image copies");
    assert!(
        stats.bytes_shared > stats.bytes_copied,
        "fan-out must be dominated by shared handles, not copies (shared {} vs copied {})",
        stats.bytes_shared,
        stats.bytes_copied
    );
    service.shutdown();
}

/// The queue groups by full plan identity: queued duplicates of one
/// set share one execution stamped with their provenance and
/// byte-identical to a direct debloat, while distinct sets — a single
/// workload and a union containing it alike — each run on their own.
#[test]
fn a_batch_serves_each_plan_identity_once() {
    let train = workload(FrameworkKind::PyTorch, Operation::Train);
    let infer = workload(FrameworkKind::PyTorch, Operation::Inference);
    // The service's private cache keeps the detection count below exact.
    let service =
        DebloatService::builder(GpuModel::T4).service_workers(1).cache_capacity(8).build();
    let plug_ticket =
        plug(&service, vec![workload(FrameworkKind::TensorFlow, Operation::Inference)]);
    let sets = [
        vec![train.clone()],
        vec![infer.clone()],
        vec![train.clone()],                // same plan identity as set 0
        vec![train.clone(), infer.clone()], // a distinct union identity
    ];
    let handle = service.handle();
    let tickets: Vec<_> = sets.iter().map(|set| handle.submit(set.clone()).unwrap()).collect();
    assert!(plug_ticket.wait().expect("plug answered").report.all_verified());
    let served: Vec<DebloatResponse> =
        tickets.into_iter().map(|t| t.wait().expect("request answered")).collect();
    assert_eq!(
        service.plan_cache().stats().detections,
        4,
        "the plug plus one per unique plan identity"
    );

    // Duplicates share one execution, stamped with their provenance...
    let (r0, r2) = (&served[0], &served[2]);
    assert!(r0.report.batched && r2.report.batched, "queued duplicates are marked batched");
    assert_eq!(r0.report.batch_size, 2);
    assert_eq!(r0.report, r2.report);
    assert!(Arc::ptr_eq(&r0.libraries, &r2.libraries), "one library set behind one Arc");
    // ...and are byte-identical to a direct debloat of the set:
    // grouping by full plan identity is pure amortization.
    let (direct_report, direct_libs) = direct(&sets[0]);
    assert_eq!(r0.report.libraries, direct_report.libraries);
    assert_eq!(r0.report.workloads, direct_report.workloads);
    for (a, b) in r0.libraries.iter().zip(&direct_libs) {
        assert_eq!(a.image.bytes(), b.image.bytes(), "{} diverged", a.manifest.soname);
    }

    // Singleton groups are unbatched; the union set stays its own group.
    assert!(!served[1].report.batched);
    assert_eq!(served[1].report.batch_size, 1);
    assert_eq!(served[3].report.workloads.len(), 2);
    assert!(served[3].report.all_verified());
    assert_eq!(service.stats().batches, 4, "plug + three plan identities");
    drop(handle);
    service.shutdown();
}

/// Intra-set verification dedup: a request whose workload set names the
/// same workload twice re-executes it once — the duplicate is handed
/// the shared `RunOutcome` — pinned by the pool's verify accounting,
/// the same style as the `fan_outs` batching pins above.
#[test]
fn duplicate_workloads_in_one_set_verify_once() {
    let pool = WorkerPool::new(2);
    let service =
        DebloatService::builder(GpuModel::T4).service_workers(1).pool(pool.clone()).build();
    let handle = service.handle();

    let w = workload(FrameworkKind::PyTorch, Operation::Inference);
    let response = handle.request(vec![w.clone(), w]).expect("duplicate sets are admissible");
    assert!(response.report.all_verified());
    assert_eq!(response.report.workloads.len(), 2, "the duplicate keeps its own record");
    assert_eq!(response.report.workloads[0], response.report.workloads[1]);

    let pool_stats = pool.stats();
    assert_eq!(pool_stats.verify_runs, 1, "two submitted workloads, one unique verify run");
    assert_eq!(pool_stats.verify_deduped, 1, "the duplicate shared its twin's outcome");
    service.shutdown();
}

/// Backpressure: a burst against a capacity-1 admission queue sheds
/// with a typed `Overloaded` error — no deadlock, no lost responses.
#[test]
fn a_full_bounded_queue_sheds_with_overloaded() {
    let service = DebloatService::builder(GpuModel::T4)
        .service_workers(1)
        .queue_capacity(1)
        .cache_capacity(4)
        .build();
    let handle = service.handle();

    let plug_ticket =
        plug(&service, vec![workload(FrameworkKind::TensorFlow, Operation::Inference)]);

    // Capacity 1 bounds the whole queue, so of 8 rapid non-blocking
    // submissions behind the plug exactly one is queued and 7 shed.
    let set = vec![workload(FrameworkKind::PyTorch, Operation::Inference)];
    let mut tickets = Vec::new();
    let mut overloaded = 0u64;
    for _ in 0..8 {
        match handle.try_submit(set.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(NegativaError::Service(ServiceError::Overloaded { capacity })) => {
                assert_eq!(capacity, 1, "the typed error names the configured bound");
                overloaded += 1;
            }
            Err(e) => panic!("unexpected submission error: {e}"),
        }
    }
    assert_eq!(overloaded, 7, "of 8 submissions on a capacity-1 queue, all but one shed");
    assert!(!tickets.is_empty(), "the first submission always fits");
    assert_eq!(service.stats().shed, overloaded);

    // No lost responses and no deadlock: the plug and every accepted
    // request are answered and verified.
    assert!(plug_ticket.wait().expect("plug answered").report.all_verified());
    for ticket in tickets {
        assert!(ticket.wait().expect("accepted requests are served").report.all_verified());
    }
    let stats = service.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed, stats.accepted);
    service.shutdown();
}

/// Backpressure without shedding: a blocking `submit` at the bound
/// waits for room and resumes once the plugged executor takes the
/// queued batch — no lost response, every accepted request completes.
#[test]
fn a_blocking_submit_at_the_bound_resumes_once_room_frees() {
    let service = DebloatService::builder(GpuModel::T4)
        .service_workers(1)
        .queue_capacity(1)
        .cache_capacity(4)
        .build();
    let handle = service.handle();
    let plug_ticket =
        plug(&service, vec![workload(FrameworkKind::TensorFlow, Operation::Inference)]);

    let set = vec![workload(FrameworkKind::PyTorch, Operation::Inference)];
    let queued = handle.submit(set.clone()).expect("the one slot is free");
    let blocked = {
        let (handle, set) = (handle.clone(), set.clone());
        std::thread::spawn(move || handle.submit(set))
    };
    std::thread::sleep(Duration::from_millis(20));
    // While the plug runs, the queued request holds the only slot, so
    // the second submission cannot have returned yet.
    let returned = blocked.is_finished();
    if service.stats().batches == 0 {
        assert!(!returned, "submit returned while the queue was full");
    }

    assert!(plug_ticket.wait().expect("plug answered").report.all_verified());
    let resumed = blocked.join().expect("submitter ran").expect("submit resumed");
    assert!(queued.wait().expect("queued request served").report.all_verified());
    let response = resumed.wait().expect("resumed request served");
    assert!(response.report.all_verified());
    assert!(!response.report.batched, "room frees only when the queued batch leaves");
    let stats = service.stats();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, stats.accepted);
    assert_eq!((stats.failed, stats.shed, stats.queue_depth), (0, 0, 0));
    assert_eq!(stats.batches, 3, "plug, queued request, resumed request");
    service.shutdown();
}

/// Concurrent requests across frameworks: every response is verified,
/// byte-identical to direct `debloat_many`, and planning ran exactly
/// once per unique plan identity (via batching or the single-flight
/// cache, whichever got there first).
#[test]
fn service_serves_concurrent_multi_framework_requests() {
    let pool = WorkerPool::new(3);
    let service = DebloatService::builder(GpuModel::T4)
        .service_workers(4)
        .pool(pool.clone())
        .cache_capacity(4)
        .build();
    let handle = service.handle();

    let unique_sets: Vec<Vec<Workload>> = vec![
        vec![workload(FrameworkKind::PyTorch, Operation::Inference)],
        vec![workload(FrameworkKind::PyTorch, Operation::Train)],
        vec![
            workload(FrameworkKind::PyTorch, Operation::Train),
            workload(FrameworkKind::PyTorch, Operation::Inference),
        ],
        vec![workload(FrameworkKind::TensorFlow, Operation::Inference)],
    ];

    // Enqueue every set twice — 8 requests in flight across 4
    // executors — before waiting on anything.
    let tickets: Vec<_> = unique_sets
        .iter()
        .enumerate()
        .cycle()
        .take(2 * unique_sets.len())
        .map(|(index, set)| (index, set.clone(), handle.submit(set.clone()).expect("queue open")))
        .collect();

    let direct: Vec<_> = unique_sets.iter().map(|set| direct(set)).collect();

    for (index, set, ticket) in tickets {
        let DebloatResponse { report, libraries } = ticket.wait().expect("request answered");

        // Every report verified, one verification per workload.
        assert!(report.all_verified());
        assert_eq!(report.workloads.len(), set.len());

        // Byte-identical to direct `debloat_many`, batched or not.
        let (direct_report, direct_libs) = &direct[index];
        assert_eq!(report.libraries, direct_report.libraries);
        assert_eq!(report.workloads, direct_report.workloads);
        assert_eq!(report.used_kernels, direct_report.used_kernels);
        assert_eq!(report.used_host_fns, direct_report.used_host_fns);
        assert_eq!(libraries.len(), direct_libs.len());
        for (served, expected) in libraries.iter().zip(direct_libs) {
            assert_eq!(served.manifest.soname, expected.manifest.soname);
            assert_eq!(
                served.image.bytes(),
                expected.image.bytes(),
                "{} diverged from the direct debloat",
                served.manifest.soname
            );
        }
    }

    // Exactly one detection per unique plan identity: every duplicate
    // was served by its twin's batch or by the single-flight cache.
    let cache = service.plan_cache();
    let cache_stats = cache.stats();
    assert_eq!(cache_stats.detections, 4, "one detection per unique identity");
    assert_eq!(cache_stats.misses, 4);

    // The cache holds the three PyTorch identities and the TensorFlow
    // one, each framework within its own bound.
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.framework_len(FrameworkKind::PyTorch), 3);
    assert_eq!(cache.framework_len(FrameworkKind::TensorFlow), 1);
    assert!(cache.framework_len(FrameworkKind::PyTorch) <= cache.capacity());
    assert_eq!(cache.stats().evictions, 0, "no framework outgrew its capacity of 4");

    // The shared worker pool never ran more library jobs at once than
    // its configured size, across all batches.
    let pool_stats = pool.stats();
    assert!(pool_stats.completed > 0, "fan-outs went through the pool");
    assert!(pool_stats.peak_active <= 3, "pool exceeded its bound: {pool_stats:?}");

    let stats = service.stats();
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.batched_requests, 8);
    assert!(stats.batches <= 8, "batching never runs more executions than requests");
    service.shutdown();
}

/// A tiny cache under key churn: the service keeps answering correctly
/// while plans are evicted and recomputed within one framework.
#[test]
fn service_survives_plan_cache_eviction() {
    let service =
        DebloatService::builder(GpuModel::T4).service_workers(1).cache_capacity(1).build();
    let cache = service.plan_cache().clone();
    let handle = service.handle();

    let infer = vec![workload(FrameworkKind::PyTorch, Operation::Inference)];
    let train = vec![workload(FrameworkKind::PyTorch, Operation::Train)];

    let first = handle.request(infer.clone()).unwrap();
    assert!(!first.report.plan_cache_hit, "fresh key plans from scratch");
    // A different PyTorch key evicts PyTorch's only slot...
    assert!(handle.request(train).unwrap().report.all_verified());
    assert_eq!(cache.framework_len(FrameworkKind::PyTorch), 1);
    assert!(cache.stats().evictions >= 1, "capacity 1 must evict");
    // ...so the first key plans again, reproducing identical results.
    let again = handle.request(infer).unwrap();
    assert!(!again.report.plan_cache_hit, "evicted key re-plans");
    assert_eq!(again.report.libraries, first.report.libraries);
    assert_eq!(again.report.workloads, first.report.workloads);
    assert_eq!(cache.stats().detections, 3);
    service.shutdown();
}

/// Staged shutdown drains everything already admitted before stopping
/// the executors; late handles get the typed Shutdown error.
#[test]
fn shutdown_drains_admitted_requests() {
    let service = DebloatService::builder(GpuModel::T4).service_workers(2).build();
    let handle = service.handle();
    let set = vec![workload(FrameworkKind::PyTorch, Operation::Inference)];
    let tickets: Vec<_> = (0..4).map(|_| handle.submit(set.clone()).unwrap()).collect();
    service.shutdown();
    for ticket in tickets {
        let response = ticket.wait().expect("requests admitted before shutdown are drained");
        assert!(response.report.all_verified());
    }
    // The handle outlives the service but is politely refused.
    assert!(matches!(
        handle.submit(set).unwrap_err(),
        NegativaError::Service(ServiceError::Shutdown)
    ));
}
