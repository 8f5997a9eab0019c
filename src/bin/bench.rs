//! `bench` — the debloat-path latency benchmark behind
//! `BENCH_service.json`.
//!
//! Times the ways a debloat can be served, on one representative
//! workload:
//!
//! * **cold** — a fresh plan cache: baseline + detection runs, location,
//!   compaction, verification, everything.
//! * **cache hit** — the same key again: the plan cache skips baseline
//!   and detection entirely (the paper's repeated-deployment case).
//! * **unbatched** — a sequence of requests on a warm cache: planning is
//!   amortized, but every request still pays its own compaction and
//!   verification.
//! * **batched** — the same burst through the staged
//!   [`DebloatService`]: the admission pipeline groups requests sharing
//!   a plan identity into union debloats, so the burst approaches one
//!   compaction total. Per-request p50/p95 latency is measured from
//!   concurrent client threads.
//! * **incremental re-plan** — the planned workload set grows by one
//!   entry: the session diffs the cached plan's usage union and
//!   re-locates only the touched symbols, so `plan_diff_ns` stays well
//!   under a from-scratch plan (`cold_ns` is the reference).
//! * **verification** — the verification roster of a grouped 16-burst
//!   (four unique workloads, each contributed four times), run two
//!   ways: the pre-PR serial loop (one `verify_indexed` per entry, no
//!   dedup) and the session's `verify_all` (each unique workload
//!   verified once, fanned through the bounded `WorkerPool`, outcomes
//!   shared with the duplicates). `verify_ns` is the new pass's time,
//!   `verify_parallel_speedup` the old/new ratio (floored at 1.0 by
//!   `bench_check`; dedup alone carries the floor on single-core
//!   runners, extra cores add to it).
//! * **artifact I/O** — `store_open_ns` times a cold `Registry::open`
//!   and `load_bundle` of an artifact just published into the origin
//!   registry; `store_objects_deduped` counts the pool objects (its
//!   libraries and its plan) an intact republish of that artifact
//!   found already present and did not rewrite.
//! * **registry tier** — two same-fleet artifacts with overlapping
//!   workload sets publish into one origin registry
//!   (`registry_objects_deduped` / `registry_dedup_ratio` count the
//!   pool writes the shared content-addressed pool absorbed), then a
//!   cold mirror pulls both: the first pull ships the full object
//!   closure (`full_bytes_shipped`), the second only the objects the
//!   mirror still lacks (`delta_bytes_shipped`, floored below full by
//!   `bench_check`).
//! * **remote registry** — the same origin served over a real loopback
//!   socket through the framed RPC protocol: `remote_pull_ns` times
//!   the cold wire pull of the full closure, `remote_delta_bytes` the
//!   second pull's want-list delta (floored below the full pull), and
//!   a fault-injected client (dropped dials and connections,
//!   truncations, flipped bytes) must converge within its retry
//!   budget — `net_retries` counts what the faults cost (floored at 1)
//!   — and still cold-verify byte-perfect.
//! * **fleet-scoped debloat** — one three-architecture artifact
//!   (sm_75 + sm_80 + sm_90) against shipping three single-arch
//!   artifacts (T4, A100, H100) for the same workload.
//!   `fleet_slice_bytes_removed` is the payload recovered by
//!   arch-slicing plus in-place compressed-element rewrites,
//!   `compressed_elements_rewritten` counts the rewrites, and
//!   `fleet_artifact_bytes` / `single_arch_artifact_bytes` /
//!   `fleet_over_single_arch_size_ratio` compare the occupied footprint
//!   of one fleet artifact with the three-artifact status quo.
//!
//! The copy-on-write byte counters (`bytes_copied_total` /
//! `bytes_shared_total`, from the service's `ServiceStats`) record how much of the
//! batched burst was served by refcount bumps instead of image copies.
//!
//! Writes the measurements as JSON to `BENCH_service.json` (override
//! with `BENCH_OUT=path`), validated against the schema shared with the
//! `bench_check` CI guard ([`negativa_repro::bench`]), so CI can track
//! the perf trajectory and fail on a malformed report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use negativa_repro::bench::{percentile, render, validate, BenchValue};
use negativa_repro::cuda::GpuModel;
use negativa_repro::ml::{FrameworkKind, ModelKind, Operation, Workload};
use negativa_repro::negativa::service::DebloatService;
use negativa_repro::negativa::verify::verify_indexed;
use negativa_repro::negativa::{
    Debloater, FaultInjector, FleetSpec, PlanCache, Registry, RegistryServer, RemoteRegistry,
    RetryPolicy, SmArch, TcpDialer, WorkerPool,
};

fn main() {
    let gpu = GpuModel::T4;
    let workload =
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference);
    let requests: usize = 16;

    // Warm the process-wide bundle/index caches so "cold" measures the
    // debloat pipeline, not one-time library generation.
    let _ = negativa_repro::ml::cached_bundle(FrameworkKind::PyTorch);
    let _ = negativa_repro::ml::cached_indexes(FrameworkKind::PyTorch);

    // Cold: a private, empty plan cache.
    let plan_cache = Arc::new(PlanCache::new(8));
    let debloater = Debloater::new(gpu).with_plan_cache(plan_cache.clone());
    let started = Instant::now();
    let cold = debloater.debloat(&workload).expect("cold debloat verifies");
    let cold_ns = started.elapsed().as_nanos();
    assert!(!cold.plan_cache_hit);

    // Cache hit: the same key through the same debloater.
    let started = Instant::now();
    let hit = debloater.debloat(&workload).expect("cached debloat verifies");
    let cache_hit_ns = started.elapsed().as_nanos();
    assert!(hit.plan_cache_hit, "second debloat of one key must hit the cache");

    // Unbatched: sequential requests on the warm cache — no detection,
    // but one compaction + verification each.
    let started = Instant::now();
    for _ in 0..requests {
        let report = debloater.debloat(&workload).expect("unbatched debloat verifies");
        assert!(report.plan_cache_hit);
    }
    let unbatched_total_ns = started.elapsed().as_nanos();

    // Incremental re-plan: extend the planned set by one workload. The
    // prior plan's per-library RetainPlans and memoized detections are
    // reused; only libraries whose symbol sets changed re-locate.
    let extended = vec![
        workload.clone(),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::Transformer, Operation::Inference),
    ];
    let incremental = debloater.debloat_many(&extended).expect("incremental debloat verifies");
    let cache_stats = plan_cache.stats();
    assert_eq!(cache_stats.incremental, 1, "the grown key re-plans incrementally");
    assert_eq!(cache_stats.incremental_fallbacks, 0, "no divergence on this path");
    let plan_diff_ns = incremental.plan_diff_ns;
    assert!(
        u128::from(plan_diff_ns) < cold_ns,
        "diff-based re-planning ({plan_diff_ns} ns) must undercut a from-scratch plan ({cold_ns} ns)"
    );

    // Verification, old loop vs new pass, on a grouped-burst roster:
    // four unique workloads each contributed four times (best of 3
    // timings each, to shed scheduler noise). The pre-PR loop
    // re-executes all 16 entries; `verify_all` runs each unique
    // workload once through the bounded pool and hands the duplicates
    // the shared outcome.
    let unique_verify = [
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Train),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::Transformer, Operation::Inference),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::Transformer, Operation::Train),
    ];
    let verify_set: Vec<Workload> = unique_verify.iter().cycle().take(16).cloned().collect();
    let pooled_session = Debloater::new(gpu)
        .with_pool(WorkerPool::new(4))
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .session(FrameworkKind::PyTorch);
    let (verify_plan, _) = pooled_session.plan_cached(&verify_set).expect("verify-set plan");
    let (_, verify_libs) = pooled_session.apply(&verify_plan).expect("verify-set apply");
    let normalized: Vec<Workload> = verify_set
        .iter()
        .map(|w| pooled_session.normalize(w).expect("paper workloads normalize"))
        .collect();
    let best_of_3 = |run: &dyn Fn()| -> u128 {
        (0..3)
            .map(|_| {
                let begun = Instant::now();
                run();
                begun.elapsed().as_nanos()
            })
            .min()
            .expect("three timed runs")
    };
    let indexes = negativa_repro::ml::cached_indexes(FrameworkKind::PyTorch);
    let config = negativa_repro::ml::RunConfig::default();
    let verify_serial_ns = best_of_3(&|| {
        for (entry, baseline) in normalized.iter().zip(&verify_plan.baselines) {
            verify_indexed(entry, &verify_libs, Some(&indexes), baseline.checksum, &config)
                .expect("serial verification passes");
        }
    });
    // `verify_all` memoizes (workload, bundle content) outcomes across
    // passes within one debloater, so repeating the timing on a single
    // session would measure the memo lookup, not the pooled pass: each
    // timed run gets its own fresh debloater, constructed outside the
    // timer.
    let verify_ns = (0..3)
        .map(|_| {
            let timed_session = Debloater::new(gpu)
                .with_pool(WorkerPool::new(4))
                .with_plan_cache(Arc::new(PlanCache::new(4)))
                .session(FrameworkKind::PyTorch);
            let begun = Instant::now();
            let outcomes = timed_session
                .verify_all(&normalized, &verify_plan, &verify_libs)
                .expect("pooled verification passes");
            assert_eq!(outcomes.len(), verify_set.len());
            begun.elapsed().as_nanos()
        })
        .min()
        .expect("three timed runs");
    let verify_parallel_speedup = verify_serial_ns as f64 / verify_ns.max(1) as f64;

    // Registry tier: the single-workload artifact and a superset
    // artifact publish into one origin pool (their untouched libraries
    // are byte-identical, so the pool stores them once), then a cold
    // mirror pulls the superset — the full closure — and afterwards the
    // small artifact, which ships only the objects the mirror lacks.
    let registry_root =
        std::env::temp_dir().join(format!("negativa-bench-registry-{}", std::process::id()));
    let mirror_root =
        std::env::temp_dir().join(format!("negativa-bench-mirror-{}", std::process::id()));
    std::fs::remove_dir_all(&registry_root).ok();
    std::fs::remove_dir_all(&mirror_root).ok();
    let small_artifact = pooled_session
        .debloat_many_artifact(std::slice::from_ref(&workload))
        .expect("registry-bench debloat verifies");
    let origin = Registry::at(&registry_root);
    let small_record =
        origin.publish(&small_artifact).expect("publish the single-workload artifact");

    // Artifact I/O: time a cold open + load of the just-published
    // artifact (each unique content hash read exactly once), then
    // republish it through a fresh handle — the object-reuse rule makes
    // that zero object writes, counted by that handle's stats.
    let started = Instant::now();
    let opened = Registry::at(&registry_root)
        .open(&small_record.artifact_id)
        .expect("reopen the published artifact");
    let loaded = opened.load_bundle().expect("every content hash checks out");
    let store_open_ns = started.elapsed().as_nanos();
    assert!(!loaded.is_empty());
    let republisher = Registry::at(&registry_root);
    republisher.publish(&small_artifact).expect("republish over the same identity");
    let republished = republisher.stats();
    assert_eq!(republished.objects_pooled, 0, "an intact republish writes no object");
    let store_objects_deduped = republished.objects_deduped;

    let big_set = vec![
        workload.clone(),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::Transformer, Operation::Train),
    ];
    let big_artifact =
        pooled_session.debloat_many_artifact(&big_set).expect("registry-bench debloat verifies");
    let big_record = origin.publish(&big_artifact).expect("publish the superset artifact");
    let pool_stats = origin.stats();
    let registry_objects_deduped = pool_stats.objects_deduped;
    assert!(registry_objects_deduped >= 1, "overlapping artifacts must share pool objects");
    let registry_dedup_ratio = pool_stats.bytes_deduped as f64
        / (pool_stats.bytes_pooled + pool_stats.bytes_deduped).max(1) as f64;
    let mirror = Registry::at(&mirror_root);
    let full =
        mirror.pull(&origin, &big_record.artifact_id).expect("cold pull ships the full closure");
    let full_bytes_shipped = full.bytes_shipped;
    let delta =
        mirror.pull(&origin, &small_record.artifact_id).expect("second pull ships the delta");
    let delta_bytes_shipped = delta.bytes_shipped;
    assert!(
        delta_bytes_shipped < full_bytes_shipped,
        "delta shipping ({delta_bytes_shipped} B) must undercut a cold pull \
         ({full_bytes_shipped} B)"
    );
    assert!(
        mirror.verify(&small_record.artifact_id).expect("mirror opens").all_verified(),
        "the delta-shipped artifact reproduces its baselines on the mirror"
    );

    // Remote registry: the same delta handshake over a real loopback
    // socket. A cold mirror pulls the superset closure through the
    // framed protocol (`remote_pull_ns`), then the small artifact —
    // only the missing objects cross the wire (`remote_delta_bytes`).
    // A second, fault-injected client repeats the cold pull under
    // dropped connections, truncations, and flipped bytes; it must
    // converge within the retry budget (`net_retries` counts what the
    // faults cost) and still verify byte-perfect.
    let remote_root =
        std::env::temp_dir().join(format!("negativa-bench-remote-{}", std::process::id()));
    let faulty_root =
        std::env::temp_dir().join(format!("negativa-bench-faulty-{}", std::process::id()));
    std::fs::remove_dir_all(&remote_root).ok();
    std::fs::remove_dir_all(&faulty_root).ok();
    let server = RegistryServer::serve(Registry::at(&registry_root), "127.0.0.1:0")
        .expect("bench server binds an ephemeral loopback port");
    let remote = RemoteRegistry::connect(&server.url()).expect("bench client connects");
    let remote_mirror = Registry::at(&remote_root);
    let started = Instant::now();
    let remote_full =
        remote.pull_into(&remote_mirror, &big_record.artifact_id).expect("remote cold pull");
    let remote_pull_ns = started.elapsed().as_nanos();
    assert_eq!(
        remote_full.bytes_shipped, full_bytes_shipped,
        "the wire pull ships exactly the closure the in-process pull ships"
    );
    let remote_delta =
        remote.pull_into(&remote_mirror, &small_record.artifact_id).expect("remote delta pull");
    let remote_delta_bytes = remote_delta.bytes_shipped;
    assert!(
        remote_delta_bytes < remote_full.bytes_shipped,
        "remote delta shipping ({remote_delta_bytes} B) must undercut the remote cold pull \
         ({} B)",
        remote_full.bytes_shipped
    );
    assert!(
        remote_mirror
            .verify(&small_record.artifact_id)
            .expect("remote mirror opens")
            .all_verified(),
        "the wire-shipped artifact reproduces its baselines"
    );
    // Fault-injected pull: seed 106's first four draws cover failed
    // dials, connection drops, truncation, and a flipped byte.
    let injector = Arc::new(FaultInjector::new(Arc::new(TcpDialer), 106, 4));
    let faulty_policy = RetryPolicy {
        attempts: 12,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        chunk_len: 64 * 1024,
        ..RetryPolicy::default()
    };
    let faulty = RemoteRegistry::connect_with(&server.url(), injector, faulty_policy)
        .expect("faulty client connects");
    let faulty_mirror = Registry::at(&faulty_root);
    faulty
        .pull_into(&faulty_mirror, &big_record.artifact_id)
        .expect("the faulty pull converges within the retry budget");
    let net_retries = faulty.stats().retries;
    assert!(net_retries >= 1, "injected faults must cost at least one retry");
    assert!(
        faulty_mirror.verify(&big_record.artifact_id).expect("faulty mirror opens").all_verified(),
        "a fault-injected pull never installs corruption"
    );
    drop(server);
    std::fs::remove_dir_all(&remote_root).ok();
    std::fs::remove_dir_all(&faulty_root).ok();
    std::fs::remove_dir_all(&registry_root).ok();
    std::fs::remove_dir_all(&mirror_root).ok();

    // Fleet-scoped debloat: one artifact planned for the T4 session's
    // sm_75 widened by sm_80 + sm_90, vs shipping a separate
    // single-arch artifact per deployment GPU. The fleet pass must
    // recover bytes by arch-slicing and in-place compressed rewrites,
    // and one fleet artifact must occupy fewer bytes than three
    // single-arch ones (the host code and PTX ship once, not thrice).
    let fleet_debloater = Debloater::new(gpu)
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .with_fleet(FleetSpec::new(&[SmArch::SM80, SmArch::SM90]).expect("two named archs"));
    let fleet_label = fleet_debloater.fleet().label();
    let fleet_report =
        fleet_debloater.debloat_many(std::slice::from_ref(&workload)).expect("fleet debloat");
    assert!(fleet_report.all_verified(), "the fleet artifact reproduces the baseline");
    let fleet_totals = fleet_report.totals();
    assert!(fleet_totals.fleet_slice_bytes_removed() > 0, "fleet slicing must recover bytes");
    assert!(fleet_totals.compressed_rewritten > 0, "at least one in-place compressed rewrite");
    let fleet_artifact_bytes = fleet_totals.file_after;
    let single_arch_artifact_bytes: u64 = [GpuModel::T4, GpuModel::A100, GpuModel::H100]
        .into_iter()
        .map(|member_gpu| {
            let single = Debloater::new(member_gpu).with_plan_cache(Arc::new(PlanCache::new(4)));
            let report =
                single.debloat_many(std::slice::from_ref(&workload)).expect("single-arch debloat");
            report.totals().file_after
        })
        .sum();
    assert!(
        fleet_artifact_bytes < single_arch_artifact_bytes,
        "one fleet artifact ({fleet_artifact_bytes} B) must undercut three single-arch \
         artifacts ({single_arch_artifact_bytes} B)"
    );

    // Batched: the same burst, concurrently, through the staged
    // admission pipeline; requests sharing the plan identity group into
    // union debloats while the executors are busy.
    let service = DebloatService::builder(gpu)
        .service_workers(2)
        .queue_capacity(64)
        .cache_capacity(8)
        .build();
    let started = Instant::now();
    let mut latencies_ns: Vec<u128> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..requests)
            .map(|_| {
                let handle = service.handle();
                let workload = workload.clone();
                scope.spawn(move || {
                    let begun = Instant::now();
                    let response = handle.request(vec![workload]).expect("service answers");
                    assert!(response.report.all_verified());
                    begun.elapsed().as_nanos()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("bench client panicked")).collect()
    });
    let batched_total_ns = started.elapsed().as_nanos();
    let stats = service.stats();
    let detections = service.plan_cache().stats().detections;
    service.shutdown();
    assert_eq!(detections, 1, "single-flight + batching: the whole burst shares one detection");
    assert!(stats.bytes_copied > 0, "a union debloat pays its O(1) image copies");
    assert!(
        stats.bytes_shared > stats.bytes_copied,
        "fan-out must be dominated by refcount bumps, not copies \
         (shared {} vs copied {})",
        stats.bytes_shared,
        stats.bytes_copied
    );
    latencies_ns.sort_unstable();

    let rps = |total_ns: u128| requests as f64 / (total_ns.max(1) as f64 / 1e9);
    let entries: Vec<(&str, BenchValue)> = vec![
        ("schema_version", BenchValue::int(4)),
        ("workload", BenchValue::Text(workload.label())),
        ("gpu", BenchValue::Text(gpu.to_string())),
        ("cold_ns", BenchValue::int(cold_ns)),
        ("cache_hit_ns", BenchValue::int(cache_hit_ns)),
        ("cold_over_hit_speedup", BenchValue::Number(cold_ns as f64 / cache_hit_ns.max(1) as f64)),
        ("service_requests", BenchValue::int(requests as u128)),
        ("service_detections", BenchValue::int(u128::from(detections))),
        ("latency_p50_ns", BenchValue::int(percentile(&latencies_ns, 50))),
        ("latency_p95_ns", BenchValue::int(percentile(&latencies_ns, 95))),
        ("unbatched_total_ns", BenchValue::int(unbatched_total_ns)),
        ("unbatched_throughput_rps", BenchValue::Number(rps(unbatched_total_ns))),
        ("batched_total_ns", BenchValue::int(batched_total_ns)),
        ("batched_throughput_rps", BenchValue::Number(rps(batched_total_ns))),
        (
            "batched_over_unbatched_speedup",
            BenchValue::Number(unbatched_total_ns as f64 / batched_total_ns.max(1) as f64),
        ),
        ("mean_batch_size", BenchValue::Number(stats.mean_batch_size())),
        ("bytes_copied_total", BenchValue::int(u128::from(stats.bytes_copied))),
        ("bytes_shared_total", BenchValue::int(u128::from(stats.bytes_shared))),
        ("plan_diff_ns", BenchValue::int(u128::from(plan_diff_ns))),
        ("verify_ns", BenchValue::int(verify_ns)),
        ("verify_parallel_speedup", BenchValue::Number(verify_parallel_speedup)),
        ("store_open_ns", BenchValue::int(store_open_ns)),
        ("store_objects_deduped", BenchValue::int(u128::from(store_objects_deduped))),
        ("delta_bytes_shipped", BenchValue::int(u128::from(delta_bytes_shipped))),
        ("full_bytes_shipped", BenchValue::int(u128::from(full_bytes_shipped))),
        ("registry_objects_deduped", BenchValue::int(u128::from(registry_objects_deduped))),
        ("registry_dedup_ratio", BenchValue::Number(registry_dedup_ratio)),
        ("remote_pull_ns", BenchValue::int(remote_pull_ns)),
        ("remote_delta_bytes", BenchValue::int(u128::from(remote_delta_bytes))),
        ("net_retries", BenchValue::int(u128::from(net_retries))),
        ("fleet", BenchValue::Text(fleet_label)),
        (
            "fleet_slice_bytes_removed",
            BenchValue::int(u128::from(fleet_totals.fleet_slice_bytes_removed())),
        ),
        (
            "compressed_elements_rewritten",
            BenchValue::int(u128::from(fleet_totals.compressed_rewritten)),
        ),
        ("fleet_artifact_bytes", BenchValue::int(u128::from(fleet_artifact_bytes))),
        ("single_arch_artifact_bytes", BenchValue::int(u128::from(single_arch_artifact_bytes))),
        (
            "fleet_over_single_arch_size_ratio",
            BenchValue::Number(
                fleet_artifact_bytes as f64 / single_arch_artifact_bytes.max(1) as f64,
            ),
        ),
    ];
    let json = render(&entries);
    validate(&json).expect("the bench report must satisfy its own schema");
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_service.json".into());
    std::fs::write(&out, &json).expect("writing the benchmark report");
    println!("wrote {out}:\n{json}");
}
