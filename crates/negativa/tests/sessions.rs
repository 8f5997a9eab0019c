//! Integration tests of the session/plan architecture: shared-bundle
//! union debloat (`debloat_many`), the process-wide plan cache,
//! per-rank usage union on 8×A100, the H100 eager-vs-lazy comparison
//! (§4.5), parallel-vs-serial equivalence, and the explicit
//! empty-device-list error.

use negativa_ml::{plan, Debloater, MultiDebloatReport, NegativaError};
use simcuda::{GpuModel, LoadMode};
use simml::{FrameworkKind, GeneratedLibrary, ModelKind, Operation, Workload};

fn pytorch(operation: Operation) -> Workload {
    Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, operation)
}

/// The report and the verified libraries of one debloat of `set`.
fn debloat_with_libraries(
    debloater: &Debloater,
    set: &[Workload],
) -> (MultiDebloatReport, Vec<GeneratedLibrary>) {
    let artifact =
        debloater.session(set[0].framework).debloat_many_artifact(set).expect("debloat verifies");
    (artifact.report, artifact.libraries)
}

#[test]
fn debloat_many_unions_usage_and_verifies_every_workload() {
    let train = pytorch(Operation::Train);
    let infer = pytorch(Operation::Inference);
    let debloater = Debloater::new(GpuModel::T4);
    let (multi, union_libs) = debloat_with_libraries(&debloater, &[train.clone(), infer.clone()]);

    assert_eq!(multi.workloads.len(), 2);
    assert!(multi.all_verified(), "every per-workload checksum matches its baseline");
    for w in &multi.workloads {
        assert_eq!(w.baseline_checksum, w.verified_checksum, "{}", w.label);
        assert_ne!(w.verified_checksum, 0);
    }
    assert_eq!(multi.workloads[0].label, "PyTorch/Train/MobileNetV2");
    assert_eq!(multi.workloads[1].label, "PyTorch/Inference/MobileNetV2");
    assert!(multi.totals().file_reduction_pct() > 0.0);

    // The union plan retains a superset of each single-workload plan:
    // every byte a single-workload debloat keeps, the union debloat
    // keeps too (both start from identical bundle bytes and zeroing is
    // the only mutation, so `single != 0 && union == 0` would mean the
    // union zeroed something a contributing workload needs).
    for single in [&train, &infer] {
        let (single_report, single_libs) =
            debloat_with_libraries(&debloater, std::slice::from_ref(single));
        assert_eq!(single_libs.len(), union_libs.len());
        for (u, s) in union_libs.iter().zip(&single_libs) {
            assert_eq!(u.manifest.soname, s.manifest.soname);
            let violation = u
                .image
                .bytes()
                .iter()
                .zip(s.image.bytes())
                .position(|(&union_byte, &single_byte)| single_byte != 0 && union_byte == 0);
            assert_eq!(
                violation,
                None,
                "{}: union debloat zeroed a byte that {} needs",
                u.manifest.soname,
                single.label()
            );
        }
        // Entity counts agree with the byte-level containment.
        for (u, s) in multi.libraries.iter().zip(&single_report.libraries) {
            assert!(u.used_functions >= s.used_functions, "{}", u.soname);
            assert!(u.kept_elements >= s.kept_elements, "{}", u.soname);
            assert!(u.file_after >= s.file_after, "{}", u.soname);
        }
    }
    // Union usage is strictly richer than inference alone (training adds
    // backward/optimizer kernels).
    let infer_report = debloater.debloat_many(&[infer]).unwrap();
    assert!(multi.used_kernels > infer_report.used_kernels);
}

#[test]
fn debloat_many_rejects_empty_and_mixed_sets() {
    let debloater = Debloater::new(GpuModel::T4);
    assert!(matches!(
        debloater.debloat_many(&[]).unwrap_err(),
        NegativaError::InvalidWorkloadSet { .. }
    ));
    let mixed = [
        pytorch(Operation::Inference),
        Workload::paper(FrameworkKind::TensorFlow, ModelKind::MobileNetV2, Operation::Inference),
    ];
    assert!(matches!(
        debloater.debloat_many(&mixed).unwrap_err(),
        NegativaError::InvalidWorkloadSet { .. }
    ));
}

#[test]
fn repeated_debloat_hits_the_plan_cache() {
    // A workload configuration no other test uses, so this test owns its
    // plan-cache key outright.
    let mut workload = pytorch(Operation::Inference);
    workload.inference_steps = 7;

    let set = [workload];

    let first = Debloater::new(GpuModel::T4).debloat_many(&set).unwrap();
    assert!(!first.plan_cache_hit, "first debloat of a fresh key must plan from scratch");

    let before = plan::process_cache().stats();
    // A *fresh* debloater instance: the cache is process-wide, not
    // per-instance.
    let second = Debloater::new(GpuModel::T4).debloat_many(&set).unwrap();
    let after = plan::process_cache().stats();

    assert!(second.plan_cache_hit, "repeated (framework, model, op, GPU) skips detection");
    assert!(after.hits > before.hits, "cache-stats hit counter must advance");
    // The cached plan reproduces the identical verified outcome.
    let (first_run, second_run) = (&first.workloads[0], &second.workloads[0]);
    assert_eq!(first_run.verified_checksum, second_run.verified_checksum);
    assert_eq!(first.totals(), second.totals());
    assert_eq!(first.used_kernels, second.used_kernels);
    // Cached baseline/detection metrics ride along unchanged.
    assert_eq!(first_run.baseline, second_run.baseline);
    assert_eq!(first_run.detection, second_run.detection);
}

#[test]
fn parallel_fan_out_is_byte_identical_to_serial() {
    let workload = pytorch(Operation::Train);
    let parallel = Debloater::new(GpuModel::T4);
    let serial = Debloater::new(GpuModel::T4).with_parallelism(false);

    // Drive the phases through the session API so both locate and
    // compact are exercised on each path from one shared detection.
    let par_session = parallel.session(FrameworkKind::PyTorch);
    let ser_session = serial.session(FrameworkKind::PyTorch);
    let detection = par_session.detect(std::slice::from_ref(&workload)).unwrap();

    let par_plan = par_session.plan(&detection).unwrap();
    let ser_plan = ser_session.plan(&detection).unwrap();
    assert_eq!(par_plan, ser_plan, "threaded location must not change any plan");
    assert_eq!(
        par_plan.usage_fingerprint,
        detection.usage.fingerprint(),
        "a plan records the fingerprint of the usage it was located from"
    );

    let (par_reports, par_libs) = par_session.apply(&par_plan).unwrap();
    let (ser_reports, ser_libs) = ser_session.apply(&ser_plan).unwrap();
    assert_eq!(par_reports, ser_reports);
    for (a, b) in par_libs.iter().zip(&ser_libs) {
        assert_eq!(a.image.bytes(), b.image.bytes(), "{} diverged", a.manifest.soname);
    }
}

#[test]
fn apply_rejects_a_plan_for_another_gpu() {
    let workload = pytorch(Operation::Inference);
    let t4 = Debloater::new(GpuModel::T4).session(FrameworkKind::PyTorch);
    let h100 = Debloater::new(GpuModel::H100).session(FrameworkKind::PyTorch);
    let detection = t4.detect(std::slice::from_ref(&workload)).unwrap();
    let plan = t4.plan(&detection).unwrap();
    // The T4 plan keeps only sm_75 SASS; applying it on an H100 session
    // must be refused rather than producing a faulting bundle.
    let err = h100.apply(&plan).unwrap_err();
    assert!(matches!(err, NegativaError::InvalidWorkloadSet { .. }), "got {err}");
}

#[test]
fn detection_composes_with_caller_rank_subscribers() {
    use simcuda::cupti::{CuptiSubscriber, NsysTracer};
    use std::sync::Arc;

    // A caller-installed per-rank profiler must keep seeing events even
    // while the debloater adds its own per-rank detectors.
    let tracer = Arc::new(NsysTracer::new());
    let mut config = simml::RunConfig::default();
    let handout = tracer.clone();
    config.rank_subscribers.push(simml::RankSubscriberSpec::new("caller-nsys", move |_rank| {
        handout.clone() as Arc<dyn CuptiSubscriber>
    }));

    let mut workload = pytorch(Operation::Inference);
    workload.inference_steps = 11; // own plan-cache key: detection must actually run
    let report = Debloater::with_config(GpuModel::T4, config).debloat_many(&[workload]).unwrap();
    assert!(!report.plan_cache_hit);
    assert!(tracer.event_count() > 0, "caller's rank subscriber was dropped");
}

#[test]
fn h100_lazy_debloat_verifies_and_splits_load_time() {
    let debloater = Debloater::new(GpuModel::H100);
    let lazy_report =
        debloater.debloat_many(&[Workload::h100(FrameworkKind::Vllm, LoadMode::Lazy)]).unwrap();
    let eager_report =
        debloater.debloat_many(&[Workload::h100(FrameworkKind::Vllm, LoadMode::Eager)]).unwrap();
    let (lazy, eager) = (&lazy_report.workloads[0], &eager_report.workloads[0]);

    // Debloating under lazy loading still verifies bit-identical output,
    // and loading mode never changes what the workload computes.
    assert_eq!(lazy.verified_checksum, eager.verified_checksum, "load mode must not change output");

    // The report splits load time from steady state (the §4.5 quantity).
    let (lazy_load, lazy_steady) = lazy.debloated.load_time_split_ns();
    assert!(lazy_load > 0 && lazy_steady > 0);
    assert_eq!(lazy_load + lazy_steady, lazy.debloated.elapsed_ns);
    assert!(lazy_report.summary().contains("load/steady"));

    // §4.5 expectations: lazy defers module loads out of the load phase
    // and moves less GPU code overall on the original bundle.
    let (eager_load, _) = eager.debloated.load_time_split_ns();
    assert!(lazy_load < eager_load, "lazy load phase {lazy_load} !< eager {eager_load}");
    assert!(lazy.baseline.gpu_code_bytes < eager.baseline.gpu_code_bytes);
}

#[test]
fn distributed_a100_debloat_unions_per_rank_usage() {
    let model = ModelKind::leaderboard_top9().remove(1); // 7.7 B — cheapest
    let workload = Workload::distributed_a100(FrameworkKind::Vllm, model);
    let report =
        Debloater::new(GpuModel::A100).debloat_many(&[workload]).expect("distributed verifies");
    assert_eq!(report.workloads[0].debloated.peak_device_bytes.len(), 8, "one entry per rank");
    assert!(report.used_kernels > 0, "per-rank detectors observed usage");
    assert!(report.totals().device_reduction_pct() > 0.0);
    assert!(report.totals().host_reduction_pct() > 0.0);
}

#[test]
fn empty_device_list_is_an_explicit_error() {
    let mut workload = pytorch(Operation::Inference);
    workload.devices.clear();
    let debloater = Debloater::new(GpuModel::T4);
    let err = debloater.debloat_many(std::slice::from_ref(&workload)).unwrap_err();
    assert!(matches!(err, NegativaError::EmptyDevices { .. }), "got {err}");
    let session = debloater.session(FrameworkKind::PyTorch);
    let err = session.debloat_many_artifact(&[workload]).unwrap_err();
    assert!(matches!(err, NegativaError::EmptyDevices { .. }), "got {err}");
}
