//! End-to-end pipeline tests across the paper's Table 1 matrix: the
//! PyTorch × MobileNetV2 corner in depth (the acceptance gate the façade
//! doctest also exercises), plus TensorFlow and vLLM / Transformers
//! bundles on their paper workloads.

use negativa_ml::{Debloater, MultiDebloatReport};
use simcuda::GpuModel;
use simml::{FrameworkKind, ModelKind, Operation, Workload};

fn debloat_workload(
    framework: FrameworkKind,
    model: ModelKind,
    operation: Operation,
) -> MultiDebloatReport {
    let workload = Workload::paper(framework, model, operation);
    Debloater::new(GpuModel::T4).debloat_many(&[workload]).expect("pipeline must verify clean")
}

fn debloat(operation: Operation) -> MultiDebloatReport {
    debloat_workload(FrameworkKind::PyTorch, ModelKind::MobileNetV2, operation)
}

/// (a) identical output checksum before/after compaction — `debloat_many`
/// returning `Ok` *is* that guarantee (verification compares against the
/// baseline checksum and errors on mismatch); the report carries the
/// shared checksum. (b) nonzero host and device reduction. (c) peak
/// memory and virtual time strictly lower after debloating.
fn assert_paper_properties(report: &MultiDebloatReport) {
    let run = &report.workloads[0];
    // (a) — the verified checksum exists and the pipeline did not error.
    assert!(run.verified(), "{}: verified checksum equals the baseline", run.label);
    assert_ne!(run.verified_checksum, 0, "{}: checksum recorded", run.label);

    // (b) — both sides of the bundle actually shrank.
    let totals = report.totals();
    assert!(
        totals.host_reduction_pct() > 0.0,
        "{}: host reduction {:.1}% must be nonzero",
        run.label,
        totals.host_reduction_pct()
    );
    assert!(
        totals.device_reduction_pct() > 0.0,
        "{}: device reduction {:.1}% must be nonzero",
        run.label,
        totals.device_reduction_pct()
    );

    // (c) — mirrors simcuda's `debloating_reduces_memory_and_time`.
    assert!(
        run.debloated.peak_host_bytes < run.baseline.peak_host_bytes,
        "{}: peak host memory must drop ({} -> {})",
        run.label,
        run.baseline.peak_host_bytes,
        run.debloated.peak_host_bytes
    );
    let peak = |m: &simml::WorkloadMetrics| m.peak_device_bytes.iter().copied().max().unwrap();
    assert!(peak(&run.debloated) < peak(&run.baseline), "{}: peak GPU memory must drop", run.label);
    assert!(
        run.debloated.elapsed_ns < run.baseline.elapsed_ns,
        "{}: virtual time must drop ({} -> {})",
        run.label,
        run.baseline.elapsed_ns,
        run.debloated.elapsed_ns
    );
}

#[test]
fn pytorch_mobilenet_train_debloats_clean() {
    let report = debloat(Operation::Train);
    assert_paper_properties(&report);
    // The file-size criterion the façade quickstart promises.
    assert!(report.totals().file_reduction_pct() > 30.0);
}

#[test]
fn pytorch_mobilenet_inference_debloats_clean() {
    let report = debloat(Operation::Inference);
    assert_paper_properties(&report);
    assert!(report.totals().file_reduction_pct() > 30.0);
}

#[test]
fn tensorflow_mobilenet_train_debloats_clean() {
    let report =
        debloat_workload(FrameworkKind::TensorFlow, ModelKind::MobileNetV2, Operation::Train);
    assert_paper_properties(&report);
    assert!(report.totals().file_reduction_pct() > 30.0);
}

#[test]
fn tensorflow_transformer_inference_debloats_clean() {
    let report =
        debloat_workload(FrameworkKind::TensorFlow, ModelKind::Transformer, Operation::Inference);
    assert_paper_properties(&report);
}

#[test]
fn vllm_llama2_inference_debloats_clean() {
    let report = debloat_workload(FrameworkKind::Vllm, ModelKind::Llama2, Operation::Inference);
    assert_paper_properties(&report);
    assert!(report.totals().file_reduction_pct() > 30.0);
}

#[test]
fn transformers_llama2_inference_debloats_clean() {
    let report =
        debloat_workload(FrameworkKind::Transformers, ModelKind::Llama2, Operation::Inference);
    assert_paper_properties(&report);
}

#[test]
fn train_keeps_more_kernels_than_inference() {
    let train = debloat(Operation::Train);
    let infer = debloat(Operation::Inference);
    assert!(
        train.used_kernels > infer.used_kernels,
        "training adds backward/optimizer kernel families ({} vs {})",
        train.used_kernels,
        infer.used_kernels
    );
}

#[test]
fn every_gpu_library_reports_device_savings() {
    let report = debloat(Operation::Inference);
    for lib in &report.libraries {
        if lib.total_elements > 0 {
            assert!(
                lib.device_after < lib.device_before,
                "{} kept all its device code",
                lib.soname
            );
            assert!(lib.kept_elements <= lib.total_elements);
        }
        assert!(lib.used_functions <= lib.total_functions, "{}", lib.soname);
    }
    // The detection stage saw a plausible usage profile.
    assert!(report.used_kernels > 0);
    assert!(report.used_host_fns > 0);
    // Detection overhead is positive but far below a full tracer.
    let overhead = report.workloads[0].detection_overhead_pct();
    assert!(overhead > 0.0);
    assert!(overhead < 130.0);
}

#[test]
fn debloated_bundle_reruns_standalone() {
    let workload =
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference);
    let artifact = Debloater::new(GpuModel::T4)
        .session(FrameworkKind::PyTorch)
        .debloat_many_artifact(std::slice::from_ref(&workload))
        .expect("verifies clean");
    // The debloated libraries are a self-sufficient drop-in bundle: a
    // fresh run (no debloater involved) reproduces the same output.
    let outcome =
        simml::run_workload(&workload, &artifact.libraries, &simml::RunConfig::default()).unwrap();
    assert_eq!(outcome.checksum, artifact.report.workloads[0].verified_checksum);
}
