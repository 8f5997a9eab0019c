//! The workload executor.
//!
//! [`run_workload`] drives a [`Workload`] against a generated library set
//! on the simulated CUDA runtime, reproducing the control flow the
//! paper's tool observes: libraries are dlopened, GPU modules load
//! eagerly or lazily, each kernel is resolved *once* through
//! `cuModuleGetFunction` (the hook Negativa-ML subscribes to), host
//! dispatch chains execute per step, and kernels launch with modelled
//! compute times. A deterministic output checksum folds every host
//! function body hash and kernel code hash the run touches — byte-level
//! change in any executed code changes the checksum, which is how the
//! debloater's verification phase detects semantic breakage.
//!
//! Steady-state iterations beyond [`RunConfig::sample_steps`] are
//! fast-forwarded on the virtual clock (every step is identical, so one
//! measured step is enough), keeping million-step workloads cheap while
//! preserving the paper's relative time comparisons.
//!
//! Multi-GPU workloads keep the paper's Table 10 topology in their
//! accounting: one rank per device, with `world` (the rank count)
//! setting each rank's weight and KV-cache share and adding the
//! per-step collective. Simulated ranks on the same device model are
//! replicas — nothing a rank does depends on its index — so the
//! executor simulates each *distinct* device once, serially, and merges
//! that outcome once for every rank it stands for. Ranks on different
//! devices must still agree on the checksum ([`SimmlError::RankDivergence`]).
//! If the simulator ever models rank-specific work, per-rank execution
//! comes back with it.

use std::collections::HashMap;
use std::sync::Arc;

use simcuda::cupti::CuptiSubscriber;
use simcuda::{CostModel, CudaSim, FnHandle, GpuModel, LibraryId, ModuleId};

use crate::bundle::GeneratedLibrary;
use crate::error::SimmlError;
use crate::metrics::WorkloadMetrics;
use crate::namegen::stable_hash;
use crate::ops::{OpFamily, OpInstance};
use crate::scale;
use crate::workload::{Operation, Workload};
use crate::Result;

const MIB: u64 = 1 << 20;
/// Model bytes staged host→device per sample in a batch transfer.
const BYTES_PER_SAMPLE: u64 = 256 * 1024;

/// Knobs for one execution.
#[derive(Clone)]
pub struct RunConfig {
    /// CUPTI subscribers to attach before the run (profiling tools; the
    /// debloater's kernel detector rides here). A distributed run
    /// simulates one rank per distinct device, so a subscriber sees
    /// each distinct device's rank once, not every replica of it.
    pub subscribers: Vec<Arc<dyn CuptiSubscriber>>,
    /// Steps executed in full before fast-forwarding the remainder.
    pub sample_steps: u64,
    /// Model-byte scale factor (see [`simcuda::CudaSim::with_config`]).
    pub byte_scale: u64,
    /// Virtual-time cost model.
    pub cost: CostModel,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            subscribers: Vec::new(),
            sample_steps: 2,
            byte_scale: scale::BYTE_SCALE,
            cost: CostModel::default(),
        }
    }
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("subscribers", &self.subscribers.len())
            .field("sample_steps", &self.sample_steps)
            .field("byte_scale", &self.byte_scale)
            .finish()
    }
}

/// The result of one workload execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Deterministic output checksum. Identical across reruns; identical
    /// before and after a *correct* debloat; different if any executed
    /// code byte changed.
    pub checksum: u64,
    /// Runtime metrics (merged across ranks for distributed runs).
    pub metrics: WorkloadMetrics,
}

/// FNV-1a-style order-sensitive checksum fold.
fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
}

/// One op's resolved execution recipe.
struct OpPlan {
    lib_index: usize,
    dispatch_fn: String,
    entry_kernel: Option<String>,
    launches_per_step: u32,
    compute_ns: u64,
}

/// Execute `workload` against `libraries` (a bundle's library list, or a
/// debloated copy of one).
///
/// # Errors
///
/// [`SimmlError::NoProvider`] if no library implements a required op
/// family, and [`SimmlError::Cuda`] for runtime faults — including the
/// [`simcuda::CudaError::KernelNotFound`] / `FunctionFault` integrity
/// errors an over-compacted library produces.
pub fn run_workload(
    workload: &Workload,
    libraries: &[GeneratedLibrary],
    config: &RunConfig,
) -> Result<RunOutcome> {
    run_workload_indexed(workload, libraries, None, config)
}

/// Like [`run_workload`], but opening each library through a pre-built
/// [`simelf::ElfIndex`] so per-open symbol-table parsing is skipped.
///
/// `indexes[i]` must describe `libraries[i]` — either built from it
/// directly or from the original it was compacted from (compaction
/// preserves offsets, so one index set serves the baseline, detection,
/// and verification opens). Pass `None` to parse per open.
///
/// # Errors
///
/// As [`run_workload`], plus [`SimmlError::Cuda`] wrapping
/// [`simcuda::CudaError::InvalidHandle`] for a stale index.
pub fn run_workload_indexed(
    workload: &Workload,
    libraries: &[GeneratedLibrary],
    indexes: Option<&[simelf::ElfIndex]>,
    config: &RunConfig,
) -> Result<RunOutcome> {
    let world = workload.devices.len();
    if world == 0 {
        return Err(SimmlError::InvalidWorkload {
            reason: format!("workload {} names no devices", workload.label()),
        });
    }
    // One simulation per distinct device, in first-rank order; `replica`
    // maps each rank to the simulation that stands for it.
    let mut distinct: Vec<(GpuModel, RunOutcome)> = Vec::new();
    let mut replica = Vec::with_capacity(world);
    for &device in &workload.devices {
        let index = match distinct.iter().position(|(d, _)| *d == device) {
            Some(index) => index,
            None => {
                let outcome = run_rank(workload, libraries, indexes, config, device, world)?;
                distinct.push((device, outcome));
                distinct.len() - 1
            }
        };
        replica.push(index);
    }
    let checksum = distinct[0].1.checksum;
    if let Some(rank) = replica.iter().position(|&i| distinct[i].1.checksum != checksum) {
        return Err(SimmlError::RankDivergence {
            rank,
            expected: checksum,
            actual: distinct[replica[rank]].1.checksum,
        });
    }
    let metrics = WorkloadMetrics::merge_ranks(replica.iter().map(|&i| &distinct[i].1.metrics));
    Ok(RunOutcome { checksum, metrics })
}

/// Simulate one rank of a `world`-rank run of `workload` on `device`.
fn run_rank(
    workload: &Workload,
    libraries: &[GeneratedLibrary],
    indexes: Option<&[simelf::ElfIndex]>,
    config: &RunConfig,
    device: GpuModel,
    world: usize,
) -> Result<RunOutcome> {
    let mut sim = CudaSim::with_config(&[device], config.cost, config.byte_scale);
    for sub in &config.subscribers {
        sim.subscribe(sub.clone());
    }
    let mut checksum = stable_hash(&[&workload.label()]);

    // ---- framework load: dlopen everything, load GPU modules ----------
    let mut lib_ids: Vec<LibraryId> = Vec::with_capacity(libraries.len());
    for (i, lib) in libraries.iter().enumerate() {
        lib_ids.push(match indexes.and_then(|ix| ix.get(i)) {
            Some(index) => sim.open_library_indexed(&lib.image, index)?,
            None => sim.open_library(&lib.image)?,
        });
    }
    let mut modules: HashMap<usize, ModuleId> = HashMap::new();
    for (i, lib) in libraries.iter().enumerate() {
        if lib.manifest.has_gpu_code {
            modules.insert(i, sim.load_module(lib_ids[i], 0, workload.load_mode)?);
        }
    }
    // Framework import executes every infrastructure function once.
    for (i, lib) in libraries.iter().enumerate() {
        for f in &lib.manifest.infra_fns {
            mix(&mut checksum, sim.host_call(lib_ids[i], f)?);
        }
    }

    // ---- resolve the op plan ------------------------------------------
    let mut ops = workload.model.ops(workload.operation);
    if world > 1 {
        // Distributed execution adds a collective per step.
        let family = match workload.operation {
            Operation::Train => OpFamily::AllReduce,
            Operation::Inference => OpFamily::AllGather,
        };
        ops.push(OpInstance { family, launches_per_step: 2, compute_ns: 60_000, shape_id: 0 });
    }
    let plans = resolve_plan(workload, libraries, &ops)?;

    // ---- model/state memory -------------------------------------------
    sim.alloc_host(workload.dataset.pipeline_host_mb() * MIB);
    let weights = workload.model.weights_mb() * MIB / world as u64;
    sim.alloc_device(0, weights)?;
    if workload.operation == Operation::Train {
        // Gradients plus optimizer moments.
        sim.alloc_device(0, 2 * weights)?;
    }
    let per_sample = (weights / 100).clamp(MIB, 256 * MIB);
    sim.alloc_device(0, per_sample * workload.batch_size as u64)?;
    if workload.operation == Operation::Inference && workload.inference_steps > 1 {
        // KV cache sized by decode horizon.
        sim.alloc_device(0, (workload.inference_steps as u64 * 4 * MIB) / world as u64)?;
    }

    // ---- steps: sample fully, fast-forward the rest -------------------
    let total_steps = workload.total_steps().max(1);
    let sample_steps = config.sample_steps.clamp(1, total_steps);
    let batch_bytes = workload.batch_size as u64 * BYTES_PER_SAMPLE;
    let mut handles: HashMap<String, FnHandle> = HashMap::new();
    let mut step_digest = 0u64;
    let sampling_started = sim.elapsed_ns();
    for step in 0..sample_steps {
        let mut this_step = stable_hash(&["step"]);
        sim.memcpy_h2d(0, batch_bytes)?;
        for plan in &plans {
            mix(&mut this_step, sim.host_call(lib_ids[plan.lib_index], &plan.dispatch_fn)?);
            if let Some(kernel) = &plan.entry_kernel {
                let handle = match handles.get(kernel) {
                    Some(h) => h.clone(),
                    None => {
                        let module = modules[&plan.lib_index];
                        let h = sim.get_function(module, kernel)?;
                        handles.insert(kernel.clone(), h.clone());
                        h
                    }
                };
                for _ in 0..plan.launches_per_step {
                    mix(&mut this_step, sim.launch(&handle, plan.compute_ns)?);
                }
            }
        }
        sim.synchronize();
        if step == 0 {
            step_digest = this_step;
        }
        mix(&mut checksum, this_step);
    }
    // Remainder-exact fast-forward: advancing by the *truncated*
    // per-step average would drift up to `sample_steps - 1` ns behind a
    // fully executed run for every remaining step.
    let measured_total = sim.elapsed_ns() - sampling_started;
    let remaining = total_steps - sample_steps;
    let skipped_ns =
        (u128::from(measured_total) * u128::from(remaining) / u128::from(sample_steps)) as u64;
    sim.advance_clock(skipped_ns);
    for _ in 0..remaining {
        mix(&mut checksum, step_digest);
    }

    let mut metrics = WorkloadMetrics::from_stats(&sim.stats());
    metrics.load_ns = sampling_started;
    Ok(RunOutcome { checksum, metrics })
}

/// Map each op instance to its provider library, dispatch function, and
/// (for GPU ops) entry kernel. Provider = first library in bundle order
/// offering the family; kernel/dispatch variants are selected by hashing
/// the model's variant tag and the op's shape class, which is what makes
/// different models — and train vs inference — use largely different
/// kernels while sharing dispatch code (paper Table 4).
fn resolve_plan(
    workload: &Workload,
    libraries: &[GeneratedLibrary],
    ops: &[OpInstance],
) -> Result<Vec<OpPlan>> {
    let variant = workload.model.variant_tag().to_owned();
    let op_name = workload.operation.name();
    let mut plans = Vec::with_capacity(ops.len());
    for op in ops {
        let needs_gpu = op.launches_per_step > 0;
        let lib_index = libraries
            .iter()
            .position(|lib| {
                lib.manifest.families.get(&op.family).is_some_and(|fam| {
                    !fam.dispatch_fns.is_empty()
                        && (!needs_gpu
                            || (lib.manifest.has_gpu_code && !fam.entry_kernels.is_empty()))
                })
            })
            .ok_or(SimmlError::NoProvider { family: op.family.token() })?;
        let fam = &libraries[lib_index].manifest.families[&op.family];
        let shape = op.shape_id.to_string();
        let d = stable_hash(&[&variant, op_name, op.family.token(), "dispatch", &shape]);
        let dispatch_fn = fam.dispatch_fns[(d % fam.dispatch_fns.len() as u64) as usize].clone();
        let entry_kernel = needs_gpu.then(|| {
            let k = stable_hash(&[&variant, op_name, op.family.token(), "kernel", &shape]);
            fam.entry_kernels[(k % fam.entry_kernels.len() as u64) as usize].clone()
        });
        plans.push(OpPlan {
            lib_index,
            dispatch_fn,
            entry_kernel,
            launches_per_step: op.launches_per_step,
            compute_ns: op.compute_ns,
        });
    }
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::cached_bundle;
    use crate::model::ModelKind;
    use crate::spec::FrameworkKind;
    use simcuda::cupti::NsysTracer;
    use simcuda::LoadMode;

    fn mobilenet_infer() -> Workload {
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference)
    }

    #[test]
    fn runs_are_deterministic() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = mobilenet_infer();
        let a = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        let b = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_eq!(a, b);
        assert!(a.metrics.launches > 0);
        assert!(a.metrics.elapsed_ns > 0);
        assert!(a.metrics.peak_device_bytes[0] > 0);
    }

    #[test]
    fn train_and_inference_use_different_kernels() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let train =
            Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Train);
        let infer = mobilenet_infer();
        let a = run_workload(&train, bundle.libraries(), &RunConfig::default()).unwrap();
        let b = run_workload(&infer, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_ne!(a.checksum, b.checksum);
        assert!(a.metrics.get_function_calls > b.metrics.get_function_calls);
    }

    #[test]
    fn kernels_resolve_once_regardless_of_steps() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = mobilenet_infer();
        let one = RunConfig { sample_steps: 1, ..RunConfig::default() };
        // Fully execute all 64 steps so the handle cache is what keeps
        // the resolution count flat.
        let many = RunConfig { sample_steps: 64, ..RunConfig::default() };
        let a = run_workload(&w, bundle.libraries(), &one).unwrap();
        let mut w2 = w.clone();
        w2.inference_steps = 64;
        let b = run_workload(&w2, bundle.libraries(), &many).unwrap();
        assert_eq!(
            a.metrics.get_function_calls, b.metrics.get_function_calls,
            "get_function fires once per kernel, not per step"
        );
    }

    #[test]
    fn fast_forward_clock_matches_full_execution() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let mut w = mobilenet_infer();
        w.inference_steps = 64;
        // 3 does not divide the 61 fast-forwarded steps' cost evenly, so
        // truncating per-step division would fall behind the fully
        // executed clock here.
        let sampled = run_workload(
            &w,
            bundle.libraries(),
            &RunConfig { sample_steps: 3, ..RunConfig::default() },
        )
        .unwrap();
        let full = run_workload(
            &w,
            bundle.libraries(),
            &RunConfig { sample_steps: 64, ..RunConfig::default() },
        )
        .unwrap();
        assert_eq!(sampled.checksum, full.checksum, "fast-forward must not change output");
        assert_eq!(
            sampled.metrics.elapsed_ns, full.metrics.elapsed_ns,
            "fast-forwarded clock must match full execution exactly"
        );
    }

    #[test]
    fn lazy_loading_moves_less_gpu_code_than_eager() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let mut w = mobilenet_infer();
        w.load_mode = LoadMode::Eager;
        let eager = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        w.load_mode = LoadMode::Lazy;
        let lazy = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_eq!(eager.checksum, lazy.checksum, "loading mode must not change output");
        assert!(lazy.metrics.gpu_code_bytes < eager.metrics.gpu_code_bytes);
        assert!(lazy.metrics.peak_device_bytes[0] < eager.metrics.peak_device_bytes[0]);
    }

    #[test]
    fn attached_tracer_slows_the_run_but_not_its_output() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = mobilenet_infer();
        let plain = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        let tracer = Arc::new(NsysTracer::new());
        let config = RunConfig { subscribers: vec![tracer.clone()], ..RunConfig::default() };
        let traced = run_workload(&w, bundle.libraries(), &config).unwrap();
        assert_eq!(plain.checksum, traced.checksum);
        assert!(traced.metrics.elapsed_ns > plain.metrics.elapsed_ns);
        assert!(tracer.event_count() > 0);
    }

    #[test]
    fn indexed_run_matches_parsed_run_exactly() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let indexes = crate::bundle::cached_indexes(FrameworkKind::PyTorch);
        let w = mobilenet_infer();
        let plain = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        let indexed =
            run_workload_indexed(&w, bundle.libraries(), Some(&indexes), &RunConfig::default())
                .unwrap();
        assert_eq!(plain, indexed, "skipping the per-open parse must not change anything");
    }

    #[test]
    fn load_phase_is_split_out_of_total_time() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let outcome =
            run_workload(&mobilenet_infer(), bundle.libraries(), &RunConfig::default()).unwrap();
        let (load, steady) = outcome.metrics.load_time_split_ns();
        assert!(load > 0, "framework load takes time");
        assert!(steady > 0, "steps take time");
        assert_eq!(load + steady, outcome.metrics.elapsed_ns);
    }

    fn vllm_a100(world: usize) -> Workload {
        let model = ModelKind::leaderboard_top9().remove(1); // 7.7 B — cheapest
        let mut w = Workload::distributed_a100(FrameworkKind::Vllm, model);
        w.devices.truncate(world);
        w
    }

    #[test]
    fn replica_ranks_merge_one_simulated_rank_per_rank() {
        let bundle = cached_bundle(FrameworkKind::Vllm);
        let config = RunConfig::default();
        for world in [2, 3, 8] {
            let w = vllm_a100(world);
            assert_eq!(w.devices.len(), world);
            let one =
                run_rank(&w, bundle.libraries(), None, &config, GpuModel::A100, world).unwrap();
            let merged = run_workload(&w, bundle.libraries(), &config).unwrap();
            let expected = RunOutcome {
                checksum: one.checksum,
                metrics: WorkloadMetrics::merge_ranks(vec![&one.metrics; world]),
            };
            assert_eq!(merged, expected, "world {world}");
            let n = world as u64;
            assert_eq!(merged.metrics.elapsed_ns, one.metrics.elapsed_ns);
            assert_eq!(merged.metrics.load_ns, one.metrics.load_ns);
            assert_eq!(merged.metrics.peak_host_bytes, n * one.metrics.peak_host_bytes);
            assert_eq!(
                merged.metrics.peak_device_bytes,
                vec![one.metrics.peak_device_bytes[0]; world]
            );
            assert_eq!(merged.metrics.launches, n * one.metrics.launches);
            assert_eq!(merged.metrics.host_calls, n * one.metrics.host_calls);
            assert_eq!(merged.metrics.get_function_calls, n * one.metrics.get_function_calls);
            assert_eq!(merged.metrics.gpu_code_bytes, n * one.metrics.gpu_code_bytes);
        }
    }

    #[test]
    fn mixed_devices_simulate_each_distinct_device_once() {
        let bundle = cached_bundle(FrameworkKind::Vllm);
        let mut w = vllm_a100(3);
        w.devices = vec![GpuModel::A100, GpuModel::T4, GpuModel::A100];
        let rank_on = |device| {
            let tracer = Arc::new(NsysTracer::new());
            let config = RunConfig { subscribers: vec![tracer.clone()], ..RunConfig::default() };
            let outcome = run_rank(&w, bundle.libraries(), None, &config, device, 3).unwrap();
            (outcome, tracer.event_count())
        };
        let (a100, a100_events) = rank_on(GpuModel::A100);
        let (t4, t4_events) = rank_on(GpuModel::T4);
        assert_eq!(a100.checksum, t4.checksum, "output does not depend on the GPU");

        let tracer = Arc::new(NsysTracer::new());
        let config = RunConfig { subscribers: vec![tracer.clone()], ..RunConfig::default() };
        let merged = run_workload(&w, bundle.libraries(), &config).unwrap();
        let expected = WorkloadMetrics::merge_ranks([&a100.metrics, &t4.metrics, &a100.metrics]);
        assert_eq!(merged, RunOutcome { checksum: a100.checksum, metrics: expected });
        assert_eq!(tracer.event_count(), a100_events + t4_events, "two distinct devices, two runs");
    }

    #[test]
    fn a_shared_subscriber_sees_one_rank_of_a_replicated_run() {
        let bundle = cached_bundle(FrameworkKind::Vllm);
        let w = vllm_a100(8);
        let tracer = Arc::new(NsysTracer::new());
        let config = RunConfig { subscribers: vec![tracer.clone()], ..RunConfig::default() };
        let traced = run_workload(&w, bundle.libraries(), &config).unwrap();
        assert!(tracer.event_count() > 0, "the shared subscriber saw no events");
        let recorded = tracer.take_events().len();

        run_rank(&w, bundle.libraries(), None, &config, GpuModel::A100, 8).unwrap();
        assert_eq!(recorded, tracer.event_count(), "one simulated rank stands for all eight");
        let plain = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_eq!(plain.checksum, traced.checksum);
        assert!(traced.metrics.elapsed_ns > plain.metrics.elapsed_ns);
    }

    #[test]
    fn distributed_ranks_agree_and_report_eight_devices() {
        let bundle = cached_bundle(FrameworkKind::Vllm);
        let w = vllm_a100(8);
        let outcome = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_eq!(outcome.metrics.peak_device_bytes.len(), 8);
        assert!(outcome.metrics.launches > 0);
    }

    #[test]
    fn empty_device_list_is_an_error_not_a_panic() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let mut w = mobilenet_infer();
        w.devices.clear();
        let err = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap_err();
        assert!(matches!(err, SimmlError::InvalidWorkload { .. }));
    }

    #[test]
    fn missing_provider_is_reported() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        // Only host-only libraries: GPU ops cannot resolve.
        let hostonly: Vec<GeneratedLibrary> =
            bundle.libraries().iter().filter(|l| !l.manifest.has_gpu_code).cloned().collect();
        let err = run_workload(&mobilenet_infer(), &hostonly, &RunConfig::default()).unwrap_err();
        assert!(matches!(err, SimmlError::NoProvider { .. }));
    }
}
