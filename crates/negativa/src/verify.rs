//! Stage 4 — verification.
//!
//! Re-runs the workload on the compacted bundle and demands *identical
//! output*. Two failure modes are distinguished:
//!
//! * **Integrity faults** — the runtime hits a zeroed host function
//!   ([`simcuda::CudaError::FunctionFault`]) or cannot resolve a kernel
//!   ([`simcuda::CudaError::KernelNotFound`]): location removed code the
//!   workload needs. Reported as [`NegativaError::OverCompaction`].
//! * **Silent divergence** — the run completes but its output checksum
//!   differs from the original bundle's. Reported as
//!   [`NegativaError::ChecksumMismatch`].
//!
//! Either way the debloated bundle must be rejected; a clean pass is the
//! paper's correctness guarantee that debloating preserved workload
//! behavior.
//!
//! This module is the single-run primitive. Multi-workload
//! orchestration — deduplicating re-runs by `(workload, config)`
//! fingerprint and fanning the unique ones through the bounded
//! [`crate::WorkerPool`] — lives in
//! [`DebloatSession::verify_all`](crate::DebloatSession::verify_all),
//! which calls [`verify_indexed`] once per unique workload.

use simelf::ElfIndex;
use simml::{run_workload_indexed, GeneratedLibrary, RunConfig, RunOutcome, SimmlError, Workload};

use crate::error::NegativaError;
use crate::Result;

/// Run `workload` on a debloated library set and check its output
/// against the original bundle's `expected_checksum`.
///
/// Returns the verification run's outcome (its metrics are the paper's
/// "after debloating" measurements). With `indexes`, each library opens
/// through a pre-built [`ElfIndex`]; `None` parses every open. Indexes
/// built from the *original* bundle remain valid here: compaction
/// zeroes in place and never moves offsets, so the session's parse-once
/// views serve the verification open too.
///
/// # Errors
///
/// [`NegativaError::OverCompaction`], [`NegativaError::ChecksumMismatch`],
/// or [`NegativaError::Workload`] for faults unrelated to compaction.
pub fn verify_indexed(
    workload: &Workload,
    debloated: &[GeneratedLibrary],
    indexes: Option<&[ElfIndex]>,
    expected_checksum: u64,
    config: &RunConfig,
) -> Result<RunOutcome> {
    let outcome = run_workload_indexed(workload, debloated, indexes, config)
        .map_err(|e| classify_run_error(workload, e))?;
    if outcome.checksum != expected_checksum {
        return Err(NegativaError::ChecksumMismatch {
            workload: workload.label(),
            expected: expected_checksum,
            actual: outcome.checksum,
        });
    }
    Ok(outcome)
}

/// Map an executor error from a verification run to its debloater
/// meaning: integrity faults are over-compaction, a rank whose checksum
/// diverged from rank 0's is semantic breakage (a checksum mismatch
/// naming the rank), and anything else is a plain workload failure.
fn classify_run_error(workload: &Workload, e: SimmlError) -> NegativaError {
    match e {
        SimmlError::Cuda(
            source @ (simcuda::CudaError::FunctionFault { .. }
            | simcuda::CudaError::KernelNotFound { .. }),
        ) => NegativaError::OverCompaction { source },
        SimmlError::RankDivergence { rank, expected, actual } => NegativaError::ChecksumMismatch {
            workload: format!("{} (rank {rank} vs rank 0)", workload.label()),
            expected,
            actual,
        },
        other => NegativaError::Workload(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatbin::extract_from_elf;
    use simml::{cached_bundle, run_workload, FrameworkKind, ModelKind, Operation};

    fn workload() -> Workload {
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference)
    }

    #[test]
    fn unmodified_bundle_verifies_against_its_own_checksum() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = workload();
        let config = RunConfig::default();
        let baseline = run_workload(&w, bundle.libraries(), &config).unwrap();
        let verified =
            verify_indexed(&w, bundle.libraries(), None, baseline.checksum, &config).unwrap();
        assert_eq!(verified.checksum, baseline.checksum);
    }

    #[test]
    fn indexed_verification_matches_plain() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let indexes = simml::cached_indexes(FrameworkKind::PyTorch);
        let w = workload();
        let config = RunConfig::default();
        let baseline = run_workload(&w, bundle.libraries(), &config).unwrap();
        let plain =
            verify_indexed(&w, bundle.libraries(), None, baseline.checksum, &config).unwrap();
        let indexed =
            verify_indexed(&w, bundle.libraries(), Some(&indexes), baseline.checksum, &config)
                .unwrap();
        assert_eq!(plain, indexed);
    }

    #[test]
    fn rank_divergence_is_a_checksum_mismatch_not_a_generic_failure() {
        let w = workload();
        let e = SimmlError::RankDivergence { rank: 5, expected: 0x11, actual: 0x22 };
        match classify_run_error(&w, e) {
            NegativaError::ChecksumMismatch { workload, expected, actual } => {
                assert!(workload.contains("rank 5"), "{workload}");
                assert!(workload.contains("MobileNetV2"), "{workload}");
                assert_eq!(expected, 0x11);
                assert_eq!(actual, 0x22);
            }
            other => panic!("expected ChecksumMismatch, got {other}"),
        }
        // Non-integrity errors still pass through as workload failures.
        let e = SimmlError::NoProvider { family: "gemm" };
        assert!(matches!(classify_run_error(&w, e), NegativaError::Workload(_)));
    }

    #[test]
    fn wrong_expected_checksum_is_a_mismatch() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = workload();
        let config = RunConfig::default();
        let err = verify_indexed(&w, bundle.libraries(), None, 0xdead_beef, &config).unwrap_err();
        assert!(matches!(err, NegativaError::ChecksumMismatch { .. }));
    }

    #[test]
    fn wiping_all_device_code_is_over_compaction() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = workload();
        let config = RunConfig::default();
        let baseline = run_workload(&w, bundle.libraries(), &config).unwrap();
        // Simulate a catastrophically wrong location stage: zero every
        // element payload in every GPU library.
        let broken: Vec<GeneratedLibrary> = bundle
            .libraries()
            .iter()
            .map(|lib| {
                let mut lib = lib.clone();
                if lib.manifest.has_gpu_code {
                    let (listing, _) = extract_from_elf(lib.image.bytes()).unwrap();
                    for item in &listing {
                        lib.image.zero_range(item.payload_range).unwrap();
                    }
                }
                lib
            })
            .collect();
        let err = verify_indexed(&w, &broken, None, baseline.checksum, &config).unwrap_err();
        assert!(
            matches!(
                &err,
                NegativaError::OverCompaction { source: simcuda::CudaError::KernelNotFound { .. } }
            ),
            "got {err}"
        );
    }
}
