//! Stage 3 — compaction.
//!
//! Applies a [`RetainPlan`] by zeroing the marked byte ranges *in
//! place*: offsets never move, headers stay walkable, and the compacted
//! library remains loadable by the unmodified runtime — which is what
//! lets debloated libraries drop in for the originals. Savings
//! materialize as page-granular occupancy (hole-punchable file blocks
//! and untouched resident pages), measured here before and after so the
//! analysis stage can report reductions without re-scanning.
//!
//! Fleet-scoped plans (multi-member [`fatbin::FleetSpec`]s) additionally
//! carry [`ElementRewrite`](crate::locate::ElementRewrite)s, applied
//! here after the zeroing pass:
//!
//! * **Arch slices** — elements removed because no fleet member could
//!   execute them get [`fatbin::Element::SLICED_FLAG`] OR-ed into their
//!   header flags byte (the payload was already zeroed); the flag
//!   records *why* the hole exists.
//! * **Compressed slices** — kept compressed elements carrying unused
//!   kernels are rewritten in place: decompress, zero unreachable
//!   kernel code, recompress, write the (never longer) stream back at
//!   the start of the original payload slot and zero the tail. The
//!   element still parses, still lists every kernel, and still decodes
//!   — [`fatbin::compress::rle_decompress`] tolerates the zero padding.
//!
//! This is also the **single mutation site** of the pipeline's
//! copy-on-write byte-ownership model: [`simelf::ElfImage`] bytes are
//! shared handles everywhere else, and the clone taken here is a
//! reference-count bump that only turns into a deep copy when a write
//! actually lands (`Arc::make_mut`-style unsharing inside
//! [`simelf::ElfImage::zero_range`] / [`simelf::ElfImage::write_range`]).
//! A plan with nothing to zero or rewrite hands the input bytes back
//! shared. [`CompactionOutcome::bytes_copied`] /
//! [`CompactionOutcome::bytes_shared`] record which of the two happened.

use std::collections::HashSet;

use fatbin::slice_compressed_payload;
use simelf::{ElfImage, FileRange};

use crate::error::NegativaError;
use crate::locate::{RetainPlan, RewriteKind};
use crate::Result;

/// Page size used for occupancy accounting (matches the loader's).
const PAGE: u64 = 4096;

/// Occupancy deltas of one compaction, in real bytes at page granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionOutcome {
    /// Whole-file occupied bytes before.
    pub file_before: u64,
    /// Whole-file occupied bytes after.
    pub file_after: u64,
    /// `.text` occupied bytes before.
    pub host_before: u64,
    /// `.text` occupied bytes after.
    pub host_after: u64,
    /// `.nv_fatbin` occupied bytes before.
    pub device_before: u64,
    /// `.nv_fatbin` occupied bytes after.
    pub device_after: u64,
    /// Bytes deep-copied to detach the compacted image from the shared
    /// input (the whole file, exactly once, iff the plan wrote
    /// anything).
    pub bytes_copied: u64,
    /// Bytes the compacted image still shares with the input (the whole
    /// file iff the plan had nothing to write — the untouched-library
    /// fast path).
    pub bytes_shared: u64,
    /// Payload bytes of elements removed because their architecture runs
    /// on no fleet member (always 0 for single-member fleets).
    pub bytes_sliced_arch: u64,
    /// Non-zero bytes eliminated by in-place compressed-element rewrites
    /// (always 0 for single-member fleets).
    pub bytes_sliced_compressed: u64,
    /// Number of compressed elements rewritten in place.
    pub compressed_rewritten: u64,
}

/// Produce the compacted copy of `image` according to `plan`.
///
/// The input image is left untouched (verification may need to fall back
/// to it); the returned image carries the same soname so the runtime's
/// usage attribution keeps working. Plans from single-member fleets
/// carry no rewrites, so their output is byte-identical to plain
/// range-zeroing.
///
/// # Errors
///
/// [`NegativaError::Elf`] if a plan range falls outside the image — a
/// location bug, never a data-dependent condition.
/// [`NegativaError::Fatbin`] if a compressed-slice rewrite finds a
/// corrupt payload stream.
pub fn compact(image: &ElfImage, plan: &RetainPlan) -> Result<(ElfImage, CompactionOutcome)> {
    let mut outcome = CompactionOutcome {
        file_before: image.occupied_bytes_in(FileRange::new(0, image.len()), PAGE),
        ..Default::default()
    };
    if let Some(text) = plan.text_range {
        outcome.host_before = image.occupied_bytes_in(text, PAGE);
    }
    if let Some(fatbin) = plan.fatbin_range {
        outcome.device_before = image.occupied_bytes_in(fatbin, PAGE);
    }

    // Reference-count bump, not a byte copy: the deep copy (if any)
    // happens inside the first effective write via copy-on-write.
    let mut compacted = image.clone();
    compacted.zero_ranges(&plan.zero_host).map_err(NegativaError::Elf)?;
    compacted.zero_ranges(&plan.zero_device).map_err(NegativaError::Elf)?;

    for rewrite in &plan.rewrites {
        match &rewrite.kind {
            RewriteKind::ArchSlice => {
                // Payload already zeroed by the pass above; record why
                // by setting the sliced bit in the header flags byte.
                let at = rewrite.flags_offset as usize;
                let current = compacted.bytes().get(at).copied().ok_or_else(|| {
                    NegativaError::Elf(simelf::ElfError::RangeOutOfBounds {
                        start: rewrite.flags_offset,
                        end: rewrite.flags_offset + 1,
                        len: compacted.len(),
                    })
                })?;
                compacted
                    .write_range(rewrite.flags_offset, &[current | fatbin::Element::SLICED_FLAG])
                    .map_err(NegativaError::Elf)?;
                outcome.bytes_sliced_arch += rewrite.payload_range.len();
            }
            RewriteKind::CompressedSlice { uncompressed_size, used_kernels } => {
                let (start, end) =
                    (rewrite.payload_range.start as usize, rewrite.payload_range.end as usize);
                if end > compacted.len() as usize || start > end {
                    return Err(NegativaError::Elf(simelf::ElfError::RangeOutOfBounds {
                        start: rewrite.payload_range.start,
                        end: rewrite.payload_range.end,
                        len: compacted.len(),
                    }));
                }
                let payload = compacted.bytes()[start..end].to_vec();
                let used: HashSet<String> = used_kernels.iter().cloned().collect();
                // None = nothing to gain (launch closures cover every
                // kernel, or the stream would not fit the slot): leave
                // the element untouched, never pay for a copy.
                let Some(sliced) = slice_compressed_payload(&payload, *uncompressed_size, &used)
                    .map_err(NegativaError::Fatbin)?
                else {
                    continue;
                };
                let before = compacted.nonzero_in(rewrite.payload_range);
                compacted
                    .write_range(rewrite.payload_range.start, &sliced.stream)
                    .map_err(NegativaError::Elf)?;
                let tail = FileRange::new(
                    rewrite.payload_range.start + sliced.stream.len() as u64,
                    rewrite.payload_range.end,
                );
                compacted.zero_range(tail).map_err(NegativaError::Elf)?;
                let after = compacted.nonzero_in(rewrite.payload_range);
                outcome.bytes_sliced_compressed += before.saturating_sub(after);
                outcome.compressed_rewritten += 1;
            }
        }
    }

    if compacted.shares_bytes_with(image) {
        outcome.bytes_shared = image.len();
    } else {
        outcome.bytes_copied = image.len();
    }

    outcome.file_after = compacted.occupied_bytes_in(FileRange::new(0, compacted.len()), PAGE);
    if let Some(text) = plan.text_range {
        outcome.host_after = compacted.occupied_bytes_in(text, PAGE);
    }
    if let Some(fatbin) = plan.fatbin_range {
        outcome.device_after = compacted.occupied_bytes_in(fatbin, PAGE);
    }
    Ok((compacted, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::UsageMap;
    use crate::locate::locate;
    use fatbin::{Cubin, Element, Fatbin, FleetSpec, KernelDef, Region, SmArch};
    use simelf::{Elf, ElfBuilder};

    fn sample() -> ElfImage {
        let used = Cubin::new(vec![KernelDef::entry("gemm", vec![0x11; 2000])]).unwrap();
        let unused = Cubin::new(vec![KernelDef::entry("never", vec![0x13; 5000])]).unwrap();
        let elements = vec![
            Element::cubin(SmArch::SM75, &used).unwrap(),
            Element::cubin(SmArch::SM75, &unused).unwrap(),
        ];
        ElfBuilder::new("libc.so")
            .function("used_fn", vec![0x90; 800])
            .function("cold_fn", vec![0x91; 9000])
            .fatbin(Fatbin::new(vec![Region::new(elements)]).to_bytes())
            .build()
            .unwrap()
    }

    fn usage() -> UsageMap {
        let mut u = UsageMap::new();
        u.record_kernel("libc.so", "gemm");
        u.record_host_fn("libc.so", "used_fn");
        u
    }

    fn sm75() -> FleetSpec {
        FleetSpec::single(SmArch::SM75)
    }

    /// A library exercising both rewrite kinds under a {sm_75, sm_80}
    /// fleet: a kept compressed element carrying an unused kernel, a
    /// foreign-architecture (sm_86) flavor of the same group, and an
    /// unused-but-compatible group.
    fn fleet_sample() -> ElfImage {
        let mixed = Cubin::new(vec![
            KernelDef::entry("gemm", vec![0x21; 2000]).with_callees(vec![1]),
            KernelDef::device("gemm_tail", vec![0x22; 500]),
            KernelDef::entry("never_hot", vec![0x23; 3000]),
        ])
        .unwrap();
        let unused = Cubin::new(vec![KernelDef::entry("never", vec![0x13; 1000])]).unwrap();
        let elements = vec![
            Element::cubin_compressed(SmArch::SM75, &mixed).unwrap(),
            Element::cubin_compressed(SmArch::SM86, &mixed).unwrap(),
            Element::cubin(SmArch::SM75, &unused).unwrap(),
        ];
        ElfBuilder::new("libc.so")
            .function("used_fn", vec![0x90; 800])
            .fatbin(Fatbin::new(vec![Region::new(elements)]).to_bytes())
            .build()
            .unwrap()
    }

    #[test]
    fn compaction_shrinks_occupancy_without_resizing() {
        let image = sample();
        let plan = locate(&image, &usage(), sm75()).unwrap();
        let (compacted, outcome) = compact(&image, &plan).unwrap();
        assert_eq!(compacted.len(), image.len(), "offsets never move");
        assert!(outcome.file_after < outcome.file_before);
        assert!(outcome.host_after < outcome.host_before);
        assert!(outcome.device_after < outcome.device_before);
        assert!(outcome.host_after > 0, "used function keeps its page");
        assert!(outcome.device_after > 0, "used element keeps its pages");
    }

    #[test]
    fn compacted_image_still_parses_and_loads() {
        let image = sample();
        let plan = locate(&image, &usage(), sm75()).unwrap();
        let (compacted, _) = compact(&image, &plan).unwrap();
        // ELF structure intact.
        let elf = Elf::parse(compacted.bytes()).unwrap();
        assert_eq!(elf.symbols().unwrap().len(), 2);
        // The runtime opens it and resolves the retained kernel; the
        // removed one is gone.
        let mut sim = simcuda::CudaSim::new(&[simcuda::GpuModel::T4]);
        let lib = sim.open_library(&compacted).unwrap();
        let module = sim.load_module(lib, 0, simcuda::LoadMode::Eager).unwrap();
        assert!(sim.get_function(module, "gemm").is_ok());
        assert!(matches!(
            sim.get_function(module, "never"),
            Err(simcuda::CudaError::KernelNotFound { .. })
        ));
        assert!(sim.host_call(lib, "used_fn").is_ok());
        assert!(matches!(
            sim.host_call(lib, "cold_fn"),
            Err(simcuda::CudaError::FunctionFault { .. })
        ));
    }

    #[test]
    fn original_image_is_untouched() {
        let image = sample();
        let before = image.bytes().to_vec();
        let plan = locate(&image, &usage(), sm75()).unwrap();
        let _ = compact(&image, &plan).unwrap();
        assert_eq!(image.bytes(), before.as_slice());
    }

    #[test]
    fn an_effective_plan_copies_the_image_exactly_once() {
        let image = sample();
        let plan = locate(&image, &usage(), sm75()).unwrap();
        let (compacted, outcome) = compact(&image, &plan).unwrap();
        assert!(!compacted.shares_bytes_with(&image), "zeroing must detach the copy");
        assert_eq!(outcome.bytes_copied, image.len());
        assert_eq!(outcome.bytes_shared, 0);
    }

    #[test]
    fn a_plan_with_nothing_to_zero_shares_the_input_bytes() {
        let image = sample();
        let mut plan = locate(&image, &usage(), sm75()).unwrap();
        plan.zero_host.clear();
        plan.zero_device.clear();
        let (compacted, outcome) = compact(&image, &plan).unwrap();
        assert!(compacted.shares_bytes_with(&image), "no write, no copy");
        assert_eq!(compacted.bytes(), image.bytes());
        assert_eq!(outcome.bytes_copied, 0);
        assert_eq!(outcome.bytes_shared, image.len());
        assert_eq!(outcome.file_after, outcome.file_before);
    }

    #[test]
    fn single_member_fleet_is_byte_identical_to_plain_zeroing() {
        // The pre-fleet pipeline was exactly "zero the planned ranges":
        // pin that a single-member fleet still produces those bytes and
        // nothing else (no flags set, no rewrites, no slicing counters).
        let image = sample();
        let plan = locate(&image, &usage(), sm75()).unwrap();
        assert!(plan.rewrites.is_empty());
        let (compacted, outcome) = compact(&image, &plan).unwrap();
        let mut expected = image.clone();
        expected.zero_ranges(&plan.zero_host).unwrap();
        expected.zero_ranges(&plan.zero_device).unwrap();
        assert_eq!(compacted.bytes(), expected.bytes());
        assert_eq!(outcome.bytes_sliced_arch, 0);
        assert_eq!(outcome.bytes_sliced_compressed, 0);
        assert_eq!(outcome.compressed_rewritten, 0);
    }

    #[test]
    fn fleet_compaction_flags_arch_slices_and_rewrites_compressed_elements() {
        let image = fleet_sample();
        let fleet = FleetSpec::new(&[SmArch::SM75, SmArch::SM80]).unwrap();
        let plan = locate(&image, &usage(), fleet).unwrap();
        let (compacted, outcome) = compact(&image, &plan).unwrap();
        assert_eq!(compacted.len(), image.len(), "offsets never move");

        // The sm_86 flavor runs on no fleet member: zeroed + flagged.
        let (listing, _) = fatbin::extract_from_elf(compacted.bytes()).unwrap();
        assert_eq!(listing.len(), 3);
        let elf = Elf::parse(compacted.bytes()).unwrap();
        let fbr = elf.section_by_name(simelf::types::names::NV_FATBIN).unwrap().file_range();
        let fb = Fatbin::parse(&compacted.bytes()[fbr.start as usize..fbr.end as usize])
            .expect("compacted fatbin must stay parseable");
        let els: Vec<_> = fb.elements().collect();
        assert!(els[1].1.is_sliced(), "sm_86 element flagged");
        assert!(els[1].1.is_cleared(), "sm_86 payload zeroed");
        assert!(!els[2].1.is_sliced(), "unused-but-compatible group not flagged");
        assert!(els[2].1.is_cleared(), "unused group still zeroed");
        assert_eq!(outcome.bytes_sliced_arch, listing[1].payload_range.len());

        // The kept sm_75 element was rewritten in place: still decodes,
        // still lists every kernel, unused entry code zeroed.
        assert_eq!(outcome.compressed_rewritten, 1);
        assert!(outcome.bytes_sliced_compressed > 0);
        let kept = els[0].1;
        assert!(kept.is_compressed() && !kept.is_cleared() && !kept.is_sliced());
        let cubin = kept.decode_cubin().unwrap();
        assert_eq!(cubin.kernel_names(), ["gemm", "gemm_tail", "never_hot"]);
        assert!(cubin.kernels()[0].code.iter().any(|&b| b != 0), "used kernel intact");
        assert!(cubin.kernels()[1].code.iter().any(|&b| b != 0), "launch closure intact");
        assert!(cubin.kernels()[2].code.iter().all(|&b| b == 0), "unused kernel sliced");

        // The rewritten library still loads and runs on a fleet GPU.
        let mut sim = simcuda::CudaSim::new(&[simcuda::GpuModel::T4]);
        let lib = sim.open_library(&compacted).unwrap();
        let module = sim.load_module(lib, 0, simcuda::LoadMode::Eager).unwrap();
        assert!(sim.get_function(module, "gemm").is_ok());
    }

    #[test]
    fn fleet_compaction_is_idempotent_across_replanning() {
        // Re-locating the already-compacted image must not find new work:
        // the rewritten compressed element still decodes and keeps its
        // selection, so a second compaction is a byte-level no-op.
        let image = fleet_sample();
        let fleet = FleetSpec::new(&[SmArch::SM75, SmArch::SM80]).unwrap();
        let plan = locate(&image, &usage(), fleet).unwrap();
        let (compacted, _) = compact(&image, &plan).unwrap();
        let plan2 = locate(&compacted, &usage(), fleet).unwrap();
        let (again, outcome2) = compact(&compacted, &plan2).unwrap();
        assert_eq!(again.bytes(), compacted.bytes());
        assert_eq!(outcome2.compressed_rewritten, 0, "nothing left to rewrite");
    }

    #[test]
    fn out_of_bounds_plan_is_rejected() {
        let image = sample();
        let mut plan = locate(&image, &usage(), sm75()).unwrap();
        plan.zero_host.push(simelf::FileRange::new(0, image.len() + 1));
        assert!(matches!(compact(&image, &plan), Err(NegativaError::Elf(_))));
    }
}
