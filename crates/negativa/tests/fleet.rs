//! Acceptance tests of fleet-scoped debloating: a multi-architecture
//! fleet keeps the best compatible SASS flavor per member, slices
//! elements no member can run (payload zeroed *and* header-flagged),
//! rewrites kept compressed elements in place with their unused kernels
//! removed — and the whole thing survives a cold reopen out of a
//! registry.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use fatbin::{extract_from_elf, ElementKind};
use negativa_ml::{Debloater, FleetSpec, PlanCache, Registry, SmArch};
use simcuda::GpuModel;
use simml::{FrameworkKind, ModelKind, Operation, Workload};

fn workloads() -> Vec<Workload> {
    vec![
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Train),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference),
    ]
}

/// The paper's deployment fleet for these tests: a T4 session widened
/// by A100 and H100 architectures.
fn fleet() -> FleetSpec {
    FleetSpec::new(&[SmArch::SM80, SmArch::SM90]).unwrap()
}

fn test_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("negativa-fleet-{}-{name}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    root
}

#[test]
fn a_three_arch_fleet_slices_foreign_arches_and_rewrites_compressed_elements() {
    let debloater = Debloater::new(GpuModel::T4)
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .with_fleet(fleet());
    assert_eq!(
        debloater.fleet(),
        FleetSpec::new(&[SmArch::SM75, SmArch::SM80, SmArch::SM90]).unwrap(),
        "the session GPU's architecture is always folded into the fleet"
    );

    let artifact =
        debloater.session(FrameworkKind::PyTorch).debloat_many_artifact(&workloads()).unwrap();
    let (report, libraries) = (artifact.report, artifact.libraries);
    assert!(report.all_verified(), "every workload reproduces its baseline on the session GPU");

    // The fleet-slicing accounting is threaded end to end and non-zero
    // over the paper's six-architecture library set.
    let totals = report.totals();
    assert!(totals.bytes_sliced_arch > 0, "sm_86/sm_89 flavors must be arch-sliced");
    assert!(totals.compressed_rewritten >= 1, "at least one compressed element is rewritten");
    assert!(totals.bytes_sliced_compressed > 0, "rewrites eliminate non-zero payload bytes");
    assert_eq!(
        totals.fleet_slice_bytes_removed(),
        totals.bytes_sliced_arch + totals.bytes_sliced_compressed
    );

    // Inspect the compacted images: every surviving cubin flavor targets
    // a fleet member, and every arch-sliced element targets one of the
    // architectures outside the fleet.
    let members = [SmArch::SM75, SmArch::SM80, SmArch::SM90];
    let mut sliced_seen = 0usize;
    let mut kept_per_member = [false; 3];
    for lib in &libraries {
        let Ok((listing, _)) = extract_from_elf(lib.image.bytes()) else { continue };
        for item in listing.iter().filter(|i| i.kind == ElementKind::Cubin) {
            if item.sliced {
                sliced_seen += 1;
                assert!(item.cleared, "sliced elements are also zeroed");
                assert!(
                    item.arch == SmArch::SM86 || item.arch == SmArch::SM89,
                    "{:?} runs on a fleet member and must never be arch-sliced",
                    item.arch
                );
            } else if !item.cleared {
                assert!(
                    members.contains(&item.arch),
                    "kept flavor {:?} serves no fleet member",
                    item.arch
                );
                for (slot, member) in kept_per_member.iter_mut().zip(members) {
                    if item.arch == member {
                        *slot = true;
                    }
                }
            }
        }
    }
    assert!(sliced_seen > 0, "the six-arch library set must yield arch-sliced elements");
    assert_eq!(kept_per_member, [true; 3], "every fleet member keeps its own best flavor");
}

#[test]
fn a_single_member_fleet_is_byte_identical_to_the_default_path() {
    let plain = Debloater::new(GpuModel::T4).with_plan_cache(Arc::new(PlanCache::new(4)));
    let single = Debloater::new(GpuModel::T4)
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .with_fleet(FleetSpec::single(GpuModel::T4.arch()));
    assert_eq!(plain.fleet(), single.fleet());

    let plain = plain.session(FrameworkKind::PyTorch).debloat_many_artifact(&workloads()).unwrap();
    let single =
        single.session(FrameworkKind::PyTorch).debloat_many_artifact(&workloads()).unwrap();
    let (plain_report, plain_libs) = (plain.report, plain.libraries);
    let (single_report, single_libs) = (single.report, single.libraries);
    assert_eq!(plain_libs, single_libs, "a single-member fleet must not change a single byte");
    let totals = single_report.totals();
    assert_eq!(totals.bytes_sliced_arch, 0);
    assert_eq!(totals.bytes_sliced_compressed, 0);
    assert_eq!(totals.compressed_rewritten, 0);
    assert_eq!(plain_report.totals(), single_report.totals());
}

#[test]
fn one_fleet_artifact_occupies_less_than_three_single_arch_artifacts() {
    // The scenario of the `bench` binary's fleet-size floor: the host code
    // and PTX ship once in a fleet artifact, not once per deployment GPU.
    let workload =
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference);
    let fleet_debloater = Debloater::new(GpuModel::T4)
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .with_fleet(fleet());
    let fleet_report = fleet_debloater.debloat_many(std::slice::from_ref(&workload)).unwrap();
    assert!(fleet_report.all_verified());
    let fleet_bytes = fleet_report.totals().file_after;

    let single_arch_bytes: u64 = [GpuModel::T4, GpuModel::A100, GpuModel::H100]
        .into_iter()
        .map(|gpu| {
            let single = Debloater::new(gpu).with_plan_cache(Arc::new(PlanCache::new(4)));
            let report = single.debloat_many(std::slice::from_ref(&workload)).unwrap();
            assert!(report.all_verified(), "{gpu:?}");
            report.totals().file_after
        })
        .sum();
    assert!(
        fleet_bytes < single_arch_bytes,
        "one fleet artifact ({fleet_bytes} B) must undercut three single-arch artifacts \
         ({single_arch_bytes} B)"
    );
}

#[test]
fn fleet_accounting_survives_a_cold_store_reopen_and_reverification() {
    let root = test_root("cold-reopen");
    let debloater = Debloater::new(GpuModel::T4)
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .with_fleet(fleet());
    let artifact = debloater
        .session(FrameworkKind::PyTorch)
        .debloat_many_artifact(&workloads())
        .expect("the fleet debloat verifies");
    assert!(
        artifact.key.artifact_id().contains("sm75x80x90"),
        "the artifact identity names the fleet: {}",
        artifact.key.artifact_id()
    );
    let totals = artifact.report.totals();
    assert!(totals.fleet_slice_bytes_removed() > 0);

    let record =
        Registry::at(&root).publish(&artifact).expect("publishing the fleet artifact succeeds");

    // Cold consumer: a fresh Registry handle reconstructs the
    // fleet-scoped identity and the per-library slicing counters from
    // disk alone.
    let opened =
        Registry::at(&root).open(&record.artifact_id).expect("the published artifact opens cold");
    let manifest = opened.manifest();
    assert_eq!(manifest.key, artifact.key);
    assert_eq!(manifest.key.fleet, debloater.fleet());
    let (mut arch, mut compressed, mut rewritten) = (0u64, 0u64, 0u64);
    for entry in &manifest.entries {
        arch += entry.report.bytes_sliced_arch;
        compressed += entry.report.bytes_sliced_compressed;
        rewritten += entry.report.compressed_rewritten;
    }
    assert_eq!(arch, totals.bytes_sliced_arch);
    assert_eq!(compressed, totals.bytes_sliced_compressed);
    assert_eq!(rewritten, totals.compressed_rewritten);

    // Out-of-process-style re-verification: every content hash checks
    // out and every contributing workload reproduces its baseline from
    // the sliced, rewritten bytes.
    let verification = Registry::at(&root)
        .verify(&record.artifact_id)
        .expect("the fleet artifact re-verifies cold");
    assert!(verification.all_verified());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_three_arch_fleet_plan_decodes_field_for_field_from_a_cold_store() {
    // The fleet plan is the largest document the repository writes; it
    // must come back from `plan.json` exactly as it was planned.
    let root = test_root("plan-identity");
    let debloater = Debloater::new(GpuModel::T4)
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .with_fleet(fleet());
    let artifact = debloater
        .session(FrameworkKind::PyTorch)
        .debloat_many_artifact(&workloads())
        .expect("the fleet debloat verifies");
    assert_eq!(artifact.key.fleet.members().len(), 3);

    let record =
        Registry::at(&root).publish(&artifact).expect("publishing the fleet artifact succeeds");
    let plan = Registry::at(&root)
        .open(&record.artifact_id)
        .unwrap()
        .load_plan()
        .expect("plan.json decodes");
    assert_eq!(plan, *artifact.plan);
    fs::remove_dir_all(&root).ok();
}
