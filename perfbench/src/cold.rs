//! `cold-sweep`: one client; every op is `Debloater::debloat_many` on a
//! fresh `Debloater` with its own `PlanCache`, so no plan, detection or
//! verification memo carries over between ops.
//!
//! The catalogue holds four kinds of input — the ten Table-1 workloads,
//! 2–3-workload unions, the §4.5 H100 variants and the 8-rank A100
//! variant — each once single-arch and once for the fleet of sm_75,
//! sm_80 and sm_90. The op stream walks seeded permutations of it. The
//! first pass covers every entry, so the paper-fidelity means repeat
//! exactly for a seed.
//!
//! A traced op calls `normalize → detect → plan → apply → verify_all`
//! on one session in place of `debloat_many`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use negativa_ml::{
    Debloater, FleetSpec, LibraryReport, PlanCache, PlanCacheStats, SmArch, WorkerPool,
};
use simcuda::{GpuModel, LoadMode};
use simml::{FrameworkKind, ModelKind, Workload};

use crate::gen::{digest, Rng};
use crate::trace::{Tracer, OP};
use crate::{build_bundles, more_setup, ms, Args, Pace, Run, SetupRep, PLAN_LEN};

/// One catalogue entry: a workload set debloated for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub gpu: GpuModel,
    pub fleet: bool,
    pub set: Vec<Workload>,
}

impl Entry {
    fn label(&self) -> String {
        let labels: Vec<String> = self.set.iter().map(Workload::label).collect();
        let target = if self.fleet { "fleet" } else { "single" };
        format!("{}:{}x{}:{}", self.gpu, self.set[0].devices.len(), labels.join("+"), target)
    }

    /// The kind of input, for the per-kind latency report.
    fn kind(&self) -> String {
        let input = match (self.gpu, self.set.len()) {
            (GpuModel::H100, _) => "h100",
            (GpuModel::A100, _) => "a100x8",
            (_, 1) => "table1",
            _ => "union",
        };
        format!("{input}/{}", if self.fleet { "fleet" } else { "single" })
    }

    /// A fresh debloater for this entry's target, with its own plan
    /// cache.
    fn debloater(&self) -> (Debloater, Arc<PlanCache>) {
        let cache = Arc::new(PlanCache::new(4));
        let d = Debloater::new(self.gpu).with_plan_cache(cache.clone());
        if self.fleet {
            let fleet = FleetSpec::new(&[SmArch::SM75, SmArch::SM80, SmArch::SM90])
                .expect("three named architectures form a fleet");
            (d.with_fleet(fleet), cache)
        } else {
            (d, cache)
        }
    }
}

/// Unions of Table-1 workloads, as indexes into a framework's four
/// (MobileNetV2 train, inference, Transformer train, inference). The
/// LLM frameworks have one Table-1 workload each.
const UNIONS: [(FrameworkKind, &[usize]); 2] =
    [(FrameworkKind::PyTorch, &[0, 1]), (FrameworkKind::TensorFlow, &[0, 2, 3])];

/// Leaderboard models of the 8-rank A100 variant, per LLM framework.
const LEADERBOARD: [(FrameworkKind, usize); 4] = [
    (FrameworkKind::Vllm, 1),
    (FrameworkKind::Vllm, 7),
    (FrameworkKind::Transformers, 2),
    (FrameworkKind::Transformers, 4),
];

/// The catalogue: Table-1 singles, unions, the §4.5 H100 variants (lazy
/// and eager loading) and 8-rank A100 variants of both LLM frameworks —
/// each single-arch and fleet.
/// It is the same for every seed, so the seed changes the order of the
/// ops and not the work a pass of them does. Its shares put the op p50
/// inside the cluster of single-GPU, single-workload debloats (70% of
/// entries) and the p90 inside the 8-rank cluster (the slowest 20%),
/// away from the gaps between clusters, where a small shift would move
/// a percentile far.
pub fn catalogue() -> Vec<Entry> {
    let mut sets: Vec<(GpuModel, Vec<Workload>)> =
        Workload::paper_set().into_iter().map(|w| (GpuModel::T4, vec![w])).collect();
    for (framework, members) in UNIONS {
        let table1: Vec<Workload> =
            Workload::paper_set().into_iter().filter(|w| w.framework == framework).collect();
        sets.push((GpuModel::T4, members.iter().map(|&i| table1[i].clone()).collect()));
    }
    for framework in [FrameworkKind::Vllm, FrameworkKind::Transformers] {
        for mode in [LoadMode::Lazy, LoadMode::Eager] {
            sets.push((GpuModel::H100, vec![Workload::h100(framework, mode)]));
        }
    }
    let leaderboard = ModelKind::leaderboard_top9();
    for (framework, model) in LEADERBOARD {
        let model = leaderboard[model].clone();
        sets.push((GpuModel::A100, vec![Workload::distributed_a100(framework, model)]));
    }
    sets.into_iter()
        .flat_map(|(gpu, set)| [false, true].map(|fleet| Entry { gpu, fleet, set: set.clone() }))
        .collect()
}

/// The op stream: back-to-back seeded permutations of the catalogue.
pub fn plan(seed: u64, entries: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, "cold-sweep/ops");
    let mut ops = Vec::with_capacity(len + entries);
    while ops.len() < len {
        let mut pass: Vec<usize> = (0..entries).collect();
        rng.shuffle(&mut pass);
        ops.extend(pass);
    }
    ops.truncate(len);
    ops
}

/// What one op produced, for the checks and the per-layer counts.
struct Produced {
    /// (label, baseline checksum, verified checksum) per workload.
    checksums: Vec<(String, u64, u64)>,
    libraries: Vec<LibraryReport>,
    report: Option<negativa_ml::MultiDebloatReport>,
    cache: PlanCacheStats,
}

fn untraced(entry: &Entry) -> negativa_ml::Result<Produced> {
    let (debloater, cache) = entry.debloater();
    let report = debloater.debloat_many(&entry.set)?;
    let checksums = report
        .workloads
        .iter()
        .map(|w| (w.label.clone(), w.baseline_checksum, w.verified_checksum))
        .collect();
    Ok(Produced {
        checksums,
        libraries: report.libraries.clone(),
        report: Some(report),
        cache: cache.stats(),
    })
}

fn traced(entry: &Entry, t: &Tracer, op: u64) -> negativa_ml::Result<Produced> {
    let (debloater, _) = entry.debloater();
    let session = t.span("session.open", op, || debloater.session(entry.set[0].framework));
    let normalized = t.span("session.normalize", op, || {
        entry.set.iter().map(|w| session.normalize(w)).collect::<negativa_ml::Result<Vec<_>>>()
    })?;
    let detection = t.span("detect", op, || session.detect(&normalized))?;
    let plan = t.span("locate", op, || session.plan(&detection))?;
    let (libraries, debloated) = t.span("compact", op, || session.apply(&plan))?;
    let outcomes = t.span("verify", op, || session.verify_all(&normalized, &plan, &debloated))?;
    let checksums = plan
        .baselines
        .iter()
        .zip(&outcomes)
        .map(|(base, outcome)| (base.label.clone(), base.checksum, outcome.checksum))
        .collect();
    Ok(Produced { checksums, libraries, report: None, cache: PlanCacheStats::default() })
}

fn setup(first: bool) -> Result<SetupRep, String> {
    let begun = Instant::now();
    let (bundle_gen_ms, index_build_ms) = build_bundles(first)?;
    Ok(SetupRep { total_s: begun.elapsed().as_secs_f64(), bundle_gen_ms, index_build_ms })
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Run, String> {
    let entries = catalogue();
    let ops = plan(args.seed, entries.len(), PLAN_LEN);
    let descriptions: Vec<String> = ops.iter().map(|&e| entries[e].label()).collect();
    let mut run =
        Run { plan_digest: digest(descriptions.iter().map(String::as_str)), ..Run::default() };
    while more_setup(&run.setup) {
        run.setup.push(setup(run.setup.is_empty())?);
    }

    let off = Tracer::new(false);
    let pool_before = WorkerPool::shared().stats();
    let mut cache = PlanCacheStats::default();
    let mut baselines: HashMap<String, u64> = HashMap::new();
    let mut seen = vec![false; entries.len()];
    let mut keep = [0u64; 4];
    let mut compact = [0u64; 4];
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let pace = Pace::start(args.seconds);
    let mut i = 0usize;
    while pace.more(run.succeeded()) {
        let entry = &entries[ops[i % ops.len()]];
        let is_traced = args.trace && i % 2 == 1;
        let t = if is_traced { tracer } else { &off };
        let begun = Instant::now();
        let produced = t.span(OP, i as u64, || {
            if is_traced {
                traced(entry, t, i as u64)
            } else {
                untraced(entry)
            }
        });
        let elapsed = ms(begun.elapsed());
        run.attempted += 1;
        let verdict = produced.map_err(|e| format!("{}: {e}", entry.label())).and_then(|p| {
            for (label, baseline, verified) in &p.checksums {
                if baseline != verified {
                    return Err(format!("{}: {label} verified {verified:016x}, baseline {baseline:016x}", entry.label()));
                }
                let key = format!("{}@{}x{}", label, entry.gpu, entry.set[0].devices.len());
                let first = *baselines.entry(key).or_insert(*baseline);
                if first != *baseline {
                    return Err(format!("{}: {label} baseline {baseline:016x} differs from an earlier op's {first:016x}", entry.label()));
                }
            }
            Ok(p)
        });
        match verdict {
            Ok(p) => {
                run.done_s.push(pace.elapsed_s());
                if is_traced {
                    run.traced_op_ms.push(elapsed);
                } else {
                    run.op_ms.push(elapsed);
                    by_kind.entry(entry.kind()).or_default().push(elapsed);
                }
                add_cache(&mut cache, &p.cache);
                for lib in &p.libraries {
                    let counts = [
                        lib.used_functions,
                        lib.total_functions,
                        lib.kept_elements,
                        lib.total_elements,
                    ];
                    for (sum, c) in keep.iter_mut().zip(counts) {
                        *sum += c as u64;
                    }
                    let bytes = [
                        lib.bytes_copied,
                        lib.bytes_shared,
                        lib.bytes_sliced_arch,
                        lib.compressed_rewritten,
                    ];
                    for (sum, b) in compact.iter_mut().zip(bytes) {
                        *sum += b;
                    }
                }
                let slot = ops[i % ops.len()];
                if let (Some(report), false) = (&p.report, seen[slot]) {
                    seen[slot] = true;
                    run.fidelity.add(report);
                }
            }
            Err(why) => run.fail(why),
        }
        i += 1;
    }
    run.measured_s = pace.elapsed_s();
    let covered = seen.iter().filter(|&&s| s).count();
    run.notes.push(format!(
        "catalogue {} entries; {covered} covered by untraced ops (paper-fidelity means are over these)",
        entries.len()
    ));
    if covered < entries.len() && !args.trace {
        run.notes.push("warning: the run did not cover the whole catalogue".into());
    }

    for (kind, latencies) in &by_kind {
        run.notes.push(format!(
            "  {kind:<18} {:>4} ops, median {:.2} ms",
            latencies.len(),
            crate::stats::median(latencies).unwrap_or(0.0)
        ));
    }

    let pool = WorkerPool::shared().stats();
    let l = &mut run.layers;
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    l.insert("plan.hit_ratio", cache.hits as f64 / lookups);
    l.insert("plan.misses", cache.misses as f64);
    l.insert("plan.evictions", cache.evictions as f64);
    l.insert("plan.detections", cache.detections as f64);
    l.insert("plan.coalesced", cache.coalesced as f64);
    l.insert("plan.incremental", cache.incremental as f64);
    l.insert("plan.incremental_fallbacks", cache.incremental_fallbacks as f64);
    l.insert("detect.runs", cache.detections as f64);
    l.insert("locate.function_keep_ratio", keep[0] as f64 / keep[1].max(1) as f64);
    l.insert("locate.element_keep_ratio", keep[2] as f64 / keep[3].max(1) as f64);
    l.insert("compact.bytes_copied", compact[0] as f64);
    l.insert("compact.bytes_shared", compact[1] as f64);
    l.insert("compact.bytes_sliced_arch", compact[2] as f64);
    l.insert("compact.compressed_rewritten", compact[3] as f64);
    l.insert("verify.runs", (pool.verify_runs - pool_before.verify_runs) as f64);
    l.insert("verify.deduped", (pool.verify_deduped - pool_before.verify_deduped) as f64);
    l.insert("pool.peak_active", pool.peak_active as f64);
    l.insert("pool.fan_outs", (pool.fan_outs - pool_before.fan_outs) as f64);
    Ok(run)
}

fn add_cache(sum: &mut PlanCacheStats, s: &PlanCacheStats) {
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.detections += s.detections;
    sum.coalesced += s.coalesced;
    sum.incremental += s.incremental;
    sum.incremental_fallbacks += s.incremental_fallbacks;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_the_four_input_kinds_single_and_fleet() {
        let entries = catalogue();
        assert_eq!(entries.len(), 2 * (10 + UNIONS.len() + 4 + LEADERBOARD.len()));
        let a100 = entries.iter().filter(|e| e.gpu == GpuModel::A100).count();
        assert_eq!(a100 * 5, entries.len());
        assert_eq!(entries.iter().filter(|e| e.fleet).count(), entries.len() / 2);
        assert!(entries.iter().any(|e| e.gpu == GpuModel::H100));
        assert!(entries.iter().any(|e| e.set[0].devices.len() == 8));
        assert!(entries.iter().any(|e| e.set.len() == 3));
    }

    #[test]
    fn every_pass_of_the_plan_visits_every_entry_once() {
        let ops = plan(9, 40, 400);
        assert_eq!(ops, plan(9, 40, 400));
        for pass in ops.chunks(40) {
            let mut sorted = pass.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        }
    }
}
