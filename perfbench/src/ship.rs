//! `ship-boot`: one client with one loopback connection to a
//! `RegistryServer` serving an origin registry seeded during setup.
//!
//! Each of the three edge architectures has two single-arch builds on a
//! rolling release: one of them is live on the origin at a time, and a
//! fleet build for all three architectures stays there throughout. Ops
//! come in blocks, in seeded order, that roll every architecture over to
//! its other build and boot every edge once:
//! - *publish* pushes the replacement of an architecture's live build
//!   over the wire (`RemoteRegistry::push_from`). The origin already
//!   pools the objects it shares with the artifacts there, so the push
//!   ships a delta.
//! - *retire* then removes the build it replaces from the origin
//!   (`Registry::remove`, which ends in the refcounting GC).
//! - *boot* makes an edge node run `resolve(arch) → pull_into(edge) →`
//!   a cold `Registry::verify` on a fresh handle, then drop every other
//!   artifact the edge holds (`remove` + GC): an edge keeps only what it
//!   runs. Where the boot falls in its block decides what it resolves:
//!   the outgoing build, the later-staged of the two while both are on
//!   the origin, or the replacement. A warm boot pulls nothing if that is
//!   what the edge runs, and otherwise a delta against the objects the
//!   edge holds. One boot per block starts cold, on each edge in turn:
//!   the edge drops everything first and pulls the full closure.
//!
//! The process pins itself to one CPU before setup: the client waits
//! while the server works, so the work is serial, and on one CPU the
//! hand-offs between them never wait for the host to wake an idle
//! virtual CPU.
//!
//! The first block runs untimed, as a warm-up: before it the edges are
//! empty, so every boot of it would pull a full closure.
//!
//! Publishing before retiring keeps a single-arch build live for every
//! architecture at all times, so boots never fall back to the slower
//! fleet build and a publish ships the same delta for a given build in
//! every block. Both keep the latency of each kind of op independent of
//! the seeded order.
//!
//! A traced boot calls `open → load_plan → load_bundle →
//! verify_indexed` in place of `StoredArtifact::verify`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use negativa_ml::registry::ShipReport;
use negativa_ml::verify::verify_indexed;
use negativa_ml::{
    Debloater, FleetSpec, NegativaError, PlanCache, Registry, RegistryServer, RemoteRegistry,
    SmArch,
};
use simcuda::GpuModel;
use simml::{FrameworkKind, RunConfig, Workload};

use crate::gen::{digest, Rng};
use crate::trace::{Tracer, OP};
use crate::{
    build_bundles, more_setup, ms, stats, work_root, Args, Fidelity, Pace, Run, SetupRep, PLAN_LEN,
};

/// Edge nodes, one per architecture of the fleet.
const EDGE_ARCHS: [SmArch; 3] = [SmArch::SM75, SmArch::SM80, SmArch::SM90];

/// The fleet build (sm_75 + sm_80 + sm_90, planned on a T4): framework
/// and Table-1 indexes of that framework (MobileNetV2 train, inference,
/// Transformer train, inference).
const FLEET: (FrameworkKind, &[usize]) = (FrameworkKind::PyTorch, &[1, 3]);

/// Per edge, in [`EDGE_ARCHS`] order: the GPU its single-arch builds
/// are planned on, their framework, and the two builds' Table-1 sets.
/// The two builds of an edge share the framework's common libraries.
const ROLLING: [(GpuModel, FrameworkKind, [&[usize]; 2]); 3] = [
    (GpuModel::T4, FrameworkKind::PyTorch, [&[1], &[3]]),
    (GpuModel::A100, FrameworkKind::TensorFlow, [&[1], &[3]]),
    (GpuModel::H100, FrameworkKind::PyTorch, [&[0], &[2]]),
];

/// Ops run before timing starts: one block.
const WARMUP_OPS: usize = 3 * EDGE_ARCHS.len();

/// Where one staged artifact is debloated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Single(GpuModel),
    /// A T4 session planned for sm_75 + sm_80 + sm_90.
    Fleet,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Staged {
    target: Target,
    set: Vec<Workload>,
}

impl Staged {
    fn label(&self) -> String {
        let labels: Vec<String> = self.set.iter().map(Workload::label).collect();
        format!("{:?}:{}", self.target, labels.join("+"))
    }
}

/// Index into [`staged`] of build `b` (0 or 1) of edge `edge`.
fn build(edge: usize, b: usize) -> usize {
    1 + 2 * edge + b
}

fn table1(framework: FrameworkKind, members: &[usize]) -> Vec<Workload> {
    let all: Vec<Workload> =
        Workload::paper_set().into_iter().filter(|w| w.framework == framework).collect();
    members.iter().map(|&i| all[i].clone()).collect()
}

/// The staged artifacts: the fleet build first, then each edge's two
/// builds ([`build`]). A record keeps the publish time of its staging
/// and `resolve` serves the newest compatible record, so an edge boots
/// one of its single-arch builds, never the fleet build.
pub fn staged() -> Vec<Staged> {
    let mut out = vec![Staged { target: Target::Fleet, set: table1(FLEET.0, FLEET.1) }];
    for (gpu, framework, sets) in ROLLING {
        for members in sets {
            out.push(Staged { target: Target::Single(gpu), set: table1(framework, members) });
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Publish { staged: usize },
    Retire { staged: usize },
    Boot { edge: usize, cold: bool },
}

impl Op {
    /// The kind of op, for the per-kind latency report.
    fn kind(self) -> &'static str {
        match self {
            Op::Publish { .. } => "publish",
            Op::Retire { .. } => "retire",
            Op::Boot { cold: true, .. } => "boot cold",
            Op::Boot { cold: false, .. } => "boot warm",
        }
    }
}

/// Which build of each edge is live on the origin when the run starts.
pub fn initial_live(seed: u64) -> [usize; 3] {
    let mut rng = Rng::stream(seed, "ship-boot/origin");
    [(); 3].map(|_| rng.below(2))
}

/// Blocks of nine ops in seeded order. Per edge, one block publishes
/// the build that is not live, then retires the one that is, and boots
/// the edge once. One boot per block is cold, on each edge in turn from
/// a seeded first one.
pub fn plan(seed: u64, len: usize) -> Vec<Op> {
    let mut live = initial_live(seed);
    let mut rng = Rng::stream(seed, "ship-boot/ops");
    let mut cold = rng.below(EDGE_ARCHS.len());
    let mut ops = Vec::with_capacity(len + 3 * EDGE_ARCHS.len());
    while ops.len() < len {
        // Slots of one block as (edge, is a boot): the first non-boot
        // slot of an edge is its publish, the second its retire.
        let mut slots: Vec<(usize, bool)> =
            (0..EDGE_ARCHS.len()).flat_map(|e| [(e, false), (e, false), (e, true)]).collect();
        rng.shuffle(&mut slots);
        let mut published = [false; 3];
        for (edge, is_boot) in slots {
            ops.push(if is_boot {
                Op::Boot { edge, cold: edge == cold }
            } else if !published[edge] {
                published[edge] = true;
                Op::Publish { staged: build(edge, 1 - live[edge]) }
            } else {
                Op::Retire { staged: build(edge, live[edge]) }
            });
        }
        live = live.map(|b| 1 - b);
        cold = (cold + 1) % EDGE_ARCHS.len();
    }
    ops.truncate(len);
    ops
}

/// Removes a directory tree when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Everything one setup repetition builds.
/// Fields drop in order: the client disconnects, the server stops, and
/// only then is the directory removed.
struct World {
    remote: RemoteRegistry,
    _server: RegistryServer,
    staging: Registry,
    origin: Registry,
    ids: Vec<String>,
    fidelity: Fidelity,
    dir: Scratch,
}

impl World {
    fn edge(&self, edge: usize) -> PathBuf {
        self.dir.0.join(format!("edge{edge}"))
    }
}

/// Bundles, the staged artifacts (debloated and published into a local
/// staging registry), the origin seeded with the fleet build and each
/// edge's live build, and the server with a connected client.
fn setup(
    first: bool,
    dir: PathBuf,
    staged: &[Staged],
    live: [usize; 3],
) -> Result<(World, SetupRep), String> {
    let begun = Instant::now();
    let (bundle_gen_ms, index_build_ms) = build_bundles(first)?;
    let dir = Scratch(dir);
    let staging = Registry::at(dir.0.join("staging"));
    let mut ids = Vec::with_capacity(staged.len());
    let mut fidelity = Fidelity::default();
    for s in staged {
        let debloater = match s.target {
            Target::Single(gpu) => Debloater::new(gpu),
            Target::Fleet => Debloater::new(GpuModel::T4).with_fleet(
                FleetSpec::new(&EDGE_ARCHS).expect("three named architectures form a fleet"),
            ),
        }
        .with_plan_cache(Arc::new(PlanCache::new(4)));
        let artifact = debloater
            .session(s.set[0].framework)
            .debloat_many_artifact(&s.set)
            .map_err(|e| format!("staging {}: {e}", s.label()))?;
        if !artifact.report.all_verified() {
            return Err(format!("staging {}: did not verify", s.label()));
        }
        fidelity.add(&artifact.report);
        let record =
            staging.publish(&artifact).map_err(|e| format!("staging {}: {e}", s.label()))?;
        ids.push(record.artifact_id);
    }
    let origin = Registry::at(dir.0.join("origin"));
    let seeded = std::iter::once(0).chain(live.iter().enumerate().map(|(e, &b)| build(e, b)));
    for i in seeded {
        staging.push(&origin, &ids[i]).map_err(|e| format!("seeding origin: {e}"))?;
    }
    let server = RegistryServer::serve(origin.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let remote = RemoteRegistry::connect(&server.url()).map_err(|e| e.to_string())?;
    remote.ping().map_err(|e| e.to_string())?;
    let rep = SetupRep { total_s: begun.elapsed().as_secs_f64(), bundle_gen_ms, index_build_ms };
    Ok((World { remote, _server: server, staging, origin, ids, fidelity, dir }, rep))
}

fn held(registry: &Registry) -> Result<HashSet<String>, String> {
    Ok(registry
        .artifacts()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|r| r.artifact_id)
        .collect())
}

/// Drop every artifact `root` holds except `keep`; returns the bytes
/// the GC reclaimed.
fn drop_except(root: &Path, keep: Option<&str>, t: &Tracer, op: u64) -> negativa_ml::Result<u64> {
    let edge = Registry::at(root);
    let stale: Vec<String> = edge
        .artifacts()?
        .into_iter()
        .map(|r| r.artifact_id)
        .filter(|id| Some(id.as_str()) != keep)
        .collect();
    if stale.is_empty() {
        return Ok(0);
    }
    t.span("registry.remove", op, || {
        let mut reclaimed = 0;
        for id in &stale {
            reclaimed += edge.remove(id)?.bytes_reclaimed;
        }
        Ok(reclaimed)
    })
}

/// What one op did, for the checks and the tallies.
enum Outcome {
    Published(ShipReport),
    Retired { reclaimed: u64 },
    Booted { id: String, pulled: ShipReport, reclaimed: u64, verified: usize },
}

fn mismatch(reason: String) -> NegativaError {
    NegativaError::InvalidWorkloadSet { reason }
}

/// The boot path.
fn boot(
    world: &World,
    edge: usize,
    cold: bool,
    t: &Tracer,
    op: u64,
) -> negativa_ml::Result<Outcome> {
    let root = world.edge(edge);
    let mut reclaimed = if cold { drop_except(&root, None, t, op)? } else { 0 };
    let record = t.span("net.resolve", op, || world.remote.resolve(EDGE_ARCHS[edge]))?;
    let id = record.artifact_id;
    let pulled = t.span("net.pull", op, || world.remote.pull_into(&Registry::at(&root), &id))?;
    let fresh = Registry::at(&root);
    let verified = if t.is_on() {
        let artifact = t.span("store.open", op, || fresh.open(&id))?;
        let manifest = artifact.manifest();
        let config = RunConfig::default();
        if negativa_ml::plan::config_fingerprint(&config) != manifest.key.config {
            return Err(mismatch("stored config differs from the default run config".into()));
        }
        t.span("codec.plan_decode", op, || artifact.load_plan())?;
        let libraries = t.span("store.load_bundle", op, || artifact.load_bundle())?;
        let indexes = simml::cached_indexes(manifest.key.framework);
        for w in &manifest.workloads {
            t.span("verify.rerun", op, || {
                verify_indexed(
                    &w.workload,
                    &libraries,
                    Some(&indexes),
                    w.baseline_checksum,
                    &config,
                )
            })?;
        }
        manifest.workloads.len()
    } else {
        let verification = fresh.verify(&id)?;
        if !verification.all_verified() {
            return Err(mismatch(format!("{id} did not verify on the edge")));
        }
        verification.workloads.len()
    };
    reclaimed += drop_except(&root, Some(&id), t, op)?;
    Ok(Outcome::Booted { id, pulled, reclaimed, verified })
}

/// Run one op, timed by the caller.
fn execute(world: &World, op: Op, t: &Tracer, i: u64) -> negativa_ml::Result<Outcome> {
    match op {
        Op::Publish { staged } => t
            .span("net.push", i, || world.remote.push_from(&world.staging, &world.ids[staged]))
            .map(Outcome::Published),
        Op::Retire { staged } => t
            .span("registry.remove", i, || world.origin.remove(&world.ids[staged]))
            .map(|gc| Outcome::Retired { reclaimed: gc.bytes_reclaimed }),
        Op::Boot { edge, cold } => boot(world, edge, cold, t, i),
    }
}

/// Per-run tallies of the boot and publish paths.
#[derive(Default)]
struct Tally {
    boots: u64,
    boot_wire_bytes: u64,
    pulled: u64,
    skipped: u64,
    /// Boots that pulled the whole closure, and those that pulled part
    /// of it (the rest already on the edge).
    full_pulls: u64,
    delta_pulls: u64,
    pushed: u64,
    reclaimed: u64,
    store_bytes_read: u64,
    /// Samples of (pool bytes per artifact, dedup ratio) of the origin.
    pool: Vec<(f64, f64)>,
}

/// Check one op's outcome outside the timed interval and add it to the
/// tallies; `Err` names the problem.
fn check(
    world: &World,
    staged: &[Staged],
    op: Op,
    outcome: Outcome,
    wire: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    match (op, outcome) {
        (Op::Publish { staged: s }, Outcome::Published(pushed)) => {
            if !held(&world.origin)?.contains(&world.ids[s]) {
                return Err(format!("publish {}: the origin does not hold it", staged[s].label()));
            }
            tally.pushed += pushed.bytes_shipped;
        }
        (Op::Retire { staged: s }, Outcome::Retired { reclaimed }) => {
            if held(&world.origin)?.contains(&world.ids[s]) {
                return Err(format!("retire {}: the origin still holds it", staged[s].label()));
            }
            tally.reclaimed += reclaimed;
        }
        (Op::Boot { edge, .. }, Outcome::Booted { id, pulled, reclaimed, verified }) => {
            if verified == 0 {
                return Err(format!("boot edge{edge}: {id} has no workloads to verify"));
            }
            let edge_registry = Registry::at(world.edge(edge));
            let holds = held(&edge_registry)?;
            if holds.len() != 1 || !holds.contains(&id) {
                return Err(format!("boot edge{edge}: the edge holds {holds:?}, not just {id}"));
            }
            let record = edge_registry.offer(&id).map_err(|e| e.to_string())?.record;
            let objects: HashMap<u64, u64> =
                record.objects.iter().map(|o| (o.hash, o.byte_len)).collect();
            tally.store_bytes_read += record.plan.byte_len + objects.values().sum::<u64>();
            tally.boots += 1;
            tally.boot_wire_bytes += wire;
            tally.pulled += pulled.bytes_shipped;
            tally.skipped += pulled.bytes_skipped;
            if pulled.bytes_shipped > 0 && pulled.bytes_skipped == 0 {
                tally.full_pulls += 1;
            } else if pulled.bytes_shipped > 0 {
                tally.delta_pulls += 1;
            }
            tally.reclaimed += reclaimed;
        }
        (op, _) => return Err(format!("{op:?}: unexpected outcome")),
    }
    tally.pool.push(pool_sample(&world.origin)?);
    Ok(())
}

/// Origin pool bytes per artifact held, and the share of referenced
/// bytes the shared pool saves.
fn pool_sample(origin: &Registry) -> Result<(f64, f64), String> {
    let index = origin.index().map_err(|e| e.to_string())?;
    let mut unique: HashMap<u64, u64> = HashMap::new();
    let mut logical = 0u64;
    for record in &index.records {
        for object in record.referenced() {
            logical += object.byte_len;
            unique.insert(object.hash, object.byte_len);
        }
    }
    let physical: u64 = unique.values().sum();
    let artifacts = index.records.len().max(1) as f64;
    Ok((physical as f64 / artifacts, 1.0 - physical as f64 / logical.max(1) as f64))
}

fn describe(op: Op, staged: &[Staged]) -> String {
    match op {
        Op::Publish { staged: s } => format!("publish {}", staged[s].label()),
        Op::Retire { staged: s } => format!("retire {}", staged[s].label()),
        Op::Boot { edge, cold } => format!("boot edge{edge} cold={cold}"),
    }
}

/// Pin the calling thread, and every thread it starts from then on, to
/// the CPU it is running on; returns that CPU.
///
/// The client waits while the server thread works, so ship-boot's work
/// is serial. On one CPU a hand-off between the two never has to wake
/// the machine's other, idle virtual CPU, whose wake-up latency belongs
/// to the host and not to the program.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: takes no arguments and only returns a number.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error().to_string())?;
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return Err(format!("CPU {cpu} is beyond a {}-CPU mask", 64 * mask.len()));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; the mask lives across the call
    // and its size in bytes is passed with it.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Result<usize, String> {
    Err("pinning to one CPU is implemented for Linux only".into())
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Run, String> {
    // Before setup, so that the server thread it starts is pinned too.
    let pinned = pin_to_current_cpu();
    let staged = staged();
    let live = initial_live(args.seed);
    let ops = plan(args.seed, PLAN_LEN);
    let descriptions: Vec<String> = ops.iter().map(|&op| describe(op, &staged)).collect();
    let mut run =
        Run { plan_digest: digest(descriptions.iter().map(String::as_str)), ..Run::default() };
    run.notes.push(match pinned {
        Ok(cpu) => format!("pinned to CPU {cpu}"),
        Err(why) => format!("not pinned to one CPU: {why}"),
    });
    let base = work_root().join(format!("ship-boot-{}", std::process::id()));
    let _cleanup = Scratch(base.clone());
    let mut world = None;
    while more_setup(&run.setup) {
        let rep = run.setup.len();
        let (built, timing) = setup(rep == 0, base.join(format!("rep{rep}")), &staged, live)?;
        run.setup.push(timing);
        world = Some(built);
    }
    let world = world.expect("at least one setup repetition");
    run.fidelity = world.fidelity.clone();

    let off = Tracer::new(false);
    // Warm-up: the first block, untimed but checked. It leaves every
    // edge holding an artifact, as the edges do in every later block.
    for (i, &op) in ops.iter().enumerate().take(WARMUP_OPS) {
        run.attempted += 1;
        let verdict = execute(&world, op, &off, i as u64)
            .map_err(|e| e.to_string())
            .and_then(|outcome| check(&world, &staged, op, outcome, 0, &mut Tally::default()));
        if let Err(why) = verdict {
            run.fail(format!("warm-up {}: {why}", describe(op, &staged)));
        }
    }
    let net_before = world.remote.stats();
    let mut tally = Tally::default();
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut by_op: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let pace = Pace::start(args.seconds);
    let mut i = WARMUP_OPS;
    while pace.more(run.succeeded()) {
        let op = ops[i % ops.len()];
        let is_traced = args.trace && i % 2 == 1;
        let t = if is_traced { tracer } else { &off };
        let wire_before = world.remote.stats().bytes_received;
        let begun = Instant::now();
        let result = t.span(OP, i as u64, || execute(&world, op, t, i as u64));
        let elapsed = ms(begun.elapsed());
        let wire = world.remote.stats().bytes_received - wire_before;
        let verdict = result
            .map_err(|e| e.to_string())
            .and_then(|outcome| check(&world, &staged, op, outcome, wire, &mut tally))
            .map_err(|why| format!("{}: {why}", describe(op, &staged)));
        run.attempted += 1;
        if verdict.is_ok() {
            run.done_s.push(pace.elapsed_s());
        }
        match verdict {
            Ok(()) if is_traced => run.traced_op_ms.push(elapsed),
            Ok(()) => {
                run.op_ms.push(elapsed);
                by_kind.entry(op.kind()).or_default().push(elapsed);
                by_op.entry(describe(op, &staged)).or_default().push(elapsed);
            }
            Err(why) => run.fail(why),
        }
        i += 1;
    }
    run.measured_s = pace.elapsed_s();

    for (kind, latencies) in by_kind
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(by_op.iter().map(|(k, v)| (format!("  {k}"), v)))
    {
        run.notes.push(format!(
            "  {kind:<56} {:>4} ops, median {:.2} ms",
            latencies.len(),
            stats::median(latencies).unwrap_or(0.0)
        ));
    }
    let kind_p50 = |kinds: &[&str]| {
        let all: Vec<f64> =
            kinds.iter().flat_map(|k| by_kind.get(k).into_iter().flatten().copied()).collect();
        stats::median(&all).unwrap_or(0.0)
    };
    let net = world.remote.stats();
    let samples = tally.pool.len().max(1) as f64;
    let l = &mut run.layers;
    l.insert("loadgen.publish_p50_ms", kind_p50(&["publish"]));
    l.insert("loadgen.retire_p50_ms", kind_p50(&["retire"]));
    l.insert("loadgen.boot_p50_ms", kind_p50(&["boot cold", "boot warm"]));
    l.insert("net.bytes_received", (net.bytes_received - net_before.bytes_received) as f64);
    l.insert("net.retries", (net.retries - net_before.retries) as f64);
    l.insert("net.reconnects", (net.reconnects - net_before.reconnects) as f64);
    l.insert("net.wire_bytes_per_boot", tally.boot_wire_bytes as f64 / tally.boots.max(1) as f64);
    l.insert(
        "net.delta_skip_ratio",
        tally.skipped as f64 / (tally.pulled + tally.skipped).max(1) as f64,
    );
    l.insert("net.full_pulls", tally.full_pulls as f64);
    l.insert("net.delta_pulls", tally.delta_pulls as f64);
    l.insert("store.bytes_read", tally.store_bytes_read as f64);
    l.insert("registry.bytes_reclaimed", tally.reclaimed as f64);
    l.insert(
        "registry.pool_bytes_per_artifact",
        tally.pool.iter().map(|p| p.0).sum::<f64>() / samples,
    );
    l.insert("registry.dedup_ratio", tally.pool.iter().map(|p| p.1).sum::<f64>() / samples);
    run.notes.push(format!(
        "{} staged artifacts; publishes pushed {} B; {} boots ({} full, {} partial, {} nothing \
         to pull) pulled {} B and skipped {} B",
        staged.len(),
        tally.pushed,
        tally.boots,
        tally.full_pulls,
        tally.delta_pulls,
        tally.boots - tally.full_pulls - tally.delta_pulls,
        tally.pulled,
        tally.skipped
    ));
    drop(world);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_edge_rolls_between_two_builds_of_one_framework() {
        let s = staged();
        assert_eq!(s.len(), 1 + 2 * EDGE_ARCHS.len());
        assert_eq!(s[0].target, Target::Fleet);
        for (edge, arch) in EDGE_ARCHS.iter().enumerate() {
            let (a, b) = (&s[build(edge, 0)], &s[build(edge, 1)]);
            assert_eq!(a.target, b.target);
            let Target::Single(gpu) = a.target else { panic!("edge builds are single-arch") };
            assert_eq!(gpu.arch(), *arch);
            assert_eq!(a.set[0].framework, b.set[0].framework);
            assert_ne!(a.set, b.set);
        }
    }

    #[test]
    fn blocks_roll_every_edge_over_and_boot_each_once() {
        let block = 3 * EDGE_ARCHS.len();
        let ops = plan(3, 50 * block);
        assert_eq!(ops, plan(3, 50 * block));
        assert_ne!(ops, plan(4, 50 * block));
        let mut live = initial_live(3);
        for chunk in ops.chunks(block) {
            let mut cold = 0;
            for (edge, current) in live.iter_mut().enumerate() {
                let publish = chunk
                    .iter()
                    .position(|&op| op == Op::Publish { staged: build(edge, 1 - *current) });
                let retire =
                    chunk.iter().position(|&op| op == Op::Retire { staged: build(edge, *current) });
                assert!(publish.expect("publish") < retire.expect("retire"));
                let boots: Vec<bool> = chunk
                    .iter()
                    .filter_map(|op| match *op {
                        Op::Boot { edge: e, cold } if e == edge => Some(cold),
                        _ => None,
                    })
                    .collect();
                assert_eq!(boots.len(), 1);
                cold += usize::from(boots[0]);
                *current = 1 - *current;
            }
            assert_eq!(cold, 1);
        }
    }

    #[test]
    fn pinning_leaves_one_cpu_to_the_thread_and_its_children() {
        let cpu = pin_to_current_cpu().expect("pinned");
        let child = std::thread::spawn(|| std::thread::available_parallelism().map(usize::from));
        assert_eq!(
            std::thread::available_parallelism().map(usize::from).ok(),
            Some(1),
            "CPU {cpu}"
        );
        assert_eq!(child.join().expect("child thread").ok(), Some(1));
    }

    /// Runs the pipeline for real: a few blocks on a loopback origin
    /// must include boots that pull the full closure and boots that pull
    /// only part of it, the rest being on the edge already.
    #[test]
    fn boots_pull_full_closures_and_partial_deltas() {
        let staged = staged();
        let seed = 1;
        let dir = std::env::temp_dir().join(format!("perfbench-ship-test-{}", std::process::id()));
        let (world, _) = setup(true, dir, &staged, initial_live(seed)).expect("setup");
        let off = Tracer::new(false);
        let mut tally = Tally::default();
        let mut partial = 0;
        for (i, op) in plan(seed, 4 * 3 * EDGE_ARCHS.len()).into_iter().enumerate() {
            let outcome = execute(&world, op, &off, i as u64).expect("op runs");
            if let Outcome::Booted { pulled, .. } = &outcome {
                let closure = pulled.full_bytes();
                partial += u64::from(pulled.bytes_shipped > 0 && pulled.bytes_shipped < closure);
            }
            check(&world, &staged, op, outcome, 0, &mut tally).expect("op checks out");
        }
        assert!(tally.full_pulls >= 4, "{} full pulls", tally.full_pulls);
        assert!(partial > 0, "no boot pulled a partial delta");
        assert_eq!(tally.delta_pulls, partial);
    }
}
