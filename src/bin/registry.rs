//! `registry` — operate a multi-artifact registry from the command
//! line: publish, delta-ship, garbage-collect, verify.
//!
//! A registry is a directory holding a self-hashed `REGISTRY.json`
//! index, per-artifact manifests, and one shared content-addressed
//! object pool in which every library and plan is stored once no
//! matter how many artifacts reference it. Subcommands:
//!
//! * `publish <dir>` — debloat the paper's shared-bundle scenario
//!   (PyTorch MobileNetV2, Train ∪ Inference, T4) and publish the
//!   verified artifact into the registry, reporting how much of it the
//!   pool already held.
//! * `pull <from> <to> [artifact_id]` — delta-ship one artifact (or,
//!   with no id, every artifact in `from`'s index) into the `to`
//!   registry: the receiver states which object hashes it lacks and
//!   only those bytes move, hash-checked on both ends.
//! * `pull --from tcp://host:port <to> [artifact_id]` — the same
//!   delta handshake over the framed loopback protocol: a
//!   [`RemoteRegistry`] client pulls from a running `serve` into the
//!   local `to` registry, hash-checking and resuming interrupted
//!   transfers with bounded retries.
//! * `serve <dir> <addr>` — expose the registry at `addr` (e.g.
//!   `127.0.0.1:7070`) over the framed RPC protocol until the process
//!   is killed; prints the bound `tcp://` URL once listening.
//! * `resolve <from> <arch> [to]` — compatibility-keyed lookup: the
//!   newest artifact whose fleet runs on `arch` (e.g. `sm_75`).
//!   `from` is a directory or a `tcp://` URL; with `to`, pull the
//!   resolved artifact into that local registry.
//! * `gc <dir> [ttl_secs]` — with a TTL, expire every record older
//!   than it first; then sweep the pool, reclaiming objects no
//!   remaining record references.
//! * `verify <dir> [artifact_id]` — re-run one or all artifacts from
//!   the pooled bytes alone, against the recorded baseline checksums;
//!   an empty registry is a failure, not a vacuous pass.
//!
//! Every failure exits non-zero with the typed error, so the
//! subcommands compose into CI pipelines — the workflow pushes from
//! one registry root into a second over a real socket and
//! cold-verifies the receiver.

use std::time::Duration;

use negativa_repro::cuda::GpuModel;
use negativa_repro::ml::{FrameworkKind, ModelKind, Operation, Workload};
use negativa_repro::negativa::{
    Debloater, Registry, RegistryServer, RemoteRegistry, ShipReport, SmArch,
};

fn usage() -> ! {
    eprintln!(
        "usage: registry publish <dir>\n\
         \x20      registry pull <from> <to> [artifact_id]\n\
         \x20      registry pull --from tcp://host:port <to> [artifact_id]\n\
         \x20      registry serve <dir> <addr>\n\
         \x20      registry resolve <from> <arch> [to]\n\
         \x20      registry gc <dir> [ttl_secs]\n\
         \x20      registry verify <dir> [artifact_id]"
    );
    std::process::exit(2);
}

fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("registry: {what}: {err}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("publish") if args.len() == 2 => publish(&args[1]),
        Some("pull") if args.len() >= 2 && args[1] == "--from" => match args.len() {
            4 | 5 => pull_remote(&args[2], &args[3], args.get(4).map(String::as_str)),
            _ => usage(),
        },
        Some("pull") if args.len() == 3 || args.len() == 4 => {
            pull(&args[1], &args[2], args.get(3).map(String::as_str))
        }
        Some("serve") if args.len() == 3 => serve(&args[1], &args[2]),
        Some("resolve") if args.len() == 3 || args.len() == 4 => {
            resolve(&args[1], &args[2], args.get(3).map(String::as_str))
        }
        Some("gc") if args.len() == 2 || args.len() == 3 => gc(&args[1], args.get(2)),
        Some("verify") if args.len() == 2 || args.len() == 3 => {
            verify(&args[1], args.get(2).map(String::as_str))
        }
        _ => usage(),
    }
}

/// Debloat the paper scenario and publish the verified artifact.
fn publish(dir: &str) {
    let workloads = [
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Train),
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference),
    ];
    let session = Debloater::new(GpuModel::T4).session(FrameworkKind::PyTorch);
    let artifact =
        session.debloat_many_artifact(&workloads).unwrap_or_else(|e| fail("debloat failed", e));
    let registry = Registry::at(dir);
    let record =
        registry.publish(&artifact).unwrap_or_else(|e| fail(&format!("publish to {dir}"), e));
    let stats = registry.stats();
    println!(
        "published {} into {dir}: plan + {} library objects \
         ({} written to the pool, {} already pooled)",
        record.artifact_id,
        record.objects.len(),
        stats.objects_pooled,
        stats.objects_deduped,
    );
}

fn print_shipment(report: &ShipReport) {
    println!(
        "  {}: shipped {} objects / {} bytes, receiver already held {} objects / {} bytes",
        report.artifact_id,
        report.objects_shipped,
        report.bytes_shipped,
        report.objects_skipped,
        report.bytes_skipped,
    );
}

/// Delta-ship one artifact — or the whole index — between registries.
fn pull(from_dir: &str, to_dir: &str, artifact_id: Option<&str>) {
    let from = Registry::at(from_dir);
    let to = Registry::at(to_dir);
    let ids: Vec<String> = match artifact_id {
        Some(id) => vec![id.to_string()],
        None => from
            .artifacts()
            .unwrap_or_else(|e| fail(&format!("cannot read registry {from_dir}"), e))
            .into_iter()
            .map(|record| record.artifact_id)
            .collect(),
    };
    if ids.is_empty() {
        fail(&format!("cannot pull from {from_dir}"), "the registry holds no artifacts");
    }
    println!("pulling {} artifact(s) from {from_dir} into {to_dir}:", ids.len());
    for id in &ids {
        let report = to.pull(&from, id).unwrap_or_else(|e| fail(&format!("pull of {id}"), e));
        print_shipment(&report);
    }
}

/// Pull over the wire: a framed-RPC client against a running `serve`.
fn pull_remote(url: &str, to_dir: &str, artifact_id: Option<&str>) {
    let remote =
        RemoteRegistry::connect(url).unwrap_or_else(|e| fail(&format!("cannot connect {url}"), e));
    let to = Registry::at(to_dir);
    let ids: Vec<String> = match artifact_id {
        Some(id) => vec![id.to_string()],
        None => remote
            .records()
            .unwrap_or_else(|e| fail(&format!("cannot read remote registry {url}"), e))
            .into_iter()
            .map(|record| record.artifact_id)
            .collect(),
    };
    if ids.is_empty() {
        fail(&format!("cannot pull from {url}"), "the remote registry holds no artifacts");
    }
    println!("pulling {} artifact(s) from {url} into {to_dir}:", ids.len());
    for id in &ids {
        let report =
            remote.pull_into(&to, id).unwrap_or_else(|e| fail(&format!("pull of {id}"), e));
        print_shipment(&report);
    }
    let stats = remote.stats();
    println!(
        "  transport: {} bytes received / {} sent, {} retries, {} range resumes",
        stats.bytes_received, stats.bytes_sent, stats.retries, stats.range_resumes,
    );
}

/// Serve a registry over the framed protocol until killed.
fn serve(dir: &str, addr: &str) {
    let server = RegistryServer::serve(Registry::at(dir), addr)
        .unwrap_or_else(|e| fail(&format!("cannot serve {dir} at {addr}"), e));
    println!("serving {dir} at {}", server.url());
    // Keep the accept loop alive until the process is killed; the
    // server's own threads do all the work.
    loop {
        std::thread::park();
    }
}

/// Parse `sm_75` / `75` into an [`SmArch`].
fn parse_arch(raw: &str) -> SmArch {
    let digits = raw.strip_prefix("sm_").unwrap_or(raw);
    let value: u32 = digits
        .parse()
        .unwrap_or_else(|e| fail(&format!("arch {raw:?} is not sm_<N> or a number"), e));
    SmArch(value)
}

/// Compatibility-keyed lookup against a directory or a `tcp://` URL,
/// optionally pulling the resolved artifact into a local registry.
fn resolve(from: &str, arch: &str, to_dir: Option<&str>) {
    let arch = parse_arch(arch);
    let (record, pulled) = if from.starts_with("tcp://") {
        let remote = RemoteRegistry::connect(from)
            .unwrap_or_else(|e| fail(&format!("cannot connect {from}"), e));
        match to_dir {
            Some(to) => {
                let (record, report) = remote
                    .pull_resolved(&Registry::at(to), arch)
                    .unwrap_or_else(|e| fail(&format!("resolve {arch} at {from}"), e));
                (record, Some(report))
            }
            None => {
                let record = remote
                    .resolve(arch)
                    .unwrap_or_else(|e| fail(&format!("resolve {arch} at {from}"), e));
                (record, None)
            }
        }
    } else {
        let local = Registry::at(from);
        let record =
            local.resolve(arch).unwrap_or_else(|e| fail(&format!("resolve {arch} in {from}"), e));
        let report = to_dir.map(|to| {
            Registry::at(to)
                .pull(&local, &record.artifact_id)
                .unwrap_or_else(|e| fail(&format!("pull of {}", record.artifact_id), e))
        });
        (record, report)
    };
    println!(
        "{arch} resolves to {} ({} objects, published at {}ns)",
        record.artifact_id,
        record.objects.len(),
        record.published_ns,
    );
    if let Some(report) = pulled {
        print_shipment(&report);
    }
}

/// Expire old records (with a TTL) and sweep unreferenced pool objects.
fn gc(dir: &str, ttl_secs: Option<&String>) {
    let registry = Registry::at(dir);
    let report = match ttl_secs {
        Some(raw) => {
            let secs: u64 = raw
                .parse()
                .unwrap_or_else(|e| fail(&format!("ttl_secs {raw:?} is not a number"), e));
            let expired = registry
                .expire(Duration::from_secs(secs))
                .unwrap_or_else(|e| fail(&format!("expire in {dir}"), e));
            for id in &expired.expired {
                println!("expired {id} (older than {secs}s)");
            }
            expired.gc
        }
        None => registry.gc().unwrap_or_else(|e| fail(&format!("gc in {dir}"), e)),
    };
    println!(
        "gc {dir}: reclaimed {} objects / {} bytes, {} live objects remain",
        report.objects_reclaimed, report.bytes_reclaimed, report.objects_live,
    );
}

/// Re-verify one or all artifacts from the pooled bytes alone.
fn verify(dir: &str, artifact_id: Option<&str>) {
    let registry = Registry::at(dir);
    let ids: Vec<String> = match artifact_id {
        Some(id) => vec![id.to_string()],
        None => registry
            .artifacts()
            .unwrap_or_else(|e| fail(&format!("cannot read registry {dir}"), e))
            .into_iter()
            .map(|record| record.artifact_id)
            .collect(),
    };
    if ids.is_empty() {
        fail(&format!("cannot verify {dir}"), "the registry holds no artifacts");
    }
    for id in &ids {
        let verification =
            registry.verify(id).unwrap_or_else(|e| fail(&format!("verify of {id}"), e));
        assert!(verification.all_verified(), "verify() returned with a mismatch");
        println!("{id} OK ({} workloads reproduced their baselines)", verification.workloads.len());
    }
    println!("registry {dir}: {} artifact(s) verified", ids.len());
}
