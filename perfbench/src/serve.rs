//! `serve-rollout`: two closed-loop clients drive one resident
//! `DebloatService`. Each op is a rollout: submit k identical requests
//! for one workload set, then wait for all k tickets.
//!
//! Sets are drawn Zipf-skewed from a catalogue of every single base
//! workload and every 2–3-workload union of them, across all four
//! frameworks; the seed fixes the Zipf ranking and the op stream. Each
//! framework's share of the catalogue exceeds the service's
//! per-framework plan-cache capacity, so the run sees hits, evictions,
//! incremental re-plans and batched twins.
//!
//! After the timed loop, every catalogue set is requested once more,
//! untimed, and the paper-fidelity figures are means over those
//! responses, so they cover the same sets for every seed and run length.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use negativa_ml::plan::bundle_fingerprint;
use negativa_ml::service::{DebloatResponse, DebloatService, ServiceHandle};
use negativa_ml::WorkerPool;
use simcuda::{GpuModel, LoadMode};
use simml::{FrameworkKind, ModelKind, Operation, Workload};

use crate::gen::{digest, Rng, Zipf};
use crate::trace::{Tracer, OP};
use crate::{build_bundles, more_setup, ms, stats, Args, Fidelity, Pace, Run, SetupRep, PLAN_LEN};

/// Concurrent clients (no more than the 2 cores the benchmark targets).
const CLIENTS: usize = 2;
/// Per-framework plan-cache capacity of the service under test.
const CACHE_CAPACITY: usize = 4;
/// Zipf exponent of the set popularity.
const ZIPF_S: f64 = 1.0;
/// Rollout sizes come in blocks of four ops: three single requests and
/// one seeded rollout of 2..=8, in seeded order.
const ROLLOUT_BLOCK: usize = 4;
const MAX_ROLLOUT: usize = 8;

/// The base workloads of one framework: its Table-1 workloads, plus
/// for the two LLM frameworks (one Table-1 row each) a lazy-loading
/// and a two-rank variant of Llama2 inference.
fn base_workloads(framework: FrameworkKind) -> Vec<Workload> {
    match framework {
        FrameworkKind::PyTorch | FrameworkKind::TensorFlow => {
            Workload::paper_set().into_iter().filter(|w| w.framework == framework).collect()
        }
        _ => {
            let table1 = Workload::paper(framework, ModelKind::Llama2, Operation::Inference);
            let mut two_rank = table1.clone();
            two_rank.devices = vec![GpuModel::T4; 2];
            vec![table1, Workload::h100(framework, LoadMode::Lazy), two_rank]
        }
    }
}

/// Every single base workload and every 2- and 3-workload union of one
/// framework's base workloads, for all four frameworks.
pub fn catalogue() -> Vec<Vec<Workload>> {
    let mut sets = Vec::new();
    for framework in FrameworkKind::ALL {
        let base = base_workloads(framework);
        let n = base.len();
        sets.extend(base.iter().map(|w| vec![w.clone()]));
        for i in 0..n {
            for j in i + 1..n {
                sets.push(vec![base[i].clone(), base[j].clone()]);
                for k in j + 1..n {
                    sets.push(vec![base[i].clone(), base[j].clone(), base[k].clone()]);
                }
            }
        }
    }
    sets
}

fn set_label(set: &[Workload]) -> String {
    let labels: Vec<String> = set
        .iter()
        .map(|w| format!("{}@{}x{:?}", w.label(), w.devices.len(), w.load_mode))
        .collect();
    labels.join("+")
}

/// One rollout: catalogue entry and request count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rollout {
    pub entry: usize,
    pub k: usize,
}

/// The seeded op plan. The Zipf ranking takes the frameworks in turn —
/// rank r goes to the next framework with sets left, in seeded order
/// within each framework — so every seed spreads popularity over the
/// frameworks alike. Each op draws a rank.
pub fn plan(seed: u64, catalogue: &[Vec<Workload>], len: usize) -> (Vec<usize>, Vec<Rollout>) {
    let mut rng = Rng::stream(seed, "serve-rollout/ranking");
    let mut queues: Vec<Vec<usize>> = FrameworkKind::ALL
        .iter()
        .map(|&framework| {
            let mut q: Vec<usize> =
                (0..catalogue.len()).filter(|&e| catalogue[e][0].framework == framework).collect();
            rng.shuffle(&mut q);
            q.reverse();
            q
        })
        .collect();
    let mut ranking = Vec::with_capacity(catalogue.len());
    while ranking.len() < catalogue.len() {
        for q in &mut queues {
            ranking.extend(q.pop());
        }
    }
    let zipf = Zipf::new(catalogue.len(), ZIPF_S);
    let mut rng = Rng::stream(seed, "serve-rollout/ops");
    let mut ops = Vec::with_capacity(len + ROLLOUT_BLOCK);
    while ops.len() < len {
        let mut sizes = [1; ROLLOUT_BLOCK];
        sizes[0] = 2 + rng.below(MAX_ROLLOUT - 1);
        rng.shuffle(&mut sizes);
        for k in sizes {
            ops.push(Rollout { entry: ranking[zipf.sample(&mut rng)], k });
        }
    }
    ops.truncate(len);
    (ranking, ops)
}

/// Set up one service: bundles, the service itself, and one warm-up
/// request per framework (its first base workload alone).
fn setup(first: bool, catalogue: &[Vec<Workload>]) -> Result<(DebloatService, SetupRep), String> {
    let begun = Instant::now();
    let (bundle_gen_ms, index_build_ms) = build_bundles(first)?;
    let service = DebloatService::builder(GpuModel::T4).cache_capacity(CACHE_CAPACITY).build();
    let handle = service.handle();
    for framework in FrameworkKind::ALL {
        let set = catalogue
            .iter()
            .find(|s| s[0].framework == framework)
            .expect("every framework has catalogue entries");
        let response = handle.request(set.clone()).map_err(|e| e.to_string())?;
        if !response.report.all_verified() {
            return Err(format!("warm-up of {} did not verify", set_label(set)));
        }
    }
    let rep = SetupRep { total_s: begun.elapsed().as_secs_f64(), bundle_gen_ms, index_build_ms };
    Ok((service, rep))
}

/// What one request of a rollout returned, timed from the client side.
struct Request {
    response: negativa_ml::Result<DebloatResponse>,
    submit_ms: f64,
    request_ms: f64,
}

fn rollout(
    handle: &ServiceHandle,
    set: &[Workload],
    k: usize,
    tracer: &Tracer,
    op: u64,
) -> Vec<Request> {
    let mut pending = Vec::with_capacity(k);
    for _ in 0..k {
        let copy = set.to_vec();
        let begun = Instant::now();
        let ticket = tracer.span("service.submit", op, || handle.submit(copy));
        pending.push((begun, ms(begun.elapsed()), ticket));
    }
    pending
        .into_iter()
        .map(|(begun, submit_ms, ticket)| {
            let response = ticket.and_then(|t| tracer.span("service.wait", op, || t.wait()));
            Request { response, submit_ms, request_ms: ms(begun.elapsed()) }
        })
        .collect()
}

/// One request of a traced rollout.
struct TracedRequest {
    latency_ms: f64,
    submit_ms: f64,
    plan_cache_hit: bool,
}

/// Shared state the clients check outputs against.
#[derive(Default)]
struct Checks {
    /// Bundle fingerprint of the first response per catalogue entry.
    first_fingerprint: HashMap<usize, u64>,
    /// Traced requests: (latency, submit time, plan-cache hit).
    traced_requests: Vec<TracedRequest>,
    /// Responses checked, and those served by a batch of two or more.
    responses: u64,
    batched: u64,
}

/// Check one rollout's responses; `Err` names the first problem.
fn check(entry: usize, requests: &[Request], checks: &Mutex<Checks>) -> Result<(), String> {
    let mut fingerprints: Vec<(*const Vec<simml::GeneratedLibrary>, u64)> = Vec::new();
    for request in requests {
        let response = request.response.as_ref().map_err(|e| e.to_string())?;
        if !response.report.all_verified() {
            return Err(format!("entry {entry}: response did not verify"));
        }
        let ptr = Arc::as_ptr(&response.libraries);
        let batched = u64::from(response.report.batched);
        let fingerprint = match fingerprints.iter().find(|(p, _)| *p == ptr) {
            Some(&(_, fp)) => fp,
            None => {
                let fp = bundle_fingerprint(&response.libraries);
                fingerprints.push((ptr, fp));
                fp
            }
        };
        let mut checks = checks.lock().expect("check state poisoned");
        checks.responses += 1;
        checks.batched += batched;
        match checks.first_fingerprint.get(&entry) {
            Some(&first) if first != fingerprint => {
                return Err(format!("entry {entry}: bundle fingerprint {fingerprint:016x} differs from the first response's {first:016x}"));
            }
            Some(_) => {}
            None => {
                checks.first_fingerprint.insert(entry, fingerprint);
            }
        }
    }
    Ok(())
}

/// The untimed pass over the whole catalogue, [`CLIENTS`] sets at a
/// time: each response is checked like a timed one, and the fidelity
/// means and locate keep counts are taken over the verified ones. A
/// response that fails its check counts as an attempted, failed op.
fn catalogue_pass(
    handle: &ServiceHandle,
    catalogue: &[Vec<Workload>],
    checks: &Mutex<Checks>,
    run: &mut Run,
) -> (Fidelity, [u64; 4]) {
    let mut fidelity = Fidelity::default();
    let mut keep = [0u64; 4];
    let entries: Vec<usize> = (0..catalogue.len()).collect();
    for chunk in entries.chunks(CLIENTS) {
        let tickets: Vec<_> = chunk.iter().map(|&e| handle.submit(catalogue[e].clone())).collect();
        for (&entry, ticket) in chunk.iter().zip(tickets) {
            let request = Request {
                response: ticket.and_then(|t| t.wait()),
                submit_ms: 0.0,
                request_ms: 0.0,
            };
            if let Err(why) = check(entry, std::slice::from_ref(&request), checks) {
                run.attempted += 1;
                run.fail(format!("catalogue pass: {why}"));
                continue;
            }
            let report = &request.response.as_ref().expect("a checked response is Ok").report;
            fidelity.add(report);
            for lib in &report.libraries {
                let counts = [
                    lib.used_functions,
                    lib.total_functions,
                    lib.kept_elements,
                    lib.total_elements,
                ];
                for (sum, c) in keep.iter_mut().zip(counts) {
                    *sum += c as u64;
                }
            }
        }
    }
    (fidelity, keep)
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Run, String> {
    let catalogue = catalogue();
    let (_, ops) = plan(args.seed, &catalogue, PLAN_LEN);
    let descriptions: Vec<String> =
        ops.iter().map(|o| format!("{}x{}", set_label(&catalogue[o.entry]), o.k)).collect();

    let mut run =
        Run { plan_digest: digest(descriptions.iter().map(String::as_str)), ..Run::default() };
    let mut service = None;
    while more_setup(&run.setup) {
        let (built, timing) = setup(run.setup.is_empty(), &catalogue)?;
        run.setup.push(timing);
        if let Some(previous) = service.replace(built) {
            DebloatService::shutdown(previous);
        }
    }
    let service = service.expect("at least one setup repetition");
    let pool_before = WorkerPool::shared().stats();
    let cache_before = service.plan_cache().stats();
    let stats_before = service.stats();

    let off = Tracer::new(false);
    let checks = Mutex::new(Checks::default());
    let next = AtomicUsize::new(0);
    let done = AtomicU64::new(0);
    let pace = Pace::start(args.seconds);
    let clients: Vec<Run> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let handle = service.handle();
                let (catalogue, ops, checks, next, done, off) =
                    (&catalogue, &ops, &checks, &next, &done, &off);
                scope.spawn(move || {
                    let mut mine = Run::default();
                    while pace.more(done.load(Ordering::Relaxed)) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let op = ops[i % ops.len()];
                        let traced = args.trace && i % 2 == 1;
                        let t = if traced { tracer } else { off };
                        let begun = Instant::now();
                        let requests = t.span(OP, i as u64, || {
                            rollout(&handle, &catalogue[op.entry], op.k, t, i as u64)
                        });
                        let elapsed = ms(begun.elapsed());
                        mine.attempted += 1;
                        let verdict = check(op.entry, &requests, checks);
                        if verdict.is_ok() {
                            done.fetch_add(1, Ordering::Relaxed);
                            mine.done_s.push(pace.elapsed_s());
                        }
                        match verdict {
                            Ok(()) if traced => {
                                mine.traced_op_ms.push(elapsed);
                                let mut c = checks.lock().expect("check state poisoned");
                                for r in &requests {
                                    let hit = r
                                        .response
                                        .as_ref()
                                        .is_ok_and(|resp| resp.report.plan_cache_hit);
                                    c.traced_requests.push(TracedRequest {
                                        latency_ms: r.request_ms,
                                        submit_ms: r.submit_ms,
                                        plan_cache_hit: hit,
                                    });
                                }
                            }
                            Ok(()) => mine.op_ms.push(elapsed),
                            Err(why) => mine.fail(why),
                        }
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    run.measured_s = pace.elapsed_s();
    for client in clients {
        run.absorb(client);
    }

    let pool = WorkerPool::shared().stats();
    let cache = service.plan_cache().stats();
    let svc = service.stats();
    let (served, responses, batched) = {
        let c = checks.lock().expect("check state poisoned");
        (c.first_fingerprint.len(), c.responses, c.batched)
    };
    let (fidelity, keep) = catalogue_pass(&service.handle(), &catalogue, &checks, &mut run);
    DebloatService::shutdown(service);
    let checks = checks.into_inner().expect("check state poisoned");
    run.fidelity = fidelity;
    run.notes.push(format!(
        "catalogue {} sets; {served} distinct sets served in the timed loop; service plan \
         cache {} per framework",
        catalogue.len(),
        CACHE_CAPACITY
    ));

    let delta = |after: u64, before: u64| (after - before) as f64;
    let hits = delta(cache.hits, cache_before.hits);
    let misses = delta(cache.misses, cache_before.misses);
    let incremental = delta(cache.incremental, cache_before.incremental);
    let requests = delta(svc.completed, stats_before.completed);
    let batches = delta(svc.batches, stats_before.batches);
    let traced = &checks.traced_requests;
    let latencies = |keep: &dyn Fn(&TracedRequest) -> bool| -> Vec<f64> {
        traced.iter().filter(|r| keep(r)).map(|r| r.latency_ms).collect()
    };
    let request_ms = latencies(&|_| true);
    let hit_ms = latencies(&|r| r.plan_cache_hit);
    let miss_ms = latencies(&|r| !r.plan_cache_hit);
    let submit_ms: Vec<f64> = traced.iter().map(|r| r.submit_ms).collect();
    let [used_fns, total_fns, kept_elems, total_elems] = keep;
    let l = &mut run.layers;
    l.insert("plan.hit_ratio", hits / (hits + misses).max(1.0));
    l.insert("plan.misses", misses);
    l.insert("plan.evictions", delta(cache.evictions, cache_before.evictions));
    l.insert("plan.detections", delta(cache.detections, cache_before.detections));
    l.insert("plan.coalesced", delta(cache.coalesced, cache_before.coalesced));
    l.insert("plan.incremental", incremental);
    l.insert(
        "plan.incremental_fallbacks",
        delta(cache.incremental_fallbacks, cache_before.incremental_fallbacks),
    );
    l.insert(
        "plan.diff_ms",
        delta(cache.plan_diff_ns, cache_before.plan_diff_ns) / 1e6 / incremental.max(1.0),
    );
    l.insert("detect.runs", delta(cache.detections, cache_before.detections));
    l.insert("service.request_p50_ms", stats::median(&request_ms).unwrap_or(0.0));
    l.insert("service.request_p90_ms", stats::p90(&request_ms).unwrap_or(0.0));
    l.insert("service.submit_p90_ms", stats::p90(&submit_ms).unwrap_or(0.0));
    l.insert("service.hit_request_p50_ms", stats::median(&hit_ms).unwrap_or(0.0));
    l.insert("service.miss_request_p50_ms", stats::median(&miss_ms).unwrap_or(0.0));
    l.insert("service.mean_batch_size", requests / batches.max(1.0));
    l.insert("service.batched_share", batched as f64 / responses.max(1) as f64);
    l.insert("service.shed", delta(svc.shed, stats_before.shed));
    l.insert("service.failed", delta(svc.failed, stats_before.failed));
    l.insert("locate.function_keep_ratio", used_fns as f64 / total_fns.max(1) as f64);
    l.insert("locate.element_keep_ratio", kept_elems as f64 / total_elems.max(1) as f64);
    l.insert("compact.bytes_copied", delta(svc.bytes_copied, stats_before.bytes_copied));
    l.insert("compact.bytes_shared", delta(svc.bytes_shared, stats_before.bytes_shared));
    l.insert(
        "compact.bytes_sliced_arch",
        delta(svc.bytes_sliced_arch, stats_before.bytes_sliced_arch),
    );
    l.insert(
        "compact.compressed_rewritten",
        delta(svc.compressed_rewritten, stats_before.compressed_rewritten),
    );
    l.insert("verify.runs", delta(pool.verify_runs, pool_before.verify_runs));
    l.insert("verify.deduped", delta(pool.verify_deduped, pool_before.verify_deduped));
    l.insert("pool.peak_active", pool.peak_active as f64);
    l.insert("pool.fan_outs", delta(pool.fan_outs, pool_before.fan_outs));
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_framework_outnumbers_the_plan_cache() {
        let sets = catalogue();
        for framework in FrameworkKind::ALL {
            let share = sets.iter().filter(|s| s[0].framework == framework).count();
            assert!(share > CACHE_CAPACITY, "{} has {share} sets", framework.name());
        }
        assert!(sets.iter().all(|s| (1..=3).contains(&s.len())));
    }

    #[test]
    fn one_seed_plans_the_same_rollouts() {
        let sets = catalogue();
        assert_eq!(plan(11, &sets, 2000), plan(11, &sets, 2000));
        assert_ne!(plan(11, &sets, 2000).1, plan(12, &sets, 2000).1);
        let (ranking, ops) = plan(11, &sets, 2000);
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..sets.len()).collect::<Vec<_>>());
        let top: Vec<FrameworkKind> = ranking[..4].iter().map(|&e| sets[e][0].framework).collect();
        assert_eq!(top, FrameworkKind::ALL);
        assert!(ops.iter().all(|o| o.entry < sets.len() && (1..=MAX_ROLLOUT).contains(&o.k)));
        for block in ops.chunks(ROLLOUT_BLOCK) {
            assert_eq!(block.iter().filter(|o| o.k == 1).count(), ROLLOUT_BLOCK - 1);
        }
    }
}
