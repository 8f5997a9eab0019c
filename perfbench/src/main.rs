//! `perfbench` — the repository's seeded benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-rollout|cold-sweep|ship-boot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives one workload in a closed loop through the public
//! API of `negativa_ml`, checks every op's output outside the timed
//! interval, and prints a human-readable report followed, as the last
//! line of standard output, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics ([`END_TO_END`]); with `--trace 1`
//! every other op is traced and the metrics are the per-layer metrics
//! ([`PER_LAYER`]). See `perfbench/README.md` for what each one means.

mod cold;
mod gen;
mod serve;
mod ship;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use negativa_ml::MultiDebloatReport;
use simml::{FrameworkBundle, FrameworkKind, SimmlError, WorkloadMetrics};

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("file_reduction_pct", "%"),
    ("host_reduction_pct", "%"),
    ("device_reduction_pct", "%"),
    ("sim_time_reduction_pct", "%"),
    ("sim_gpu_mem_reduction_pct", "%"),
    ("sim_host_mem_reduction_pct", "%"),
    ("detect_overhead_pct", "%"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.hit_ratio", "ratio"),
    ("plan.misses", "count"),
    ("plan.evictions", "count"),
    ("plan.detections", "count"),
    ("plan.coalesced", "count"),
    ("plan.incremental", "count"),
    ("plan.incremental_fallbacks", "count"),
    ("plan.diff_ms", "ms"),
    ("service.request_p50_ms", "ms"),
    ("service.request_p90_ms", "ms"),
    ("service.submit_p90_ms", "ms"),
    ("service.hit_request_p50_ms", "ms"),
    ("service.miss_request_p50_ms", "ms"),
    ("service.mean_batch_size", "count"),
    ("service.batched_share", "ratio"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("detect.p50_ms", "ms"),
    ("detect.runs", "count"),
    ("locate.p50_ms", "ms"),
    ("locate.function_keep_ratio", "ratio"),
    ("locate.element_keep_ratio", "ratio"),
    ("compact.p50_ms", "ms"),
    ("compact.bytes_copied", "B"),
    ("compact.bytes_shared", "B"),
    ("compact.bytes_sliced_arch", "B"),
    ("compact.compressed_rewritten", "count"),
    ("verify.p50_ms", "ms"),
    ("verify.runs", "count"),
    ("verify.deduped", "count"),
    ("pool.peak_active", "count"),
    ("pool.fan_outs", "count"),
    ("codec.plan_decode_p50_ms", "ms"),
    ("store.open_p50_ms", "ms"),
    ("store.load_bundle_p50_ms", "ms"),
    ("verify.rerun_p50_ms", "ms"),
    ("store.bytes_read", "B"),
    ("net.resolve_p50_ms", "ms"),
    ("net.pull_p50_ms", "ms"),
    ("net.push_p50_ms", "ms"),
    ("net.bytes_received", "B"),
    ("net.delta_skip_ratio", "ratio"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("net.wire_bytes_per_boot", "B"),
    ("net.full_pulls", "count"),
    ("net.delta_pulls", "count"),
    ("registry.dedup_ratio", "ratio"),
    ("registry.gc_p50_ms", "ms"),
    ("registry.bytes_reclaimed", "B"),
    ("registry.pool_bytes_per_artifact", "B"),
    ("simml.bundle_gen_ms", "ms"),
    ("simelf.index_build_ms", "ms"),
    ("session.self_ms", "ms"),
    ("service.self_ms", "ms"),
    ("detect.self_ms", "ms"),
    ("locate.self_ms", "ms"),
    ("compact.self_ms", "ms"),
    ("verify.self_ms", "ms"),
    ("codec.self_ms", "ms"),
    ("store.self_ms", "ms"),
    ("net.self_ms", "ms"),
    ("registry.self_ms", "ms"),
    ("loadgen.publish_p50_ms", "ms"),
    ("loadgen.retire_p50_ms", "ms"),
    ("loadgen.boot_p50_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("loadgen.ops", "count"),
    ("loadgen.failed", "count"),
];

/// Setup is repeated at least five times per run, and until the
/// repetitions add up to two seconds (at most 25 times); `setup_s` is
/// their median. A short setup is noisy, so it gets more repetitions.
pub fn more_setup(done: &[SetupRep]) -> bool {
    let total: f64 = done.iter().map(|r| r.total_s).sum();
    done.len() < 5 || (total < 2.0 && done.len() < 25)
}

/// A run keeps going past `--seconds` until this many ops have succeeded
/// (so a p90 has at least ten samples beyond it), but never past three
/// times `--seconds`.
pub const MIN_OPS: u64 = 120;

/// Completions per window of `ops_per_s`: one `ship-boot` block, so
/// every window of that workload holds the same mix of ops.
pub const RATE_WINDOW: usize = 9;

/// Length of the generated op plan; a run that exhausts it wraps.
pub const PLAN_LEN: usize = 1 << 14;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Closed-loop pacing shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    start: Instant,
    seconds: f64,
}

impl Pace {
    pub fn start(seconds: f64) -> Pace {
        Pace { start: Instant::now(), seconds }
    }

    /// Whether a client should start another op, `succeeded` ops in.
    pub fn more(&self, succeeded: u64) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed < self.seconds || (succeeded < MIN_OPS && elapsed < 3.0 * self.seconds)
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Timings of one setup repetition.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupRep {
    pub total_s: f64,
    pub bundle_gen_ms: f64,
    pub index_build_ms: f64,
}

/// Generate every framework bundle and its ELF indexes from scratch,
/// timed. The first repetition of a run also installs the bundles into
/// the process-wide cache the pipeline reads, and fills the index cache.
pub fn build_bundles(first: bool) -> Result<(f64, f64), String> {
    let (mut gen_ms, mut index_ms) = (0.0, 0.0);
    for framework in FrameworkKind::ALL {
        let begun = Instant::now();
        let bundle = FrameworkBundle::generate(framework).map_err(|e| e.to_string())?;
        gen_ms += ms(begun.elapsed());
        let begun = Instant::now();
        for library in bundle.libraries() {
            simelf::ElfIndex::build(&library.image).map_err(|e| e.to_string())?;
        }
        index_ms += ms(begun.elapsed());
        if first {
            simml::cached_bundle_with::<SimmlError>(framework, || Ok(bundle))
                .map_err(|e| e.to_string())?;
            simml::cached_indexes(framework);
        }
    }
    Ok((gen_ms, index_ms))
}

/// Reduction of `after` against `before`, in percent.
fn reduction_pct(before: u64, after: u64) -> f64 {
    if before == 0 {
        return 0.0;
    }
    (before as f64 - after as f64) * 100.0 / before as f64
}

fn peak_device(m: &WorkloadMetrics) -> u64 {
    m.peak_device_bytes.iter().copied().max().unwrap_or(0)
}

/// The paper's reduction and overhead figures (§4.6), as means over
/// every verified workload of every distinct input a run debloated.
#[derive(Debug, Default, Clone)]
pub struct Fidelity {
    sums: [f64; 7],
    workloads: usize,
}

const FIDELITY: [&str; 7] = [
    "file_reduction_pct",
    "host_reduction_pct",
    "device_reduction_pct",
    "sim_time_reduction_pct",
    "sim_gpu_mem_reduction_pct",
    "sim_host_mem_reduction_pct",
    "detect_overhead_pct",
];

impl Fidelity {
    /// Add every workload of one distinct input's verified report.
    pub fn add(&mut self, report: &MultiDebloatReport) {
        let totals = report.totals();
        for w in &report.workloads {
            let figures = [
                totals.file_reduction_pct(),
                totals.host_reduction_pct(),
                totals.device_reduction_pct(),
                reduction_pct(w.baseline.elapsed_ns, w.debloated.elapsed_ns),
                reduction_pct(peak_device(&w.baseline), peak_device(&w.debloated)),
                reduction_pct(w.baseline.peak_host_bytes, w.debloated.peak_host_bytes),
                -reduction_pct(w.baseline.elapsed_ns, w.detection.elapsed_ns),
            ];
            for (sum, figure) in self.sums.iter_mut().zip(figures) {
                *sum += figure;
            }
            self.workloads += 1;
        }
    }

    fn means(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        let n = self.workloads.max(1) as f64;
        FIDELITY.iter().zip(self.sums).map(move |(&name, sum)| (name, sum / n))
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    pub setup: Vec<SetupRep>,
    pub measured_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed, one line per failure (first few kept).
    pub failures: Vec<String>,
    /// Latencies of successful untraced ops.
    pub op_ms: Vec<f64>,
    /// Latencies of successful traced ops.
    pub traced_op_ms: Vec<f64>,
    /// When each successful op (traced or not) completed, in seconds
    /// since the measured interval began.
    pub done_s: Vec<f64>,
    pub fidelity: Fidelity,
    /// Per-layer values the workload measured itself (counts, derived
    /// ratios, client-side timings), by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<trace::Span>,
    /// Digest of the first [`PLAN_LEN`] generated ops.
    pub plan_digest: u64,
    /// Human-readable notes for the report.
    pub notes: Vec<String>,
}

impl Run {
    /// Ops that succeeded, traced or not.
    pub fn succeeded(&self) -> u64 {
        (self.op_ms.len() + self.traced_op_ms.len()) as u64
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Fold another client's tallies into this one.
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
        self.op_ms.extend(other.op_ms);
        self.traced_op_ms.extend(other.traced_op_ms);
        self.done_s.extend(other.done_s);
        self.done_s.sort_by(f64::total_cmp);
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in status")?;
    let kb: f64 =
        line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or("unparsable VmHWM")?;
    Ok(kb / 1024.0)
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The end-to-end metrics, and what keeps them from being reported in
/// full (a metric that cannot be computed reads 0 and the run is not
/// correct).
fn end_to_end(run: &Run) -> Result<(BTreeMap<&'static str, f64>, Vec<String>), String> {
    let mut m = BTreeMap::new();
    let mut problems = Vec::new();
    m.insert("setup_s", median_of(run.setup.iter().map(|r| r.total_s)));
    m.insert(
        "op_p50_ms",
        stats::median(&run.op_ms).unwrap_or_else(|| {
            problems.push("no successful op".to_owned());
            0.0
        }),
    );
    m.insert(
        "op_p90_ms",
        stats::p90(&run.op_ms).unwrap_or_else(|| {
            problems.push(format!(
                "p90 needs {} successful samples, the run has {}",
                stats::P90_MIN_SAMPLES,
                run.op_ms.len()
            ));
            0.0
        }),
    );
    m.insert(
        "ops_per_s",
        stats::windowed_rate(&run.done_s, RATE_WINDOW).unwrap_or_else(|| {
            problems.push(format!(
                "ops_per_s needs {RATE_WINDOW} successful ops, the run has {}",
                run.done_s.len()
            ));
            0.0
        }),
    );
    let completed = run.attempted - run.failed;
    m.insert("success_ratio", completed as f64 / run.attempted.max(1) as f64);
    m.insert("peak_rss_mb", peak_rss_mb()?);
    m.extend(run.fidelity.means());
    Ok((m, problems))
}

fn per_layer(run: &Run) -> BTreeMap<&'static str, f64> {
    let breakdown = trace::analyze(&run.spans);
    let mut m = run.layers.clone();
    m.insert("simml.bundle_gen_ms", median_of(run.setup.iter().map(|r| r.bundle_gen_ms)));
    m.insert("simelf.index_build_ms", median_of(run.setup.iter().map(|r| r.index_build_ms)));
    for (name, span) in [
        ("detect.p50_ms", "detect"),
        ("locate.p50_ms", "locate"),
        ("compact.p50_ms", "compact"),
        ("verify.p50_ms", "verify"),
        ("codec.plan_decode_p50_ms", "codec.plan_decode"),
        ("store.open_p50_ms", "store.open"),
        ("store.load_bundle_p50_ms", "store.load_bundle"),
        ("verify.rerun_p50_ms", "verify.rerun"),
        ("net.resolve_p50_ms", "net.resolve"),
        ("net.pull_p50_ms", "net.pull"),
        ("net.push_p50_ms", "net.push"),
        ("registry.gc_p50_ms", "registry.remove"),
    ] {
        m.insert(name, stats::median(breakdown.durations(span)).unwrap_or(0.0));
    }
    for &(name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".self_ms") {
            m.insert(name, breakdown.self_ms_per_op(layer));
        }
    }
    m.insert("trace.coverage", breakdown.coverage());
    let untraced = stats::median(&run.op_ms).unwrap_or(0.0);
    let traced = stats::median(&run.traced_op_ms).unwrap_or(0.0);
    m.insert(
        "trace.overhead_pct",
        if untraced > 0.0 { (traced / untraced - 1.0) * 100.0 } else { 0.0 },
    );
    m.insert("loadgen.ops", run.attempted as f64);
    m.insert("loadgen.failed", run.failed as f64);
    m
}

/// A finite metric value as JSON, with all its digits (`Display` for
/// `f64` never uses exponent notation).
fn json_number(value: f64) -> String {
    format!("{value}")
}

fn render_json(
    correct: bool,
    run: &Run,
    schema: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted, run.failed
    );
    for (i, &(name, unit)) in schema.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push_str("}}");
    out
}

fn print_text(
    args: &Args,
    run: &Run,
    schema: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("op plan digest {:016x} over the first {PLAN_LEN} generated ops", run.plan_digest);
    println!(
        "ops attempted {} failed {} in {:.3} s; latency samples: {} untraced, {} traced",
        run.attempted,
        run.failed,
        run.measured_s,
        run.op_ms.len(),
        run.traced_op_ms.len()
    );
    let setup: Vec<f64> = run.setup.iter().map(|r| r.total_s).collect();
    println!("setup repetitions {:?} s, spread {:.4}", setup, stats::spread(&setup).unwrap_or(0.0));
    if let Some((q1, q3)) = stats::quartiles(&run.op_ms) {
        println!("untraced op latency quartiles {q1:.3} / {q3:.3} ms");
    }
    println!(
        "successful ops per second: {:.4} over the whole interval, {:.4} median of windows of {RATE_WINDOW}",
        run.done_s.len() as f64 / run.measured_s,
        stats::windowed_rate(&run.done_s, RATE_WINDOW).unwrap_or(0.0)
    );
    for why in &run.failures {
        println!("failure: {why}");
    }
    for note in &run.notes {
        println!("{note}");
    }
    for &(name, unit) in schema {
        println!("  {name:<36} {:>16.4} {unit}", values.get(name).copied().unwrap_or(0.0));
    }
}

/// Self time of the pipeline layers per traced op against the untraced
/// op median, with the share the spans leave uncovered.
fn print_breakdown(run: &Run) {
    let b = trace::analyze(&run.spans);
    let untraced = stats::median(&run.op_ms).unwrap_or(0.0);
    let untraced_mean = run.op_ms.iter().sum::<f64>() / run.op_ms.len().max(1) as f64;
    let traced_mean = if b.ops == 0 { 0.0 } else { b.op_ns as f64 / 1e6 / b.ops as f64 };
    println!(
        "trace: {} traced ops, mean {traced_mean:.2} ms; untraced ops: p50 {untraced:.2} ms, \
         mean {untraced_mean:.2} ms",
        b.ops
    );
    for (layer, &ns) in &b.self_ns {
        let per_op = ns as f64 / 1e6 / b.ops.max(1) as f64;
        let share = |of: f64| if of > 0.0 { 100.0 * per_op / of } else { 0.0 };
        println!(
            "  self {layer:<10} {per_op:>9.3} ms/op = {:>6.2}% of traced op time; \
             {:>6.2}% of untraced op p50, {:>6.2}% of its mean",
            100.0 * ns as f64 / b.op_ns.max(1) as f64,
            share(untraced),
            share(untraced_mean)
        );
    }
    println!("  uncovered by spans: {:.2}% of traced op time", 100.0 * (1.0 - b.coverage()));
}

fn write_spans(args: &Args, spans: &[trace::Span]) -> Result<PathBuf, String> {
    let dir = work_root();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path =
        dir.join(format!("trace-{}-seed{}-{}.tsv", args.workload, args.seed, std::process::id()));
    std::fs::write(&path, trace::render(spans)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Directory (relative to the working directory) for the registries a
/// run writes and the span files it leaves behind.
pub fn work_root() -> PathBuf {
    PathBuf::from(".perfbench_work")
}

fn execute(args: &Args) -> Result<(bool, String), String> {
    let tracer = trace::Tracer::new(args.trace);
    let mut run = match args.workload.as_str() {
        "serve-rollout" => serve::run(args, &tracer)?,
        "cold-sweep" => cold::run(args, &tracer)?,
        "ship-boot" => ship::run(args, &tracer)?,
        other => return Err(format!("unknown workload {other}")),
    };
    run.spans = tracer.spans();
    let (schema, values, problems) = if args.trace {
        let path = write_spans(args, &run.spans)?;
        run.notes.push(format!("spans written to {}", path.display()));
        (PER_LAYER, per_layer(&run), Vec::new())
    } else {
        let (values, problems) = end_to_end(&run)?;
        (END_TO_END, values, problems)
    };
    for problem in problems.iter() {
        run.notes.push(format!("not reported in full: {problem}"));
    }
    let correct = run.failed == 0 && run.attempted > 0 && problems.is_empty();
    if let Some((name, value)) = values.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    print_text(args, &run, schema, &values);
    if args.trace {
        print_breakdown(&run);
    }
    Ok((correct, render_json(correct, &run, schema, &values)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok((_, json)) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in code and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = negativa_ml::codec::JsonValue::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(names("end_to_end"), owned(END_TO_END));
        assert_eq!(names("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.203456789), "1.203456789");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(-0.5), "-0.5");
    }
}
