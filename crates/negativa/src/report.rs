//! Stage 5 — analysis.
//!
//! Aggregates per-library compaction outcomes and the three measured
//! runs (baseline, detection, verification) into the numbers the paper
//! reports. There is one report type, [`MultiDebloatReport`], for a
//! debloat of one or more workloads: host/device/file size reductions
//! per library ([`LibraryReport`]) and in total ([`Totals`]), and per
//! workload ([`WorkloadVerification`]) the peak-memory and
//! execution-time deltas and the detector's profiling overhead. All
//! sizes are page-granular occupied bytes — the effective footprint
//! after hole punching — in real (generated) bytes; every percentage is
//! scale-invariant.
//!
//! Every field here is **deterministic**: serial and pooled execution,
//! grouped and unbatched service paths, and deduplicated verification
//! must all produce `PartialEq`-identical reports (pinned by test), so
//! no parallelism- or scheduling-dependent quantity may be added to
//! these structs — such accounting belongs on [`crate::PoolStats`] /
//! `ServiceStats`, which are snapshots, not per-debloat results.

use simcuda::GpuModel;
use simml::scale::real_bytes_to_paper_mb;
use simml::WorkloadMetrics;

use crate::compact::CompactionOutcome;
use crate::locate::LocateStats;

fn reduction_pct(before: u64, after: u64) -> f64 {
    if before == 0 {
        0.0
    } else {
        (before as f64 - after as f64) * 100.0 / before as f64
    }
}

/// Format a reduction percentage as the *signed delta* of the metric:
/// a shrink prints `-60.3%` (the paper's table convention), a metric
/// that *grew* prints `+12.0%` — never the double negative `--12.0%`
/// that hard-coding a `-` sign in front of a negative reduction used to
/// produce.
fn delta_pct(reduction: f64) -> String {
    let delta = -reduction;
    format!("{:+.1}%", if delta == 0.0 { 0.0 } else { delta })
}

/// Format a before/after pair as paper-scale MB plus the signed change,
/// the way the paper's Table 2 rows read: `841.6 -> 334.1 MB (-60.3%)`.
fn mb_line(before: u64, after: u64) -> String {
    format!(
        "{:.1} -> {:.1} MB ({})",
        real_bytes_to_paper_mb(before),
        real_bytes_to_paper_mb(after),
        delta_pct(reduction_pct(before, after)),
    )
}

/// Before/after sizes of one debloated library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryReport {
    /// Shared object name.
    pub soname: String,
    /// Whole-file occupied bytes before compaction.
    pub file_before: u64,
    /// Whole-file occupied bytes after compaction.
    pub file_after: u64,
    /// `.text` occupied bytes before.
    pub host_before: u64,
    /// `.text` occupied bytes after.
    pub host_after: u64,
    /// `.nv_fatbin` occupied bytes before.
    pub device_before: u64,
    /// `.nv_fatbin` occupied bytes after.
    pub device_after: u64,
    /// Host functions in the symbol table.
    pub total_functions: usize,
    /// Host functions observed in use.
    pub used_functions: usize,
    /// Intact fatbin elements before compaction.
    pub total_elements: usize,
    /// Elements retained.
    pub kept_elements: usize,
    /// Bytes the compaction deep-copied to detach this library from the
    /// shared original image (the whole file, exactly once, iff the
    /// plan zeroed anything — the copy-on-write cost).
    pub bytes_copied: u64,
    /// Bytes the compacted library still shares with the original image
    /// (the whole file iff the plan had nothing to zero).
    pub bytes_shared: u64,
    /// Payload bytes of elements removed because their architecture runs
    /// on no fleet member (0 for single-member fleets).
    pub bytes_sliced_arch: u64,
    /// Non-zero bytes eliminated by in-place compressed-element rewrites
    /// (0 for single-member fleets).
    pub bytes_sliced_compressed: u64,
    /// Compressed elements rewritten in place.
    pub compressed_rewritten: u64,
}

impl LibraryReport {
    /// Assemble from the location and compaction stage outputs.
    pub fn new(soname: String, stats: LocateStats, outcome: CompactionOutcome) -> LibraryReport {
        LibraryReport {
            soname,
            file_before: outcome.file_before,
            file_after: outcome.file_after,
            host_before: outcome.host_before,
            host_after: outcome.host_after,
            device_before: outcome.device_before,
            device_after: outcome.device_after,
            total_functions: stats.total_functions,
            used_functions: stats.used_functions,
            total_elements: stats.total_elements,
            kept_elements: stats.kept_elements,
            bytes_copied: outcome.bytes_copied,
            bytes_shared: outcome.bytes_shared,
            bytes_sliced_arch: outcome.bytes_sliced_arch,
            bytes_sliced_compressed: outcome.bytes_sliced_compressed,
            compressed_rewritten: outcome.compressed_rewritten,
        }
    }

    /// Whole-file size reduction in percent.
    pub fn file_reduction_pct(&self) -> f64 {
        reduction_pct(self.file_before, self.file_after)
    }

    /// Host (`.text`) size reduction in percent.
    pub fn host_reduction_pct(&self) -> f64 {
        reduction_pct(self.host_before, self.host_after)
    }

    /// Device (`.nv_fatbin`) size reduction in percent.
    pub fn device_reduction_pct(&self) -> f64 {
        reduction_pct(self.device_before, self.device_after)
    }
}

/// Bundle-wide size totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Whole-bundle occupied bytes before compaction.
    pub file_before: u64,
    /// Whole-bundle occupied bytes after compaction.
    pub file_after: u64,
    /// Total `.text` occupied bytes before.
    pub host_before: u64,
    /// Total `.text` occupied bytes after.
    pub host_after: u64,
    /// Total `.nv_fatbin` occupied bytes before.
    pub device_before: u64,
    /// Total `.nv_fatbin` occupied bytes after.
    pub device_after: u64,
    /// Total payload bytes arch-sliced for targeting SMs outside the
    /// fleet (0 for single-member fleets).
    pub bytes_sliced_arch: u64,
    /// Total non-zero bytes eliminated by compressed-element rewrites.
    pub bytes_sliced_compressed: u64,
    /// Total compressed elements rewritten in place.
    pub compressed_rewritten: u64,
}

impl Totals {
    /// Sum per-library reports into bundle-wide totals — shared by
    /// [`MultiDebloatReport::totals`] and by tooling that reassembles
    /// stats from a stored artifact's manifest entries.
    pub fn sum(libraries: &[LibraryReport]) -> Totals {
        let mut t = Totals::default();
        for lib in libraries {
            t.file_before += lib.file_before;
            t.file_after += lib.file_after;
            t.host_before += lib.host_before;
            t.host_after += lib.host_after;
            t.device_before += lib.device_before;
            t.device_after += lib.device_after;
            t.bytes_sliced_arch += lib.bytes_sliced_arch;
            t.bytes_sliced_compressed += lib.bytes_sliced_compressed;
            t.compressed_rewritten += lib.compressed_rewritten;
        }
        t
    }

    /// Bytes the fleet slicing removed in total — the arch-slice and
    /// compressed-rewrite contributions combined.
    pub fn fleet_slice_bytes_removed(&self) -> u64 {
        self.bytes_sliced_arch + self.bytes_sliced_compressed
    }

    /// Whole-bundle file size reduction in percent.
    pub fn file_reduction_pct(&self) -> f64 {
        reduction_pct(self.file_before, self.file_after)
    }

    /// Bundle host code reduction in percent.
    pub fn host_reduction_pct(&self) -> f64 {
        reduction_pct(self.host_before, self.host_after)
    }

    /// Bundle device code reduction in percent.
    pub fn device_reduction_pct(&self) -> f64 {
        reduction_pct(self.device_before, self.device_after)
    }
}

/// Verification record of one workload in a multi-workload debloat: the
/// baseline reference checksum next to what the debloated bundle
/// actually produced, plus the metrics of the two measured runs: the
/// detection run on both of its clocks, and the verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadVerification {
    /// Workload label.
    pub label: String,
    /// Output checksum of the original bundle (the reference).
    pub baseline_checksum: u64,
    /// Output checksum of the verification run on the debloated bundle.
    pub verified_checksum: u64,
    /// Baseline metrics: the detection run on its overhead-free clock
    /// (one run, two clocks).
    pub baseline: WorkloadMetrics,
    /// Metrics of the detection run, the detector's overhead included.
    pub detection: WorkloadMetrics,
    /// Metrics of the verification run on the debloated bundle.
    pub debloated: WorkloadMetrics,
}

impl WorkloadVerification {
    /// True if the debloated bundle reproduced this workload's baseline
    /// output bit-for-bit.
    pub fn verified(&self) -> bool {
        self.baseline_checksum == self.verified_checksum
    }

    /// Execution-time reduction of the debloated bundle vs baseline, in
    /// percent.
    pub fn time_reduction_pct(&self) -> f64 {
        reduction_pct(self.baseline.elapsed_ns, self.debloated.elapsed_ns)
    }

    /// Peak host memory reduction vs baseline, in percent.
    pub fn host_memory_reduction_pct(&self) -> f64 {
        reduction_pct(self.baseline.peak_host_bytes, self.debloated.peak_host_bytes)
    }

    /// Peak GPU memory reduction (worst device) vs baseline, in percent.
    pub fn device_memory_reduction_pct(&self) -> f64 {
        let max = |m: &WorkloadMetrics| m.peak_device_bytes.iter().copied().max().unwrap_or(0);
        reduction_pct(max(&self.baseline), max(&self.debloated))
    }

    /// Virtual-time overhead of running with the detector attached, in
    /// percent over baseline (the paper's §4.6 comparison): the
    /// detection run's two clocks compared.
    pub fn detection_overhead_pct(&self) -> f64 {
        if self.baseline.elapsed_ns == 0 {
            return 0.0;
        }
        (self.detection.elapsed_ns as f64 - self.baseline.elapsed_ns as f64) * 100.0
            / self.baseline.elapsed_ns as f64
    }
}

/// The result of debloating one shared bundle against the *union* usage
/// of several workloads ([`crate::Debloater::debloat_many`]): one set of
/// per-library outcomes, one verification record per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDebloatReport {
    /// GPU the debloat targeted.
    pub gpu: GpuModel,
    /// Per-library outcomes of the single shared compaction.
    pub libraries: Vec<LibraryReport>,
    /// Per-workload verification records, in input order.
    pub workloads: Vec<WorkloadVerification>,
    /// Distinct kernels in the union usage.
    pub used_kernels: usize,
    /// Distinct host functions in the union usage.
    pub used_host_fns: usize,
    /// True if the union retain plan came from the plan cache.
    pub plan_cache_hit: bool,
    /// True if this per-request report was sliced from a batched union
    /// debloat — the service's queue grouped this request with others
    /// sharing its plan identity, and one detection/plan/compact served
    /// the whole group. False for unbatched entry points
    /// ([`crate::Debloater::debloat_many`]) and for batches of one.
    pub batched: bool,
    /// Number of requests the underlying execution served — the batch
    /// provenance behind [`MultiDebloatReport::batched`]. Always ≥ 1;
    /// exactly 1 on the unbatched path.
    pub batch_size: usize,
    /// Bytes the single shared compaction deep-copied to detach the
    /// debloated libraries from the originals — O(1) in the batch size:
    /// fan-out hands every requester a shared handle, never a copy.
    pub bytes_copied: u64,
    /// Bytes the debloated libraries still share with the original
    /// bundle images (libraries whose plan had nothing to zero).
    pub bytes_shared: u64,
}

impl MultiDebloatReport {
    /// Sum the per-library sizes.
    pub fn totals(&self) -> Totals {
        Totals::sum(&self.libraries)
    }

    /// True if every workload's verification checksum matches its
    /// baseline. Always true for reports the debloater returns —
    /// verification errors abort the pipeline — but recorded per
    /// workload so callers can audit the guarantee.
    pub fn all_verified(&self) -> bool {
        self.workloads.iter().all(WorkloadVerification::verified)
    }

    /// A human-readable multi-line summary (paper-table flavored):
    /// bundle totals once, at paper scale (via
    /// [`simml::scale::real_bytes_to_paper_mb`]) beside every
    /// percentage; one line per library; then per workload its
    /// verification line and the debloated run's runtime deltas with its
    /// load/steady time split.
    pub fn summary(&self) -> String {
        let t = self.totals();
        let mut out = String::new();
        out.push_str(&format!(
            "Debloat {} workload{} (shared bundle) on {} — file {}, host {}, device {}\n",
            self.workloads.len(),
            if self.workloads.len() == 1 { "" } else { "s" },
            self.gpu,
            mb_line(t.file_before, t.file_after),
            mb_line(t.host_before, t.host_after),
            mb_line(t.device_before, t.device_after),
        ));
        out.push_str(&format!(
            "  union usage: {} kernels, {} host fns{}{}\n",
            self.used_kernels,
            self.used_host_fns,
            if self.plan_cache_hit { " (plan cache hit)" } else { "" },
            if self.batched { format!(" (batched x{})", self.batch_size) } else { String::new() },
        ));
        for lib in &self.libraries {
            out.push_str(&format!(
                "  {:<32} file {}  host {:>7}  device {:>7}  fns {}/{}  elems {}/{}\n",
                lib.soname,
                mb_line(lib.file_before, lib.file_after),
                delta_pct(lib.host_reduction_pct()),
                delta_pct(lib.device_reduction_pct()),
                lib.used_functions,
                lib.total_functions,
                lib.kept_elements,
                lib.total_elements,
            ));
        }
        for w in &self.workloads {
            let (load_ns, steady_ns) = w.debloated.load_time_split_ns();
            out.push_str(&format!(
                "  {:<40} checksum {:#018x} {} baseline\n    time {} (load/steady \
                 {:.2}/{:.2} ms), host mem {}, GPU mem {}, detector overhead {:+.1}%\n",
                w.label,
                w.verified_checksum,
                if w.verified() { "==" } else { "!=" },
                delta_pct(w.time_reduction_pct()),
                load_ns as f64 / 1e6,
                steady_ns as f64 / 1e6,
                delta_pct(w.host_memory_reduction_pct()),
                delta_pct(w.device_memory_reduction_pct()),
                w.detection_overhead_pct(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(file: (u64, u64), host: (u64, u64), dev: (u64, u64)) -> LibraryReport {
        LibraryReport {
            soname: "lib.so".into(),
            file_before: file.0,
            file_after: file.1,
            host_before: host.0,
            host_after: host.1,
            device_before: dev.0,
            device_after: dev.1,
            total_functions: 10,
            used_functions: 3,
            total_elements: 6,
            kept_elements: 1,
            bytes_copied: file.0,
            bytes_shared: 0,
            bytes_sliced_arch: 64,
            bytes_sliced_compressed: 16,
            compressed_rewritten: 1,
        }
    }

    fn metrics(elapsed: u64, host: u64, dev: u64) -> WorkloadMetrics {
        WorkloadMetrics {
            elapsed_ns: elapsed,
            peak_host_bytes: host,
            peak_device_bytes: vec![dev],
            ..Default::default()
        }
    }

    fn verification(
        label: &str,
        checksum: u64,
        runs: [WorkloadMetrics; 3],
    ) -> WorkloadVerification {
        let [baseline, detection, debloated] = runs;
        WorkloadVerification {
            label: label.into(),
            baseline_checksum: checksum,
            verified_checksum: checksum,
            baseline,
            detection,
            debloated,
        }
    }

    /// A one-workload report over two libraries.
    fn report() -> MultiDebloatReport {
        MultiDebloatReport {
            gpu: GpuModel::T4,
            libraries: vec![
                lib((1000, 400), (500, 100), (400, 200)),
                lib((1000, 600), (500, 300), (0, 0)),
            ],
            workloads: vec![verification(
                "PyTorch/Train/MobileNetV2",
                0xaa,
                [metrics(1000, 800, 600), metrics(1410, 800, 600), metrics(700, 400, 300)],
            )],
            used_kernels: 12,
            used_host_fns: 34,
            plan_cache_hit: false,
            batched: false,
            batch_size: 1,
            bytes_copied: 2000,
            bytes_shared: 0,
        }
    }

    #[test]
    fn totals_sum_libraries() {
        let t = report().totals();
        assert_eq!(t.file_before, 2000);
        assert_eq!(t.file_after, 1000);
        assert!((t.file_reduction_pct() - 50.0).abs() < 1e-9);
        assert!((t.host_reduction_pct() - 60.0).abs() < 1e-9);
        assert!((t.device_reduction_pct() - 50.0).abs() < 1e-9);
        // The fleet-slicing counters sum alongside the sizes.
        assert_eq!(t.bytes_sliced_arch, 128);
        assert_eq!(t.bytes_sliced_compressed, 32);
        assert_eq!(t.compressed_rewritten, 2);
        assert_eq!(t.fleet_slice_bytes_removed(), 160);
    }

    #[test]
    fn runtime_reductions() {
        let w = &report().workloads[0];
        assert!((w.time_reduction_pct() - 30.0).abs() < 1e-9);
        assert!((w.host_memory_reduction_pct() - 50.0).abs() < 1e-9);
        assert!((w.device_memory_reduction_pct() - 50.0).abs() < 1e-9);
        assert!((w.detection_overhead_pct() - 41.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sides_report_zero_not_nan() {
        let r = lib((0, 0), (0, 0), (0, 0));
        assert_eq!(r.file_reduction_pct(), 0.0);
        assert_eq!(r.device_reduction_pct(), 0.0);
        let idle = verification("idle", 0, [metrics(0, 0, 0), metrics(0, 0, 0), metrics(0, 0, 0)]);
        assert_eq!(idle.time_reduction_pct(), 0.0);
        assert_eq!(idle.detection_overhead_pct(), 0.0);
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let s = report().summary();
        assert!(s.contains("Debloat 1 workload (shared bundle)"), "{s}");
        assert!(s.contains("PyTorch/Train/MobileNetV2"));
        assert!(s.contains("T4"));
        assert!(s.contains("lib.so"));
        assert!(s.contains("load/steady"));
        assert!(s.contains("detector overhead +41.0%"), "{s}");
    }

    #[test]
    fn summary_pins_paper_scale_mb() {
        // 8192 real bytes × BYTE_SCALE (128) = exactly 1.0 paper MB, so
        // this pins a Table-2-style line end to end.
        let mut r = report();
        r.libraries = vec![lib((8192, 4096), (4096, 1024), (8192, 0))];
        let s = r.summary();
        assert!(s.contains("file 1.0 -> 0.5 MB (-50.0%)"), "{s}");
        assert!(s.contains("host 0.5 -> 0.1 MB (-75.0%)"), "{s}");
        assert!(s.contains("device 1.0 -> 0.0 MB (-100.0%)"), "{s}");
    }

    #[test]
    fn regressing_metrics_print_signed_growth_not_a_double_negative() {
        let mut r = report();
        // A library whose file *grew* and a debloated run that got
        // slower and hungrier than baseline: every delta must print as
        // `+x%`, never `(--x%)` / `--x%`.
        r.libraries = vec![lib((1000, 1250), (500, 100), (400, 200))];
        r.workloads[0].debloated = metrics(1200, 960, 720);
        let s = r.summary();
        assert!(!s.contains("--"), "double negative in summary: {s}");
        assert!(!s.contains("+-"), "mixed sign in summary: {s}");
        assert!(s.contains("(+25.0%)"), "file growth must print signed: {s}");
        assert!(s.contains("time +20.0%"), "time regression must print signed: {s}");
        assert!(s.contains("host mem +20.0%"), "{s}");
        assert!(s.contains("GPU mem +20.0%"), "{s}");
        // Shrinking metrics keep the paper's `-x%` convention (the
        // per-library columns are right-aligned, so match the value).
        assert!(s.contains("-80.0%"), "{s}");
        assert!(s.contains("-50.0%"), "{s}");
    }

    #[test]
    fn zero_change_prints_positive_zero() {
        let mut r = report();
        r.libraries = vec![lib((1000, 1000), (0, 0), (0, 0))];
        let s = r.summary();
        assert!(s.contains("(+0.0%)"), "no change is +0.0%, not -0.0%: {s}");
    }

    /// A two-workload report over one library.
    fn multi_report() -> MultiDebloatReport {
        let mut r = report();
        r.libraries.truncate(1);
        r.workloads.push(verification(
            "PyTorch/Inference/MobileNetV2",
            0xbb,
            [metrics(500, 400, 300), metrics(700, 400, 300), metrics(350, 200, 150)],
        ));
        r.used_kernels = 20;
        r.used_host_fns = 40;
        r.plan_cache_hit = true;
        r.bytes_copied = 1000;
        r
    }

    #[test]
    fn multi_report_tracks_per_workload_checksums() {
        let r = multi_report();
        assert!(r.all_verified());
        assert_eq!(r.totals().file_before, 1000);
        let s = r.summary();
        assert!(s.contains("2 workloads"), "{s}");
        assert!(s.contains("plan cache hit"), "{s}");
        assert!(s.contains("PyTorch/Inference/MobileNetV2"), "{s}");
        assert!(s.contains("=="), "{s}");

        let mut broken = r.clone();
        broken.workloads[1].verified_checksum = 0xcc;
        assert!(!broken.all_verified());
        assert!(broken.summary().contains("!="));
    }

    #[test]
    fn batched_reports_carry_their_provenance() {
        let mut r = multi_report();
        assert!(!r.summary().contains("batched"), "unbatched reports say nothing about batching");
        r.batched = true;
        r.batch_size = 8;
        let s = r.summary();
        assert!(s.contains("(batched x8)"), "{s}");
    }
}
