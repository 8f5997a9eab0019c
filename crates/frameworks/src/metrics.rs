//! Workload runtime metrics.
//!
//! A thin, comparison-friendly view over [`simcuda::RuntimeStats`]: the
//! quantities the paper's tables report (virtual execution time, peak
//! host and GPU memory) plus the event counters the overhead analysis
//! (§4.6) needs.

use simcuda::RuntimeStats;

use crate::scale;

/// Metrics of one workload execution (single- or multi-GPU).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkloadMetrics {
    /// Simulated wall time in nanoseconds.
    pub elapsed_ns: u64,
    /// Simulated nanoseconds spent in the load phase (dlopen, GPU module
    /// loads, framework import) before the first workload step — the
    /// quantity the paper's §4.5 eager-vs-lazy study splits out of the
    /// total (Table 7). Under lazy loading, element uploads deferred into
    /// the step loop do *not* count here.
    pub load_ns: u64,
    /// Peak host memory across all ranks, in model bytes.
    pub peak_host_bytes: u64,
    /// Peak device memory, one entry per GPU, in model bytes.
    pub peak_device_bytes: Vec<u64>,
    /// Kernel launches issued (sampled steps only; fast-forwarded steps
    /// advance the clock without re-issuing).
    pub launches: u64,
    /// Host library function calls.
    pub host_calls: u64,
    /// `cuModuleGetFunction` resolutions (once per kernel).
    pub get_function_calls: u64,
    /// GPU code bytes resident at the end of the run, in model bytes.
    pub gpu_code_bytes: u64,
}

impl WorkloadMetrics {
    /// Capture from a single simulation's counters.
    pub fn from_stats(stats: &RuntimeStats) -> WorkloadMetrics {
        WorkloadMetrics {
            elapsed_ns: stats.elapsed_ns,
            load_ns: 0,
            peak_host_bytes: stats.peak_host_bytes,
            peak_device_bytes: stats.device_peak_bytes.clone(),
            launches: stats.launches,
            host_calls: stats.host_calls,
            get_function_calls: stats.get_function_calls,
            gpu_code_bytes: stats.gpu_code_bytes,
        }
    }

    /// Merge per-rank metrics of a distributed run, one entry per rank
    /// in rank order (the executor passes a replica's outcome once for
    /// every rank it stands for): time is the slowest rank — and the
    /// load/steady split comes from *that* rank, so the two phases
    /// always describe one real execution — host memory sums across
    /// worker processes, device peaks concatenate in rank order,
    /// counters sum.
    pub fn merge_ranks<'a>(
        ranks: impl IntoIterator<Item = &'a WorkloadMetrics>,
    ) -> WorkloadMetrics {
        let mut out = WorkloadMetrics::default();
        for r in ranks {
            if r.elapsed_ns > out.elapsed_ns {
                out.elapsed_ns = r.elapsed_ns;
                out.load_ns = r.load_ns;
            }
            out.peak_host_bytes += r.peak_host_bytes;
            out.peak_device_bytes.extend_from_slice(&r.peak_device_bytes);
            out.launches += r.launches;
            out.host_calls += r.host_calls;
            out.get_function_calls += r.get_function_calls;
            out.gpu_code_bytes += r.gpu_code_bytes;
        }
        out
    }

    /// Simulated time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns as f64 / 1e6
    }

    /// Peak host memory in MB (model units, paper scale).
    pub fn peak_host_mb(&self) -> f64 {
        scale::model_bytes_to_mb(self.peak_host_bytes)
    }

    /// Highest per-device peak in MB (model units).
    pub fn peak_device_mb(&self) -> f64 {
        scale::model_bytes_to_mb(self.peak_device_bytes.iter().copied().max().unwrap_or(0))
    }

    /// Split of the total time into (load phase, steady state), in
    /// nanoseconds — the §4.5 comparison quantity.
    pub fn load_time_split_ns(&self) -> (u64, u64) {
        (self.load_ns, self.elapsed_ns.saturating_sub(self.load_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(elapsed: u64, host: u64, dev: u64) -> WorkloadMetrics {
        WorkloadMetrics {
            elapsed_ns: elapsed,
            load_ns: elapsed / 4,
            peak_host_bytes: host,
            peak_device_bytes: vec![dev],
            launches: 10,
            host_calls: 5,
            get_function_calls: 2,
            gpu_code_bytes: 100,
        }
    }

    #[test]
    fn merge_takes_slowest_rank_and_sums_memory() {
        let merged = WorkloadMetrics::merge_ranks(&[sample(100, 10, 7), sample(300, 20, 9)]);
        assert_eq!(merged.elapsed_ns, 300);
        assert_eq!(merged.load_ns, 75, "load phase is gated by the slowest rank");
        assert_eq!(merged.peak_host_bytes, 30);
        assert_eq!(merged.peak_device_bytes, vec![7, 9]);
        assert_eq!(merged.launches, 20);
        assert_eq!(merged.get_function_calls, 4);
    }

    #[test]
    fn merged_load_split_comes_from_the_gating_rank() {
        let mut fast = sample(100, 1, 1);
        fast.load_ns = 90; // fast rank with an outsized load phase
        let slow = sample(300, 1, 1); // load 75
        let merged = WorkloadMetrics::merge_ranks(&[fast, slow]);
        assert_eq!(merged.elapsed_ns, 300);
        assert_eq!(merged.load_ns, 75, "split belongs to the slowest rank, not the max of loads");
    }

    #[test]
    fn unit_conversions() {
        let m = sample(2_500_000, 3 << 20, 5 << 20);
        assert!((m.elapsed_ms() - 2.5).abs() < 1e-9);
        assert!((m.peak_host_mb() - 3.0).abs() < 1e-9);
        assert!((m.peak_device_mb() - 5.0).abs() < 1e-9);
        assert_eq!(m.load_time_split_ns(), (625_000, 1_875_000));
    }
}
