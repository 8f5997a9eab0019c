//! Stage 1 — detection.
//!
//! The paper's tool observes which kernels a workload uses by hooking
//! `cuModuleGetFunction` through CUPTI: the driver resolves each kernel
//! handle exactly once no matter how many times it launches, so the hook
//! fires once per *used kernel* — orders of magnitude less often than a
//! launch tracer, which is why the detector's overhead (§4.6, 41 %) is
//! far below an NSys-style tracer's (126 %). CPU function usage is
//! collected the same way from uprobe-style host-call events.
//!
//! [`KernelDetector`] implements [`CuptiSubscriber`]; attach it to the
//! run via [`simml::RunConfig::subscribers`] and take the accumulated
//! [`UsageMap`] afterwards with [`KernelDetector::snapshot`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use simcuda::cupti::{CallbackSite, CuptiEvent, CuptiSubscriber};

/// Everything a workload was observed to use, per library.
///
/// `BTreeMap`/`BTreeSet` keep iteration deterministic, which keeps the
/// location stage — and therefore the debloated images — byte-stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageMap {
    kernels: BTreeMap<String, BTreeSet<String>>,
    host_fns: BTreeMap<String, BTreeSet<String>>,
}

impl UsageMap {
    /// An empty map.
    pub fn new() -> UsageMap {
        UsageMap::default()
    }

    /// Record a kernel resolution in `soname`.
    pub fn record_kernel(&mut self, soname: &str, kernel: &str) {
        self.kernels.entry(soname.to_owned()).or_default().insert(kernel.to_owned());
    }

    /// Record a host function execution in `soname`.
    pub fn record_host_fn(&mut self, soname: &str, function: &str) {
        self.host_fns.entry(soname.to_owned()).or_default().insert(function.to_owned());
    }

    /// Kernels used from `soname`, if any.
    pub fn kernels_for(&self, soname: &str) -> Option<&BTreeSet<String>> {
        self.kernels.get(soname)
    }

    /// Host functions used from `soname`, if any.
    pub fn host_fns_for(&self, soname: &str) -> Option<&BTreeSet<String>> {
        self.host_fns.get(soname)
    }

    /// Total distinct kernels used across all libraries.
    pub fn kernel_count(&self) -> usize {
        self.kernels.values().map(BTreeSet::len).sum()
    }

    /// Total distinct host functions used across all libraries.
    pub fn host_fn_count(&self) -> usize {
        self.host_fns.values().map(BTreeSet::len).sum()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty() && self.host_fns.is_empty()
    }

    /// Union another usage map into this one (per-rank sets of a
    /// distributed workload and per-workload sets of a shared bundle
    /// both merge this way).
    pub fn merge(&mut self, other: &UsageMap) {
        for (soname, kernels) in &other.kernels {
            self.kernels.entry(soname.clone()).or_default().extend(kernels.iter().cloned());
        }
        for (soname, fns) in &other.host_fns {
            self.host_fns.entry(soname.clone()).or_default().extend(fns.iter().cloned());
        }
    }

    /// A stable fingerprint of the complete usage contents. Two maps
    /// fingerprint equal iff they record the same (library, symbol)
    /// sets — `BTreeMap`/`BTreeSet` iteration order makes the fold
    /// deterministic. Every [`crate::BundlePlan`] records the
    /// fingerprint of the union usage it was located from as its
    /// provenance identity (the plan *cache* is keyed by workload set
    /// and config instead, since usage is only known after detection).
    pub fn fingerprint(&self) -> u64 {
        fn fold(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash ^= b as u64;
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            *hash ^= 0x1f;
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (side, map) in [("kernel", &self.kernels), ("hostfn", &self.host_fns)] {
            for (soname, symbols) in map {
                fold(&mut hash, side.as_bytes());
                fold(&mut hash, soname.as_bytes());
                for symbol in symbols {
                    fold(&mut hash, symbol.as_bytes());
                }
            }
        }
        hash
    }
}

/// What changed between two [`UsageMap`]s, per library — the input of
/// incremental re-planning ([`crate::plan::locate_all_incremental`]).
///
/// A library is *touched* if its kernel set or its host-function set
/// differs between the two maps (including appearing in only one of
/// them). Untouched libraries are exactly those whose cached
/// [`crate::RetainPlan`] is still valid: location is a pure function of
/// (image, that library's usage entries, arch), so an unchanged symbol
/// set re-locates to an identical plan — which is what lets the
/// incremental path skip it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageDiff {
    /// Sonames whose usage changed in any way, in deterministic order.
    pub touched: BTreeSet<String>,
    /// Distinct (library, kernel) pairs present only in the new map.
    pub added_kernels: usize,
    /// Distinct (library, kernel) pairs present only in the old map.
    pub removed_kernels: usize,
    /// Distinct (library, host fn) pairs present only in the new map.
    pub added_host_fns: usize,
    /// Distinct (library, host fn) pairs present only in the old map.
    pub removed_host_fns: usize,
}

impl UsageDiff {
    /// True if the two maps record identical usage.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

impl UsageMap {
    /// Diff this (old) usage against `new`: which libraries' symbol sets
    /// were touched, and how many symbols moved. Drives
    /// [`crate::plan::locate_all_incremental`], which re-locates only
    /// the touched libraries against the cached plan.
    pub fn diff(&self, new: &UsageMap) -> UsageDiff {
        let mut diff = UsageDiff::default();
        for (old_side, new_side, added, removed) in [
            (&self.kernels, &new.kernels, &mut diff.added_kernels, &mut diff.removed_kernels),
            (&self.host_fns, &new.host_fns, &mut diff.added_host_fns, &mut diff.removed_host_fns),
        ] {
            let sonames: BTreeSet<&String> = old_side.keys().chain(new_side.keys()).collect();
            for soname in sonames {
                static EMPTY: BTreeSet<String> = BTreeSet::new();
                let old_set = old_side.get(soname).unwrap_or(&EMPTY);
                let new_set = new_side.get(soname).unwrap_or(&EMPTY);
                if old_set == new_set {
                    continue;
                }
                diff.touched.insert(soname.clone());
                *added += new_set.difference(old_set).count();
                *removed += old_set.difference(new_set).count();
            }
        }
        diff
    }
}

/// The paper's lightweight usage detector.
///
/// Subscribes to exactly two callback sites: `cuModuleGetFunction`
/// (kernel usage) and host-call probes (CPU function usage). Carries a
/// small dispatch tax and per-callback cost so runs with the detector
/// attached exhibit the paper's modest profiling overhead.
#[derive(Debug, Default)]
pub struct KernelDetector {
    usage: Mutex<UsageMap>,
    dispatch_tax_ns: u64,
    callback_cost_ns: u64,
}

impl KernelDetector {
    /// A detector with the default calibrated costs.
    pub fn new() -> KernelDetector {
        KernelDetector::with_costs(250, 900)
    }

    /// A detector with explicit dispatch tax and per-callback cost.
    pub fn with_costs(dispatch_tax_ns: u64, callback_cost_ns: u64) -> KernelDetector {
        KernelDetector { usage: Mutex::new(UsageMap::new()), dispatch_tax_ns, callback_cost_ns }
    }

    /// Copy of everything recorded so far.
    pub fn snapshot(&self) -> UsageMap {
        self.usage.lock().expect("detector lock poisoned").clone()
    }
}

impl CuptiSubscriber for KernelDetector {
    fn name(&self) -> &str {
        "negativa-kernel-detector"
    }

    fn enabled(&self, site: CallbackSite) -> bool {
        matches!(site, CallbackSite::ModuleGetFunction | CallbackSite::HostCall)
    }

    fn on_event(&self, event: &CuptiEvent) {
        let Some(symbol) = &event.symbol else { return };
        let mut usage = self.usage.lock().expect("detector lock poisoned");
        match event.site {
            CallbackSite::ModuleGetFunction => usage.record_kernel(&event.library, symbol),
            CallbackSite::HostCall => usage.record_host_fn(&event.library, symbol),
            _ => {}
        }
    }

    fn dispatch_tax_ns(&self) -> u64 {
        self.dispatch_tax_ns
    }

    fn callback_cost_ns(&self, _site: CallbackSite) -> u64 {
        self.callback_cost_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(site: CallbackSite, library: &str, symbol: Option<&str>) -> CuptiEvent {
        CuptiEvent {
            site,
            library: library.into(),
            symbol: symbol.map(str::to_owned),
            device: Some(0),
            bytes: 0,
        }
    }

    #[test]
    fn records_kernels_and_host_fns_separately() {
        let d = KernelDetector::new();
        d.on_event(&event(CallbackSite::ModuleGetFunction, "liba.so", Some("gemm")));
        d.on_event(&event(CallbackSite::ModuleGetFunction, "liba.so", Some("gemm")));
        d.on_event(&event(CallbackSite::HostCall, "liba.so", Some("dispatch")));
        let usage = d.snapshot();
        assert_eq!(usage.kernel_count(), 1);
        assert_eq!(usage.host_fn_count(), 1);
        assert!(usage.kernels_for("liba.so").unwrap().contains("gemm"));
        assert!(usage.host_fns_for("liba.so").unwrap().contains("dispatch"));
        assert!(usage.kernels_for("libother.so").is_none());
    }

    #[test]
    fn only_the_two_detection_sites_are_enabled() {
        let d = KernelDetector::new();
        assert!(d.enabled(CallbackSite::ModuleGetFunction));
        assert!(d.enabled(CallbackSite::HostCall));
        assert!(!d.enabled(CallbackSite::LaunchKernel));
        assert!(!d.enabled(CallbackSite::Memcpy));
        assert!(!d.enabled(CallbackSite::Sync));
        assert!(!d.enabled(CallbackSite::ModuleLoad));
    }

    #[test]
    fn events_without_symbols_are_ignored() {
        let d = KernelDetector::new();
        d.on_event(&event(CallbackSite::ModuleGetFunction, "liba.so", None));
        assert_eq!(d.snapshot().kernel_count(), 0);
    }

    #[test]
    fn merge_unions_per_library_sets() {
        let mut a = UsageMap::new();
        a.record_kernel("lib.so", "k1");
        a.record_host_fn("lib.so", "f1");
        let mut b = UsageMap::new();
        b.record_kernel("lib.so", "k2");
        b.record_kernel("other.so", "k3");
        a.merge(&b);
        assert_eq!(a.kernel_count(), 3);
        assert!(a.kernels_for("other.so").unwrap().contains("k3"));
    }

    #[test]
    fn diff_is_empty_for_identical_usage() {
        let mut a = UsageMap::new();
        a.record_kernel("lib.so", "k1");
        a.record_host_fn("lib.so", "f1");
        let diff = a.diff(&a.clone());
        assert!(diff.is_empty());
        assert_eq!(diff, UsageDiff::default(), "no library touched, no symbol moved");
    }

    #[test]
    fn diff_reports_touched_libraries_and_symbol_flow() {
        let mut old = UsageMap::new();
        old.record_kernel("liba.so", "k1");
        old.record_kernel("liba.so", "k2");
        old.record_kernel("libstable.so", "s1");
        old.record_host_fn("libstable.so", "f1");
        old.record_host_fn("libgone.so", "g1");

        let mut new = UsageMap::new();
        new.record_kernel("liba.so", "k1");
        new.record_kernel("liba.so", "k3"); // k2 -> k3
        new.record_kernel("libstable.so", "s1");
        new.record_host_fn("libstable.so", "f1");
        new.record_kernel("libnew.so", "n1");

        let diff = old.diff(&new);
        assert!(!diff.is_empty());
        assert_eq!(
            diff.touched.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["liba.so", "libgone.so", "libnew.so"],
            "untouched libstable.so stays out of the diff"
        );
        assert_eq!(diff.added_kernels, 2, "k3 and n1");
        assert_eq!(diff.removed_kernels, 1, "k2");
        assert_eq!(diff.added_host_fns, 0);
        assert_eq!(diff.removed_host_fns, 1, "g1");
    }

    #[test]
    fn diff_distinguishes_kernel_and_host_sides() {
        let mut old = UsageMap::new();
        old.record_kernel("lib.so", "x");
        let mut new = UsageMap::new();
        new.record_host_fn("lib.so", "x");
        let diff = old.diff(&new);
        assert_eq!(diff.touched.len(), 1);
        assert_eq!(diff.removed_kernels, 1);
        assert_eq!(diff.added_host_fns, 1);
    }

    #[test]
    fn fingerprint_depends_on_contents_not_insertion_order() {
        let mut a = UsageMap::new();
        a.record_kernel("lib.so", "k1");
        a.record_kernel("lib.so", "k2");
        a.record_host_fn("lib.so", "f1");
        let mut b = UsageMap::new();
        b.record_host_fn("lib.so", "f1");
        b.record_kernel("lib.so", "k2");
        b.record_kernel("lib.so", "k1");
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = a.clone();
        c.record_kernel("lib.so", "k3");
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(UsageMap::new().is_empty());
        assert!(!a.is_empty());
        // A kernel and a host fn of the same name are distinct usage.
        let mut k = UsageMap::new();
        k.record_kernel("lib.so", "x");
        let mut h = UsageMap::new();
        h.record_host_fn("lib.so", "x");
        assert_ne!(k.fingerprint(), h.fingerprint());
    }
}
