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

    /// Union another usage map into this one (the per-workload sets of
    /// a shared bundle merge this way).
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
        let mut hash = FNV_OFFSET;
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

    /// A stable fingerprint of exactly what [`crate::locate()`] reads
    /// for one library: its kernel set and its host-function set, each
    /// prefixed by its size. Maps that agree on `soname`'s two sets
    /// fingerprint equal for it, whatever they record elsewhere — the
    /// per-library location memo is keyed by this.
    pub(crate) fn library_fingerprint(&self, soname: &str) -> u64 {
        let mut hash = FNV_OFFSET;
        for map in [&self.kernels, &self.host_fns] {
            let symbols = map.get(soname);
            fold(&mut hash, &symbols.map_or(0, BTreeSet::len).to_le_bytes());
            for symbol in symbols.into_iter().flatten() {
                fold(&mut hash, symbol.as_bytes());
            }
        }
        hash
    }
}

/// FNV-1a offset basis, the seed of every usage fingerprint.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, then a separator so adjacent items never run
/// together.
fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    *hash ^= 0x1f;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
}

/// The paper's lightweight usage detector.
///
/// Subscribes to exactly two callback sites: `cuModuleGetFunction`
/// (kernel usage) and host-call probes (CPU function usage). Carries a
/// small dispatch tax and per-callback cost so runs with the detector
/// attached exhibit the paper's modest profiling overhead. The costs
/// are fixed, so every detector charges a run the same clock time.
#[derive(Debug, Default)]
pub struct KernelDetector {
    usage: Mutex<UsageMap>,
}

impl KernelDetector {
    /// Simulated nanoseconds every driver call pays while attached.
    const DISPATCH_TAX_NS: u64 = 250;
    /// Simulated nanoseconds each recorded callback costs.
    const CALLBACK_COST_NS: u64 = 900;

    /// A detector with nothing recorded.
    pub fn new() -> KernelDetector {
        KernelDetector::default()
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
        KernelDetector::DISPATCH_TAX_NS
    }

    fn callback_cost_ns(&self, _site: CallbackSite) -> u64 {
        KernelDetector::CALLBACK_COST_NS
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

    #[test]
    fn library_fingerprint_sees_only_that_librarys_two_sets() {
        let mut a = UsageMap::new();
        a.record_kernel("lib.so", "k1");
        a.record_host_fn("lib.so", "f1");
        let mut b = a.clone();
        b.record_kernel("other.so", "k2");
        assert_eq!(a.library_fingerprint("lib.so"), b.library_fingerprint("lib.so"));
        assert_ne!(a.library_fingerprint("other.so"), b.library_fingerprint("other.so"));
        b.record_host_fn("lib.so", "f2");
        assert_ne!(a.library_fingerprint("lib.so"), b.library_fingerprint("lib.so"));
        // The side a symbol sits on is part of the identity.
        let mut k = UsageMap::new();
        k.record_kernel("lib.so", "x");
        let mut h = UsageMap::new();
        h.record_host_fn("lib.so", "x");
        assert_ne!(k.library_fingerprint("lib.so"), h.library_fingerprint("lib.so"));
        assert_ne!(k.library_fingerprint("lib.so"), UsageMap::new().library_fingerprint("lib.so"));
    }
}
