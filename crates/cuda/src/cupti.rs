//! CUPTI-style callback subscription.
//!
//! The real CUPTI lets a tool subscribe to driver-API callback *sites*;
//! while a subscriber is attached the driver dispatches every call
//! through the profiling layer (a fixed tax) and invokes callbacks at
//! enabled sites (a per-event cost). Negativa-ML's kernel detector
//! subscribes only to `cuModuleGetFunction` — fired once per kernel — so
//! its overhead is far below a full tracer's, which is the paper's §4.6
//! result ([`NsysTracer`] models the comparator).
//!
//! A subscriber acts on a run only through that overhead: it observes
//! events but never changes what the run does. So the simulator keeps
//! the overhead [`CuptiRegistry::dispatch`] returns on a clock of its
//! own, next to the run's own time — one run, two clocks. Their sum is
//! the profiled run's time ([`crate::CudaSim::elapsed_ns`]) and the
//! first alone is the same run without the profiler
//! ([`crate::RuntimeStats::unprofiled_ns`]), which is how §4.6's
//! overhead is measured from a single run.
//!
//! Subscribers are shared (`Arc`) so the tool retains access to whatever
//! the callback recorded; interior mutability is the subscriber's
//! responsibility (see `negativa-ml`'s `KernelDetector`).

use std::sync::{Arc, Mutex};

/// Driver-API callback sites a subscriber can enable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CallbackSite {
    /// `cuModuleGetFunction` — kernel handle resolution (once per
    /// kernel).
    ModuleGetFunction,
    /// `cuLaunchKernel` — every kernel launch.
    LaunchKernel,
    /// `cuMemcpyHtoD` / `cuMemcpyDtoH`.
    Memcpy,
    /// `cuModuleLoad` / library registration.
    ModuleLoad,
    /// `cuCtxSynchronize` and friends.
    Sync,
    /// Host-side library function execution (uprobe-style hook used by
    /// the CPU function profiler; not a driver call, so it never pays
    /// the driver dispatch tax).
    HostCall,
}

impl CallbackSite {
    /// True for sites that are CUDA driver calls (and therefore pay the
    /// subscription dispatch tax while any subscriber is attached).
    pub fn is_driver_call(self) -> bool {
        !matches!(self, CallbackSite::HostCall)
    }
}

/// One dispatched event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuptiEvent {
    /// Where the event fired.
    pub site: CallbackSite,
    /// Library involved (soname).
    pub library: String,
    /// Kernel or host-function name, when applicable.
    pub symbol: Option<String>,
    /// Device ordinal, when applicable.
    pub device: Option<usize>,
    /// Payload size in bytes (memcpy size, module bytes, ...).
    pub bytes: u64,
}

/// A profiling tool attached to the simulated driver.
pub trait CuptiSubscriber: Send + Sync {
    /// Tool name (diagnostics).
    fn name(&self) -> &str;

    /// Sites this subscriber receives callbacks for.
    fn enabled(&self, site: CallbackSite) -> bool;

    /// Handle an event at an enabled site.
    fn on_event(&self, event: &CuptiEvent);

    /// Fixed virtual-time tax charged to *every driver call* while this
    /// subscriber is attached (CUPTI forces the slow dispatch path).
    fn dispatch_tax_ns(&self) -> u64 {
        0
    }

    /// Virtual-time cost of one callback at `site`.
    fn callback_cost_ns(&self, _site: CallbackSite) -> u64 {
        0
    }
}

/// The registry of attached subscribers.
#[derive(Default)]
pub struct CuptiRegistry {
    subscribers: Vec<Arc<dyn CuptiSubscriber>>,
}

impl std::fmt::Debug for CuptiRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.subscribers.iter().map(|s| s.name()).collect();
        f.debug_struct("CuptiRegistry").field("subscribers", &names).finish()
    }
}

impl CuptiRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CuptiRegistry::default()
    }

    /// Attach a subscriber.
    pub fn subscribe(&mut self, sub: Arc<dyn CuptiSubscriber>) {
        self.subscribers.push(sub);
    }

    /// Dispatch an event; returns the total virtual-time overhead
    /// (dispatch tax for driver calls + per-callback costs).
    pub fn dispatch(&self, event: &CuptiEvent) -> u64 {
        let mut overhead = 0;
        for sub in &self.subscribers {
            if event.site.is_driver_call() {
                overhead += sub.dispatch_tax_ns();
            }
            if sub.enabled(event.site) {
                overhead += sub.callback_cost_ns(event.site);
                sub.on_event(event);
            }
        }
        overhead
    }
}

/// An Nsight-Systems-style full tracer: records *every* launch, memcpy,
/// and sync event with a per-record cost — the paper's high-overhead
/// baseline (§4.6, 126 % overhead vs the detector's 41 %).
#[derive(Debug)]
pub struct NsysTracer {
    events: Mutex<Vec<CuptiEvent>>,
    dispatch_tax_ns: u64,
    record_cost_ns: u64,
}

impl NsysTracer {
    /// Tracer with the default calibrated costs.
    pub fn new() -> Self {
        NsysTracer::with_costs(2_500, 6_000)
    }

    /// Tracer with explicit dispatch tax and per-record cost.
    pub fn with_costs(dispatch_tax_ns: u64, record_cost_ns: u64) -> Self {
        NsysTracer { events: Mutex::new(Vec::new()), dispatch_tax_ns, record_cost_ns }
    }

    /// Number of records captured so far.
    pub fn event_count(&self) -> usize {
        self.events.lock().expect("tracer lock poisoned").len()
    }

    /// Drain and return all captured records.
    pub fn take_events(&self) -> Vec<CuptiEvent> {
        std::mem::take(&mut *self.events.lock().expect("tracer lock poisoned"))
    }
}

impl Default for NsysTracer {
    fn default() -> Self {
        NsysTracer::new()
    }
}

impl CuptiSubscriber for NsysTracer {
    fn name(&self) -> &str {
        "nsys"
    }

    fn enabled(&self, site: CallbackSite) -> bool {
        matches!(
            site,
            CallbackSite::LaunchKernel
                | CallbackSite::Memcpy
                | CallbackSite::Sync
                | CallbackSite::ModuleGetFunction
                | CallbackSite::ModuleLoad
        )
    }

    fn on_event(&self, event: &CuptiEvent) {
        self.events.lock().expect("tracer lock poisoned").push(event.clone());
    }

    fn dispatch_tax_ns(&self) -> u64 {
        self.dispatch_tax_ns
    }

    fn callback_cost_ns(&self, _site: CallbackSite) -> u64 {
        self.record_cost_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counter {
        hits: AtomicUsize,
    }

    impl CuptiSubscriber for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn enabled(&self, site: CallbackSite) -> bool {
            site == CallbackSite::ModuleGetFunction
        }
        fn on_event(&self, _e: &CuptiEvent) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        fn dispatch_tax_ns(&self) -> u64 {
            10
        }
        fn callback_cost_ns(&self, _s: CallbackSite) -> u64 {
            100
        }
    }

    fn event(site: CallbackSite) -> CuptiEvent {
        CuptiEvent { site, library: "lib.so".into(), symbol: None, device: Some(0), bytes: 0 }
    }

    #[test]
    fn dispatch_fires_only_enabled_sites() {
        let mut reg = CuptiRegistry::new();
        let counter = Arc::new(Counter { hits: AtomicUsize::new(0) });
        reg.subscribe(counter.clone());
        let oh1 = reg.dispatch(&event(CallbackSite::ModuleGetFunction));
        let oh2 = reg.dispatch(&event(CallbackSite::LaunchKernel));
        assert_eq!(counter.hits.load(Ordering::Relaxed), 1);
        assert_eq!(oh1, 110); // tax + callback
        assert_eq!(oh2, 10); // tax only
    }

    #[test]
    fn host_call_pays_no_driver_tax() {
        let mut reg = CuptiRegistry::new();
        reg.subscribe(Arc::new(Counter { hits: AtomicUsize::new(0) }));
        let oh = reg.dispatch(&event(CallbackSite::HostCall));
        assert_eq!(oh, 0);
    }

    #[test]
    fn nsys_records_launches_and_memcpys() {
        let tracer = Arc::new(NsysTracer::new());
        let mut reg = CuptiRegistry::new();
        reg.subscribe(tracer.clone());
        reg.dispatch(&event(CallbackSite::LaunchKernel));
        reg.dispatch(&event(CallbackSite::Memcpy));
        reg.dispatch(&event(CallbackSite::HostCall)); // not traced
        assert_eq!(tracer.event_count(), 2);
        let drained = tracer.take_events();
        assert_eq!(drained.len(), 2);
        assert_eq!(tracer.event_count(), 0);
    }

    #[test]
    fn empty_registry_costs_nothing() {
        let reg = CuptiRegistry::new();
        assert_eq!(reg.dispatch(&event(CallbackSite::LaunchKernel)), 0);
    }
}
