//! The simulator core: libraries, modules, kernels, and accounting.

use std::collections::HashMap;
use std::sync::Arc;

use fatbin::{ElementKind, Fatbin};
use simelf::{Elf, ElfImage, FileRange};

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::cupti::{CallbackSite, CuptiEvent, CuptiRegistry, CuptiSubscriber};
use crate::device::{Device, GpuModel};
use crate::error::CudaError;
use crate::memory::MemTracker;
use crate::Result;

/// Page size used for host residency accounting.
const PAGE: u64 = 4096;

/// Handle to an opened shared library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibraryId(usize);

/// Handle to a loaded GPU module (one library on one device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleId(usize);

/// How GPU code is brought into device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LoadMode {
    /// Load every architecture-matching element at module-load time
    /// (`CUDA_MODULE_LOADING=EAGER`).
    #[default]
    Eager,
    /// Load an element only when one of its kernels is first resolved
    /// (`CUDA_MODULE_LOADING=LAZY`).
    Lazy,
}

/// A resolved kernel handle returned by [`CudaSim::get_function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnHandle {
    /// Module the kernel was resolved in.
    pub module: ModuleId,
    /// Device the module lives on.
    pub device: usize,
    /// Library that provides the kernel.
    pub library: LibraryId,
    /// Kernel name.
    pub kernel: String,
    /// FNV-1a hash of the kernel's SASS bytes — folded into workload
    /// output checksums so replacing code is detectable.
    pub code_hash: u64,
    /// SASS size in (real) bytes.
    pub code_len: u64,
}

#[derive(Debug)]
struct HostFunction {
    range: FileRange,
    len: u64,
}

#[derive(Debug)]
struct LoadedLibrary {
    soname: String,
    image: ElfImage,
    functions: HashMap<String, HostFunction>,
    fatbin: Option<Fatbin>,
    /// Page-occupied bytes of the whole file (real bytes).
    occupied_total: u64,
    /// Page-occupied bytes of the `.nv_fatbin` section (real bytes).
    occupied_fatbin: u64,
    /// Host bytes charged for the fatbin page mapping (charged once, on
    /// the first eager module load).
    fatbin_pages_charged: bool,
}

#[derive(Debug)]
struct Module {
    library: LibraryId,
    device: usize,
    mode: LoadMode,
    /// Kernel name → (element index, code hash, code len, uncompressed
    /// element size, stored element payload size). Built once per module
    /// from architecture-matching intact elements.
    kernels: HashMap<String, KernelSlot>,
    /// Elements resident on the device.
    loaded_elements: std::collections::HashSet<u32>,
    /// Per-element sizes for load accounting: (uncompressed, stored).
    element_sizes: HashMap<u32, (u64, u64)>,
}

#[derive(Debug, Clone, Copy)]
struct KernelSlot {
    element: u32,
    code_hash: u64,
    code_len: u64,
}

/// Aggregate runtime statistics; see [`CudaSim::stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Simulated nanoseconds elapsed, the attached subscribers' overhead
    /// included.
    pub elapsed_ns: u64,
    /// Simulated nanoseconds elapsed without the subscribers' overhead:
    /// what the same run takes with nothing attached.
    pub unprofiled_ns: u64,
    /// Peak host memory in model bytes.
    pub peak_host_bytes: u64,
    /// Current host memory in model bytes.
    pub current_host_bytes: u64,
    /// Peak device memory per device, in model bytes.
    pub device_peak_bytes: Vec<u64>,
    /// Current device memory per device, in model bytes.
    pub device_current_bytes: Vec<u64>,
    /// Number of kernel launches.
    pub launches: u64,
    /// Number of host function calls.
    pub host_calls: u64,
    /// Number of `cuModuleGetFunction` calls.
    pub get_function_calls: u64,
    /// GPU code bytes currently loaded across devices (model bytes).
    pub gpu_code_bytes: u64,
}

/// The simulated CUDA process: devices, loaded libraries, modules, and
/// all accounting. See the [crate-level docs](crate) for an overview.
#[derive(Debug)]
pub struct CudaSim {
    devices: Vec<Device>,
    cost: CostModel,
    byte_scale: u64,
    /// The run's own time.
    clock: VirtualClock,
    /// What the attached subscribers add on top of `clock`.
    overhead: VirtualClock,
    cupti: CuptiRegistry,
    host_mem: MemTracker,
    dev_mem: Vec<MemTracker>,
    libraries: Vec<LoadedLibrary>,
    modules: Vec<Module>,
    launches: u64,
    host_calls: u64,
    get_function_calls: u64,
    gpu_code_bytes: u64,
}

impl CudaSim {
    /// A simulation with the given devices, default cost model, and a
    /// byte scale of 1 (library files are taken at face value).
    pub fn new(models: &[GpuModel]) -> Self {
        CudaSim::with_config(models, CostModel::default(), 1)
    }

    /// A simulation with explicit cost model and byte scale.
    ///
    /// `byte_scale` converts *real* bytes of the synthetic library files
    /// into *model* bytes for memory and time accounting (the generator
    /// materializes libraries at `1/byte_scale` of their modelled size).
    pub fn with_config(models: &[GpuModel], cost: CostModel, byte_scale: u64) -> Self {
        CudaSim {
            devices: models
                .iter()
                .enumerate()
                .map(|(index, &model)| Device { model, index })
                .collect(),
            cost,
            byte_scale: byte_scale.max(1),
            clock: VirtualClock::new(),
            overhead: VirtualClock::new(),
            cupti: CuptiRegistry::new(),
            host_mem: MemTracker::unbounded(),
            dev_mem: models.iter().map(|m| MemTracker::with_capacity(m.memory_bytes())).collect(),
            libraries: Vec::new(),
            modules: Vec::new(),
            launches: 0,
            host_calls: 0,
            get_function_calls: 0,
            gpu_code_bytes: 0,
        }
    }

    /// The byte scale in effect (see [`CudaSim::with_config`]).
    pub fn byte_scale(&self) -> u64 {
        self.byte_scale
    }

    /// The devices in this simulation.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Attach a CUPTI subscriber (profiling tool). Its overhead goes on
    /// a clock of its own: [`CudaSim::elapsed_ns`] includes it,
    /// [`RuntimeStats::unprofiled_ns`] does not.
    pub fn subscribe(&mut self, sub: Arc<dyn CuptiSubscriber>) {
        self.cupti.subscribe(sub);
    }

    /// Soname of an opened library.
    pub fn library_name(&self, lib: LibraryId) -> Option<&str> {
        self.libraries.get(lib.0).map(|l| l.soname.as_str())
    }

    /// Page-occupied bytes of an opened library's file (real bytes, as
    /// measured at open time) — the effective on-disk footprint after
    /// hole punching, which debloat reports compare before/after.
    pub fn library_occupied_bytes(&self, lib: LibraryId) -> Option<u64> {
        self.libraries.get(lib.0).map(|l| l.occupied_total)
    }

    /// Open (dlopen) a shared library: parse it, index its symbols,
    /// register its fatbin, and charge load time plus resident pages.
    ///
    /// # Errors
    ///
    /// ELF or fatbin parse errors for malformed images.
    pub fn open_library(&mut self, image: &ElfImage) -> Result<LibraryId> {
        let elf = Elf::parse(image.bytes())?;
        let functions = elf.function_ranges()?;
        let fatbin_range = elf
            .section_by_name(simelf::types::names::NV_FATBIN)
            .filter(|s| s.kind != simelf::SectionKind::NoBits)
            .map(|s| s.file_range());
        self.open_library_inner(image, &functions, fatbin_range)
    }

    /// Open (dlopen) a shared library through a pre-built
    /// [`simelf::ElfIndex`],
    /// skipping the per-open ELF and symbol-table parse. The index stays
    /// valid for compacted copies of its source image (zeroing never
    /// moves offsets), so one index serves the baseline, detection, and
    /// verification opens of both the original and the debloated bundle.
    ///
    /// # Errors
    ///
    /// [`CudaError::InvalidHandle`] if `index` does not describe `image`
    /// (different soname or file length); fatbin parse errors as for
    /// [`CudaSim::open_library`].
    pub fn open_library_indexed(
        &mut self,
        image: &ElfImage,
        index: &simelf::ElfIndex,
    ) -> Result<LibraryId> {
        if !index.matches(image) {
            return Err(CudaError::InvalidHandle {
                what: format!(
                    "ELF index for {} ({} bytes) does not match image {} ({} bytes)",
                    index.soname(),
                    index.file_len(),
                    image.soname(),
                    image.len()
                ),
            });
        }
        self.open_library_inner(image, index.function_ranges(), index.fatbin_range())
    }

    fn open_library_inner(
        &mut self,
        image: &ElfImage,
        function_ranges: &[(String, FileRange)],
        fatbin_range: Option<FileRange>,
    ) -> Result<LibraryId> {
        let mut functions = HashMap::new();
        for (name, range) in function_ranges {
            functions.insert(name.clone(), HostFunction { len: range.len(), range: *range });
        }
        let symbol_count = functions.len() as u64;

        let (fatbin, occupied_fatbin, element_count) = match fatbin_range {
            Some(range) => {
                // A range past the file (possible for foreign images with
                // degenerate section headers) must surface as a parse
                // error, never a slice panic.
                let data =
                    image.bytes().get(range.start as usize..range.end as usize).unwrap_or_default();
                let fb = Fatbin::parse(data)?;
                let count = fb.element_count() as u64;
                let occ = image.occupied_bytes_in(range, PAGE);
                (Some(fb), occ, count)
            }
            None => (None, 0, 0),
        };

        let occupied_total = image.occupied_bytes_in(FileRange::new(0, image.len()), PAGE);

        // Load time: read occupied pages, link symbols, walk fatbin
        // element headers for registration.
        let model_read = occupied_total * self.byte_scale;
        self.clock.advance(self.cost.disk_read(model_read));
        self.clock.advance(symbol_count * self.cost.link_ns_per_symbol);
        self.clock.advance(element_count * self.cost.register_element_ns);

        // Resident pages: everything except the fatbin section (fatbin
        // pages are only touched when GPU code is actually read).
        let non_fatbin = occupied_total.saturating_sub(occupied_fatbin);
        self.alloc_host(non_fatbin * self.byte_scale);

        let id = LibraryId(self.libraries.len());
        let soname = image.soname().to_string();
        self.emit(CuptiEvent {
            site: CallbackSite::ModuleLoad,
            library: soname.clone(),
            symbol: None,
            device: None,
            bytes: model_read,
        });
        self.libraries.push(LoadedLibrary {
            soname,
            image: image.clone(),
            functions,
            fatbin,
            occupied_total,
            occupied_fatbin,
            fatbin_pages_charged: false,
        });
        Ok(id)
    }

    /// Load a library's GPU module onto a device.
    ///
    /// Under [`LoadMode::Eager`] every architecture-matching intact
    /// element is staged on the host and uploaded to the device now;
    /// under [`LoadMode::Lazy`] elements load on first kernel
    /// resolution.
    ///
    /// # Errors
    ///
    /// [`CudaError::NoGpuCode`] if the library has no fatbin,
    /// [`CudaError::NoSuchDevice`], [`CudaError::OutOfMemory`], or
    /// decode errors.
    pub fn load_module(
        &mut self,
        lib: LibraryId,
        device: usize,
        mode: LoadMode,
    ) -> Result<ModuleId> {
        if device >= self.devices.len() {
            return Err(CudaError::NoSuchDevice { index: device, count: self.devices.len() });
        }
        let library = self
            .libraries
            .get(lib.0)
            .ok_or_else(|| CudaError::InvalidHandle { what: format!("library {}", lib.0) })?;
        let Some(fb) = &library.fatbin else {
            return Err(CudaError::NoGpuCode { library: library.soname.clone() });
        };
        let gpu_arch = self.devices[device].arch();

        // Select, per cubin group, the single best-matching element —
        // the real driver picks one flavor per translation unit: an
        // exact SASS match, else the highest compatible SASS (same
        // major, highest minor ≤ GPU). Groups are identified by their
        // kernel-name fingerprint, since every flavor of a cubin ships
        // the same kernels.
        let mut best: HashMap<u64, (fatbin::SmArch, u32)> = HashMap::new();
        let mut decoded: HashMap<u32, fatbin::Cubin> = HashMap::new();
        for (index, element) in fb.elements() {
            if element.kind() != ElementKind::Cubin
                || !element.arch().runs_on(gpu_arch)
                || element.is_cleared()
            {
                continue;
            }
            let cubin = element.decode_cubin()?;
            let mut names: Vec<&str> = cubin.kernel_names();
            names.sort_unstable();
            let fingerprint = fnv1a(names.join("\0").as_bytes());
            decoded.insert(index, cubin);
            match best.entry(fingerprint) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((element.arch(), index));
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    if element.arch() > o.get().0 {
                        o.insert((element.arch(), index));
                    }
                }
            }
        }
        let mut kernels = HashMap::new();
        let mut element_sizes = HashMap::new();
        let selected: std::collections::HashSet<u32> =
            best.values().map(|&(_, index)| index).collect();
        for (index, element) in fb.elements() {
            if !selected.contains(&index) {
                continue;
            }
            let cubin = &decoded[&index];
            element_sizes
                .insert(index, (element.uncompressed_size(), element.payload().len() as u64));
            for kernel in cubin.kernels() {
                kernels.insert(
                    kernel.name.clone(),
                    KernelSlot {
                        element: index,
                        code_hash: fnv1a(&kernel.code),
                        code_len: kernel.code.len() as u64,
                    },
                );
            }
        }

        let soname = library.soname.clone();
        let module_id = ModuleId(self.modules.len());
        self.modules.push(Module {
            library: lib,
            device,
            mode,
            kernels,
            loaded_elements: std::collections::HashSet::new(),
            element_sizes,
        });

        if mode == LoadMode::Eager {
            // Touch the fatbin's occupied pages (first eager load only).
            let scale = self.byte_scale;
            let lib_entry = &mut self.libraries[lib.0];
            if !lib_entry.fatbin_pages_charged {
                lib_entry.fatbin_pages_charged = true;
                let pages = lib_entry.occupied_fatbin * scale;
                self.alloc_host(pages);
            }
            let all: Vec<u32> = self.modules[module_id.0].element_sizes.keys().copied().collect();
            for index in all {
                self.load_element(module_id, index)?;
            }
        }

        self.emit(CuptiEvent {
            site: CallbackSite::ModuleLoad,
            library: soname,
            symbol: None,
            device: Some(device),
            bytes: 0,
        });
        Ok(module_id)
    }

    fn load_element(&mut self, module: ModuleId, index: u32) -> Result<()> {
        let m = &mut self.modules[module.0];
        if !m.loaded_elements.insert(index) {
            return Ok(());
        }
        let &(uncompressed, stored) = m
            .element_sizes
            .get(&index)
            .ok_or_else(|| CudaError::InvalidHandle { what: format!("element {index}") })?;
        let device = m.device;
        let mode = m.mode;
        let scale = self.byte_scale;
        let model_uncompressed = uncompressed * scale;
        let model_stored = stored * scale;

        // Lazy mode reads just this element's pages from the file.
        if mode == LoadMode::Lazy {
            self.alloc_host(model_stored);
            self.clock.advance(self.cost.disk_read(model_stored));
        }
        // Host staging copy of the decompressed image (kept by the
        // runtime for re-upload/context reset; the dominant host cost of
        // eager loading observed in the paper's Table 7).
        self.alloc_host(model_uncompressed);
        // Device upload.
        if self.dev_mem[device].alloc(model_uncompressed).is_none() {
            return Err(CudaError::OutOfMemory {
                device,
                requested: model_uncompressed,
                available: self.dev_mem[device].available(),
            });
        }
        self.gpu_code_bytes += model_uncompressed;
        self.clock.advance(self.cost.module_load(model_uncompressed, 1));
        Ok(())
    }

    /// Resolve a kernel handle (`cuModuleGetFunction`).
    ///
    /// Fires the [`CallbackSite::ModuleGetFunction`] CUPTI event — the
    /// hook Negativa-ML's kernel detector subscribes to — whether or not
    /// resolution succeeds.
    ///
    /// # Errors
    ///
    /// [`CudaError::KernelNotFound`] if no architecture-matching intact
    /// element provides the kernel (e.g. it was removed by compaction).
    pub fn get_function(&mut self, module: ModuleId, kernel: &str) -> Result<FnHandle> {
        let m = self
            .modules
            .get(module.0)
            .ok_or_else(|| CudaError::InvalidHandle { what: format!("module {}", module.0) })?;
        let library = m.library;
        let device = m.device;
        let soname = self.libraries[library.0].soname.clone();

        self.get_function_calls += 1;
        self.emit(CuptiEvent {
            site: CallbackSite::ModuleGetFunction,
            library: soname.clone(),
            symbol: Some(kernel.to_string()),
            device: Some(device),
            bytes: 0,
        });

        let slot = match self.modules[module.0].kernels.get(kernel) {
            Some(slot) => *slot,
            None => {
                return Err(CudaError::KernelNotFound {
                    kernel: kernel.to_string(),
                    library: soname,
                })
            }
        };
        if self.modules[module.0].mode == LoadMode::Lazy {
            self.load_element(module, slot.element)?;
        }
        Ok(FnHandle {
            module,
            device,
            library,
            kernel: kernel.to_string(),
            code_hash: slot.code_hash,
            code_len: slot.code_len,
        })
    }

    /// Launch a kernel: advance the clock by dispatch plus `compute_ns`
    /// and return the kernel's code hash (for output checksumming).
    ///
    /// # Errors
    ///
    /// [`CudaError::InvalidHandle`] if the handle's module is gone.
    pub fn launch(&mut self, f: &FnHandle, compute_ns: u64) -> Result<u64> {
        if f.module.0 >= self.modules.len() {
            return Err(CudaError::InvalidHandle { what: format!("module {}", f.module.0) });
        }
        self.launches += 1;
        self.clock.advance(self.cost.launch_dispatch_ns + compute_ns);
        self.emit(CuptiEvent {
            site: CallbackSite::LaunchKernel,
            library: self.libraries[f.library.0].soname.clone(),
            symbol: Some(f.kernel.clone()),
            device: Some(f.device),
            bytes: 0,
        });
        Ok(f.code_hash)
    }

    /// Execute a host library function.
    ///
    /// Verifies the body was not zeroed by compaction, charges the call
    /// cost, fires the [`CallbackSite::HostCall`] hook (used by the CPU
    /// function profiler), and returns the FNV-1a hash of the body.
    ///
    /// # Errors
    ///
    /// [`CudaError::SymbolNotFound`] for unknown symbols and
    /// [`CudaError::FunctionFault`] for zeroed bodies.
    pub fn host_call(&mut self, lib: LibraryId, symbol: &str) -> Result<u64> {
        let library = self
            .libraries
            .get(lib.0)
            .ok_or_else(|| CudaError::InvalidHandle { what: format!("library {}", lib.0) })?;
        let f = library.functions.get(symbol).ok_or_else(|| CudaError::SymbolNotFound {
            symbol: symbol.to_string(),
            library: library.soname.clone(),
        })?;
        if library.image.is_zeroed(f.range) {
            return Err(CudaError::FunctionFault {
                symbol: symbol.to_string(),
                library: library.soname.clone(),
            });
        }
        let body = &library.image.bytes()[f.range.start as usize..f.range.end as usize];
        let hash = fnv1a(body);
        let len = f.len;
        let soname = library.soname.clone();
        self.host_calls += 1;
        self.clock.advance(self.cost.host_call(len * self.byte_scale));
        self.emit(CuptiEvent {
            site: CallbackSite::HostCall,
            library: soname,
            symbol: Some(symbol.to_string()),
            device: None,
            bytes: len,
        });
        Ok(hash)
    }

    /// Copy `bytes` (model units) host → device.
    ///
    /// # Errors
    ///
    /// [`CudaError::NoSuchDevice`] for a bad ordinal.
    pub fn memcpy_h2d(&mut self, device: usize, bytes: u64) -> Result<()> {
        if device >= self.devices.len() {
            return Err(CudaError::NoSuchDevice { index: device, count: self.devices.len() });
        }
        self.clock.advance(self.cost.memcpy(bytes));
        self.emit(CuptiEvent {
            site: CallbackSite::Memcpy,
            library: String::new(),
            symbol: None,
            device: Some(device),
            bytes,
        });
        Ok(())
    }

    /// Synchronize (fires the [`CallbackSite::Sync`] event).
    pub fn synchronize(&mut self) {
        self.emit(CuptiEvent {
            site: CallbackSite::Sync,
            library: String::new(),
            symbol: None,
            device: None,
            bytes: 0,
        });
    }

    /// Allocate host memory (model bytes).
    pub fn alloc_host(&mut self, bytes: u64) {
        let _ = self.host_mem.alloc(bytes);
    }

    /// Free host memory (model bytes, saturating).
    pub fn free_host(&mut self, bytes: u64) {
        self.host_mem.free(bytes);
    }

    /// Allocate device memory (model bytes).
    ///
    /// # Errors
    ///
    /// [`CudaError::NoSuchDevice`] or [`CudaError::OutOfMemory`].
    pub fn alloc_device(&mut self, device: usize, bytes: u64) -> Result<()> {
        if device >= self.devices.len() {
            return Err(CudaError::NoSuchDevice { index: device, count: self.devices.len() });
        }
        self.clock.advance(self.cost.alloc_ns);
        if self.dev_mem[device].alloc(bytes).is_none() {
            return Err(CudaError::OutOfMemory {
                device,
                requested: bytes,
                available: self.dev_mem[device].available(),
            });
        }
        Ok(())
    }

    /// Free device memory (model bytes, saturating).
    ///
    /// # Errors
    ///
    /// [`CudaError::NoSuchDevice`] for a bad ordinal.
    pub fn free_device(&mut self, device: usize, bytes: u64) -> Result<()> {
        if device >= self.devices.len() {
            return Err(CudaError::NoSuchDevice { index: device, count: self.devices.len() });
        }
        self.dev_mem[device].free(bytes);
        Ok(())
    }

    /// Fast-forward both clocks over `remaining` steady-state steps,
    /// each as long as the mean of the `sampled` steps run since the
    /// snapshot `since` was taken — used by executors to skip
    /// iterations identical to the ones measured.
    ///
    /// Each clock skips `measured * remaining / sampled` of its own,
    /// rounded down once, so a clock on which every step costs the same
    /// equals a fully executed one exactly: advancing by a truncated
    /// per-step mean would fall up to `sampled - 1` ns behind per
    /// remaining step. The overhead clock takes the difference of the
    /// two skips, because the floor of a sum is not the sum of the
    /// floors.
    pub fn fast_forward(&mut self, since: &RuntimeStats, sampled: u64, remaining: u64) {
        let skip = |measured: u64| {
            (u128::from(measured) * u128::from(remaining) / u128::from(sampled.max(1))) as u64
        };
        let unprofiled = skip(self.clock.now_ns().saturating_sub(since.unprofiled_ns));
        let elapsed = skip(self.elapsed_ns().saturating_sub(since.elapsed_ns));
        self.clock.advance(unprofiled);
        self.overhead.advance(elapsed.saturating_sub(unprofiled));
    }

    /// Simulated nanoseconds elapsed since construction, the attached
    /// subscribers' overhead included.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_add(self.overhead.now_ns())
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            elapsed_ns: self.elapsed_ns(),
            unprofiled_ns: self.clock.now_ns(),
            peak_host_bytes: self.host_mem.peak(),
            current_host_bytes: self.host_mem.current(),
            device_peak_bytes: self.dev_mem.iter().map(MemTracker::peak).collect(),
            device_current_bytes: self.dev_mem.iter().map(MemTracker::current).collect(),
            launches: self.launches,
            host_calls: self.host_calls,
            get_function_calls: self.get_function_calls,
            gpu_code_bytes: self.gpu_code_bytes,
        }
    }

    fn emit(&mut self, event: CuptiEvent) {
        let overhead = self.cupti.dispatch(&event);
        self.overhead.advance(overhead);
    }
}

/// FNV-1a over a byte slice (stable, dependency-free content hash).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatbin::{Cubin, Element, KernelDef, Region, SmArch};
    use simelf::ElfBuilder;

    fn lib_with_archs(archs: &[SmArch]) -> ElfImage {
        let cubin = Cubin::new(vec![
            KernelDef::entry("gemm", vec![0x11; 300]).with_callees(vec![1]),
            KernelDef::device("gemm_tail", vec![0x12; 80]),
        ])
        .unwrap();
        let unused = Cubin::new(vec![KernelDef::entry("never_used", vec![0x13; 500])]).unwrap();
        let elements: Vec<Element> = archs
            .iter()
            .flat_map(|&a| {
                vec![Element::cubin(a, &cubin).unwrap(), Element::cubin(a, &unused).unwrap()]
            })
            .collect();
        let fb = Fatbin::new(vec![Region::new(elements)]);
        ElfBuilder::new("libgemm.so")
            .function("gemm_dispatch", vec![0x90; 256])
            .function("unused_host_fn", vec![0x91; 128])
            .fatbin(fb.to_bytes())
            .build()
            .unwrap()
    }

    #[test]
    fn open_load_resolve_launch() {
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&lib_with_archs(&SmArch::PAPER_SET)).unwrap();
        let module = sim.load_module(lib, 0, LoadMode::Eager).unwrap();
        let f = sim.get_function(module, "gemm").unwrap();
        let h1 = sim.launch(&f, 1000).unwrap();
        let h2 = sim.launch(&f, 1000).unwrap();
        assert_eq!(h1, h2);
        let stats = sim.stats();
        assert_eq!(stats.launches, 2);
        assert_eq!(stats.get_function_calls, 1);
        assert!(stats.elapsed_ns > 0);
        assert!(stats.device_peak_bytes[0] > 0);
    }

    /// A subscriber's overhead runs on its own clock: the unprofiled
    /// clock equals a plain run's, and a fast-forward skips each clock
    /// by its own rounded-down share. The first sampled step resolves
    /// the kernel, a lazy element load on the run's own clock and a
    /// callback on the overhead clock, so neither clock's sampled time
    /// divides evenly.
    #[test]
    fn subscriber_overhead_keeps_its_own_clock() {
        let run = |tracer: Option<Arc<crate::cupti::NsysTracer>>| {
            let mut sim = CudaSim::new(&[GpuModel::T4]);
            if let Some(tracer) = tracer {
                sim.subscribe(tracer);
            }
            let lib = sim.open_library(&lib_with_archs(&SmArch::PAPER_SET)).unwrap();
            let module = sim.load_module(lib, 0, LoadMode::Lazy).unwrap();
            let since = sim.stats();
            let f = sim.get_function(module, "gemm").unwrap();
            for _ in 0..3 {
                sim.launch(&f, 1001).unwrap();
                sim.synchronize();
            }
            let sampled = sim.stats();
            sim.fast_forward(&since, 3, 7);
            (sim.stats(), since, sampled)
        };
        let (plain, ..) = run(None);
        let tracer = Arc::new(crate::cupti::NsysTracer::with_costs(1, 1));
        let (traced, since, sampled) = run(Some(tracer));
        assert_eq!(plain.elapsed_ns, plain.unprofiled_ns, "nothing attached, one clock");
        assert_eq!(traced.unprofiled_ns, plain.elapsed_ns);

        let own = sampled.unprofiled_ns - since.unprofiled_ns;
        let total = sampled.elapsed_ns - since.elapsed_ns;
        let overhead = total - own;
        assert!(overhead > 0);
        let skip = |measured: u64| measured * 7 / 3;
        assert_ne!(skip(own) + skip(overhead), skip(total), "the floors must not add up here");
        assert_eq!(traced.unprofiled_ns, sampled.unprofiled_ns + skip(own));
        assert_eq!(traced.elapsed_ns, sampled.elapsed_ns + skip(total));
    }

    #[test]
    fn indexed_open_matches_parsed_open() {
        let image = lib_with_archs(&[SmArch::SM75]);
        let index = simelf::ElfIndex::build(&image).unwrap();
        let mut a = CudaSim::new(&[GpuModel::T4]);
        let la = a.open_library(&image).unwrap();
        let mut b = CudaSim::new(&[GpuModel::T4]);
        let lb = b.open_library_indexed(&image, &index).unwrap();
        assert_eq!(a.stats(), b.stats(), "indexed open charges identical costs");
        let ha = a.host_call(la, "gemm_dispatch").unwrap();
        let hb = b.host_call(lb, "gemm_dispatch").unwrap();
        assert_eq!(ha, hb);
        let ma = a.load_module(la, 0, LoadMode::Eager).unwrap();
        let mb = b.load_module(lb, 0, LoadMode::Eager).unwrap();
        assert_eq!(
            a.get_function(ma, "gemm").unwrap().code_hash,
            b.get_function(mb, "gemm").unwrap().code_hash,
        );
    }

    #[test]
    fn stale_index_is_rejected() {
        let image = lib_with_archs(&[SmArch::SM75]);
        let index = simelf::ElfIndex::build(&image).unwrap();
        let other = ElfBuilder::new("libz.so").function("f", vec![1; 8]).build().unwrap();
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        assert!(matches!(
            sim.open_library_indexed(&other, &index),
            Err(CudaError::InvalidHandle { .. })
        ));
    }

    #[test]
    fn eager_loads_only_matching_arch() {
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&lib_with_archs(&SmArch::PAPER_SET)).unwrap();
        let before = sim.stats().gpu_code_bytes;
        assert_eq!(before, 0);
        let _ = sim.load_module(lib, 0, LoadMode::Eager).unwrap();
        let after = sim.stats().gpu_code_bytes;
        // Only the 2 sm_75 elements (out of 12) were loaded.
        let one_arch_bytes: u64 = {
            let cubin_sz = Cubin::new(vec![
                KernelDef::entry("gemm", vec![0x11; 300]).with_callees(vec![1]),
                KernelDef::device("gemm_tail", vec![0x12; 80]),
            ])
            .unwrap()
            .to_bytes()
            .len() as u64;
            let unused_sz = Cubin::new(vec![KernelDef::entry("never_used", vec![0x13; 500])])
                .unwrap()
                .to_bytes()
                .len() as u64;
            cubin_sz + unused_sz
        };
        assert_eq!(after, one_arch_bytes);
    }

    #[test]
    fn lazy_loads_on_first_resolution_only() {
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&lib_with_archs(&[SmArch::SM75])).unwrap();
        let module = sim.load_module(lib, 0, LoadMode::Lazy).unwrap();
        assert_eq!(sim.stats().gpu_code_bytes, 0);
        let _ = sim.get_function(module, "gemm").unwrap();
        let used_only = sim.stats().gpu_code_bytes;
        assert!(used_only > 0);
        // Resolving again does not double-load.
        let _ = sim.get_function(module, "gemm").unwrap();
        assert_eq!(sim.stats().gpu_code_bytes, used_only);
        // The unused element was never loaded.
        let eager_total = {
            let mut sim2 = CudaSim::new(&[GpuModel::T4]);
            let lib2 = sim2.open_library(&lib_with_archs(&[SmArch::SM75])).unwrap();
            sim2.load_module(lib2, 0, LoadMode::Eager).unwrap();
            sim2.stats().gpu_code_bytes
        };
        assert!(used_only < eager_total);
    }

    #[test]
    fn wrong_arch_kernel_not_found() {
        let mut sim = CudaSim::new(&[GpuModel::H100]);
        let lib = sim.open_library(&lib_with_archs(&[SmArch::SM75])).unwrap();
        let module = sim.load_module(lib, 0, LoadMode::Eager).unwrap();
        assert!(matches!(sim.get_function(module, "gemm"), Err(CudaError::KernelNotFound { .. })));
    }

    #[test]
    fn host_call_returns_stable_hash_and_faults_when_zeroed() {
        let image = lib_with_archs(&[SmArch::SM75]);
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&image).unwrap();
        let h1 = sim.host_call(lib, "gemm_dispatch").unwrap();
        let h2 = sim.host_call(lib, "gemm_dispatch").unwrap();
        assert_eq!(h1, h2);
        assert!(matches!(sim.host_call(lib, "missing"), Err(CudaError::SymbolNotFound { .. })));

        // Zero the function body and reopen: the call faults.
        let elf = Elf::parse(image.bytes()).unwrap();
        let ranges = elf.function_ranges().unwrap();
        let (_, r) = ranges.iter().find(|(n, _)| n == "gemm_dispatch").unwrap();
        let mut broken = image.clone();
        broken.zero_range(*r).unwrap();
        let mut sim2 = CudaSim::new(&[GpuModel::T4]);
        let lib2 = sim2.open_library(&broken).unwrap();
        assert!(matches!(
            sim2.host_call(lib2, "gemm_dispatch"),
            Err(CudaError::FunctionFault { .. })
        ));
    }

    #[test]
    fn cleared_element_kernels_unresolvable() {
        let image = lib_with_archs(&[SmArch::SM75]);
        // Zero the payload of every element containing "never_used".
        let (listing, _) = fatbin::extract_from_elf(image.bytes()).unwrap();
        let mut debloated = image.clone();
        for item in &listing {
            if item.kernel_names.iter().any(|k| k == "never_used") {
                debloated.zero_range(item.payload_range).unwrap();
            }
        }
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&debloated).unwrap();
        let module = sim.load_module(lib, 0, LoadMode::Eager).unwrap();
        assert!(sim.get_function(module, "gemm").is_ok());
        assert!(matches!(
            sim.get_function(module, "never_used"),
            Err(CudaError::KernelNotFound { .. })
        ));
    }

    #[test]
    fn debloating_reduces_memory_and_time() {
        let image = lib_with_archs(&SmArch::PAPER_SET);
        // Debloat: keep only elements containing "gemm" on sm_75.
        let (listing, _) = fatbin::extract_from_elf(image.bytes()).unwrap();
        let mut debloated = image.clone();
        for item in &listing {
            let keep = item.arch == SmArch::SM75 && item.kernel_names.iter().any(|k| k == "gemm");
            if !keep {
                debloated.zero_range(item.payload_range).unwrap();
            }
        }
        let run = |img: &ElfImage| {
            let mut sim = CudaSim::new(&[GpuModel::T4]);
            let lib = sim.open_library(img).unwrap();
            let module = sim.load_module(lib, 0, LoadMode::Eager).unwrap();
            let f = sim.get_function(module, "gemm").unwrap();
            sim.launch(&f, 500).unwrap();
            (sim.stats(), f.code_hash)
        };
        let (orig, hash_orig) = run(&image);
        let (debl, hash_debl) = run(&debloated);
        assert_eq!(hash_orig, hash_debl, "outputs identical after debloat");
        assert!(debl.peak_host_bytes < orig.peak_host_bytes);
        assert!(debl.device_peak_bytes[0] < orig.device_peak_bytes[0]);
        assert!(debl.elapsed_ns < orig.elapsed_ns);
    }

    #[test]
    fn loader_prefers_exact_arch_but_falls_back_within_major() {
        // sm_70 and sm_75 flavors of the same cubin group: on a T4 the
        // loader must pick sm_75; if sm_75 is cleared it falls back to
        // the compatible sm_70 flavor.
        let image = lib_with_archs(&[SmArch::SM70, SmArch::SM75]);
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&image).unwrap();
        let module = sim.load_module(lib, 0, LoadMode::Lazy).unwrap();
        let f = sim.get_function(module, "gemm").unwrap();
        assert_eq!(f.code_len, 300);

        // Clear both sm_75 elements; only sm_70 remains usable.
        let (listing, _) = fatbin::extract_from_elf(image.bytes()).unwrap();
        let mut cleared = image.clone();
        for item in &listing {
            if item.arch == SmArch::SM75 {
                cleared.zero_range(item.payload_range).unwrap();
            }
        }
        let mut sim2 = CudaSim::new(&[GpuModel::T4]);
        let lib2 = sim2.open_library(&cleared).unwrap();
        let module2 = sim2.load_module(lib2, 0, LoadMode::Lazy).unwrap();
        let f2 = sim2.get_function(module2, "gemm").unwrap();
        // Same kernel content per our generator, so the hash matches and
        // the workload output stays identical — binary compatibility.
        assert_eq!(f2.code_hash, f.code_hash);
    }

    #[test]
    fn module_on_missing_device_rejected() {
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&lib_with_archs(&[SmArch::SM75])).unwrap();
        assert!(matches!(
            sim.load_module(lib, 3, LoadMode::Eager),
            Err(CudaError::NoSuchDevice { .. })
        ));
    }

    #[test]
    fn library_without_fatbin_has_no_gpu_module() {
        let img = ElfBuilder::new("libcpu.so").function("f", vec![1; 16]).build().unwrap();
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&img).unwrap();
        assert!(matches!(
            sim.load_module(lib, 0, LoadMode::Eager),
            Err(CudaError::NoGpuCode { .. })
        ));
        assert!(sim.host_call(lib, "f").is_ok());
    }

    #[test]
    fn library_occupied_bytes_matches_image_occupancy() {
        // A cold function spanning several pages, so zeroing it frees
        // whole blocks at page granularity.
        let image = ElfBuilder::new("libocc.so")
            .function("hot", vec![0x90; 64])
            .function("cold", vec![0xaa; 20_000])
            .build()
            .unwrap();
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let lib = sim.open_library(&image).unwrap();
        assert_eq!(
            sim.library_occupied_bytes(lib),
            Some(image.occupied_bytes_in(FileRange::new(0, image.len()), PAGE))
        );
        assert_eq!(sim.library_occupied_bytes(LibraryId(99)), None);

        // A debloated (cold-zeroed) copy reports a smaller footprint.
        let elf = Elf::parse(image.bytes()).unwrap();
        let ranges = elf.function_ranges().unwrap();
        let (_, cold) = ranges.iter().find(|(n, _)| n == "cold").unwrap();
        let mut debloated = image.clone();
        debloated.zero_range(*cold).unwrap();
        let mut sim2 = CudaSim::new(&[GpuModel::T4]);
        let lib2 = sim2.open_library(&debloated).unwrap();
        assert!(sim2.library_occupied_bytes(lib2) < sim.library_occupied_bytes(lib));
    }

    #[test]
    fn device_oom_reported() {
        let mut sim = CudaSim::new(&[GpuModel::T4]);
        let cap = GpuModel::T4.memory_bytes();
        assert!(sim.alloc_device(0, cap - 10).is_ok());
        assert!(matches!(sim.alloc_device(0, 100), Err(CudaError::OutOfMemory { .. })));
        sim.free_device(0, cap).unwrap();
        assert!(sim.alloc_device(0, 100).is_ok());
    }

    #[test]
    fn byte_scale_multiplies_accounting() {
        let image = lib_with_archs(&[SmArch::SM75]);
        let run = |scale: u64| {
            let mut sim = CudaSim::with_config(&[GpuModel::T4], CostModel::default(), scale);
            let lib = sim.open_library(&image).unwrap();
            sim.load_module(lib, 0, LoadMode::Eager).unwrap();
            sim.stats()
        };
        let s1 = run(1);
        let s256 = run(256);
        assert_eq!(s256.gpu_code_bytes, s1.gpu_code_bytes * 256);
        assert!(s256.peak_host_bytes >= s1.peak_host_bytes * 200);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
