//! # simcuda — a simulated CUDA driver and runtime
//!
//! The Negativa-ML paper evaluates on real NVIDIA GPUs (T4, H100, 8×A100)
//! through the CUDA driver API and the CUPTI profiling interface. This
//! crate is the hardware/driver substitute: a deterministic simulator
//! that reproduces the *control flow* and the *accounting* those
//! experiments depend on, namely:
//!
//! * **Driver API control flow** — libraries are opened
//!   ([`CudaSim::open_library`]), GPU modules are loaded eagerly or
//!   lazily ([`LoadMode`]), kernels are resolved via
//!   [`CudaSim::get_function`] (the `cuModuleGetFunction` equivalent that
//!   Negativa-ML hooks — called once per kernel regardless of how many
//!   times it launches) and executed via [`CudaSim::launch`].
//! * **CUPTI callbacks** — [`cupti::CuptiSubscriber`]s receive events at
//!   selected [`cupti::CallbackSite`]s and charge a modelled overhead to
//!   the virtual clock, reproducing the paper's §4.6 comparison between
//!   the lightweight kernel detector (41 % overhead) and an
//!   NSys-style full tracer (126 %, [`cupti::NsysTracer`]).
//! * **Memory accounting** — page-granular host residency (zeroed pages
//!   of a debloated library are never touched), host-side staging of
//!   loaded GPU elements, per-device GPU memory including module code,
//!   and peak tracking ([`memory::MemTracker`]).
//! * **Virtual time** — every byte read, element registered, symbol
//!   linked, callback fired, and kernel launched advances a
//!   deterministic [`clock::VirtualClock`] according to a calibrated
//!   [`cost::CostModel`]. No wall-clock nondeterminism.
//! * **Integrity faults** — executing a host function or kernel whose
//!   bytes were zeroed by (over-)compaction fails with a
//!   [`CudaError::FunctionFault`] / [`CudaError::KernelNotFound`], which
//!   is what makes debloating correctness *testable*.
//!
//! Sizes are accounted in *model bytes*: synthetic libraries are
//! materialized at `1/scale` of their paper size and the simulator
//! multiplies file-derived quantities back by [`CudaSim::byte_scale`],
//! so reported memory matches the paper's MB figures.
//!
//! # Example
//!
//! ```
//! use fatbin::{Cubin, Element, Fatbin, KernelDef, Region, SmArch};
//! use simcuda::{CudaSim, GpuModel, LoadMode};
//! use simelf::ElfBuilder;
//!
//! # fn main() -> Result<(), simcuda::CudaError> {
//! let cubin = Cubin::new(vec![KernelDef::entry("axpy", vec![7; 64])]).unwrap();
//! let fb = Fatbin::new(vec![Region::new(vec![
//!     Element::cubin(SmArch::SM75, &cubin).unwrap(),
//! ])]);
//! let lib = ElfBuilder::new("libaxpy.so")
//!     .function("axpy_host", vec![0x90; 32])
//!     .fatbin(fb.to_bytes())
//!     .build()
//!     .unwrap();
//!
//! let mut sim = CudaSim::new(&[GpuModel::T4]);
//! let lib_id = sim.open_library(&lib)?;
//! let module = sim.load_module(lib_id, 0, LoadMode::Eager)?;
//! let f = sim.get_function(module, "axpy")?;
//! sim.launch(&f, 10_000)?; // 10 µs of simulated kernel work
//! assert!(sim.elapsed_ns() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod cupti;
mod device;
mod error;
pub mod memory;
mod sim;

pub use clock::VirtualClock;
pub use cost::CostModel;
pub use device::{Device, GpuModel};
pub use error::CudaError;
pub use sim::{CudaSim, FnHandle, LibraryId, LoadMode, ModuleId, RuntimeStats};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CudaError>;
