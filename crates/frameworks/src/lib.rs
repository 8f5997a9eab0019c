//! # simml — synthetic ML frameworks, models, and workloads
//!
//! The Negativa-ML paper measures bloat in four real frameworks (PyTorch,
//! TensorFlow, vLLM, Hugging Face Transformers) running ten workloads
//! over three models. Those frameworks are not available here, so this
//! crate generates *structurally faithful* stand-ins and executes
//! workloads against them on the [`simcuda`] runtime:
//!
//! * [`FrameworkBundle`] — a deterministic generator producing, per
//!   framework, the full set of shared libraries with the published
//!   structural statistics: library counts, power-law size mix, CPU
//!   function counts, multi-architecture fatbins with thousands of
//!   elements, host dispatch call graphs, and per-family kernel groups.
//!   Every library is a real ELF image (`simelf`) with a real fatbin
//!   (`fatbin`) inside.
//! * [`ModelKind`] — op graphs for the paper's models (MobileNetV2,
//!   Transformer, Llama2) plus the appendix's LLM roster.
//! * [`Workload`] — the paper's Table 1 workload matrix and the H100 /
//!   8×A100 variants, with [`Workload::paper`] constructors.
//! * [`run_workload`] — the executor: opens libraries, loads GPU
//!   modules (eager or lazy), resolves kernels once each (the
//!   `cuModuleGetFunction` control flow Negativa-ML hooks), dispatches
//!   host call chains, launches kernels, allocates model/framework
//!   memory, and returns a deterministic output checksum plus runtime
//!   metrics.
//!
//! Crucially, *nothing here knows which code is bloat*. Usage emerges
//! from what the executor touches; the debloater (`negativa-ml`)
//! observes it through CUPTI hooks exactly as the paper's tool does.
//!
//! ## Scale model
//!
//! Libraries are materialized at reduced scale so a ~3.8 GB framework
//! fits in a few tens of MB: sizes divide by [`scale::BYTE_SCALE`] and
//! entity counts (functions, cubin groups) divide by
//! [`scale::COUNT_SCALE`]. All percentages are scale-invariant; report
//! code multiplies back when printing paper-style absolute numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bundle;
mod dataset;
mod error;
mod executor;
mod genlib;
pub mod metrics;
mod model;
pub mod namegen;
pub mod ops;
pub mod scale;
pub mod spec;
mod workload;

pub use bundle::{
    cached_bundle, cached_bundle_with, cached_indexes, generate_library, BundleHandle,
    FrameworkBundle, GeneratedLibrary, LibManifest,
};
pub use dataset::Dataset;
pub use error::SimmlError;
pub use executor::{run_workload, run_workload_indexed, RunConfig, RunOutcome};
pub use metrics::WorkloadMetrics;
pub use model::ModelKind;
pub use ops::OpFamily;
pub use spec::{FrameworkKind, LibSpec, LibTag};
pub use workload::{Operation, Workload};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, SimmlError>;
