//! # negativa-repro
//!
//! Reproduction of *The Hidden Bloat in Machine Learning Systems*
//! (MLSys 2025): the **Negativa-ML** debloater together with every
//! substrate it depends on, implemented from scratch in Rust.
//!
//! This façade crate re-exports the workspace members so downstream code
//! (and the `tests/` in this repository) can depend on a single crate.
//! It also builds the `registry` binary; the repository's benchmark is
//! the separate `perfbench/` package. The members:
//!
//! * [`elf`] — ELF64 shared-object reader/writer/builder ([`simelf`]).
//! * [`fatbin`] — NVIDIA fatbin/cubin container format and a
//!   `cuobjdump`-equivalent extractor.
//! * [`cuda`] — simulated CUDA driver, runtime, CUPTI callbacks, devices
//!   and memory/time accounting ([`simcuda`]).
//! * [`ml`] — synthetic ML frameworks, models and workload executors
//!   ([`simml`]).
//! * [`negativa`] — the paper's contribution, structured as
//!   **detect → plan → apply** sessions: detection produces a usage
//!   map, planning turns it into a cacheable per-library retain plan,
//!   application compacts and verifies ([`negativa_ml`]). On top sits
//!   the long-lived [`negativa::service::DebloatService`] — one bounded,
//!   locked batch queue that sheds under load and feeds executor
//!   threads, plan-identity batching (a burst of same-bundle
//!   requests costs one detection and one compaction), an LRU plan
//!   cache with a per-framework capacity and single-flight planning,
//!   and a bounded worker pool shared across batches.
//!   Below it, the [`negativa::registry`] persists verified debloats —
//!   content-addressed library and plan objects in one shared pool,
//!   plus a self-hashed manifest per artifact with per-workload
//!   baseline checksums — and re-verifies them from a cold process
//!   through [`negativa::StoredArtifact`] (`registry publish` /
//!   `registry verify` run exactly that split in CI). Libraries two
//!   artifacts both ship are stored once, `push`/`pull`
//!   move only the objects the receiving registry lacks (a want-list
//!   delta), refcounting GC reclaims what no surviving record
//!   references, and a cold node seeds its plan cache straight from a
//!   pulled artifact (the `registry` binary drives all of it in CI).
//!   The [`negativa::net`] tier puts those verbs on a real socket:
//!   [`negativa::RegistryServer`] serves a registry over framed
//!   loopback-TCP RPC and [`negativa::RemoteRegistry`] pulls, pushes,
//!   and compatibility-resolves (`resolve(arch)` → the newest
//!   artifact whose fleet runs on that GPU) with bounded retries,
//!   range-read resumption, and whole-object hash checks — CI
//!   round-trips `registry serve` / `pull --from tcp://…` /
//!   `registry verify` as separate OS processes.
//!
//! # Quickstart
//!
//! ```
//! use negativa_repro::ml::{FrameworkKind, ModelKind, Operation, Workload};
//! use negativa_repro::cuda::GpuModel;
//! use negativa_repro::negativa::Debloater;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the synthetic "PyTorch" bundle and a MobileNetV2 training
//! // workload, then debloat every shared library it touches.
//! let workload = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                                Operation::Train);
//! let report = Debloater::new(GpuModel::T4).debloat_many(&[workload])?;
//! assert!(report.totals().file_reduction_pct() > 30.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Shared-bundle debloat
//!
//! One framework installation usually serves many jobs. The same
//! `debloat_many` takes several workloads: it detects usage per
//! workload (and per GPU rank), unions it, compacts the bundle
//! **once**, and verifies the result against *every* workload's own
//! baseline checksum:
//!
//! ```
//! use negativa_repro::ml::{FrameworkKind, ModelKind, Operation, Workload};
//! use negativa_repro::cuda::GpuModel;
//! use negativa_repro::negativa::Debloater;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let train = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                             Operation::Train);
//! let infer = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                             Operation::Inference);
//! let report = Debloater::new(GpuModel::T4).debloat_many(&[train, infer])?;
//! assert!(report.all_verified());
//! assert_eq!(report.workloads.len(), 2);
//! assert!(report.totals().file_reduction_pct() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # The debloat service
//!
//! For the serve-at-scale deployment — many clients, many frameworks,
//! one resident debloater — run a
//! [`DebloatService`](negativa::service::DebloatService). Submissions
//! enter one *bounded* queue of batches (backpressure); while the
//! executors are busy, a queued request joins the batch of its plan
//! identity, which runs as one union debloat whose verified result —
//! byte-identical to the unbatched path — fans out to every requester.
//! Use `try_submit` to shed load with a typed `Overloaded` error
//! instead of blocking when the queue is full:
//!
//! ```
//! use negativa_repro::ml::{FrameworkKind, ModelKind, Operation, Workload};
//! use negativa_repro::cuda::GpuModel;
//! use negativa_repro::negativa::service::{DebloatService, ServiceError};
//! use negativa_repro::negativa::NegativaError;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = DebloatService::builder(GpuModel::T4)
//!     .service_workers(2)
//!     .queue_capacity(32)   // bounded queue: beyond this, shed or block
//!     .build();
//! let handle = service.handle();
//! let w = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                         Operation::Inference);
//! // Non-blocking admission with typed load shedding:
//! match handle.try_submit(vec![w]) {
//!     Ok(ticket) => {
//!         let response = ticket.wait()?;       // report + debloated libraries
//!         assert!(response.report.all_verified());
//!         assert!(response.report.batch_size >= 1); // batch provenance
//!     }
//!     Err(NegativaError::Service(ServiceError::Overloaded { capacity })) => {
//!         eprintln!("saturated at {capacity}; back off and retry");
//!     }
//!     Err(e) => return Err(e.into()),
//! }
//! service.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! # Registry: ship artifacts between fleets
//!
//! A [`Registry`](negativa::Registry) holds many published artifacts
//! over one content-addressed object pool, so two artifacts that ship
//! the same library bytes store them once. `pull` moves an artifact
//! between registries as a *delta*: the receiver names the object
//! hashes it lacks, and only those bytes travel — pulling a second,
//! overlapping artifact ships a fraction of the first:
//!
//! ```
//! use negativa_repro::ml::{FrameworkKind, ModelKind, Operation, Workload};
//! use negativa_repro::cuda::GpuModel;
//! use negativa_repro::negativa::{Debloater, Registry};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let scratch = std::env::temp_dir().join(format!("negativa-doc-{}", std::process::id()));
//! # let (origin_dir, mirror_dir) = (scratch.join("origin"), scratch.join("mirror"));
//! let infer = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                             Operation::Inference);
//! let train = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                             Operation::Train);
//! let session = Debloater::new(GpuModel::T4).session(FrameworkKind::PyTorch);
//!
//! // Publish two overlapping artifacts: their untouched libraries are
//! // byte-identical, so the shared pool stores those objects once.
//! let origin = Registry::at(&origin_dir);
//! let small = origin.publish(&session.debloat_many_artifact(&[infer.clone()])?)?;
//! let big = origin.publish(&session.debloat_many_artifact(&[infer, train])?)?;
//! assert!(origin.stats().objects_deduped >= 1);
//!
//! // A cold mirror pulls the big artifact in full; the overlapping
//! // small one then ships only the objects the mirror still lacks.
//! let mirror = Registry::at(&mirror_dir);
//! let full = mirror.pull(&origin, &big.artifact_id)?;
//! let delta = mirror.pull(&origin, &small.artifact_id)?;
//! assert!(delta.bytes_shipped < full.bytes_shipped);
//!
//! // The mirror re-verifies from its pooled bytes alone, and GC keeps
//! // every object a surviving record still references.
//! assert!(mirror.verify(&small.artifact_id)?.all_verified());
//! assert_eq!(mirror.gc()?.objects_reclaimed, 0);
//! # std::fs::remove_dir_all(&scratch).ok();
//! # Ok(())
//! # }
//! ```

pub use fatbin;
pub use negativa_ml as negativa;
pub use simcuda as cuda;
pub use simelf as elf;
pub use simml as ml;
