//! # simelf — ELF64 shared objects, from scratch
//!
//! The binary substrate of the Negativa-ML reproduction. ML frameworks
//! ship their CPU and GPU code inside ELF shared libraries; Negativa-ML
//! debloats those libraries by zeroing the file ranges occupied by unused
//! CPU functions and unused GPU fatbin elements. This crate provides
//! everything the rest of the workspace needs to *create*, *inspect*, and
//! *surgically edit* such libraries:
//!
//! * [`ElfBuilder`] — compose a shared object out of functions, data, and
//!   an optional `.nv_fatbin` payload, and serialize it to real ELF64
//!   little-endian bytes.
//! * [`Elf`] — a zero-copy parser for the images the builder produces (and
//!   any structurally similar ELF64 file): header, section table, symbol
//!   table, and section data access.
//! * [`ElfImage`] — a copy-on-write image supporting in-place range
//!   zeroing (the paper's compaction primitive) and *occupied-extent*
//!   accounting, which models the on-disk footprint after hole punching
//!   and the resident memory after page-granular loading. The bytes live
//!   behind a shared handle: cloning an image is a reference-count bump,
//!   and the **ownership rule** is that exactly one holder mutates — in
//!   the debloat pipeline that is the compaction step, which pays for a
//!   deep copy at most once per library via `Arc::make_mut`-style
//!   unsharing. Everything else (batch fan-out, grouped responses, the
//!   artifact store) only clones handles.
//! * [`ElfIndex`] — a parse-once cached view (section table + function
//!   intervals) shared by every subsequent open; it stays valid across
//!   compaction because zeroing never moves offsets.
//! * [`FileRange`] / [`range`] — file-offset interval arithmetic shared by
//!   the locator and compactor.
//!
//! # Example
//!
//! ```
//! use simelf::{Elf, ElfBuilder};
//!
//! # fn main() -> Result<(), simelf::ElfError> {
//! let image = ElfBuilder::new("libdemo.so")
//!     .function("matmul_host", vec![0x90; 64])
//!     .function("conv_host", vec![0xcc; 32])
//!     .rodata(b"demo".to_vec())
//!     .build()?;
//! let elf = Elf::parse(image.bytes())?;
//! assert_eq!(elf.symbols()?.len(), 2);
//! assert!(elf.section_by_name(".text").is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod image;
mod index;
mod parser;
pub mod range;
mod symtab;
pub mod types;

pub use builder::{ElfBuilder, FunctionDef};
pub use error::ElfError;
pub use image::ElfImage;
pub use index::ElfIndex;
pub use parser::{Elf, Section, SectionIter};
pub use range::FileRange;
pub use symtab::{Symbol, SymbolKind};
pub use types::{SectionFlags, SectionKind};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, ElfError>;
