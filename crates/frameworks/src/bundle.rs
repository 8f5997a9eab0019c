//! Framework bundles: the full set of shared libraries one framework
//! installation ships, generated deterministically.
//!
//! *Nothing here records which code is bloat.* A bundle is just libraries
//! plus a [`LibManifest`] per library describing what the executor *may*
//! call — which of it actually runs is decided by the workload, observed
//! by CUPTI, and only then known to the debloater.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use simelf::ElfImage;

use crate::error::SimmlError;
use crate::genlib;
use crate::ops::OpFamily;
use crate::spec::{FrameworkKind, LibSpec, LibTag};
use crate::Result;

/// What one library offers for one op family.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FamilyManifest {
    /// Host dispatch functions for the family (the executor calls one,
    /// selected by tensor-shape hash, per op instance per step).
    pub dispatch_fns: Vec<String>,
    /// Entry kernel of each kernel-variant group (one cubin per group;
    /// the executor resolves one, selected by shape hash, per op).
    pub entry_kernels: Vec<String>,
}

/// The navigable description of one generated library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibManifest {
    /// Shared object name.
    pub soname: String,
    /// Symbol namespace token.
    pub lib_tag: String,
    /// Structural role within the bundle.
    pub tag: LibTag,
    /// Per-family offerings (BTreeMap for deterministic iteration).
    pub families: BTreeMap<OpFamily, FamilyManifest>,
    /// Infrastructure functions, all executed at framework load.
    pub infra_fns: Vec<String>,
    /// Number of cold (never-executed) functions generated.
    pub cold_fn_count: usize,
    /// True if the library ships a `.nv_fatbin`.
    pub has_gpu_code: bool,
}

/// One generated shared library: the ELF image plus its manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedLibrary {
    /// The ELF64 image (real bytes; parseable by [`simelf::Elf`]).
    pub image: ElfImage,
    /// The executor-facing description.
    pub manifest: LibManifest,
}

/// Generate one library from its spec — the per-library unit of work
/// behind [`FrameworkBundle::generate`], exposed so callers with their
/// own worker pools (the debloater) can fan generation out across
/// libraries and reassemble with
/// [`FrameworkBundle::from_libraries`]. Generation is pure: the result
/// is byte-identical wherever and in whatever order it runs.
///
/// # Errors
///
/// [`crate::SimmlError::Generation`] if the spec is internally
/// inconsistent — a programming error in [`crate::spec`], not an input
/// condition.
pub fn generate_library(spec: &LibSpec) -> Result<GeneratedLibrary> {
    genlib::generate(spec)
}

/// A framework's complete library set, in provider-resolution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameworkBundle {
    framework: FrameworkKind,
    libraries: Vec<GeneratedLibrary>,
}

impl FrameworkBundle {
    /// Generate the bundle for `framework` (deterministic; identical
    /// bytes on every call).
    ///
    /// # Errors
    ///
    /// [`crate::SimmlError::Generation`] if a library spec is internally
    /// inconsistent — a programming error in [`crate::spec`], not an
    /// input condition.
    pub fn generate(framework: FrameworkKind) -> Result<FrameworkBundle> {
        let libraries =
            framework.lib_specs().iter().map(genlib::generate).collect::<Result<Vec<_>>>()?;
        Ok(FrameworkBundle { framework, libraries })
    }

    /// Rebuild a bundle from library *images* loaded elsewhere — the
    /// load-from-store path: an artifact store persists the compacted
    /// bytes only, and this pairs them back with the framework's
    /// deterministic [`LibManifest`]s (generation is pure, so the
    /// manifests of a debloated bundle are identical to the original's;
    /// compaction zeroes bytes, it never touches structure).
    ///
    /// `images` must cover the roster exactly: same count, same sonames,
    /// in provider-resolution order.
    ///
    /// # Errors
    ///
    /// [`crate::SimmlError::BundleMismatch`] naming the first count or
    /// soname violation — a stored bundle is never silently paired with
    /// the wrong manifest.
    pub fn from_images(framework: FrameworkKind, images: Vec<ElfImage>) -> Result<FrameworkBundle> {
        let original = cached_bundle(framework);
        let roster = original.libraries();
        if images.len() != roster.len() {
            return Err(crate::SimmlError::BundleMismatch {
                reason: format!(
                    "{} ships {} libraries, got {} images",
                    framework.name(),
                    roster.len(),
                    images.len()
                ),
            });
        }
        let libraries = images
            .into_iter()
            .zip(roster)
            .map(|(image, lib)| {
                if image.soname() != lib.manifest.soname {
                    return Err(crate::SimmlError::BundleMismatch {
                        reason: format!(
                            "expected {} at this roster position, got {}",
                            lib.manifest.soname,
                            image.soname()
                        ),
                    });
                }
                Ok(GeneratedLibrary { image, manifest: lib.manifest.clone() })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(FrameworkBundle { framework, libraries })
    }

    /// Assemble a bundle from pre-generated *libraries* — the
    /// reassembly half of a fanned-out generation: produce each library
    /// with [`generate_library`] (on whatever workers you like) and
    /// hand the results back here. Validation is against the
    /// framework's own roster ([`FrameworkKind::lib_specs`]), never the
    /// bundle cache, so this can safely *fill* the cache via
    /// [`cached_bundle_with`].
    ///
    /// `libraries` must cover the roster exactly: same count, same
    /// sonames, in provider-resolution order.
    ///
    /// # Errors
    ///
    /// [`crate::SimmlError::BundleMismatch`] naming the first count or
    /// soname violation.
    pub fn from_libraries(
        framework: FrameworkKind,
        libraries: Vec<GeneratedLibrary>,
    ) -> Result<FrameworkBundle> {
        let specs = framework.lib_specs();
        if libraries.len() != specs.len() {
            return Err(crate::SimmlError::BundleMismatch {
                reason: format!(
                    "{} ships {} libraries, got {}",
                    framework.name(),
                    specs.len(),
                    libraries.len()
                ),
            });
        }
        for (lib, spec) in libraries.iter().zip(&specs) {
            if lib.manifest.soname != spec.soname {
                return Err(crate::SimmlError::BundleMismatch {
                    reason: format!(
                        "expected {} at this roster position, got {}",
                        spec.soname, lib.manifest.soname
                    ),
                });
            }
        }
        Ok(FrameworkBundle { framework, libraries })
    }

    /// Which framework this bundle belongs to.
    pub fn framework(&self) -> FrameworkKind {
        self.framework
    }

    /// The libraries, in provider-resolution order.
    pub fn libraries(&self) -> &[GeneratedLibrary] {
        &self.libraries
    }

    /// Consume the bundle and take the libraries (provider-resolution
    /// order preserved).
    pub fn into_libraries(self) -> Vec<GeneratedLibrary> {
        self.libraries
    }

    /// Find a library by soname.
    pub fn find(&self, soname: &str) -> Option<&GeneratedLibrary> {
        self.libraries.iter().find(|l| l.manifest.soname == soname)
    }

    /// Total on-disk bytes across all libraries (real bytes).
    pub fn total_file_bytes(&self) -> u64 {
        self.libraries.iter().map(|l| l.image.len()).sum()
    }
}

/// A pinned, process-shared reference to one framework's bundle. Debloat
/// sessions hold one of these for their whole detect → plan → apply
/// lifetime so every stage sees the identical library bytes.
pub type BundleHandle = Arc<FrameworkBundle>;

/// One lazily filled value per framework. The map lock is held only to
/// find a framework's slot, and a fill runs under that slot's own lock:
/// a cold fill for one framework never holds up another framework, and
/// concurrent first callers for one framework fill it once.
struct PerFramework<T> {
    slots: Mutex<HashMap<FrameworkKind, Arc<Mutex<Option<T>>>>>,
}

impl<T: Clone> PerFramework<T> {
    fn new() -> Self {
        PerFramework { slots: Mutex::new(HashMap::new()) }
    }

    /// The value for `framework`, filled by `fill` on first use. A failed
    /// or panicking fill stores nothing, so the next caller fills again;
    /// that is also why a poisoned lock still guards a sound slot.
    fn get_or_fill<E>(
        &self,
        framework: FrameworkKind,
        fill: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let slot = self
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(framework)
            .or_default()
            .clone();
        let mut value = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = value.as_ref() {
            return Ok(value.clone());
        }
        Ok(value.insert(fill()?).clone())
    }
}

/// The one process-wide bundle cache, behind both [`cached_bundle`] and
/// [`cached_bundle_with`].
fn bundle_cache() -> &'static PerFramework<BundleHandle> {
    static CACHE: OnceLock<PerFramework<BundleHandle>> = OnceLock::new();
    CACHE.get_or_init(PerFramework::new)
}

/// Process-wide bundle cache: generating a bundle is pure, so every
/// caller (detection run, verification run, debloater, tests) shares one
/// immutable copy per framework.
pub fn cached_bundle(framework: FrameworkKind) -> BundleHandle {
    cached_bundle_with(framework, || FrameworkBundle::generate(framework))
        .expect("bundle generation is deterministic and must not fail")
}

/// [`cached_bundle`] with an injectable cache fill: on a miss, `init`
/// produces the bundle (e.g. fanned out per library through a caller's
/// worker pool via [`generate_library`] +
/// [`FrameworkBundle::from_libraries`]); on a hit, `init` never runs and
/// the cached handle comes back. Both share one cache, so whichever
/// fills a framework first wins and every later caller gets the same
/// handle. Because generation is pure, *which* caller fills the cache
/// is unobservable — the bytes are identical.
///
/// `init` runs under its framework's own lock, never a process-wide
/// one: a stampede of first requests for one framework generates once,
/// and callers for other frameworks go on meanwhile.
///
/// # Errors
///
/// Whatever `init` returns, plus [`crate::SimmlError::BundleMismatch`]
/// (converted into `E`) if `init` produced a bundle for a different
/// framework.
pub fn cached_bundle_with<E: From<SimmlError>>(
    framework: FrameworkKind,
    init: impl FnOnce() -> std::result::Result<FrameworkBundle, E>,
) -> std::result::Result<BundleHandle, E> {
    bundle_cache().get_or_fill(framework, || {
        let bundle = init()?;
        if bundle.framework() != framework {
            return Err(SimmlError::BundleMismatch {
                reason: format!(
                    "cache fill for {} produced a {} bundle",
                    framework.name(),
                    bundle.framework().name()
                ),
            }
            .into());
        }
        Ok(Arc::new(bundle))
    })
}

/// Process-wide cache of parse-once [`simelf::ElfIndex`] views for a
/// framework's bundle, in library order. Built the first time a caller
/// asks and shared ever after, so the three pipeline runs (baseline,
/// detection, verification) and the location stage never re-parse a
/// symbol table per open. The indexes remain valid for *compacted*
/// copies of the bundle, too — compaction zeroes bytes in place and
/// never moves offsets. Like the bundle cache, a cold build holds up
/// only its own framework.
pub fn cached_indexes(framework: FrameworkKind) -> Arc<Vec<simelf::ElfIndex>> {
    static CACHE: OnceLock<PerFramework<Arc<Vec<simelf::ElfIndex>>>> = OnceLock::new();
    CACHE
        .get_or_init(PerFramework::new)
        .get_or_fill(framework, || {
            let bundle = cached_bundle(framework);
            let indexes: simelf::Result<Vec<_>> =
                bundle.libraries().iter().map(|lib| simelf::ElfIndex::build(&lib.image)).collect();
            indexes.map(Arc::new)
        })
        .expect("generated libraries always parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_bundle_is_shared() {
        let a = cached_bundle(FrameworkKind::PyTorch);
        let b = cached_bundle(FrameworkKind::PyTorch);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.framework(), FrameworkKind::PyTorch);
    }

    #[test]
    fn bundle_matches_roster() {
        let bundle = FrameworkBundle::generate(FrameworkKind::TensorFlow).unwrap();
        let specs = FrameworkKind::TensorFlow.lib_specs();
        assert_eq!(bundle.libraries().len(), specs.len());
        for (lib, spec) in bundle.libraries().iter().zip(&specs) {
            assert_eq!(lib.manifest.soname, spec.soname);
            assert_eq!(lib.manifest.has_gpu_code, spec.has_gpu_code());
        }
    }

    #[test]
    fn bundle_is_megabytes_not_gigabytes() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let total = bundle.total_file_bytes();
        assert!(total > 2 << 20, "suspiciously small bundle: {total}");
        assert!(total < 64 << 20, "bundle too large for test scale: {total}");
    }

    #[test]
    fn find_locates_by_soname() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        assert!(bundle.find("libtorch_cuda.so").is_some());
        assert!(bundle.find("libmissing.so").is_none());
    }

    #[test]
    fn from_images_pairs_stored_bytes_with_roster_manifests() {
        let original = cached_bundle(FrameworkKind::PyTorch);
        let images: Vec<ElfImage> =
            original.libraries().iter().map(|lib| lib.image.clone()).collect();
        let rebuilt = FrameworkBundle::from_images(FrameworkKind::PyTorch, images).unwrap();
        assert_eq!(rebuilt.libraries(), original.libraries());
        assert_eq!(rebuilt.into_libraries().len(), original.libraries().len());

        // Wrong count is refused.
        let err = FrameworkBundle::from_images(FrameworkKind::PyTorch, Vec::new()).unwrap_err();
        assert!(matches!(err, crate::SimmlError::BundleMismatch { .. }), "{err}");

        // A swapped soname is refused, naming the offender.
        let mut swapped: Vec<ElfImage> =
            original.libraries().iter().map(|lib| lib.image.clone()).collect();
        swapped.swap(0, 1);
        let err = FrameworkBundle::from_images(FrameworkKind::PyTorch, swapped).unwrap_err();
        match err {
            crate::SimmlError::BundleMismatch { reason } => {
                assert!(reason.contains(&original.libraries()[0].manifest.soname), "{reason}");
            }
            other => panic!("expected BundleMismatch, got {other}"),
        }
    }

    #[test]
    fn from_libraries_reassembles_a_fanned_out_generation() {
        // Per-library generation is the serial path's unit of work, so
        // reassembly is byte-identical to FrameworkBundle::generate.
        let specs = FrameworkKind::TensorFlow.lib_specs();
        let libraries: Vec<GeneratedLibrary> =
            specs.iter().map(|spec| generate_library(spec).unwrap()).collect();
        let rebuilt =
            FrameworkBundle::from_libraries(FrameworkKind::TensorFlow, libraries).unwrap();
        assert_eq!(rebuilt, FrameworkBundle::generate(FrameworkKind::TensorFlow).unwrap());

        // Count and roster-order violations are refused.
        let err =
            FrameworkBundle::from_libraries(FrameworkKind::TensorFlow, Vec::new()).unwrap_err();
        assert!(matches!(err, crate::SimmlError::BundleMismatch { .. }), "{err}");
        let mut swapped: Vec<GeneratedLibrary> =
            specs.iter().map(|spec| generate_library(spec).unwrap()).collect();
        swapped.swap(0, 1);
        let err = FrameworkBundle::from_libraries(FrameworkKind::TensorFlow, swapped).unwrap_err();
        match err {
            crate::SimmlError::BundleMismatch { reason } => {
                assert!(reason.contains(&specs[0].soname), "{reason}");
            }
            other => panic!("expected BundleMismatch, got {other}"),
        }
    }

    #[test]
    fn cached_bundle_with_shares_the_one_cache() {
        // Whatever fills first wins; the injectable fill and the plain
        // accessor hand out the same Arc.
        let via_init = cached_bundle_with::<SimmlError>(FrameworkKind::Vllm, || {
            let libraries = FrameworkKind::Vllm
                .lib_specs()
                .iter()
                .map(generate_library)
                .collect::<Result<Vec<_>>>()?;
            FrameworkBundle::from_libraries(FrameworkKind::Vllm, libraries)
        })
        .unwrap();
        assert!(Arc::ptr_eq(&via_init, &cached_bundle(FrameworkKind::Vllm)));
        // On a hit the init closure never runs.
        let untouched = cached_bundle_with::<SimmlError>(FrameworkKind::Vllm, || {
            panic!("cache hit must not re-generate")
        })
        .unwrap();
        assert!(Arc::ptr_eq(&untouched, &via_init));
    }

    /// A fill blocked on a channel for one framework holds up neither a
    /// hit nor a fill for another.
    #[test]
    fn a_cold_fill_for_one_framework_does_not_block_another() {
        use std::sync::mpsc;
        use std::time::Duration;

        let cache = Arc::new(PerFramework::<u32>::new());
        assert_eq!(cache.get_or_fill(FrameworkKind::TensorFlow, || Ok::<_, SimmlError>(7)), Ok(7));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let filler = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                cache.get_or_fill(FrameworkKind::PyTorch, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok::<_, SimmlError>(1)
                })
            })
        };
        started_rx.recv().unwrap(); // the PyTorch fill now holds its slot
        let (done_tx, done_rx) = mpsc::channel();
        let other = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let hit = cache.get_or_fill(FrameworkKind::TensorFlow, || -> Result<u32> {
                    panic!("a hit must not fill")
                });
                let fill = cache.get_or_fill(FrameworkKind::Vllm, || Ok::<_, SimmlError>(3));
                done_tx.send((hit, fill)).unwrap();
            })
        };
        // A bounded wait, so a regression fails here instead of hanging.
        let done = done_rx.recv_timeout(Duration::from_secs(60));
        release_tx.send(()).unwrap();
        assert_eq!(done.expect("the other frameworks waited on the PyTorch fill"), (Ok(7), Ok(3)));
        other.join().unwrap();
        assert_eq!(filler.join().unwrap(), Ok(1));
        // The fill landed once: a later caller hits it.
        let hit = cache.get_or_fill(FrameworkKind::PyTorch, || -> Result<u32> { panic!("hit") });
        assert_eq!(hit, Ok(1));
    }

    #[test]
    fn a_failed_fill_stores_nothing() {
        let cache = PerFramework::<u32>::new();
        let failed = cache.get_or_fill(FrameworkKind::Vllm, || {
            Err(SimmlError::BundleMismatch { reason: "injected".into() })
        });
        assert!(failed.is_err());
        assert_eq!(cache.get_or_fill(FrameworkKind::Vllm, || Ok::<_, SimmlError>(3)), Ok(3));
    }

    #[test]
    fn cached_indexes_cover_the_bundle_in_order() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let indexes = cached_indexes(FrameworkKind::PyTorch);
        assert!(Arc::ptr_eq(&indexes, &cached_indexes(FrameworkKind::PyTorch)));
        assert_eq!(indexes.len(), bundle.libraries().len());
        for (index, lib) in indexes.iter().zip(bundle.libraries()) {
            assert!(index.matches(&lib.image), "{} index mismatch", lib.manifest.soname);
            assert_eq!(index.fatbin_range().is_some(), lib.manifest.has_gpu_code);
        }
    }
}
