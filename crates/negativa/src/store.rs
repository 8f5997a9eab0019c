//! The **opened-artifact view** of the packaging layer and its typed
//! errors.
//!
//! A verified debloat (compacted library bytes, the [`BundlePlan`],
//! per-workload baseline checksums, and reduction stats) is persisted
//! in a registry root ([`crate::registry`]): every library and the
//! encoded plan live as content-addressed pool objects under
//! `objects/<content-hash>.bin`, and a self-hashed manifest
//! ([`StoreManifest`]) indexes them. [`StoredArtifact`] is one such
//! artifact opened for consumption, reading through an
//! [`ObjectSource`] — a local registry root
//! ([`crate::registry::Registry::open`]) or a remote one over the wire
//! ([`crate::net::RemoteRegistry::open`]). Single-byte corruption
//! anywhere is detected with a typed [`StoreError`]: a flipped library
//! byte fails the entry's content hash, a flipped plan byte fails
//! [`StoreManifest::plan_hash`], and a flipped manifest byte fails its
//! index record's hash and its embedded self-hash.
//!
//! ## The object-reuse rule
//!
//! An object file's *name* is its content hash and every write lands
//! atomically (temp + rename), so a file that exists at
//! `objects/<hash>.bin` with the recorded length holds exactly the
//! bytes that hash to `<hash>` — there is never a reason to write it
//! again. Publishing exploits this
//! ([`crate::registry::RegistryStats::objects_deduped`] counts the
//! wins): republishing an intact identity writes no object, and
//! artifacts sharing untouched libraries pool them once. Reads are
//! symmetric: [`StoredArtifact::load_bundle`] reads and hash-checks
//! each unique content hash **once**, caches the buffer, and hands out
//! refcount-shared [`ElfImage`]s ([`ElfImage::shares_bytes_with`]) for
//! every further request of the same hash.
//!
//! [`StoredArtifact::verify`] is the cold half of the contract: it
//! checks every hash, reconstructs the bundle, and re-runs *every*
//! contributing workload, demanding each reproduce its recorded
//! baseline checksum. `registry publish` / `registry verify` run
//! exactly this split across two processes in CI.
//!
//! ```
//! use negativa_ml::{Debloater, Registry};
//! use simcuda::GpuModel;
//! use simml::{FrameworkKind, ModelKind, Operation, Workload};
//!
//! # fn main() -> Result<(), negativa_ml::NegativaError> {
//! let root = std::env::temp_dir().join(format!("negativa-doc-store-{}", std::process::id()));
//! let registry = Registry::at(&root);
//!
//! // Publish: one union debloat, persisted as pool objects + manifest.
//! let workload = Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2,
//!                                Operation::Inference);
//! let artifact = Debloater::new(GpuModel::T4)
//!     .session(FrameworkKind::PyTorch)
//!     .debloat_many_artifact(std::slice::from_ref(&workload))?;
//! assert!(artifact.report.all_verified());
//! let record = registry.publish(&artifact)?;
//! assert_eq!(record.objects.len(), artifact.libraries.len());
//!
//! // Reopen cold and re-verify: every stored hash checks out and every
//! // workload reproduces its recorded baseline checksum.
//! let opened = registry.open(&record.artifact_id)?;
//! assert_eq!(opened.plan_key(), artifact.key);
//! let verification = opened.verify()?;
//! assert!(verification.all_verified());
//! # std::fs::remove_dir_all(&root).ok();
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use simelf::ElfImage;
use simml::{cached_indexes, FrameworkBundle, GeneratedLibrary, RunConfig};

use crate::codec::content_hash;
use crate::manifest::{
    object_path, ManifestEntry, StoreManifest, WorkloadRecord, FORMAT_VERSION, PLAN_FILE,
};
use crate::plan::{default_config_fingerprint, BundlePlan, PlanCache, PlanKey};
use crate::verify::verify_indexed;
use crate::{DebloatArtifact, NegativaError, Result};

/// Why an artifact could not be published, shipped, or loaded.
/// Carried inside [`NegativaError::Store`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed (permissions, disk full, ...).
    Io {
        /// The path the operation touched.
        path: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// An indexed artifact has no manifest file
    /// (`manifests/<artifact-id>.json`) — it was deleted, or a write
    /// was torn before the manifest landed.
    MissingManifest {
        /// The manifest path that does not exist.
        path: String,
    },
    /// The manifest references an entry whose backing file is gone —
    /// the telltale of a partially deleted pool or a torn write.
    MissingEntry {
        /// The entry's name (library soname or `plan.json`).
        entry: String,
        /// The file path that should have held its bytes.
        path: String,
    },
    /// An artifact manifest exists but fails parsing, schema
    /// validation, or its embedded self-hash — it was corrupted after
    /// publishing.
    CorruptManifest {
        /// The manifest path.
        path: String,
        /// What exactly failed.
        detail: String,
    },
    /// The plan object passed its content-hash check but does not
    /// decode — a schema mismatch rather than bit rot.
    CorruptPlan {
        /// The plan path.
        path: String,
        /// What exactly failed.
        detail: String,
    },
    /// A stored file's bytes do not hash to what the manifest recorded:
    /// the entry was modified (or truncated) after publishing.
    HashMismatch {
        /// The entry's name (library soname or `plan.json`).
        entry: String,
        /// The hash the manifest recorded at publish time.
        expected: u64,
        /// What the bytes on disk actually hash to.
        actual: u64,
    },
    /// [`StoredArtifact::verify`] was handed a manifest recorded under
    /// a [`RunConfig`] other than this build's default, the only one
    /// it replays workloads under — the checksums would be
    /// incomparable, so verification refuses to start.
    ConfigMismatch {
        /// The config fingerprint recorded in the manifest.
        stored: u64,
        /// The fingerprint of this build's default config.
        provided: u64,
    },
    /// A registry root's `REGISTRY.json` exists but fails parsing, its
    /// format-version gate, or its embedded self-hash — the index was
    /// corrupted after it was written.
    CorruptIndex {
        /// The index path.
        path: String,
        /// What exactly failed.
        detail: String,
    },
    /// A registry operation named an artifact its index does not hold
    /// (never published here, expired, or removed).
    MissingArtifact {
        /// The artifact id that was requested.
        artifact_id: String,
        /// The registry root that was asked.
        registry: String,
    },
    /// An artifact's referenced closure is incomplete: a pool object a
    /// record points at is gone (or was never shipped). Raised by the
    /// sending side of a ship when its own pool lost an object, and by
    /// the receiving side's pre-install closure check — a torn ship
    /// never leaves a consumable record pointing at missing bytes.
    MissingObject {
        /// The artifact whose closure is incomplete.
        artifact_id: String,
        /// The first referenced object hash with no backing pool file.
        hash: u64,
    },
    /// A stored object's file is shorter (or longer) than the length
    /// its manifest recorded — truncation or a torn write under the
    /// final name, caught before any hash is computed.
    TruncatedObject {
        /// The entry's name (library soname, `plan.json`, or object
        /// path).
        entry: String,
        /// The byte length the manifest recorded at publish time.
        expected_len: u64,
        /// The length actually served.
        actual_len: u64,
    },
    /// A compatibility-keyed resolve found no indexed artifact whose
    /// fleet serves the requesting architecture.
    NoCompatibleArtifact {
        /// The GPU architecture that asked (`sm_NN` rendering).
        arch: String,
        /// The registry that was searched.
        registry: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => write!(f, "store I/O error at {path}: {detail}"),
            StoreError::MissingManifest { path } => {
                write!(f, "no artifact manifest at {path} (deleted, or a torn publish)")
            }
            StoreError::MissingEntry { entry, path } => {
                write!(f, "store entry {entry} is missing its backing file {path}")
            }
            StoreError::CorruptManifest { path, detail } => {
                write!(f, "corrupt manifest at {path}: {detail}")
            }
            StoreError::CorruptPlan { path, detail } => {
                write!(f, "corrupt plan at {path}: {detail}")
            }
            StoreError::HashMismatch { entry, expected, actual } => write!(
                f,
                "content hash mismatch for stored entry {entry}: manifest records \
                 {expected:#018x}, bytes on disk hash to {actual:#018x}"
            ),
            StoreError::ConfigMismatch { stored, provided } => write!(
                f,
                "this build's run-config fingerprint {provided:#018x} does not match the \
                 manifest's {stored:#018x}; baselines were recorded under a different \
                 configuration"
            ),
            StoreError::CorruptIndex { path, detail } => {
                write!(f, "corrupt registry index at {path}: {detail}")
            }
            StoreError::MissingArtifact { artifact_id, registry } => {
                write!(f, "registry at {registry} holds no artifact {artifact_id}")
            }
            StoreError::MissingObject { artifact_id, hash } => write!(
                f,
                "artifact {artifact_id} references pool object {hash:#018x} \
                 which has no backing file; its closure is incomplete"
            ),
            StoreError::TruncatedObject { entry, expected_len, actual_len } => write!(
                f,
                "stored entry {entry} is {actual_len} bytes but its manifest \
                 records {expected_len}; the file was truncated after publishing"
            ),
            StoreError::NoCompatibleArtifact { arch, registry } => {
                write!(f, "registry at {registry} holds no artifact whose fleet runs on {arch}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Read-only transport a [`StoredArtifact`] loads its content through.
///
/// An opened artifact never writes, and its manifest is read and
/// checked by whoever opens it; everything else it needs is a
/// pool-relative object read (`objects/<hash>.bin`, the plan
/// included). Abstracting that read lets one `StoredArtifact`
/// implementation serve a local registry root
/// ([`crate::registry::Registry::open`]) and a remote one
/// ([`crate::net::RemoteRegistry::open`]). Every byte an implementation
/// returns is still content-hash checked by the caller — a transport
/// can lose bytes or serve stale ones, but it can never forge them.
pub trait ObjectSource: fmt::Debug + Send + Sync {
    /// Where `relative` resolves for this transport, for error
    /// messages ([`StoreError::MissingEntry::path`] and friends).
    fn describe(&self, relative: &str) -> String;

    /// Read the full contents at `relative`. `Ok(None)` means the file
    /// does not exist (the caller turns it into the right typed
    /// missing-entry error); `Err` is any other I/O failure.
    ///
    /// # Errors
    ///
    /// The underlying transport failure (permissions, disk, ...).
    fn fetch(&self, relative: &str) -> io::Result<Option<Vec<u8>>>;
}

/// The presence half of the object-reuse rule: a hash-named,
/// atomically renamed file that exists at exactly `byte_len` bytes
/// already holds the content being written.
pub(crate) fn object_present_at(root: &Path, relative: &str, byte_len: u64) -> bool {
    fs::metadata(root.join(relative)).is_ok_and(|m| m.len() == byte_len)
}

/// Write `bytes` to `root/relative` through a uniquely named temp
/// file followed by a rename, so a torn write never leaves a
/// half-written file under its final name — and two racing publishers
/// (e.g. two service executors running same-identity batches back to
/// back, or a local publish racing a registry pull) never share a
/// temp file: each renames its own complete bytes into place, and
/// rename replaces atomically.
pub(crate) fn write_atomic_at(root: &Path, relative: &str, bytes: &[u8]) -> Result<()> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = root.join(relative);
    let tmp = root.join(format!("{relative}.{}.{seq}.tmp", std::process::id()));
    fs::write(&tmp, bytes).map_err(|e| io_error(&tmp, &e))?;
    fs::rename(&tmp, &path).map_err(|e| io_error(&path, &e))?;
    Ok(())
}

/// Build the manifest that persists `artifact`: one content-addressed
/// entry per compacted library plus the plan's content hash.
pub(crate) fn manifest_for(artifact: &DebloatArtifact, plan_text: &str) -> StoreManifest {
    let mut entries = Vec::with_capacity(artifact.libraries.len());
    for (library, report) in artifact.libraries.iter().zip(&artifact.report.libraries) {
        let bytes = library.image.bytes();
        entries.push(ManifestEntry {
            soname: library.manifest.soname.clone(),
            content_hash: content_hash(bytes),
            byte_len: bytes.len() as u64,
            report: report.clone(),
        });
    }
    StoreManifest {
        version: FORMAT_VERSION,
        key: artifact.key,
        gpu: artifact.gpu,
        plan_hash: content_hash(plan_text.as_bytes()),
        used_kernels: artifact.plan.used_kernels,
        used_host_fns: artifact.plan.used_host_fns,
        entries,
        workloads: artifact
            .workloads
            .iter()
            .zip(&artifact.plan.baselines)
            .map(|(workload, base)| WorkloadRecord {
                workload: workload.clone(),
                label: base.label.clone(),
                baseline_checksum: base.checksum,
            })
            .collect(),
    }
}

/// Decode manifest bytes already checked against their index record,
/// verifying the embedded self-hash and format version; `path` names
/// the manifest in the error.
pub(crate) fn decode_manifest(bytes: Vec<u8>, path: String) -> Result<StoreManifest> {
    let text = String::from_utf8(bytes).map_err(|_| StoreError::CorruptManifest {
        path: path.clone(),
        detail: "not valid UTF-8".into(),
    })?;
    StoreManifest::decode(&text)
        .map_err(|detail| StoreError::CorruptManifest { path, detail }.into())
}

fn io_error(path: &Path, e: &io::Error) -> NegativaError {
    StoreError::Io { path: display(path), detail: e.to_string() }.into()
}

pub(crate) fn display(path: &Path) -> String {
    path.display().to_string()
}

/// One opened artifact: the decoded, integrity-checked manifest plus
/// the transport it loads content from. Created by
/// [`crate::registry::Registry::open`] and
/// [`crate::net::RemoteRegistry::open`].
///
/// The handle carries a per-content-hash object cache: across all its
/// [`StoredArtifact::load_bundle`] calls (and clones — the cache is
/// shared), each unique hash is read and hash-checked once, and every
/// image of that hash shares the one buffer
/// ([`ElfImage::shares_bytes_with`]).
#[derive(Debug, Clone)]
pub struct StoredArtifact {
    source: Arc<dyn ObjectSource>,
    manifest: StoreManifest,
    objects: Arc<Mutex<HashMap<u64, Arc<Vec<u8>>>>>,
}

impl StoredArtifact {
    /// An artifact whose `manifest` the caller already read and
    /// checked, loading its plan and objects through `source`.
    pub fn new(source: Arc<dyn ObjectSource>, manifest: StoreManifest) -> StoredArtifact {
        StoredArtifact { source, manifest, objects: Arc::new(Mutex::new(HashMap::new())) }
    }

    /// The decoded manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// The artifact's full plan identity.
    pub fn plan_key(&self) -> PlanKey {
        self.manifest.key
    }

    /// Load the stored [`BundlePlan`], checking the plan object against
    /// the manifest's content hash first. The result is
    /// field-for-field identical to the plan that was published.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingEntry`] / [`StoreError::HashMismatch`]
    /// naming `plan.json`, or [`StoreError::CorruptPlan`] if the bytes
    /// hash correctly but fail decoding (a schema bug, not bit rot).
    pub fn load_plan(&self) -> Result<BundlePlan> {
        let relative = object_path(self.manifest.plan_hash);
        let bytes = self.read_entry(PLAN_FILE, &relative, self.manifest.plan_hash, None)?;
        let path = || self.source.describe(&relative);
        let text = String::from_utf8(bytes).map_err(|_| StoreError::CorruptPlan {
            path: path(),
            detail: "not valid UTF-8".into(),
        })?;
        crate::manifest::decode_plan(&text)
            .map_err(|detail| StoreError::CorruptPlan { path: path(), detail }.into())
    }

    /// Seed `cache` with the stored plan under the artifact's own key,
    /// so the next debloat of the same workload set is a cache hit —
    /// zero detection runs — even in a process that never
    /// planned anything.
    ///
    /// # Errors
    ///
    /// As [`StoredArtifact::load_plan`].
    pub fn install_plan(&self, cache: &PlanCache) -> Result<Arc<BundlePlan>> {
        let plan = Arc::new(self.load_plan()?);
        cache.insert(self.manifest.key, plan.clone());
        Ok(plan)
    }

    /// Load the compacted libraries from the content-addressed objects,
    /// checking every entry's stored bytes against its manifest hash
    /// and pairing them with the framework's deterministic library
    /// manifests ([`FrameworkBundle::from_images`]).
    ///
    /// Zero-copy: each unique content hash is read (and hash-checked)
    /// at most once per handle; every image for that hash — within one
    /// load and across repeat loads — shares the same buffer, so a
    /// second `load_bundle` costs refcount bumps, not I/O.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingEntry`] for a deleted object,
    /// [`StoreError::HashMismatch`] naming the corrupted library, and
    /// [`NegativaError::Workload`] if the stored set no longer matches
    /// the framework's roster.
    pub fn load_bundle(&self) -> Result<Vec<GeneratedLibrary>> {
        let mut images = Vec::with_capacity(self.manifest.entries.len());
        for entry in &self.manifest.entries {
            let bytes = self.object_bytes(entry)?;
            images.push(ElfImage::from_shared_bytes(entry.soname.clone(), bytes));
        }
        let bundle = FrameworkBundle::from_images(self.manifest.key.framework, images)
            .map_err(NegativaError::Workload)?;
        Ok(bundle.into_libraries())
    }

    /// One object's bytes through the per-hash cache: a cached hash is
    /// served as another reference to the already-checked buffer (no
    /// read, no re-hash); a cold one is read, hash-checked, and cached.
    fn object_bytes(&self, entry: &ManifestEntry) -> Result<Arc<Vec<u8>>> {
        let mut cache = self.objects.lock().expect("store object cache poisoned");
        if let Some(bytes) = cache.get(&entry.content_hash) {
            return Ok(bytes.clone());
        }
        let bytes = Arc::new(self.read_entry(
            &entry.soname,
            &entry.object_path(),
            entry.content_hash,
            Some(entry.byte_len),
        )?);
        cache.insert(entry.content_hash, bytes.clone());
        Ok(bytes)
    }

    /// The packaging correctness contract, reproduced from stored
    /// bytes: check the plan's content hash, load the bundle (every
    /// library hash checked), and re-run **every** contributing
    /// workload on the stored bytes under the default [`RunConfig`],
    /// demanding each reproduce the baseline checksum the manifest
    /// recorded at publish time. The manifest must record that same
    /// configuration — checksums measured under another would be
    /// incomparable.
    ///
    /// # Errors
    ///
    /// [`StoreError::ConfigMismatch`] before anything runs; integrity
    /// failures as [`StoredArtifact::load_bundle`] /
    /// [`StoredArtifact::load_plan`]; behavioral failures as
    /// [`NegativaError::ChecksumMismatch`] /
    /// [`NegativaError::OverCompaction`] naming the first workload the
    /// stored bundle breaks.
    pub fn verify(&self) -> Result<StoreVerification> {
        let config = RunConfig::default();
        let provided = default_config_fingerprint();
        if provided != self.manifest.key.config {
            return Err(
                StoreError::ConfigMismatch { stored: self.manifest.key.config, provided }.into()
            );
        }
        // Integrity first: plan hash, then every library hash.
        self.load_plan()?;
        let libraries = self.load_bundle()?;
        let indexes = cached_indexes(self.manifest.key.framework);
        let mut workloads = Vec::with_capacity(self.manifest.workloads.len());
        for record in &self.manifest.workloads {
            let outcome = verify_indexed(
                &record.workload,
                &libraries,
                Some(&indexes),
                record.baseline_checksum,
                &config,
            )?;
            workloads.push(VerifiedWorkload {
                label: record.label.clone(),
                baseline_checksum: record.baseline_checksum,
                verified_checksum: outcome.checksum,
            });
        }
        Ok(StoreVerification { workloads })
    }

    /// Read one stored file through the transport and check its
    /// content hash — after a length gate when the manifest recorded
    /// one, so truncation surfaces as the specific
    /// [`StoreError::TruncatedObject`] rather than a generic hash
    /// mismatch.
    fn read_entry(
        &self,
        entry: &str,
        relative: &str,
        expected: u64,
        expected_len: Option<u64>,
    ) -> Result<Vec<u8>> {
        let bytes = match self.source.fetch(relative) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => {
                return Err(StoreError::MissingEntry {
                    entry: entry.to_owned(),
                    path: self.source.describe(relative),
                }
                .into())
            }
            Err(e) => {
                return Err(StoreError::Io {
                    path: self.source.describe(relative),
                    detail: e.to_string(),
                }
                .into())
            }
        };
        if let Some(expected_len) = expected_len {
            if bytes.len() as u64 != expected_len {
                return Err(StoreError::TruncatedObject {
                    entry: entry.to_owned(),
                    expected_len,
                    actual_len: bytes.len() as u64,
                }
                .into());
            }
        }
        let actual = content_hash(&bytes);
        if actual != expected {
            return Err(
                StoreError::HashMismatch { entry: entry.to_owned(), expected, actual }.into()
            );
        }
        Ok(bytes)
    }
}

/// Record of one workload's cold re-verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedWorkload {
    /// Workload label.
    pub label: String,
    /// The checksum the manifest recorded at publish time.
    pub baseline_checksum: u64,
    /// The checksum the stored bundle just reproduced.
    pub verified_checksum: u64,
}

/// The result of [`StoredArtifact::verify`]: one record per
/// contributing workload, all reproduced from a cold open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreVerification {
    /// Per-workload verification records, in manifest order.
    pub workloads: Vec<VerifiedWorkload>,
}

impl StoreVerification {
    /// True if every workload reproduced its recorded baseline
    /// checksum. Always true for results [`StoredArtifact::verify`]
    /// returns — a mismatch aborts with a typed error — but recorded
    /// per workload so callers can audit the guarantee.
    pub fn all_verified(&self) -> bool {
        self.workloads.iter().all(|w| w.baseline_checksum == w.verified_checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_errors_display_their_cause() {
        let e =
            StoreError::HashMismatch { entry: "libtorch_cuda.so".into(), expected: 1, actual: 2 };
        let msg = e.to_string();
        assert!(msg.contains("libtorch_cuda.so"), "{msg}");
        assert!(msg.contains("0x0000000000000001"), "{msg}");

        let e = StoreError::ConfigMismatch { stored: 0xab, provided: 0xcd };
        assert!(e.to_string().contains("0x00000000000000ab"), "{e}");

        let wrapped = NegativaError::from(StoreError::MissingManifest { path: "/x".into() });
        assert!(wrapped.to_string().contains("no artifact manifest"), "{wrapped}");
    }

    #[test]
    fn verification_report_audits_per_workload() {
        let ok = StoreVerification {
            workloads: vec![VerifiedWorkload {
                label: "PyTorch/Train/MobileNetV2".into(),
                baseline_checksum: 7,
                verified_checksum: 7,
            }],
        };
        assert!(ok.all_verified());
        let mut broken = ok.clone();
        broken.workloads[0].verified_checksum = 8;
        assert!(!broken.all_verified());
    }
}
