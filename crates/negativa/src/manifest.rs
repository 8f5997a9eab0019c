//! The on-disk schema of a registry root, encoded/decoded through the
//! shared [`crate::codec`]:
//!
//! ```text
//! <root>/
//!   REGISTRY.json            versioned, self-hashed index of every artifact
//!   manifests/<id>.json      one versioned, self-hashed manifest per artifact
//!   objects/<hash>.bin       the shared pool: compacted libraries and encoded
//!                            plans (`plan.json`), one file per content hash
//! ```
//!
//! A manifest is *content-addressed*: every library entry carries the
//! XXH64 digest of its exact stored bytes ([`crate::codec::content_hash`]),
//! which doubles as the object file name; the plan is pinned the
//! same way through [`StoreManifest::plan_hash`]. The manifest protects
//! itself with an embedded **self-hash**: the digest of the manifest
//! bytes rendered with the `manifest_hash` field zeroed, spliced into
//! the fixed-width placeholder afterwards. Any single-byte corruption
//! of the file therefore fails decoding — either the JSON no longer
//! parses, or the recomputed self-hash no longer matches.
//!
//! All 64-bit identities (hashes, checksums, fingerprints, nanosecond
//! counters, byte offsets) are stored as fixed-width hex strings
//! ([`crate::codec::JsonValue::u64`]) because a JSON `f64` cannot carry
//! them losslessly; small counts are plain numbers. Decoding is strict:
//! a missing or mistyped field is an error naming the field, never a
//! default.

use fatbin::{FleetSpec, SmArch};
use simcuda::{GpuModel, LoadMode};
use simelf::FileRange;
use simml::{Dataset, FrameworkKind, ModelKind, Operation, Workload, WorkloadMetrics};

use crate::codec::{content_hash, JsonValue};
use crate::locate::{ElementRewrite, LocateStats, RetainPlan, RewriteKind};
use crate::plan::{BundlePlan, PlanKey, WorkloadBaseline};
use crate::report::LibraryReport;

/// On-disk format version of artifact manifests and plans. Bumped on
/// any incompatible schema change; decoding rejects other versions.
///
/// **v2** replaced the single `arch` scalar with a `fleet` array (the
/// set of architectures one artifact serves), added the in-place
/// element `rewrites` to each retain plan, and the
/// `bytes_sliced_arch` / `bytes_sliced_compressed` /
/// `compressed_rewritten` counters to each library entry.
///
/// **v3** moved every content address (object names, `plan_hash`, the
/// self-hash) from FNV-1a to XXH64 ([`crate::codec::content_hash`]);
/// the schema is otherwise v2's. Older manifests are rejected by the
/// version gate — checked before the self-hash — with a typed
/// "unsupported manifest format version" error, never a self-hash
/// mismatch or a missing-field parse error. They must be re-published.
pub const FORMAT_VERSION: u32 = 3;

/// Name of the serialized [`BundlePlan`] entry: its document name, and
/// the entry typed errors name when the plan object fails its checks.
pub const PLAN_FILE: &str = "plan.json";

/// Directory holding the content-addressed pool objects.
pub const OBJECTS_DIR: &str = "objects";

/// File name of the registry tier's self-hashed index at a registry
/// root; see [`crate::registry`].
pub const REGISTRY_FILE: &str = "REGISTRY.json";

/// Directory holding one manifest per artifact at a registry root
/// (`manifests/<artifact-id>.json`), each pinned by its index record's
/// [`RegistryRecord::manifest_hash`].
pub const MANIFESTS_DIR: &str = "manifests";

/// On-disk format version of `REGISTRY.json`. Versioned independently
/// of [`FORMAT_VERSION`]: the index can evolve (new record fields, new
/// GC metadata) without invalidating every artifact manifest it points
/// at. Decoding rejects other versions through the same
/// gate-before-hash-and-schema rule as the manifest.
///
/// **v2** moved the index's self-hash and every object and manifest
/// hash it records from FNV-1a to XXH64. A v1 registry is refused and
/// must be re-published.
pub const REGISTRY_FORMAT_VERSION: u32 = 2;

const HASH_KEY: &str = "manifest_hash";

const REGISTRY_HASH_KEY: &str = "registry_hash";

/// One library of a published bundle: where its bytes live (by content
/// hash) and what compaction did to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Shared object name, in bundle (provider-resolution) order.
    pub soname: String,
    /// XXH64 digest of the stored bytes; also the object file name
    /// (`objects/<hash as 16 hex digits>.bin`).
    pub content_hash: u64,
    /// Exact stored length in bytes.
    pub byte_len: u64,
    /// The reduction stats of this library's compaction.
    pub report: LibraryReport,
}

impl ManifestEntry {
    /// Relative path of this entry's object file within a registry root.
    pub fn object_path(&self) -> String {
        object_path(self.content_hash)
    }
}

/// Relative path of the pool object named by `hash`
/// (`objects/<hash as 16 hex digits>.bin`).
pub(crate) fn object_path(hash: u64) -> String {
    format!("{OBJECTS_DIR}/{hash:016x}.bin")
}

/// One contributing workload: the re-runnable spec plus the baseline
/// checksum out-of-process verification must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    /// The workload, already normalized to the artifact's GPU — running
    /// it on the stored bundle must reproduce `baseline_checksum`.
    pub workload: Workload,
    /// Workload label (e.g. `PyTorch/Train/MobileNetV2`).
    pub label: String,
    /// Output checksum of the baseline run on the *original* bundle.
    pub baseline_checksum: u64,
}

/// The decoded content of an artifact manifest: the artifact's plan
/// identity, its content-addressed library entries, and the workload
/// records verification replays.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreManifest {
    /// On-disk format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Full plan identity of the published debloat; its
    /// [`PlanKey::artifact_id`] names the artifact in a registry.
    pub key: PlanKey,
    /// GPU the debloat targeted.
    pub gpu: GpuModel,
    /// Content hash of the encoded plan (`plan.json`), which names its
    /// pool object.
    pub plan_hash: u64,
    /// Distinct kernels in the union usage.
    pub used_kernels: usize,
    /// Distinct host functions in the union usage.
    pub used_host_fns: usize,
    /// One entry per library, in bundle order.
    pub entries: Vec<ManifestEntry>,
    /// One record per contributing workload, in workload order.
    pub workloads: Vec<WorkloadRecord>,
}

impl StoreManifest {
    /// Encode to the exact manifest bytes, embedding the
    /// self-hash: the file is rendered with a zeroed `manifest_hash`,
    /// hashed, and the digest spliced into the fixed-width placeholder
    /// (offsets never move).
    pub fn encode(&self) -> String {
        let mut text = self.to_json(0).render();
        text.push('\n');
        let hash = content_hash(text.as_bytes());
        text.replacen(&hash_field(0), &hash_field(hash), 1)
    }

    /// Decode and integrity-check manifest bytes: parse, check
    /// the format version, and verify the embedded self-hash against
    /// the file content.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation (syntax,
    /// unsupported version, missing/mistyped field, or self-hash
    /// mismatch) — the caller wraps it in a typed
    /// [`crate::store::StoreError::CorruptManifest`].
    pub fn decode(text: &str) -> Result<StoreManifest, String> {
        let doc = JsonValue::parse(text)?;
        // Version gate first: an older manifest was self-hashed with
        // another digest and must report "unsupported version", not a
        // false "the file was modified"; a future one must not trip
        // whatever missing-field error its changed schema hits first.
        let version = get_usize(&doc, "format_version")? as u32;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported manifest format version {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        let stored_hash =
            doc.get(HASH_KEY).and_then(JsonValue::as_u64).ok_or_else(|| missing(HASH_KEY))?;
        let stamped = hash_field(stored_hash);
        if !text.contains(&stamped) {
            return Err(format!("{HASH_KEY} field is not in canonical fixed-width form"));
        }
        let restored = text.replacen(&stamped, &hash_field(0), 1);
        let actual = content_hash(restored.as_bytes());
        if actual != stored_hash {
            return Err(format!(
                "manifest self-hash mismatch: stored {stored_hash:#018x}, content hashes to \
                 {actual:#018x} — the file was modified after publishing"
            ));
        }
        Self::from_json(&doc)
    }

    fn to_json(&self, self_hash: u64) -> JsonValue {
        JsonValue::Object(vec![
            ("format_version".into(), JsonValue::int(self.version as u64)),
            (HASH_KEY.into(), JsonValue::u64(self_hash)),
            ("framework".into(), JsonValue::Text(self.key.framework.name().into())),
            ("gpu".into(), JsonValue::Text(gpu_name(self.gpu).into())),
            (
                "fleet".into(),
                JsonValue::Array(
                    self.key.fleet.members().iter().map(|a| JsonValue::int(a.0 as u64)).collect(),
                ),
            ),
            ("workloads_fingerprint".into(), JsonValue::u64(self.key.workloads)),
            ("config_fingerprint".into(), JsonValue::u64(self.key.config)),
            ("plan_hash".into(), JsonValue::u64(self.plan_hash)),
            ("used_kernels".into(), JsonValue::int(self.used_kernels as u64)),
            ("used_host_fns".into(), JsonValue::int(self.used_host_fns as u64)),
            (
                "libraries".into(),
                JsonValue::Array(self.entries.iter().map(entry_to_json).collect()),
            ),
            (
                "workloads".into(),
                JsonValue::Array(self.workloads.iter().map(record_to_json).collect()),
            ),
        ])
    }

    fn from_json(doc: &JsonValue) -> Result<StoreManifest, String> {
        let framework = parse_framework(get_str(doc, "framework")?)?;
        let archs = get_array(doc, "fleet")?
            .iter()
            .map(|v| {
                v.as_usize()
                    .map(|a| SmArch(a as u32))
                    .ok_or_else(|| mistyped("fleet", "architecture number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let fleet = FleetSpec::new(&archs)
            .map_err(|_| format!("fleet must name 1..={} architectures", FleetSpec::MAX_MEMBERS))?;
        let key = PlanKey {
            framework,
            fleet,
            workloads: get_u64(doc, "workloads_fingerprint")?,
            config: get_u64(doc, "config_fingerprint")?,
        };
        let entries = get_array(doc, "libraries")?
            .iter()
            .map(entry_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let workloads = get_array(doc, "workloads")?
            .iter()
            .map(record_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StoreManifest {
            version: get_usize(doc, "format_version")? as u32,
            key,
            gpu: parse_gpu(get_str(doc, "gpu")?)?,
            plan_hash: get_u64(doc, "plan_hash")?,
            used_kernels: get_usize(doc, "used_kernels")?,
            used_host_fns: get_usize(doc, "used_host_fns")?,
            entries,
            workloads,
        })
    }
}

fn hash_field(hash: u64) -> String {
    format!("\"{HASH_KEY}\": \"{hash:#018x}\"")
}

/// One object in a registry's shared pool, as referenced by an index
/// record: the content hash that names the pool file and the exact
/// length presence checks verify against (the object-reuse rule of
/// [`crate::store`], applied across artifacts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRef {
    /// XXH64 digest of the object bytes; also the pool file name.
    pub hash: u64,
    /// Exact stored length in bytes.
    pub byte_len: u64,
}

impl ObjectRef {
    /// Relative path of this object within a registry root
    /// (`objects/<hash as 16 hex digits>.bin`).
    pub fn object_path(&self) -> String {
        object_path(self.hash)
    }
}

/// One artifact in a registry index: its identity, the hash pinning its
/// manifest file, its plan object, its library objects, and when it was
/// published — the clock [`crate::registry::Registry::expire`] ages
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryRecord {
    /// [`crate::plan::PlanKey::artifact_id`] — the record's lookup key
    /// and its manifest's file stem under [`MANIFESTS_DIR`].
    pub artifact_id: String,
    /// Content hash of the artifact's encoded manifest bytes,
    /// pinning exactly which manifest file the index points at.
    pub manifest_hash: u64,
    /// The serialized plan's object in the shared pool — plans are
    /// content-addressed and refcounted exactly like libraries.
    pub plan: ObjectRef,
    /// Nanoseconds since the Unix epoch at publish (or install) time.
    pub published_ns: u64,
    /// The artifact's library objects, in bundle order.
    pub objects: Vec<ObjectRef>,
}

impl RegistryRecord {
    /// Every pool object this record keeps alive: the plan first, then
    /// the libraries in bundle order — the reference set the registry's
    /// refcounting GC and want-list exchange both walk.
    pub fn referenced(&self) -> impl Iterator<Item = &ObjectRef> {
        std::iter::once(&self.plan).chain(self.objects.iter())
    }
}

/// The decoded content of `REGISTRY.json`: every live artifact of one
/// registry root. Self-hashed and version-gated exactly like
/// [`StoreManifest`], and written last (atomically) by every mutation,
/// so a torn publish or install never leaves an index pointing at
/// missing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryIndex {
    /// On-disk format version ([`REGISTRY_FORMAT_VERSION`]).
    pub version: u32,
    /// Live artifact records, in first-published order.
    pub records: Vec<RegistryRecord>,
}

impl RegistryIndex {
    /// An index holding no artifacts — what a fresh registry root reads
    /// as before anything is published.
    pub fn empty() -> RegistryIndex {
        RegistryIndex { version: REGISTRY_FORMAT_VERSION, records: Vec::new() }
    }

    /// The live record for `artifact_id`, if any.
    pub fn find(&self, artifact_id: &str) -> Option<&RegistryRecord> {
        self.records.iter().find(|record| record.artifact_id == artifact_id)
    }

    /// Encode to the exact `REGISTRY.json` bytes, embedding the
    /// self-hash through the same zero-render-splice scheme as
    /// [`StoreManifest::encode`].
    pub fn encode(&self) -> String {
        let mut text = self.to_json(0).render();
        text.push('\n');
        let hash = content_hash(text.as_bytes());
        text.replacen(&registry_hash_field(0), &registry_hash_field(hash), 1)
    }

    /// Decode and integrity-check `REGISTRY.json` bytes: parse, gate
    /// the format version, then verify the embedded self-hash — an
    /// index of another version reports "unsupported version", never a
    /// self-hash mismatch or a missing-field error.
    ///
    /// # Errors
    ///
    /// A description of the first violation; the registry wraps it in
    /// [`crate::store::StoreError::CorruptIndex`].
    pub fn decode(text: &str) -> Result<RegistryIndex, String> {
        let doc = JsonValue::parse(text)?;
        let version = get_usize(&doc, "format_version")? as u32;
        if version != REGISTRY_FORMAT_VERSION {
            return Err(format!(
                "unsupported registry index format version {version} (this build reads \
                 {REGISTRY_FORMAT_VERSION})"
            ));
        }
        let stored_hash = doc
            .get(REGISTRY_HASH_KEY)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| missing(REGISTRY_HASH_KEY))?;
        let stamped = registry_hash_field(stored_hash);
        if !text.contains(&stamped) {
            return Err(format!("{REGISTRY_HASH_KEY} field is not in canonical fixed-width form"));
        }
        let restored = text.replacen(&stamped, &registry_hash_field(0), 1);
        let actual = content_hash(restored.as_bytes());
        if actual != stored_hash {
            return Err(format!(
                "registry index self-hash mismatch: stored {stored_hash:#018x}, content hashes \
                 to {actual:#018x} — the file was modified after it was written"
            ));
        }
        Ok(RegistryIndex {
            version,
            records: get_array(&doc, "artifacts")?
                .iter()
                .map(registry_record_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    fn to_json(&self, self_hash: u64) -> JsonValue {
        JsonValue::Object(vec![
            ("format_version".into(), JsonValue::int(self.version as u64)),
            (REGISTRY_HASH_KEY.into(), JsonValue::u64(self_hash)),
            (
                "artifacts".into(),
                JsonValue::Array(self.records.iter().map(registry_record_to_json).collect()),
            ),
        ])
    }
}

fn registry_hash_field(hash: u64) -> String {
    format!("\"{REGISTRY_HASH_KEY}\": \"{hash:#018x}\"")
}

fn registry_record_to_json(record: &RegistryRecord) -> JsonValue {
    JsonValue::Object(vec![
        ("artifact_id".into(), JsonValue::Text(record.artifact_id.clone())),
        ("manifest_hash".into(), JsonValue::u64(record.manifest_hash)),
        ("plan_hash".into(), JsonValue::u64(record.plan.hash)),
        ("plan_len".into(), JsonValue::u64(record.plan.byte_len)),
        ("published_ns".into(), JsonValue::u64(record.published_ns)),
        ("objects".into(), JsonValue::Array(record.objects.iter().map(object_to_json).collect())),
    ])
}

fn registry_record_from_json(doc: &JsonValue) -> Result<RegistryRecord, String> {
    Ok(RegistryRecord {
        artifact_id: get_str(doc, "artifact_id")?.to_owned(),
        manifest_hash: get_u64(doc, "manifest_hash")?,
        plan: ObjectRef { hash: get_u64(doc, "plan_hash")?, byte_len: get_u64(doc, "plan_len")? },
        published_ns: get_u64(doc, "published_ns")?,
        objects: get_array(doc, "objects")?
            .iter()
            .map(object_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn object_to_json(object: &ObjectRef) -> JsonValue {
    JsonValue::Object(vec![
        ("hash".into(), JsonValue::u64(object.hash)),
        ("byte_len".into(), JsonValue::u64(object.byte_len)),
    ])
}

fn object_from_json(doc: &JsonValue) -> Result<ObjectRef, String> {
    Ok(ObjectRef { hash: get_u64(doc, "hash")?, byte_len: get_u64(doc, "byte_len")? })
}

/// Encode a [`BundlePlan`] to the exact `plan.json` bytes.
pub fn encode_plan(plan: &BundlePlan) -> String {
    let mut text = plan_to_json(plan).render();
    text.push('\n');
    text
}

/// Decode `plan.json` bytes back to the [`BundlePlan`] they were
/// encoded from — field-for-field identical to the in-memory original.
///
/// # Errors
///
/// A description of the first syntax or schema violation; the caller
/// wraps it in [`crate::store::StoreError::CorruptPlan`].
pub fn decode_plan(text: &str) -> Result<BundlePlan, String> {
    let doc = JsonValue::parse(text)?;
    let version = get_usize(&doc, "format_version")? as u32;
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported plan format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    Ok(BundlePlan {
        framework: parse_framework(get_str(&doc, "framework")?)?,
        gpu: parse_gpu(get_str(&doc, "gpu")?)?,
        usage_fingerprint: get_u64(&doc, "usage_fingerprint")?,
        retain: get_array(&doc, "retain")?
            .iter()
            .map(retain_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        baselines: get_array(&doc, "baselines")?
            .iter()
            .map(baseline_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        used_kernels: get_usize(&doc, "used_kernels")?,
        used_host_fns: get_usize(&doc, "used_host_fns")?,
    })
}

fn plan_to_json(plan: &BundlePlan) -> JsonValue {
    JsonValue::Object(vec![
        ("format_version".into(), JsonValue::int(FORMAT_VERSION as u64)),
        ("framework".into(), JsonValue::Text(plan.framework.name().into())),
        ("gpu".into(), JsonValue::Text(gpu_name(plan.gpu).into())),
        ("usage_fingerprint".into(), JsonValue::u64(plan.usage_fingerprint)),
        ("used_kernels".into(), JsonValue::int(plan.used_kernels as u64)),
        ("used_host_fns".into(), JsonValue::int(plan.used_host_fns as u64)),
        ("retain".into(), JsonValue::Array(plan.retain.iter().map(retain_to_json).collect())),
        (
            "baselines".into(),
            JsonValue::Array(plan.baselines.iter().map(baseline_to_json).collect()),
        ),
    ])
}

fn entry_to_json(entry: &ManifestEntry) -> JsonValue {
    let r = &entry.report;
    JsonValue::Object(vec![
        ("soname".into(), JsonValue::Text(entry.soname.clone())),
        ("content_hash".into(), JsonValue::u64(entry.content_hash)),
        ("byte_len".into(), JsonValue::u64(entry.byte_len)),
        ("file_before".into(), JsonValue::u64(r.file_before)),
        ("file_after".into(), JsonValue::u64(r.file_after)),
        ("host_before".into(), JsonValue::u64(r.host_before)),
        ("host_after".into(), JsonValue::u64(r.host_after)),
        ("device_before".into(), JsonValue::u64(r.device_before)),
        ("device_after".into(), JsonValue::u64(r.device_after)),
        ("total_functions".into(), JsonValue::int(r.total_functions as u64)),
        ("used_functions".into(), JsonValue::int(r.used_functions as u64)),
        ("total_elements".into(), JsonValue::int(r.total_elements as u64)),
        ("kept_elements".into(), JsonValue::int(r.kept_elements as u64)),
        ("bytes_copied".into(), JsonValue::u64(r.bytes_copied)),
        ("bytes_shared".into(), JsonValue::u64(r.bytes_shared)),
        ("bytes_sliced_arch".into(), JsonValue::u64(r.bytes_sliced_arch)),
        ("bytes_sliced_compressed".into(), JsonValue::u64(r.bytes_sliced_compressed)),
        ("compressed_rewritten".into(), JsonValue::u64(r.compressed_rewritten)),
    ])
}

fn entry_from_json(doc: &JsonValue) -> Result<ManifestEntry, String> {
    let soname = get_str(doc, "soname")?.to_owned();
    let report = LibraryReport {
        soname: soname.clone(),
        file_before: get_u64(doc, "file_before")?,
        file_after: get_u64(doc, "file_after")?,
        host_before: get_u64(doc, "host_before")?,
        host_after: get_u64(doc, "host_after")?,
        device_before: get_u64(doc, "device_before")?,
        device_after: get_u64(doc, "device_after")?,
        total_functions: get_usize(doc, "total_functions")?,
        used_functions: get_usize(doc, "used_functions")?,
        total_elements: get_usize(doc, "total_elements")?,
        kept_elements: get_usize(doc, "kept_elements")?,
        bytes_copied: get_u64(doc, "bytes_copied")?,
        bytes_shared: get_u64(doc, "bytes_shared")?,
        bytes_sliced_arch: get_u64(doc, "bytes_sliced_arch")?,
        bytes_sliced_compressed: get_u64(doc, "bytes_sliced_compressed")?,
        compressed_rewritten: get_u64(doc, "compressed_rewritten")?,
    };
    Ok(ManifestEntry {
        soname,
        content_hash: get_u64(doc, "content_hash")?,
        byte_len: get_u64(doc, "byte_len")?,
        report,
    })
}

fn record_to_json(record: &WorkloadRecord) -> JsonValue {
    JsonValue::Object(vec![
        ("label".into(), JsonValue::Text(record.label.clone())),
        ("baseline_checksum".into(), JsonValue::u64(record.baseline_checksum)),
        ("workload".into(), workload_to_json(&record.workload)),
    ])
}

fn record_from_json(doc: &JsonValue) -> Result<WorkloadRecord, String> {
    Ok(WorkloadRecord {
        workload: workload_from_json(doc.get("workload").ok_or_else(|| missing("workload"))?)?,
        label: get_str(doc, "label")?.to_owned(),
        baseline_checksum: get_u64(doc, "baseline_checksum")?,
    })
}

fn workload_to_json(w: &Workload) -> JsonValue {
    JsonValue::Object(vec![
        ("framework".into(), JsonValue::Text(w.framework.name().into())),
        ("model".into(), model_to_json(&w.model)),
        ("operation".into(), JsonValue::Text(w.operation.name().into())),
        ("dataset".into(), JsonValue::Text(dataset_name(w.dataset).into())),
        ("batch_size".into(), JsonValue::int(w.batch_size as u64)),
        ("epochs".into(), JsonValue::int(w.epochs as u64)),
        ("inference_steps".into(), JsonValue::int(w.inference_steps as u64)),
        (
            "devices".into(),
            JsonValue::Array(
                w.devices.iter().map(|&d| JsonValue::Text(gpu_name(d).into())).collect(),
            ),
        ),
        ("load_mode".into(), JsonValue::Text(load_mode_name(w.load_mode).into())),
    ])
}

fn workload_from_json(doc: &JsonValue) -> Result<Workload, String> {
    Ok(Workload {
        framework: parse_framework(get_str(doc, "framework")?)?,
        model: model_from_json(doc.get("model").ok_or_else(|| missing("model"))?)?,
        operation: parse_operation(get_str(doc, "operation")?)?,
        dataset: parse_dataset(get_str(doc, "dataset")?)?,
        batch_size: get_usize(doc, "batch_size")? as u32,
        epochs: get_usize(doc, "epochs")? as u32,
        inference_steps: get_usize(doc, "inference_steps")? as u32,
        devices: get_array(doc, "devices")?
            .iter()
            .map(|d| parse_gpu(d.as_str().ok_or_else(|| mistyped("devices", "string"))?))
            .collect::<Result<Vec<_>, _>>()?,
        load_mode: parse_load_mode(get_str(doc, "load_mode")?)?,
    })
}

fn model_to_json(model: &ModelKind) -> JsonValue {
    match model {
        ModelKind::MobileNetV2 => JsonValue::Text("MobileNetV2".into()),
        ModelKind::Transformer => JsonValue::Text("Transformer".into()),
        ModelKind::Llama2 => JsonValue::Text("Llama2".into()),
        ModelKind::LeaderboardLlm { name, billions } => JsonValue::Object(vec![
            ("leaderboard".into(), JsonValue::Text(name.clone())),
            ("billions".into(), JsonValue::Number(*billions)),
        ]),
        // The upstream enums are #[non_exhaustive]; a variant added
        // without a name table entry must fail loudly at publish time,
        // never serialize as something else.
        other => unreachable!("model {other:?} has no manifest v{FORMAT_VERSION} encoding"),
    }
}

fn model_from_json(doc: &JsonValue) -> Result<ModelKind, String> {
    match doc {
        JsonValue::Text(name) => match name.as_str() {
            "MobileNetV2" => Ok(ModelKind::MobileNetV2),
            "Transformer" => Ok(ModelKind::Transformer),
            "Llama2" => Ok(ModelKind::Llama2),
            other => Err(format!("unknown model kind {other:?}")),
        },
        JsonValue::Object(_) => Ok(ModelKind::LeaderboardLlm {
            name: get_str(doc, "leaderboard")?.to_owned(),
            billions: doc
                .get("billions")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| missing("billions"))?,
        }),
        _ => Err("model must be a name or a leaderboard object".into()),
    }
}

fn baseline_to_json(base: &WorkloadBaseline) -> JsonValue {
    JsonValue::Object(vec![
        ("label".into(), JsonValue::Text(base.label.clone())),
        ("checksum".into(), JsonValue::u64(base.checksum)),
        ("baseline".into(), metrics_to_json(&base.baseline)),
        ("detection".into(), metrics_to_json(&base.detection)),
    ])
}

fn baseline_from_json(doc: &JsonValue) -> Result<WorkloadBaseline, String> {
    Ok(WorkloadBaseline {
        label: get_str(doc, "label")?.to_owned(),
        checksum: get_u64(doc, "checksum")?,
        baseline: metrics_from_json(doc.get("baseline").ok_or_else(|| missing("baseline"))?)?,
        detection: metrics_from_json(doc.get("detection").ok_or_else(|| missing("detection"))?)?,
    })
}

fn metrics_to_json(m: &WorkloadMetrics) -> JsonValue {
    JsonValue::Object(vec![
        ("elapsed_ns".into(), JsonValue::u64(m.elapsed_ns)),
        ("load_ns".into(), JsonValue::u64(m.load_ns)),
        ("peak_host_bytes".into(), JsonValue::u64(m.peak_host_bytes)),
        (
            "peak_device_bytes".into(),
            JsonValue::Array(m.peak_device_bytes.iter().map(|&b| JsonValue::u64(b)).collect()),
        ),
        ("launches".into(), JsonValue::u64(m.launches)),
        ("host_calls".into(), JsonValue::u64(m.host_calls)),
        ("get_function_calls".into(), JsonValue::u64(m.get_function_calls)),
        ("gpu_code_bytes".into(), JsonValue::u64(m.gpu_code_bytes)),
    ])
}

fn metrics_from_json(doc: &JsonValue) -> Result<WorkloadMetrics, String> {
    Ok(WorkloadMetrics {
        elapsed_ns: get_u64(doc, "elapsed_ns")?,
        load_ns: get_u64(doc, "load_ns")?,
        peak_host_bytes: get_u64(doc, "peak_host_bytes")?,
        peak_device_bytes: get_array(doc, "peak_device_bytes")?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| mistyped("peak_device_bytes", "u64 hex")))
            .collect::<Result<Vec<_>, _>>()?,
        launches: get_u64(doc, "launches")?,
        host_calls: get_u64(doc, "host_calls")?,
        get_function_calls: get_u64(doc, "get_function_calls")?,
        gpu_code_bytes: get_u64(doc, "gpu_code_bytes")?,
    })
}

fn retain_to_json(plan: &RetainPlan) -> JsonValue {
    JsonValue::Object(vec![
        ("soname".into(), JsonValue::Text(plan.soname.clone())),
        ("text_range".into(), opt_range_to_json(plan.text_range)),
        ("fatbin_range".into(), opt_range_to_json(plan.fatbin_range)),
        ("zero_host".into(), ranges_to_json(&plan.zero_host)),
        ("zero_device".into(), ranges_to_json(&plan.zero_device)),
        ("rewrites".into(), JsonValue::Array(plan.rewrites.iter().map(rewrite_to_json).collect())),
        ("total_functions".into(), JsonValue::int(plan.stats.total_functions as u64)),
        ("used_functions".into(), JsonValue::int(plan.stats.used_functions as u64)),
        ("total_elements".into(), JsonValue::int(plan.stats.total_elements as u64)),
        ("kept_elements".into(), JsonValue::int(plan.stats.kept_elements as u64)),
    ])
}

fn retain_from_json(doc: &JsonValue) -> Result<RetainPlan, String> {
    Ok(RetainPlan {
        soname: get_str(doc, "soname")?.to_owned(),
        text_range: opt_range_from_json(
            doc.get("text_range").ok_or_else(|| missing("text_range"))?,
        )?,
        fatbin_range: opt_range_from_json(
            doc.get("fatbin_range").ok_or_else(|| missing("fatbin_range"))?,
        )?,
        zero_host: ranges_from_json(get_array(doc, "zero_host")?)?,
        zero_device: ranges_from_json(get_array(doc, "zero_device")?)?,
        rewrites: get_array(doc, "rewrites")?
            .iter()
            .map(rewrite_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        stats: LocateStats {
            total_functions: get_usize(doc, "total_functions")?,
            used_functions: get_usize(doc, "used_functions")?,
            total_elements: get_usize(doc, "total_elements")?,
            kept_elements: get_usize(doc, "kept_elements")?,
        },
    })
}

fn rewrite_to_json(r: &ElementRewrite) -> JsonValue {
    let mut fields = vec![
        ("index".into(), JsonValue::int(r.index as u64)),
        ("flags_offset".into(), JsonValue::u64(r.flags_offset)),
        ("payload_range".into(), range_to_json(r.payload_range)),
    ];
    match &r.kind {
        RewriteKind::ArchSlice => {
            fields.push(("kind".into(), JsonValue::Text("arch_slice".into())));
        }
        RewriteKind::CompressedSlice { uncompressed_size, used_kernels } => {
            fields.push(("kind".into(), JsonValue::Text("compressed_slice".into())));
            fields.push(("uncompressed_size".into(), JsonValue::u64(*uncompressed_size)));
            fields.push((
                "used_kernels".into(),
                JsonValue::Array(used_kernels.iter().map(|k| JsonValue::Text(k.clone())).collect()),
            ));
        }
    }
    JsonValue::Object(fields)
}

fn rewrite_from_json(doc: &JsonValue) -> Result<ElementRewrite, String> {
    let kind = match get_str(doc, "kind")? {
        "arch_slice" => RewriteKind::ArchSlice,
        "compressed_slice" => RewriteKind::CompressedSlice {
            uncompressed_size: get_u64(doc, "uncompressed_size")?,
            used_kernels: get_array(doc, "used_kernels")?
                .iter()
                .map(|k| {
                    k.as_str().map(str::to_owned).ok_or_else(|| mistyped("used_kernels", "string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        },
        other => return Err(format!("unknown rewrite kind {other:?}")),
    };
    Ok(ElementRewrite {
        index: get_usize(doc, "index")? as u32,
        flags_offset: get_u64(doc, "flags_offset")?,
        payload_range: range_from_json(
            doc.get("payload_range").ok_or_else(|| missing("payload_range"))?,
        )?,
        kind,
    })
}

fn opt_range_to_json(range: Option<FileRange>) -> JsonValue {
    match range {
        None => JsonValue::Null,
        Some(r) => range_to_json(r),
    }
}

fn opt_range_from_json(doc: &JsonValue) -> Result<Option<FileRange>, String> {
    match doc {
        JsonValue::Null => Ok(None),
        other => range_from_json(other).map(Some),
    }
}

fn range_to_json(r: FileRange) -> JsonValue {
    JsonValue::Object(vec![
        ("start".into(), JsonValue::u64(r.start)),
        ("end".into(), JsonValue::u64(r.end)),
    ])
}

fn range_from_json(doc: &JsonValue) -> Result<FileRange, String> {
    let start = get_u64(doc, "start")?;
    let end = get_u64(doc, "end")?;
    if start > end {
        return Err(format!("invalid file range: start {start:#x} > end {end:#x}"));
    }
    Ok(FileRange { start, end })
}

fn ranges_to_json(ranges: &[FileRange]) -> JsonValue {
    JsonValue::Array(ranges.iter().map(|&r| range_to_json(r)).collect())
}

fn ranges_from_json(items: &[JsonValue]) -> Result<Vec<FileRange>, String> {
    items.iter().map(range_from_json).collect()
}

// ---- enum name tables (explicit, so serialization never drifts with
// ---- Debug formatting) ---------------------------------------------

/// The manifest's stable name of a GPU model (its bare display name,
/// without the architecture suffix).
pub fn gpu_name(gpu: GpuModel) -> &'static str {
    match gpu {
        GpuModel::V100 => "V100",
        GpuModel::T4 => "T4",
        GpuModel::A10 => "A10",
        GpuModel::A100 => "A100",
        GpuModel::L4 => "L4",
        GpuModel::H100 => "H100",
        other => unreachable!("GPU {other:?} has no manifest v{FORMAT_VERSION} encoding"),
    }
}

fn parse_gpu(name: &str) -> Result<GpuModel, String> {
    match name {
        "V100" => Ok(GpuModel::V100),
        "T4" => Ok(GpuModel::T4),
        "A10" => Ok(GpuModel::A10),
        "A100" => Ok(GpuModel::A100),
        "L4" => Ok(GpuModel::L4),
        "H100" => Ok(GpuModel::H100),
        other => Err(format!("unknown GPU model {other:?}")),
    }
}

fn parse_framework(name: &str) -> Result<FrameworkKind, String> {
    match name {
        "PyTorch" => Ok(FrameworkKind::PyTorch),
        "TensorFlow" => Ok(FrameworkKind::TensorFlow),
        "vLLM" => Ok(FrameworkKind::Vllm),
        "Transformers" => Ok(FrameworkKind::Transformers),
        other => Err(format!("unknown framework {other:?}")),
    }
}

fn parse_operation(name: &str) -> Result<Operation, String> {
    match name {
        "Train" => Ok(Operation::Train),
        "Inference" => Ok(Operation::Inference),
        other => Err(format!("unknown operation {other:?}")),
    }
}

fn dataset_name(dataset: Dataset) -> &'static str {
    match dataset {
        Dataset::Cifar10Train => "Cifar10Train",
        Dataset::Cifar10Test => "Cifar10Test",
        Dataset::Multi30kTrain => "Multi30kTrain",
        Dataset::Multi30kTest => "Multi30kTest",
        Dataset::Wmt14Train => "Wmt14Train",
        Dataset::Wmt14Test => "Wmt14Test",
        Dataset::ManualPrompt => "ManualPrompt",
        other => unreachable!("dataset {other:?} has no manifest v{FORMAT_VERSION} encoding"),
    }
}

fn parse_dataset(name: &str) -> Result<Dataset, String> {
    match name {
        "Cifar10Train" => Ok(Dataset::Cifar10Train),
        "Cifar10Test" => Ok(Dataset::Cifar10Test),
        "Multi30kTrain" => Ok(Dataset::Multi30kTrain),
        "Multi30kTest" => Ok(Dataset::Multi30kTest),
        "Wmt14Train" => Ok(Dataset::Wmt14Train),
        "Wmt14Test" => Ok(Dataset::Wmt14Test),
        "ManualPrompt" => Ok(Dataset::ManualPrompt),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

fn load_mode_name(mode: LoadMode) -> &'static str {
    match mode {
        LoadMode::Eager => "Eager",
        LoadMode::Lazy => "Lazy",
    }
}

fn parse_load_mode(name: &str) -> Result<LoadMode, String> {
    match name {
        "Eager" => Ok(LoadMode::Eager),
        "Lazy" => Ok(LoadMode::Lazy),
        other => Err(format!("unknown load mode {other:?}")),
    }
}

// ---- strict field accessors ----------------------------------------

fn missing(key: &str) -> String {
    format!("missing required field {key:?}")
}

fn mistyped(key: &str, wanted: &str) -> String {
    format!("field {key:?} must be a {wanted}")
}

fn get_str<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    doc.get(key).ok_or_else(|| missing(key))?.as_str().ok_or_else(|| mistyped(key, "string"))
}

fn get_u64(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key).ok_or_else(|| missing(key))?.as_u64().ok_or_else(|| mistyped(key, "u64 hex"))
}

fn get_usize(doc: &JsonValue, key: &str) -> Result<usize, String> {
    doc.get(key)
        .ok_or_else(|| missing(key))?
        .as_usize()
        .ok_or_else(|| mistyped(key, "non-negative integer"))
}

fn get_array<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    doc.get(key).ok_or_else(|| missing(key))?.as_array().ok_or_else(|| mistyped(key, "array"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simml::Operation;

    fn sample_plan() -> BundlePlan {
        BundlePlan {
            framework: FrameworkKind::PyTorch,
            gpu: GpuModel::T4,
            usage_fingerprint: u64::MAX - 3,
            retain: vec![RetainPlan {
                soname: "libtorch_cuda.so".into(),
                text_range: Some(FileRange { start: 0x1000, end: 0x9000 }),
                fatbin_range: None,
                zero_host: vec![FileRange { start: 0x1100, end: 0x1200 }],
                zero_device: Vec::new(),
                rewrites: vec![
                    ElementRewrite {
                        index: 3,
                        flags_offset: 0x2003,
                        payload_range: FileRange { start: 0x2020, end: 0x2420 },
                        kind: RewriteKind::ArchSlice,
                    },
                    ElementRewrite {
                        index: 5,
                        flags_offset: 0x3003,
                        payload_range: FileRange { start: 0x3020, end: 0x3820 },
                        kind: RewriteKind::CompressedSlice {
                            uncompressed_size: 0x1000,
                            used_kernels: vec!["gemm".into(), "softmax".into()],
                        },
                    },
                ],
                stats: LocateStats {
                    total_functions: 120,
                    used_functions: 7,
                    total_elements: 40,
                    kept_elements: 2,
                },
            }],
            baselines: vec![WorkloadBaseline {
                label: "PyTorch/Train/MobileNetV2".into(),
                checksum: 0xdead_beef_dead_beef,
                baseline: WorkloadMetrics {
                    elapsed_ns: (1 << 60) + 3,
                    load_ns: 42,
                    peak_host_bytes: 1 << 30,
                    peak_device_bytes: vec![7, u64::MAX],
                    launches: 10,
                    host_calls: 5,
                    get_function_calls: 2,
                    gpu_code_bytes: 100,
                },
                detection: WorkloadMetrics::default(),
            }],
            used_kernels: 12,
            used_host_fns: 34,
        }
    }

    fn sample_manifest() -> StoreManifest {
        let mut workload = Workload::paper(
            FrameworkKind::PyTorch,
            simml::ModelKind::MobileNetV2,
            Operation::Train,
        );
        workload.devices = vec![GpuModel::T4, GpuModel::T4];
        StoreManifest {
            version: FORMAT_VERSION,
            key: PlanKey {
                framework: FrameworkKind::PyTorch,
                fleet: FleetSpec::new(&[SmArch::SM75, SmArch::SM80, SmArch::SM90])
                    .expect("three distinct architectures form a fleet"),
                workloads: 0xaaaa_bbbb_cccc_dddd,
                config: 0x1111_2222_3333_4444,
            },
            gpu: GpuModel::T4,
            plan_hash: 0x5555_6666_7777_8888,
            used_kernels: 12,
            used_host_fns: 34,
            entries: vec![ManifestEntry {
                soname: "libtorch_cuda.so".into(),
                content_hash: 0x9999_aaaa_bbbb_cccc,
                byte_len: 4_000_000,
                report: LibraryReport {
                    soname: "libtorch_cuda.so".into(),
                    file_before: 4_000_000,
                    file_after: 1_500_000,
                    host_before: 900_000,
                    host_after: 200_000,
                    device_before: 2_000_000,
                    device_after: 800_000,
                    total_functions: 120,
                    used_functions: 7,
                    total_elements: 40,
                    kept_elements: 2,
                    bytes_copied: 4_000_000,
                    bytes_shared: 0,
                    bytes_sliced_arch: 300_000,
                    bytes_sliced_compressed: 45_000,
                    compressed_rewritten: 3,
                },
            }],
            workloads: vec![WorkloadRecord {
                label: workload.label(),
                baseline_checksum: 0xfeed_f00d_feed_f00d,
                workload,
            }],
        }
    }

    #[test]
    fn manifest_round_trips_exactly() {
        let manifest = sample_manifest();
        let text = manifest.encode();
        let decoded = StoreManifest::decode(&text).expect("encoded manifest decodes");
        assert_eq!(decoded, manifest);
        assert_eq!(decoded.encode(), text, "re-encoding is byte-stable");
        assert_eq!(decoded.entries[0].object_path(), "objects/9999aaaabbbbcccc.bin");
    }

    #[test]
    fn any_single_byte_manifest_flip_is_detected() {
        let text = sample_manifest().encode();
        let bytes = text.as_bytes();
        // Exhaustive: flip every byte position in turn — every mutation
        // must fail decoding (parse error or self-hash mismatch).
        for at in 0..bytes.len() {
            let mut broken = bytes.to_vec();
            broken[at] ^= 0x01;
            let Ok(corrupted) = String::from_utf8(broken) else { continue };
            assert!(
                StoreManifest::decode(&corrupted).is_err(),
                "flipping byte {at} ({:?}) went undetected",
                bytes[at] as char
            );
        }
    }

    #[test]
    fn plan_round_trips_exactly() {
        let plan = sample_plan();
        let text = encode_plan(&plan);
        let decoded = decode_plan(&text).expect("encoded plan decodes");
        assert_eq!(decoded, plan, "every field survives, including >2^53 u64s");
    }

    #[test]
    fn leaderboard_models_and_every_enum_round_trip() {
        let mut w =
            Workload::paper(FrameworkKind::Vllm, simml::ModelKind::Llama2, Operation::Inference);
        w.model = simml::ModelKind::LeaderboardLlm {
            name: "llama_3_70b_instruct".into(),
            billions: 70.6,
        };
        w.devices = vec![GpuModel::A100; 8];
        w.load_mode = LoadMode::Lazy;
        let doc = workload_to_json(&w);
        let back = workload_from_json(&doc).expect("workload decodes");
        assert_eq!(back, w);
        for gpu in [
            GpuModel::V100,
            GpuModel::T4,
            GpuModel::A10,
            GpuModel::A100,
            GpuModel::L4,
            GpuModel::H100,
        ] {
            assert_eq!(parse_gpu(gpu_name(gpu)).unwrap(), gpu);
        }
    }

    /// The FNV-1a digest earlier builds stamped as the self-hash of v1
    /// and v2 manifests and of v1 registry indexes — kept here only to
    /// reproduce those files byte for byte.
    fn legacy_fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash: u64, &b| {
            (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Re-stamp an edited file's self-hash field (`field(hash)` renders
    /// it under `key`) with `digest` over the zeroed rendering — what a
    /// writer using that digest would have produced.
    fn restamp_self_hash(
        text: &str,
        key: &str,
        field: fn(u64) -> String,
        digest: fn(&[u8]) -> u64,
    ) -> String {
        let mut text = text.to_owned();
        let hash_start = text.find(&format!("\"{key}\":")).expect("self-hash field present");
        text.replace_range(hash_start..hash_start + field(0).len(), &field(0));
        let rehashed = digest(text.as_bytes());
        text.replacen(&field(0), &field(rehashed), 1)
    }

    #[test]
    fn v1_manifests_fail_with_the_version_error_not_a_parse_error() {
        // Reconstruct what earlier publishers wrote, self-hash included:
        // v1 carried the old scalar `arch` field instead of the `fleet`
        // array, v2 had today's schema; both stamped an FNV-1a
        // self-hash. Only the version gate may object, and it must fire
        // before the self-hash check (which would call the file
        // modified) and before schema decoding (which would trip over
        // missing fields).
        let current = format!("\"format_version\": {FORMAT_VERSION}");
        for version in [1, 2] {
            let mut old = sample_manifest().encode().replacen(
                &current,
                &format!("\"format_version\": {version}"),
                1,
            );
            if version == 1 {
                let fleet_start = old.find("\"fleet\":").expect("manifests carry a fleet field");
                let fleet_end =
                    fleet_start + old[fleet_start..].find(']').expect("fleet is an array") + 1;
                old.replace_range(fleet_start..fleet_end, "\"arch\": 75");
            }
            let old = restamp_self_hash(&old, HASH_KEY, hash_field, legacy_fnv1a);

            let err = StoreManifest::decode(&old).unwrap_err();
            assert!(
                err.contains(&format!("unsupported manifest format version {version}")),
                "v{version} must hit the version gate, got: {err}"
            );
            assert!(err.contains(&format!("this build reads {FORMAT_VERSION}")), "{err}");
            assert!(!err.contains("self-hash mismatch"), "{err}");
            assert!(!err.contains("missing required field"), "{err}");
        }
    }

    fn sample_index() -> RegistryIndex {
        RegistryIndex {
            version: REGISTRY_FORMAT_VERSION,
            records: vec![
                RegistryRecord {
                    artifact_id: "torch-sm75-0000000000000abc-0000000000000000".into(),
                    manifest_hash: 0x1234_5678_9abc_def0,
                    plan: ObjectRef { hash: 0x0f0f_0f0f_0f0f_0f0f, byte_len: 4321 },
                    published_ns: u64::MAX - 17,
                    objects: vec![
                        ObjectRef { hash: 0x9999_aaaa_bbbb_cccc, byte_len: 4_000_000 },
                        ObjectRef { hash: 0x1111_2222_3333_4444, byte_len: 2_500_000 },
                    ],
                },
                RegistryRecord {
                    artifact_id: "tf-sm75x80-0000000000000def-0000000000000001".into(),
                    manifest_hash: 7,
                    plan: ObjectRef { hash: 8, byte_len: 9 },
                    published_ns: 0,
                    objects: vec![ObjectRef { hash: 0x9999_aaaa_bbbb_cccc, byte_len: 4_000_000 }],
                },
            ],
        }
    }

    #[test]
    fn registry_index_round_trips_exactly() {
        let index = sample_index();
        let text = index.encode();
        let decoded = RegistryIndex::decode(&text).expect("encoded index decodes");
        assert_eq!(decoded, index);
        assert_eq!(decoded.encode(), text, "re-encoding is byte-stable");
        let record = decoded.find("torch-sm75-0000000000000abc-0000000000000000").unwrap();
        assert_eq!(record.objects[0].object_path(), "objects/9999aaaabbbbcccc.bin");
        assert_eq!(
            record.referenced().count(),
            3,
            "a record references its plan object plus every library object"
        );
        assert!(decoded.find("missing-id").is_none());

        let empty = RegistryIndex::empty();
        let decoded = RegistryIndex::decode(&empty.encode()).unwrap();
        assert!(decoded.records.is_empty());
    }

    #[test]
    fn any_single_byte_registry_index_flip_is_detected() {
        let text = sample_index().encode();
        let bytes = text.as_bytes();
        for at in 0..bytes.len() {
            let mut broken = bytes.to_vec();
            broken[at] ^= 0x01;
            let Ok(corrupted) = String::from_utf8(broken) else { continue };
            assert!(
                RegistryIndex::decode(&corrupted).is_err(),
                "flipping index byte {at} ({:?}) went undetected",
                bytes[at] as char
            );
        }
    }

    #[test]
    fn registry_index_versions_are_gated_before_schema_decoding() {
        // A future-version index with a correctly spliced self-hash and
        // a record shape this build has never seen: only the version
        // gate may object, and it must fire before any field decoding.
        let mut next = sample_index().encode();
        next = next.replacen(
            &format!("\"format_version\": {REGISTRY_FORMAT_VERSION}"),
            &format!("\"format_version\": {}", REGISTRY_FORMAT_VERSION + 1),
            1,
        );
        next = next.replacen("\"artifact_id\"", "\"artifact_ref\"", 1);
        let next = restamp_self_hash(&next, REGISTRY_HASH_KEY, registry_hash_field, content_hash);

        let err = RegistryIndex::decode(&next).unwrap_err();
        assert!(
            err.contains(&format!(
                "unsupported registry index format version {}",
                REGISTRY_FORMAT_VERSION + 1
            )),
            "future versions must hit the gate, got: {err}"
        );
        assert!(!err.contains("missing required field"), "{err}");

        // A v1 index as earlier builds wrote it, FNV-1a self-hash and
        // all: the gate must also fire before the self-hash check,
        // which would otherwise call the file modified.
        let old = sample_index().encode().replacen(
            &format!("\"format_version\": {REGISTRY_FORMAT_VERSION}"),
            "\"format_version\": 1",
            1,
        );
        let old = restamp_self_hash(&old, REGISTRY_HASH_KEY, registry_hash_field, legacy_fnv1a);
        let err = RegistryIndex::decode(&old).unwrap_err();
        assert!(
            err.contains("unsupported registry index format version 1"),
            "a v1 index must hit the version gate, got: {err}"
        );
        assert!(err.contains(&format!("this build reads {REGISTRY_FORMAT_VERSION}")), "{err}");
        assert!(!err.contains("self-hash mismatch"), "{err}");
    }

    #[test]
    fn decoding_rejects_missing_fields_and_bad_versions() {
        let manifest = sample_manifest();
        let text = manifest.encode();
        let err =
            StoreManifest::decode(&text.replace("\"plan_hash\"", "\"plan_hashes\"")).unwrap_err();
        // The renamed key also breaks the self-hash; whichever fires
        // first, decoding must fail loudly.
        assert!(!err.is_empty());

        let mut old = manifest.clone();
        old.version = FORMAT_VERSION + 1;
        let err = StoreManifest::decode(&old.encode()).unwrap_err();
        assert!(err.contains("version"), "{err}");

        let plan_text = encode_plan(&sample_plan());
        let err = decode_plan(&plan_text.replace("\"retain\"", "\"unretain\"")).unwrap_err();
        assert!(err.contains("retain"), "{err}");
    }
}
