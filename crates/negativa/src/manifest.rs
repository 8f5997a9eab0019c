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
//! Each persisted type declares its fields **once**, in key order, in
//! one `json_record!` list: `"json_name" => field` for a field of its
//! own, or `"json_name" => local = nested.field` for a field the JSON
//! flattens out of a nested struct (the declaration then ends with the
//! constructor that reassembles it). Both directions of the codec are
//! derived from that list, and each field's Rust type picks its
//! encoding through the private `Json` trait:
//! - `u64` (hashes, checksums, fingerprints, nanosecond counters, byte
//!   offsets) → a fixed-width hex string ([`crate::codec::JsonValue::u64`]),
//!   because a JSON `f64` cannot carry it losslessly;
//! - `u32` / `usize` (small counts) → a plain number, range-checked on
//!   decode, so an out-of-range value is an error, never a truncation;
//! - `String` → a string, `Vec<T>` → an array, `Option<T>` → `null` or
//!   the value;
//! - the GPU, framework, operation, dataset and load-mode enums → one
//!   name table each (`json_names!`), never their `Debug` form.
//!
//! Decoding is strict: a missing or mistyped field is an error naming
//! the field, never a default.

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
pub(crate) const PLAN_FILE: &str = "plan.json";

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
        stamp_self_hash(self.to_json(), HASH_KEY)
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
    pub(crate) fn decode(text: &str) -> Result<StoreManifest, String> {
        let doc = parse_self_hashed(text, "manifest", FORMAT_VERSION, HASH_KEY)?;
        Self::from_json(&doc, "manifest")
    }
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
        stamp_self_hash(self.to_json(), REGISTRY_HASH_KEY)
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
    pub(crate) fn decode(text: &str) -> Result<RegistryIndex, String> {
        let doc =
            parse_self_hashed(text, "registry index", REGISTRY_FORMAT_VERSION, REGISTRY_HASH_KEY)?;
        Self::from_json(&doc, REGISTRY_FILE)
    }
}

/// Encode a [`BundlePlan`] to the exact `plan.json` bytes.
pub(crate) fn encode_plan(plan: &BundlePlan) -> String {
    let version = JsonValue::int(FORMAT_VERSION.into());
    let mut text = with_field(plan.to_json(), 0, "format_version", version).render();
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
pub(crate) fn decode_plan(text: &str) -> Result<BundlePlan, String> {
    let doc = JsonValue::parse(text)?;
    gate_version(&doc, "plan", FORMAT_VERSION)?;
    BundlePlan::from_json(&doc, PLAN_FILE)
}

/// Refuse a document whose `format_version` is not `version`. This runs
/// first, ahead of the self-hash and the schema: an older file was
/// self-hashed with another digest and must report "unsupported
/// version", not a false "the file was modified", and a newer one must
/// not trip whatever missing-field error its changed schema hits first.
/// The version is read at full width, so 2^32 + 3 is not version 3.
fn gate_version(doc: &JsonValue, what: &str, version: u32) -> Result<(), String> {
    let found: usize = field(doc, "format_version")?;
    if found != version as usize {
        return Err(format!(
            "unsupported {what} format version {found} (this build reads {version})"
        ));
    }
    Ok(())
}

/// Parse a self-hashed document (a manifest or the registry index): gate
/// its version, then check the digest stamped under `key` against the
/// file's bytes with that digest zeroed.
fn parse_self_hashed(text: &str, what: &str, version: u32, key: &str) -> Result<JsonValue, String> {
    let doc = JsonValue::parse(text)?;
    gate_version(&doc, what, version)?;
    let stored: u64 = field(&doc, key)?;
    let stamped = self_hash_field(key, stored);
    if !text.contains(&stamped) {
        return Err(format!("{key} field is not in canonical fixed-width form"));
    }
    let actual = content_hash(text.replacen(&stamped, &self_hash_field(key, 0), 1).as_bytes());
    if actual != stored {
        return Err(format!(
            "{what} self-hash mismatch: stored {stored:#018x}, content hashes to {actual:#018x} \
             — the file was modified after it was written"
        ));
    }
    Ok(doc)
}

/// Render `record` with a zeroed self-hash under `key` as its second
/// field, hash those bytes, and splice the digest into the fixed-width
/// placeholder (offsets never move).
fn stamp_self_hash(record: JsonValue, key: &str) -> String {
    let mut text = with_field(record, 1, key, JsonValue::u64(0)).render();
    text.push('\n');
    let hash = content_hash(text.as_bytes());
    text.replacen(&self_hash_field(key, 0), &self_hash_field(key, hash), 1)
}

fn self_hash_field(key: &str, hash: u64) -> String {
    format!("\"{key}\": \"{hash:#018x}\"")
}

/// `record` (an object) with `key: value` spliced in at position `at` —
/// how the self-hash placeholders and the plan's version join the
/// declared fields.
fn with_field(record: JsonValue, at: usize, key: &str, value: JsonValue) -> JsonValue {
    let JsonValue::Object(mut fields) = record else { unreachable!("records encode to objects") };
    fields.insert(at, (key.into(), value));
    JsonValue::Object(fields)
}

// ---- the codec: one leaf trait, one field list per record -----------

/// How one Rust type is written into and read back from a JSON value.
trait Json: Sized {
    fn to_json(&self) -> JsonValue;

    /// Decode `value`; `key` names the field it came from, for errors.
    fn from_json(value: &JsonValue, key: &str) -> Result<Self, String>;
}

/// The member `key` of object `doc`, decoded as its Rust type says.
fn field<T: Json>(doc: &JsonValue, key: &str) -> Result<T, String> {
    T::from_json(doc.get(key).ok_or_else(|| missing(key))?, key)
}

fn missing(key: &str) -> String {
    format!("missing required field {key:?}")
}

fn mistyped(key: &str, wanted: &str) -> String {
    format!("field {key:?} must be a {wanted}")
}

impl Json for u64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::u64(*self)
    }

    /// Only the hex string the encoder writes: `as_u64` alone would
    /// also read a plain number below 2^53.
    fn from_json(value: &JsonValue, key: &str) -> Result<Self, String> {
        match value {
            JsonValue::Text(_) => value.as_u64(),
            _ => None,
        }
        .ok_or_else(|| mistyped(key, "u64 hex"))
    }
}

/// Small counts: a plain JSON number on the way out; on the way in, an
/// exact non-negative number that fits the field's own type.
macro_rules! json_ints {
    ($($int:ty),*) => {$(
        impl Json for $int {
            fn to_json(&self) -> JsonValue {
                JsonValue::int(*self as u64)
            }

            fn from_json(value: &JsonValue, key: &str) -> Result<Self, String> {
                match value {
                    JsonValue::Number(_) => value.as_u64(),
                    _ => None,
                }
                .and_then(|n| <$int>::try_from(n).ok())
                .ok_or_else(|| mistyped(key, concat!(stringify!($int), " integer")))
            }
        }
    )*};
}

json_ints!(u32, usize);

impl Json for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Text(self.clone())
    }

    fn from_json(value: &JsonValue, key: &str) -> Result<Self, String> {
        value.as_str().map(str::to_owned).ok_or_else(|| mistyped(key, "string"))
    }
}

impl<T: Json> Json for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Json::to_json).collect())
    }

    fn from_json(value: &JsonValue, key: &str) -> Result<Self, String> {
        let items = value.as_array().ok_or_else(|| mistyped(key, "array"))?;
        items.iter().map(|item| T::from_json(item, key)).collect()
    }
}

impl<T: Json> Json for Option<T> {
    fn to_json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, Json::to_json)
    }

    fn from_json(value: &JsonValue, key: &str) -> Result<Self, String> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::from_json(other, key).map(Some),
        }
    }
}

/// One name table per enum, read in both directions (explicit, so
/// serialization never drifts with `Debug` formatting); in tests it is
/// also the set generated values pick from.
macro_rules! json_names {
    ($($enum:ident ($what:literal) { $($variant:ident => $name:literal),* $(,)? })*) => {$(
        impl Json for $enum {
            fn to_json(&self) -> JsonValue {
                JsonValue::Text(
                    match self {
                        $($enum::$variant => $name,)*
                        // Some upstream enums are #[non_exhaustive]; a
                        // variant added without a table entry must fail
                        // loudly at publish time, never be written as
                        // something else.
                        #[allow(unreachable_patterns)]
                        other => unreachable!(
                            "{other:?} has no manifest v{FORMAT_VERSION} encoding"
                        ),
                    }
                    .into(),
                )
            }

            fn from_json(value: &JsonValue, key: &str) -> Result<Self, String> {
                match value.as_str().ok_or_else(|| mistyped(key, "string"))? {
                    $($name => Ok($enum::$variant),)*
                    other => Err(format!(concat!("unknown ", $what, " {:?}"), other)),
                }
            }
        }

        #[cfg(test)]
        impl crate::arbitrary::Arbitrary for $enum {
            fn arbitrary(g: &mut crate::arbitrary::Gen) -> Self {
                g.pick(&[$($enum::$variant),*])
            }
        }
    )*};
}

json_names! {
    GpuModel("GPU model") {
        V100 => "V100",
        T4 => "T4",
        A10 => "A10",
        A100 => "A100",
        L4 => "L4",
        H100 => "H100",
    }
    FrameworkKind("framework") {
        PyTorch => "PyTorch",
        TensorFlow => "TensorFlow",
        Vllm => "vLLM",
        Transformers => "Transformers",
    }
    Operation("operation") {
        Train => "Train",
        Inference => "Inference",
    }
    Dataset("dataset") {
        Cifar10Train => "Cifar10Train",
        Cifar10Test => "Cifar10Test",
        Multi30kTrain => "Multi30kTrain",
        Multi30kTest => "Multi30kTest",
        Wmt14Train => "Wmt14Train",
        Wmt14Test => "Wmt14Test",
        ManualPrompt => "ManualPrompt",
    }
    LoadMode("load mode") {
        Eager => "Eager",
        Lazy => "Lazy",
    }
}

/// Declare a record's JSON fields once, in key order, and derive both
/// directions of its codec (and, in tests, its value generator).
/// `"key" => field` encodes `self.field`; `"key" => local = a.b`
/// encodes `self.a.b` and decodes it into `local` for the trailing
/// constructor, which a record whose JSON flattens nested structs
/// supplies (`=> Type { .. }`). Without one, every field is its own and
/// decodes straight into `Type { field, .. }`.
macro_rules! json_record {
    (@get $record:ident $local:ident) => { $record.$local };
    (@get $record:ident $local:ident $($path:ident).+) => { $record.$($path).+ };
    (@build $ty:ident { $($local:ident),* }) => { $ty { $($local),* } };
    (@build $ty:ident { $($local:ident),* } $build:expr) => { $build };
    ($ty:ident {
        $($key:literal => $local:ident $(= $($path:ident).+)?),* $(,)?
    } $(=> $build:expr)?) => {
        impl Json for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::Object(vec![$((
                    $key.into(),
                    json_record!(@get self $local $($($path).+)?).to_json(),
                )),*])
            }

            fn from_json(doc: &JsonValue, _: &str) -> Result<Self, String> {
                $(let $local = field(doc, $key)?;)*
                Ok(json_record!(@build $ty { $($local),* } $($build)?))
            }
        }

        #[cfg(test)]
        impl crate::arbitrary::Arbitrary for $ty {
            fn arbitrary(g: &mut crate::arbitrary::Gen) -> Self {
                $(let $local = crate::arbitrary::Arbitrary::arbitrary(g);)*
                json_record!(@build $ty { $($local),* } $($build)?)
            }
        }
    };
}

json_record!(ObjectRef { "hash" => hash, "byte_len" => byte_len });

json_record!(RegistryRecord {
    "artifact_id" => artifact_id,
    "manifest_hash" => manifest_hash,
    "plan_hash" => plan_hash = plan.hash,
    "plan_len" => plan_len = plan.byte_len,
    "published_ns" => published_ns,
    "objects" => objects,
} => RegistryRecord {
    artifact_id,
    manifest_hash,
    plan: ObjectRef { hash: plan_hash, byte_len: plan_len },
    published_ns,
    objects,
});

json_record!(RegistryIndex { "format_version" => version, "artifacts" => records });

json_record!(StoreManifest {
    "format_version" => version,
    "framework" => framework = key.framework,
    "gpu" => gpu,
    "fleet" => fleet = key.fleet,
    "workloads_fingerprint" => workloads_fingerprint = key.workloads,
    "config_fingerprint" => config = key.config,
    "plan_hash" => plan_hash,
    "used_kernels" => used_kernels,
    "used_host_fns" => used_host_fns,
    "libraries" => entries,
    "workloads" => workloads,
} => StoreManifest {
    version,
    key: PlanKey { framework, fleet, workloads: workloads_fingerprint, config },
    gpu,
    plan_hash,
    used_kernels,
    used_host_fns,
    entries,
    workloads,
});

json_record!(ManifestEntry {
    "soname" => soname,
    "content_hash" => content_hash,
    "byte_len" => byte_len,
    "file_before" => file_before = report.file_before,
    "file_after" => file_after = report.file_after,
    "host_before" => host_before = report.host_before,
    "host_after" => host_after = report.host_after,
    "device_before" => device_before = report.device_before,
    "device_after" => device_after = report.device_after,
    "total_functions" => total_functions = report.total_functions,
    "used_functions" => used_functions = report.used_functions,
    "total_elements" => total_elements = report.total_elements,
    "kept_elements" => kept_elements = report.kept_elements,
    "bytes_copied" => bytes_copied = report.bytes_copied,
    "bytes_shared" => bytes_shared = report.bytes_shared,
    "bytes_sliced_arch" => bytes_sliced_arch = report.bytes_sliced_arch,
    "bytes_sliced_compressed" => bytes_sliced_compressed = report.bytes_sliced_compressed,
    "compressed_rewritten" => compressed_rewritten = report.compressed_rewritten,
} => ManifestEntry {
    report: LibraryReport {
        soname: String::clone(&soname),
        file_before,
        file_after,
        host_before,
        host_after,
        device_before,
        device_after,
        total_functions,
        used_functions,
        total_elements,
        kept_elements,
        bytes_copied,
        bytes_shared,
        bytes_sliced_arch,
        bytes_sliced_compressed,
        compressed_rewritten,
    },
    soname,
    content_hash,
    byte_len,
});

json_record!(WorkloadRecord {
    "label" => label,
    "baseline_checksum" => baseline_checksum,
    "workload" => workload,
});

json_record!(Workload {
    "framework" => framework,
    "model" => model,
    "operation" => operation,
    "dataset" => dataset,
    "batch_size" => batch_size,
    "epochs" => epochs,
    "inference_steps" => inference_steps,
    "devices" => devices,
    "load_mode" => load_mode,
});

json_record!(BundlePlan {
    "framework" => framework,
    "gpu" => gpu,
    "usage_fingerprint" => usage_fingerprint,
    "used_kernels" => used_kernels,
    "used_host_fns" => used_host_fns,
    "retain" => retain,
    "baselines" => baselines,
});

json_record!(WorkloadBaseline {
    "label" => label,
    "checksum" => checksum,
    "baseline" => baseline,
    "detection" => detection,
});

json_record!(WorkloadMetrics {
    "elapsed_ns" => elapsed_ns,
    "load_ns" => load_ns,
    "peak_host_bytes" => peak_host_bytes,
    "peak_device_bytes" => peak_device_bytes,
    "launches" => launches,
    "host_calls" => host_calls,
    "get_function_calls" => get_function_calls,
    "gpu_code_bytes" => gpu_code_bytes,
});

json_record!(RetainPlan {
    "soname" => soname,
    "text_range" => text_range,
    "fatbin_range" => fatbin_range,
    "zero_host" => zero_host,
    "zero_device" => zero_device,
    "rewrites" => rewrites,
    "total_functions" => total_functions = stats.total_functions,
    "used_functions" => used_functions = stats.used_functions,
    "total_elements" => total_elements = stats.total_elements,
    "kept_elements" => kept_elements = stats.kept_elements,
} => RetainPlan {
    soname,
    text_range,
    fatbin_range,
    zero_host,
    zero_device,
    rewrites,
    stats: LocateStats { total_functions, used_functions, total_elements, kept_elements },
});

// ---- shapes with one caller each, kept by hand ----------------------

/// A fleet is its architecture numbers, as an array.
impl Json for FleetSpec {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.members().iter().map(|arch| arch.0.to_json()).collect())
    }

    fn from_json(value: &JsonValue, key: &str) -> Result<Self, String> {
        let archs: Vec<SmArch> =
            Vec::<u32>::from_json(value, key)?.into_iter().map(SmArch).collect();
        FleetSpec::new(&archs)
            .map_err(|_| format!("fleet must name 1..={} architectures", FleetSpec::MAX_MEMBERS))
    }
}

/// A paper model is its name; a leaderboard model is an object.
impl Json for ModelKind {
    fn to_json(&self) -> JsonValue {
        match self {
            ModelKind::MobileNetV2 => JsonValue::Text("MobileNetV2".into()),
            ModelKind::Transformer => JsonValue::Text("Transformer".into()),
            ModelKind::Llama2 => JsonValue::Text("Llama2".into()),
            ModelKind::LeaderboardLlm { name, billions } => JsonValue::Object(vec![
                ("leaderboard".into(), name.to_json()),
                ("billions".into(), JsonValue::Number(*billions)),
            ]),
            other => unreachable!("model {other:?} has no manifest v{FORMAT_VERSION} encoding"),
        }
    }

    fn from_json(doc: &JsonValue, _: &str) -> Result<Self, String> {
        match doc {
            JsonValue::Text(name) => match name.as_str() {
                "MobileNetV2" => Ok(ModelKind::MobileNetV2),
                "Transformer" => Ok(ModelKind::Transformer),
                "Llama2" => Ok(ModelKind::Llama2),
                other => Err(format!("unknown model kind {other:?}")),
            },
            JsonValue::Object(_) => Ok(ModelKind::LeaderboardLlm {
                name: field(doc, "leaderboard")?,
                billions: doc
                    .get("billions")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| missing("billions"))?,
            }),
            _ => Err("model must be a name or a leaderboard object".into()),
        }
    }
}

/// The rewrite's `kind` tag decides which extra fields follow it.
impl Json for ElementRewrite {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("index".into(), self.index.to_json()),
            ("flags_offset".into(), self.flags_offset.to_json()),
            ("payload_range".into(), self.payload_range.to_json()),
        ];
        match &self.kind {
            RewriteKind::ArchSlice => {
                fields.push(("kind".into(), JsonValue::Text("arch_slice".into())));
            }
            RewriteKind::CompressedSlice { uncompressed_size, used_kernels } => fields.extend([
                ("kind".into(), JsonValue::Text("compressed_slice".into())),
                ("uncompressed_size".into(), uncompressed_size.to_json()),
                ("used_kernels".into(), used_kernels.to_json()),
            ]),
        }
        JsonValue::Object(fields)
    }

    fn from_json(doc: &JsonValue, _: &str) -> Result<Self, String> {
        let kind = match field::<String>(doc, "kind")?.as_str() {
            "arch_slice" => RewriteKind::ArchSlice,
            "compressed_slice" => RewriteKind::CompressedSlice {
                uncompressed_size: field(doc, "uncompressed_size")?,
                used_kernels: field(doc, "used_kernels")?,
            },
            other => return Err(format!("unknown rewrite kind {other:?}")),
        };
        Ok(ElementRewrite {
            index: field(doc, "index")?,
            flags_offset: field(doc, "flags_offset")?,
            payload_range: field(doc, "payload_range")?,
            kind,
        })
    }
}

/// A range is `start`/`end` offsets, and never runs backwards.
impl Json for FileRange {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("start".into(), self.start.to_json()),
            ("end".into(), self.end.to_json()),
        ])
    }

    fn from_json(doc: &JsonValue, _: &str) -> Result<Self, String> {
        let (start, end) = (field(doc, "start")?, field(doc, "end")?);
        if start > end {
            return Err(format!("invalid file range: start {start:#x} > end {end:#x}"));
        }
        Ok(FileRange { start, end })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::{Arbitrary, Gen};

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
        let back = Workload::from_json(&w.to_json(), "workload").expect("workload decodes");
        assert_eq!(back, w);
        for gpu in [
            GpuModel::V100,
            GpuModel::T4,
            GpuModel::A10,
            GpuModel::A100,
            GpuModel::L4,
            GpuModel::H100,
        ] {
            assert_eq!(GpuModel::from_json(&gpu.to_json(), "gpu").unwrap(), gpu);
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

    /// Re-stamp an edited file's self-hash field `key` with `digest`
    /// over the zeroed rendering — what a writer using that digest would
    /// have produced.
    fn restamp_self_hash(text: &str, key: &str, digest: fn(&[u8]) -> u64) -> String {
        let mut text = text.to_owned();
        let hash_start = text.find(&format!("\"{key}\":")).expect("self-hash field present");
        let zeroed = self_hash_field(key, 0);
        text.replace_range(hash_start..hash_start + zeroed.len(), &zeroed);
        let rehashed = digest(text.as_bytes());
        text.replacen(&zeroed, &self_hash_field(key, rehashed), 1)
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
            let old = restamp_self_hash(&old, HASH_KEY, legacy_fnv1a);

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
        let next = restamp_self_hash(&next, REGISTRY_HASH_KEY, content_hash);

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
        let old = restamp_self_hash(&old, REGISTRY_HASH_KEY, legacy_fnv1a);
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

    /// The bytes the encoders wrote for `sample_manifest`, `sample_index`
    /// and `sample_plan` before their codecs were derived from field
    /// lists, kept verbatim: any change to the encoded bytes fails here.
    #[test]
    fn encoders_reproduce_the_pinned_golden_bytes() {
        let manifest = include_str!("../testdata/manifest.json");
        assert_eq!(sample_manifest().encode(), manifest);
        assert_eq!(StoreManifest::decode(manifest).unwrap(), sample_manifest());

        let index = include_str!("../testdata/registry_index.json");
        assert_eq!(sample_index().encode(), index);
        assert_eq!(RegistryIndex::decode(index).unwrap(), sample_index());

        let plan = include_str!("../testdata/plan.json");
        assert_eq!(encode_plan(&sample_plan()), plan);
        assert_eq!(decode_plan(plan).unwrap(), sample_plan());
    }

    #[test]
    fn u32_fields_above_u32_max_fail_instead_of_truncating() {
        // 2^32 + 3 truncates to 3 through `as u32`: a manifest stamped
        // with it must not pass the v3 gate, and a rewrite of element
        // 2^32 + 3 must not become a rewrite of element 3.
        let wide = (1u64 << 32) + 3;
        // `text` with the first number after `"key": ` set to 2^32 + 3.
        let widen = |text: &str, key: &str| {
            let at = text.find(&format!("\"{key}\": ")).expect("field present") + key.len() + 4;
            let at = at + text[at..].find(|c: char| c.is_ascii_digit()).unwrap();
            let len = text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
            let mut text = text.to_owned();
            text.replace_range(at..at + len, &wide.to_string());
            text
        };
        let manifest = sample_manifest().encode();
        let decode = |key| {
            let text = restamp_self_hash(&widen(&manifest, key), HASH_KEY, content_hash);
            StoreManifest::decode(&text).unwrap_err()
        };
        let err = decode("format_version");
        assert!(err.contains(&format!("unsupported manifest format version {wide}")), "{err}");
        // The manifest's other u32 fields: the workload's counts and the
        // fleet's architecture numbers.
        for key in ["batch_size", "epochs", "inference_steps", "fleet"] {
            let err = decode(key);
            assert!(err.contains(&format!("\"{key}\"")) && err.contains("u32"), "{key}: {err}");
        }
        let err = decode_plan(&widen(&encode_plan(&sample_plan()), "index")).unwrap_err();
        assert!(err.contains("\"index\"") && err.contains("u32"), "{err}");
    }

    #[test]
    fn u64_fields_written_as_numbers_are_mistyped_not_accepted() {
        // Every u64 is written as fixed-width hex. A plain number in its
        // place is a mistyped field even behind a valid self-hash, not
        // the hash, checksum or offset 5.
        // `text` with the hex string after `"key": ` replaced by `5`.
        let numeric = |text: &str, key: &str| {
            let at = text.find(&format!("\"{key}\": \"0x")).expect("hex field") + key.len() + 4;
            let len = text[at + 1..].find('"').unwrap() + 2;
            let mut text = text.to_owned();
            text.replace_range(at..at + len, "5");
            text
        };
        let mistyped = |err: String, key: &str| {
            assert!(err.contains(&format!("\"{key}\"")) && err.contains("u64 hex"), "{key}: {err}");
        };
        let manifest = sample_manifest().encode();
        for key in
            ["content_hash", "byte_len", "baseline_checksum", "config_fingerprint", "plan_hash"]
        {
            let text = restamp_self_hash(&numeric(&manifest, key), HASH_KEY, content_hash);
            mistyped(StoreManifest::decode(&text).unwrap_err(), key);
        }
        let index = sample_index().encode();
        let text =
            restamp_self_hash(&numeric(&index, "published_ns"), REGISTRY_HASH_KEY, content_hash);
        mistyped(RegistryIndex::decode(&text).unwrap_err(), "published_ns");
        let plan = encode_plan(&sample_plan());
        mistyped(decode_plan(&numeric(&plan, "start")).unwrap_err(), "start");
        mistyped(decode_plan(&numeric(&plan, "checksum")).unwrap_err(), "checksum");
    }

    #[test]
    fn generated_manifests_indexes_and_plans_round_trip() {
        let mut g = Gen(0x5eed_c0de_cafe_f00d);
        let mut shapes = std::collections::BTreeSet::new();
        for _ in 0..300 {
            let manifest =
                StoreManifest { version: FORMAT_VERSION, ..Arbitrary::arbitrary(&mut g) };
            assert_eq!(StoreManifest::decode(&manifest.encode()).unwrap(), manifest);
            let index =
                RegistryIndex { version: REGISTRY_FORMAT_VERSION, ..Arbitrary::arbitrary(&mut g) };
            assert_eq!(RegistryIndex::decode(&index.encode()).unwrap(), index);
            let plan: BundlePlan = Arbitrary::arbitrary(&mut g);
            assert_eq!(decode_plan(&encode_plan(&plan)).unwrap(), plan);

            for retain in &plan.retain {
                let ranges = [retain.text_range, retain.fatbin_range];
                shapes.extend(ranges.map(|r| if r.is_some() { "a range" } else { "no range" }));
                shapes.extend(retain.rewrites.iter().map(|rewrite| match rewrite.kind {
                    RewriteKind::ArchSlice => "an arch slice",
                    RewriteKind::CompressedSlice { .. } => "a compressed slice",
                }));
            }
            for record in &manifest.workloads {
                if let ModelKind::LeaderboardLlm { .. } = record.workload.model {
                    shapes.insert("a leaderboard model");
                }
            }
            if manifest.entries.is_empty() {
                shapes.insert("an empty list");
            }
            if manifest.key.fleet.members().len() > 1 {
                shapes.insert("a multi-member fleet");
            }
        }
        assert_eq!(shapes.len(), 7, "the generator must produce every shape, got {shapes:?}");
    }
}
