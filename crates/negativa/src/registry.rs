//! The **registry** — the one on-disk format for debloated artifacts:
//! many artifacts over one shared content-addressed object pool, for
//! fleets that *pull* debloated bundles instead of re-running the
//! pipeline per node.
//!
//! A registry root holds any number of artifacts, all drawing on a
//! single `objects/` pool: plans and compacted libraries alike live at
//! `objects/<content-hash>.bin`, each artifact's self-hashed manifest
//! at `manifests/<artifact-id>.json`, and the schema-versioned,
//! self-hashed `REGISTRY.json` index — written last and atomically —
//! maps every live artifact to the object hashes it references. A
//! publish torn before the index landed leaves no consumable record.
//!
//! Everything here is the object-reuse rule (see [`crate::store`]
//! module docs) applied across artifacts:
//!
//! - **Cross-identity dedup** — two fleet artifacts that keep the same
//!   compacted library byte-for-byte share one pool file;
//!   [`Registry::publish`] writes each hash at most once
//!   ([`RegistryStats::objects_deduped`] counts the wins).
//! - **Delta shipping** — [`Registry::push`] / [`Registry::pull`]
//!   first exchange a hash want-list ([`Registry::offer`] →
//!   [`Registry::want`]) and ship only the objects the receiving pool
//!   lacks, so re-publishing after a small roster change moves the
//!   changed objects, never the whole bundle ([`ShipReport`] pins the
//!   split).
//! - **Refcounting GC** — [`Registry::remove`] / [`Registry::expire`]
//!   drop index records, and [`Registry::gc`] deletes a pool object
//!   only when *no* live record references its hash; an expired plan
//!   whose libraries are still referenced by a live artifact loses
//!   nothing.
//!
//! Consumption is [`Registry::open`]: the manifest is read once and
//! checked against its index record, then handed to a
//! [`StoredArtifact`] reading the pool through an [`ObjectSource`], so
//! plan seeding via [`StoredArtifact::install_plan`], bundle loading,
//! and full cold verification all run with every byte content-hash
//! checked. A cold node pulls once, opens, and
//! seeds its [`PlanCache`](crate::plan::PlanCache) with **zero** new
//! detection runs.
//!
//! One registry root assumes one writer at a time (the index is a
//! read-modify-write); concurrent *readers* and same-process clones
//! are fine, and every object write stays atomic (temp + rename).

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use fatbin::{FleetSpec, SmArch};

use crate::codec::content_hash;
use crate::manifest::{
    encode_plan, ObjectRef, RegistryIndex, RegistryRecord, StoreManifest, MANIFESTS_DIR,
    OBJECTS_DIR, REGISTRY_FILE,
};
use crate::store::{
    decode_manifest, display, manifest_for, object_present_at, write_atomic_at, ObjectSource,
    StoreError, StoreVerification, StoredArtifact,
};
use crate::{DebloatArtifact, Result};

/// Cumulative traffic accounting for one [`Registry`] handle (shared
/// across its clones): how much object movement the pool's dedup and
/// the want-list protocol avoided. Snapshot via [`Registry::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Objects newly written into this registry's pool (by
    /// [`Registry::publish`] locally or as the receiving side of a
    /// ship).
    pub objects_pooled: u64,
    /// Bytes those newly pooled objects occupy.
    pub bytes_pooled: u64,
    /// Objects that were already present in the pool under their
    /// content-hash name at the recorded length and therefore were
    /// **not** written again — the cross-artifact dedup wins.
    pub objects_deduped: u64,
    /// Bytes the dedup hits did not rewrite.
    pub bytes_deduped: u64,
    /// Objects this registry shipped to another as the sending side of
    /// [`Registry::push`] (only objects the receiver's want-list asked
    /// for).
    pub objects_shipped: u64,
    /// Bytes actually shipped.
    pub bytes_shipped: u64,
    /// Objects the want-list exchange let a push skip entirely — the
    /// receiver already held them.
    pub objects_delta_skipped: u64,
    /// Bytes the want-list exchange kept off the wire.
    pub bytes_delta_skipped: u64,
    /// Pool objects [`Registry::gc`] deleted because no live index
    /// record referenced their hash.
    pub objects_reclaimed: u64,
    /// Bytes those deletions reclaimed.
    pub bytes_reclaimed: u64,
}

/// The atomics behind [`RegistryStats`], `Arc`-shared across clones.
#[derive(Debug, Default)]
struct RegistryCounters {
    objects_pooled: AtomicU64,
    bytes_pooled: AtomicU64,
    objects_deduped: AtomicU64,
    bytes_deduped: AtomicU64,
    objects_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
    objects_delta_skipped: AtomicU64,
    bytes_delta_skipped: AtomicU64,
    objects_reclaimed: AtomicU64,
    bytes_reclaimed: AtomicU64,
}

impl RegistryCounters {
    fn add(counter: &AtomicU64, amount: u64) {
        counter.fetch_add(amount, Ordering::Relaxed);
    }
}

/// The sending half of the delta-shipping handshake: one artifact's
/// index record, listing every object hash the artifact references.
/// Produced by [`Registry::offer`]; a receiver answers with
/// [`Registry::want`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactOffer {
    /// The offered artifact's index record (identity, manifest hash,
    /// and every referenced object).
    pub record: RegistryRecord,
}

/// The receiving half of the handshake: the subset of an offer's
/// object hashes the receiver's pool does not already hold — the only
/// bytes a push then moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WantList {
    /// References the receiver lacks, in offer order, deduplicated by
    /// hash.
    pub wanted: Vec<ObjectRef>,
}

/// What one [`Registry::push`] / [`Registry::pull`] actually moved:
/// the delta the want-list reduced the transfer to, next to what a
/// full ship would have cost. Object traffic only — the (small)
/// manifest and index writes are not counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipReport {
    /// The shipped artifact's id.
    pub artifact_id: String,
    /// Objects the receiver asked for and got.
    pub objects_shipped: u64,
    /// Bytes those objects cost on the wire.
    pub bytes_shipped: u64,
    /// Objects the receiver already held — skipped entirely.
    pub objects_skipped: u64,
    /// Bytes the want-list kept off the wire.
    pub bytes_skipped: u64,
}

impl ShipReport {
    /// What a full (want-list-less) ship of this artifact would have
    /// moved.
    pub fn full_bytes(&self) -> u64 {
        self.bytes_shipped + self.bytes_skipped
    }
}

/// What one GC sweep (standalone [`Registry::gc`], or the one run by
/// [`Registry::remove`] / [`Registry::expire`]) found in the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Pool objects deleted: no live index record referenced them.
    pub objects_reclaimed: u64,
    /// Bytes reclaimed by those deletions.
    pub bytes_reclaimed: u64,
    /// Pool objects kept: at least one live record still references
    /// each.
    pub objects_live: u64,
}

/// What [`Registry::expire`] did: which records aged out, and what the
/// follow-up GC sweep reclaimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpireReport {
    /// Artifact ids whose records were older than the TTL and were
    /// dropped (their manifests deleted).
    pub expired: Vec<String>,
    /// The refcounting sweep that followed — objects still referenced
    /// by a surviving artifact are *not* reclaimed.
    pub gc: GcReport,
}

/// The one want-list ship loop, shared by [`Registry::push`] and the
/// wire's pull and push: walk `record`'s referenced objects in order,
/// hand each hash in `wanted` to `ship` once, and count every other
/// reference — an object the receiver already holds, or a repeat of a
/// hash already moved — as skipped.
///
/// # Errors
///
/// The first error `ship` returns; nothing after it is moved.
pub(crate) fn ship_wanted(
    record: &RegistryRecord,
    mut wanted: HashSet<u64>,
    mut ship: impl FnMut(&ObjectRef) -> Result<()>,
) -> Result<ShipReport> {
    let mut report = ShipReport {
        artifact_id: record.artifact_id.clone(),
        objects_shipped: 0,
        bytes_shipped: 0,
        objects_skipped: 0,
        bytes_skipped: 0,
    };
    for object in record.referenced() {
        if wanted.remove(&object.hash) {
            ship(object)?;
            report.objects_shipped += 1;
            report.bytes_shipped += object.byte_len;
        } else {
            report.objects_skipped += 1;
            report.bytes_skipped += object.byte_len;
        }
    }
    Ok(report)
}

/// A multi-artifact registry rooted at one directory; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
    counters: Arc<RegistryCounters>,
}

impl Registry {
    /// A registry rooted at `root`. Nothing is touched until the first
    /// publish, pull, or read.
    pub fn at(root: impl Into<PathBuf>) -> Registry {
        Registry { root: root.into(), counters: Arc::new(RegistryCounters::default()) }
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of this handle's cumulative traffic accounting (shared
    /// with its clones).
    pub fn stats(&self) -> RegistryStats {
        let c = &self.counters;
        RegistryStats {
            objects_pooled: c.objects_pooled.load(Ordering::Relaxed),
            bytes_pooled: c.bytes_pooled.load(Ordering::Relaxed),
            objects_deduped: c.objects_deduped.load(Ordering::Relaxed),
            bytes_deduped: c.bytes_deduped.load(Ordering::Relaxed),
            objects_shipped: c.objects_shipped.load(Ordering::Relaxed),
            bytes_shipped: c.bytes_shipped.load(Ordering::Relaxed),
            objects_delta_skipped: c.objects_delta_skipped.load(Ordering::Relaxed),
            bytes_delta_skipped: c.bytes_delta_skipped.load(Ordering::Relaxed),
            objects_reclaimed: c.objects_reclaimed.load(Ordering::Relaxed),
            bytes_reclaimed: c.bytes_reclaimed.load(Ordering::Relaxed),
        }
    }

    /// The decoded, integrity-checked index. A root with no
    /// `REGISTRY.json` yet is an empty registry, not an error.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptIndex`] if the index exists but fails
    /// parsing, its format-version gate, or its self-hash;
    /// [`StoreError::Io`] for filesystem failures.
    pub fn index(&self) -> Result<RegistryIndex> {
        let path = self.root.join(REGISTRY_FILE);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(RegistryIndex::empty()),
            Err(e) => {
                return Err(StoreError::Io { path: display(&path), detail: e.to_string() }.into())
            }
        };
        let text = String::from_utf8(bytes).map_err(|_| StoreError::CorruptIndex {
            path: display(&path),
            detail: "not valid UTF-8".into(),
        })?;
        RegistryIndex::decode(&text)
            .map_err(|detail| StoreError::CorruptIndex { path: display(&path), detail }.into())
    }

    /// Every live artifact record, in index (artifact-id) order.
    ///
    /// # Errors
    ///
    /// As [`Registry::index`].
    pub fn artifacts(&self) -> Result<Vec<RegistryRecord>> {
        Ok(self.index()?.records)
    }

    /// Publish a finished debloat into the pool: every compacted
    /// library and the encoded plan become content-addressed pool
    /// objects (each hash written at most once — a hash another
    /// artifact already pooled is a dedup hit, not a write), the
    /// self-hashed manifest lands under `manifests/`, and the index is
    /// rewritten last, atomically. Re-publishing an id replaces its
    /// record and refreshes its TTL timestamp.
    ///
    /// # Errors
    ///
    /// As [`Registry::index`], plus [`StoreError::Io`] for filesystem
    /// failures.
    pub fn publish(&self, artifact: &DebloatArtifact) -> Result<RegistryRecord> {
        self.ensure_layout()?;
        let plan_text = encode_plan(&artifact.plan);
        let manifest = manifest_for(artifact, &plan_text);
        let mut objects = Vec::with_capacity(manifest.entries.len());
        for (entry, library) in manifest.entries.iter().zip(&artifact.libraries) {
            let object = ObjectRef { hash: entry.content_hash, byte_len: entry.byte_len };
            self.pool_object(&object, library.image.bytes())?;
            objects.push(object);
        }
        let plan = ObjectRef { hash: manifest.plan_hash, byte_len: plan_text.len() as u64 };
        self.pool_object(&plan, plan_text.as_bytes())?;

        let manifest_text = manifest.encode();
        let artifact_id = artifact.key.artifact_id();
        write_atomic_at(&self.root, &manifest_relative(&artifact_id), manifest_text.as_bytes())?;
        let record = RegistryRecord {
            artifact_id,
            manifest_hash: content_hash(manifest_text.as_bytes()),
            plan,
            published_ns: now_ns(),
            objects,
        };
        self.install_record(record.clone())?;
        Ok(record)
    }

    /// Open one pooled artifact for consumption. The manifest is read
    /// once, checked against the index's recorded hash, and decoded
    /// (format version and self-hash); every plan and object read then
    /// goes straight into the pool with full per-read hash checking:
    /// [`StoredArtifact::load_bundle`], [`StoredArtifact::install_plan`]
    /// (cold [`PlanCache`] seeding with zero detections), and
    /// [`StoredArtifact::verify`].
    ///
    /// [`PlanCache`]: crate::plan::PlanCache
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingArtifact`] for an id the index does not
    /// hold, [`StoreError::MissingManifest`] /
    /// [`StoreError::HashMismatch`] for a missing or index-divergent
    /// manifest, [`StoreError::CorruptManifest`] for one failing its
    /// format version or self-hash.
    pub fn open(&self, artifact_id: &str) -> Result<StoredArtifact> {
        let manifest = self.manifest(&self.record(artifact_id)?)?;
        Ok(StoredArtifact::new(Arc::new(RegistrySource { root: self.root.clone() }), manifest))
    }

    /// [`Registry::open`] + [`StoredArtifact::verify`]: full cold
    /// re-verification of one pooled artifact — every hash checked,
    /// every contributing workload re-run against its recorded
    /// baseline checksum.
    ///
    /// # Errors
    ///
    /// As [`Registry::open`] and [`StoredArtifact::verify`].
    pub fn verify(&self, artifact_id: &str) -> Result<StoreVerification> {
        self.open(artifact_id)?.verify()
    }

    /// The sending half of the delta handshake: offer one artifact's
    /// record (identity + referenced hashes) to a prospective
    /// receiver.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingArtifact`] if the index does not hold
    /// `artifact_id`; otherwise as [`Registry::index`].
    pub fn offer(&self, artifact_id: &str) -> Result<ArtifactOffer> {
        Ok(ArtifactOffer { record: self.record(artifact_id)? })
    }

    /// The receiving half: which of an offer's objects this registry's
    /// pool lacks (presence at the recorded length under the hash name
    /// proves content — the object-reuse rule). Pure metadata checks;
    /// nothing is read or written.
    pub fn want(&self, offer: &ArtifactOffer) -> WantList {
        let mut seen = HashSet::new();
        let wanted = offer
            .record
            .referenced()
            .filter(|object| {
                seen.insert(object.hash)
                    && !object_present_at(&self.root, &object.object_path(), object.byte_len)
            })
            .cloned()
            .collect();
        WantList { wanted }
    }

    /// Ship one artifact to `to`: exchange the want-list, move only
    /// the objects `to`'s pool lacks (each hash-checked on read and
    /// installed atomically), then install the manifest and index
    /// record — after presence-verifying every referenced object on
    /// the receiving side, so a torn ship never leaves a consumable
    /// record pointing at missing bytes. Idempotent: a second push of
    /// an unchanged artifact ships zero objects.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingArtifact`] for an id this side no longer
    /// holds, [`StoreError::MissingObject`] naming the first referenced
    /// hash whose pool file is gone (on either side),
    /// [`StoreError::HashMismatch`] for pool bytes that no longer
    /// match their recorded hash, [`StoreError::Io`] for filesystem
    /// failures.
    pub fn push(&self, to: &Registry, artifact_id: &str) -> Result<ShipReport> {
        let offer = self.offer(artifact_id)?;
        let want = to.want(&offer);
        to.ensure_layout()?;
        let wanted = want.wanted.iter().map(|object| object.hash).collect();
        let report = ship_wanted(&offer.record, wanted, |object| {
            let bytes = self.object_bytes(artifact_id, object)?;
            to.pool_object(object, &bytes)?;
            Ok(())
        })?;
        RegistryCounters::add(&self.counters.objects_shipped, report.objects_shipped);
        RegistryCounters::add(&self.counters.bytes_shipped, report.bytes_shipped);
        RegistryCounters::add(&self.counters.objects_delta_skipped, report.objects_skipped);
        RegistryCounters::add(&self.counters.bytes_delta_skipped, report.bytes_skipped);

        // Manifest + record install, in torn-publish-safe order:
        // content first, the consumable record last.
        let manifest_bytes = self.manifest_bytes(&offer.record)?;
        to.install_shipped(&offer.record, &manifest_bytes)?;
        Ok(report)
    }

    /// Receiver-side install of a shipped artifact: presence-verify the
    /// full referenced closure (a torn ship must fail *here*, typed,
    /// rather than leave a consumable record pointing at missing
    /// bytes), then write the manifest and upsert the index record.
    /// Shared by the in-process ship path and the wire server.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingObject`] naming the first referenced hash
    /// absent from this pool; otherwise as [`Registry::index`].
    pub(crate) fn install_shipped(
        &self,
        record: &RegistryRecord,
        manifest_bytes: &[u8],
    ) -> Result<()> {
        let actual = content_hash(manifest_bytes);
        if actual != record.manifest_hash {
            return Err(StoreError::HashMismatch {
                entry: manifest_relative(&record.artifact_id),
                expected: record.manifest_hash,
                actual,
            }
            .into());
        }
        for object in record.referenced() {
            if !object_present_at(&self.root, &object.object_path(), object.byte_len) {
                return Err(StoreError::MissingObject {
                    artifact_id: record.artifact_id.clone(),
                    hash: object.hash,
                }
                .into());
            }
        }
        self.ensure_layout()?;
        write_atomic_at(&self.root, &manifest_relative(&record.artifact_id), manifest_bytes)?;
        self.install_record(record.clone())
    }

    /// One artifact's manifest bytes, hash-checked against its index
    /// record — what a ship (local or wire) sends alongside the
    /// objects, and what [`Registry::open`] decodes.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingManifest`] if the manifest file is gone,
    /// [`StoreError::HashMismatch`] if it diverged from the record.
    pub(crate) fn manifest_bytes(&self, record: &RegistryRecord) -> Result<Vec<u8>> {
        let relative = manifest_relative(&record.artifact_id);
        let path = self.root.join(&relative);
        let manifest_bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(StoreError::MissingManifest { path: display(&path) }.into())
            }
            Err(e) => {
                return Err(StoreError::Io { path: display(&path), detail: e.to_string() }.into())
            }
        };
        let actual = content_hash(&manifest_bytes);
        if actual != record.manifest_hash {
            return Err(StoreError::HashMismatch {
                entry: relative,
                expected: record.manifest_hash,
                actual,
            }
            .into());
        }
        Ok(manifest_bytes)
    }

    /// Compatibility-keyed lookup: the **best** indexed artifact whose
    /// fleet runs on a GPU of architecture `arch` — most recently
    /// published first, smaller fleet breaking ties (a tighter artifact
    /// carries less dead SASS for this node), artifact id as the final
    /// deterministic tie-break. This is what lets a node stop naming
    /// artifact ids: it asks for "whatever currently serves my arch"
    /// ([`FleetSpec::runs_on`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoCompatibleArtifact`] if no live record's fleet
    /// serves `arch`; otherwise as [`Registry::index`] (plus manifest
    /// read/decode failures — fleet membership lives in the manifest's
    /// plan key).
    pub fn resolve(&self, arch: SmArch) -> Result<RegistryRecord> {
        let mut best: Option<(u64, usize, RegistryRecord)> = None;
        for record in self.index()?.records {
            let fleet = self.record_fleet(&record)?;
            if !fleet.runs_on(arch) {
                continue;
            }
            let candidate = (record.published_ns, fleet.len(), record);
            best = Some(match best.take() {
                None => candidate,
                Some(current) => {
                    let newer = candidate.0 > current.0
                        || (candidate.0 == current.0
                            && (candidate.1 < current.1
                                || (candidate.1 == current.1
                                    && candidate.2.artifact_id < current.2.artifact_id)));
                    if newer {
                        candidate
                    } else {
                        current
                    }
                }
            });
        }
        match best {
            Some((_, _, record)) => Ok(record),
            None => Err(StoreError::NoCompatibleArtifact {
                arch: arch.to_string(),
                registry: display(&self.root),
            }
            .into()),
        }
    }

    /// The fleet one record's artifact was compacted for, out of its
    /// manifest's plan key (the index record itself only carries the
    /// object references).
    fn record_fleet(&self, record: &RegistryRecord) -> Result<FleetSpec> {
        Ok(self.manifest(record)?.key.fleet)
    }

    /// One record's manifest: read once, checked against the record's
    /// hash, then decoded (format version and self-hash).
    fn manifest(&self, record: &RegistryRecord) -> Result<StoreManifest> {
        let bytes = self.manifest_bytes(record)?;
        decode_manifest(bytes, display(&self.root.join(manifest_relative(&record.artifact_id))))
    }

    /// [`Registry::push`] from the receiver's point of view: pull
    /// `artifact_id` out of `from` into this registry's pool.
    ///
    /// # Errors
    ///
    /// As [`Registry::push`].
    pub fn pull(&self, from: &Registry, artifact_id: &str) -> Result<ShipReport> {
        from.push(self, artifact_id)
    }

    /// Drop one artifact's record and manifest, then run the
    /// refcounting sweep: objects the removed artifact referenced
    /// *exclusively* are reclaimed; objects any surviving artifact
    /// still references are kept.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingArtifact`] if the index does not hold
    /// `artifact_id`; otherwise as [`Registry::index`] /
    /// [`Registry::gc`].
    pub fn remove(&self, artifact_id: &str) -> Result<GcReport> {
        let mut index = self.index()?;
        let before = index.records.len();
        index.records.retain(|record| record.artifact_id != artifact_id);
        if index.records.len() == before {
            return Err(StoreError::MissingArtifact {
                artifact_id: artifact_id.to_owned(),
                registry: display(&self.root),
            }
            .into());
        }
        self.write_index(&index)?;
        fs::remove_file(self.root.join(manifest_relative(artifact_id))).ok();
        self.gc()
    }

    /// Expire every record whose publish timestamp is older than
    /// `ttl`, then run the refcounting sweep. A record's timestamp
    /// refreshes on republish, so a hot identity never ages out — and
    /// an expired plan's objects survive as long as *any* live
    /// artifact still references them.
    ///
    /// # Errors
    ///
    /// As [`Registry::index`] / [`Registry::gc`].
    pub fn expire(&self, ttl: Duration) -> Result<ExpireReport> {
        let now = now_ns();
        let ttl_ns = u64::try_from(ttl.as_nanos()).unwrap_or(u64::MAX);
        let mut index = self.index()?;
        let mut expired = Vec::new();
        index.records.retain(|record| {
            if now.saturating_sub(record.published_ns) > ttl_ns {
                expired.push(record.artifact_id.clone());
                false
            } else {
                true
            }
        });
        if expired.is_empty() {
            return Ok(ExpireReport::default());
        }
        self.write_index(&index)?;
        for artifact_id in &expired {
            fs::remove_file(self.root.join(manifest_relative(artifact_id))).ok();
        }
        let gc = self.gc()?;
        Ok(ExpireReport { expired, gc })
    }

    /// The refcounting sweep: delete every pool object whose hash no
    /// live index record references. Object liveness is the *union*
    /// over all records' referenced hashes — this is what makes
    /// cross-artifact sharing safe to GC. Files in `objects/` that do
    /// not parse as `<16-hex>.bin` (e.g. an orphaned temp file) are
    /// left alone.
    ///
    /// # Errors
    ///
    /// As [`Registry::index`], plus [`StoreError::Io`] if a deletion
    /// fails.
    pub fn gc(&self) -> Result<GcReport> {
        let index = self.index()?;
        let live: HashSet<u64> =
            index.records.iter().flat_map(RegistryRecord::referenced).map(|o| o.hash).collect();
        let dir = self.root.join(OBJECTS_DIR);
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(GcReport::default()),
            Err(e) => {
                return Err(StoreError::Io { path: display(&dir), detail: e.to_string() }.into())
            }
        };
        let mut report = GcReport::default();
        for entry in entries {
            let entry = match entry {
                Ok(entry) => entry,
                Err(_) => continue,
            };
            let name = entry.file_name();
            let Some(hash) = parse_object_name(name.to_str()) else { continue };
            if live.contains(&hash) {
                report.objects_live += 1;
                continue;
            }
            let byte_len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let path = entry.path();
            fs::remove_file(&path)
                .map_err(|e| StoreError::Io { path: display(&path), detail: e.to_string() })?;
            report.objects_reclaimed += 1;
            report.bytes_reclaimed += byte_len;
        }
        RegistryCounters::add(&self.counters.objects_reclaimed, report.objects_reclaimed);
        RegistryCounters::add(&self.counters.bytes_reclaimed, report.bytes_reclaimed);
        Ok(report)
    }

    /// One record by id, or the typed missing-artifact error.
    pub(crate) fn record(&self, artifact_id: &str) -> Result<RegistryRecord> {
        self.index()?.find(artifact_id).cloned().ok_or_else(|| {
            StoreError::MissingArtifact {
                artifact_id: artifact_id.to_owned(),
                registry: display(&self.root),
            }
            .into()
        })
    }

    /// Install one object into the pool under the object-reuse rule:
    /// present at the recorded length under its hash name ⇒ dedup hit
    /// (no write); otherwise one atomic write. Returns whether bytes
    /// were written.
    pub(crate) fn pool_object(&self, object: &ObjectRef, bytes: &[u8]) -> Result<bool> {
        let relative = object.object_path();
        if object_present_at(&self.root, &relative, object.byte_len) {
            RegistryCounters::add(&self.counters.objects_deduped, 1);
            RegistryCounters::add(&self.counters.bytes_deduped, object.byte_len);
            return Ok(false);
        }
        write_atomic_at(&self.root, &relative, bytes)?;
        RegistryCounters::add(&self.counters.objects_pooled, 1);
        RegistryCounters::add(&self.counters.bytes_pooled, object.byte_len);
        Ok(true)
    }

    /// Read one pool object for shipping, hash-checked — a transport
    /// can lose bytes but never forge them. A missing backing file is
    /// the typed [`StoreError::MissingObject`], naming the artifact
    /// whose closure it breaks.
    pub(crate) fn object_bytes(&self, artifact_id: &str, object: &ObjectRef) -> Result<Vec<u8>> {
        let relative = object.object_path();
        let path = self.root.join(&relative);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(StoreError::MissingObject {
                    artifact_id: artifact_id.to_owned(),
                    hash: object.hash,
                }
                .into())
            }
            Err(e) => {
                return Err(StoreError::Io { path: display(&path), detail: e.to_string() }.into())
            }
        };
        let actual = content_hash(&bytes);
        if actual != object.hash {
            return Err(StoreError::HashMismatch {
                entry: relative,
                expected: object.hash,
                actual,
            }
            .into());
        }
        Ok(bytes)
    }

    /// Upsert one record and rewrite the index atomically (written
    /// last — the torn-publish discipline).
    pub(crate) fn install_record(&self, record: RegistryRecord) -> Result<()> {
        let mut index = self.index()?;
        index.records.retain(|existing| existing.artifact_id != record.artifact_id);
        index.records.push(record);
        index.records.sort_by(|a, b| a.artifact_id.cmp(&b.artifact_id));
        self.write_index(&index)
    }

    fn write_index(&self, index: &RegistryIndex) -> Result<()> {
        write_atomic_at(&self.root, REGISTRY_FILE, index.encode().as_bytes())
    }

    pub(crate) fn ensure_layout(&self) -> Result<()> {
        for dir in [OBJECTS_DIR, MANIFESTS_DIR] {
            let path = self.root.join(dir);
            fs::create_dir_all(&path)
                .map_err(|e| StoreError::Io { path: display(&path), detail: e.to_string() })?;
        }
        Ok(())
    }
}

/// Where one artifact's manifest lives under a registry root.
pub(crate) fn manifest_relative(artifact_id: &str) -> String {
    format!("{MANIFESTS_DIR}/{artifact_id}.json")
}

/// Parse `objects/` filenames back to hashes: exactly 16 lowercase hex
/// digits + `.bin` (the shape [`ObjectRef::object_path`] writes).
fn parse_object_name(name: Option<&str>) -> Option<u64> {
    let hex = name?.strip_suffix(".bin")?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Nanoseconds since the Unix epoch — the registry's TTL clock.
fn now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The registry-backed [`ObjectSource`]: every object an opened
/// artifact reads — its plan included — is a pool file under the root.
#[derive(Debug)]
struct RegistrySource {
    root: PathBuf,
}

impl ObjectSource for RegistrySource {
    fn describe(&self, relative: &str) -> String {
        display(&self.root.join(relative))
    }

    fn fetch(&self, relative: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.root.join(relative)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_names_parse_strictly() {
        assert_eq!(parse_object_name(Some("00000000000000ff.bin")), Some(0xff));
        assert_eq!(parse_object_name(Some("deadbeefdeadbeef.bin")), Some(0xdead_beef_dead_beef));
        // Wrong width, wrong case, temp suffixes, non-hex: all skipped.
        assert_eq!(parse_object_name(Some("ff.bin")), None);
        assert_eq!(parse_object_name(Some("DEADBEEFDEADBEEF.bin")), None);
        assert_eq!(parse_object_name(Some("00000000000000ff.bin.123.tmp")), None);
        assert_eq!(parse_object_name(Some("zzzzzzzzzzzzzzzz.bin")), None);
        assert_eq!(parse_object_name(None), None);
    }

    #[test]
    fn ship_report_reconstructs_full_cost() {
        let report = ShipReport {
            artifact_id: "torch-sm75-aa-bb".into(),
            objects_shipped: 2,
            bytes_shipped: 300,
            objects_skipped: 5,
            bytes_skipped: 4_700,
        };
        assert_eq!(report.full_bytes(), 5_000);
    }

    #[test]
    fn empty_registry_reads_as_empty_not_error() {
        let registry = Registry::at("/nonexistent/negativa-registry-test");
        let index = registry.index().expect("missing index is an empty registry");
        assert!(index.records.is_empty());
        assert_eq!(registry.gc().expect("gc of nothing").objects_live, 0);
        assert_eq!(registry.stats(), RegistryStats::default());
    }
}
