//! The **wire transport** — registry distribution over real sockets.
//!
//! The registry tier ships artifacts by want-list delta
//! ([`Registry::push`] / [`Registry::pull`]), but until this module
//! both sides lived in one process. Here the same protocol runs over
//! loopback TCP, dependency-free on `std::net`:
//!
//! - **Framed RPC** — every message is one length-prefixed frame:
//!   a 12-byte header (magic, protocol version, verb, payload length)
//!   followed by a little-endian binary payload. Each verb is declared
//!   once, with its tag and its fields in payload order, and both the
//!   encoder and the strict decoder are derived from that list. Framing
//!   faults are *typed* ([`NetError::FrameTooLarge`],
//!   [`NetError::ProtocolVersion`], [`NetError::Truncated`],
//!   [`NetError::Malformed`]) so a transport failure is never confused
//!   with a content failure.
//! - **[`RegistryServer`]** — a thread-per-connection server exposing
//!   one [`Registry`] behind a read-write lock: index reads and object
//!   streaming take the read side, installs the write side, and every
//!   request re-reads the index so each response is a consistent
//!   snapshot. Objects stream in bounded chunks via `get_object` with
//!   **range reads** (offset + length), so an interrupted transfer
//!   resumes instead of restarting; the server seeks to the offset and
//!   reads only that range, never the whole object.
//! - **[`RemoteRegistry`]** — the pulling side, over one crate-private
//!   framed-RPC client: each request carries a per-request timeout and
//!   bounded retries with exponential backoff plus deterministic
//!   xorshift jitter. Every
//!   object is checked against its XXH64 content hash
//!   ([`content_hash`]) on completion; a mismatch throws
//!   the bytes away and retries — corruption is *never* installed. A
//!   transfer cut mid-object resumes with a range read from the last
//!   received offset ([`NetStats::range_resumes`] counts the wins).
//! - **`RemoteSource`** — [`ObjectSource`] over the wire, so
//!   [`RemoteRegistry::open`] consumes an artifact straight off a
//!   remote registry as a [`StoredArtifact`] with the exact
//!   hash-checking guarantees of a local open; its manifest read is
//!   checked against the record and re-fetched if corrupt, exactly as
//!   a pull's is.
//! - **Compatibility-keyed resolution** — the `resolve` verb returns
//!   the best artifact whose [`fatbin::FleetSpec::runs_on`] the asking
//!   architecture ([`Registry::resolve`]), so a node stops naming
//!   artifact ids and asks for "whatever serves my arch".
//! - **[`FaultInjector`]** — a deterministic (xorshift-seeded)
//!   [`Dialer`] wrapper that drops dials, cuts connections mid-frame,
//!   truncates streams, delays reads, and flips payload bytes, with a
//!   bounded fault budget so tests pin that a faulty pull *converges*
//!   via retries and cold-verifies byte-identical to a local pull.
//!
//! The server never trusts the wire: uploaded objects are staged,
//! hash-checked, and only then pooled; installs presence-verify the
//! full referenced closure first ([`StoreError::MissingObject`]). The
//! client never trusts it either: every object and manifest read is
//! checked against the hash the index record pinned. The transport can
//! lose bytes or delay them, but it can never forge content.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::Duration;

use fatbin::SmArch;

use crate::codec::content_hash;
use crate::manifest::{ObjectRef, RegistryRecord};
use crate::registry::{manifest_relative, ship_wanted, ArtifactOffer, Registry, ShipReport};
use crate::store::{decode_manifest, ObjectSource, StoreError, StoreVerification, StoredArtifact};
use crate::Result;

/// Frame magic: every frame starts with these four bytes.
const FRAME_MAGIC: [u8; 4] = *b"NGRP";

/// Wire protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u16 = 1;

/// Frame header length: magic (4) + version (2) + kind (1) +
/// reserved (1) + payload length (4).
const HEADER_LEN: usize = 12;

/// Hard ceiling on one frame's payload. Object bytes move in chunks
/// well under this; anything larger is a corrupt or hostile header.
pub const MAX_FRAME_PAYLOAD: u32 = 4 * 1024 * 1024;

/// Default object-transfer chunk length (range-read granularity).
pub(crate) const DEFAULT_CHUNK_LEN: u32 = 256 * 1024;

// Remote error codes (the `code` field of an error response).
const ERR_NOT_FOUND_ARTIFACT: u8 = 1;
const ERR_MISSING_OBJECT: u8 = 2;
const ERR_NO_COMPATIBLE: u8 = 3;
const ERR_BAD_REQUEST: u8 = 4;
const ERR_INTERNAL: u8 = 5;
const ERR_CORRUPT: u8 = 6;
const ERR_NOT_FOUND_OBJECT: u8 = 7;

/// Why a wire operation failed. Carried inside
/// [`NegativaError::Net`](crate::NegativaError::Net).
///
/// The variants split **transport** faults (retryable: the bytes were
/// lost or mangled in flight — [`NetError::Io`], [`NetError::Timeout`],
/// [`NetError::Truncated`], [`NetError::Malformed`],
/// [`NetError::FrameTooLarge`], [`NetError::ProtocolVersion`]) from
/// **content** faults (not retryable at the transport layer:
/// [`NetError::Remote`], [`NetError::Corrupt`]) and terminal outcomes
/// ([`NetError::RetriesExhausted`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A registry URL did not parse (`tcp://host:port` is the only
    /// accepted shape).
    InvalidUrl {
        /// The URL as given.
        url: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A socket operation failed (connect, read, write).
    Io {
        /// The peer address involved.
        addr: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A socket operation exceeded the per-request timeout.
    Timeout {
        /// The peer address involved.
        addr: String,
        /// Which operation timed out.
        detail: String,
    },
    /// A frame header announced a payload larger than
    /// [`MAX_FRAME_PAYLOAD`] — a corrupt header or a hostile peer.
    FrameTooLarge {
        /// The announced payload length.
        len: u32,
        /// The ceiling it exceeded.
        max: u32,
    },
    /// The peer speaks a different protocol version.
    ProtocolVersion {
        /// The version the frame carried.
        got: u16,
        /// The version this side speaks ([`PROTOCOL_VERSION`]).
        want: u16,
    },
    /// The stream ended mid-frame: the peer (or the network) cut the
    /// connection before a full header or payload arrived.
    Truncated {
        /// Bytes the frame needed.
        expected: u64,
        /// Bytes that actually arrived.
        got: u64,
    },
    /// A frame arrived complete but does not decode: bad magic, an
    /// unknown verb, or a payload that underruns its own fields.
    Malformed {
        /// What exactly failed to decode.
        detail: String,
    },
    /// The remote reported a fault this side cannot retype (an internal
    /// server error, a rejected upload, a bad request).
    Remote {
        /// The remote's rendering of the fault.
        detail: String,
    },
    /// A fully transferred entry failed its content-hash check. The
    /// bytes are discarded, never installed; bounded retries re-fetch.
    Corrupt {
        /// The entry that failed (object path or manifest).
        entry: String,
        /// The hash the index record pinned.
        expected: u64,
        /// What the received bytes hash to.
        actual: u64,
    },
    /// The retry budget ran out before an operation succeeded.
    RetriesExhausted {
        /// Attempts made (the policy's budget).
        attempts: u32,
        /// The last failure, rendered.
        last: String,
    },
}

impl NetError {
    /// Whether this failure is a transport fault a retry may fix
    /// (dropped or mangled bytes), as opposed to a typed content or
    /// protocol outcome that will recur identically.
    fn is_retryable(&self) -> bool {
        matches!(
            self,
            NetError::Io { .. }
                | NetError::Timeout { .. }
                | NetError::Truncated { .. }
                | NetError::Malformed { .. }
                | NetError::FrameTooLarge { .. }
                | NetError::ProtocolVersion { .. }
        )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidUrl { url, detail } => {
                write!(f, "invalid registry url {url:?}: {detail}")
            }
            NetError::Io { addr, detail } => write!(f, "net I/O error with {addr}: {detail}"),
            NetError::Timeout { addr, detail } => {
                write!(f, "net timeout with {addr}: {detail}")
            }
            NetError::FrameTooLarge { len, max } => write!(
                f,
                "frame payload of {len} bytes exceeds the {max}-byte ceiling \
                 (corrupt header or incompatible peer)"
            ),
            NetError::ProtocolVersion { got, want } => {
                write!(f, "peer speaks protocol version {got}, this side speaks {want}")
            }
            NetError::Truncated { expected, got } => {
                write!(f, "stream truncated mid-frame: needed {expected} bytes, got {got}")
            }
            NetError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            NetError::Remote { detail } => write!(f, "remote registry error: {detail}"),
            NetError::Corrupt { entry, expected, actual } => write!(
                f,
                "received bytes for {entry} hash to {actual:#018x}, record pins \
                 {expected:#018x}; discarded, never installed"
            ),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last failure: {last}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Snapshot of one client's cumulative wire accounting; see
/// [`RemoteRegistry::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Failed attempts that another attempt followed: a retryable
    /// transport fault or a failed whole-object hash check with budget
    /// left. The attempt that exhausts the budget is not a retry.
    pub retries: u64,
    /// Attempts that failed on the per-request timeout, the last one
    /// included.
    pub timeouts: u64,
    /// Connections dialed after the first one was lost.
    pub reconnects: u64,
    /// Frame bytes written to the wire (headers + payloads).
    pub bytes_sent: u64,
    /// Frame bytes read off the wire (headers + payloads).
    pub bytes_received: u64,
    /// Interrupted object transfers resumed with a range read from the
    /// last received offset instead of restarting at zero.
    pub range_resumes: u64,
}

/// The atomics behind [`NetStats`], `Arc`-shared across clones.
#[derive(Debug, Default)]
struct NetCounters {
    retries: AtomicU64,
    timeouts: AtomicU64,
    reconnects: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    range_resumes: AtomicU64,
}

// ---------------------------------------------------------------------
// Binary payload codec: little-endian scalars, and a `u32` count in
// front of every string, byte blob and list. Each field type says how
// it is laid out once (`Wire`); each record and each verb lists its
// fields once, and both directions are derived from that list.
// ---------------------------------------------------------------------

/// Little-endian payload reader with strict bounds: any underrun is
/// [`NetError::Malformed`], and [`Reader::finish`] rejects trailing
/// garbage.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Malformed {
                detail: format!(
                    "payload underrun: needed {n} more bytes at offset {}, have {}",
                    self.pos,
                    self.remaining()
                ),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn finish(self) -> std::result::Result<(), NetError> {
        if self.pos != self.buf.len() {
            return Err(NetError::Malformed {
                detail: format!("{} trailing bytes after the last payload field", self.remaining()),
            });
        }
        Ok(())
    }
}

/// How one field type is laid out in a frame payload.
trait Wire: Sized {
    fn write_to(&self, out: &mut Vec<u8>);

    fn read_from(r: &mut Reader<'_>) -> std::result::Result<Self, NetError>;

    /// `items` back to back (`u8` copies the slice whole).
    fn write_many(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.write_to(out);
        }
    }

    /// `count` values back to back (`u8` takes one slice). Grows as
    /// values arrive, so a count alone never reserves memory.
    fn read_many(r: &mut Reader<'_>, count: usize) -> std::result::Result<Vec<Self>, NetError> {
        (0..count).map(|_| Self::read_from(r)).collect()
    }
}

impl Wire for u8 {
    fn write_to(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn read_from(r: &mut Reader<'_>) -> std::result::Result<Self, NetError> {
        Ok(r.take(1)?[0])
    }

    fn write_many(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn read_many(r: &mut Reader<'_>, count: usize) -> std::result::Result<Vec<u8>, NetError> {
        Ok(r.take(count)?.to_vec())
    }
}

macro_rules! wire_scalars {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn write_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn read_from(r: &mut Reader<'_>) -> std::result::Result<Self, NetError> {
                let bytes = r.take(std::mem::size_of::<$int>())?;
                Ok(<$int>::from_le_bytes(bytes.try_into().expect("took exactly its width")))
            }
        }
    )*};
}

wire_scalars!(u32, u64);

impl<T: Wire> Wire for Vec<T> {
    fn write_to(&self, out: &mut Vec<u8>) {
        (self.len() as u32).write_to(out);
        T::write_many(self, out);
    }

    fn read_from(r: &mut Reader<'_>) -> std::result::Result<Self, NetError> {
        let count = u32::read_from(r)? as usize;
        // Every value takes at least one payload byte, so a count past
        // what remains is malformed before any value is read.
        if count > r.remaining() {
            return Err(NetError::Malformed {
                detail: format!(
                    "list announces {count} values, {} payload bytes cannot hold them",
                    r.remaining()
                ),
            });
        }
        T::read_many(r, count)
    }
}

impl Wire for String {
    fn write_to(&self, out: &mut Vec<u8>) {
        (self.len() as u32).write_to(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn read_from(r: &mut Reader<'_>) -> std::result::Result<Self, NetError> {
        String::from_utf8(Vec::read_from(r)?)
            .map_err(|_| NetError::Malformed { detail: "string field is not UTF-8".into() })
    }
}

/// A record's payload is its fields, in the order listed.
macro_rules! wire_record {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Wire for $ty {
            fn write_to(&self, out: &mut Vec<u8>) {
                $(self.$field.write_to(out);)*
            }

            fn read_from(r: &mut Reader<'_>) -> std::result::Result<Self, NetError> {
                Ok($ty { $($field: Wire::read_from(r)?),* })
            }
        }
    )*};
}

wire_record! {
    ObjectRef { hash, byte_len }
    RegistryRecord { artifact_id, manifest_hash, plan, published_ns, objects }
}

// ---------------------------------------------------------------------
// Requests and responses.
// ---------------------------------------------------------------------

/// Declare a verb set once: each verb's frame tag and its fields, in
/// payload order. Emits the enum plus its `tag`, its `encode` (tag and
/// payload) and its strict `decode` (unknown tags and trailing bytes are
/// [`NetError::Malformed`]).
macro_rules! wire_verbs {
    ($(#[$meta:meta])* enum $name:ident ($what:literal) {
        $($(#[$vmeta:meta])* $verb:ident $({ $($field:ident: $ty:ty),* $(,)? })? = $tag:literal,)*
    }) => {
        $(#[$meta])*
        enum $name {
            $($(#[$vmeta])* $verb $({ $($field: $ty),* })?,)*
        }

        impl $name {
            fn tag(&self) -> u8 {
                match self {
                    $($name::$verb { .. } => $tag,)*
                }
            }

            fn encode(&self) -> (u8, Vec<u8>) {
                let mut out = Vec::new();
                match self {
                    $($name::$verb $({ $($field),* })? => {
                        $($($field.write_to(&mut out);)*)?
                    })*
                }
                (self.tag(), out)
            }

            fn decode(tag: u8, payload: &[u8]) -> std::result::Result<$name, NetError> {
                let mut r = Reader::new(payload);
                let value = match tag {
                    $($tag => $name::$verb $({ $($field: Wire::read_from(&mut r)?),* })?,)*
                    other => {
                        return Err(NetError::Malformed {
                            detail: format!(concat!("unknown ", $what, " verb {}"), other),
                        })
                    }
                };
                r.finish()?;
                Ok(value)
            }

            /// One value of every verb, its fields generated.
            #[cfg(test)]
            fn arbitrary_each(g: &mut crate::arbitrary::Gen) -> Vec<$name> {
                vec![$($name::$verb $({
                    $($field: crate::arbitrary::Arbitrary::arbitrary(g)),*
                })?),*]
            }
        }
    };
}

wire_verbs! {
    /// One client request — the wire protocol's verb set.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Request("request") {
        /// Liveness probe.
        Ping = 1,
        /// Compatibility-keyed lookup: the best record whose fleet runs
        /// on this architecture.
        Resolve { arch: u32 } = 2,
        /// One artifact's index record (the offer half of the handshake).
        Offer { artifact_id: String } = 3,
        /// One artifact's raw manifest bytes.
        Manifest { artifact_id: String } = 4,
        /// A range read of one pool object.
        GetObject { hash: u64, offset: u64, len: u32 } = 5,
        /// Every live index record.
        Records = 6,
        /// The want half of a push: which of a record's objects the
        /// server pool lacks.
        Want { record: RegistryRecord } = 7,
        /// One chunk of an object upload (staged server-side,
        /// hash-checked on completion, only then pooled).
        PutObject { hash: u64, total_len: u64, offset: u64, bytes: Vec<u8> } = 8,
        /// Finish a push: install the record after the server
        /// presence-verifies its full closure.
        Install { record: RegistryRecord, manifest_bytes: Vec<u8> } = 9,
    }
}

wire_verbs! {
    /// One server response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Response("response") {
        /// The request succeeded and carries no data.
        Ok = 128,
        /// One index record.
        Record { record: RegistryRecord } = 129,
        /// Raw manifest bytes.
        Manifest { bytes: Vec<u8> } = 130,
        /// One range of an object, plus the object's full length.
        Chunk { total_len: u64, bytes: Vec<u8> } = 131,
        /// The hashes the server pool lacks, in offer order.
        Want { hashes: Vec<u64> } = 132,
        /// Every live index record.
        Records { records: Vec<RegistryRecord> } = 133,
        /// A typed remote fault: a small fixed code plus a text and a
        /// numeric detail slot, enough for the client to rebuild the
        /// original typed error.
        Error { code: u8, text: String, num: u64 } = 134,
    }
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

fn transport_error(addr: &str, what: &str, e: &io::Error) -> NetError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            NetError::Timeout { addr: addr.to_owned(), detail: format!("{what}: {e}") }
        }
        _ => NetError::Io { addr: addr.to_owned(), detail: format!("{what}: {e}") },
    }
}

/// Write one frame (header + payload) as a single buffered write.
/// Returns the bytes put on the wire.
fn write_frame<W: Write + ?Sized>(
    stream: &mut W,
    addr: &str,
    kind: u8,
    payload: &[u8],
) -> std::result::Result<u64, NetError> {
    debug_assert!(payload.len() as u32 <= MAX_FRAME_PAYLOAD);
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame.push(kind);
    frame.push(0); // reserved
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame).map_err(|e| transport_error(addr, "writing frame", &e))?;
    stream.flush().map_err(|e| transport_error(addr, "flushing frame", &e))?;
    Ok(frame.len() as u64)
}

/// Fill `buf` from the stream, reporting exactly how many bytes made
/// it if the stream ends early.
fn read_full<R: Read + ?Sized>(
    stream: &mut R,
    addr: &str,
    buf: &mut [u8],
) -> std::result::Result<usize, NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(transport_error(addr, "reading frame", &e)),
        }
    }
    Ok(filled)
}

/// Read one frame. `Ok(None)` is a clean disconnect (EOF before any
/// header byte); every other short read is [`NetError::Truncated`].
/// Returns the verb, the payload, and the bytes read off the wire.
fn read_frame<R: Read + ?Sized>(
    stream: &mut R,
    addr: &str,
) -> std::result::Result<Option<(u8, Vec<u8>, u64)>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    let got = read_full(stream, addr, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < HEADER_LEN {
        return Err(NetError::Truncated { expected: HEADER_LEN as u64, got: got as u64 });
    }
    if header[..4] != FRAME_MAGIC {
        return Err(NetError::Malformed {
            detail: format!("bad frame magic {:02x?}", &header[..4]),
        });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != PROTOCOL_VERSION {
        return Err(NetError::ProtocolVersion { got: version, want: PROTOCOL_VERSION });
    }
    let kind = header[6];
    let payload_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(NetError::FrameTooLarge { len: payload_len, max: MAX_FRAME_PAYLOAD });
    }
    let mut payload = vec![0u8; payload_len as usize];
    let got = read_full(stream, addr, &mut payload)?;
    if got < payload.len() {
        return Err(NetError::Truncated { expected: payload_len as u64, got: got as u64 });
    }
    Ok(Some((kind, payload, (HEADER_LEN as u64) + payload_len as u64)))
}

// ---------------------------------------------------------------------
// Dialing: the pluggable connection layer.
// ---------------------------------------------------------------------

/// A bidirectional byte stream a [`Dialer`] hands out. Blanket-implemented
/// for anything `Read + Write + Send`.
pub trait NetStream: Read + Write + Send {}

impl<T: Read + Write + Send> NetStream for T {}

/// How a [`RemoteRegistry`] obtains connections. The production
/// implementation is [`TcpDialer`]; [`FaultInjector`] wraps any dialer
/// to make its connections misbehave deterministically.
pub trait Dialer: fmt::Debug + Send + Sync {
    /// Open one connection to `addr` (a `host:port` pair), with
    /// `timeout` applied to the connect and to every read and write on
    /// the returned stream.
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    fn dial(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn NetStream>>;
}

/// The production [`Dialer`]: plain `std::net::TcpStream` with the
/// per-request timeout applied to connect, reads, and writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpDialer;

impl Dialer for TcpDialer {
    fn dial(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn NetStream>> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Box::new(stream))
    }
}

/// One xorshift64 step — the workspace's stand-in for a PRNG; fully
/// deterministic from the seed.
pub(crate) fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// What one faulty connection does to its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// The dial itself fails.
    DropDial,
    /// The connection dies (read error) after N clean bytes.
    Drop,
    /// The stream ends (clean EOF) mid-conversation after N bytes.
    Truncate,
    /// One payload byte is flipped after N clean bytes; the stream
    /// then continues normally — only hash checks can catch this.
    Flip,
    /// Reads stall briefly once, then proceed.
    Delay,
}

/// A deterministic chaos [`Dialer`]: wraps an inner dialer and makes a
/// bounded number of its connections misbehave — failed dials, dropped
/// or truncated streams, flipped payload bytes, delayed reads — all
/// drawn from one xorshift-seeded sequence, so a test run is exactly
/// reproducible. Once the fault budget is spent every further
/// connection is clean, which makes convergence-under-retry a
/// deterministic property rather than a probabilistic one.
#[derive(Debug)]
pub struct FaultInjector {
    inner: Arc<dyn Dialer>,
    state: Mutex<u64>,
    budget: AtomicU64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Wrap `inner` so that up to `fault_budget` of its future
    /// connections misbehave, the kinds and trigger points drawn
    /// deterministically from `seed` (forced nonzero).
    pub fn new(inner: Arc<dyn Dialer>, seed: u64, fault_budget: u64) -> FaultInjector {
        FaultInjector {
            inner,
            state: Mutex::new(seed | 1),
            budget: AtomicU64::new(fault_budget),
            injected: AtomicU64::new(0),
        }
    }

    /// How many faults have actually been injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Claim one unit of fault budget; false once it is spent.
    fn try_consume(&self) -> bool {
        self.budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1)).is_ok()
    }
}

impl Dialer for FaultInjector {
    fn dial(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn NetStream>> {
        let draw = {
            let mut state = self.state.lock().expect("fault injector state poisoned");
            xorshift(&mut state)
        };
        // Draw the connection's fate: most draws fault while budget
        // remains (that is the injector's job), spreading across all
        // five kinds; once the budget is spent everything is clean.
        let kind = match draw % 5 {
            0 => FaultKind::DropDial,
            1 => FaultKind::Drop,
            2 => FaultKind::Truncate,
            3 => FaultKind::Flip,
            _ => FaultKind::Delay,
        };
        if !self.try_consume() {
            return self.inner.dial(addr, timeout);
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        if kind == FaultKind::DropDial {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "injected dial failure"));
        }
        let stream = self.inner.dial(addr, timeout)?;
        // Trigger somewhere in the first ~400 KiB of reads: early
        // enough to hit headers, late enough to land mid-object once
        // real chunks are flowing.
        let trigger = (draw >> 8) % 400_000;
        let delay = Duration::from_millis(1 + (draw >> 40) % 20);
        Ok(Box::new(FaultyStream { inner: stream, kind, remaining: trigger, fired: false, delay }))
    }
}

/// The stream wrapper [`FaultInjector`] hands out: byte-accurate fault
/// triggering on the read side, writes passed through untouched.
struct FaultyStream {
    inner: Box<dyn NetStream>,
    kind: FaultKind,
    /// Clean bytes left before the fault fires.
    remaining: u64,
    fired: bool,
    delay: Duration,
}

impl Read for FaultyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.kind {
            FaultKind::DropDial => unreachable!("DropDial never yields a stream"),
            FaultKind::Delay => {
                if !self.fired {
                    self.fired = true;
                    thread::sleep(self.delay);
                }
                self.inner.read(buf)
            }
            FaultKind::Truncate => {
                if self.fired {
                    return Ok(0);
                }
                let n = self.inner.read(buf)?;
                if n as u64 >= self.remaining {
                    let keep = self.remaining as usize;
                    self.fired = true;
                    return Ok(keep);
                }
                self.remaining -= n as u64;
                Ok(n)
            }
            FaultKind::Drop => {
                if self.fired {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected connection drop",
                    ));
                }
                let n = self.inner.read(buf)?;
                if n as u64 >= self.remaining {
                    self.fired = true;
                }
                self.remaining = self.remaining.saturating_sub(n as u64);
                Ok(n)
            }
            FaultKind::Flip => {
                let n = self.inner.read(buf)?;
                if !self.fired && self.remaining < n as u64 {
                    buf[self.remaining as usize] ^= 0x40;
                    self.fired = true;
                } else {
                    self.remaining = self.remaining.saturating_sub(n as u64);
                }
                Ok(n)
            }
        }
    }
}

impl Write for FaultyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------
// The client.
// ---------------------------------------------------------------------

/// Retry and timeout policy for one [`RemoteRegistry`]'s client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
    /// Ceiling on one backoff sleep.
    pub max_backoff: Duration,
    /// Per-request timeout, applied to connect and to every read and
    /// write.
    pub timeout: Duration,
    /// Seed for the deterministic xorshift backoff jitter.
    pub jitter_seed: u64,
    /// Object-transfer chunk length: the range-read granularity, and
    /// therefore the most a mid-object interruption can cost.
    pub chunk_len: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            timeout: Duration::from_secs(5),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
            chunk_len: DEFAULT_CHUNK_LEN,
        }
    }
}

/// The framed-RPC client: one logical connection to a
/// [`RegistryServer`], re-dialed on loss, every operation bounded by
/// the [`RetryPolicy`]. Wire traffic and recovery events accumulate in
/// [`NetStats`].
pub(crate) struct NetClient {
    addr: String,
    dialer: Arc<dyn Dialer>,
    policy: RetryPolicy,
    counters: Arc<NetCounters>,
    conn: Mutex<Option<Box<dyn NetStream>>>,
    connected_once: AtomicBool,
    jitter: Mutex<u64>,
}

impl fmt::Debug for NetClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .field("dialer", &self.dialer)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl NetClient {
    /// A client for `addr` (`host:port`) over `dialer` under `policy`.
    fn new(addr: impl Into<String>, dialer: Arc<dyn Dialer>, policy: RetryPolicy) -> NetClient {
        NetClient {
            addr: addr.into(),
            dialer,
            policy,
            counters: Arc::new(NetCounters::default()),
            conn: Mutex::new(None),
            connected_once: AtomicBool::new(false),
            jitter: Mutex::new(policy.jitter_seed | 1),
        }
    }

    /// Snapshot of this client's cumulative wire accounting.
    fn stats(&self) -> NetStats {
        let c = &self.counters;
        NetStats {
            retries: c.retries.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
            range_resumes: c.range_resumes.load(Ordering::Relaxed),
        }
    }

    /// Exponential backoff with deterministic jitter before retry
    /// number `attempt` (1-based).
    fn backoff(&self, attempt: u32) {
        let base = self.policy.base_backoff.as_millis() as u64;
        let scaled = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        let capped = scaled.min(self.policy.max_backoff.as_millis() as u64);
        let jitter = {
            let mut state = self.jitter.lock().expect("jitter state poisoned");
            xorshift(&mut state) % base.max(1)
        };
        thread::sleep(Duration::from_millis(capped + jitter));
    }

    /// Count one failed attempt against the retry budget: a timeout
    /// always counts in `timeouts`, and the attempt counts as a retry
    /// only if the budget allows another one — otherwise this returns
    /// the exhaustion error. (A transport failure has already dropped
    /// the connection in [`NetClient::attempt`], so the next one
    /// re-dials.)
    fn note_failure(&self, failures: &mut u32, e: &NetError) -> std::result::Result<(), NetError> {
        *failures += 1;
        if matches!(e, NetError::Timeout { .. }) {
            self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        if *failures >= self.policy.attempts {
            return Err(self.exhausted(e));
        }
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// One request/response exchange on the cached connection (dialing
    /// if necessary), no retries. Any transport failure drops the
    /// connection.
    fn attempt(&self, req: &Request) -> std::result::Result<Response, NetError> {
        let mut guard = self.conn.lock().expect("net connection poisoned");
        if guard.is_none() {
            let stream = self
                .dialer
                .dial(&self.addr, self.policy.timeout)
                .map_err(|e| transport_error(&self.addr, "dialing", &e))?;
            if self.connected_once.swap(true, Ordering::Relaxed) {
                self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            *guard = Some(stream);
        }
        let stream = guard.as_mut().expect("connection just ensured");
        let (kind, payload) = req.encode();
        let result = write_frame(stream.as_mut(), &self.addr, kind, &payload).and_then(|sent| {
            self.counters.bytes_sent.fetch_add(sent, Ordering::Relaxed);
            match read_frame(stream.as_mut(), &self.addr)? {
                Some((kind, payload, received)) => {
                    self.counters.bytes_received.fetch_add(received, Ordering::Relaxed);
                    Response::decode(kind, &payload)
                }
                None => Err(NetError::Truncated { expected: HEADER_LEN as u64, got: 0 }),
            }
        });
        if result.is_err() {
            *guard = None;
        }
        result
    }

    /// One RPC under the retry policy: transport faults are retried
    /// with backoff, typed remote errors and decoded responses return
    /// immediately.
    fn rpc(&self, req: &Request) -> std::result::Result<Response, NetError> {
        let mut failures = 0;
        for attempt in 0..self.policy.attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            match self.attempt(req) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_retryable() => self.note_failure(&mut failures, &e)?,
                Err(e) => return Err(e),
            }
        }
        // Only a zero-attempt budget gets here: the last failure of any
        // other one has already returned the exhaustion error.
        Err(NetError::RetriesExhausted { attempts: 0, last: "no attempt ran".into() })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures past the retry budget.
    fn ping(&self) -> std::result::Result<(), NetError> {
        match self.rpc(&Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch one object completely: bounded chunked range reads that
    /// resume from the last received offset after a transport fault,
    /// then one whole-object content-hash check. `Ok(None)` means the
    /// server does not hold the object. Corrupted bytes are discarded
    /// and re-fetched (bounded); they are **never** returned.
    ///
    /// # Errors
    ///
    /// [`NetError::RetriesExhausted`] when the budget runs out (the
    /// `last` field names the final transport or hash failure), or a
    /// non-retryable typed failure.
    fn get_object(
        &self,
        entry: &str,
        hash: u64,
        total_len: u64,
    ) -> std::result::Result<Option<Vec<u8>>, NetError> {
        let mut buf: Vec<u8> = Vec::with_capacity(usize::try_from(total_len).unwrap_or(0));
        let mut failures: u32 = 0;
        // One closure for the shared bookkeeping of every retryable
        // failure inside the transfer loop: count it, bound it, note it
        // and whether partial progress survives (a resume), back off.
        let mut retry = |e: NetError, resumes: bool| {
            self.note_failure(&mut failures, &e)?;
            if resumes {
                self.counters.range_resumes.fetch_add(1, Ordering::Relaxed);
            }
            self.backoff(failures);
            Ok(())
        };
        loop {
            while (buf.len() as u64) < total_len {
                let len =
                    u32::try_from((total_len - buf.len() as u64).min(self.policy.chunk_len as u64))
                        .expect("chunk bounded by chunk_len");
                let req = Request::GetObject { hash, offset: buf.len() as u64, len };
                match self.attempt(&req) {
                    Ok(Response::Chunk { total_len: reported, bytes }) => {
                        if reported != total_len || bytes.is_empty() || bytes.len() > len as usize {
                            let detail = format!(
                                "chunk of {entry} reports total {reported}, carries {} bytes \
                                 against a {len}-byte range at offset {} of {total_len}",
                                bytes.len(),
                                buf.len(),
                            );
                            retry(NetError::Malformed { detail }, false)?;
                            continue;
                        }
                        buf.extend_from_slice(&bytes);
                    }
                    Ok(Response::Error { code: ERR_NOT_FOUND_OBJECT, .. }) => return Ok(None),
                    Ok(Response::Error { code, text, num }) => {
                        return Err(remote_net_error(code, &text, num))
                    }
                    Ok(other) => retry(unexpected(&other), false)?,
                    // A resume: the next range read continues from
                    // buf.len() instead of offset zero.
                    Err(e) if e.is_retryable() => retry(e, !buf.is_empty())?,
                    Err(e) => return Err(e),
                }
            }
            let actual = content_hash(&buf);
            if actual == hash {
                return Ok(Some(buf));
            }
            // A flipped byte survived framing: throw everything away
            // and re-fetch from offset zero — corruption never leaves
            // this function.
            retry(NetError::Corrupt { entry: entry.to_owned(), expected: hash, actual }, false)?;
            buf.clear();
        }
    }

    fn exhausted(&self, last: &NetError) -> NetError {
        NetError::RetriesExhausted { attempts: self.policy.attempts, last: last.to_string() }
    }
}

/// A response of the wrong shape for the request — protocol breakage.
fn unexpected(resp: &Response) -> NetError {
    NetError::Malformed {
        detail: format!("unexpected response verb {} for this request", resp.tag()),
    }
}

/// Rebuild a remote error the client cannot retype more precisely.
fn remote_net_error(code: u8, text: &str, num: u64) -> NetError {
    match code {
        ERR_BAD_REQUEST => NetError::Remote { detail: format!("bad request: {text}") },
        ERR_CORRUPT => NetError::Remote {
            detail: format!("server rejected corrupt upload of {text}: bytes hash to {num:#018x}"),
        },
        _ => NetError::Remote { detail: text.to_owned() },
    }
}

// ---------------------------------------------------------------------
// The remote registry (client-side façade).
// ---------------------------------------------------------------------

/// Parse `tcp://host:port` to the bare `host:port` dial address.
fn parse_url(url: &str) -> std::result::Result<String, NetError> {
    let invalid =
        |detail: &str| NetError::InvalidUrl { url: url.to_owned(), detail: detail.into() };
    let rest =
        url.strip_prefix("tcp://").ok_or_else(|| invalid("expected the form tcp://host:port"))?;
    let (_, port) = rest.rsplit_once(':').ok_or_else(|| invalid("missing :port"))?;
    if rest.is_empty() || port.parse::<u16>().is_err() {
        return Err(invalid("port is not a number"));
    }
    Ok(rest.to_owned())
}

/// A remote registry spoken to over the wire — the client-side
/// counterpart of [`RegistryServer`], with the same verbs the
/// in-process [`Registry`] exposes: offer/want/push/pull delta
/// shipping, compatibility-keyed [`RemoteRegistry::resolve`], and
/// [`RemoteRegistry::open`] for consuming an artifact without pulling
/// it into a local pool first.
#[derive(Debug, Clone)]
pub struct RemoteRegistry {
    client: Arc<NetClient>,
    url: String,
}

impl RemoteRegistry {
    /// Connect to `url` (`tcp://host:port`) over plain TCP under the
    /// default [`RetryPolicy`]. The dial itself is lazy — this only
    /// validates the URL.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidUrl`].
    pub fn connect(url: &str) -> Result<RemoteRegistry> {
        RemoteRegistry::connect_with(url, Arc::new(TcpDialer), RetryPolicy::default())
    }

    /// [`RemoteRegistry::connect`] with an explicit dialer (e.g. a
    /// [`FaultInjector`]) and retry policy.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidUrl`].
    pub fn connect_with(
        url: &str,
        dialer: Arc<dyn Dialer>,
        policy: RetryPolicy,
    ) -> Result<RemoteRegistry> {
        let addr = parse_url(url)?;
        Ok(RemoteRegistry {
            client: Arc::new(NetClient::new(addr, dialer, policy)),
            url: url.to_owned(),
        })
    }

    /// The URL this handle speaks to.
    pub fn url(&self) -> &str {
        &self.url
    }

    /// Snapshot of the underlying client's wire accounting.
    pub fn stats(&self) -> NetStats {
        self.client.stats()
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures past the retry budget.
    pub fn ping(&self) -> Result<()> {
        Ok(self.client.ping()?)
    }

    /// Every live record in the remote index, in index order.
    ///
    /// # Errors
    ///
    /// Transport failures past the retry budget, or a remote fault.
    pub fn records(&self) -> Result<Vec<RegistryRecord>> {
        match self.client.rpc(&Request::Records)? {
            Response::Records { records } => Ok(records),
            Response::Error { code, text, num } => Err(self.remote_error(code, text, num)),
            other => Err(unexpected(&other).into()),
        }
    }

    /// Compatibility-keyed resolution: the best remote artifact whose
    /// fleet runs on `arch` (see [`Registry::resolve`] for the
    /// ordering).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoCompatibleArtifact`] if nothing serves `arch`;
    /// transport failures past the retry budget.
    pub fn resolve(&self, arch: SmArch) -> Result<RegistryRecord> {
        match self.client.rpc(&Request::Resolve { arch: arch.0 })? {
            Response::Record { record } => Ok(record),
            Response::Error { code, text, num } => Err(self.remote_error(code, text, num)),
            other => Err(unexpected(&other).into()),
        }
    }

    /// One artifact's remote index record.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingArtifact`] if the remote index lacks the
    /// id; transport failures past the retry budget.
    pub fn record(&self, artifact_id: &str) -> Result<RegistryRecord> {
        match self.client.rpc(&Request::Offer { artifact_id: artifact_id.to_owned() })? {
            Response::Record { record } => Ok(record),
            Response::Error { code, text, num } => Err(self.remote_error(code, text, num)),
            other => Err(unexpected(&other).into()),
        }
    }

    /// One artifact's manifest bytes, hash-checked against its record
    /// with bounded re-fetching — corrupt bytes are never returned.
    fn fetch_manifest(&self, record: &RegistryRecord) -> Result<Vec<u8>> {
        let entry = manifest_relative(&record.artifact_id);
        let mut failures = 0u32;
        loop {
            let bytes = match self
                .client
                .rpc(&Request::Manifest { artifact_id: record.artifact_id.clone() })?
            {
                Response::Manifest { bytes } => bytes,
                Response::Error { code, text, num } => {
                    return Err(self.remote_error(code, text, num))
                }
                other => return Err(unexpected(&other).into()),
            };
            let actual = content_hash(&bytes);
            if actual == record.manifest_hash {
                return Ok(bytes);
            }
            let e =
                NetError::Corrupt { entry: entry.clone(), expected: record.manifest_hash, actual };
            self.client.note_failure(&mut failures, &e)?;
        }
    }

    /// Pull one artifact into `local` — the wire form of
    /// [`Registry::pull`], same want-list delta: fetch the record,
    /// ask `local` which objects it lacks, range-read only those
    /// (hash-checked, resumable), then install the manifest and record
    /// after presence-verifying the full closure.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingArtifact`] /
    /// [`StoreError::MissingObject`] as the local pull path, transport
    /// failures past the retry budget.
    pub fn pull_into(&self, local: &Registry, artifact_id: &str) -> Result<ShipReport> {
        let record = self.record(artifact_id)?;
        self.pull_record(local, &record)
    }

    /// [`RemoteRegistry::resolve`] + [`RemoteRegistry::pull_into`]:
    /// pull whatever currently serves `arch`. Returns the resolved
    /// record alongside the ship report.
    ///
    /// # Errors
    ///
    /// As [`RemoteRegistry::resolve`] and
    /// [`RemoteRegistry::pull_into`].
    pub fn pull_resolved(
        &self,
        local: &Registry,
        arch: SmArch,
    ) -> Result<(RegistryRecord, ShipReport)> {
        let record = self.resolve(arch)?;
        let report = self.pull_record(local, &record)?;
        Ok((record, report))
    }

    fn pull_record(&self, local: &Registry, record: &RegistryRecord) -> Result<ShipReport> {
        let manifest_bytes = self.fetch_manifest(record)?;
        let want = local.want(&ArtifactOffer { record: record.clone() });
        local.ensure_layout()?;
        let wanted = want.wanted.iter().map(|object| object.hash).collect();
        let report = ship_wanted(record, wanted, |object| {
            let bytes = self
                .client
                .get_object(&object.object_path(), object.hash, object.byte_len)?
                .ok_or_else(|| StoreError::MissingObject {
                    artifact_id: record.artifact_id.clone(),
                    hash: object.hash,
                })?;
            local.pool_object(object, &bytes)?;
            Ok(())
        })?;
        local.install_shipped(record, &manifest_bytes)?;
        Ok(report)
    }

    /// Push one local artifact to the remote — the wire form of
    /// [`Registry::push`]: the server's want-list bounds the upload,
    /// objects stream in chunks into a server-side staging area that is
    /// hash-checked before pooling, and the final install
    /// presence-verifies the closure server-side.
    ///
    /// # Errors
    ///
    /// As [`Registry::push`] locally, plus transport failures past the
    /// retry budget.
    pub fn push_from(&self, local: &Registry, artifact_id: &str) -> Result<ShipReport> {
        let offer = local.offer(artifact_id)?;
        let wanted = match self.client.rpc(&Request::Want { record: offer.record.clone() })? {
            Response::Want { hashes } => hashes.into_iter().collect(),
            Response::Error { code, text, num } => return Err(self.remote_error(code, text, num)),
            other => return Err(unexpected(&other).into()),
        };
        let report = ship_wanted(&offer.record, wanted, |object| {
            let bytes = local.object_bytes(artifact_id, object)?;
            self.put_object(object, &bytes)
        })?;
        let manifest_bytes = local.manifest_bytes(&offer.record)?;
        match self.client.rpc(&Request::Install { record: offer.record.clone(), manifest_bytes })? {
            Response::Ok => Ok(report),
            Response::Error { code, text, num } => Err(self.remote_error(code, text, num)),
            other => Err(unexpected(&other).into()),
        }
    }

    /// Upload one object in bounded chunks.
    fn put_object(&self, object: &ObjectRef, bytes: &[u8]) -> Result<()> {
        let chunk = self.client.policy.chunk_len as usize;
        let mut offset = 0usize;
        loop {
            let end = (offset + chunk).min(bytes.len());
            let req = Request::PutObject {
                hash: object.hash,
                total_len: object.byte_len,
                offset: offset as u64,
                bytes: bytes[offset..end].to_vec(),
            };
            match self.client.rpc(&req)? {
                Response::Ok => {}
                Response::Error { code, text, num } => {
                    return Err(self.remote_error(code, text, num))
                }
                other => return Err(unexpected(&other).into()),
            }
            offset = end;
            if offset >= bytes.len() {
                return Ok(());
            }
        }
    }

    /// Consume one remote artifact without pulling it into a local
    /// pool: the manifest is fetched once and checked against the
    /// record, then a [`StoredArtifact`] reads every plan and object
    /// byte through a wire-backed [`ObjectSource`], still hash-checked.
    ///
    /// # Errors
    ///
    /// As [`Registry::open`]; transport failures surface as
    /// [`StoreError::Io`] naming the remote path.
    pub fn open(&self, artifact_id: &str) -> Result<StoredArtifact> {
        let record = self.record(artifact_id)?;
        let path = format!("{}/{}", self.url, manifest_relative(artifact_id));
        let manifest = decode_manifest(self.fetch_manifest(&record)?, path)?;
        Ok(StoredArtifact::new(Arc::new(RemoteSource { remote: self.clone(), record }), manifest))
    }

    /// [`RemoteRegistry::open`] + [`StoredArtifact::verify`]: full
    /// cold re-verification straight over the wire.
    ///
    /// # Errors
    ///
    /// As [`RemoteRegistry::open`] and [`StoredArtifact::verify`].
    pub fn verify(&self, artifact_id: &str) -> Result<StoreVerification> {
        self.open(artifact_id)?.verify()
    }

    /// Rebuild the typed error a remote error response encodes.
    fn remote_error(&self, code: u8, text: String, num: u64) -> crate::NegativaError {
        match code {
            ERR_NOT_FOUND_ARTIFACT => {
                StoreError::MissingArtifact { artifact_id: text, registry: self.url.clone() }.into()
            }
            ERR_MISSING_OBJECT => StoreError::MissingObject { artifact_id: text, hash: num }.into(),
            ERR_NO_COMPATIBLE => {
                StoreError::NoCompatibleArtifact { arch: text, registry: self.url.clone() }.into()
            }
            _ => remote_net_error(code, &text, num).into(),
        }
    }
}

/// The wire-backed [`ObjectSource`]: `objects/<hash>.bin` resolved to
/// a range-read of that referenced object (the plan included, its
/// length pinned by the index record). [`StoredArtifact`] hash-checks
/// every byte on top of the client's own whole-object checks.
struct RemoteSource {
    remote: RemoteRegistry,
    record: RegistryRecord,
}

impl fmt::Debug for RemoteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteSource")
            .field("url", &self.remote.url)
            .field("artifact_id", &self.record.artifact_id)
            .finish_non_exhaustive()
    }
}

impl ObjectSource for RemoteSource {
    fn describe(&self, relative: &str) -> String {
        format!("{}/{}/{relative}", self.remote.url, self.record.artifact_id)
    }

    fn fetch(&self, relative: &str) -> io::Result<Option<Vec<u8>>> {
        // Anything the record does not reference does not exist remotely.
        let Some(object) = self.record.referenced().find(|object| object.object_path() == relative)
        else {
            return Ok(None);
        };
        self.remote
            .client
            .get_object(relative, object.hash, object.byte_len)
            .map_err(io::Error::other)
    }
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// Server-side idle poll granularity: how often a blocked connection
/// handler wakes to check the shutdown flag.
const SERVER_IDLE_POLL: Duration = Duration::from_millis(200);

/// Ceiling on one staged upload, mirroring the frame ceiling's intent:
/// a corrupt or hostile `total_len` cannot balloon server memory.
const MAX_STAGED_OBJECT: u64 = 256 * 1024 * 1024;

/// What the server threads share.
struct ServerShared {
    registry: RwLock<Registry>,
    root: PathBuf,
    shutdown: AtomicBool,
}

/// A loopback TCP server exposing one [`Registry`] over the framed
/// protocol: thread-per-connection, index reads and object streaming
/// under the read lock, installs under the write lock, every request
/// answered from a fresh index snapshot. Shuts down cleanly on
/// [`RegistryServer::shutdown`] or drop.
#[derive(Debug)]
pub struct RegistryServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerShared").field("root", &self.root).finish_non_exhaustive()
    }
}

impl RegistryServer {
    /// Bind `addr` (`host:port`; port 0 picks a free one) and serve
    /// `registry` until shutdown. Returns once the listener is bound —
    /// the accept loop runs on its own thread.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the bind fails.
    pub fn serve(registry: Registry, addr: &str) -> Result<RegistryServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| NetError::Io { addr: addr.to_owned(), detail: format!("bind: {e}") })?;
        let bound = listener.local_addr().map_err(|e| NetError::Io {
            addr: addr.to_owned(),
            detail: format!("local_addr: {e}"),
        })?;
        let root = registry.root().to_path_buf();
        let shared = Arc::new(ServerShared {
            registry: RwLock::new(registry),
            root,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let accept = thread::Builder::new()
            .name("registry-accept".into())
            .spawn(move || {
                for incoming in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    let conn_shared = accept_shared.clone();
                    let _ = thread::Builder::new()
                        .name("registry-conn".into())
                        .spawn(move || handle_connection(&conn_shared, stream));
                }
            })
            .map_err(|e| NetError::Io { addr: addr.to_owned(), detail: format!("spawn: {e}") })?;
        Ok(RegistryServer { addr: bound, shared, accept: Some(accept) })
    }

    /// The bound socket address (with the real port when bound to 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `tcp://host:port` URL clients connect to.
    pub fn url(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    /// Stop accepting, wake the accept loop, and join it. Connection
    /// handlers notice the flag at their next idle poll.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's request loop: framed requests in, framed responses
/// out, a per-connection upload staging area, clean exit on EOF,
/// shutdown flag, or transport failure.
fn handle_connection(shared: &ServerShared, mut stream: TcpStream) {
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "peer".into());
    stream.set_read_timeout(Some(SERVER_IDLE_POLL)).ok();
    stream.set_nodelay(true).ok();
    let mut staging: HashMap<u64, Vec<u8>> = HashMap::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let (kind, payload) = match read_frame(&mut stream, &peer) {
            Ok(Some((kind, payload, _))) => (kind, payload),
            Ok(None) => return,
            // Idle between frames: poll the shutdown flag and wait on.
            Err(NetError::Timeout { .. }) => continue,
            Err(_) => return,
        };
        let response = match Request::decode(kind, &payload) {
            Ok(request) => respond(shared, &mut staging, request),
            Err(e) => Response::Error { code: ERR_BAD_REQUEST, text: e.to_string(), num: 0 },
        };
        let (kind, payload) = response.encode();
        if write_frame(&mut stream, &peer, kind, &payload).is_err() {
            return;
        }
    }
}

/// Execute one request against the shared registry.
fn respond(
    shared: &ServerShared,
    staging: &mut HashMap<u64, Vec<u8>>,
    request: Request,
) -> Response {
    match request {
        Request::Ping => Response::Ok,
        Request::Records => {
            match shared.registry.read().expect("registry lock poisoned").artifacts() {
                Ok(records) => Response::Records { records },
                Err(e) => error_response(&e),
            }
        }
        Request::Resolve { arch } => {
            match shared.registry.read().expect("registry lock poisoned").resolve(SmArch(arch)) {
                Ok(record) => Response::Record { record },
                Err(e) => error_response(&e),
            }
        }
        Request::Offer { artifact_id } => {
            match shared.registry.read().expect("registry lock poisoned").record(&artifact_id) {
                Ok(record) => Response::Record { record },
                Err(e) => error_response(&e),
            }
        }
        Request::Manifest { artifact_id } => {
            let registry = shared.registry.read().expect("registry lock poisoned");
            match registry.record(&artifact_id).and_then(|record| registry.manifest_bytes(&record))
            {
                Ok(bytes) => Response::Manifest { bytes },
                Err(e) => error_response(&e),
            }
        }
        Request::GetObject { hash, offset, len } => {
            // Hold the read lock across the file read so a concurrent
            // GC sweep cannot delete the object mid-serve.
            let _guard = shared.registry.read().expect("registry lock poisoned");
            let relative = ObjectRef { hash, byte_len: 0 }.object_path();
            let internal = |e: io::Error| Response::Error {
                code: ERR_INTERNAL,
                text: format!("reading {relative}: {e}"),
                num: 0,
            };
            let (total_len, mut file) = match fs::File::open(shared.root.join(&relative))
                .and_then(|file| Ok((file.metadata()?.len(), file)))
            {
                Ok(opened) => opened,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    return Response::Error {
                        code: ERR_NOT_FOUND_OBJECT,
                        text: relative,
                        num: hash,
                    }
                }
                Err(e) => return internal(e),
            };
            if offset > total_len {
                return Response::Error {
                    code: ERR_BAD_REQUEST,
                    text: format!("offset {offset} past the end of {relative} ({total_len} bytes)"),
                    num: 0,
                };
            }
            // Read only the requested range, never the whole object.
            let len = (len as u64).min(MAX_FRAME_PAYLOAD as u64 / 2).min(total_len - offset);
            let mut bytes = vec![0; len as usize];
            match file.seek(SeekFrom::Start(offset)).and_then(|_| file.read_exact(&mut bytes)) {
                Ok(()) => Response::Chunk { total_len, bytes },
                Err(e) => internal(e),
            }
        }
        Request::Want { record } => {
            let registry = shared.registry.read().expect("registry lock poisoned");
            let want = registry.want(&ArtifactOffer { record });
            Response::Want { hashes: want.wanted.iter().map(|object| object.hash).collect() }
        }
        Request::PutObject { hash, total_len, offset, bytes } => {
            if total_len > MAX_STAGED_OBJECT {
                return Response::Error {
                    code: ERR_BAD_REQUEST,
                    text: format!("staged object of {total_len} bytes exceeds {MAX_STAGED_OBJECT}"),
                    num: 0,
                };
            }
            let staged = staging.entry(hash).or_default();
            // Idempotent under client retries: a chunk that re-sends
            // already-staged bytes is acknowledged, not re-appended.
            if offset + bytes.len() as u64 <= staged.len() as u64 {
                return Response::Ok;
            }
            if offset != staged.len() as u64 || offset + bytes.len() as u64 > total_len {
                let detail = format!(
                    "upload chunk at offset {offset} does not extend the {} staged bytes \
                     of object {hash:#018x} (total {total_len})",
                    staged.len()
                );
                staging.remove(&hash);
                return Response::Error { code: ERR_BAD_REQUEST, text: detail, num: 0 };
            }
            staged.extend_from_slice(&bytes);
            if (staged.len() as u64) < total_len {
                return Response::Ok;
            }
            // Complete: hash-check before anything touches the pool —
            // a corrupt upload is dropped, never installed.
            let staged = staging.remove(&hash).expect("just staged");
            let object = ObjectRef { hash, byte_len: total_len };
            let actual = content_hash(&staged);
            if actual != hash {
                return Response::Error {
                    code: ERR_CORRUPT,
                    text: object.object_path(),
                    num: actual,
                };
            }
            let registry = shared.registry.write().expect("registry lock poisoned");
            match registry.ensure_layout().and_then(|()| registry.pool_object(&object, &staged)) {
                Ok(_) => Response::Ok,
                Err(e) => error_response(&e),
            }
        }
        Request::Install { record, manifest_bytes } => {
            let registry = shared.registry.write().expect("registry lock poisoned");
            match registry.install_shipped(&record, &manifest_bytes) {
                Ok(()) => Response::Ok,
                Err(e) => error_response(&e),
            }
        }
    }
}

/// Map a registry-side failure to its wire error response.
fn error_response(e: &crate::NegativaError) -> Response {
    use crate::NegativaError;
    match e {
        NegativaError::Store(StoreError::MissingArtifact { artifact_id, .. }) => {
            Response::Error { code: ERR_NOT_FOUND_ARTIFACT, text: artifact_id.clone(), num: 0 }
        }
        NegativaError::Store(StoreError::MissingObject { artifact_id, hash }) => {
            Response::Error { code: ERR_MISSING_OBJECT, text: artifact_id.clone(), num: *hash }
        }
        NegativaError::Store(StoreError::NoCompatibleArtifact { arch, .. }) => {
            Response::Error { code: ERR_NO_COMPATIBLE, text: arch.clone(), num: 0 }
        }
        other => Response::Error { code: ERR_INTERNAL, text: other.to_string(), num: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_fixture() -> RegistryRecord {
        RegistryRecord {
            artifact_id: "torch-sm75-aabb-ccdd".into(),
            manifest_hash: 0x1122_3344_5566_7788,
            plan: ObjectRef { hash: 0xaa, byte_len: 123 },
            published_ns: 42,
            objects: vec![
                ObjectRef { hash: 0xbb, byte_len: 456 },
                ObjectRef { hash: 0xcc, byte_len: 789 },
            ],
        }
    }

    /// One example of every request verb.
    fn request_cases() -> Vec<Request> {
        let record = record_fixture();
        vec![
            Request::Ping,
            Request::Resolve { arch: 75 },
            Request::Offer { artifact_id: "a-b".into() },
            Request::Manifest { artifact_id: "a-b".into() },
            Request::GetObject { hash: 7, offset: 1024, len: 4096 },
            Request::Records,
            Request::Want { record: record.clone() },
            Request::PutObject { hash: 9, total_len: 10, offset: 4, bytes: vec![1, 2, 3] },
            Request::Install { record, manifest_bytes: b"{}".to_vec() },
        ]
    }

    /// One example of every response verb.
    fn response_cases() -> Vec<Response> {
        let record = record_fixture();
        vec![
            Response::Ok,
            Response::Record { record: record.clone() },
            Response::Manifest { bytes: b"{}".to_vec() },
            Response::Chunk { total_len: 999, bytes: vec![4, 5, 6] },
            Response::Want { hashes: vec![1, 2, 3] },
            Response::Records { records: vec![record] },
            Response::Error { code: ERR_CORRUPT, text: "objects/x.bin".into(), num: 5 },
        ]
    }

    #[test]
    fn requests_and_responses_round_trip() {
        for request in request_cases() {
            let (kind, payload) = request.encode();
            assert_eq!(Request::decode(kind, &payload).unwrap(), request);
        }
        for response in response_cases() {
            let (kind, payload) = response.encode();
            assert_eq!(Response::decode(kind, &payload).unwrap(), response);
        }
    }

    /// The tag and payload every case encoded to before the verbs were
    /// declared once, kept verbatim (`<tag> <hex payload>`, one line per
    /// request case, then one per response case): protocol version 1's
    /// bytes must not move, and they must decode back to each case.
    #[test]
    fn every_verb_encodes_to_its_pinned_golden_payload() {
        let line = |tag: u8, payload: &[u8]| {
            let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
            format!("{tag} {hex}\n")
        };
        let mut rendered = String::new();
        for request in request_cases() {
            let (tag, payload) = request.encode();
            assert_eq!(Request::decode(tag, &payload).unwrap(), request);
            rendered += &line(tag, &payload);
        }
        for response in response_cases() {
            let (tag, payload) = response.encode();
            assert_eq!(Response::decode(tag, &payload).unwrap(), response);
            rendered += &line(tag, &payload);
        }
        assert_eq!(rendered, include_str!("../testdata/wire_payloads.txt"));
    }

    #[test]
    fn generated_requests_and_responses_round_trip() {
        let mut g = crate::arbitrary::Gen(0x0dd_ba11_5eed);
        for _ in 0..300 {
            for request in Request::arbitrary_each(&mut g) {
                let (tag, payload) = request.encode();
                assert_eq!(Request::decode(tag, &payload).unwrap(), request);
            }
            for response in Response::arbitrary_each(&mut g) {
                let (tag, payload) = response.encode();
                assert_eq!(Response::decode(tag, &payload).unwrap(), response);
            }
        }
    }

    #[test]
    fn counts_past_the_payload_and_trailing_bytes_are_malformed() {
        let (want, mut hostile) = Response::Want { hashes: vec![1, 2] }.encode();
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (records, mut short) = Response::Records { records: vec![record_fixture()] }.encode();
        short[..4].copy_from_slice(&2u32.to_le_bytes());
        let (chunk, mut trailing) = Response::Chunk { total_len: 1, bytes: vec![7] }.encode();
        trailing.push(0);
        for (tag, payload) in [(want, hostile), (records, short), (chunk, trailing), (127, vec![])]
        {
            let decoded = Response::decode(tag, &payload);
            assert!(matches!(decoded, Err(NetError::Malformed { .. })), "{tag}: {decoded:?}");
        }
    }

    #[test]
    fn frames_round_trip_and_count_bytes() {
        let (ping, _) = Request::Ping.encode();
        let mut wire = Vec::new();
        let sent = write_frame(&mut wire, "test", ping, b"hello").unwrap();
        assert_eq!(sent, (HEADER_LEN + 5) as u64);
        let mut cursor = &wire[..];
        let (kind, payload, received) = read_frame(&mut cursor, "test").unwrap().unwrap();
        assert_eq!(kind, ping);
        assert_eq!(payload, b"hello");
        assert_eq!(received, sent);
        // A second read on the drained stream is a clean EOF.
        assert!(read_frame(&mut cursor, "test").unwrap().is_none());
    }

    #[test]
    fn frame_errors_are_typed() {
        // Truncated header.
        let mut wire = Vec::new();
        write_frame(&mut wire, "test", Request::Ping.encode().0, b"payload").unwrap();
        let mut cursor = &wire[..HEADER_LEN - 3];
        assert_eq!(
            read_frame(&mut cursor, "test").unwrap_err(),
            NetError::Truncated { expected: HEADER_LEN as u64, got: (HEADER_LEN - 3) as u64 }
        );
        // Truncated payload.
        let mut cursor = &wire[..HEADER_LEN + 2];
        assert_eq!(
            read_frame(&mut cursor, "test").unwrap_err(),
            NetError::Truncated { expected: 7, got: 2 }
        );
        // Wrong protocol version.
        let mut bad = wire.clone();
        bad[4] = 9;
        bad[5] = 0;
        let mut cursor = &bad[..];
        assert_eq!(
            read_frame(&mut cursor, "test").unwrap_err(),
            NetError::ProtocolVersion { got: 9, want: PROTOCOL_VERSION }
        );
        // Oversized payload announcement.
        let mut bad = wire.clone();
        bad[8..12].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        let mut cursor = &bad[..];
        assert_eq!(
            read_frame(&mut cursor, "test").unwrap_err(),
            NetError::FrameTooLarge { len: MAX_FRAME_PAYLOAD + 1, max: MAX_FRAME_PAYLOAD }
        );
        // Bad magic.
        let mut bad = wire;
        bad[0] = b'X';
        let mut cursor = &bad[..];
        assert!(matches!(read_frame(&mut cursor, "test").unwrap_err(), NetError::Malformed { .. }));
    }

    #[test]
    fn urls_parse_strictly() {
        assert_eq!(parse_url("tcp://127.0.0.1:8080").unwrap(), "127.0.0.1:8080");
        for bad in ["http://127.0.0.1:80", "tcp://nohost", "tcp://h:notaport", "127.0.0.1:80"] {
            assert!(
                matches!(parse_url(bad), Err(NetError::InvalidUrl { .. })),
                "{bad} should not parse"
            );
        }
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = 0x1234 | 1;
        let mut b = 0x1234 | 1;
        for _ in 0..100 {
            let x = xorshift(&mut a);
            assert_eq!(x, xorshift(&mut b));
            assert_ne!(x, 0);
        }
    }

    #[test]
    fn retryability_splits_transport_from_content() {
        assert!(NetError::Truncated { expected: 1, got: 0 }.is_retryable());
        assert!(NetError::Malformed { detail: String::new() }.is_retryable());
        assert!(NetError::Timeout { addr: String::new(), detail: String::new() }.is_retryable());
        assert!(!NetError::Remote { detail: String::new() }.is_retryable());
        assert!(!NetError::Corrupt { entry: String::new(), expected: 1, actual: 2 }.is_retryable());
        assert!(!NetError::RetriesExhausted { attempts: 3, last: String::new() }.is_retryable());
    }

    #[test]
    fn get_object_serves_exactly_the_requested_range() {
        let root = std::env::temp_dir().join(format!("negativa-net-range-{}", std::process::id()));
        fs::remove_dir_all(&root).ok();
        let registry = Registry::at(&root);
        registry.ensure_layout().unwrap();
        // Past the per-frame cap, so one object spans several chunks
        // and a greedy request is clipped.
        let cap = MAX_FRAME_PAYLOAD as usize / 2;
        let mut state = 0x0bad_cafe;
        let bytes: Vec<u8> = (0..cap + DEFAULT_CHUNK_LEN as usize + 17)
            .map(|_| xorshift(&mut state) as u8)
            .collect();
        let object = ObjectRef { hash: content_hash(&bytes), byte_len: bytes.len() as u64 };
        registry.pool_object(&object, &bytes).unwrap();
        let shared = ServerShared {
            registry: RwLock::new(registry),
            root: root.clone(),
            shutdown: AtomicBool::new(false),
        };
        let total_len = bytes.len() as u64;
        let get = |hash: u64, offset: u64, len: u32| {
            respond(&shared, &mut HashMap::new(), Request::GetObject { hash, offset, len })
        };
        let chunk = |range: std::ops::Range<usize>| Response::Chunk {
            total_len,
            bytes: bytes[range].to_vec(),
        };

        let len = DEFAULT_CHUNK_LEN;
        let middle = bytes.len() / 2 + 3;
        let last = bytes.len() - 1;
        assert_eq!(get(object.hash, 0, len), chunk(0..len as usize));
        assert_eq!(get(object.hash, middle as u64, len), chunk(middle..middle + len as usize));
        assert_eq!(get(object.hash, last as u64, len), chunk(last..bytes.len()));
        assert_eq!(get(object.hash, 0, u32::MAX), chunk(0..cap), "clipped to the frame cap");
        assert_eq!(get(object.hash, total_len, len), chunk(bytes.len()..bytes.len()));
        assert!(matches!(
            get(object.hash, total_len + 1, len),
            Response::Error { code: ERR_BAD_REQUEST, .. }
        ));
        assert!(matches!(
            get(object.hash ^ 1, 0, len),
            Response::Error { code: ERR_NOT_FOUND_OBJECT, num, .. } if num == object.hash ^ 1
        ));
        fs::remove_dir_all(&root).ok();
    }
}
