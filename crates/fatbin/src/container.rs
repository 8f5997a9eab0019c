//! The region/element container layers of a fat binary.
//!
//! A `.nv_fatbin` section is a sequence of [`Region`]s; each region holds
//! [`Element`]s; each element header records the payload kind (SASS cubin
//! or PTX), the compute capability it targets, flags (compression), and
//! sizes. Element payloads survive compaction *in place*: Negativa-ML
//! zeroes the payload of removed elements but keeps headers walkable so
//! the CUDA loader can still iterate the container — [`Element::is_cleared`]
//! detects such holes.

use std::collections::HashSet;

use crate::arch::SmArch;
use crate::compress::{rle_compress, rle_decompress};
use crate::cubin::{slice_kernels, Cubin};
use crate::error::FatbinError;
use crate::Result;
use simelf::FileRange;

const REGION_MAGIC: u32 = 0xBA55_ED50;
const REGION_VERSION: u16 = 1;
/// Size in bytes of a serialized region header.
pub(crate) const REGION_HEADER_SIZE: usize = 24;
const ELEMENT_MAGIC: u16 = 0x50ED;
/// Size in bytes of a serialized element header.
pub(crate) const ELEMENT_HEADER_SIZE: usize = 32;
const FLAG_COMPRESSED: u8 = 0b1;
const FLAG_SLICED: u8 = 0b10;

/// Byte offset of the flags byte within a serialized element header
/// (after the u16 magic and the kind byte). Compaction marks an
/// arch-sliced element by OR-ing [`Element::SLICED_FLAG`] into the byte
/// at `element_range.start + ELEMENT_FLAGS_OFFSET`.
pub const ELEMENT_FLAGS_OFFSET: u64 = 3;

/// What an element's payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// PTX intermediate representation (JIT-compilable text).
    Ptx,
    /// SASS machine code packaged as a cubin.
    Cubin,
}

impl ElementKind {
    fn to_u8(self) -> u8 {
        match self {
            ElementKind::Ptx => 1,
            ElementKind::Cubin => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(ElementKind::Ptx),
            2 => Ok(ElementKind::Cubin),
            other => {
                Err(FatbinError::Malformed { reason: format!("unknown element kind {other}") })
            }
        }
    }
}

/// One fatbin element: header metadata plus a (possibly compressed)
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    kind: ElementKind,
    arch: SmArch,
    compressed: bool,
    /// Set by compaction on elements it removed for targeting an
    /// architecture outside the fleet (payload zeroed, header flagged).
    sliced: bool,
    /// Payload in stored form (compressed if `compressed`).
    payload: Vec<u8>,
    uncompressed_size: u64,
}

impl Element {
    /// Wrap a cubin, uncompressed.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`Cubin`]s; returns `Result` for
    /// forward compatibility with size limits.
    pub fn cubin(arch: SmArch, cubin: &Cubin) -> Result<Element> {
        let payload = cubin.to_bytes();
        Ok(Element {
            kind: ElementKind::Cubin,
            arch,
            compressed: false,
            sliced: false,
            uncompressed_size: payload.len() as u64,
            payload,
        })
    }

    /// Wrap a cubin with RLE compression (sets the compressed flag).
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`Cubin`]s.
    pub fn cubin_compressed(arch: SmArch, cubin: &Cubin) -> Result<Element> {
        let raw = cubin.to_bytes();
        let payload = rle_compress(&raw);
        Ok(Element {
            kind: ElementKind::Cubin,
            arch,
            compressed: true,
            sliced: false,
            uncompressed_size: raw.len() as u64,
            payload,
        })
    }

    /// Wrap PTX text (compressed — PTX is text and compresses well; real
    /// toolchains also store PTX compressed).
    pub fn ptx(arch: SmArch, text: &str) -> Element {
        let raw = text.as_bytes();
        Element {
            kind: ElementKind::Ptx,
            arch,
            compressed: true,
            sliced: false,
            uncompressed_size: raw.len() as u64,
            payload: rle_compress(raw),
        }
    }

    /// Payload kind.
    pub fn kind(&self) -> ElementKind {
        self.kind
    }

    /// Target compute capability.
    pub fn arch(&self) -> SmArch {
        self.arch
    }

    /// True if the payload is stored compressed.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// The flag bit compaction sets on arch-sliced elements; see
    /// [`ELEMENT_FLAGS_OFFSET`].
    pub const SLICED_FLAG: u8 = FLAG_SLICED;

    /// True if compaction flagged this element as removed for targeting
    /// an architecture outside the plan's fleet. Sliced elements also
    /// read back [`Element::is_cleared`] (their payload is zeroed); the
    /// flag records *why*.
    pub fn is_sliced(&self) -> bool {
        self.sliced
    }

    /// Stored payload bytes (compressed form if compressed).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Size of this element on disk: header plus stored payload.
    pub fn byte_len(&self) -> u64 {
        (ELEMENT_HEADER_SIZE + self.payload.len()) as u64
    }

    /// Uncompressed payload size (equals stored size when uncompressed).
    pub fn uncompressed_size(&self) -> u64 {
        self.uncompressed_size
    }

    /// True if the payload has been zeroed by compaction (a removed
    /// element whose header was kept walkable).
    pub fn is_cleared(&self) -> bool {
        is_zero(&self.payload)
    }

    /// Decompress (if needed) and return the raw payload bytes.
    ///
    /// # Errors
    ///
    /// [`FatbinError::BadCompression`] if the stored stream is corrupt.
    pub fn raw_payload(&self) -> Result<Vec<u8>> {
        if self.compressed {
            rle_decompress(&self.payload, self.uncompressed_size as usize)
        } else {
            Ok(self.payload.clone())
        }
    }

    /// Parse the payload as a [`Cubin`].
    ///
    /// # Errors
    ///
    /// [`FatbinError::Malformed`] if the element is PTX; decompression
    /// or cubin parse errors otherwise (including for cleared payloads).
    pub fn decode_cubin(&self) -> Result<Cubin> {
        if self.kind != ElementKind::Cubin {
            return Err(FatbinError::Malformed {
                reason: "element payload is PTX, not a cubin".into(),
            });
        }
        Cubin::parse(&self.raw_payload()?)
    }

    /// PTX text, if this is a PTX element.
    ///
    /// # Errors
    ///
    /// [`FatbinError::Malformed`] if the element is a cubin.
    pub fn ptx_text(&self) -> Result<String> {
        if self.kind != ElementKind::Ptx {
            return Err(FatbinError::Malformed {
                reason: "element payload is a cubin, not PTX".into(),
            });
        }
        Ok(String::from_utf8_lossy(&self.raw_payload()?).into_owned())
    }

    fn write_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&ELEMENT_MAGIC.to_le_bytes());
        out.push(self.kind.to_u8());
        let mut flags = 0u8;
        if self.compressed {
            flags |= FLAG_COMPRESSED;
        }
        if self.sliced {
            flags |= FLAG_SLICED;
        }
        out.push(flags);
        out.extend_from_slice(&(ELEMENT_HEADER_SIZE as u32).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.uncompressed_size.to_le_bytes());
        out.extend_from_slice(&self.arch.0.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    fn parse_at(bytes: &[u8], at: usize) -> Result<(Element, usize)> {
        if at + ELEMENT_HEADER_SIZE > bytes.len() {
            return Err(FatbinError::Truncated { context: "element header", offset: at });
        }
        let e = &bytes[at..at + ELEMENT_HEADER_SIZE];
        let magic = u16::from_le_bytes(e[0..2].try_into().expect("len 2"));
        if magic != ELEMENT_MAGIC {
            return Err(FatbinError::BadMagic { context: "element header", offset: at });
        }
        let kind = ElementKind::from_u8(e[2])?;
        let compressed = e[3] & FLAG_COMPRESSED != 0;
        let sliced = e[3] & FLAG_SLICED != 0;
        let header_size = u32::from_le_bytes(e[4..8].try_into().expect("len 4")) as usize;
        if header_size != ELEMENT_HEADER_SIZE {
            return Err(FatbinError::Malformed {
                reason: format!("element header size {header_size}"),
            });
        }
        let payload_size = u64::from_le_bytes(e[8..16].try_into().expect("len 8")) as usize;
        let uncompressed_size = u64::from_le_bytes(e[16..24].try_into().expect("len 8"));
        let arch = SmArch(u32::from_le_bytes(e[24..28].try_into().expect("len 4")));
        let body_start = at + ELEMENT_HEADER_SIZE;
        let body_end = body_start + payload_size;
        if body_end > bytes.len() {
            return Err(FatbinError::Truncated { context: "element payload", offset: body_start });
        }
        Ok((
            Element {
                kind,
                arch,
                compressed,
                sliced,
                payload: bytes[body_start..body_end].to_vec(),
                uncompressed_size,
            },
            body_end,
        ))
    }
}

/// The result of slicing a compressed cubin payload; see
/// [`slice_compressed_payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicedPayload {
    /// The recompressed stream. Always no longer than the original
    /// payload, so it fits the element's existing slot; the caller
    /// zero-fills the tail of the slot.
    pub stream: Vec<u8>,
    /// Previously non-zero code bytes zeroed in the decompressed form.
    pub code_bytes_sliced: u64,
}

/// True if every byte of `bytes` is zero: the same scan `simelf` runs
/// for page occupancy. Each step ORs the eight words of one 64-byte
/// stripe and the scan stops at the first non-zero stripe; the trailing
/// `len % 64` bytes are read as words, the last one zero-padded.
fn is_zero(bytes: &[u8]) -> bool {
    let word = |w: &[u8]| {
        let mut x = [0u8; 8];
        x[..w.len()].copy_from_slice(w);
        u64::from_ne_bytes(x)
    };
    let mut stripes = bytes.chunks_exact(64);
    stripes.all(|stripe| stripe.chunks_exact(8).fold(0, |acc, w| acc | word(w)) == 0)
        && stripes.remainder().chunks(8).all(|w| word(w) == 0)
}

/// Kernel-slice a **compressed** cubin payload for an in-place rewrite:
/// decompress the stored stream, zero the code of every kernel not
/// reachable from `used` ([`crate::cubin::slice_kernels`]), and
/// recompress. The element's declared `uncompressed_size` is unchanged —
/// only code bytes are zeroed, never removed — so the rewritten stream
/// decompresses to the same size and the cubin still parses with every
/// kernel listed.
///
/// Returns `None` when there is nothing to gain: every kernel is
/// reachable from `used`, or (pathologically) the recompressed stream
/// would not fit the original payload slot. The caller then leaves the
/// element untouched.
///
/// # Errors
///
/// Decompression errors as for [`crate::compress::rle_decompress`];
/// cubin parse errors as for [`Cubin::parse`].
pub fn slice_compressed_payload(
    payload: &[u8],
    uncompressed_size: u64,
    used: &HashSet<String>,
) -> Result<Option<SlicedPayload>> {
    let mut raw = rle_decompress(payload, uncompressed_size as usize)?;
    let code_bytes_sliced = slice_kernels(&mut raw, used)?;
    if code_bytes_sliced == 0 {
        return Ok(None);
    }
    let stream = rle_compress(&raw);
    if stream.len() > payload.len() {
        return Ok(None);
    }
    Ok(Some(SlicedPayload { stream, code_bytes_sliced }))
}

/// A fatbin region: a header plus a list of elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    elements: Vec<Element>,
}

impl Region {
    /// Create a region from elements.
    pub fn new(elements: Vec<Element>) -> Region {
        Region { elements }
    }

    /// The region's elements.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Serialized size: header plus all elements.
    pub fn byte_len(&self) -> u64 {
        REGION_HEADER_SIZE as u64 + self.elements.iter().map(Element::byte_len).sum::<u64>()
    }

    fn write_into(&self, out: &mut Vec<u8>) {
        let payload: u64 = self.elements.iter().map(Element::byte_len).sum();
        out.extend_from_slice(&REGION_MAGIC.to_le_bytes());
        out.extend_from_slice(&REGION_VERSION.to_le_bytes());
        out.extend_from_slice(&(REGION_HEADER_SIZE as u16).to_le_bytes());
        out.extend_from_slice(&payload.to_le_bytes());
        out.extend_from_slice(&(self.elements.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for e in &self.elements {
            e.write_into(out);
        }
    }

    fn parse_at(bytes: &[u8], at: usize) -> Result<(Region, usize)> {
        if at + REGION_HEADER_SIZE > bytes.len() {
            return Err(FatbinError::Truncated { context: "region header", offset: at });
        }
        let h = &bytes[at..at + REGION_HEADER_SIZE];
        let magic = u32::from_le_bytes(h[0..4].try_into().expect("len 4"));
        if magic != REGION_MAGIC {
            return Err(FatbinError::BadMagic { context: "region header", offset: at });
        }
        let count = u32::from_le_bytes(h[16..20].try_into().expect("len 4")) as usize;
        let mut cursor = at + REGION_HEADER_SIZE;
        let mut elements = Vec::with_capacity(count);
        for _ in 0..count {
            let (el, next) = Element::parse_at(bytes, cursor)?;
            elements.push(el);
            cursor = next;
        }
        Ok((Region { elements }, cursor))
    }
}

/// A whole fat binary: the contents of one `.nv_fatbin` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fatbin {
    regions: Vec<Region>,
}

/// The file placement of one element within its fatbin, as computed by
/// [`Fatbin::element_layout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementPlacement {
    /// 1-based global element index (the `cuobjdump` numbering the paper
    /// uses to map extracted cubins back to elements).
    pub index: u32,
    /// Range of header + payload, relative to the fatbin start.
    pub range: FileRange,
    /// Range of the payload alone (what compaction zeroes).
    pub payload_range: FileRange,
    /// Target architecture.
    pub arch: SmArch,
    /// Payload kind.
    pub kind: ElementKind,
}

impl Fatbin {
    /// Create from regions.
    pub fn new(regions: Vec<Region>) -> Fatbin {
        Fatbin { regions }
    }

    /// The regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Iterate all elements across regions with their 1-based global
    /// index.
    pub fn elements(&self) -> impl Iterator<Item = (u32, &Element)> {
        self.regions
            .iter()
            .flat_map(|r| r.elements().iter())
            .enumerate()
            .map(|(i, e)| (i as u32 + 1, e))
    }

    /// Number of elements across all regions.
    pub fn element_count(&self) -> usize {
        self.regions.iter().map(|r| r.elements().len()).sum()
    }

    /// Total serialized size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.regions.iter().map(Region::byte_len).sum()
    }

    /// Serialize to the on-disk form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len() as usize);
        for r in &self.regions {
            r.write_into(&mut out);
        }
        out
    }

    /// Parse the on-disk form.
    ///
    /// # Errors
    ///
    /// Structural errors as for the layer parsers; trailing garbage after
    /// the last region is rejected.
    pub fn parse(bytes: &[u8]) -> Result<Fatbin> {
        let mut regions = Vec::new();
        let mut cursor = 0;
        while cursor < bytes.len() {
            let (r, next) = Region::parse_at(bytes, cursor)?;
            regions.push(r);
            cursor = next;
        }
        Ok(Fatbin { regions })
    }

    /// Compute the placement (file range, arch, kind) of every element.
    ///
    /// Ranges are relative to the fatbin's first byte; callers embedding
    /// the fatbin in an ELF section add the section offset.
    pub fn element_layout(&self) -> Vec<ElementPlacement> {
        let mut out = Vec::with_capacity(self.element_count());
        let mut cursor = 0u64;
        let mut index = 0u32;
        for r in &self.regions {
            cursor += REGION_HEADER_SIZE as u64;
            for e in r.elements() {
                index += 1;
                let start = cursor;
                let payload_start = start + ELEMENT_HEADER_SIZE as u64;
                let end = start + e.byte_len();
                out.push(ElementPlacement {
                    index,
                    range: FileRange::new(start, end),
                    payload_range: FileRange::new(payload_start, end),
                    arch: e.arch(),
                    kind: e.kind(),
                });
                cursor = end;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cubin::KernelDef;

    fn cubin(tag: &str, n: usize) -> Cubin {
        Cubin::new(
            (0..n)
                .map(|i| {
                    if i == 0 {
                        KernelDef::entry(format!("{tag}_k{i}"), vec![i as u8 + 1; 50])
                    } else {
                        KernelDef::device(format!("{tag}_k{i}"), vec![i as u8 + 1; 30])
                    }
                })
                .collect(),
        )
        .unwrap()
    }

    fn sample() -> Fatbin {
        Fatbin::new(vec![
            Region::new(vec![
                Element::cubin(SmArch::SM75, &cubin("a", 3)).unwrap(),
                Element::cubin_compressed(SmArch::SM80, &cubin("b", 2)).unwrap(),
                Element::ptx(SmArch::SM90, ".version 8.0 .target sm_90 ..."),
            ]),
            Region::new(vec![Element::cubin(SmArch::SM75, &cubin("c", 1)).unwrap()]),
        ])
    }

    #[test]
    fn roundtrip() {
        let fb = sample();
        let bytes = fb.to_bytes();
        assert_eq!(bytes.len() as u64, fb.byte_len());
        let back = Fatbin::parse(&bytes).unwrap();
        assert_eq!(back, fb);
    }

    #[test]
    fn global_indices_are_one_based_across_regions() {
        let fb = sample();
        let idx: Vec<u32> = fb.elements().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![1, 2, 3, 4]);
    }

    #[test]
    fn layout_matches_serialization() {
        let fb = sample();
        let bytes = fb.to_bytes();
        for p in fb.element_layout() {
            // Re-parse the element at its claimed offset.
            let (el, end) = Element::parse_at(&bytes, p.range.start as usize).unwrap();
            assert_eq!(end as u64, p.range.end);
            assert_eq!(el.arch(), p.arch);
            assert_eq!(el.kind(), p.kind);
        }
    }

    #[test]
    fn compressed_cubin_decodes() {
        let c = cubin("z", 4);
        let el = Element::cubin_compressed(SmArch::SM80, &c).unwrap();
        assert!(el.is_compressed());
        assert_eq!(el.decode_cubin().unwrap(), c);
    }

    #[test]
    fn ptx_text_roundtrips() {
        let el = Element::ptx(SmArch::SM90, "hello ptx");
        assert_eq!(el.ptx_text().unwrap(), "hello ptx");
        assert!(el.decode_cubin().is_err());
    }

    #[test]
    fn cleared_payload_detected() {
        let fb = sample();
        let mut bytes = fb.to_bytes();
        let layout = fb.element_layout();
        let p = &layout[0];
        bytes[p.payload_range.start as usize..p.payload_range.end as usize].fill(0);
        let back = Fatbin::parse(&bytes).unwrap();
        let (_, el0) = back.elements().next().unwrap();
        assert!(el0.is_cleared());
        assert!(el0.decode_cubin().is_err());
        // Other elements still decode.
        let els: Vec<_> = back.elements().collect();
        assert!(!els[1].1.is_cleared());
        assert!(els[1].1.decode_cubin().is_ok());
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(Fatbin::parse(&bytes).is_err());
    }

    #[test]
    fn parse_rejects_bad_region_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(
            Fatbin::parse(&bytes),
            Err(FatbinError::BadMagic { context: "region header", .. })
        ));
    }

    #[test]
    fn empty_fatbin_roundtrips() {
        let fb = Fatbin::new(vec![]);
        assert_eq!(Fatbin::parse(&fb.to_bytes()).unwrap(), fb);
        assert_eq!(fb.element_count(), 0);
    }

    #[test]
    fn sliced_flag_round_trips_through_serialization() {
        let fb = sample();
        let mut bytes = fb.to_bytes();
        let layout = fb.element_layout();
        let p = &layout[0];
        // Compaction's on-disk protocol: zero the payload, OR the sliced
        // bit into the header flags byte.
        bytes[p.payload_range.start as usize..p.payload_range.end as usize].fill(0);
        bytes[(p.range.start + ELEMENT_FLAGS_OFFSET) as usize] |= Element::SLICED_FLAG;
        let back = Fatbin::parse(&bytes).unwrap();
        let els: Vec<_> = back.elements().collect();
        assert!(els[0].1.is_sliced());
        assert!(els[0].1.is_cleared());
        assert!(!els[1].1.is_sliced(), "other elements keep a clean flags byte");
        // And the flag survives a re-serialization of the parsed form.
        let again = Fatbin::parse(&back.to_bytes()).unwrap();
        assert!(again.elements().next().unwrap().1.is_sliced());
    }

    #[test]
    fn slice_compressed_payload_rewrites_within_the_slot() {
        let c = cubin("b", 3); // b_k0 entry, b_k1/b_k2 device kernels
        let el = Element::cubin_compressed(SmArch::SM80, &c).unwrap();
        let used: HashSet<String> = ["b_k0".to_string()].into_iter().collect();
        let sliced = slice_compressed_payload(el.payload(), el.uncompressed_size(), &used)
            .unwrap()
            .expect("unused device kernels should be sliced");
        assert_eq!(sliced.code_bytes_sliced, 60, "two 30-byte device kernels zeroed");
        assert!(sliced.stream.len() <= el.payload().len(), "must fit the original slot");

        // Apply the rewrite the way compaction does: stream at the start
        // of the payload slot, zero tail, sliced sizes unchanged.
        let mut slot = vec![0u8; el.payload().len()];
        slot[..sliced.stream.len()].copy_from_slice(&sliced.stream);
        let rewritten = Element {
            kind: ElementKind::Cubin,
            arch: SmArch::SM80,
            compressed: true,
            sliced: false,
            uncompressed_size: el.uncompressed_size(),
            payload: slot,
        };
        assert!(!rewritten.is_cleared());
        let back = rewritten.decode_cubin().unwrap();
        assert_eq!(back.kernel_names(), ["b_k0", "b_k1", "b_k2"], "every kernel still listed");
        let orig = el.decode_cubin().unwrap();
        assert_eq!(
            back.kernels()[0].code,
            orig.kernels()[0].code,
            "retained kernel code byte-identical"
        );
        assert!(back.kernels()[1].code.iter().all(|&b| b == 0));
        assert!(back.kernels()[2].code.iter().all(|&b| b == 0));
    }

    #[test]
    fn slice_compressed_payload_is_none_when_nothing_to_slice() {
        let c = cubin("b", 2);
        let el = Element::cubin_compressed(SmArch::SM80, &c).unwrap();
        let used: HashSet<String> = ["b_k0".to_string(), "b_k1".to_string()].into_iter().collect();
        assert_eq!(
            slice_compressed_payload(el.payload(), el.uncompressed_size(), &used).unwrap(),
            None
        );
    }

    #[test]
    fn slice_compressed_payload_propagates_corrupt_stream_errors() {
        let used: HashSet<String> = HashSet::new();
        let err = slice_compressed_payload(&[1, 2, 3], 100, &used).unwrap_err();
        assert!(matches!(err, FatbinError::TruncatedCompression { .. }), "got {err:?}");
    }
}
