//! Copy-on-write ELF images and occupancy accounting.
//!
//! Negativa-ML's compaction phase zeroes out unused byte ranges but keeps
//! every offset valid, so the debloated library is a drop-in replacement.
//! The *effective* savings then materialize in two ways the paper
//! measures:
//!
//! * **File size** — zeroed blocks can be hole-punched by the filesystem;
//!   [`ElfImage::occupied_bytes_in`] reports the footprint at a
//!   configurable block size.
//! * **Memory** — the loader never touches all-zero pages, so resident
//!   memory shrinks; `simcuda`'s loader uses the same block accounting.
//!
//! # Byte ownership
//!
//! Library images are multi-megabyte and the hot path fans one bundle out
//! to many requesters, so the raw file bytes live behind a shared
//! [`Arc`]: [`ElfImage::clone`] is a reference-count bump, never a byte
//! copy. The **ownership rule** is that at most one holder mutates, and
//! it pays for exclusivity exactly once: the zeroing methods go through
//! `Arc::make_mut`, which deep-copies the bytes only if the image is
//! currently shared (copy-on-write). In the debloat pipeline the single
//! mutation site is compaction; everything downstream of it — batch
//! fan-out, grouped responses, the artifact store — only ever clones
//! handles. [`ElfImage::shares_bytes_with`] and
//! [`ElfImage::is_sole_owner`] expose the sharing state so callers can
//! account copied vs. shared bytes.

use std::sync::Arc;

use crate::error::ElfError;
use crate::range::FileRange;
use crate::Result;

/// A copy-on-write ELF image that supports in-place surgical edits.
///
/// Produced by [`crate::ElfBuilder::build`]; the raw bytes are always a
/// parseable ELF64 file (see [`crate::Elf`]). Cloning shares the
/// underlying bytes; the first mutation of a shared image deep-copies
/// them (see the module docs for the ownership rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfImage {
    soname: String,
    bytes: Arc<Vec<u8>>,
}

impl ElfImage {
    /// Assemble from a soname and raw bytes (used by the builder).
    pub(crate) fn from_parts(soname: String, bytes: Vec<u8>) -> Self {
        ElfImage { soname, bytes: Arc::new(bytes) }
    }

    /// Wrap existing bytes as an image (e.g. a file read back from disk).
    pub fn from_bytes(soname: impl Into<String>, bytes: Vec<u8>) -> Self {
        ElfImage { soname: soname.into(), bytes: Arc::new(bytes) }
    }

    /// Wrap an already-shared byte buffer as an image without copying:
    /// the new image participates in the buffer's reference count, so
    /// callers holding one `Arc` per unique content (e.g. the artifact
    /// store's per-hash object cache) can hand out any number of images
    /// that all [`ElfImage::shares_bytes_with`] each other. The
    /// copy-on-write ownership rule is unchanged — the first mutation
    /// detaches.
    pub fn from_shared_bytes(soname: impl Into<String>, bytes: Arc<Vec<u8>>) -> Self {
        ElfImage { soname: soname.into(), bytes }
    }

    /// The shared object name this image was built with.
    pub fn soname(&self) -> &str {
        &self.soname
    }

    /// Borrow the raw file bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total file length in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// True if the file is empty (never the case for built images).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consume the image and take the raw bytes. Copies only if the
    /// bytes are still shared with another handle.
    pub fn into_bytes(self) -> Vec<u8> {
        Arc::try_unwrap(self.bytes).unwrap_or_else(|shared| (*shared).clone())
    }

    /// True if this image and `other` share one underlying byte buffer
    /// (the zero-copy fan-out invariant the service pins in tests).
    pub fn shares_bytes_with(&self, other: &ElfImage) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// True if no other handle references these bytes — the state in
    /// which mutation is free (no copy-on-write).
    pub fn is_sole_owner(&self) -> bool {
        Arc::strong_count(&self.bytes) == 1
    }

    /// Zero the bytes of `range` in place, deep-copying first if the
    /// bytes are shared (copy-on-write; see the module docs).
    ///
    /// # Errors
    ///
    /// [`ElfError::RangeOutOfBounds`] if the range extends past the
    /// file; a shared image is *not* unshared on this error.
    pub fn zero_range(&mut self, range: FileRange) -> Result<()> {
        if range.end > self.len() {
            return Err(ElfError::RangeOutOfBounds {
                start: range.start,
                end: range.end,
                len: self.len(),
            });
        }
        if range.is_empty() {
            return Ok(());
        }
        let bytes = Arc::make_mut(&mut self.bytes);
        bytes[range.start as usize..range.end as usize].fill(0);
        Ok(())
    }

    /// Zero every range in `ranges`; stops at the first error. An empty
    /// `ranges` is a no-op that keeps the bytes shared, so an untouched
    /// library survives compaction without a copy.
    ///
    /// # Errors
    ///
    /// [`ElfError::RangeOutOfBounds`] as for [`ElfImage::zero_range`];
    /// earlier ranges stay zeroed.
    pub fn zero_ranges(&mut self, ranges: &[FileRange]) -> Result<()> {
        for r in ranges {
            self.zero_range(*r)?;
        }
        Ok(())
    }

    /// Overwrite the bytes starting at `offset` with `bytes` in place,
    /// deep-copying first if shared (copy-on-write, exactly as
    /// [`ElfImage::zero_range`]). Compaction uses this for in-place
    /// element rewrites: recompressed payload streams and header flag
    /// updates. The file length never changes.
    ///
    /// # Errors
    ///
    /// [`ElfError::RangeOutOfBounds`] if `offset + bytes.len()` extends
    /// past the file; a shared image is *not* unshared on this error. An
    /// empty write is a no-op that keeps the bytes shared.
    pub fn write_range(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        let end = offset + bytes.len() as u64;
        if end > self.len() {
            return Err(ElfError::RangeOutOfBounds { start: offset, end, len: self.len() });
        }
        if bytes.is_empty() {
            return Ok(());
        }
        let dst = Arc::make_mut(&mut self.bytes);
        dst[offset as usize..end as usize].copy_from_slice(bytes);
        Ok(())
    }

    /// True if every byte of `range` is zero; false if `range` runs
    /// past the file.
    pub fn is_zeroed(&self, range: FileRange) -> bool {
        range.end <= self.len() && is_zero(self.clamped(range))
    }

    /// Block-granular occupied bytes within `range` (clamped to the
    /// file): the bytes of the `block_size`-aligned blocks (relative to
    /// the range start) that hold at least one non-zero byte. Models the
    /// pages a loader actually touches when reading this region; over the
    /// whole file at a 4 KiB block it is the file's footprint after
    /// hole punching. Each block's scan stops at its first non-zero
    /// 64-byte stripe.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn occupied_bytes_in(&self, range: FileRange, block_size: u64) -> u64 {
        assert!(block_size > 0, "block_size must be positive");
        let block = usize::try_from(block_size).unwrap_or(usize::MAX);
        self.clamped(range).chunks(block).filter(|b| !is_zero(b)).map(|b| b.len() as u64).sum()
    }

    /// Number of non-zero bytes within `range` (clamped to the file).
    /// The count is exact and runs eight bytes per step.
    pub fn nonzero_in(&self, range: FileRange) -> u64 {
        count_nonzero(self.clamped(range))
    }

    /// The bytes of `range`, clamped to the file.
    fn clamped(&self, range: FileRange) -> &[u8] {
        let end = range.end.min(self.len());
        &self.bytes[range.start.min(end) as usize..end as usize]
    }
}

/// Bytes read per step of [`is_zero`]: one cache line, eight words.
const STRIPE: usize = 64;

/// The native-endian 8-byte words of `bytes`; the trailing `len % 8`
/// bytes form one last word, zero-padded.
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let exact = bytes.chunks_exact(8);
    let tail = exact.remainder();
    let padded = (!tail.is_empty()).then(|| {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        u64::from_ne_bytes(word)
    });
    exact
        .map(|w| u64::from_ne_bytes(w.try_into().expect("chunks_exact yields 8 bytes")))
        .chain(padded)
}

/// True if every byte of `bytes` is zero. Each step ORs the eight words
/// of one [`STRIPE`] and the scan stops at the first non-zero stripe, so
/// a block that holds data costs one step and a zero block runs at
/// memory speed.
fn is_zero(bytes: &[u8]) -> bool {
    let mut stripes = bytes.chunks_exact(STRIPE);
    stripes.all(|stripe| words(stripe).fold(0, |acc, w| acc | w) == 0)
        && words(stripes.remainder()).all(|w| w == 0)
}

/// Exact number of non-zero bytes in `bytes`, one 8-byte word per step.
///
/// In each word, `(x & 0x7f..) + 0x7f..` sets a byte's high bit iff its
/// low seven bits are not all zero, and `| x` adds the bytes whose high
/// bit was already set. No byte carries into its neighbour, because
/// `0x7f + 0x7f < 0x100`, so the masked high bits are exactly the
/// non-zero bytes. The zero padding of the last word counts nothing.
fn count_nonzero(bytes: &[u8]) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    words(bytes).map(|x| u64::from(((((x & LOW7) + LOW7) | x) & HIGH).count_ones())).sum()
}

impl AsRef<[u8]> for ElfImage {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ElfBuilder;

    fn image() -> ElfImage {
        ElfBuilder::new("libocc.so")
            .function("f", vec![0xff; 3000])
            .function("g", vec![0xee; 3000])
            .build()
            .unwrap()
    }

    #[test]
    fn zero_range_zeroes() {
        let mut img = image();
        let r = FileRange::new(200, 264);
        assert!(!img.is_zeroed(r));
        img.zero_range(r).unwrap();
        assert!(img.is_zeroed(r));
    }

    #[test]
    fn zero_range_out_of_bounds() {
        let mut img = image();
        let len = img.len();
        let err = img.zero_range(FileRange::new(len - 1, len + 1)).unwrap_err();
        assert!(matches!(err, ElfError::RangeOutOfBounds { .. }));
    }

    /// The whole file's occupied bytes at page granularity.
    fn pages(img: &ElfImage) -> u64 {
        img.occupied_bytes_in(FileRange::new(0, img.len()), 4096)
    }

    #[test]
    fn occupancy_counts_blocks() {
        let whole = FileRange::new(0, 10000);
        let img = ElfImage::from_bytes("t", vec![0u8; 10000]);
        assert_eq!(pages(&img), 0);
        assert_eq!(img.nonzero_in(whole), 0);
        assert!(img.is_zeroed(whole));

        let mut bytes = vec![0u8; 10000];
        bytes[5000] = 1;
        let img = ElfImage::from_bytes("t", bytes);
        assert_eq!(pages(&img), 4096, "one occupied block");
        assert_eq!(img.nonzero_in(whole), 1);
        assert!(!img.is_zeroed(whole));
    }

    #[test]
    fn occupancy_partial_trailing_block() {
        let mut bytes = vec![0u8; 5000];
        bytes[4999] = 1;
        let img = ElfImage::from_bytes("t", bytes);
        assert_eq!(pages(&img), 5000 - 4096);
    }

    #[test]
    fn zeroing_shrinks_occupancy() {
        let mut img = image();
        let whole = FileRange::new(0, img.len());
        let (pages_before, nonzero_before) = (pages(&img), img.nonzero_in(whole));
        let ranges = crate::Elf::parse(img.bytes()).unwrap().function_ranges().unwrap();
        let (_, g_range) = ranges.iter().find(|(n, _)| n == "g").unwrap().clone();
        img.zero_range(g_range).unwrap();
        assert!(img.nonzero_in(whole) < nonzero_before);
        assert!(pages(&img) <= pages_before);
        assert_eq!(img.len(), whole.end, "file size never changes");
    }

    #[test]
    fn occupied_bytes_in_is_block_granular() {
        let mut bytes = vec![0u8; 8192];
        bytes[100] = 1; // first block occupied
        let img = ElfImage::from_bytes("t", bytes);
        let whole = FileRange::new(0, 8192);
        assert_eq!(img.occupied_bytes_in(whole, 4096), 4096);
        assert_eq!(img.occupied_bytes_in(FileRange::new(4096, 8192), 4096), 0);
        // Range-relative blocking: a window starting at the non-zero byte.
        assert_eq!(img.occupied_bytes_in(FileRange::new(100, 101), 4096), 1);
    }

    #[test]
    fn occupied_bytes_in_saturates_a_huge_block() {
        let img = ElfImage::from_bytes("t", vec![1u8; 16]);
        assert_eq!(img.occupied_bytes_in(FileRange::new(1, 10), u64::MAX), 9);
        assert_eq!(img.occupied_bytes_in(FileRange::new(0, 16), u64::MAX), 16);
    }

    #[test]
    fn nonzero_in_clamps() {
        let img = ElfImage::from_bytes("t", vec![1u8; 10]);
        assert_eq!(img.nonzero_in(FileRange::new(5, 50)), 5);
        assert_eq!(img.nonzero_in(FileRange::new(20, 30)), 0);
    }

    #[test]
    fn as_ref_and_into_bytes_agree() {
        let img = image();
        let len = img.len();
        assert_eq!(img.as_ref().len() as u64, len);
        assert_eq!(img.into_bytes().len() as u64, len);
    }

    #[test]
    fn clones_share_bytes_without_copying() {
        let img = image();
        assert!(img.is_sole_owner());
        let other = img.clone();
        assert!(img.shares_bytes_with(&other));
        assert!(!img.is_sole_owner());
        assert_eq!(img, other);
    }

    #[test]
    fn images_built_from_one_shared_buffer_share_bytes() {
        let bytes = Arc::new(image().into_bytes());
        let a = ElfImage::from_shared_bytes("a.so", bytes.clone());
        let b = ElfImage::from_shared_bytes("b.so", bytes.clone());
        assert!(a.shares_bytes_with(&b), "one buffer, two images, zero copies");
        assert!(!a.is_sole_owner(), "the caller's Arc still counts");
        // from_bytes, by contrast, always allocates a fresh buffer.
        let fresh = ElfImage::from_bytes("c.so", bytes.as_ref().clone());
        assert!(!fresh.shares_bytes_with(&a));
        // The ownership rule holds: mutating one shared image detaches
        // it without touching its siblings or the caller's buffer.
        let mut c = ElfImage::from_shared_bytes("c.so", bytes.clone());
        c.zero_range(FileRange::new(0, 4)).unwrap();
        assert!(!c.shares_bytes_with(&a));
        assert_eq!(a.bytes(), bytes.as_slice());
    }

    #[test]
    fn mutation_unshares_and_leaves_the_original_untouched() {
        let img = image();
        let mut copy = img.clone();
        let r = FileRange::new(200, 264);
        copy.zero_range(r).unwrap();
        assert!(!copy.shares_bytes_with(&img), "first write detaches the clone");
        assert!(copy.is_zeroed(r));
        assert!(!img.is_zeroed(r), "copy-on-write never touches the shared original");
        // A second write mutates in place: the copy already owns its bytes.
        assert!(copy.is_sole_owner());
    }

    #[test]
    fn empty_zeroing_keeps_bytes_shared() {
        let img = image();
        let mut copy = img.clone();
        copy.zero_ranges(&[]).unwrap();
        copy.zero_range(FileRange::new(100, 100)).unwrap();
        assert!(copy.shares_bytes_with(&img), "no-op zeroing must not pay for a copy");
    }

    #[test]
    fn write_range_overwrites_in_place() {
        let mut img = ElfImage::from_bytes("t", vec![0u8; 100]);
        img.write_range(10, &[1, 2, 3]).unwrap();
        assert_eq!(&img.bytes()[9..14], &[0, 1, 2, 3, 0]);
        assert_eq!(img.len(), 100, "file size never changes");
    }

    #[test]
    fn write_range_is_copy_on_write() {
        let img = image();
        let mut copy = img.clone();
        copy.write_range(200, &[0xAB; 8]).unwrap();
        assert!(!copy.shares_bytes_with(&img), "first write detaches the clone");
        assert_ne!(&img.bytes()[200..208], &[0xAB; 8], "original untouched");
    }

    #[test]
    fn failed_or_empty_write_does_not_unshare() {
        let img = image();
        let mut copy = img.clone();
        let len = copy.len();
        assert!(matches!(
            copy.write_range(len - 1, &[1, 2]).unwrap_err(),
            ElfError::RangeOutOfBounds { .. }
        ));
        assert!(copy.shares_bytes_with(&img), "failed write must not pay for a copy");
        copy.write_range(50, &[]).unwrap();
        assert!(copy.shares_bytes_with(&img), "empty write must not pay for a copy");
    }

    #[test]
    fn failed_zeroing_does_not_unshare() {
        let img = image();
        let mut copy = img.clone();
        let len = copy.len();
        assert!(copy.zero_range(FileRange::new(len, len + 1)).is_err());
        assert!(copy.shares_bytes_with(&img));
    }

    #[test]
    fn into_bytes_copies_only_when_shared() {
        let img = image();
        let shared = img.clone();
        let bytes = shared.into_bytes();
        assert_eq!(bytes, img.bytes(), "shared take copies, byte-identical");
        assert!(img.is_sole_owner(), "the last handle owns the original buffer again");
        let sole = img.bytes().to_vec();
        assert_eq!(img.into_bytes(), sole, "sole-owner take moves without copying");
    }
}
