//! Property tests: builder → parser round-trips, range algebra laws, and
//! occupancy accounting against a byte-serial oracle.
//!
//! The build environment is offline, so instead of the `proptest` crate
//! these properties are driven by a small deterministic xorshift PRNG:
//! every case is reproducible from its printed seed, and each property is
//! exercised across the same order of magnitude of cases the original
//! `proptest` configuration used.

use simelf::range::{complement_within, covered_bytes, covers, normalize};
use simelf::{Elf, ElfBuilder, ElfImage, FileRange, SymbolKind};

/// xorshift64* — deterministic, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

const CASES: u64 = 64;

fn case_name(i: usize) -> String {
    format!("fn_{i:04}")
}

/// 1..40 function bodies of 1..200 independently random nonzero bytes
/// each (per-byte randomness, so any in-body reorder/corruption in the
/// builder is visible to the round-trip compare).
fn gen_bodies(rng: &mut Rng) -> Vec<Vec<u8>> {
    let count = rng.range(1, 40) as usize;
    (0..count)
        .map(|_| {
            let len = rng.range(1, 200) as usize;
            (0..len).map(|_| rng.range(1, 256) as u8).collect()
        })
        .collect()
}

fn gen_ranges(rng: &mut Rng, count_max: u64, start_max: u64, len_max: u64) -> Vec<FileRange> {
    let count = rng.range(0, count_max) as usize;
    (0..count)
        .map(|_| {
            let s = rng.range(0, start_max);
            let l = rng.range(0, len_max);
            FileRange::new(s, s + l)
        })
        .collect()
}

fn build(bodies: &[Vec<u8>], fatbin: Option<Vec<u8>>) -> simelf::ElfImage {
    let mut b = ElfBuilder::new("libprop.so");
    for (i, body) in bodies.iter().enumerate() {
        b.function(case_name(i), body.clone());
    }
    if let Some(fb) = fatbin {
        b.fatbin(fb);
    }
    b.build().unwrap()
}

#[test]
fn build_parse_roundtrips_symbols() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let bodies = gen_bodies(&mut rng);
        let fatbin: Vec<u8> = {
            let len = rng.range(0, 512) as usize;
            (0..len).map(|_| rng.next() as u8).collect()
        };
        let img = build(&bodies, (!fatbin.is_empty()).then(|| fatbin.clone()));
        let elf = Elf::parse(img.bytes()).unwrap();
        let syms = elf.symbols().unwrap();
        assert_eq!(syms.len(), bodies.len(), "seed {seed}");
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(sym.name, case_name(i), "seed {seed}");
            assert_eq!(sym.kind, SymbolKind::Func, "seed {seed}");
            assert_eq!(sym.size, bodies[i].len() as u64, "seed {seed}");
            let got = &img.bytes()[sym.value as usize..(sym.value + sym.size) as usize];
            assert_eq!(got, bodies[i].as_slice(), "seed {seed}");
        }
        if !fatbin.is_empty() {
            let sec = elf.section_by_name(".nv_fatbin").unwrap();
            assert_eq!(elf.section_data(&sec), fatbin.as_slice(), "seed {seed}");
        }
    }
}

#[test]
fn function_ranges_are_disjoint_and_inside_text() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xD15C0);
        let bodies = gen_bodies(&mut rng);
        let img = build(&bodies, None);
        let elf = Elf::parse(img.bytes()).unwrap();
        let text = elf.section_by_name(".text").unwrap().file_range();
        let mut ranges = elf.function_ranges().unwrap();
        ranges.sort_by_key(|(_, r)| r.start);
        for window in ranges.windows(2) {
            assert!(!window[0].1.overlaps(&window[1].1), "seed {seed}");
        }
        for (_, r) in &ranges {
            assert!(covers(&[text], *r), "seed {seed}: {r} outside {text}");
        }
    }
}

#[test]
fn normalize_is_idempotent_and_preserves_coverage() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x0FF5E7);
        let ranges = gen_ranges(&mut rng, 50, 10_000, 200);
        let once = normalize(ranges.clone());
        let twice = normalize(once.clone());
        assert_eq!(once, twice, "seed {seed}");
        // Every input byte is still covered.
        for r in &ranges {
            assert!(covers(&once, *r), "seed {seed}");
        }
        // Canonical: sorted, disjoint, non-empty.
        for w in once.windows(2) {
            assert!(w[0].end < w[1].start, "seed {seed}: merged ranges touch: {} {}", w[0], w[1]);
        }
        for r in &once {
            assert!(!r.is_empty(), "seed {seed}");
        }
    }
}

#[test]
fn complement_partitions_window() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xC0817);
        let keep = gen_ranges(&mut rng, 30, 5_000, 100);
        let win_start = rng.range(0, 1000);
        let win_len = rng.range(0, 8000);
        let window = FileRange::new(win_start, win_start + win_len);
        let holes = complement_within(&keep, window);
        // keep∩window and holes are disjoint and together cover the window.
        let clipped: Vec<FileRange> = keep.iter().filter_map(|r| r.intersection(&window)).collect();
        let total = covered_bytes(&clipped) + covered_bytes(&holes);
        assert_eq!(total, window.len(), "seed {seed}");
        for h in &holes {
            for k in &clipped {
                assert!(!h.overlaps(k), "seed {seed}: hole {h} overlaps keep {k}");
            }
        }
    }
}

#[test]
fn zeroing_complement_preserves_kept_bytes() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x2E80);
        let bodies = gen_bodies(&mut rng);
        let mut img = build(&bodies, None);
        let elf = Elf::parse(img.bytes()).unwrap();
        let text = elf.section_by_name(".text").unwrap().file_range();
        let ranges = elf.function_ranges().unwrap();
        // Keep only even-indexed functions.
        let keep: Vec<FileRange> =
            ranges.iter().enumerate().filter(|(i, _)| i % 2 == 0).map(|(_, (_, r))| *r).collect();
        let holes = complement_within(&keep, text);
        let before: Vec<Vec<u8>> =
            keep.iter().map(|r| img.bytes()[r.start as usize..r.end as usize].to_vec()).collect();
        img.zero_ranges(&holes).unwrap();
        for (r, want) in keep.iter().zip(&before) {
            let got = &img.bytes()[r.start as usize..r.end as usize];
            assert_eq!(got, want.as_slice(), "seed {seed}");
        }
        // Odd-indexed bodies are gone.
        for (i, (_, r)) in ranges.iter().enumerate() {
            if i % 2 == 1 {
                assert!(img.is_zeroed(*r), "seed {seed}");
            }
        }
        // The image still parses and its symbols are intact.
        let reparsed = Elf::parse(img.bytes()).unwrap();
        assert_eq!(reparsed.symbols().unwrap().len(), bodies.len(), "seed {seed}");
    }
}

/// `range` clamped to `bytes`, as the image clamps it.
fn clamp(bytes: &[u8], range: FileRange) -> &[u8] {
    let end = (range.end as usize).min(bytes.len());
    let start = (range.start as usize).min(end);
    &bytes[start..end]
}

/// Byte-serial reference for [`ElfImage::occupied_bytes_in`].
fn oracle_occupied_bytes_in(bytes: &[u8], range: FileRange, block_size: u64) -> u64 {
    let block = usize::try_from(block_size).unwrap_or(usize::MAX);
    let occupied = clamp(bytes, range).chunks(block).filter(|b| b.iter().any(|&x| x != 0));
    occupied.map(|b| b.len() as u64).sum()
}

/// Byte-serial reference for [`ElfImage::nonzero_in`].
fn oracle_nonzero_in(bytes: &[u8], range: FileRange) -> u64 {
    clamp(bytes, range).iter().filter(|&&b| b != 0).count() as u64
}

/// Byte-serial reference for [`ElfImage::is_zeroed`].
fn oracle_is_zeroed(bytes: &[u8], range: FileRange) -> bool {
    range.end <= bytes.len() as u64 && clamp(bytes, range).iter().all(|&b| b == 0)
}

const PAGE: u64 = 4096;
const BLOCK_SIZES: [u64; 7] = [1, 3, 7, 8, 9, 4096, 4097];

/// `occupied_bytes_in` at every block size, `nonzero_in` and `is_zeroed`
/// over each of `ranges`, all equal the byte-serial oracles.
fn assert_ranges_match_oracle(bytes: &[u8], ranges: &[FileRange], what: &str) {
    let img = ElfImage::from_bytes("libocc.so", bytes.to_vec());
    for &r in ranges {
        for bs in BLOCK_SIZES {
            assert_eq!(
                img.occupied_bytes_in(r, bs),
                oracle_occupied_bytes_in(bytes, r, bs),
                "{what}: occupied_bytes_in {r} at block size {bs}"
            );
        }
        assert_eq!(img.nonzero_in(r), oracle_nonzero_in(bytes, r), "{what}: nonzero_in {r}");
        assert_eq!(img.is_zeroed(r), oracle_is_zeroed(bytes, r), "{what}: is_zeroed {r}");
    }
}

/// The whole image, a window past its end, and every unaligned window
/// around `focus`, against the oracles.
fn assert_matches_oracle(bytes: &[u8], focus: u64, what: &str) {
    let len = bytes.len() as u64;
    let mut ranges = vec![FileRange::new(0, len), FileRange::new(len, len + 8)];
    for lead in 0..9 {
        for tail in [0, 1, 8, 9, 17] {
            let start = focus.saturating_sub(lead);
            ranges.push(FileRange::new(start, (focus + tail).min(len + 3)));
        }
    }
    assert_ranges_match_oracle(bytes, &ranges, what);
}

#[test]
fn occupancy_and_nonzero_in_match_a_byte_serial_oracle() {
    const LENGTHS: [u64; 9] = [0, 1, 7, 8, 9, 4095, 4096, 4097, 3 * PAGE + 17];
    for (i, len) in LENGTHS.into_iter().enumerate() {
        let mut rng = Rng::new(i as u64 ^ 0x0CC0);
        let n = len as usize;
        let at = rng.range(0, len.max(1)) as usize;
        let mut single = vec![0u8; n];
        if n > 0 {
            single[at] = rng.range(1, 256) as u8;
        }
        let sparse: Vec<u8> = (0..n)
            .map(|_| if rng.range(0, 64) == 0 { rng.range(1, 256) as u8 } else { 0 })
            .collect();
        // Dense, with a zero byte one time in eight so words mix both kinds.
        let dense: Vec<u8> =
            (0..n).map(|_| if rng.range(0, 8) == 0 { 0 } else { rng.next() as u8 }).collect();
        for (fill, bytes) in
            [("zero", vec![0u8; n]), ("single", single), ("sparse", sparse), ("dense", dense)]
        {
            assert_matches_oracle(&bytes, at as u64, &format!("len {len}, {fill} fill"));
        }
    }
}

/// A lone byte whose value sits on an edge of the word-wise count: only
/// the lowest bit (`0x01`), all low bits (`0x7f`, the largest carry that
/// must not spill into the next byte), only the high bit (`0x80`), and
/// every bit (`0xff`).
#[test]
fn a_lone_edge_byte_is_counted_at_every_offset() {
    // A short image for the offsets inside the first words, a three-page
    // one for the page edges.
    let near_start = (0..64).map(|offset| (64 + 17, offset));
    let page_edges = (1..=3)
        .flat_map(|page| [page * PAGE - 1, page * PAGE, page * PAGE + 1])
        .map(|offset| (3 * PAGE + 17, offset));
    for (len, offset) in near_start.chain(page_edges) {
        for value in [0x01u8, 0x7f, 0x80, 0xff] {
            let mut bytes = vec![0u8; len as usize];
            bytes[offset as usize] = value;
            assert_matches_oracle(&bytes, offset, &format!("{value:#04x} at {offset} of {len}"));
        }
    }
}

/// An early exit that stops one word short, or skips the `len % 8`
/// tail, misses exactly one lone byte there. So put a lone byte at each
/// offset of a block's last word and of its tail, for every block size,
/// with the range starting on and off word alignment, and compare every
/// range that starts at the range start against the oracles.
#[test]
fn a_lone_byte_in_a_blocks_last_word_or_tail_is_seen() {
    for bs in BLOCK_SIZES {
        let tail_start = bs - bs % 8;
        for start in [0u64, 3] {
            let len = start + 2 * bs + 5;
            for offset in tail_start.saturating_sub(8)..bs {
                let mut bytes = vec![0u8; len as usize];
                bytes[(start + offset) as usize] = 0x80;
                let ends = [start + offset, start + offset + 1, start + bs, start + bs + 1, len];
                let ranges: Vec<FileRange> =
                    ends.into_iter().map(|end| FileRange::new(start, end)).collect();
                let what = format!("block size {bs}, range start {start}, byte at +{offset}");
                assert_ranges_match_oracle(&bytes, &ranges, &what);
                let img = ElfImage::from_bytes("libocc.so", bytes);
                let block = FileRange::new(start, start + bs);
                assert_eq!(img.occupied_bytes_in(block, bs), bs, "{what}");
                assert!(!img.is_zeroed(block), "{what}");
            }
        }
    }
}
