//! Property tests: fatbin/cubin round-trips, layout consistency, and
//! call-graph closure laws.
//!
//! The build environment is offline, so instead of the `proptest` crate
//! these properties run over cases generated by a deterministic xorshift
//! PRNG; every failure is reproducible from its printed seed.

use std::collections::HashSet;

use fatbin::compress::{rle_compress, rle_decompress};
use fatbin::{
    extract, slice_compressed_payload, slice_kernels, Cubin, Element, Fatbin, KernelDef, Region,
    SmArch,
};

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

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.next() % one_in == 0
    }
}

const CASES: u64 = 48;

/// A cubin with 1..12 kernels, the first always an entry, random call
/// edges (all indices in range by construction).
fn gen_cubin(rng: &mut Rng, tag: usize) -> Cubin {
    let n = rng.range(1, 12) as usize;
    let mut defs = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("c{tag}_k{i}");
        let len = rng.range(1, 65) as usize;
        let code = vec![(i as u8).wrapping_add(1); len];
        let mut def = if i == 0 || rng.chance(2) {
            KernelDef::entry(name, code)
        } else {
            KernelDef::device(name, code)
        };
        let mut callees = Vec::new();
        for j in 0..n {
            if j != i && rng.chance(4) {
                callees.push(j as u32);
            }
        }
        def = def.with_callees(callees);
        defs.push(def);
    }
    Cubin::new(defs).expect("generated cubins are valid")
}

/// 1..4 regions of 1..6 elements each, mixing archs and compression.
fn gen_fatbin(rng: &mut Rng) -> Fatbin {
    let region_count = rng.range(1, 4) as usize;
    let mut tag = 0usize;
    let mut regions = Vec::with_capacity(region_count);
    for _ in 0..region_count {
        let elem_count = rng.range(1, 6) as usize;
        let mut elements = Vec::with_capacity(elem_count);
        for _ in 0..elem_count {
            tag += 1;
            let arch = SmArch::PAPER_SET[rng.range(0, 6) as usize];
            let cubin = gen_cubin(rng, tag);
            let element = if rng.chance(2) {
                Element::cubin_compressed(arch, &cubin).expect("valid")
            } else {
                Element::cubin(arch, &cubin).expect("valid")
            };
            elements.push(element);
        }
        regions.push(Region::new(elements));
    }
    Fatbin::new(regions)
}

#[test]
fn fatbin_roundtrips() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let fb = gen_fatbin(&mut rng);
        let bytes = fb.to_bytes();
        assert_eq!(bytes.len() as u64, fb.byte_len(), "seed {seed}");
        let back = Fatbin::parse(&bytes).unwrap();
        assert_eq!(back, fb, "seed {seed}");
    }
}

#[test]
fn layout_ranges_are_disjoint_ascending_and_cover() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x1A10);
        let fb = gen_fatbin(&mut rng);
        let layout = fb.element_layout();
        for w in layout.windows(2) {
            assert!(w[0].range.end <= w[1].range.start, "seed {seed}");
            assert_eq!(w[0].index + 1, w[1].index, "seed {seed}");
        }
        let total: u64 = fb.byte_len();
        if let Some(last) = layout.last() {
            assert!(last.range.end <= total, "seed {seed}");
        }
        for p in &layout {
            assert_eq!(p.payload_range.start, p.range.start + 32, "seed {seed}");
            assert_eq!(p.payload_range.end, p.range.end, "seed {seed}");
        }
    }
}

#[test]
fn extraction_indices_match_layout() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xE87AC7);
        let fb = gen_fatbin(&mut rng);
        let listing = extract(&fb.to_bytes()).unwrap();
        assert_eq!(listing.len(), fb.element_count(), "seed {seed}");
        for (item, (idx, el)) in listing.iter().zip(fb.elements()) {
            assert_eq!(item.index, idx, "seed {seed}");
            assert_eq!(item.arch, el.arch(), "seed {seed}");
            let cubin = el.decode_cubin().unwrap();
            let names: Vec<String> = cubin.kernel_names().iter().map(|s| s.to_string()).collect();
            assert_eq!(item.kernel_names, names, "seed {seed}");
        }
    }
}

#[test]
fn closure_is_monotone_and_contains_start() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xC705);
        let c = gen_cubin(&mut rng, 0);
        let n = c.kernels().len();
        for i in 0..n {
            let cl = c.launch_closure(i);
            assert!(cl.contains(&i), "seed {seed}");
            // Closure of closure adds nothing (idempotence).
            let mut expanded = cl.clone();
            for &j in &cl {
                expanded.extend(c.launch_closure(j));
            }
            assert_eq!(expanded, cl, "seed {seed}");
        }
        // Entry reachability is the union of entry closures.
        let reach = c.reachable_from_entries();
        for (i, k) in c.kernels().iter().enumerate() {
            if k.is_entry {
                assert!(reach.contains(&i), "seed {seed}");
            }
        }
    }
}

#[test]
fn compress_slice_recompress_decompress_roundtrips() {
    // The in-place rewrite pipeline: an arbitrary cubin is compressed,
    // sliced under an arbitrary used set, recompressed, and decompressed
    // again. The result must agree byte-for-byte with slicing the
    // uncompressed bytes directly, and a `None` must only ever mean
    // "nothing to slice" or "the recompressed stream outgrew the slot".
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x51ce);
        let cubin = gen_cubin(&mut rng, 0);
        let raw = cubin.to_bytes();
        let payload = rle_compress(&raw);
        let used: HashSet<String> =
            cubin.kernel_names().iter().filter(|_| rng.chance(2)).map(|s| s.to_string()).collect();

        // Ground truth: slice the uncompressed bytes directly.
        let mut expected = raw.clone();
        let expected_sliced = slice_kernels(&mut expected, &used).expect("raw slicing succeeds");

        match slice_compressed_payload(&payload, raw.len() as u64, &used).expect("valid stream") {
            Some(sliced) => {
                assert_eq!(sliced.code_bytes_sliced, expected_sliced, "seed {seed}");
                assert!(sliced.stream.len() <= payload.len(), "seed {seed}: slot overflow");
                let back = rle_decompress(&sliced.stream, raw.len()).expect("decodes");
                assert_eq!(back, expected, "seed {seed}: sliced bytes diverge");
                // The in-place write pads the slot's tail with zeros;
                // decoding must tolerate exactly that.
                let mut padded = sliced.stream.clone();
                padded.resize(payload.len(), 0);
                assert_eq!(rle_decompress(&padded, raw.len()).expect("decodes"), expected);
                // Every kernel is still listed (fingerprints stable).
                let listed = Cubin::parse(&back).expect("sliced cubin parses");
                assert_eq!(listed.kernel_names(), cubin.kernel_names(), "seed {seed}");
            }
            None => assert!(
                expected_sliced == 0 || rle_compress(&expected).len() > payload.len(),
                "seed {seed}: None must mean no-op or slot overflow"
            ),
        }
    }
}

#[test]
fn zeroing_any_payload_keeps_container_parseable() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x2E80ED);
        let fb = gen_fatbin(&mut rng);
        let mut bytes = fb.to_bytes();
        let layout = fb.element_layout();
        let p = &layout[rng.range(0, layout.len() as u64) as usize];
        bytes[p.payload_range.start as usize..p.payload_range.end as usize].fill(0);
        let listing = extract(&bytes).unwrap();
        assert_eq!(listing.len(), fb.element_count(), "seed {seed}");
        let cleared_count = listing.iter().filter(|i| i.cleared).count();
        assert_eq!(cleared_count, 1, "seed {seed}");
    }
}

/// `Element::is_cleared` equals a byte-serial "every payload byte is
/// zero" over payload lengths that cover every residue mod 64, with a
/// lone non-zero byte at the payload's first byte and at each offset of
/// its last word and its `len % 8` tail, where an early exit that stops
/// short would miss it.
#[test]
fn is_cleared_matches_a_byte_serial_oracle() {
    for code_len in 1..=130 {
        let cubin = Cubin::new(vec![KernelDef::entry("k", vec![1; code_len])]).expect("valid");
        let fb = Fatbin::new(vec![Region::new(vec![
            Element::cubin(SmArch::PAPER_SET[0], &cubin).expect("valid")
        ])]);
        let payload = fb.element_layout()[0].payload_range;
        let (start, len) = (payload.start as usize, payload.len() as usize);
        let last_word = (len - len % 8).saturating_sub(8);
        let lone = std::iter::once(0).chain(last_word..len).map(Some);
        for at in std::iter::once(None).chain(lone) {
            let mut bytes = fb.to_bytes();
            bytes[start..start + len].fill(0);
            if let Some(at) = at {
                bytes[start + at] = 0x80;
            }
            let parsed = Fatbin::parse(&bytes).expect("a zeroed payload still parses");
            let (_, element) = parsed.elements().next().expect("one element");
            let oracle = element.payload().iter().all(|&b| b == 0);
            assert_eq!(element.is_cleared(), oracle, "payload len {len}, byte at {at:?}");
            assert_eq!(oracle, at.is_none(), "payload len {len}, byte at {at:?}");
        }
    }
}
