//! Generated values for the codec property tests: a deterministic
//! source over the crate's xorshift generator, and [`Arbitrary`] for
//! every field type the registry formats and the wire protocol carry.
//! Records, name-table enums and verbs get theirs from the same field
//! lists their codecs are derived from (`json_record!`, `json_names!`
//! and `wire_verbs!`), so a generator cannot miss a field either.

use fatbin::{FleetSpec, SmArch};
use simelf::FileRange;
use simml::ModelKind;

use crate::locate::{ElementRewrite, RewriteKind};
use crate::net::xorshift;

/// A deterministic value source, seeded by its one field.
pub(crate) struct Gen(pub(crate) u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        xorshift(&mut self.0) % n
    }

    pub(crate) fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }
}

/// A type whose values can be generated.
pub(crate) trait Arbitrary {
    fn arbitrary(g: &mut Gen) -> Self;
}

/// Any value of the type: the low bits of one xorshift step.
macro_rules! arbitrary_ints {
    ($($int:ty),*) => {$(
        impl Arbitrary for $int {
            fn arbitrary(g: &mut Gen) -> Self {
                xorshift(&mut g.0) as $int
            }
        }
    )*};
}

arbitrary_ints!(u8, u32, u64);

impl Arbitrary for bool {
    fn arbitrary(g: &mut Gen) -> Self {
        g.below(2) == 1
    }
}

/// Counts stay below 2^53, where a JSON number is exact.
impl Arbitrary for usize {
    fn arbitrary(g: &mut Gen) -> Self {
        g.below(1 << 53) as usize
    }
}

/// Short text over characters the encoders must escape or carry
/// through untouched.
impl Arbitrary for String {
    fn arbitrary(g: &mut Gen) -> Self {
        let len = g.below(8);
        (0..len)
            .map(|_| g.pick(&['a', 'Z', '7', '-', '"', '\\', '\n', '\u{1}', 'é', '😀']))
            .collect()
    }
}

/// Up to four values, often none.
impl<T: Arbitrary> Arbitrary for Vec<T> {
    fn arbitrary(g: &mut Gen) -> Self {
        let len = g.below(5);
        (0..len).map(|_| T::arbitrary(g)).collect()
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(g: &mut Gen) -> Self {
        bool::arbitrary(g).then(|| T::arbitrary(g))
    }
}

impl Arbitrary for FileRange {
    fn arbitrary(g: &mut Gen) -> Self {
        let (a, b) = (u64::arbitrary(g), u64::arbitrary(g));
        FileRange { start: a.min(b), end: a.max(b) }
    }
}

/// One to [`FleetSpec::MAX_MEMBERS`] architecture numbers, any `u32`.
impl Arbitrary for FleetSpec {
    fn arbitrary(g: &mut Gen) -> Self {
        let members = 1 + g.below(FleetSpec::MAX_MEMBERS as u64);
        let archs: Vec<SmArch> = (0..members).map(|_| SmArch(u32::arbitrary(g))).collect();
        FleetSpec::new(&archs).expect("1..=MAX_MEMBERS architectures form a fleet")
    }
}

impl Arbitrary for ModelKind {
    fn arbitrary(g: &mut Gen) -> Self {
        match g.below(4) {
            0 => ModelKind::MobileNetV2,
            1 => ModelKind::Transformer,
            2 => ModelKind::Llama2,
            _ => ModelKind::LeaderboardLlm {
                name: String::arbitrary(g),
                billions: g.below(10_000) as f64 / 10.0,
            },
        }
    }
}

impl Arbitrary for ElementRewrite {
    fn arbitrary(g: &mut Gen) -> Self {
        ElementRewrite {
            index: u32::arbitrary(g),
            flags_offset: u64::arbitrary(g),
            payload_range: FileRange::arbitrary(g),
            kind: if bool::arbitrary(g) {
                RewriteKind::ArchSlice
            } else {
                RewriteKind::CompressedSlice {
                    uncompressed_size: u64::arbitrary(g),
                    used_kernels: Vec::arbitrary(g),
                }
            },
        }
    }
}
