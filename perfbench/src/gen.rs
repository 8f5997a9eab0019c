//! Seeded input generation: a small deterministic PRNG, a Zipf sampler,
//! and the digest that shows two runs drew the same op sequence.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one purpose (`salt`) of one seed, so
    /// adding draws to one stream never shifts another.
    pub fn stream(seed: u64, salt: &str) -> Rng {
        Rng::new(seed ^ fnv1a(salt.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Digest of an op sequence: FNV-1a over each op's description, one
/// line per op.
pub fn digest<'a>(ops: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut text = Vec::new();
    for op in ops {
        text.extend_from_slice(op.as_bytes());
        text.push(b'\n');
    }
    fnv1a(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64) -> Vec<String> {
        let mut rng = Rng::stream(seed, "ops");
        let zipf = Zipf::new(40, 1.0);
        (0..500).map(|_| format!("{}:{}", zipf.sample(&mut rng), rng.below(8))).collect()
    }

    #[test]
    fn one_seed_generates_an_identical_sequence_twice() {
        let (a, b) = (sequence(7), sequence(7));
        assert_eq!(a, b);
        assert_eq!(digest(a.iter().map(String::as_str)), digest(b.iter().map(String::as_str)));
        let c = sequence(8);
        assert_ne!(a, c);
        assert_ne!(digest(a.iter().map(String::as_str)), digest(c.iter().map(String::as_str)));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(10, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..50).collect();
        Rng::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
