//! The workspace's one source of seeded randomness: a SplitMix64 stream
//! and its finaliser.
//!
//! Every seeded stream (the workload generators, the property-test cases,
//! the CLI's replay rounds) draws from [`TestRng`], so a run is a pure
//! function of its seed; [`splitmix64`] is the same output function
//! applied to one value, for order-independent hashing of ids. Neither
//! is cryptographic.

/// SplitMix64's increment, `⌊2⁶⁴/φ⌋` made odd.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finaliser: a bijection on `u64` that spreads every input
/// bit over the output.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64's output for state `x` (the increment, then the
/// finaliser): a bijective hash, so distinct ids never collide.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    finalize(x.wrapping_add(GOLDEN_GAMMA))
}

/// Derives an independent stream seed from `(seed, index)` — used to give
/// every case of a property its own replayable seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    finalize(seed ^ index.wrapping_mul(GOLDEN_GAMMA))
}

/// Deterministic SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator whose entire stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// [`TestRng::new`] with its first draw discarded, so nearby seeds do
    /// not give nearby first outputs: the workload generators' stream.
    pub fn warmed(seed: u64) -> Self {
        let mut rng = TestRng::new(seed);
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        finalize(self.state)
    }

    /// Uniform draw from the half-open interval `[lo, hi)`, by
    /// multiply-shift.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` from `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(lo.into(), hi.into()) as u32
    }

    /// Uniform `u64` from `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u128;
        lo + (((self.next_u64() as u128) * span) >> 64) as u64
    }

    /// Fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// True with probability `pct`/100.
    pub fn percent(&mut self, pct: u32) -> bool {
        self.u32_in(0, 100) < pct
    }

    /// Fisher–Yates shuffle in place, from the end, each `j` drawn from
    /// `0..=i`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.usize_in(0, i + 1));
        }
    }

    /// Splits off an independent child stream (e.g. to hand a sub-seed to
    /// an `ear-workloads` generator).
    pub fn fork(&mut self) -> u64 {
        derive_seed(self.next_u64(), 0xF0F0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected_and_covered() {
        let mut rng = TestRng::new(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let x = rng.usize_in(2, 7);
            assert!((2..7).contains(&x));
            seen[x - 2] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn derive_seed_separates_indices() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_stream_is_the_output_function_of_its_states() {
        let mut rng = TestRng::new(5);
        for k in 0..8u64 {
            assert_eq!(
                rng.next_u64(),
                splitmix64(k.wrapping_mul(GOLDEN_GAMMA).wrapping_add(5))
            );
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<u32> = (0..100).collect();
        TestRng::warmed(5).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }
}
