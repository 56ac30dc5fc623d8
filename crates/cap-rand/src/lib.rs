//! In-repo deterministic randomness for the CAP reproduction.
//!
//! The whole repository must build and test **offline**: no registry, no
//! `rand` crate. This crate supplies the narrow PRNG surface the trace
//! generators and tests actually use, with a layout that intentionally
//! mirrors `rand`'s (`Rng`, `SeedableRng`, `rngs::StdRng`,
//! `seq::SliceRandom`) so call sites read identically.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a 64-bit state-increment generator, used to expand
//!   a single `u64` seed into larger state and to derive per-case seeds;
//! * [`Xoshiro256PlusPlus`] — the workhorse generator behind
//!   [`rngs::StdRng`]; 256 bits of state, seeded via SplitMix64 exactly as
//!   the xoshiro authors recommend.
//!
//! Every stream is a pure function of its `u64` seed, so any trace, test
//! case, or experiment in this repository replays bit-for-bit on any
//! machine. The [`check`] module builds a small shrink-free
//! property-testing harness (`cap_check`) on top.
//!
//! # Examples
//!
//! ```
//! use cap_rand::rngs::StdRng;
//! use cap_rand::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1999);
//! let die = rng.gen_range(1..=6);
//! assert!((1..=6).contains(&die));
//! let coin = rng.gen_bool(0.5);
//! let word: u64 = rng.gen();
//! let replay = StdRng::seed_from_u64(1999).gen_range(1..=6);
//! assert_eq!(die, replay);
//! let _ = (coin, word);
//! ```

#![warn(missing_docs)]

pub mod check;

/// A source of uniformly distributed 64-bit words.
///
/// Everything else ([`Rng`], [`seq::SliceRandom`], the distributions) is
/// derived from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    ///
    /// Uses the *high* half of `next_u64`: xoshiro's low bits are its
    /// weakest, and the high half keeps one call per draw.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with uniformly random bytes (little-endian word order).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&word[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a generator from an explicit `u64` seed.
///
/// Unlike `rand`, there is no entropy-based constructor *on purpose*:
/// every stream in this repository must be replayable from a seed that
/// appears in source or output.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64: Steele, Lea & Flood's 64-bit mixer-based generator.
///
/// Equidistributed over one full 2^64 period; primarily used here to
/// expand seeds (its outputs for sequential states are decorrelated, so
/// it is safe to seed many generators from `seed`, `seed+1`, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna, 2019).
///
/// 256 bits of state, period 2^256 − 1, passes BigCrush; the rotate-based
/// `++` output function scrambles the weak low bits of the underlying
/// xorshift state. This is the generator behind [`rngs::StdRng`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Builds a generator from raw state words.
    ///
    /// The all-zero state is the one fixed point of the transition
    /// function; it is remapped to a fixed non-zero state so the stream
    /// never degenerates.
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            // Arbitrary non-zero replacement: SplitMix64 expansion of 0.
            return Self::seed_from_u64(0);
        }
        Self { s }
    }

    /// The raw state words, for checkpointing. `from_state(x.state())`
    /// reproduces the generator at exactly this stream position.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }
}

impl SeedableRng for Xoshiro256PlusPlus {
    /// Seeds the 256-bit state from four successive SplitMix64 outputs,
    /// per the xoshiro reference implementation's guidance.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::seed_from_u64(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // Four SplitMix64 outputs are never all zero in practice, but the
        // transition function's fixed point must stay unreachable.
        if s == [0; 4] {
            return Self {
                s: [SplitMix64::GOLDEN_GAMMA, 0, 0, 0],
            };
        }
        Self { s }
    }
}

impl RngCore for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    /// The repository's standard generator: [`super::Xoshiro256PlusPlus`].
    ///
    /// A type alias (not a wrapper) so the underlying algorithm is part of
    /// the reproducibility contract: traces generated from a catalog seed
    /// are frozen bit-for-bit by `tests/known_answer.rs`.
    pub type StdRng = super::Xoshiro256PlusPlus;
}

/// Types that can be sampled uniformly from an [`RngCore`] via
/// [`Rng::gen`]. The analogue of `rand`'s `Standard` distribution.
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_small_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                // High bits of the word: xoshiro's strongest.
                (rng.next_u64() >> (64 - <$t>::BITS)) as $t
            }
        }
    )*};
}
impl_standard_small_uint!(u8, u16, u32);

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

macro_rules! impl_standard_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                <$u as Standard>::sample(rng) as $t
            }
        }
    )*};
}
impl_standard_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, i128 => u128, isize => usize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Sign bit of the word.
        (rng.next_u64() >> 63) == 1
    }
}

impl Standard for f64 {
    /// Uniform on `[0, 1)` with 53 bits of precision (multiply-based
    /// conversion from the high 53 bits).
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform on `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types [`Rng::gen_range`] can sample uniformly over an interval: the
/// integer primitives and floats.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[start, end)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self;
    /// Uniform draw from `[start, end]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self;
}

/// Ranges that [`Rng::gen_range`] can sample from, mirroring `rand`'s
/// `SampleRange`: `a..b` and `a..=b` over any [`SampleUniform`] type.
///
/// The single blanket impl per range shape (rather than one impl per
/// primitive) is what lets integer literals in `gen_range(0..100) <
/// some_u32` infer their type from the surrounding comparison, exactly
/// as with `rand`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        T::sample_inclusive(rng, start, end)
    }
}

/// Lemire's nearly-divisionless method: uniform draw from `[0, bound)`.
fn u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(bound);
    let mut low = m as u64;
    if low < bound {
        // Rejection threshold: 2^64 mod bound, computed without 128-bit
        // division.
        let threshold = bound.wrapping_neg() % bound;
        while low < threshold {
            m = u128::from(rng.next_u64()) * u128::from(bound);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, start: $t, end: $t) -> $t {
                assert!(start < end, "cannot sample from empty range");
                let span = end.wrapping_sub(start) as $u as u64;
                start.wrapping_add(u64_below(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: $t, end: $t) -> $t {
                assert!(start <= end, "cannot sample from empty range");
                let span = (end.wrapping_sub(start) as $u as u64).wrapping_add(1);
                if span == 0 {
                    // Full 64-bit domain.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(u64_below(rng, span) as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, start: $t, end: $t) -> $t {
                assert!(start < end, "cannot sample from empty range");
                start + <$t as Standard>::sample(rng) * (end - start)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, start: $t, end: $t) -> $t {
                // For floats the closed/half-open distinction is a single
                // representable value; treat both the same way.
                assert!(start <= end, "cannot sample from empty range");
                start + <$t as Standard>::sample(rng) * (end - start)
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`]. The analogue of `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rge: SampleRange<T>>(&mut self, range: Rge) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability must be in [0, 1], got {p}"
        );
        f64::sample(self) < p
    }

    /// Fills `dest` with uniformly random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Sequence-related sampling, mirroring `rand::seq`.
pub mod seq {
    use super::{u64_below, RngCore};

    /// Random operations on slices: the subset of `rand::seq::SliceRandom`
    /// the repository uses.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Uniformly permutes the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = u64_below(rng, (i + 1) as u64) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[u64_below(rng, self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    /// Published test vector: the first outputs of SplitMix64 from state 0
    /// (Vigna's reference `splitmix64.c`, also used by JDK's
    /// `SplittableRandom` tests).
    #[test]
    fn splitmix64_reference_vector() {
        let mut sm = SplitMix64::seed_from_u64(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(sm.next_u64(), 0xF88B_B8A8_724C_81EC);
    }

    /// xoshiro256++ reference: seeding the state with {1, 2, 3, 4} must
    /// reproduce the stream of Vigna's reference `xoshiro256plusplus.c`.
    #[test]
    fn xoshiro_reference_vector() {
        let mut x = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for e in expected {
            assert_eq!(x.next_u64(), e);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent seeds must decorrelate via SplitMix64");
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = rngs::StdRng::seed_from_u64(2);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..6 must be reachable");
        let mut edge = [false; 3];
        for _ in 0..1000 {
            edge[rng.gen_range(0usize..=2)] = true;
        }
        assert!(
            edge.iter().all(|&s| s),
            "inclusive upper bound must be reachable"
        );
    }

    #[test]
    fn gen_range_full_u64_domain() {
        let mut rng = rngs::StdRng::seed_from_u64(3);
        // Must not hang or panic: span overflows to 0 and falls back to
        // raw words.
        for _ in 0..10 {
            let _ = rng.gen_range(0u64..=u64::MAX);
            let _ = rng.gen_range(i64::MIN..=i64::MAX);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = rngs::StdRng::seed_from_u64(4);
        let _ = rng.gen_range(5u32..5);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn gen_bool_rejects_bad_probability() {
        let mut rng = rngs::StdRng::seed_from_u64(4);
        let _ = rng.gen_bool(1.5);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = rngs::StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(rng.gen_bool(1.0));
            assert!(!rng.gen_bool(0.0));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut rng = rngs::StdRng::seed_from_u64(6);
        for len in [0usize, 1, 7, 8, 9, 31] {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "8+ random bytes all zero");
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = rngs::StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle is astronomically unlikely to be identity"
        );
    }

    #[test]
    fn choose_respects_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(10);
        let empty: [u32; 0] = [];
        assert_eq!(empty.choose(&mut rng), None);
        let items = [1u32, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[(*items.choose(&mut rng).unwrap() - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zero_state_is_remapped() {
        let mut x = Xoshiro256PlusPlus::from_state([0; 4]);
        assert_ne!(x.next_u64() | x.next_u64() | x.next_u64(), 0);
    }
}
