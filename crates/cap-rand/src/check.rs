//! `cap_check` — a shrink-free, seeded property-test harness.
//!
//! The repository previously used `proptest`; offline builds cannot fetch
//! it, and its shrinking machinery is overkill for properties whose
//! inputs are already cheap to read from a panic message. `cap_check`
//! keeps the part that matters: run a property body many times over
//! seeded pseudo-random inputs, and make any failure exactly
//! reproducible.
//!
//! Each case gets its **own** [`StdRng`], seeded from a hash of the
//! property name and the case index. A failing case therefore replays in
//! isolation — set `CAP_CHECK_SEED` to the case seed printed on failure
//! and only that case runs. `CAP_CHECK_CASES` overrides the per-property
//! case count (e.g. `CAP_CHECK_CASES=2000` for a soak run).
//!
//! # Examples
//!
//! ```
//! use cap_rand::check;
//! use cap_rand::Rng;
//!
//! check::run("addition_commutes", |rng| {
//!     let a: u32 = rng.gen_range(0..1000);
//!     let b: u32 = rng.gen_range(0..1000);
//!     assert_eq!(a + b, b + a, "a={a} b={b}");
//! });
//! ```

use crate::rngs::StdRng;
use crate::{RngCore, SeedableRng, SplitMix64};

/// Cases per property when neither the caller nor `CAP_CHECK_CASES`
/// says otherwise. Chosen so the full workspace property suite stays in
/// the single-digit-seconds range; raise via the env var for soaking.
pub const DEFAULT_CASES: usize = 64;

/// Runs `property` over [`DEFAULT_CASES`] seeded cases (or
/// `CAP_CHECK_CASES` if set).
///
/// # Panics
///
/// Re-raises the property's panic after printing the case seed needed to
/// replay the failure.
pub fn run<F: FnMut(&mut StdRng)>(name: &str, property: F) {
    run_n(name, cases_from_env().unwrap_or(DEFAULT_CASES), property);
}

/// Runs `property` over exactly `cases` seeded cases (unless
/// `CAP_CHECK_CASES` overrides the count or `CAP_CHECK_SEED` pins a
/// single case).
///
/// # Panics
///
/// Re-raises the property's panic after printing the case seed needed to
/// replay the failure.
pub fn run_n<F: FnMut(&mut StdRng)>(name: &str, cases: usize, mut property: F) {
    if let Some(seed) = seed_from_env() {
        let mut rng = StdRng::seed_from_u64(seed);
        property(&mut rng);
        return;
    }
    let cases = cases_from_env().unwrap_or(cases);
    let base = fnv1a(name.as_bytes());
    for case in 0..cases {
        let case_seed = derive_seed(base, case as u64);
        let mut rng = StdRng::seed_from_u64(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "cap_check: property '{name}' failed on case {case}/{cases} \
                 (case seed {case_seed:#018x}); replay just this case with \
                 CAP_CHECK_SEED={case_seed:#x}"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Builds a `Vec` whose length is drawn from `len` and whose elements
/// come from `element` — the `proptest::collection::vec` idiom.
///
/// # Panics
///
/// Panics if `len` is an empty range.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: core::ops::Range<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    use crate::Rng;
    let n = rng.gen_range(len);
    (0..n).map(|_| element(rng)).collect()
}

/// Uniformly picks one of the listed values — the `prop_oneof`/`Just`
/// idiom for small enums.
///
/// # Panics
///
/// Panics if `options` is empty.
pub fn one_of<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    use crate::seq::SliceRandom;
    *options
        .choose(rng)
        .expect("one_of requires a non-empty option list")
}

/// Case-seed derivation: decorrelates (property, case) pairs by running
/// the property hash and case index through SplitMix64.
fn derive_seed(base: u64, case: u64) -> u64 {
    SplitMix64::seed_from_u64(base ^ case.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn cases_from_env() -> Option<usize> {
    parse_env_u64("CAP_CHECK_CASES").map(|n| n as usize)
}

fn seed_from_env() -> Option<u64> {
    parse_env_u64("CAP_CHECK_SEED")
}

fn parse_env_u64(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{var} must be a u64 (decimal or 0x-hex), got '{raw}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn runs_the_requested_number_of_cases() {
        let mut count = 0;
        run_n("counting", 17, |_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn cases_see_distinct_streams() {
        let mut firsts = Vec::new();
        run_n("distinct_streams", 32, |rng| firsts.push(rng.next_u64()));
        let unique: std::collections::BTreeSet<u64> = firsts.iter().copied().collect();
        assert_eq!(unique.len(), firsts.len());
    }

    #[test]
    fn reruns_are_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        run_n("replay", 8, |rng| a.push(rng.next_u64()));
        run_n("replay", 8, |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
    }

    #[test]
    fn properties_get_distinct_seeds() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        run_n("name_a", 4, |rng| a.push(rng.next_u64()));
        run_n("name_b", 4, |rng| b.push(rng.next_u64()));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn failures_propagate() {
        run_n("failing", 4, |rng| {
            let v: u64 = rng.gen();
            assert!(v == u64::MAX, "deliberate: {v}");
        });
    }

    #[test]
    fn vec_of_respects_length_range() {
        run_n("vec_of_len", 32, |rng| {
            let v = vec_of(rng, 3..9, |r| r.gen_range(0u32..5));
            assert!((3..9).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        });
    }

    #[test]
    fn one_of_only_returns_listed_options() {
        run_n("one_of", 64, |rng| {
            let v = one_of(rng, &[2u8, 4, 8]);
            assert!([2, 4, 8].contains(&v));
        });
    }
}
