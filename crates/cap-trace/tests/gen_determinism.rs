//! Seed-determinism contract, one test per generator family.
//!
//! Every workload generator must be a pure function of its `u64` seed:
//! the same seed reproduces the identical load-address stream
//! bit-for-bit (the property downstream comparisons of predictors on
//! "the same trace" rest on), and different seeds must actually produce
//! different streams (the generator really consumes its entropy instead
//! of ignoring the RNG).

use cap_rand::rngs::StdRng;
use cap_rand::SeedableRng;
use cap_trace::alloc::LayoutPolicy;
use cap_trace::builder::TraceBuilder;
use cap_trace::gen::array::{ArrayConfig, ArrayWorkload};
use cap_trace::gen::call_site::{CallSiteConfig, CallSiteWorkload};
use cap_trace::gen::globals::{GlobalsConfig, GlobalsWorkload};
use cap_trace::gen::hash::{HashConfig, HashWorkload};
use cap_trace::gen::linked_list::{
    DoublyLinkedListConfig, DoublyLinkedListWorkload, LinkedListConfig, LinkedListWorkload,
};
use cap_trace::gen::matrix::{MatrixConfig, MatrixWorkload};
use cap_trace::gen::mix::MixWorkload;
use cap_trace::gen::random::{RandomConfig, RandomWorkload};
use cap_trace::gen::stack::{StackConfig, StackWorkload};
use cap_trace::gen::tree::{BinaryTreeConfig, BinaryTreeWorkload};
use cap_trace::gen::{SeatAllocator, Workload};

const LOADS: usize = 2_000;

/// Builds a workload from `seed` and returns its first `LOADS` load
/// addresses.
fn stream<W, F>(build: F, seed: u64) -> Vec<u64>
where
    W: Workload,
    F: Fn(cap_trace::gen::Seat, &mut StdRng) -> W,
{
    let mut seats = SeatAllocator::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wl = build(seats.next_seat(), &mut rng);
    let mut b = TraceBuilder::new();
    wl.emit(&mut b, &mut rng, LOADS);
    b.finish().loads().map(|l| l.addr).collect()
}

/// Asserts the two halves of the contract for one generator family.
fn assert_seed_contract<W, F>(family: &str, build: F)
where
    W: Workload,
    F: Fn(cap_trace::gen::Seat, &mut StdRng) -> W,
{
    let a = stream(&build, 0xC0FFEE);
    let b = stream(&build, 0xC0FFEE);
    assert_eq!(a, b, "{family}: same seed must replay the identical stream");
    let c = stream(&build, 0xDECAF);
    assert_ne!(
        a, c,
        "{family}: different seeds must produce different streams"
    );
}

#[test]
fn linked_list_is_seed_deterministic() {
    assert_seed_contract("linked_list", |seat, rng| {
        let cfg = LinkedListConfig {
            // A mutating list keeps consuming entropy during emission, so
            // the divergence check exercises emit-time randomness too.
            mutate_every_inverse: 50,
            layout: LayoutPolicy::Fragmented,
            ..LinkedListConfig::default()
        };
        LinkedListWorkload::new(cfg, seat, rng)
    });
}

#[test]
fn doubly_linked_list_is_seed_deterministic() {
    assert_seed_contract("doubly_linked_list", |seat, rng| {
        DoublyLinkedListWorkload::new(DoublyLinkedListConfig::default(), seat, rng)
    });
}

#[test]
fn binary_tree_is_seed_deterministic() {
    assert_seed_contract("tree", |seat, rng| {
        BinaryTreeWorkload::new(BinaryTreeConfig::default(), seat, rng)
    });
}

#[test]
fn call_site_is_seed_deterministic() {
    assert_seed_contract("call_site", |seat, rng| {
        let cfg = CallSiteConfig {
            // The noiseless pattern is structurally deterministic (call
            // sequence fixed by `pattern`); noise makes emission consume
            // entropy so the divergence half of the contract is real.
            noise_percent: 20,
            ..CallSiteConfig::default()
        };
        CallSiteWorkload::new(cfg, seat, rng)
    });
}

#[test]
fn noiseless_call_site_is_structurally_deterministic() {
    // Like matrix: with no noise the site pattern fixes the stream, so it
    // must be identical even across different seeds.
    let build = |seat: cap_trace::gen::Seat, rng: &mut StdRng| {
        CallSiteWorkload::new(CallSiteConfig::default(), seat, rng)
    };
    let a = stream(build, 1);
    let b = stream(build, 2);
    assert_eq!(a, b, "noiseless call-site stream is fixed by its pattern");
}

#[test]
fn globals_is_seed_deterministic() {
    assert_seed_contract("globals", |seat, rng| {
        GlobalsWorkload::new(GlobalsConfig::default(), seat, rng)
    });
}

#[test]
fn hash_is_seed_deterministic() {
    assert_seed_contract("hash", |seat, rng| {
        HashWorkload::new(HashConfig::default(), seat, rng)
    });
}

#[test]
fn stack_is_seed_deterministic() {
    assert_seed_contract("stack", |seat, rng| {
        StackWorkload::new(StackConfig::default(), seat, rng)
    });
}

#[test]
fn random_is_seed_deterministic() {
    assert_seed_contract("random", |seat, rng| {
        RandomWorkload::new(RandomConfig::default(), seat, rng)
    });
}

/// Array and matrix sweeps are structurally deterministic (their address
/// sequence is fixed by geometry), so seed divergence must come from the
/// randomized parts: skip/noise percentages and heap placement. Exercise
/// them with those knobs on, inside a mix so scheduling also draws from
/// the stream.
#[test]
fn array_with_skips_is_seed_deterministic() {
    assert_seed_contract("array", |seat, rng| {
        let cfg = ArrayConfig {
            skip_percent: 25,
            ..ArrayConfig::default()
        };
        ArrayWorkload::new(cfg, seat, rng)
    });
}

#[test]
fn matrix_is_structurally_deterministic() {
    // Matrix sweeps take nothing from the RNG by design (long fixed
    // strides): same seed must replay, and different seeds must replay
    // *too* — pin that stronger guarantee rather than a vacuous
    // divergence check.
    let build = |seat: cap_trace::gen::Seat, rng: &mut StdRng| {
        MatrixWorkload::new(MatrixConfig::default(), seat, rng)
    };
    let a = stream(build, 1);
    let b = stream(build, 2);
    assert_eq!(
        a, b,
        "matrix: address stream is fixed by geometry, independent of seed"
    );
}

#[test]
fn mix_is_seed_deterministic() {
    assert_seed_contract("mix", |seat, rng| {
        let mut seats = SeatAllocator::new();
        let _ = seats.next_seat(); // keep seat 0 distinct from the caller's
        let mut mix = MixWorkload::new(64);
        mix.add(
            Box::new(LinkedListWorkload::new(
                LinkedListConfig::default(),
                seat,
                rng,
            )),
            3,
        );
        mix.add(
            Box::new(HashWorkload::new(
                HashConfig::default(),
                seats.next_seat(),
                rng,
            )),
            2,
        );
        mix
    });
}

/// The catalog endpoints ride on the same contract: a spec's seed fully
/// determines its trace, and sibling specs differ.
#[test]
fn catalog_specs_obey_the_seed_contract() {
    let specs = cap_trace::suites::catalog();
    let a = specs[0].generate(LOADS);
    let b = specs[0].generate(LOADS);
    assert_eq!(a, b);
    let sibling = specs[1].generate(LOADS);
    assert_ne!(a, sibling, "sibling catalog traces must not be clones");
}
