//! Property-based tests for the timing substrate, driven by the in-repo
//! `cap_check` harness.

use cap_rand::check;
use cap_rand::rngs::StdRng;
use cap_rand::{Rng, SeedableRng};
use cap_trace::builder::TraceBuilder;
use cap_trace::record::OpLatency;
use cap_uarch::capacity::{InOrderSlots, SlotTracker};
use cap_uarch::core::{run_trace, CoreConfig};
use cap_uarch::prelude::*;
use std::collections::BTreeMap;

/// Reference first-fit booking: every count ever booked, plus a floor
/// below which no request lands.
struct FirstFit {
    width: u32,
    used: BTreeMap<u64, u32>,
    floor: u64,
}

impl FirstFit {
    fn alloc(&mut self, at: u64) -> u64 {
        let mut cycle = at.max(self.floor);
        while self.used.get(&cycle).is_some_and(|&n| n >= self.width) {
            cycle += 1;
        }
        *self.used.entry(cycle).or_insert(0) += 1;
        cycle
    }
}

/// SlotTracker books exactly where the reference first-fit model does,
/// under random interleavings of requests and monotone retirements; so it
/// never books more than `width` events into one cycle nor before the
/// requested cycle.
#[test]
fn slot_tracker_respects_width() {
    check::run("slot_tracker_respects_width", |rng| {
        let width = rng.gen_range(1u32..8);
        let steps = rng.gen_range(1usize..300);
        let mut t = SlotTracker::new(width);
        let mut model = FirstFit {
            width,
            used: BTreeMap::new(),
            floor: 0,
        };
        for step in 0..steps {
            if rng.gen_range(0..8) == 0 {
                // Sometimes past every booking, emptying the window.
                let bound = model.floor + rng.gen_range(0u64..48);
                t.retire_below(bound);
                model.floor = bound;
            } else {
                let at = rng.gen_range(model.floor.saturating_sub(8)..model.floor + 64);
                let got = t.alloc(at);
                assert_eq!(got, model.alloc(at), "alloc({at}) at step {step}");
                assert!(got >= at);
                assert!(model.used[&got] <= width);
            }
        }
    });
}

/// InOrderSlots books exactly where the reference first-fit model does
/// under requests that never decrease: runs of equal requests, small
/// steps and jumps past every booking.
#[test]
fn in_order_slots_match_first_fit() {
    check::run("in_order_slots_match_first_fit", |rng| {
        let width = rng.gen_range(1u32..8);
        let steps = rng.gen_range(1usize..300);
        let mut t = InOrderSlots::new(width);
        let mut model = FirstFit {
            width,
            used: BTreeMap::new(),
            floor: 0,
        };
        let mut at = 0u64;
        for step in 0..steps {
            at += match rng.gen_range(0..4) {
                0 | 1 => 0,
                2 => rng.gen_range(1u64..4),
                _ => rng.gen_range(4u64..64),
            };
            let got = t.alloc(at);
            assert_eq!(got, model.alloc(at), "alloc({at}) at step {step}");
        }
    });
}

/// Cache hit/miss counts always sum to accesses; hit rate in [0,1].
#[test]
fn cache_accounting() {
    check::run("cache_accounting", |rng| {
        let addrs = check::vec_of(rng, 1..500, |r| r.gen::<u32>());
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            assoc: 2,
        });
        for (i, a) in addrs.iter().enumerate() {
            c.access(u64::from(*a));
            assert_eq!(c.hits() + c.misses(), (i + 1) as u64);
        }
        assert!((0.0..=1.0).contains(&c.hit_rate()));
    });
}

/// Repeating the same address after the first access always hits.
#[test]
fn cache_temporal_locality() {
    check::run("cache_temporal_locality", |rng| {
        let addr = rng.gen::<u32>();
        let repeats = rng.gen_range(1usize..20);
        let mut c = Cache::new(CacheConfig::paper_l1());
        c.access(u64::from(addr));
        for _ in 0..repeats {
            assert!(c.access(u64::from(addr)));
        }
    });
}

/// Branch predictors converge on any strongly biased branch.
#[test]
fn branch_predictor_learns_bias() {
    check::run("branch_predictor_learns_bias", |rng| {
        let taken = rng.gen::<bool>();
        let ip = rng.gen::<u32>();
        let mut p = HybridBranchPredictor::paper_default();
        for _ in 0..8 {
            p.update(u64::from(ip), 0, taken);
        }
        assert_eq!(p.predict(u64::from(ip), 0), taken);
    });
}

/// The core is deterministic and conserves instructions for any trace
/// shape; cycles are bounded below by instructions / width.
#[test]
fn core_conservation_laws() {
    check::run("core_conservation_laws", |rng| {
        let events = check::vec_of(rng, 1..300, |r| (r.gen_range(0u8..4), r.gen::<u32>()));
        let mut b = TraceBuilder::new();
        for (i, (kind, payload)) in events.iter().enumerate() {
            let ip = 0x400 + (i as u64 % 64) * 4;
            match kind {
                0 => b.load(ip, u64::from(*payload) & !3, 0),
                1 => b.store(ip, u64::from(*payload) & !3),
                2 => b.cond_branch(ip, payload % 2 == 0),
                _ => b.op(ip, OpLatency::Alu, None, [None, None]),
            }
        }
        let trace = b.finish();
        let cfg = CoreConfig::paper_default();
        let s1 = run_trace(&trace, &cfg, None, 0);
        let s2 = run_trace(&trace, &cfg, None, 0);
        assert_eq!(s1.cycles, s2.cycles, "timing must be deterministic");
        assert_eq!(s1.instructions as usize, trace.len());
        assert_eq!(s1.loads as usize, trace.load_count());
        // Can't commit more than `width` per cycle.
        assert!(
            s1.cycles >= (trace.len() as u64) / u64::from(cfg.width),
            "cycles {} below width bound",
            s1.cycles
        );
        assert!(s1.ipc() <= f64::from(cfg.width) + 1e-9);
    });
}

/// Address prediction never slows the core down by more than the
/// bounded replay overhead on random (unpredictable) streams.
#[test]
fn prediction_is_nearly_free_when_useless() {
    check::run_n("prediction_is_nearly_free_when_useless", 16, |rng| {
        let seed = rng.gen::<u64>();
        let mut inner = StdRng::seed_from_u64(seed);
        let mut b = TraceBuilder::new();
        for _ in 0..500 {
            b.load(0x40, (inner.gen::<u32>() as u64) & !3, 0);
        }
        let trace = b.finish();
        let cfg = CoreConfig::paper_default();
        let base = run_trace(&trace, &cfg, None, 0);
        let mut p = cap_predictor::hybrid::HybridPredictor::new(
            cap_predictor::hybrid::HybridConfig::paper_default(),
        );
        let with = run_trace(&trace, &cfg, Some(&mut p), 0);
        assert!(
            with.cycles as f64 <= base.cycles as f64 * 1.10,
            "{} vs {}",
            with.cycles,
            base.cycles
        );
    });
}
