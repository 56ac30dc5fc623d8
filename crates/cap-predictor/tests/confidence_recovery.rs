//! Confidence-loss and re-earn behaviour (§3.4): a saturated-confident
//! entry must stop speculating within at most two mispredictions —
//! immediately without hysteresis, two with — and must re-earn the right
//! to speculate through the paper's 2-of-3 counter discipline.

use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::confidence::SaturatingCounter;
use cap_predictor::types::{AddressPredictor, LoadContext, Prediction};

// --- Counter-level guarantees -------------------------------------------

#[test]
fn saturated_counter_without_hysteresis_drops_in_one_misprediction() {
    let mut c = SaturatingCounter::new(2, 3, false);
    for _ in 0..4 {
        c.on_correct();
    }
    assert_eq!(c.value(), 3, "saturated");
    c.on_incorrect();
    assert!(!c.is_confident(), "one misprediction must clear confidence");
    assert_eq!(c.value(), 0);
}

#[test]
fn saturated_counter_with_hysteresis_drops_within_two_mispredictions() {
    let mut c = SaturatingCounter::new(2, 3, true);
    for _ in 0..4 {
        c.on_correct();
    }
    c.on_incorrect();
    assert!(
        c.is_confident(),
        "hysteresis: first misprediction falls to the threshold, still confident"
    );
    c.on_incorrect();
    assert!(
        !c.is_confident(),
        "second misprediction must clear confidence"
    );
}

#[test]
fn confidence_is_re_earned_at_the_paper_threshold() {
    for hysteresis in [false, true] {
        let mut c = SaturatingCounter::new(2, 3, hysteresis);
        for _ in 0..4 {
            c.on_correct();
        }
        c.on_incorrect();
        c.on_incorrect();
        assert!(!c.is_confident());
        c.on_correct();
        assert!(!c.is_confident(), "one correct is not enough (threshold 2)");
        c.on_correct();
        assert!(
            c.is_confident(),
            "two corrects re-earn speculation (hysteresis={hysteresis})"
        );
    }
}

// --- End-to-end through a CAP predictor ---------------------------------

const IP: u64 = 0x400;
/// A globally stable load target (e.g. a repeatedly-dereferenced global);
/// the simplest context CAP learns, which keeps these tests about the
/// confidence machinery rather than Link-Table geometry.
const STABLE: u64 = 0x1000;

fn step(p: &mut CapPredictor, actual: u64) -> Prediction {
    let ctx = LoadContext::new(IP, 0, 0);
    let pred = p.predict(&ctx);
    p.update(&ctx, actual, &pred);
    pred
}

/// Trains on the stable address until the predictor has speculated
/// correctly several times in a row, i.e. its counter is saturated.
fn train_to_saturation(p: &mut CapPredictor) {
    let mut streak = 0;
    for _ in 0..64 {
        let pred = step(p, STABLE);
        if pred.speculate && pred.is_correct(STABLE) {
            streak += 1;
            if streak >= 4 {
                return;
            }
        } else {
            streak = 0;
        }
    }
    panic!("predictor never reached confident steady state");
}

#[test]
fn trained_cap_entry_stops_speculating_within_two_mispredictions() {
    for hysteresis in [false, true] {
        let mut cfg = CapConfig::paper_default();
        cfg.params.hysteresis = hysteresis;
        let mut p = CapPredictor::new(cfg);
        train_to_saturation(&mut p);

        // Feed addresses that contradict every prediction. Count actual
        // mispredictions (speculative accesses launched at wrong targets)
        // until speculation stops.
        let mut mispredictions = 0;
        for i in 0..16u64 {
            let actual = 0xDEAD_0000 + i * 0x40; // never what CAP predicts
            let pred = step(&mut p, actual);
            if !pred.speculate {
                break;
            }
            assert!(!pred.is_correct(actual));
            mispredictions += 1;
        }
        assert!(
            (1..=2).contains(&mispredictions),
            "speculation must stop within two mispredictions \
             (hysteresis={hysteresis}, took {mispredictions})"
        );
    }
}

#[test]
fn cap_entry_re_earns_speculation_after_relearning() {
    let mut p = CapPredictor::new(CapConfig::paper_default());
    train_to_saturation(&mut p);

    // Break the pattern until speculation stops.
    for i in 0..16u64 {
        let pred = step(&mut p, 0xDEAD_0000 + i * 0x40);
        if !pred.speculate {
            break;
        }
    }

    // Resume the original address. The entry must come back: first the LT
    // relearns the link (non-speculative correct predictions), then the
    // counter re-earns its threshold, and speculation resumes.
    let mut correct_before_speculation = 0;
    let mut resumed = false;
    for _ in 0..64 {
        let pred = step(&mut p, STABLE);
        if pred.speculate {
            resumed = true;
            break;
        }
        if pred.is_correct(STABLE) {
            correct_before_speculation += 1;
        }
    }
    assert!(resumed, "speculation must resume once the pattern returns");
    assert!(
        correct_before_speculation >= 2,
        "the paper's threshold demands at least two verified corrects \
         before speculating again (saw {correct_before_speculation})"
    );
}
