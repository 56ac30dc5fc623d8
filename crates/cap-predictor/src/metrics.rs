//! Prediction metrics matching the paper's reporting (§4.2, §4.4).
//!
//! [`PredictorStats`] remains the compact accumulator the driving loops
//! and the service merge and snapshot, but it is no longer a parallel
//! accounting world: [`PredictorStats::record_with`] mirrors every
//! increment into a [`cap_obs`] registry under the `pred.*` names, and
//! [`PredictorStats::from_obs_snapshot`] reads the struct back *out* of
//! a registry snapshot — the struct is a view over the registry, and
//! the two reconcile exactly.

use crate::types::{PredSource, Prediction};
use cap_obs::{Obs, StatsSnapshot};

/// Registry counter names mirrored by [`PredictorStats::record_with`].
/// One name per struct field (selector states get one name per state).
pub mod names {
    /// Dynamic loads observed.
    pub const LOADS: &str = "pred.loads";
    /// Loads for which some address was predicted.
    pub const PREDICTIONS: &str = "pred.predictions";
    /// Speculative accesses launched.
    pub const SPEC_ACCESSES: &str = "pred.spec_accesses";
    /// Correct speculative accesses.
    pub const CORRECT_SPEC: &str = "pred.correct_spec";
    /// Correct predictions (speculated or not).
    pub const CORRECT_PREDICTIONS: &str = "pred.correct_predictions";
    /// Dual-predicted speculative accesses.
    pub const BOTH_PREDICTED_SPEC: &str = "pred.both_predicted_spec";
    /// Mis-selections.
    pub const MISS_SELECTIONS: &str = "pred.miss_selections";
    /// Selector state distribution, one counter per 2-bit state.
    pub const SELECTOR_STATES: [&str; 4] = [
        "pred.selector_state.0",
        "pred.selector_state.1",
        "pred.selector_state.2",
        "pred.selector_state.3",
    ];

    // --- component-level counters (recorded inside the predictors when
    // an `Obs` is attached via `AddressPredictor::set_obs`) ---

    /// Load Buffer hits at predict time.
    pub const LB_HIT: &str = "pred.lb.hit";
    /// Load Buffer misses at predict time.
    pub const LB_MISS: &str = "pred.lb.miss";
    /// Fresh Load Buffer entries allocated at update time.
    pub const LB_ALLOC: &str = "pred.lb.alloc";
    /// Link Table lookup hits on a warm history.
    pub const CAP_LT_HIT: &str = "cap.lt.hit";
    /// Link Table lookup misses on a warm history.
    pub const CAP_LT_MISS: &str = "cap.lt.miss";
    /// LT writes allocating an empty way.
    pub const CAP_LT_FILL: &str = "cap.lt.fill";
    /// LT writes re-confirming an existing link (steady state).
    pub const CAP_LT_REFRESH: &str = "cap.lt.refresh";
    /// LT writes retraining an existing context to a new base.
    pub const CAP_LT_RETRAIN: &str = "cap.lt.retrain";
    /// LT writes evicting a live different-tag entry (pollution, §3.5).
    pub const CAP_LT_REPLACE: &str = "cap.lt.replace";
    /// LT writes deferred by the pollution filter.
    pub const CAP_LT_DEFERRED: &str = "cap.lt.deferred";
    /// CAP confidence counter crossing up through its threshold.
    pub const CAP_CONF_PROMOTE: &str = "cap.conf.promote";
    /// CAP confidence counter dropping below its threshold.
    pub const CAP_CONF_DEMOTE: &str = "cap.conf.demote";
    /// Stride confidence counter crossing up through its threshold.
    pub const STRIDE_CONF_PROMOTE: &str = "stride.conf.promote";
    /// Stride confidence counter dropping below its threshold.
    pub const STRIDE_CONF_DEMOTE: &str = "stride.conf.demote";
    /// Stride state machine entering `Steady`.
    pub const STRIDE_STEADY_ENTER: &str = "stride.steady.enter";
    /// Stride state machine leaving `Steady`.
    pub const STRIDE_STEADY_EXIT: &str = "stride.steady.exit";
    /// Hybrid selector moves toward CAP.
    pub const HYBRID_SELECTOR_UP: &str = "hybrid.selector.up";
    /// Hybrid selector moves toward stride.
    pub const HYBRID_SELECTOR_DOWN: &str = "hybrid.selector.down";
}

/// Accumulated prediction statistics over a trace.
///
/// Terminology follows the paper exactly:
/// * **prediction rate** — speculative accesses (correct *and* incorrect)
///   as a fraction of all dynamic loads;
/// * **accuracy** — correct predictions as a fraction of speculative
///   accesses;
/// * **misprediction rate** — `1 − accuracy`;
/// * **correct-speculative rate** — correct speculative accesses out of
///   all dynamic loads (the Figure 9 metric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Dynamic loads observed.
    pub loads: u64,
    /// Loads for which some address was predicted (verified or not).
    pub predictions: u64,
    /// Speculative accesses launched.
    pub spec_accesses: u64,
    /// Speculative accesses whose address was correct.
    pub correct_spec: u64,
    /// Predictions (speculated or not) whose address was correct.
    pub correct_predictions: u64,
    // --- hybrid selector diagnostics (Figure 8) ---
    /// Speculative accesses where *both* components offered an address.
    pub both_predicted_spec: u64,
    /// Selector state distribution over `both_predicted_spec` accesses
    /// (index = counter value 0–3).
    pub selector_states: [u64; 4],
    /// Mis-selections: mispredicted speculative accesses where the *other*
    /// component had the correct address.
    pub miss_selections: u64,
}

impl PredictorStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Speculative accesses / loads.
    #[must_use]
    pub fn prediction_rate(&self) -> f64 {
        ratio(self.spec_accesses, self.loads)
    }

    /// Correct speculative accesses / speculative accesses.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct_spec, self.spec_accesses)
    }

    /// `1 − accuracy` (of speculative accesses).
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.spec_accesses == 0 {
            0.0
        } else {
            1.0 - self.accuracy()
        }
    }

    /// Correct speculative accesses / loads (Figure 9's metric).
    #[must_use]
    pub fn correct_spec_rate(&self) -> f64 {
        ratio(self.correct_spec, self.loads)
    }

    /// Correct selections / dual-predicted speculative accesses.
    #[must_use]
    pub fn correct_selection_rate(&self) -> f64 {
        if self.both_predicted_spec == 0 {
            1.0
        } else {
            1.0 - ratio(self.miss_selections, self.both_predicted_spec)
        }
    }

    /// Accounts one resolved load: the prediction made for it and its
    /// actual address. Used by every driving loop (trace-driven and the
    /// timing core). Equivalent to [`PredictorStats::record_with`] with
    /// telemetry off.
    pub fn record(&mut self, pred: &Prediction, actual: u64) {
        self.record_with(pred, actual, &Obs::off());
    }

    /// [`PredictorStats::record`], additionally mirroring every
    /// increment into `obs` under the [`names`] counters. With
    /// [`Obs::off`] each mirror call is a single branch.
    pub fn record_with(&mut self, pred: &Prediction, actual: u64, obs: &Obs) {
        self.loads += 1;
        obs.incr(names::LOADS);
        if pred.addr.is_some() {
            self.predictions += 1;
            obs.incr(names::PREDICTIONS);
            if pred.is_correct(actual) {
                self.correct_predictions += 1;
                obs.incr(names::CORRECT_PREDICTIONS);
            }
        }
        if pred.speculate {
            self.spec_accesses += 1;
            obs.incr(names::SPEC_ACCESSES);
            let correct = pred.is_correct(actual);
            if correct {
                self.correct_spec += 1;
                obs.incr(names::CORRECT_SPEC);
            }
            let d = &pred.detail;
            if d.stride_addr.is_some() && d.cap_addr.is_some() {
                self.both_predicted_spec += 1;
                obs.incr(names::BOTH_PREDICTED_SPEC);
                if let Some(state) = d.selector_state {
                    let state = usize::from(state.min(3));
                    self.selector_states[state] += 1;
                    obs.incr(names::SELECTOR_STATES[state]);
                }
                if !correct {
                    // Mis-selection: the other component had it right.
                    let other_correct = match pred.source {
                        PredSource::Cap => d.stride_addr == Some(actual),
                        PredSource::Stride => d.cap_addr == Some(actual),
                        _ => false,
                    };
                    if other_correct {
                        self.miss_selections += 1;
                        obs.incr(names::MISS_SELECTIONS);
                    }
                }
            }
        }
    }

    /// Reads the legacy struct back out of a registry snapshot: the
    /// inverse view of [`PredictorStats::record_with`]'s mirroring.
    /// Counters a run never touched read as 0, exactly as the
    /// accumulator would hold them.
    #[must_use]
    pub fn from_obs_snapshot(snap: &StatsSnapshot) -> Self {
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        let mut selector_states = [0u64; 4];
        for (slot, name) in selector_states.iter_mut().zip(names::SELECTOR_STATES) {
            *slot = counter(name);
        }
        Self {
            loads: counter(names::LOADS),
            predictions: counter(names::PREDICTIONS),
            spec_accesses: counter(names::SPEC_ACCESSES),
            correct_spec: counter(names::CORRECT_SPEC),
            correct_predictions: counter(names::CORRECT_PREDICTIONS),
            both_predicted_spec: counter(names::BOTH_PREDICTED_SPEC),
            selector_states,
            miss_selections: counter(names::MISS_SELECTIONS),
        }
    }

    /// Merges another accumulator into this one (suite-level averaging).
    /// Saturates: each restored count may lie just below [`MAX_COUNT`],
    /// and five of those overflow a `u64`.
    pub fn merge(&mut self, other: &PredictorStats) {
        let add = |a: &mut u64, b: u64| *a = a.saturating_add(b);
        add(&mut self.loads, other.loads);
        add(&mut self.predictions, other.predictions);
        add(&mut self.spec_accesses, other.spec_accesses);
        add(&mut self.correct_spec, other.correct_spec);
        add(&mut self.correct_predictions, other.correct_predictions);
        add(&mut self.both_predicted_spec, other.both_predicted_spec);
        for (a, b) in self.selector_states.iter_mut().zip(other.selector_states) {
            add(a, b);
        }
        add(&mut self.miss_selections, other.miss_selections);
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

/// Restore ceiling on every count. No run comes near it, and it leaves
/// the next run's `+= 1` three times that much headroom.
pub const MAX_COUNT: u64 = 1 << 62;

/// Reads a restored count and rejects one at or above [`MAX_COUNT`].
///
/// # Errors
///
/// A decode failure, or `BadValue` for a count at or above the ceiling.
pub fn take_count(r: &mut SectionReader<'_>, what: &'static str) -> Result<u64, SnapshotError> {
    let n = r.take_u64(what)?;
    if n >= MAX_COUNT {
        return Err(r.bad_value(format!("{what} {n} at or above {MAX_COUNT}")));
    }
    Ok(n)
}

impl Snapshot for PredictorStats {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u64(self.loads);
        w.put_u64(self.predictions);
        w.put_u64(self.spec_accesses);
        w.put_u64(self.correct_spec);
        w.put_u64(self.correct_predictions);
        w.put_u64(self.both_predicted_spec);
        for s in self.selector_states {
            w.put_u64(s);
        }
        w.put_u64(self.miss_selections);
    }
}

impl Restorable for PredictorStats {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let mut stats = Self {
            loads: take_count(r, "stats loads")?,
            predictions: take_count(r, "stats predictions")?,
            spec_accesses: take_count(r, "stats spec accesses")?,
            correct_spec: take_count(r, "stats correct spec")?,
            correct_predictions: take_count(r, "stats correct predictions")?,
            both_predicted_spec: take_count(r, "stats both predicted spec")?,
            ..Self::default()
        };
        for s in &mut stats.selector_states {
            *s = take_count(r, "stats selector state")?;
        }
        stats.miss_selections = take_count(r, "stats miss selections")?;
        Ok(stats)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let s = PredictorStats::new();
        assert_eq!(s.prediction_rate(), 0.0);
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.misprediction_rate(), 0.0);
        assert_eq!(s.correct_selection_rate(), 1.0);
    }

    #[test]
    fn rates_follow_definitions() {
        let s = PredictorStats {
            loads: 100,
            predictions: 80,
            spec_accesses: 60,
            correct_spec: 57,
            correct_predictions: 70,
            ..PredictorStats::default()
        };
        assert!((s.prediction_rate() - 0.6).abs() < 1e-12);
        assert!((s.accuracy() - 0.95).abs() < 1e-12);
        assert!((s.misprediction_rate() - 0.05).abs() < 1e-12);
        assert!((s.correct_spec_rate() - 0.57).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = PredictorStats {
            loads: 10,
            spec_accesses: 5,
            correct_spec: 4,
            selector_states: [1, 2, 3, 4],
            ..PredictorStats::default()
        };
        let b = PredictorStats {
            loads: 20,
            spec_accesses: 10,
            correct_spec: 9,
            selector_states: [4, 3, 2, 1],
            miss_selections: 2,
            both_predicted_spec: 8,
            ..PredictorStats::default()
        };
        a.merge(&b);
        assert_eq!(a.loads, 30);
        assert_eq!(a.spec_accesses, 15);
        assert_eq!(a.correct_spec, 13);
        assert_eq!(a.selector_states, [5, 5, 5, 5]);
        assert_eq!(a.miss_selections, 2);
    }

    #[test]
    fn restored_counts_are_bounded() {
        // The archive is the eleven counts; each restores just under the
        // ceiling and is refused at it.
        for i in 0..11 {
            let payload = |n: u64| {
                let mut w = SectionWriter::new();
                (0..11).for_each(|j| w.put_u64(if j == i { n } else { 1 }));
                w.into_bytes()
            };
            let bytes = payload(MAX_COUNT - 1);
            let below = PredictorStats::from_payload(&bytes, "stats").expect("restores");
            assert_eq!(below.to_payload(), bytes);
            match PredictorStats::from_payload(&payload(MAX_COUNT), "stats") {
                Err(SnapshotError::BadValue { .. }) => {}
                other => panic!("count {i} at the ceiling: expected BadValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn merge_saturates_at_the_restore_ceiling() {
        let ceiling = [(MAX_COUNT - 1).to_le_bytes(); 11].concat();
        let ceiling = PredictorStats::from_payload(&ceiling, "stats").expect("restores");
        let mut all = PredictorStats::new();
        for _ in 0..5 {
            all.merge(&ceiling);
        }
        assert_eq!(all.to_payload(), [u64::MAX.to_le_bytes(); 11].concat());
    }

    #[test]
    fn selection_rate_counts_miss_selections() {
        let s = PredictorStats {
            both_predicted_spec: 100,
            miss_selections: 1,
            ..PredictorStats::default()
        };
        assert!((s.correct_selection_rate() - 0.99).abs() < 1e-12);
    }
}
