//! Confidence mechanisms (paper §3.4).
//!
//! Three mechanisms decide whether a prediction is trusted enough to launch
//! a speculative cache access; a speculative access happens only when *all*
//! enabled mechanisms agree:
//!
//! 1. **Saturating counters** — per-LB-entry counter incremented on a
//!    correct prediction, reset on a misprediction, speculating only at
//!    saturation (threshold 2–3), optionally with a hysteresis bit.
//! 2. **Control-flow indications** — the GHR pattern observed at the last
//!    misprediction is recorded; predictions under the same pattern are not
//!    speculated. The advanced variant keeps `2^n` per-path correctness bits.
//! 3. **LT tags** — implemented in [`crate::link_table`] (extra folded
//!    history bits matched against the indexed entry).

/// A saturating confidence counter with optional hysteresis.
///
/// # Examples
///
/// ```
/// use cap_predictor::confidence::SaturatingCounter;
/// let mut c = SaturatingCounter::new(2, 3, false);
/// assert!(!c.is_confident());
/// c.on_correct();
/// c.on_correct();
/// assert!(c.is_confident());
/// c.on_incorrect();
/// assert!(!c.is_confident());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturatingCounter {
    value: u8,
    threshold: u8,
    max: u8,
    hysteresis: bool,
}

impl SaturatingCounter {
    /// Creates a counter that speculates at `threshold` and saturates at
    /// `max`. With `hysteresis`, a misprediction at saturation drops the
    /// counter to `threshold` (one more strike before silence) instead of
    /// resetting to zero — the paper's "extra bit" hysteresis behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` or `threshold > max`.
    #[must_use]
    pub fn new(threshold: u8, max: u8, hysteresis: bool) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        assert!(threshold <= max, "threshold must not exceed max");
        Self {
            value: 0,
            threshold,
            max,
            hysteresis,
        }
    }

    /// Current counter value.
    #[must_use]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Speculation threshold this counter was built with.
    #[must_use]
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// Saturation ceiling this counter was built with.
    #[must_use]
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Whether mispredictions decay to `threshold` (hysteresis) instead of 0
    /// when the counter is saturated.
    #[must_use]
    pub fn hysteresis(&self) -> bool {
        self.hysteresis
    }

    /// Overwrites the stored value with `raw`, modelling a bit upset in the
    /// physical counter. The counter is a `max+1`-state device, so the raw
    /// value wraps into `0..=max` — the structural invariant
    /// `value() <= max` holds even under injected faults. At `max == 255`
    /// every `u8` is a state, so `raw` is kept as it is.
    pub fn corrupt_value(&mut self, raw: u8) {
        self.value = self.max.checked_add(1).map_or(raw, |states| raw % states);
    }

    /// True when the counter authorises a speculative access.
    #[must_use]
    pub fn is_confident(&self) -> bool {
        self.value >= self.threshold
    }

    /// Records a correct prediction.
    pub fn on_correct(&mut self) {
        self.value = self.value.saturating_add(1).min(self.max);
    }

    /// Records a misprediction.
    pub fn on_incorrect(&mut self) {
        self.value = if self.hysteresis && self.value >= self.max {
            self.threshold
        } else {
            0
        };
    }

    /// Resets to cold.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

/// Which control-flow-indication variant is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CfiMode {
    /// Mechanism disabled — always allows speculation.
    #[default]
    Off,
    /// Record the `n` GHR LSBs at the last misprediction; refuse to
    /// speculate when the current GHR matches them (paper's basic scheme).
    LastMisprediction {
        /// Number of GHR bits recorded (1–4 typical).
        bits: u32,
    },
    /// Keep `2^n` per-path bits, each recording whether the last
    /// speculative access on that path was correct (paper's advanced
    /// scheme).
    PerPath {
        /// Number of GHR bits selecting the path (so `2^bits` state bits).
        bits: u32,
    },
}

/// Per-LB-entry control-flow indication state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControlFlowIndication {
    /// `LastMisprediction`: the recorded pattern, if any.
    bad_pattern: Option<u64>,
    /// `PerPath`: bit `p` set means the last speculative access on path `p`
    /// was *correct*. Initialised to all-correct so fresh entries may
    /// speculate.
    path_bits: u64,
    initialised: bool,
}

impl ControlFlowIndication {
    /// Creates a fresh indication that permits speculation everywhere.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bad_pattern: None,
            path_bits: u64::MAX,
            initialised: true,
        }
    }

    /// `LastMisprediction`: the recorded pattern, if any.
    #[must_use]
    pub fn bad_pattern(&self) -> Option<u64> {
        self.bad_pattern
    }

    /// `PerPath`: the per-path correctness bits.
    #[must_use]
    pub fn path_bits(&self) -> u64 {
        self.path_bits
    }

    /// Whether this indication has been initialised (snapshot bookkeeping).
    #[must_use]
    pub fn initialised(&self) -> bool {
        self.initialised
    }

    /// True when speculation is allowed under the current GHR.
    #[must_use]
    pub fn allows(&self, mode: CfiMode, ghr: u64) -> bool {
        match mode {
            CfiMode::Off => true,
            CfiMode::LastMisprediction { bits } => {
                let mask = (1u64 << bits) - 1;
                self.bad_pattern != Some(ghr & mask)
            }
            CfiMode::PerPath { bits } => {
                let path = (ghr & ((1u64 << bits) - 1)) as u32;
                (self.path_bits >> path) & 1 == 1
            }
        }
    }

    /// Overwrites the indication state wholesale, modelling bit upsets in
    /// the recorded pattern / per-path bits (fault injection). Any `u64` is
    /// a structurally valid pattern, so no masking is needed here; `allows`
    /// masks to the active mode's width on read.
    pub fn corrupt(&mut self, bad_pattern: Option<u64>, path_bits: u64) {
        self.bad_pattern = bad_pattern;
        self.path_bits = path_bits;
        self.initialised = true;
    }

    /// Records the outcome of a *speculative access* under `ghr`.
    pub fn record(&mut self, mode: CfiMode, ghr: u64, correct: bool) {
        match mode {
            CfiMode::Off => {}
            CfiMode::LastMisprediction { bits } => {
                let mask = (1u64 << bits) - 1;
                if correct {
                    // A correct access under the recorded pattern clears it,
                    // restoring speculation on that path.
                    if self.bad_pattern == Some(ghr & mask) {
                        self.bad_pattern = None;
                    }
                } else {
                    self.bad_pattern = Some(ghr & mask);
                }
            }
            CfiMode::PerPath { bits } => {
                let path = ghr & ((1u64 << bits) - 1);
                if correct {
                    self.path_bits |= 1 << path;
                } else {
                    self.path_bits &= !(1 << path);
                }
            }
        }
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for SaturatingCounter {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u8(self.value);
        w.put_u8(self.threshold);
        w.put_u8(self.max);
        w.put_bool(self.hysteresis);
    }
}

impl Restorable for SaturatingCounter {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let value = r.take_u8("counter value")?;
        let threshold = r.take_u8("counter threshold")?;
        let max = r.take_u8("counter max")?;
        let hysteresis = r.take_bool("counter hysteresis")?;
        if threshold == 0 || threshold > max {
            return Err(r.bad_value(format!(
                "counter threshold {threshold} outside 1..=max ({max})"
            )));
        }
        if value > max {
            return Err(r.bad_value(format!("counter value {value} above max {max}")));
        }
        Ok(Self {
            value,
            threshold,
            max,
            hysteresis,
        })
    }
}

impl Snapshot for CfiMode {
    fn write_state(&self, w: &mut SectionWriter) {
        match self {
            CfiMode::Off => w.put_u8(0),
            CfiMode::LastMisprediction { bits } => {
                w.put_u8(1);
                w.put_u32(*bits);
            }
            CfiMode::PerPath { bits } => {
                w.put_u8(2);
                w.put_u32(*bits);
            }
        }
    }
}

impl Restorable for CfiMode {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8("cfi mode tag")? {
            0 => Ok(CfiMode::Off),
            1 => {
                let bits = r.take_u32("cfi bits")?;
                if bits == 0 || bits > 63 {
                    return Err(
                        r.bad_value(format!("last-misprediction bits {bits} outside 1..=63"))
                    );
                }
                Ok(CfiMode::LastMisprediction { bits })
            }
            2 => {
                let bits = r.take_u32("cfi bits")?;
                // path_bits is a u64 bitmap, so at most 2^6 = 64 paths.
                if bits == 0 || bits > 6 {
                    return Err(r.bad_value(format!("per-path bits {bits} outside 1..=6")));
                }
                Ok(CfiMode::PerPath { bits })
            }
            tag => Err(r.bad_value(format!("unknown cfi mode tag {tag}"))),
        }
    }
}

impl Snapshot for ControlFlowIndication {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_opt_u64(self.bad_pattern);
        w.put_u64(self.path_bits);
        w.put_bool(self.initialised);
    }
}

impl Restorable for ControlFlowIndication {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            bad_pattern: r.take_opt_u64("cfi bad pattern")?,
            path_bits: r.take_u64("cfi path bits")?,
            initialised: r.take_bool("cfi initialised")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_requires_threshold_correct_predictions() {
        let mut c = SaturatingCounter::new(3, 3, false);
        c.on_correct();
        c.on_correct();
        assert!(!c.is_confident());
        c.on_correct();
        assert!(c.is_confident());
    }

    #[test]
    fn counter_saturates_at_max() {
        let mut c = SaturatingCounter::new(2, 3, false);
        for _ in 0..10 {
            c.on_correct();
        }
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn misprediction_resets_without_hysteresis() {
        let mut c = SaturatingCounter::new(2, 3, false);
        for _ in 0..3 {
            c.on_correct();
        }
        c.on_incorrect();
        assert_eq!(c.value(), 0);
        assert!(!c.is_confident());
    }

    #[test]
    fn hysteresis_keeps_one_strike_at_saturation() {
        let mut c = SaturatingCounter::new(2, 3, true);
        for _ in 0..3 {
            c.on_correct();
        }
        c.on_incorrect();
        assert!(c.is_confident(), "hysteresis retains confidence once");
        c.on_incorrect();
        assert!(!c.is_confident(), "second miss silences the counter");
    }

    #[test]
    fn hysteresis_below_saturation_still_resets() {
        let mut c = SaturatingCounter::new(2, 3, true);
        c.on_correct();
        c.on_correct(); // value 2 < max 3
        c.on_incorrect();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn full_width_counter_stays_saturated() {
        // `max == 255` is accepted by `new` and by every restore; the
        // increment used to overflow and wrap a saturated counter to 0.
        let mut c = SaturatingCounter::new(2, u8::MAX, false);
        for _ in 0..256 {
            c.on_correct();
        }
        assert_eq!(c.value(), u8::MAX);
        assert!(c.is_confident());
    }

    #[test]
    fn corrupt_value_stays_at_or_below_max() {
        for max in [1u8, 3, 127, 254, u8::MAX] {
            let mut c = SaturatingCounter::new(1, max, false);
            for raw in 0..=u8::MAX {
                c.corrupt_value(raw);
                assert!(
                    c.value() <= max,
                    "raw {raw} under max {max} gave {}",
                    c.value()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "threshold must not exceed max")]
    fn bad_threshold_rejected() {
        let _ = SaturatingCounter::new(4, 3, false);
    }

    #[test]
    fn cfi_off_always_allows() {
        let cfi = ControlFlowIndication::new();
        assert!(cfi.allows(CfiMode::Off, 0b1010));
    }

    #[test]
    fn last_misprediction_blocks_matching_pattern_only() {
        let mode = CfiMode::LastMisprediction { bits: 3 };
        let mut cfi = ControlFlowIndication::new();
        cfi.record(mode, 0b101, false);
        assert!(!cfi.allows(mode, 0b101), "same path blocked");
        assert!(!cfi.allows(mode, 0b1101), "only n LSBs compared");
        assert!(cfi.allows(mode, 0b100), "different path allowed");
    }

    #[test]
    fn last_misprediction_cleared_by_correct_access() {
        let mode = CfiMode::LastMisprediction { bits: 2 };
        let mut cfi = ControlFlowIndication::new();
        cfi.record(mode, 0b11, false);
        assert!(!cfi.allows(mode, 0b11));
        cfi.record(mode, 0b11, true);
        assert!(cfi.allows(mode, 0b11));
    }

    #[test]
    fn per_path_tracks_paths_independently() {
        let mode = CfiMode::PerPath { bits: 2 };
        let mut cfi = ControlFlowIndication::new();
        // Fresh entries allow everywhere.
        for p in 0..4 {
            assert!(cfi.allows(mode, p));
        }
        cfi.record(mode, 0b01, false);
        cfi.record(mode, 0b10, true);
        assert!(!cfi.allows(mode, 0b01));
        assert!(cfi.allows(mode, 0b10));
        assert!(cfi.allows(mode, 0b00));
        // Recovery on path 0b01.
        cfi.record(mode, 0b01, true);
        assert!(cfi.allows(mode, 0b01));
    }

    #[test]
    fn per_path_uses_only_selected_bits() {
        let mode = CfiMode::PerPath { bits: 1 };
        let mut cfi = ControlFlowIndication::new();
        cfi.record(mode, 0b111, false); // path 1
        assert!(!cfi.allows(mode, 0b001));
        assert!(cfi.allows(mode, 0b110)); // path 0
    }
}
