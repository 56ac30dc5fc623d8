//! The delta-correlation alternative to base addresses (§3.3).
//!
//! > "A potential alternative to the base address scheme … is to record
//! > deltas between successive accesses instead of base addresses both in
//! > the history patterns and the LT. Such a scheme may be highly
//! > efficient especially when dealing with stack references in
//! > control-dependent loads, and it takes advantage of any kind of global
//! > correlation. However, the amount of additional aliasing due to false
//! > global correlation makes this option less attractive."
//!
//! This module implements that rejected design so the trade-off can be
//! measured: histories record the *deltas* between consecutive effective
//! addresses of a static load, and Link Table entries hold the predicted
//! next delta. Two different data structures traversed with the same
//! rhythm now genuinely share predictor state ("any kind of global
//! correlation") — including when they shouldn't ("false global
//! correlation"), which is the aliasing the paper warns about.

use crate::confidence::SaturatingCounter;
use crate::history::HistorySpec;
use crate::link_table::{LinkTable, LinkTableConfig};
use crate::load_buffer::{LbEntryProto, LoadBuffer, LoadBufferConfig};
use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail};

/// Configuration of a [`DeltaCapPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaCapConfig {
    /// Load Buffer geometry.
    pub lb: LoadBufferConfig,
    /// Link Table geometry.
    pub lt: LinkTableConfig,
    /// History recording/compression parameters (applied to deltas).
    pub history: HistorySpec,
    /// Confidence threshold for speculation.
    pub conf_threshold: u8,
    /// Confidence saturation value.
    pub conf_max: u8,
}

impl DeltaCapConfig {
    /// Same table geometry as the paper's CAP baseline.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            lb: LoadBufferConfig::paper_default(),
            lt: LinkTableConfig::paper_default(),
            history: HistorySpec::paper_default(),
            conf_threshold: 2,
            conf_max: 3,
        }
    }
}

/// A context predictor over address *deltas* instead of base addresses.
///
/// # Examples
///
/// A recurring delta rhythm is predicted even when the absolute addresses
/// never repeat:
///
/// ```
/// use cap_predictor::delta::{DeltaCapConfig, DeltaCapPredictor};
/// use cap_predictor::types::{AddressPredictor, LoadContext};
///
/// let mut p = DeltaCapPredictor::new(DeltaCapConfig::paper_default());
/// // Deltas cycle +0x10, +0x30, +0x08 while addresses march on forever.
/// let mut addr = 0x1000u64;
/// let mut last = None;
/// for i in 0..60 {
///     let ctx = LoadContext::new(0x40, 0, 0);
///     let pred = p.predict(&ctx);
///     p.update(&ctx, addr, &pred);
///     last = Some((pred, addr));
///     addr += [0x10, 0x30, 0x08][i % 3];
/// }
/// let (pred, actual) = last.unwrap();
/// assert_eq!(pred.addr, Some(actual));
/// ```
#[derive(Debug, Clone)]
pub struct DeltaCapPredictor {
    lb: LoadBuffer,
    lt: LinkTable,
    history: HistorySpec,
}

impl DeltaCapPredictor {
    /// Creates the predictor.
    ///
    /// # Panics
    ///
    /// Panics if the history spec is invalid or its index bits don't cover
    /// the LT.
    #[must_use]
    pub fn new(config: DeltaCapConfig) -> Self {
        config.history.validate();
        assert!(
            (1usize << config.history.index_bits) >= config.lt.sets(),
            "history index bits must cover the LT sets"
        );
        let counter = SaturatingCounter::new(config.conf_threshold, config.conf_max, false);
        Self {
            lb: LoadBuffer::new(
                config.lb,
                LbEntryProto {
                    cap_conf: counter,
                    stride_conf: counter,
                },
            ),
            lt: LinkTable::new(config.lt),
            history: config.history,
        }
    }

    /// Read access to the Link Table (diagnostics).
    #[must_use]
    pub fn link_table(&self) -> &LinkTable {
        &self.lt
    }
}

impl AddressPredictor for DeltaCapPredictor {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let spec = self.history;
        let Some(entry) = self.lb.lookup(ctx.ip) else {
            return Prediction::none();
        };
        if !entry.stride_seen || !entry.history.is_warm(&spec) {
            return Prediction::none();
        }
        let folded = entry.history.fold(&spec);
        let Some(delta) = self.lt.lookup(&folded) else {
            return Prediction::none();
        };
        let addr = entry.last_addr.wrapping_add(delta);
        Prediction {
            addr: Some(addr),
            speculate: entry.cap_conf.is_confident(),
            source: PredSource::Cap,
            detail: PredictionDetail {
                cap_addr: Some(addr),
                cap_confident: entry.cap_conf.is_confident(),
                ..PredictionDetail::default()
            },
        }
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        let spec = self.history;
        let (entry, _fresh) = self.lb.lookup_or_insert(ctx.ip);
        if let Some(p) = pred.addr {
            if p == actual {
                entry.cap_conf.on_correct();
            } else {
                entry.cap_conf.on_incorrect();
            }
        }
        if entry.stride_seen {
            let delta = actual.wrapping_sub(entry.last_addr);
            if entry.history.is_warm(&spec) {
                let folded = entry.history.fold(&spec);
                self.lt.update(&folded, delta);
            }
            // Deltas are folded like addresses; drop the 2 alignment bits
            // the fold ignores by pre-scaling (deltas can be small).
            entry.history.push(delta << 2, &spec);
        }
        entry.last_addr = actual;
        entry.stride_seen = true;
    }

    fn name(&self) -> &'static str {
        "delta-cap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> DeltaCapPredictor {
        let mut cfg = DeltaCapConfig::paper_default();
        cfg.lb.entries = 256;
        cfg.lt.entries = 1024;
        cfg.lt.assoc = 2;
        cfg.history.index_bits = 10;
        DeltaCapPredictor::new(cfg)
    }

    fn step(p: &mut DeltaCapPredictor, ip: u64, actual: u64) -> Prediction {
        let ctx = LoadContext::new(ip, 0, 0);
        let pred = p.predict(&ctx);
        p.update(&ctx, actual, &pred);
        pred
    }

    #[test]
    fn predicts_non_repeating_addresses_with_repeating_deltas() {
        // The scheme's unique strength: the stack-reference pattern where
        // addresses never recur but deltas cycle.
        let mut p = predictor();
        let deltas = [0x20u64, 0x50, 0x08, 0x18];
        let mut addr = 0x10_0000u64;
        let mut correct_tail = 0;
        for i in 0..200 {
            let pred = step(&mut p, 0x40, addr);
            if i >= 150 && pred.is_correct(addr) {
                correct_tail += 1;
            }
            addr += deltas[i % deltas.len()];
        }
        assert!(
            correct_tail >= 45,
            "delta rhythm must be learned: {correct_tail}/50"
        );
    }

    #[test]
    fn base_cap_cannot_predict_non_repeating_addresses() {
        // Contrast: the base-address CAP needs recurring addresses.
        use crate::cap::{CapConfig, CapPredictor};
        let mut p = CapPredictor::new(CapConfig::paper_default());
        let deltas = [0x20u64, 0x50, 0x08, 0x18];
        let mut addr = 0x10_0000u64;
        let mut correct = 0;
        for i in 0..200 {
            let ctx = LoadContext::new(0x40, 0, 0);
            let pred = p.predict(&ctx);
            p.update(&ctx, addr, &pred);
            if pred.is_correct(addr) {
                correct += 1;
            }
            addr += deltas[i % deltas.len()];
        }
        assert_eq!(correct, 0, "ever-growing addresses defeat base-address CAP");
    }

    #[test]
    fn false_correlation_aliases_unrelated_loads() {
        // The paper's objection: two loads with locally identical delta
        // rhythms cross-train through the shared LT and mispredict each
        // other's continuations. (Short histories make the shared window
        // visible; longer histories shrink but don't eliminate it.)
        let mut cfg = DeltaCapConfig::paper_default();
        cfg.lb.entries = 256;
        cfg.lt.entries = 1024;
        cfg.lt.assoc = 2;
        cfg.history.index_bits = 10;
        cfg.history.length = 2;
        let mut p = DeltaCapPredictor::new(cfg);
        // Load A: deltas (8, 8, 100) — load B: deltas (8, 8, 52). Both
        // produce the context [8, 8]; the link for what follows belongs to
        // whichever load trained it, so the other keeps mispredicting.
        let mut a_addr = 0x10_0000u64;
        let mut b_addr = 0x80_0000u64;
        let mut wrong_after_88 = 0;
        for phase in 0..300usize {
            let da = [8u64, 8, 100][phase % 3];
            let db = [8u64, 8, 52][phase % 3];
            let pred_a = step(&mut p, 0x40, a_addr);
            let pred_b = step(&mut p, 0x80, b_addr);
            // The aliased [8, 8] context predicts the address *after* the
            // big jump, i.e. the phase-0 access of the next cycle.
            if phase.is_multiple_of(3) {
                for (pred, actual) in [(pred_a, a_addr), (pred_b, b_addr)] {
                    if pred.addr.is_some() && !pred.is_correct(actual) {
                        wrong_after_88 += 1;
                    }
                }
            }
            a_addr += da;
            b_addr += db;
        }
        assert!(
            wrong_after_88 > 20,
            "false global correlation should cause cross-training mispredictions, got {wrong_after_88}"
        );
    }

    #[test]
    fn fresh_predictor_predicts_nothing() {
        let mut p = predictor();
        assert_eq!(p.predict(&LoadContext::new(0x40, 0, 0)), Prediction::none());
    }
}
