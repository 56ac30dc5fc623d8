//! Variable history length — one of the paper's §6 future-work directions.
//!
//! > "Improving the predictor by applying novel ideas like variable
//! > history length, history correlation, etc. These ideas were tried on
//! > branch prediction and they seem promising."
//!
//! This module realises the idea the way the branch-prediction lineage
//! eventually did (TAGE-style): two tagged Link Tables indexed by a
//! *short* and a *long* fold of the same per-load history, with
//! longest-matching-context priority. Long contexts disambiguate
//! control-correlated repetition runs; short contexts warm up faster and
//! survive pattern perturbations — the tournament gets both.

use crate::confidence::SaturatingCounter;
use crate::history::HistorySpec;
use crate::link_table::{LinkTable, LinkTableConfig};
use crate::load_buffer::{LbEntryProto, LoadBuffer, LoadBufferConfig};
use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail};

/// Configuration of a [`VariableHistoryCap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariableHistoryConfig {
    /// Load Buffer geometry.
    pub lb: LoadBufferConfig,
    /// Geometry of *each* of the two Link Tables.
    pub lt: LinkTableConfig,
    /// Fold parameters (shift, index/tag widths). `history.length` is the
    /// retention bound and must equal `long_length`.
    pub history: HistorySpec,
    /// Context length of the short table.
    pub short_length: usize,
    /// Context length of the long table.
    pub long_length: usize,
    /// Confidence threshold / max for speculation.
    pub conf_threshold: u8,
    /// Confidence saturation value.
    pub conf_max: u8,
    /// Record base addresses (global correlation), as in baseline CAP.
    pub offset_lsb_bits: u32,
}

impl VariableHistoryConfig {
    /// Short contexts of 2 and long contexts of 4 over the paper's
    /// baseline table geometry (each LT half the baseline size, so total
    /// state matches the 4K-entry baseline).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            lb: LoadBufferConfig::paper_default(),
            lt: LinkTableConfig {
                entries: 2048,
                ..LinkTableConfig::paper_default()
            },
            history: HistorySpec {
                length: 4,
                shift: 3,
                index_bits: 11,
                tag_bits: 8,
            },
            short_length: 2,
            long_length: 4,
            conf_threshold: 2,
            conf_max: 3,
            offset_lsb_bits: 8,
        }
    }

    fn validate(&self) {
        assert!(
            self.short_length < self.long_length,
            "short context must be shorter than long"
        );
        assert_eq!(
            self.history.length, self.long_length,
            "history retention must equal the long context length"
        );
        assert!(
            (1usize << self.history.index_bits) >= self.lt.sets(),
            "history index bits must cover the LT sets"
        );
    }
}

/// A two-table, longest-match context predictor.
///
/// # Examples
///
/// ```
/// use cap_predictor::variable::{VariableHistoryCap, VariableHistoryConfig};
/// use cap_predictor::types::{AddressPredictor, LoadContext};
///
/// let mut p = VariableHistoryCap::new(VariableHistoryConfig::paper_default());
/// let pattern = [0x1000u64, 0x88A0, 0x4860, 0x2B30];
/// for _ in 0..10 {
///     for &a in &pattern {
///         let ctx = LoadContext::new(0x40, 0, 0);
///         let pred = p.predict(&ctx);
///         p.update(&ctx, a, &pred);
///     }
/// }
/// assert!(p.predict(&LoadContext::new(0x40, 0, 0)).speculate);
/// ```
#[derive(Debug, Clone)]
pub struct VariableHistoryCap {
    config: VariableHistoryConfig,
    lb: LoadBuffer,
    short_lt: LinkTable,
    long_lt: LinkTable,
}

impl VariableHistoryCap {
    /// Creates the predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`VariableHistoryConfig`]).
    #[must_use]
    pub fn new(config: VariableHistoryConfig) -> Self {
        config.validate();
        let counter = SaturatingCounter::new(config.conf_threshold, config.conf_max, false);
        Self {
            lb: LoadBuffer::new(
                config.lb,
                LbEntryProto {
                    cap_conf: counter,
                    stride_conf: counter,
                },
            ),
            short_lt: LinkTable::new(config.lt),
            long_lt: LinkTable::new(config.lt),
            config,
        }
    }
}

impl AddressPredictor for VariableHistoryCap {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let cfg = self.config;
        let Some(entry) = self.lb.lookup(ctx.ip) else {
            return Prediction::none();
        };
        // Longest matching context wins.
        let link = if entry.history.has_at_least(cfg.long_length) {
            let folded = entry.history.fold_last(&cfg.history, cfg.long_length);
            self.long_lt.lookup(&folded)
        } else {
            None
        }
        .or_else(|| {
            if entry.history.has_at_least(cfg.short_length) {
                let folded = entry.history.fold_last(&cfg.history, cfg.short_length);
                self.short_lt.lookup(&folded)
            } else {
                None
            }
        });
        let Some(link) = link else {
            return Prediction::none();
        };
        let addr = link.wrapping_add(u64::from(entry.offset_lsb));
        let confident = entry.cap_conf.is_confident();
        Prediction {
            addr: Some(addr),
            speculate: confident,
            source: PredSource::Cap,
            detail: PredictionDetail {
                cap_addr: Some(addr),
                cap_confident: confident,
                ..PredictionDetail::default()
            },
        }
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        let cfg = self.config;
        let off_lsb = u64::from((ctx.offset as u32) & ((1u32 << cfg.offset_lsb_bits) - 1));
        let actual_base = actual.wrapping_sub(off_lsb);
        let (entry, _fresh) = self.lb.lookup_or_insert(ctx.ip);
        entry.offset_lsb = off_lsb as u32;
        if let Some(p) = pred.addr {
            if p == actual {
                entry.cap_conf.on_correct();
            } else {
                entry.cap_conf.on_incorrect();
            }
        }
        if entry.history.has_at_least(cfg.long_length) {
            let folded = entry.history.fold_last(&cfg.history, cfg.long_length);
            self.long_lt.update(&folded, actual_base);
        }
        if entry.history.has_at_least(cfg.short_length) {
            let folded = entry.history.fold_last(&cfg.history, cfg.short_length);
            self.short_lt.update(&folded, actual_base);
        }
        entry.history.push(actual_base, &cfg.history);
    }

    fn name(&self) -> &'static str {
        "variable-history-cap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> VariableHistoryCap {
        let mut cfg = VariableHistoryConfig::paper_default();
        cfg.lb.entries = 256;
        cfg.lt.entries = 1024;
        cfg.lt.assoc = 2;
        cfg.history.index_bits = 10;
        VariableHistoryCap::new(cfg)
    }

    fn run_pattern(p: &mut VariableHistoryCap, pattern: &[u64], rounds: usize) -> (usize, usize) {
        let mut correct = 0;
        let mut total = 0;
        for round in 0..rounds {
            for &a in pattern {
                let ctx = LoadContext::new(0x40, 0, 0);
                let pred = p.predict(&ctx);
                p.update(&ctx, a, &pred);
                if round + 2 >= rounds {
                    total += 1;
                    if pred.is_correct(a) {
                        correct += 1;
                    }
                }
            }
        }
        (correct, total)
    }

    #[test]
    fn learns_simple_patterns_via_short_contexts() {
        let mut p = predictor();
        let (correct, total) = run_pattern(&mut p, &[0x1010, 0x88A4, 0x4858, 0x2B3C], 8);
        assert!(correct >= total - 1, "{correct}/{total}");
    }

    #[test]
    fn long_contexts_disambiguate_repetition_runs() {
        // A A A B C: after A, the next may be A or B — short contexts are
        // ambiguous, long contexts decide.
        let mut p = predictor();
        let pattern = [0x1010u64, 0x1010, 0x1010, 0x88A4, 0x4858];
        let (correct, total) = run_pattern(&mut p, &pattern, 20);
        assert!(
            correct as f64 / total as f64 > 0.85,
            "repetition run must be disambiguated: {correct}/{total}"
        );
    }

    #[test]
    fn beats_fixed_short_history_on_repetition_runs() {
        use crate::cap::{CapConfig, CapPredictor};
        let pattern = [0x1010u64, 0x1010, 0x1010, 0x88A4, 0x4858];

        let mut fixed2 = {
            let mut cfg = CapConfig::paper_default();
            cfg.params.history.length = 2;
            cfg.params.confidence_enabled = false;
            CapPredictor::new(cfg)
        };
        let mut f2_correct = 0;
        let mut total = 0;
        for round in 0..20 {
            for &a in &pattern {
                let ctx = LoadContext::new(0x40, 0, 0);
                let pred = fixed2.predict(&ctx);
                fixed2.update(&ctx, a, &pred);
                if round >= 18 {
                    total += 1;
                    if pred.is_correct(a) {
                        f2_correct += 1;
                    }
                }
            }
        }
        let mut var = predictor();
        let (v_correct, v_total) = run_pattern(&mut var, &pattern, 20);
        assert_eq!(total, v_total);
        assert!(
            v_correct > f2_correct,
            "variable ({v_correct}) must beat fixed-2 ({f2_correct}) on runs"
        );
    }

    #[test]
    fn falls_back_to_short_table_before_long_history_warm() {
        let mut p = predictor();
        // Only 3 addresses seen: long context (4) cold, short (2) warm.
        let pattern = [0x1010u64, 0x88A4, 0x4858];
        for &a in &pattern {
            let ctx = LoadContext::new(0x40, 0, 0);
            let pred = p.predict(&ctx);
            p.update(&ctx, a, &pred);
        }
        // Re-walk: short-table hits are possible already.
        let mut any_prediction = false;
        for &a in &pattern {
            let ctx = LoadContext::new(0x40, 0, 0);
            let pred = p.predict(&ctx);
            p.update(&ctx, a, &pred);
            any_prediction |= pred.addr.is_some();
        }
        assert!(any_prediction, "short table must serve before long warms");
    }

    #[test]
    #[should_panic(expected = "short context must be shorter")]
    fn degenerate_lengths_rejected() {
        let mut cfg = VariableHistoryConfig::paper_default();
        cfg.short_length = 4;
        let _ = VariableHistoryCap::new(cfg);
    }
}
