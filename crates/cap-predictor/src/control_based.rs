//! Control-based address predictors (§3.6) — an ablation, not a component.
//!
//! The paper briefly evaluates predicting addresses with branch-predictor-
//! style structures: a **g-share** scheme indexing a table of addresses
//! with `IP ⊕ GHR`, and a variant indexed by a hash of the recent
//! **call-site path**. Both "give poor results mainly because the loads are
//! not well correlated to all the individual conditional branches"; the
//! path variant does better but not enough to substitute for CAP. This
//! module implements both so the `text-control-based` experiment can
//! reproduce that negative result.

use crate::confidence::SaturatingCounter;
use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail};

/// Which control signal indexes the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlIndex {
    /// `IP ⊕ GHR` (g-share style).
    #[default]
    GShare,
    /// `IP ⊕ fold(recent call-site IPs)` (path history over call sites).
    CallPath,
}

/// Configuration of a [`ControlBasedPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlBasedConfig {
    /// Table entries (power of two).
    pub entries: usize,
    /// Index source.
    pub index: ControlIndex,
    /// GHR/path bits folded into the index.
    pub history_bits: u32,
    /// Tag bits stored per entry (0 disables tagging).
    pub tag_bits: u32,
}

impl Default for ControlBasedConfig {
    fn default() -> Self {
        Self {
            entries: 4096,
            index: ControlIndex::GShare,
            history_bits: 8,
            tag_bits: 8,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    addr: u64,
    conf: SaturatingCounter,
}

/// A g-share / call-path address predictor.
#[derive(Debug, Clone)]
pub struct ControlBasedPredictor {
    config: ControlBasedConfig,
    table: Vec<Option<Entry>>,
}

impl ControlBasedPredictor {
    /// Creates the predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(config: ControlBasedConfig) -> Self {
        assert!(
            config.entries.is_power_of_two(),
            "table entries must be a power of two"
        );
        Self {
            table: vec![None; config.entries],
            config,
        }
    }

    fn hash(&self, ctx: &LoadContext) -> (usize, u64) {
        let hist_mask = (1u64 << self.config.history_bits) - 1;
        let hist = match self.config.index {
            ControlIndex::GShare => ctx.ghr & hist_mask,
            ControlIndex::CallPath => ctx.path & hist_mask,
        };
        let mixed = (ctx.ip >> 2) ^ hist ^ (hist << 7);
        let index = (mixed as usize) & (self.config.entries - 1);
        let tag = if self.config.tag_bits == 0 {
            0
        } else {
            (mixed >> self.config.entries.trailing_zeros()) & ((1u64 << self.config.tag_bits) - 1)
        };
        (index, tag)
    }
}

impl AddressPredictor for ControlBasedPredictor {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let (index, tag) = self.hash(ctx);
        match &self.table[index] {
            Some(e) if e.tag == tag => Prediction {
                addr: Some(e.addr),
                speculate: e.conf.is_confident(),
                source: PredSource::ControlBased,
                detail: PredictionDetail::default(),
            },
            _ => Prediction::none(),
        }
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        let (index, tag) = self.hash(ctx);
        match &mut self.table[index] {
            Some(e) if e.tag == tag => {
                if pred.addr == Some(actual) {
                    e.conf.on_correct();
                } else {
                    e.conf.on_incorrect();
                }
                e.addr = actual;
            }
            slot => {
                *slot = Some(Entry {
                    tag,
                    addr: actual,
                    conf: SaturatingCounter::new(2, 3, false),
                });
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.config.index {
            ControlIndex::GShare => "control-gshare",
            ControlIndex::CallPath => "control-callpath",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(
        p: &mut ControlBasedPredictor,
        ip: u64,
        ghr: u64,
        path: u64,
        actual: u64,
    ) -> Prediction {
        let ctx = LoadContext {
            path,
            ..LoadContext::new(ip, 0, ghr)
        };
        let pred = p.predict(&ctx);
        p.update(&ctx, actual, &pred);
        pred
    }

    #[test]
    fn gshare_learns_ghr_correlated_addresses() {
        let mut p = ControlBasedPredictor::new(ControlBasedConfig::default());
        // Address depends entirely on the GHR pattern.
        for _ in 0..6 {
            step(&mut p, 0x40, 0b0001, 0, 0x1000);
            step(&mut p, 0x40, 0b0010, 0, 0x2000);
        }
        let pred = p.predict(&LoadContext::new(0x40, 0, 0b0001));
        assert_eq!(pred.addr, Some(0x1000));
        assert!(pred.speculate);
        let pred = p.predict(&LoadContext::new(0x40, 0, 0b0010));
        assert_eq!(pred.addr, Some(0x2000));
    }

    #[test]
    fn gshare_fails_when_address_not_branch_correlated() {
        // The paper's negative result: addresses advance independently of
        // the GHR, so the same GHR context sees different addresses.
        let mut p = ControlBasedPredictor::new(ControlBasedConfig::default());
        let mut spec_correct = 0;
        for i in 0..100u64 {
            let pred = step(&mut p, 0x40, i % 4, 0, 0x1000 + i * 8);
            if pred.speculate && pred.is_correct(0x1000 + i * 8) {
                spec_correct += 1;
            }
        }
        assert_eq!(spec_correct, 0, "uncorrelated addresses must not predict");
    }

    #[test]
    fn call_path_variant_uses_path_not_ghr() {
        let mut p = ControlBasedPredictor::new(ControlBasedConfig {
            index: ControlIndex::CallPath,
            ..ControlBasedConfig::default()
        });
        for _ in 0..6 {
            step(&mut p, 0x40, 0, 0xA, 0x1000);
            step(&mut p, 0x40, 0, 0xB, 0x2000);
        }
        // GHR varies wildly but path selects the entry.
        let ctx = LoadContext {
            path: 0xA,
            ..LoadContext::new(0x40, 0, 0b110101)
        };
        assert_eq!(p.predict(&ctx).addr, Some(0x1000));
    }

    #[test]
    fn tag_mismatch_misses() {
        let mut p = ControlBasedPredictor::new(ControlBasedConfig {
            entries: 16,
            history_bits: 2,
            tag_bits: 8,
            index: ControlIndex::GShare,
        });
        step(&mut p, 0x40, 0, 0, 0x1000);
        // A different IP mapping to the same set with a different tag.
        let pred = p.predict(&LoadContext::new(0x40 + (16 << 2), 0, 0));
        assert_eq!(pred.addr, None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let _ = ControlBasedPredictor::new(ControlBasedConfig {
            entries: 100,
            ..ControlBasedConfig::default()
        });
    }
}
