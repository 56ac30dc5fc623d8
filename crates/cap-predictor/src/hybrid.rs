//! The hybrid CAP/enhanced-stride predictor (§3.7, Figure 4).
//!
//! Both components share one Load Buffer — the CAP fields, the stride
//! fields, and a per-entry 2-bit **selector** live in the same entry. Both
//! components predict every dynamic load and both update their state; a
//! speculative access is launched when at least one component is confident,
//! with the selector arbitrating when both are. The selector counter is
//! initialised toward *weak CAP* (CAP's base misprediction rate is lower)
//! and trained on the components' relative performance after verification.
//!
//! The Link Table may be updated selectively (§4.3): always, only when the
//! stride component mispredicted, or only when it mispredicted or lost the
//! selection. The paper finds *always* slightly best and we default to it.

use crate::cap::{CapComponent, CapParams};
use crate::link_table::LinkTableConfig;
use crate::load_buffer::{LbEntryProto, LoadBuffer, LoadBufferConfig};
use crate::metrics::names;
use crate::stride::{StrideComponent, StrideParams};
use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail};
use cap_obs::Obs;

/// When the hybrid writes the Link Table (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LtUpdatePolicy {
    /// Update on every resolved load (paper's winner).
    #[default]
    Always,
    /// Skip the update when the stride component predicted correctly.
    UnlessStrideCorrect,
    /// Skip the update when the stride component predicted correctly *and*
    /// its prediction was the one selected for the speculative access.
    UnlessStrideCorrectAndSelected,
}

/// How the hybrid arbitrates when both components are confident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectorPolicy {
    /// Per-entry 2-bit counter trained on relative performance (§4.4).
    #[default]
    Dynamic,
    /// Always prefer the stride component.
    StaticStride,
    /// Always prefer the CAP component.
    StaticCap,
}

/// Configuration of a [`HybridPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridConfig {
    /// Load Buffer geometry (shared by both components).
    pub lb: LoadBufferConfig,
    /// Link Table geometry.
    pub lt: LinkTableConfig,
    /// CAP component tunables.
    pub cap: CapParams,
    /// Stride component tunables.
    pub stride: StrideParams,
    /// LT update policy.
    pub lt_update: LtUpdatePolicy,
    /// Selection policy.
    pub selector: SelectorPolicy,
}

impl HybridConfig {
    /// The paper's baseline hybrid (§4.2): 4K-entry 2-way LB, 4K
    /// direct-mapped LT, dynamic selection, always-update LT.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            lb: LoadBufferConfig::paper_default(),
            lt: LinkTableConfig::paper_default(),
            cap: CapParams::paper_default(),
            stride: StrideParams::paper_default(),
            lt_update: LtUpdatePolicy::Always,
            selector: SelectorPolicy::Dynamic,
        }
    }

    /// Baseline with pipelined (speculative-history, catch-up) behaviour
    /// enabled on both components, for prediction-gap experiments (§5).
    #[must_use]
    pub fn paper_pipelined() -> Self {
        let mut cfg = Self::paper_default();
        cfg.cap.speculative_history = true;
        cfg.stride.catch_up = true;
        cfg
    }
}

/// The hybrid CAP/enhanced-stride predictor.
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    lb: LoadBuffer,
    cap: CapComponent,
    stride: StrideComponent,
    lt_update: LtUpdatePolicy,
    selector_policy: SelectorPolicy,
    obs: Obs,
}

impl HybridPredictor {
    /// Creates the predictor.
    ///
    /// # Examples
    ///
    /// ```
    /// use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
    /// use cap_predictor::types::{AddressPredictor, LoadContext};
    ///
    /// let mut p = HybridPredictor::new(HybridConfig::paper_default());
    /// // Stride pattern: handled by the stride side.
    /// for i in 0..10u64 {
    ///     let ctx = LoadContext::new(0x100, 0, 0);
    ///     let pred = p.predict(&ctx);
    ///     p.update(&ctx, 0x4000 + i * 8, &pred);
    /// }
    /// assert!(p.predict(&LoadContext::new(0x100, 0, 0)).speculate);
    /// ```
    #[must_use]
    pub fn new(config: HybridConfig) -> Self {
        let proto = LbEntryProto {
            cap_conf: config.cap.counter(),
            stride_conf: config.stride.counter(),
        };
        Self {
            lb: LoadBuffer::new(config.lb, proto),
            cap: CapComponent::new(config.cap, config.lt),
            stride: StrideComponent::new(config.stride),
            lt_update: config.lt_update,
            selector_policy: config.selector,
            obs: Obs::off(),
        }
    }

    /// Read access to the shared Load Buffer (diagnostics).
    #[must_use]
    pub fn load_buffer(&self) -> &LoadBuffer {
        &self.lb
    }

    /// Mutable access to the shared Load Buffer (fault injection / chaos
    /// testing).
    pub fn load_buffer_mut(&mut self) -> &mut LoadBuffer {
        &mut self.lb
    }

    /// Read access to the CAP component (diagnostics).
    #[must_use]
    pub fn cap_component(&self) -> &CapComponent {
        &self.cap
    }

    /// Mutable access to the CAP component, and through it the Link Table
    /// (fault injection / chaos testing).
    pub fn cap_component_mut(&mut self) -> &mut CapComponent {
        &mut self.cap
    }

    fn select_cap(&self, selector: u8) -> bool {
        match self.selector_policy {
            SelectorPolicy::Dynamic => selector >= 2,
            SelectorPolicy::StaticStride => false,
            SelectorPolicy::StaticCap => true,
        }
    }
}

impl AddressPredictor for HybridPredictor {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let Some(entry) = self.lb.lookup(ctx.ip) else {
            self.obs.incr(names::LB_MISS);
            return Prediction::none();
        };
        self.obs.incr(names::LB_HIT);
        let (stride_addr, stride_conf) = self.stride.predict(entry, ctx);
        let (cap_addr, cap_conf) = self.cap.predict(entry, ctx);
        let selector_state = entry.selector;
        let next_invocation = stride_addr
            .filter(|_| stride_conf)
            .map(|a| a.wrapping_add(entry.stride as u64));

        // Choose the component for the speculative access. When only one is
        // confident it wins; when both are, the selector arbitrates; when
        // neither is, the selector still names the address we *report*
        // (verified, but no speculative access is launched).
        let prefer_cap = self.select_cap(selector_state);
        let (addr, source, speculate) = match (
            stride_addr.filter(|_| stride_conf),
            cap_addr.filter(|_| cap_conf),
        ) {
            (Some(s), Some(c)) => {
                if prefer_cap {
                    (Some(c), PredSource::Cap, true)
                } else {
                    (Some(s), PredSource::Stride, true)
                }
            }
            (Some(s), None) => (Some(s), PredSource::Stride, true),
            (None, Some(c)) => (Some(c), PredSource::Cap, true),
            (None, None) => match (stride_addr, cap_addr) {
                (Some(_), Some(c)) if prefer_cap => (Some(c), PredSource::Cap, false),
                (Some(s), _) => (Some(s), PredSource::Stride, false),
                (None, Some(c)) => (Some(c), PredSource::Cap, false),
                (None, None) => (None, PredSource::None, false),
            },
        };
        Prediction {
            addr,
            speculate,
            source,
            detail: PredictionDetail {
                stride_addr,
                stride_confident: stride_conf,
                cap_addr,
                cap_confident: cap_conf,
                selector_state: Some(selector_state),
                next_invocation,
            },
        }
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        let (entry, fresh) = self.lb.lookup_or_insert(ctx.ip);
        if fresh {
            self.obs.incr(names::LB_ALLOC);
        }
        let d = &pred.detail;
        let stride_correct = d.stride_addr == Some(actual);
        let cap_correct = d.cap_addr == Some(actual);

        // LT update policy (§4.3).
        let update_lt = match self.lt_update {
            LtUpdatePolicy::Always => true,
            LtUpdatePolicy::UnlessStrideCorrect => !stride_correct,
            LtUpdatePolicy::UnlessStrideCorrectAndSelected => {
                !(stride_correct && pred.source == PredSource::Stride)
            }
        };

        let cap_speculated = pred.speculate && pred.source == PredSource::Cap;
        let stride_speculated = pred.speculate && pred.source == PredSource::Stride;
        self.cap
            .update(entry, ctx, actual, d.cap_addr, cap_speculated, update_lt);
        self.stride
            .update(entry, ctx, actual, d.stride_addr, stride_speculated);

        // Selector training (§4.4): move toward the component that was
        // right when they disagree.
        if d.stride_addr.is_some() && d.cap_addr.is_some() {
            if cap_correct && !stride_correct {
                if entry.selector < 3 {
                    self.obs.incr(names::HYBRID_SELECTOR_UP);
                }
                entry.selector = (entry.selector + 1).min(3);
            } else if stride_correct && !cap_correct {
                if entry.selector > 0 {
                    self.obs.incr(names::HYBRID_SELECTOR_DOWN);
                }
                entry.selector = entry.selector.saturating_sub(1);
            }
        }
    }

    fn name(&self) -> &'static str {
        "hybrid-cap-stride"
    }

    fn set_obs(&mut self, obs: Obs) {
        self.cap.set_obs(obs.clone());
        self.stride.set_obs(obs.clone());
        self.obs = obs;
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for LtUpdatePolicy {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u8(match self {
            Self::Always => 0,
            Self::UnlessStrideCorrect => 1,
            Self::UnlessStrideCorrectAndSelected => 2,
        });
    }
}

impl Restorable for LtUpdatePolicy {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8("lt update policy tag")? {
            0 => Ok(Self::Always),
            1 => Ok(Self::UnlessStrideCorrect),
            2 => Ok(Self::UnlessStrideCorrectAndSelected),
            t => Err(r.bad_value(format!("lt update policy tag {t} unknown"))),
        }
    }
}

impl Snapshot for SelectorPolicy {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u8(match self {
            Self::Dynamic => 0,
            Self::StaticStride => 1,
            Self::StaticCap => 2,
        });
    }
}

impl Restorable for SelectorPolicy {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8("selector policy tag")? {
            0 => Ok(Self::Dynamic),
            1 => Ok(Self::StaticStride),
            2 => Ok(Self::StaticCap),
            t => Err(r.bad_value(format!("selector policy tag {t} unknown"))),
        }
    }
}

impl Snapshot for HybridPredictor {
    fn write_state(&self, w: &mut SectionWriter) {
        self.lb.write_state(w);
        self.cap.write_state(w);
        self.stride.params().write_state(w);
        self.lt_update.write_state(w);
        self.selector_policy.write_state(w);
    }
}

impl Restorable for HybridPredictor {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let lb = LoadBuffer::read_state(r)?;
        let cap = CapComponent::read_state(r)?;
        let stride_params = StrideParams::read_state(r)?;
        // Telemetry is not snapshotted: restores come up with it off.
        Ok(Self {
            lb,
            cap,
            stride: StrideComponent::new(stride_params),
            lt_update: LtUpdatePolicy::read_state(r)?,
            selector_policy: SelectorPolicy::read_state(r)?,
            obs: Obs::off(),
        })
    }
}

impl HybridPredictor {
    /// Number of live Link Table entries (diagnostics).
    #[must_use]
    pub fn cap_link_table_occupancy(&self) -> usize {
        self.cap.link_table().occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistorySpec;
    use crate::link_table::PfMode;

    fn config() -> HybridConfig {
        HybridConfig {
            lb: LoadBufferConfig {
                entries: 256,
                assoc: 2,
            },
            lt: LinkTableConfig {
                entries: 1024,
                assoc: 2,
                pf_mode: PfMode::Inline,
            },
            cap: CapParams {
                history: HistorySpec {
                    length: 2,
                    shift: 3,
                    index_bits: 10,
                    tag_bits: 8,
                },
                ..CapParams::paper_default()
            },
            stride: StrideParams::paper_default(),
            lt_update: LtUpdatePolicy::Always,
            selector: SelectorPolicy::Dynamic,
        }
    }

    fn step(p: &mut HybridPredictor, ip: u64, actual: u64) -> Prediction {
        let ctx = LoadContext::new(ip, 0, 0);
        let pred = p.predict(&ctx);
        p.update(&ctx, actual, &pred);
        pred
    }

    #[test]
    fn covers_stride_patterns() {
        let mut p = HybridPredictor::new(config());
        let mut last = Prediction::none();
        for i in 0..2000u64 {
            last = step(&mut p, 0x40, 0x10_0000 + i * 8);
        }
        assert!(last.speculate);
        assert!(last.is_correct(0x10_0000 + 1999 * 8));
        // A 2000-long stride can't live in a 1K LT: stride side must serve.
        assert_eq!(last.source, PredSource::Stride);
    }

    #[test]
    fn covers_nonstride_patterns_via_cap() {
        let mut p = HybridPredictor::new(config());
        let pattern = [0x100u64, 0x880, 0x480, 0x280, 0x940];
        let mut last = Prediction::none();
        for _ in 0..8 {
            for &a in &pattern {
                last = step(&mut p, 0x40, a);
            }
        }
        assert!(last.speculate);
        assert_eq!(last.source, PredSource::Cap);
    }

    #[test]
    fn selector_learns_to_prefer_the_winner() {
        // The §4.3 "JAVA inner loop": tiny array swept repeatedly. Both
        // components predict; only CAP is right at the wrap. The selector
        // must drift to strong CAP.
        let mut p = HybridPredictor::new(config());
        let seq: Vec<u64> = (0..7).map(|i| 0x2000 + i * 4).collect();
        let mut final_state = 0;
        for _ in 0..30 {
            for &a in &seq {
                let pred = step(&mut p, 0x40, a);
                if let Some(s) = pred.detail.selector_state {
                    final_state = s;
                }
            }
        }
        assert_eq!(final_state, 3, "selector should reach strong CAP");
    }

    #[test]
    fn selector_static_stride_forces_stride() {
        let mut cfg = config();
        cfg.selector = SelectorPolicy::StaticStride;
        let mut p = HybridPredictor::new(cfg);
        for i in 0..20u64 {
            step(&mut p, 0x40, 0x2000 + i * 8);
        }
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert_eq!(pred.source, PredSource::Stride);
    }

    #[test]
    fn one_confident_component_suffices() {
        let mut p = HybridPredictor::new(config());
        // Random-looking short pattern CAP can learn but stride cannot.
        let pattern = [0x100u64, 0x99C, 0x230, 0x7F4];
        let mut last = Prediction::none();
        for _ in 0..10 {
            for &a in &pattern {
                last = step(&mut p, 0x40, a);
            }
        }
        assert!(last.speculate, "CAP alone must authorise the access");
        assert!(last.detail.cap_confident);
        assert!(!last.detail.stride_confident);
    }

    #[test]
    fn detail_reports_both_components() {
        let mut p = HybridPredictor::new(config());
        for i in 0..10u64 {
            step(&mut p, 0x40, 0x2000 + i * 8);
        }
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert!(pred.detail.stride_addr.is_some());
        assert!(pred.detail.selector_state.is_some());
    }

    #[test]
    fn update_policies_affect_lt_content() {
        // Under UnlessStrideCorrect, a pure stride pattern never reaches
        // the LT; under Always it does.
        let occupancy = |policy: LtUpdatePolicy| {
            let mut cfg = config();
            cfg.lt_update = policy;
            let mut p = HybridPredictor::new(cfg);
            for i in 0..200u64 {
                step(&mut p, 0x40, 0x2000 + (i % 50) * 8);
            }
            p.cap_link_table_occupancy()
        };
        let always = occupancy(LtUpdatePolicy::Always);
        let selective = occupancy(LtUpdatePolicy::UnlessStrideCorrect);
        assert!(
            selective < always,
            "selective policy must write fewer links ({selective} vs {always})"
        );
    }

    #[test]
    fn fresh_predictor_predicts_nothing() {
        let mut p = HybridPredictor::new(config());
        assert_eq!(p.predict(&LoadContext::new(0x40, 0, 0)), Prediction::none());
    }
}
