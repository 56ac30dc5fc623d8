//! Shared predictor-facing types: prediction queries, results, and the
//! `AddressPredictor` trait every predictor in this crate implements.

/// Everything a predictor may consult at prediction time.
///
/// In hardware this is what the front-end knows when the load is fetched:
/// its static IP, the immediate offset from the opcode, the current global
/// branch-history register, and (pipelined machines only) how many earlier
/// instances of the same static load are still unresolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadContext {
    /// Static instruction pointer of the load.
    pub ip: u64,
    /// Immediate offset encoded in the load opcode.
    pub offset: i32,
    /// Global branch-history register (LSB = most recent outcome).
    pub ghr: u64,
    /// Folded history of recent call-site IPs (for control-based ablation).
    pub path: u64,
    /// Number of unresolved earlier instances of this static load.
    /// Always `0` under the immediate-update model of Section 4.
    pub pending: u32,
}

impl LoadContext {
    /// Convenience constructor for the immediate-update model.
    #[must_use]
    pub fn new(ip: u64, offset: i32, ghr: u64) -> Self {
        Self {
            ip,
            offset,
            ghr,
            path: 0,
            pending: 0,
        }
    }
}

/// Which component produced the chosen predicted address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredSource {
    /// No component produced an address.
    #[default]
    None,
    /// Last-address component.
    LastAddress,
    /// (Enhanced) stride component.
    Stride,
    /// Context-based (CAP) component.
    Cap,
    /// Control-based (g-share / path) component.
    ControlBased,
}

/// Per-component diagnostic detail attached to a [`Prediction`].
///
/// The experiment harness uses these to reproduce Figure 8 (selector-state
/// distribution, correct-selection rate) without reaching into predictor
/// internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictionDetail {
    /// Address the stride component would predict, if any.
    pub stride_addr: Option<u64>,
    /// Whether the stride component's confidence allowed speculation.
    pub stride_confident: bool,
    /// Address the CAP component would predict, if any.
    pub cap_addr: Option<u64>,
    /// Whether the CAP component's confidence allowed speculation.
    pub cap_confident: bool,
    /// Hybrid selector counter state at prediction time (0–3; 0–1 stride,
    /// 2–3 CAP), if the prediction came from a hybrid.
    pub selector_state: Option<u8>,
    /// The stride component's projection of the *next* invocation's
    /// address (`predicted + stride`). \[Gonz97\] shares the prediction
    /// structures to prefetch this line; the timing core uses it when
    /// prefetching is enabled.
    pub next_invocation: Option<u64>,
}

/// The outcome of one prediction query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Prediction {
    /// The predicted effective address, if any table produced one.
    pub addr: Option<u64>,
    /// Whether confidence is high enough to launch a speculative cache
    /// access (the paper's *prediction rate* counts these).
    pub speculate: bool,
    /// Component that produced `addr`.
    pub source: PredSource,
    /// Diagnostics for the harness.
    pub detail: PredictionDetail,
}

impl Prediction {
    /// A "no prediction" result.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the predicted address matches `actual` (regardless of
    /// whether a speculative access was launched).
    #[must_use]
    pub fn is_correct(&self, actual: u64) -> bool {
        self.addr == Some(actual)
    }
}

/// A load-address predictor.
///
/// The driving loop calls [`predict`](AddressPredictor::predict) when the
/// load enters the front end and [`update`](AddressPredictor::update) when
/// its actual effective address resolves. Under the immediate-update model
/// the calls alternate; under a prediction gap the updates trail by several
/// loads (see [`crate::drive::Session::gap`]).
///
/// `update` must receive the *same* [`LoadContext`] that was passed to
/// `predict` for that dynamic instance, plus the prediction it returned.
pub trait AddressPredictor {
    /// Queries a prediction for one dynamic load. May speculatively advance
    /// internal state (e.g. CAP's speculative history) — such state is
    /// repaired on a mispredicting `update`.
    fn predict(&mut self, ctx: &LoadContext) -> Prediction;

    /// Resolves one dynamic load with its actual effective address.
    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction);

    /// Human-readable predictor name (used in reports).
    fn name(&self) -> &'static str;

    /// Attaches a telemetry sink for component-level counters (see
    /// `metrics::names`). The default implementation ignores it, so
    /// simple predictors stay telemetry-free; the in-tree predictors
    /// override it. Telemetry is *not* snapshotted — re-attach after a
    /// restore.
    fn set_obs(&mut self, obs: cap_obs::Obs) {
        let _ = obs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_none_is_inert() {
        let p = Prediction::none();
        assert_eq!(p.addr, None);
        assert!(!p.speculate);
        assert_eq!(p.source, PredSource::None);
        assert!(!p.is_correct(0));
    }

    #[test]
    fn correctness_compares_address() {
        let p = Prediction {
            addr: Some(0x40),
            speculate: true,
            source: PredSource::Stride,
            detail: PredictionDetail::default(),
        };
        assert!(p.is_correct(0x40));
        assert!(!p.is_correct(0x44));
    }

    #[test]
    fn context_constructor_defaults() {
        let ctx = LoadContext::new(0x100, 8, 0b1011);
        assert_eq!(ctx.pending, 0);
        assert_eq!(ctx.path, 0);
        assert_eq!(ctx.ghr, 0b1011);
    }
}
