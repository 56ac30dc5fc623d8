//! The enhanced stride-based address predictor.
//!
//! Classic stride prediction (`A_{N+1} = A_N + (A_N − A_{N−1})`) extended
//! with the paper's enhancements:
//!
//! * **control-flow indications** shared with the CAP confidence machinery
//!   (§3.4),
//! * the **interval** technique — learn the array length and withhold
//!   speculation at the expected wrap, trading mispredictions for
//!   no-predictions (§5.2),
//! * the pipelined **catch-up** mechanism — extrapolate the stride across
//!   pending unresolved instances so a single wrong stride doesn't stall
//!   the predictor (§5.2).

use crate::confidence::{CfiMode, SaturatingCounter};
use crate::load_buffer::{LbEntry, LbEntryProto, LoadBuffer, LoadBufferConfig, StrideState};
use crate::metrics::names;
use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail};
use cap_obs::Obs;

/// Tunables of the stride component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideParams {
    /// Confidence threshold for speculation.
    pub conf_threshold: u8,
    /// Confidence saturation value.
    pub conf_max: u8,
    /// Hysteresis bit on the confidence counter.
    pub hysteresis: bool,
    /// Control-flow indication mode.
    pub cfi: CfiMode,
    /// Enable the interval (array-length) mechanism.
    pub interval: bool,
    /// Enable pipelined catch-up extrapolation (`stride × (pending+1)`).
    pub catch_up: bool,
}

impl StrideParams {
    /// The paper's enhanced stride configuration. The threshold of 3 is at
    /// the conservative end of the paper's "typically 2 or 3" — the
    /// enhanced stride predictor trades prediction rate for accuracy.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            conf_threshold: 3,
            conf_max: 3,
            hysteresis: false,
            cfi: CfiMode::LastMisprediction { bits: 4 },
            interval: true,
            catch_up: true,
        }
    }

    /// A plain stride predictor with only saturating-counter confidence —
    /// the related-work baseline (\[Eick93\]-style).
    #[must_use]
    pub fn plain() -> Self {
        Self {
            conf_threshold: 2,
            conf_max: 3,
            hysteresis: false,
            cfi: CfiMode::Off,
            interval: false,
            catch_up: false,
        }
    }

    /// Initial confidence counter for fresh LB entries.
    #[must_use]
    pub fn counter(&self) -> SaturatingCounter {
        SaturatingCounter::new(self.conf_threshold, self.conf_max, self.hysteresis)
    }
}

/// The stride prediction logic, operating on a shared [`LbEntry`].
///
/// Standalone ([`StridePredictor`]) and hybrid predictors both delegate
/// here, which is how the paper's shared-LB hybrid avoids duplicating
/// structures (§3.7).
#[derive(Debug, Clone)]
pub struct StrideComponent {
    params: StrideParams,
    obs: Obs,
}

impl StrideComponent {
    /// Creates the component.
    #[must_use]
    pub fn new(params: StrideParams) -> Self {
        Self {
            params,
            obs: Obs::off(),
        }
    }

    /// The component's parameters.
    #[must_use]
    pub fn params(&self) -> &StrideParams {
        &self.params
    }

    /// Attaches a telemetry sink for the `stride.*` counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Computes the component's prediction for `ctx` given its LB entry.
    /// Returns `(predicted address, confident)`.
    #[must_use]
    pub fn predict(&self, entry: &LbEntry, ctx: &LoadContext) -> (Option<u64>, bool) {
        if !entry.stride_seen || entry.stride_state == StrideState::Init {
            return (None, false);
        }
        let steps = if self.params.catch_up {
            i64::from(ctx.pending) + 1
        } else {
            1
        };
        let addr = entry
            .last_addr
            .wrapping_add((entry.stride.wrapping_mul(steps)) as u64);
        let confident = entry.stride_state == StrideState::Steady
            && entry.stride_conf.is_confident()
            && entry.stride_cfi.allows(self.params.cfi, ctx.ghr)
            && !(self.params.interval && entry.interval.exhausted(ctx.pending));
        (Some(addr), confident)
    }

    /// Applies the resolution of one dynamic load to the entry.
    ///
    /// `component_pred` is what *this component* predicted for the instance
    /// (from [`PredictionDetail::stride_addr`]).
    ///
    /// Control-flow indications record a *bad* pattern only when a
    /// speculative access used this component's address and mispredicted
    /// (§3.4) — unspeculated recovery mispredictions must not overwrite the
    /// remembered bad path. Correct verifications always feed the CFI, so a
    /// path can recover once the load turns predictable there (predictions
    /// are always verified on an LB hit).
    pub fn update(
        &self,
        entry: &mut LbEntry,
        ctx: &LoadContext,
        actual: u64,
        component_pred: Option<u64>,
        speculated: bool,
    ) {
        // Confidence bookkeeping against this component's own prediction.
        if let Some(p) = component_pred {
            let correct = p == actual;
            let was_confident = entry.stride_conf.is_confident();
            if correct {
                entry.stride_conf.on_correct();
                if self.params.interval {
                    entry.interval.on_correct();
                }
            } else {
                entry.stride_conf.on_incorrect();
                if self.params.interval {
                    entry.interval.on_incorrect();
                }
            }
            if self.obs.enabled() && entry.stride_conf.is_confident() != was_confident {
                self.obs.incr(if was_confident {
                    names::STRIDE_CONF_DEMOTE
                } else {
                    names::STRIDE_CONF_PROMOTE
                });
            }
            if correct {
                entry.stride_cfi.record(self.params.cfi, ctx.ghr, true);
            } else if speculated {
                entry.stride_cfi.record(self.params.cfi, ctx.ghr, false);
            }
        }
        // Stride state machine.
        if entry.stride_seen {
            let was_steady = entry.stride_state == StrideState::Steady;
            let delta = actual.wrapping_sub(entry.last_addr) as i64;
            match entry.stride_state {
                StrideState::Init => {
                    entry.stride = delta;
                    entry.stride_state = StrideState::Transient;
                }
                StrideState::Transient | StrideState::Steady => {
                    if delta == entry.stride {
                        entry.stride_state = StrideState::Steady;
                    } else {
                        entry.stride = delta;
                        entry.stride_state = StrideState::Transient;
                    }
                }
            }
            if self.obs.enabled() && (entry.stride_state == StrideState::Steady) != was_steady {
                self.obs.incr(if was_steady {
                    names::STRIDE_STEADY_EXIT
                } else {
                    names::STRIDE_STEADY_ENTER
                });
            }
        }
        entry.last_addr = actual;
        entry.stride_seen = true;
    }
}

/// A standalone enhanced stride predictor (LB + stride component).
#[derive(Debug, Clone)]
pub struct StridePredictor {
    lb: LoadBuffer,
    component: StrideComponent,
}

impl StridePredictor {
    /// Creates the predictor.
    ///
    /// # Examples
    ///
    /// ```
    /// use cap_predictor::stride::{StrideParams, StridePredictor};
    /// use cap_predictor::load_buffer::LoadBufferConfig;
    /// use cap_predictor::types::{AddressPredictor, LoadContext};
    ///
    /// let mut p = StridePredictor::new(LoadBufferConfig::paper_default(),
    ///                                  StrideParams::paper_default());
    /// // Train on a stride-8 sequence.
    /// for i in 0..8u64 {
    ///     let ctx = LoadContext::new(0x400, 0, 0);
    ///     let pred = p.predict(&ctx);
    ///     p.update(&ctx, 0x1000 + i * 8, &pred);
    /// }
    /// let pred = p.predict(&LoadContext::new(0x400, 0, 0));
    /// assert_eq!(pred.addr, Some(0x1000 + 8 * 8));
    /// assert!(pred.speculate);
    /// ```
    #[must_use]
    pub fn new(lb: LoadBufferConfig, params: StrideParams) -> Self {
        let proto = LbEntryProto {
            cap_conf: params.counter(),
            stride_conf: params.counter(),
        };
        Self {
            lb: LoadBuffer::new(lb, proto),
            component: StrideComponent::new(params),
        }
    }

    /// Read access to the underlying Load Buffer (diagnostics).
    #[must_use]
    pub fn load_buffer(&self) -> &LoadBuffer {
        &self.lb
    }

    /// Mutable access to the Load Buffer (fault injection / chaos testing).
    pub fn load_buffer_mut(&mut self) -> &mut LoadBuffer {
        &mut self.lb
    }
}

impl AddressPredictor for StridePredictor {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let Some(entry) = self.lb.lookup(ctx.ip) else {
            self.component.obs.incr(names::LB_MISS);
            return Prediction::none();
        };
        self.component.obs.incr(names::LB_HIT);
        let (addr, confident) = self.component.predict(entry, ctx);
        let stride = entry.stride;
        Prediction {
            addr,
            speculate: addr.is_some() && confident,
            source: if addr.is_some() {
                PredSource::Stride
            } else {
                PredSource::None
            },
            detail: PredictionDetail {
                stride_addr: addr,
                stride_confident: confident,
                next_invocation: addr.map(|a| a.wrapping_add(stride as u64)),
                ..PredictionDetail::default()
            },
        }
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        let (entry, fresh) = self.lb.lookup_or_insert(ctx.ip);
        if fresh {
            self.component.obs.incr(names::LB_ALLOC);
        }
        self.component
            .update(entry, ctx, actual, pred.detail.stride_addr, pred.speculate);
    }

    fn name(&self) -> &'static str {
        "enhanced-stride"
    }

    fn set_obs(&mut self, obs: Obs) {
        self.component.set_obs(obs);
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for StrideParams {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u8(self.conf_threshold);
        w.put_u8(self.conf_max);
        w.put_bool(self.hysteresis);
        self.cfi.write_state(w);
        w.put_bool(self.interval);
        w.put_bool(self.catch_up);
    }
}

impl Restorable for StrideParams {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let params = Self {
            conf_threshold: r.take_u8("stride conf threshold")?,
            conf_max: r.take_u8("stride conf max")?,
            hysteresis: r.take_bool("stride hysteresis")?,
            cfi: CfiMode::read_state(r)?,
            interval: r.take_bool("stride interval")?,
            catch_up: r.take_bool("stride catch up")?,
        };
        if params.conf_threshold == 0 || params.conf_threshold > params.conf_max {
            return Err(r.bad_value(format!(
                "stride conf threshold {} outside 1..=max ({})",
                params.conf_threshold, params.conf_max
            )));
        }
        Ok(params)
    }
}

impl Snapshot for StridePredictor {
    fn write_state(&self, w: &mut SectionWriter) {
        self.component.params.write_state(w);
        self.lb.write_state(w);
    }
}

impl Restorable for StridePredictor {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let params = StrideParams::read_state(r)?;
        Ok(Self {
            lb: LoadBuffer::read_state(r)?,
            component: StrideComponent::new(params),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> StridePredictor {
        StridePredictor::new(
            LoadBufferConfig {
                entries: 64,
                assoc: 2,
            },
            StrideParams::paper_default(),
        )
    }

    fn step(p: &mut StridePredictor, ip: u64, actual: u64) -> Prediction {
        let ctx = LoadContext::new(ip, 0, 0);
        let pred = p.predict(&ctx);
        p.update(&ctx, actual, &pred);
        pred
    }

    #[test]
    fn learns_constant_stride() {
        let mut p = predictor();
        let mut last = Prediction::none();
        for i in 0..10u64 {
            last = step(&mut p, 0x40, 0x1000 + i * 16);
        }
        assert_eq!(last.addr, Some(0x1000 + 9 * 16));
        assert!(last.speculate);
    }

    #[test]
    fn constant_address_is_zero_stride() {
        let mut p = predictor();
        for _ in 0..5 {
            step(&mut p, 0x40, 0xAAAA);
        }
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert_eq!(pred.addr, Some(0xAAAA));
        assert!(pred.speculate, "last-address behaviour is stride 0");
    }

    #[test]
    fn stride_change_drops_confidence() {
        let mut p = predictor();
        for i in 0..6u64 {
            step(&mut p, 0x40, 0x1000 + i * 8);
        }
        // Break the stride.
        step(&mut p, 0x40, 0x9000);
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert!(!pred.speculate, "misprediction must silence speculation");
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = predictor();
        for i in 0..6u64 {
            step(&mut p, 0x40, 0x9000 - i * 4);
        }
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert_eq!(pred.addr, Some(0x9000 - 6 * 4));
    }

    #[test]
    fn interval_withholds_speculation_at_wrap() {
        let mut p = predictor();
        // Two full sweeps of an 8-element array teach the interval.
        for _sweep in 0..3 {
            for i in 0..8u64 {
                step(&mut p, 0x40, 0x2000 + i * 4);
            }
        }
        // Mid-sweep: confident.
        for i in 0..8u64 {
            let pred = step(&mut p, 0x40, 0x2000 + i * 4);
            if i >= 5 {
                assert!(pred.speculate, "mid-sweep element {i} should speculate");
            }
        }
        // The 8th prediction is the wrap: interval must withhold it.
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert!(
            !pred.speculate,
            "interval mechanism must withhold the wrap prediction"
        );
    }

    #[test]
    fn catch_up_extrapolates_across_pending() {
        let mut p = predictor();
        for i in 0..6u64 {
            step(&mut p, 0x40, 0x1000 + i * 8);
        }
        // 3 unresolved instances in flight: predict instance N+4.
        let ctx = LoadContext {
            pending: 3,
            ..LoadContext::new(0x40, 0, 0)
        };
        let pred = p.predict(&ctx);
        assert_eq!(pred.addr, Some(0x1000 + 5 * 8 + 4 * 8));
    }

    #[test]
    fn no_catch_up_predicts_stale_next() {
        let mut p = StridePredictor::new(
            LoadBufferConfig {
                entries: 64,
                assoc: 2,
            },
            StrideParams {
                catch_up: false,
                ..StrideParams::paper_default()
            },
        );
        for i in 0..6u64 {
            step(&mut p, 0x40, 0x1000 + i * 8);
        }
        let ctx = LoadContext {
            pending: 3,
            ..LoadContext::new(0x40, 0, 0)
        };
        let pred = p.predict(&ctx);
        assert_eq!(pred.addr, Some(0x1000 + 6 * 8), "no extrapolation");
    }

    #[test]
    fn cfi_reduces_wrong_speculative_accesses_on_bad_paths() {
        // A load that is constant on path 0 of the GHR but jumps to a
        // random address on path 1. Control-flow indications must cut the
        // number of wrong speculative accesses relative to CFI-off,
        // because the bad path gets remembered and vetoed.
        use cap_rand::{Rng, SeedableRng};
        let run = |cfi: CfiMode| {
            let mut rng = cap_rand::rngs::StdRng::seed_from_u64(7);
            let mut p = StridePredictor::new(
                LoadBufferConfig {
                    entries: 64,
                    assoc: 2,
                },
                StrideParams {
                    cfi,
                    interval: false,
                    ..StrideParams::paper_default()
                },
            );
            let mut wrong_spec = 0;
            for i in 0..2000u64 {
                // Mostly path 0 (ghr LSB 0), sometimes path 1.
                let bad_path = i % 7 == 6;
                let ghr = u64::from(bad_path);
                let actual = if bad_path {
                    rng.gen::<u32>() as u64 & !3
                } else {
                    0xAAA0
                };
                let ctx = LoadContext::new(0x40, 0, ghr);
                let pred = p.predict(&ctx);
                if pred.speculate && !pred.is_correct(actual) {
                    wrong_spec += 1;
                }
                p.update(&ctx, actual, &pred);
            }
            wrong_spec
        };
        let without = run(CfiMode::Off);
        let with = run(CfiMode::LastMisprediction { bits: 1 });
        assert!(
            with < without,
            "CFI must reduce wrong speculative accesses: {with} vs {without}"
        );
        assert!(
            without > 0,
            "the workload must actually provoke mispredictions"
        );
    }

    #[test]
    fn per_path_cfi_also_reduces_wrong_speculation() {
        use cap_rand::{Rng, SeedableRng};
        let run = |cfi: CfiMode| {
            let mut rng = cap_rand::rngs::StdRng::seed_from_u64(9);
            let mut p = StridePredictor::new(
                LoadBufferConfig {
                    entries: 64,
                    assoc: 2,
                },
                StrideParams {
                    cfi,
                    interval: false,
                    ..StrideParams::paper_default()
                },
            );
            let mut wrong_spec = 0;
            for i in 0..2000u64 {
                let bad_path = i % 9 == 8;
                let ghr = if bad_path { 0b11 } else { i % 2 };
                let actual = if bad_path {
                    rng.gen::<u32>() as u64 & !3
                } else {
                    0xBBB0
                };
                let ctx = LoadContext::new(0x40, 0, ghr);
                let pred = p.predict(&ctx);
                if pred.speculate && !pred.is_correct(actual) {
                    wrong_spec += 1;
                }
                p.update(&ctx, actual, &pred);
            }
            wrong_spec
        };
        let without = run(CfiMode::Off);
        let with = run(CfiMode::PerPath { bits: 2 });
        assert!(
            with < without,
            "per-path CFI must reduce wrong speculative accesses: {with} vs {without}"
        );
    }

    #[test]
    fn unknown_ip_yields_no_prediction() {
        let mut p = predictor();
        let pred = p.predict(&LoadContext::new(0x9999, 0, 0));
        assert_eq!(pred, Prediction::none());
    }

    #[test]
    fn first_occurrence_never_predicts() {
        let mut p = predictor();
        step(&mut p, 0x40, 0x1000);
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert_eq!(pred.addr, None, "single observation gives no stride");
    }
}
