//! Trace-driven predictor evaluation loops.
//!
//! [`Session`] is the single entry point: a builder that composes the
//! paper's evaluation models. The default session models Section 4
//! (every prediction resolved before the next one is made);
//! [`Session::gap`] models Section 5 (resolutions trail predictions by a
//! configurable *prediction gap*, so predictions are made with outdated
//! or speculative state and mispredictions propagate down the pipe);
//! [`Session::wrong_path`] models §5.4 pollution; [`Session::values`]
//! drives the same structures on loaded *values* for the
//! value-prediction comparison.
//!
//! Every session maintains the global branch-history register from the
//! trace's branch outcomes and a folded call-site path (for the
//! control-based ablation), and accounts statistics per the paper's
//! definitions.

use crate::metrics::PredictorStats;
use crate::types::{AddressPredictor, LoadContext, Prediction};
use cap_obs::Obs;
use cap_trace::{BranchKind, Trace, TraceEvent};
use std::collections::VecDeque;

/// Architectural control-flow state carried alongside the instruction
/// stream: the global branch-history register and a folded call path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlState {
    /// Global branch-history register (LSB = most recent outcome).
    pub ghr: u64,
    /// Folded history of recent call-site IPs.
    pub path: u64,
}

impl ControlState {
    /// Applies a branch outcome.
    pub fn on_branch(&mut self, ip: u64, taken: bool, kind: BranchKind) {
        match kind {
            BranchKind::Conditional => {
                self.ghr = (self.ghr << 1) | u64::from(taken);
            }
            BranchKind::Call => {
                self.path = (self.path << 4) ^ (ip >> 2);
            }
            BranchKind::Return => {
                // Cheap pop approximation: age the path.
                self.path >>= 4;
            }
            BranchKind::Jump => {}
        }
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for ControlState {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u64(self.ghr);
        w.put_u64(self.path);
    }
}

impl Restorable for ControlState {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            ghr: r.take_u64("control ghr")?,
            path: r.take_u64("control path")?,
        })
    }
}

/// One in-flight load awaiting resolution in the gap pipeline.
#[derive(Debug, Clone)]
struct Pending {
    ctx: LoadContext,
    pred: Prediction,
    actual: u64,
    /// Index (in dynamic instructions) at which the load was predicted.
    seq: u64,
}

/// Unresolved instances of the load at `ip` in the gap pipeline (the
/// pipe holds at most `gap + 1` entries).
fn in_flight(pipe: &VecDeque<Pending>, ip: u64) -> u32 {
    pipe.iter().filter(|p| p.ctx.ip == ip).count() as u32
}

/// A configured trace-driven evaluation run.
///
/// The default session is the immediate-update model of §4: each load
/// is predicted and resolved before the next load is seen. The builder
/// methods layer the paper's other models on top, and compose — a
/// gapped session can also suffer wrong-path pollution.
///
/// # Examples
///
/// ```
/// use cap_predictor::drive::Session;
/// use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
/// use cap_trace::suites::Suite;
///
/// let trace = Suite::Int.traces()[0].generate(2_000);
/// let mut p = HybridPredictor::new(HybridConfig::paper_default());
/// let stats = Session::new(&mut p).run(&trace);
/// assert_eq!(stats.loads as usize, trace.load_count());
///
/// // The pipelined model (§5): an 8-instruction prediction gap.
/// let mut p = HybridPredictor::new(HybridConfig::paper_pipelined());
/// let gapped = Session::new(&mut p).gap(8).run(&trace);
/// assert_eq!(gapped.loads, stats.loads);
/// ```
#[must_use = "a Session does nothing until `.run(&trace)`"]
#[derive(Debug)]
pub struct Session<'p, P: AddressPredictor + ?Sized> {
    predictor: &'p mut P,
    gap: usize,
    wrong_path_percent: u32,
    wrong_path_depth: usize,
    recovery: bool,
    values: bool,
    obs: Obs,
}

impl<'p, P: AddressPredictor + ?Sized> Session<'p, P> {
    /// A session with the §4 defaults: immediate update, no wrong-path
    /// pollution, predicting load *addresses*, telemetry off.
    pub fn new(predictor: &'p mut P) -> Self {
        Self {
            predictor,
            gap: 0,
            wrong_path_percent: 0,
            wrong_path_depth: 6,
            recovery: false,
            values: false,
            obs: Obs::off(),
        }
    }

    /// Sets the *prediction gap* (§5): the table update for a load is
    /// applied only once `gap` dynamic *instructions* have passed since
    /// its prediction. `0` (the default) is the immediate-update model.
    ///
    /// The gap is instruction-granular rather than load-granular:
    /// stretches of non-load instructions (pipeline bubbles,
    /// branch-misprediction shadows) drain pending resolutions, which
    /// is what lets a context predictor resume after a misprediction
    /// chain — the paper's §5.2 observation that "correct context-based
    /// predictions should resume on the next traversal". The session
    /// also counts, from the gap queue, the unresolved in-flight
    /// instances of each load and passes the count as
    /// [`LoadContext::pending`] so the stride catch-up and interval
    /// mechanisms can extrapolate.
    pub fn gap(mut self, gap: usize) -> Self {
        self.gap = gap;
        self
    }

    /// Enables *wrong-path pollution* (§5.4): at every conditional
    /// branch, with probability `percent`/100 (deterministic in the
    /// branch IP and position; values above 100 clamp to 100), the
    /// front end is assumed to have fetched down the wrong path and the
    /// next few loads are presented to the predictor with wrong-path
    /// addresses before the flush. Statistics count only correct-path
    /// loads. See [`Session::wrong_path_depth`] and
    /// [`Session::recovery`].
    pub fn wrong_path(mut self, percent: u32) -> Self {
        self.wrong_path_percent = percent.min(100);
        self
    }

    /// How many wrong-path loads are fetched before the flush
    /// (default 6). Only meaningful with [`Session::wrong_path`].
    pub fn wrong_path_depth(mut self, depth: usize) -> Self {
        self.wrong_path_depth = depth;
        self
    }

    /// Models the reorder-buffer-like recovery mechanism: everything
    /// the wrong path did to the predictor is undone (modelled as the
    /// wrong-path loads not touching it at all). Without recovery (the
    /// default), wrong-path loads are predicted *and* destructively
    /// updated — the hazard the paper says recovery must prevent.
    pub fn recovery(mut self, enabled: bool) -> Self {
        self.recovery = enabled;
        self
    }

    /// Predicts the loaded **value** instead of the effective address
    /// (offset is forced to 0 — values have no opcode offset). Driving
    /// the same predictor structures on values reproduces the
    /// value-prediction lineage the paper's §1 contrasts against
    /// (last-value \[Lipa96a\], stride and context value predictors
    /// \[Saze97\]\[Wang97\]) and lets the `ext-value` experiment
    /// measure the paper's claim that values are less predictable than
    /// addresses.
    pub fn values(mut self, enabled: bool) -> Self {
        self.values = enabled;
        self
    }

    /// Attaches a telemetry handle: every resolved load is mirrored
    /// into the registry through
    /// [`PredictorStats::record_with`](crate::metrics::PredictorStats::record_with).
    /// The default is [`Obs::off`], which costs one branch per call.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The quantity this session predicts and verifies for a load.
    fn actual_of(&self, load: &cap_trace::LoadRecord) -> u64 {
        if self.values { load.value } else { load.addr }
    }

    fn context_of(&self, load: &cap_trace::LoadRecord, control: &ControlState, pending: u32) -> LoadContext {
        LoadContext {
            ip: load.ip,
            offset: if self.values { 0 } else { load.offset },
            ghr: control.ghr,
            path: control.path,
            pending,
        }
    }

    /// Runs the session over `trace`, consuming the builder.
    ///
    /// An attached [`Obs`] is also handed to the predictor
    /// ([`AddressPredictor::set_obs`]) so component-level counters
    /// (`cap.lt.*`, `stride.*`, `pred.lb.*`) land in the same registry
    /// as the `pred.*` mirror of the returned stats.
    pub fn run(self, trace: &Trace) -> PredictorStats {
        if self.obs.enabled() {
            self.predictor.set_obs(self.obs.clone());
        }
        if self.wrong_path_percent > 0 {
            self.run_wrong_path(trace)
        } else if self.gap > 0 {
            self.run_gapped(trace)
        } else {
            self.run_in_order(trace)
        }
    }

    /// The §4 model: each load resolves before the next is predicted.
    fn run_in_order(self, trace: &Trace) -> PredictorStats {
        let mut stats = PredictorStats::new();
        let mut control = ControlState::default();
        for event in trace.iter() {
            match event {
                TraceEvent::Load(load) => {
                    let ctx = self.context_of(load, &control, 0);
                    let actual = self.actual_of(load);
                    let pred = self.predictor.predict(&ctx);
                    self.predictor.update(&ctx, actual, &pred);
                    stats.record_with(&pred, actual, &self.obs);
                }
                TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
                TraceEvent::Store(_) | TraceEvent::Op(_) => {}
            }
        }
        stats
    }

    fn run_gapped(self, trace: &Trace) -> PredictorStats {
        let gap = self.gap;
        let mut stats = PredictorStats::new();
        let mut control = ControlState::default();
        let mut pipe: VecDeque<Pending> = VecDeque::with_capacity(gap + 1);

        let resolve = |predictor: &mut P, stats: &mut PredictorStats, obs: &Obs, p: Pending| {
            predictor.update(&p.ctx, p.actual, &p.pred);
            stats.record_with(&p.pred, p.actual, obs);
        };

        for (seq, event) in trace.iter().enumerate() {
            let seq = seq as u64;
            // Drain resolutions older than the gap.
            while let Some(p) = pipe
                .front()
                .is_some_and(|p| p.seq + gap as u64 <= seq)
                .then(|| pipe.pop_front())
                .flatten()
            {
                resolve(self.predictor, &mut stats, &self.obs, p);
            }
            match event {
                TraceEvent::Load(load) => {
                    let ctx = self.context_of(load, &control, in_flight(&pipe, load.ip));
                    let actual = self.actual_of(load);
                    let pred = self.predictor.predict(&ctx);
                    pipe.push_back(Pending {
                        ctx,
                        pred,
                        actual,
                        seq,
                    });
                }
                TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
                TraceEvent::Store(_) | TraceEvent::Op(_) => {}
            }
        }
        while let Some(p) = pipe.pop_front() {
            resolve(self.predictor, &mut stats, &self.obs, p);
        }
        stats
    }

    fn run_wrong_path(self, trace: &Trace) -> PredictorStats {
        let gap = self.gap;
        let mut stats = PredictorStats::new();
        let mut control = ControlState::default();
        let mut pipe: VecDeque<Pending> = VecDeque::with_capacity(gap + 1);
        let events: Vec<&TraceEvent> = trace.iter().collect();

        let resolve = |predictor: &mut P, stats: &mut PredictorStats, obs: &Obs, p: Pending| {
            predictor.update(&p.ctx, p.actual, &p.pred);
            stats.record_with(&p.pred, p.actual, obs);
        };

        for (i, event) in events.iter().enumerate() {
            if gap > 0 {
                let seq = i as u64;
                while let Some(p) = pipe
                    .front()
                    .is_some_and(|p| p.seq + gap as u64 <= seq)
                    .then(|| pipe.pop_front())
                    .flatten()
                {
                    resolve(self.predictor, &mut stats, &self.obs, p);
                }
            }
            match event {
                TraceEvent::Load(load) => {
                    // With no gap the pipe stays empty, so this is 0.
                    let ctx = self.context_of(load, &control, in_flight(&pipe, load.ip));
                    let actual = self.actual_of(load);
                    let pred = self.predictor.predict(&ctx);
                    if gap > 0 {
                        pipe.push_back(Pending {
                            ctx,
                            pred,
                            actual,
                            seq: i as u64,
                        });
                    } else {
                        self.predictor.update(&ctx, actual, &pred);
                        stats.record_with(&pred, actual, &self.obs);
                    }
                }
                TraceEvent::Branch(b) => {
                    control.on_branch(b.ip, b.taken, b.kind);
                    // Deterministic "misprediction" decision.
                    let roll = (b.ip
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64))
                        % 100;
                    if b.kind == BranchKind::Conditional
                        && (roll as u32) < self.wrong_path_percent
                        && !self.recovery
                    {
                        // Wrong path: the next few static loads are fetched
                        // with wrong-path addresses, predicted, and (without
                        // recovery) destructively resolved before the flush.
                        let mut injected = 0;
                        for e in events[i + 1..].iter() {
                            if injected >= self.wrong_path_depth {
                                break;
                            }
                            if let TraceEvent::Load(l) = e {
                                let ctx = self.context_of(l, &control, 0);
                                let wrong = self.actual_of(l) ^ 0x1040;
                                let pred = self.predictor.predict(&ctx);
                                self.predictor.update(&ctx, wrong, &pred);
                                injected += 1;
                            }
                        }
                    }
                }
                TraceEvent::Store(_) | TraceEvent::Op(_) => {}
            }
        }
        while let Some(p) = pipe.pop_front() {
            resolve(self.predictor, &mut stats, &self.obs, p);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{HybridConfig, HybridPredictor};
    use crate::load_buffer::LoadBufferConfig;
    use crate::stride::{StrideParams, StridePredictor};
    use cap_trace::builder::TraceBuilder;

    fn lb_small() -> LoadBufferConfig {
        LoadBufferConfig {
            entries: 256,
            assoc: 2,
        }
    }

    // Helper to build a pure-stride trace.
    fn stride_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new();
        for i in 0..n {
            b.load(0x40, 0x1000 + i * 8, 0);
        }
        b.finish()
    }

    fn small_hybrid() -> HybridPredictor {
        let mut cfg = HybridConfig::paper_default();
        cfg.lb.entries = 256;
        cfg.lt.entries = 1024;
        cfg.lt.assoc = 2;
        cfg.cap.history.index_bits = 10;
        HybridPredictor::new(cfg)
    }

    #[test]
    fn immediate_counts_every_load() {
        let trace = stride_trace(100);
        let mut p = small_hybrid();
        let stats = Session::new(&mut p).run(&trace);
        assert_eq!(stats.loads, 100);
        assert!(stats.prediction_rate() > 0.9);
        assert!(stats.accuracy() > 0.95);
    }

    #[test]
    fn gap_zero_equals_immediate() {
        let trace = stride_trace(200);
        let mut a = small_hybrid();
        let mut b = small_hybrid();
        let sa = Session::new(&mut a).run(&trace);
        let sb = Session::new(&mut b).gap(0).run(&trace);
        assert_eq!(sa, sb);
    }

    #[test]
    fn gap_resolves_every_load_eventually() {
        let trace = stride_trace(100);
        let mut p = small_hybrid();
        let stats = Session::new(&mut p).gap(8).run(&trace);
        assert_eq!(stats.loads, 100);
    }

    #[test]
    fn stride_with_catch_up_survives_gap() {
        // A pure stride is fully predictable even under a gap thanks to
        // extrapolation.
        let trace = stride_trace(500);
        let mut p = StridePredictor::new(lb_small(), StrideParams::paper_default());
        let stats = Session::new(&mut p).gap(8).run(&trace);
        assert!(
            stats.accuracy() > 0.95,
            "catch-up must keep stride accurate under a gap (acc={})",
            stats.accuracy()
        );
        assert!(stats.prediction_rate() > 0.9);
    }

    #[test]
    fn gap_degrades_context_prediction() {
        // A short recurring pattern: perfect under immediate update, hurt
        // by the gap (CAP has no catch-up).
        let pattern = [0x100u64, 0x880, 0x480, 0x280, 0x940, 0x6C0];
        let mut b = TraceBuilder::new();
        for _ in 0..400 {
            for &a in &pattern {
                b.load(0x40, a, 0);
            }
        }
        let trace = b.finish();

        let mut immediate = small_hybrid();
        let si = Session::new(&mut immediate).run(&trace);

        let mut cfg = HybridConfig::paper_pipelined();
        cfg.lb.entries = 256;
        cfg.lt.entries = 1024;
        cfg.lt.assoc = 2;
        cfg.cap.history.index_bits = 10;
        let mut gapped = HybridPredictor::new(cfg);
        let sg = Session::new(&mut gapped).gap(8).run(&trace);

        assert!(
            si.correct_spec_rate() > sg.correct_spec_rate(),
            "gap must hurt context prediction: {} vs {}",
            si.correct_spec_rate(),
            sg.correct_spec_rate()
        );
        assert!(si.correct_spec_rate() > 0.9);
    }

    #[test]
    fn wrong_path_pollution_hurts_without_recovery() {
        let trace = cap_trace::suites::catalog()[2].generate(30_000);
        let mut clean = small_hybrid();
        let with_recovery = Session::new(&mut clean)
            .wrong_path(10)
            .recovery(true)
            .run(&trace);
        let mut dirty = small_hybrid();
        let without = Session::new(&mut dirty).wrong_path(10).run(&trace);
        assert!(
            without.correct_spec_rate() < with_recovery.correct_spec_rate(),
            "destructive wrong-path updates must cost coverage: {:.3} vs {:.3}",
            without.correct_spec_rate(),
            with_recovery.correct_spec_rate()
        );
    }

    #[test]
    fn recovery_mode_equals_clean_run() {
        let trace = cap_trace::suites::catalog()[0].generate(5_000);
        let mut a = small_hybrid();
        let clean = Session::new(&mut a).run(&trace);
        let mut b = small_hybrid();
        let recovered = Session::new(&mut b)
            .wrong_path(25)
            .wrong_path_depth(8)
            .recovery(true)
            .run(&trace);
        assert_eq!(clean, recovered, "perfect recovery leaves no trace");
    }

    #[test]
    fn gap_composes_with_wrong_path() {
        // Two models composed: a gapped pipe suffering wrong-path
        // pollution. All correct-path loads must still resolve, and
        // pollution must not help.
        let trace = cap_trace::suites::catalog()[2].generate(10_000);
        let loads = trace.load_count() as u64;
        let mut clean = small_hybrid();
        let gapped = Session::new(&mut clean).gap(8).run(&trace);
        let mut dirty = small_hybrid();
        let polluted = Session::new(&mut dirty).gap(8).wrong_path(20).run(&trace);
        assert_eq!(gapped.loads, loads);
        assert_eq!(polluted.loads, loads);
        assert!(polluted.correct_spec_rate() <= gapped.correct_spec_rate());
    }

    #[test]
    fn session_mirrors_stats_into_registry() {
        use cap_obs::Registry;
        use std::sync::Arc;

        let trace = stride_trace(300);
        let registry = Arc::new(Registry::new());
        let mut p = small_hybrid();
        let stats = Session::new(&mut p).obs(registry.obs()).run(&trace);
        let mut q = small_hybrid();
        let plain = Session::new(&mut q).run(&trace);
        assert_eq!(stats, plain, "telemetry must not change results");
        let snap = registry.snapshot();
        assert_eq!(
            crate::metrics::PredictorStats::from_obs_snapshot(&snap),
            stats,
            "registry view must reconcile with the legacy struct"
        );
    }

    #[test]
    fn ghr_tracks_conditional_branches_only() {
        let mut c = ControlState::default();
        c.on_branch(4, true, BranchKind::Conditional);
        c.on_branch(8, false, BranchKind::Conditional);
        c.on_branch(12, true, BranchKind::Conditional);
        assert_eq!(c.ghr & 0b111, 0b101);
        let before = c.ghr;
        c.on_branch(16, true, BranchKind::Jump);
        assert_eq!(c.ghr, before, "jumps must not shift the GHR");
    }

    #[test]
    fn path_tracks_calls_and_returns() {
        let mut c = ControlState::default();
        c.on_branch(0x100, true, BranchKind::Call);
        let after_call = c.path;
        assert_ne!(after_call, 0);
        c.on_branch(0x200, true, BranchKind::Return);
        assert_ne!(c.path, after_call);
    }
}

