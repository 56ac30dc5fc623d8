//! The trace-driven predictor evaluation loop.
//!
//! [`Session`] is the single entry point: a builder that composes the
//! paper's evaluation models over one loop. The default session models
//! Section 4 (every prediction resolved before the next one is made);
//! [`Session::gap`] models Section 5 (resolutions trail predictions by a
//! configurable *prediction gap*, so predictions are made with outdated
//! or speculative state and mispredictions propagate down the pipe);
//! [`Session::wrong_path`] models §5.4 pollution; [`Session::values`]
//! drives the same structures on loaded *values* for the
//! value-prediction comparison.
//!
//! The gap is a [`GapPipe`], which the timing core drives too, and
//! every driver builds a load's context with [`ControlState::context`]:
//! the global branch-history register from the trace's branch outcomes
//! and a folded call-site path (for the control-based ablation).
//! Statistics follow the paper's definitions.

use crate::metrics::PredictorStats;
use crate::types::{AddressPredictor, LoadContext, Prediction};
use cap_obs::Obs;
use cap_trace::{BranchKind, BranchRecord, LoadRecord, Trace, TraceEvent};
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

    /// The context every driver hands the predictor for `load` under
    /// this control state. [`LoadContext::pending`] is 0 here; a
    /// [`GapPipe`] fills it in.
    #[must_use]
    pub fn context(&self, load: &LoadRecord) -> LoadContext {
        LoadContext {
            ip: load.ip,
            offset: load.offset,
            ghr: self.ghr,
            path: self.path,
            pending: 0,
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

/// Wrong-path loads a [`Session::wrong_path`] branch fetches before the
/// flush.
const WRONG_PATH_DEPTH: usize = 6;

/// Whether the conditional branch `b` at instruction `seq` fetches down
/// the wrong path at `percent`% (deterministic in the branch IP and
/// position).
fn pollutes(b: &BranchRecord, seq: usize, percent: u32) -> bool {
    let hash = b.ip.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let roll = hash.wrapping_add(seq as u64) % 100;
    b.kind == BranchKind::Conditional && (roll as u32) < percent
}

/// One in-flight load awaiting resolution in the gap pipe.
#[derive(Debug, Clone)]
struct Pending {
    ctx: LoadContext,
    pred: Prediction,
    actual: u64,
    /// Index (in dynamic instructions) at which the load was predicted.
    seq: u64,
}

/// The §5 prediction gap: the queue between a load's prediction and its
/// table update, shared by [`Session`] and the timing core.
///
/// A load predicted at dynamic instruction `s` is updated, and counted
/// into the pipe's [`PredictorStats`], at the start of instruction
/// `s + gap`. Only a prediction reads the tables, so the pipe applies
/// the updates due by then when the next load is predicted
/// ([`GapPipe::predict`]), and a caller that touches the tables itself
/// first calls [`GapPipe::advance`]. A load's [`LoadContext::pending`]
/// counts the unresolved instances of its IP, and [`GapPipe::finish`]
/// resolves what is left at the end of the trace. At gap 0 a load is
/// resolved as soon as it is predicted, and the pipe never allocates.
#[derive(Debug)]
pub struct GapPipe {
    gap: u64,
    queue: VecDeque<Pending>,
    stats: PredictorStats,
    obs: Obs,
}

impl GapPipe {
    /// An empty pipe for `gap` instructions, mirroring every resolved
    /// load into `obs` (see
    /// [`PredictorStats::record_with`](crate::metrics::PredictorStats::record_with)).
    #[must_use]
    pub fn new(gap: usize, obs: Obs) -> Self {
        Self {
            gap: gap as u64,
            // Advanced at every prediction, the pipe holds at most `gap`
            // loads: one allocation at a gap, none at gap 0.
            queue: VecDeque::with_capacity(gap),
            stats: PredictorStats::new(),
            obs,
        }
    }

    /// Resolves, in prediction order, every load due by the start of
    /// instruction `seq`.
    #[inline]
    pub fn advance<P: AddressPredictor + ?Sized>(&mut self, seq: u64, predictor: &mut P) {
        while let Some(p) = self.queue.pop_front_if(|p| seq - p.seq >= self.gap) {
            self.resolve(predictor, &p.ctx, p.actual, &p.pred);
        }
    }

    /// Predicts the load in `ctx` at instruction `seq`, after resolving
    /// the loads due by then, and queues its update with `actual`, or
    /// applies it at once at gap 0.
    #[inline]
    pub fn predict<P: AddressPredictor + ?Sized>(
        &mut self,
        seq: u64,
        predictor: &mut P,
        mut ctx: LoadContext,
        actual: u64,
    ) -> Prediction {
        if self.gap == 0 {
            let pred = predictor.predict(&ctx);
            self.resolve(predictor, &ctx, actual, &pred);
            return pred;
        }
        self.advance(seq, predictor);
        ctx.pending = self.queue.iter().filter(|p| p.ctx.ip == ctx.ip).count() as u32;
        let pred = predictor.predict(&ctx);
        self.queue.push_back(Pending {
            ctx,
            pred,
            actual,
            seq,
        });
        pred
    }

    /// Resolves every load still in flight and returns the statistics of
    /// all the loads the pipe resolved.
    pub fn finish<P: AddressPredictor + ?Sized>(mut self, predictor: &mut P) -> PredictorStats {
        while let Some(p) = self.queue.pop_front() {
            self.resolve(predictor, &p.ctx, p.actual, &p.pred);
        }
        self.stats
    }

    #[inline]
    fn resolve<P: AddressPredictor + ?Sized>(
        &mut self,
        predictor: &mut P,
        ctx: &LoadContext,
        actual: u64,
        pred: &Prediction,
    ) {
        predictor.update(ctx, actual, pred);
        self.stats.record_with(pred, actual, &self.obs);
    }
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
    /// predictions should resume on the next traversal". The session's
    /// [`GapPipe`] also counts the unresolved in-flight instances of
    /// each load and passes the count as [`LoadContext::pending`] so the
    /// stride catch-up and interval mechanisms can extrapolate.
    pub fn gap(mut self, gap: usize) -> Self {
        self.gap = gap;
        self
    }

    /// Enables *wrong-path pollution* (§5.4): at every conditional
    /// branch, with probability `percent`/100 (deterministic in the
    /// branch IP and position; values above 100 clamp to 100), the
    /// front end is assumed to have fetched down the wrong path and the
    /// next six loads (`WRONG_PATH_DEPTH`) are predicted *and*
    /// destructively updated with wrong-path addresses before the flush
    /// — the hazard the paper says a reorder-buffer-like recovery
    /// mechanism must prevent. Statistics count only correct-path loads.
    /// Perfect recovery undoes everything the wrong path did, so a
    /// session without `wrong_path` models it.
    pub fn wrong_path(mut self, percent: u32) -> Self {
        self.wrong_path_percent = percent.min(100);
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

    /// Runs the session over `trace`, consuming the builder.
    ///
    /// An attached [`Obs`] is also handed to the predictor
    /// ([`AddressPredictor::set_obs`]) so component-level counters
    /// (`cap.lt.*`, `stride.*`, `pred.lb.*`) land in the same registry
    /// as the `pred.*` mirror of the returned stats.
    pub fn run(self, trace: &Trace) -> PredictorStats {
        let Session {
            predictor,
            gap,
            wrong_path_percent,
            values,
            obs,
        } = self;
        if obs.enabled() {
            predictor.set_obs(obs.clone());
        }
        // The context and the verified quantity of a load: its address,
        // or its value, which has no opcode offset.
        let observe = |load: &LoadRecord, control: &ControlState| {
            let mut ctx = control.context(load);
            if values {
                ctx.offset = 0;
                (ctx, load.value)
            } else {
                (ctx, load.addr)
            }
        };
        let events = trace.events();
        let mut pipe = GapPipe::new(gap, obs);
        let mut control = ControlState::default();
        // Each polluting branch ends a segment of the trace, so the loop
        // body never rolls for pollution; without it the whole trace is
        // one segment.
        let scan = if wrong_path_percent > 0 { events } else { &[] };
        let polluting = scan.iter().enumerate().filter_map(|(i, e)| match e {
            TraceEvent::Branch(b) if pollutes(b, i, wrong_path_percent) => Some(i),
            _ => None,
        });
        let mut start = 0;
        for branch in polluting.map(Some).chain([None]) {
            let end = branch.map_or(events.len(), |i| i + 1);
            for (seq, event) in (start as u64..).zip(&events[start..end]) {
                match event {
                    TraceEvent::Load(load) => {
                        let (ctx, actual) = observe(load, &control);
                        pipe.predict(seq, predictor, ctx, actual);
                    }
                    TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
                    TraceEvent::Store(_) | TraceEvent::Op(_) => {}
                }
            }
            // Wrong path: the next few loads are fetched with wrong-path
            // addresses, predicted, and destructively updated before the
            // flush, on the tables as they stand at the branch.
            if let Some(i) = branch {
                pipe.advance(i as u64, predictor);
                let wrong_path = events[i + 1..].iter().filter_map(TraceEvent::as_load);
                for load in wrong_path.take(WRONG_PATH_DEPTH) {
                    let (ctx, actual) = observe(load, &control);
                    let pred = predictor.predict(&ctx);
                    predictor.update(&ctx, actual ^ 0x1040, &pred);
                }
            }
            start = end;
        }
        pipe.finish(predictor)
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
        let with_recovery = Session::new(&mut clean).run(&trace);
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
