//! The graceful-degradation ladder.
//!
//! The paper's hybrid already degrades *inside* the algorithm: per-load
//! confidence counters make CAP fall back to enhanced stride when
//! context prediction goes cold. The ladder lifts the same shape to
//! service granularity:
//!
//! ```text
//!   Hybrid ──► StrideOnly ──► Bypass
//!   (full)     (cheap, safe)  (no-predict passthrough)
//! ```
//!
//! A worker steps **down** immediately when the rung's breaker trips or
//! its shard's queue crosses the pressure watermark, and steps back
//! **up** only one rung at a time, after `promote_after` consecutive
//! healthy requests *and* only when the better rung's breaker permits
//! calls again — so a flapping backend cannot yank the service straight
//! back to the top and fail again.

use crate::names;
use cap_obs::Obs;

/// A rung of the ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Full hybrid prediction (paper §3.5) — the top rung.
    Hybrid = 0,
    /// Enhanced-stride-only prediction (paper §3.2) — cheaper and
    /// immune to Link Table pathologies.
    StrideOnly = 1,
    /// No prediction at all: requests pass through with an empty
    /// prediction and no training. The safe serial path.
    Bypass = 2,
}

impl Rung {
    /// All rungs, best first.
    pub const ALL: [Rung; 3] = [Rung::Hybrid, Rung::StrideOnly, Rung::Bypass];

    /// Short lowercase name for stats and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rung::Hybrid => "hybrid",
            Rung::StrideOnly => "stride-only",
            Rung::Bypass => "bypass",
        }
    }

    /// Index into [`Rung::ALL`] (0 = best).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// One rung worse, saturating at [`Rung::Bypass`].
    #[must_use]
    pub fn down(self) -> Rung {
        match self {
            Rung::Hybrid => Rung::StrideOnly,
            Rung::StrideOnly | Rung::Bypass => Rung::Bypass,
        }
    }

    /// One rung better, saturating at [`Rung::Hybrid`].
    #[must_use]
    pub fn up(self) -> Rung {
        match self {
            Rung::Bypass => Rung::StrideOnly,
            Rung::StrideOnly | Rung::Hybrid => Rung::Hybrid,
        }
    }
}

/// Ladder tuning.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Consecutive healthy requests required before promoting one rung.
    pub promote_after: u32,
    /// Queue depth at (or above) which the ladder treats the worker as
    /// pressured and steps down.
    pub pressure_high: usize,
    /// Queue depth at (or below) which pressure is considered relieved
    /// (hysteresis: between the watermarks the current verdict holds).
    pub pressure_low: usize,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            promote_after: 32,
            pressure_high: 48,
            pressure_low: 16,
        }
    }
}

/// Per-worker ladder state machine.
#[derive(Debug)]
pub struct Ladder {
    config: LadderConfig,
    rung: Rung,
    healthy_streak: u32,
    pressured: bool,
    /// Lifetime demotions/promotions, for stats.
    demotions: u64,
    promotions: u64,
    obs: Obs,
}

/// What the ladder needs to know about the world each time it
/// reassesses: which rungs' backends would currently accept a call, and
/// how many callers are queued for the shard.
#[derive(Debug, Clone, Copy)]
pub struct LadderInputs {
    /// Hybrid breaker permits calls (closed or half-open).
    pub hybrid_available: bool,
    /// Stride breaker permits calls.
    pub stride_available: bool,
    /// Callers currently waiting for this worker's shard.
    pub queue_depth: usize,
}

impl Ladder {
    /// A ladder starting on the given rung.
    #[must_use]
    pub fn new(config: LadderConfig, initial: Rung) -> Self {
        Self {
            config,
            rung: initial,
            healthy_streak: 0,
            pressured: false,
            demotions: 0,
            promotions: 0,
            obs: Obs::off(),
        }
    }

    /// Attaches a telemetry sink for the `service.ladder.*` transition
    /// counters. Not part of any snapshot — re-attach after a restore.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The rung the worker should serve the next request on.
    #[must_use]
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// Lifetime number of step-downs.
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Lifetime number of step-ups.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    fn availability(inputs: &LadderInputs, rung: Rung) -> bool {
        match rung {
            Rung::Hybrid => inputs.hybrid_available,
            Rung::StrideOnly => inputs.stride_available,
            Rung::Bypass => true,
        }
    }

    /// The best rung whose backend is currently available, starting the
    /// search at `from` and walking down.
    fn best_available_from(inputs: &LadderInputs, from: Rung) -> Rung {
        let mut rung = from;
        while !Self::availability(inputs, rung) {
            rung = rung.down();
        }
        rung
    }

    /// Reassesses the rung before serving one request. Demotions apply
    /// immediately; promotions wait for `promote_after` consecutive
    /// healthy requests (tracked via [`Ladder::note_outcome`]) and
    /// climb one rung at a time.
    pub fn reassess(&mut self, inputs: &LadderInputs) -> Rung {
        // Pressure hysteresis on the shard's queue.
        if inputs.queue_depth >= self.config.pressure_high {
            self.pressured = true;
        } else if inputs.queue_depth <= self.config.pressure_low {
            self.pressured = false;
        }

        // The best rung the world currently allows: best available
        // from the top, minus one under queue pressure — shedding
        // prediction work is exactly the cheap capacity we can
        // reclaim. Computed from the top (not the current rung) so
        // sustained pressure holds the rung rather than ratcheting it
        // down one step per request.
        let mut floor = Self::best_available_from(inputs, Rung::Hybrid);
        if self.pressured {
            floor = floor.down();
        }

        if floor > self.rung {
            // Current rung is better than allowed: step down now.
            self.rung = floor;
            self.healthy_streak = 0;
            self.demotions += 1;
            self.obs.incr(names::LADDER_DEMOTE);
        } else if self.rung > floor && self.healthy_streak >= self.config.promote_after.max(1) {
            // Sustained health below the allowed ceiling: try one rung
            // up, if its backend will have us.
            let candidate = self.rung.up();
            if Self::availability(inputs, candidate) {
                self.rung = candidate;
                self.healthy_streak = 0;
                self.promotions += 1;
                self.obs.incr(names::LADDER_PROMOTE);
            }
        }
        self.rung
    }

    /// Records the outcome of the request just served. Only healthy
    /// outcomes extend the promotion streak; any failure resets it.
    pub fn note_outcome(&mut self, healthy: bool) {
        if healthy {
            self.healthy_streak = self.healthy_streak.saturating_add(1);
        } else {
            self.healthy_streak = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LadderConfig {
        LadderConfig {
            promote_after: 3,
            pressure_high: 8,
            pressure_low: 2,
        }
    }

    fn calm(hybrid: bool, stride: bool) -> LadderInputs {
        LadderInputs {
            hybrid_available: hybrid,
            stride_available: stride,
            queue_depth: 0,
        }
    }

    #[test]
    fn rung_ordering_and_saturation() {
        assert!(Rung::Hybrid < Rung::StrideOnly);
        assert_eq!(Rung::Hybrid.down(), Rung::StrideOnly);
        assert_eq!(Rung::Bypass.down(), Rung::Bypass);
        assert_eq!(Rung::Bypass.up(), Rung::StrideOnly);
        assert_eq!(Rung::Hybrid.up(), Rung::Hybrid);
        assert_eq!(Rung::ALL[Rung::StrideOnly.index()], Rung::StrideOnly);
    }

    #[test]
    fn breaker_trip_steps_down_immediately() {
        let mut l = Ladder::new(config(), Rung::Hybrid);
        assert_eq!(l.reassess(&calm(true, true)), Rung::Hybrid);
        assert_eq!(l.reassess(&calm(false, true)), Rung::StrideOnly);
        assert_eq!(l.demotions(), 1);
        // Both breakers open: all the way to bypass.
        assert_eq!(l.reassess(&calm(false, false)), Rung::Bypass);
        assert_eq!(l.demotions(), 2);
    }

    #[test]
    fn promotion_needs_sustained_health_and_an_available_backend() {
        let mut l = Ladder::new(config(), Rung::StrideOnly);
        // Healthy but not for long enough: stays put.
        for _ in 0..2 {
            l.note_outcome(true);
            assert_eq!(l.reassess(&calm(true, true)), Rung::StrideOnly);
        }
        l.note_outcome(true);
        assert_eq!(l.reassess(&calm(true, true)), Rung::Hybrid);
        assert_eq!(l.promotions(), 1);
    }

    #[test]
    fn promotion_waits_for_the_breaker() {
        let mut l = Ladder::new(config(), Rung::StrideOnly);
        for _ in 0..10 {
            l.note_outcome(true);
        }
        // Hybrid breaker still open: no promotion no matter the streak.
        assert_eq!(l.reassess(&calm(false, true)), Rung::StrideOnly);
        // Breaker admits probes again: climb.
        assert_eq!(l.reassess(&calm(true, true)), Rung::Hybrid);
    }

    #[test]
    fn failure_resets_the_streak() {
        let mut l = Ladder::new(config(), Rung::StrideOnly);
        l.note_outcome(true);
        l.note_outcome(true);
        l.note_outcome(false);
        l.note_outcome(true);
        assert_eq!(l.reassess(&calm(true, true)), Rung::StrideOnly);
    }

    #[test]
    fn climb_from_bypass_is_one_rung_at_a_time() {
        let mut l = Ladder::new(config(), Rung::Bypass);
        for _ in 0..3 {
            l.note_outcome(true);
        }
        assert_eq!(l.reassess(&calm(true, true)), Rung::StrideOnly);
        for _ in 0..3 {
            l.note_outcome(true);
        }
        assert_eq!(l.reassess(&calm(true, true)), Rung::Hybrid);
        assert_eq!(l.promotions(), 2);
    }

    #[test]
    fn queue_pressure_demotes_with_hysteresis() {
        let mut l = Ladder::new(config(), Rung::Hybrid);
        let mut inputs = calm(true, true);
        inputs.queue_depth = 8; // at the high watermark
        assert_eq!(l.reassess(&inputs), Rung::StrideOnly);
        // Between watermarks: verdict holds even with a long streak.
        inputs.queue_depth = 5;
        for _ in 0..10 {
            l.note_outcome(true);
        }
        assert_eq!(l.reassess(&inputs), Rung::StrideOnly);
        // Below the low watermark: pressure clears, promotion resumes.
        inputs.queue_depth = 2;
        assert_eq!(l.reassess(&inputs), Rung::Hybrid);
    }

    #[test]
    fn pressure_on_a_degraded_rung_pushes_further_down() {
        let mut l = Ladder::new(config(), Rung::Hybrid);
        let mut inputs = calm(false, true);
        inputs.queue_depth = 20;
        // Hybrid unavailable AND pressured: stride-only minus one.
        assert_eq!(l.reassess(&inputs), Rung::Bypass);
    }
}
