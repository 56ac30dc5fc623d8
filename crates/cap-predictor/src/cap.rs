//! The correlated Context-based Address Predictor (CAP) — §3.
//!
//! Two levels: the per-static-load **Load Buffer** holds a history of
//! recent *base* addresses; the folded history indexes the **Link Table**,
//! which yields the predicted next base address. The predicted effective
//! address is the link plus the load's recorded offset LSBs (Figure 3).
//!
//! **Global correlation** (§3.3): storing base addresses (`effective −
//! immediate offset`) instead of effective addresses lets every load that
//! walks the same recursive data structure share LT links — one update to
//! any field benefits them all. Only the low
//! [`CapParams::offset_lsb_bits`] bits of the offset are subtracted; the
//! offset MSBs stay inside the base address, which prevents LT aliasing
//! between different arrays/hash tables that share index sequences (and
//! keeps the post-LT adder narrow).
//!
//! **Pipelined operation** (§5.2): with `speculative_history` enabled the
//! predictor rolls a speculative copy of the history forward at predict
//! time so back-to-back instances of the same load chain predictions;
//! a mispredicting resolution repairs the speculative history from the
//! architectural one, which also naturally stops speculation until the
//! pending wrong-path instances drain (CAP has no catch-up mechanism).

use crate::confidence::{CfiMode, SaturatingCounter};
use crate::history::HistorySpec;
use crate::link_table::{LinkTable, LinkTableConfig, LtWrite};
use crate::load_buffer::{LbEntry, LbEntryProto, LoadBuffer, LoadBufferConfig};
use crate::metrics::names;
use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail};
use cap_obs::Obs;

/// Tunables of the CAP component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapParams {
    /// History recording/compression parameters.
    pub history: HistorySpec,
    /// Record base addresses (global correlation) instead of effective
    /// addresses.
    pub global_correlation: bool,
    /// How many offset LSBs are subtracted out of the base address and
    /// recorded in the LB (8 in the paper).
    pub offset_lsb_bits: u32,
    /// Confidence threshold for speculation.
    pub conf_threshold: u8,
    /// Confidence saturation value.
    pub conf_max: u8,
    /// Hysteresis bit on the confidence counter.
    pub hysteresis: bool,
    /// Control-flow indication mode.
    pub cfi: CfiMode,
    /// When `false`, every prediction launches a speculative access —
    /// Figure 9 isolates global correlation this way.
    pub confidence_enabled: bool,
    /// Roll a speculative history at predict time (pipelined mode, §5.2).
    pub speculative_history: bool,
}

impl CapParams {
    /// The paper's baseline CAP configuration (immediate update).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            history: HistorySpec::paper_default(),
            global_correlation: true,
            offset_lsb_bits: 8,
            conf_threshold: 2,
            conf_max: 3,
            hysteresis: false,
            cfi: CfiMode::LastMisprediction { bits: 4 },
            confidence_enabled: true,
            speculative_history: false,
        }
    }

    /// Initial confidence counter for fresh LB entries.
    #[must_use]
    pub fn counter(&self) -> SaturatingCounter {
        SaturatingCounter::new(self.conf_threshold, self.conf_max, self.hysteresis)
    }

    /// The offset LSBs recorded in the LB for a load with this immediate.
    #[must_use]
    pub fn offset_lsb(&self, offset: i32) -> u32 {
        if !self.global_correlation || self.offset_lsb_bits == 0 {
            return 0;
        }
        (offset as u32) & ((1u32 << self.offset_lsb_bits) - 1)
    }

    /// Base address of an effective address under this configuration.
    #[must_use]
    pub fn base_of(&self, addr: u64, offset: i32) -> u64 {
        addr.wrapping_sub(u64::from(self.offset_lsb(offset)))
    }
}

/// The CAP prediction logic (LT + per-entry fields), operating on a shared
/// [`LbEntry`]. Standalone ([`CapPredictor`]) and hybrid predictors both
/// delegate here.
#[derive(Debug, Clone)]
pub struct CapComponent {
    params: CapParams,
    lt: LinkTable,
    obs: Obs,
}

impl CapComponent {
    /// Creates the component.
    ///
    /// # Panics
    ///
    /// Panics if the history spec is invalid or `lt`'s index width doesn't
    /// cover the configured LT.
    #[must_use]
    pub fn new(params: CapParams, lt: LinkTableConfig) -> Self {
        params.history.validate();
        assert!(
            (1usize << params.history.index_bits) >= lt.sets(),
            "history index bits must cover the LT sets"
        );
        Self {
            params,
            lt: LinkTable::new(lt),
            obs: Obs::off(),
        }
    }

    /// The component's parameters.
    #[must_use]
    pub fn params(&self) -> &CapParams {
        &self.params
    }

    /// Attaches a telemetry sink for the `cap.*` counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Read access to the Link Table (diagnostics).
    #[must_use]
    pub fn link_table(&self) -> &LinkTable {
        &self.lt
    }

    /// Mutable access to the Link Table (fault injection / chaos testing).
    pub fn link_table_mut(&mut self) -> &mut LinkTable {
        &mut self.lt
    }

    /// Computes the component's prediction for `ctx` given its LB entry.
    /// Returns `(predicted effective address, confident)`.
    ///
    /// With speculative history enabled, a successful lookup also rolls the
    /// entry's speculative history forward by the predicted base.
    pub fn predict(&mut self, entry: &mut LbEntry, ctx: &LoadContext) -> (Option<u64>, bool) {
        let spec = &self.params.history;
        let hist = if self.params.speculative_history {
            &entry.spec_history
        } else {
            &entry.history
        };
        if !hist.is_warm(spec) {
            return (None, false);
        }
        let folded = hist.fold(spec);
        let Some(link) = self.lt.lookup(&folded) else {
            self.obs.incr(names::CAP_LT_MISS);
            return (None, false);
        };
        self.obs.incr(names::CAP_LT_HIT);
        let addr = link.wrapping_add(u64::from(entry.offset_lsb));
        let confident = !self.params.confidence_enabled
            || (entry.cap_conf.is_confident() && entry.cap_cfi.allows(self.params.cfi, ctx.ghr));
        if self.params.speculative_history {
            entry.spec_history.push(link, spec);
        }
        (Some(addr), confident)
    }

    /// Predicts the addresses of the next `n` instances of this static
    /// load by chaining Link Table lookups — the §5.4 mechanism for
    /// "performing several predictions of the same static instruction in
    /// the same cycle", analogous in concept to the two-block-ahead branch
    /// predictor \[Sezn96\]. The chain stops early at the first LT miss
    /// (the context beyond it is unknown).
    ///
    /// Does not disturb the entry's speculative state: the walk uses a
    /// scratch copy of the history.
    #[must_use]
    pub(crate) fn predict_ahead(&self, entry: &LbEntry, n: usize) -> Vec<u64> {
        let spec = &self.params.history;
        let mut hist = entry.history.clone();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if !hist.is_warm(spec) {
                break;
            }
            let folded = hist.fold(spec);
            let Some(link) = self.lt.lookup(&folded) else {
                break;
            };
            out.push(link.wrapping_add(u64::from(entry.offset_lsb)));
            hist.push(link, spec);
        }
        out
    }

    /// Applies the resolution of one dynamic load.
    ///
    /// `component_pred` is what *this component* predicted for the instance
    /// (from [`PredictionDetail::cap_addr`]); `speculated` whether a
    /// speculative access was launched with it; `update_lt` implements the
    /// hybrid's LT update policies (§4.3) — standalone CAP passes `true`.
    pub fn update(
        &mut self,
        entry: &mut LbEntry,
        ctx: &LoadContext,
        actual: u64,
        component_pred: Option<u64>,
        speculated: bool,
        update_lt: bool,
    ) {
        let spec = self.params.history;
        entry.offset_lsb = self.params.offset_lsb(ctx.offset);
        let actual_base = self.params.base_of(actual, ctx.offset);

        // Confidence bookkeeping. Bad CFI patterns are recorded only on
        // speculated mispredictions (§3.4); correct verifications always
        // feed the CFI so blocked paths can recover.
        if let Some(p) = component_pred {
            let correct = p == actual;
            let was_confident = entry.cap_conf.is_confident();
            if correct {
                entry.cap_conf.on_correct();
            } else {
                entry.cap_conf.on_incorrect();
            }
            if self.obs.enabled() && entry.cap_conf.is_confident() != was_confident {
                self.obs.incr(if was_confident {
                    names::CAP_CONF_DEMOTE
                } else {
                    names::CAP_CONF_PROMOTE
                });
            }
            if correct {
                entry.cap_cfi.record(self.params.cfi, ctx.ghr, true);
            } else if speculated {
                entry.cap_cfi.record(self.params.cfi, ctx.ghr, false);
            }
        }

        // Link the architectural context (the history *before* this
        // instance) to the address that followed it.
        if update_lt && entry.history.is_warm(&spec) {
            let folded = entry.history.fold(&spec);
            let outcome = self.lt.update_outcome(&folded, actual_base);
            if self.obs.enabled() {
                self.obs.incr(match outcome {
                    LtWrite::Fill => names::CAP_LT_FILL,
                    LtWrite::Refresh => names::CAP_LT_REFRESH,
                    LtWrite::Retrain => names::CAP_LT_RETRAIN,
                    LtWrite::Replace => names::CAP_LT_REPLACE,
                    LtWrite::Deferred => names::CAP_LT_DEFERRED,
                });
            }
        }

        // Advance the architectural history.
        entry.history.push(actual_base, &spec);

        // Repair speculative state on a wrong or absent prediction: the
        // speculative history has diverged (or missed a push) and every
        // in-flight prediction derived from it is wrong anyway. Copying the
        // architectural history restarts the chain — CAP's lack of a
        // catch-up mechanism (§5.2) falls out of this: until the pending
        // instances resolve, refreshed lookups miss in the LT (cold
        // context) and no speculative accesses are launched.
        if self.params.speculative_history && component_pred != Some(actual) {
            entry.spec_history.copy_from(&entry.history);
        }
    }
}

/// Configuration of a standalone [`CapPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapConfig {
    /// Load Buffer geometry.
    pub lb: LoadBufferConfig,
    /// Link Table geometry.
    pub lt: LinkTableConfig,
    /// Component tunables.
    pub params: CapParams,
}

impl CapConfig {
    /// The paper's baseline: 4K-entry 2-way LB, 4K-entry direct-mapped LT,
    /// base addresses, CF indications, PF bits, 8-bit LT tags.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            lb: LoadBufferConfig::paper_default(),
            lt: LinkTableConfig::paper_default(),
            params: CapParams::paper_default(),
        }
    }
}

/// A standalone CAP predictor (LB + CAP component).
#[derive(Debug, Clone)]
pub struct CapPredictor {
    lb: LoadBuffer,
    component: CapComponent,
}

impl CapPredictor {
    /// Creates the predictor.
    ///
    /// # Examples
    ///
    /// Predicting a recurring non-stride pattern no stride predictor can
    /// handle:
    ///
    /// ```
    /// use cap_predictor::cap::{CapConfig, CapPredictor};
    /// use cap_predictor::types::{AddressPredictor, LoadContext};
    ///
    /// let mut p = CapPredictor::new(CapConfig::paper_default());
    /// let pattern = [0x1018u64, 0x8818, 0x4818, 0x2818]; // linked list
    /// for _ in 0..8 {
    ///     for &addr in &pattern {
    ///         let ctx = LoadContext::new(0x400, 0x18, 0);
    ///         let pred = p.predict(&ctx);
    ///         p.update(&ctx, addr, &pred);
    ///     }
    /// }
    /// let pred = p.predict(&LoadContext::new(0x400, 0x18, 0));
    /// assert_eq!(pred.addr, Some(pattern[0]));
    /// assert!(pred.speculate);
    /// ```
    #[must_use]
    pub fn new(config: CapConfig) -> Self {
        let proto = LbEntryProto {
            cap_conf: config.params.counter(),
            stride_conf: config.params.counter(),
        };
        Self {
            lb: LoadBuffer::new(config.lb, proto),
            component: CapComponent::new(config.params, config.lt),
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

    /// Read access to the CAP component (diagnostics).
    #[must_use]
    pub fn component(&self) -> &CapComponent {
        &self.component
    }

    /// Read access to the Link Table (diagnostics).
    #[must_use]
    pub fn link_table(&self) -> &LinkTable {
        self.component.link_table()
    }

    /// Mutable access to the Link Table (fault injection / chaos testing).
    pub fn link_table_mut(&mut self) -> &mut LinkTable {
        self.component.link_table_mut()
    }

    /// Predicts the next `n` instances of the static load at `ip` by
    /// chaining Link Table lookups over a scratch copy of the entry's
    /// history (§5.4). Returns fewer than `n` addresses when the chain
    /// reaches unknown context, and an empty vector on an LB miss or a
    /// cold history.
    ///
    /// This is the one public lookahead entry point (the component-level
    /// walk it delegates to is crate-private). It is a pure read: it
    /// disturbs neither the entry's speculative state nor the LB's LRU
    /// order, so interleaving it with [`AddressPredictor::predict`] /
    /// [`AddressPredictor::update`] cannot change an evaluation's
    /// outcome.
    #[must_use]
    pub fn predict_ahead(&self, ip: u64, n: usize) -> Vec<u64> {
        match self.lb.peek(ip) {
            Some(entry) => self.component.predict_ahead(entry, n),
            None => Vec::new(),
        }
    }
}

impl AddressPredictor for CapPredictor {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let Some(entry) = self.lb.lookup(ctx.ip) else {
            self.component.obs.incr(names::LB_MISS);
            return Prediction::none();
        };
        self.component.obs.incr(names::LB_HIT);
        let (addr, confident) = self.component.predict(entry, ctx);
        Prediction {
            addr,
            speculate: addr.is_some() && confident,
            source: if addr.is_some() {
                PredSource::Cap
            } else {
                PredSource::None
            },
            detail: PredictionDetail {
                cap_addr: addr,
                cap_confident: confident,
                ..PredictionDetail::default()
            },
        }
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        let (entry, fresh) = self.lb.lookup_or_insert(ctx.ip);
        if fresh {
            self.component.obs.incr(names::LB_ALLOC);
        }
        self.component.update(
            entry,
            ctx,
            actual,
            pred.detail.cap_addr,
            pred.speculate,
            true,
        );
    }

    fn name(&self) -> &'static str {
        "cap"
    }

    fn set_obs(&mut self, obs: Obs) {
        self.component.set_obs(obs);
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for CapParams {
    fn write_state(&self, w: &mut SectionWriter) {
        self.history.write_state(w);
        w.put_bool(self.global_correlation);
        w.put_u32(self.offset_lsb_bits);
        w.put_u8(self.conf_threshold);
        w.put_u8(self.conf_max);
        w.put_bool(self.hysteresis);
        self.cfi.write_state(w);
        w.put_bool(self.confidence_enabled);
        w.put_bool(self.speculative_history);
    }
}

impl Restorable for CapParams {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let params = Self {
            history: HistorySpec::read_state(r)?,
            global_correlation: r.take_bool("cap global correlation")?,
            offset_lsb_bits: r.take_u32("cap offset lsb bits")?,
            conf_threshold: r.take_u8("cap conf threshold")?,
            conf_max: r.take_u8("cap conf max")?,
            hysteresis: r.take_bool("cap hysteresis")?,
            cfi: crate::confidence::CfiMode::read_state(r)?,
            confidence_enabled: r.take_bool("cap confidence enabled")?,
            speculative_history: r.take_bool("cap speculative history")?,
        };
        // offset_lsb() shifts 1u32 by this amount, so 32+ would overflow.
        if params.offset_lsb_bits > 31 {
            return Err(r.bad_value(format!(
                "cap offset lsb bits {} above 31",
                params.offset_lsb_bits
            )));
        }
        if params.conf_threshold == 0 || params.conf_threshold > params.conf_max {
            return Err(r.bad_value(format!(
                "cap conf threshold {} outside 1..=max ({})",
                params.conf_threshold, params.conf_max
            )));
        }
        Ok(params)
    }
}

impl Snapshot for CapComponent {
    fn write_state(&self, w: &mut SectionWriter) {
        self.params.write_state(w);
        self.lt.write_state(w);
    }
}

impl Restorable for CapComponent {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let params = CapParams::read_state(r)?;
        let lt = LinkTable::read_state(r)?;
        // Mirror CapComponent::new's cross-check without its panic.
        if (1usize << params.history.index_bits) < lt.config().sets() {
            return Err(r.bad_value(format!(
                "history index bits {} cannot cover {} LT sets",
                params.history.index_bits,
                lt.config().sets()
            )));
        }
        // Telemetry is not snapshotted: restores come up with it off.
        Ok(Self {
            params,
            lt,
            obs: Obs::off(),
        })
    }
}

impl Snapshot for CapPredictor {
    fn write_state(&self, w: &mut SectionWriter) {
        self.lb.write_state(w);
        self.component.write_state(w);
    }
}

impl Restorable for CapPredictor {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            lb: LoadBuffer::read_state(r)?,
            component: CapComponent::read_state(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistorySpec;
    use crate::link_table::PfMode;

    fn config() -> CapConfig {
        CapConfig {
            lb: LoadBufferConfig {
                entries: 256,
                assoc: 2,
            },
            lt: LinkTableConfig {
                entries: 1024,
                assoc: 2,
                pf_mode: PfMode::Inline,
            },
            params: CapParams {
                history: HistorySpec {
                    length: 2,
                    shift: 3,
                    index_bits: 10,
                    tag_bits: 8,
                },
                ..CapParams::paper_default()
            },
        }
    }

    fn step(p: &mut CapPredictor, ip: u64, offset: i32, actual: u64) -> Prediction {
        let ctx = LoadContext::new(ip, offset, 0);
        let pred = p.predict(&ctx);
        p.update(&ctx, actual, &pred);
        pred
    }

    #[test]
    fn learns_recurring_nonstride_pattern() {
        let mut p = CapPredictor::new(config());
        let pattern = [0x100u64, 0x880, 0x480, 0x280, 0x940];
        let mut correct_in_last_round = 0;
        for round in 0..6 {
            for &a in &pattern {
                let pred = step(&mut p, 0x40, 0, a);
                if round == 5 && pred.is_correct(a) {
                    correct_in_last_round += 1;
                }
            }
        }
        assert_eq!(
            correct_in_last_round,
            pattern.len(),
            "pattern must be fully predicted once warm"
        );
    }

    #[test]
    fn stride_sequences_also_predictable_when_short() {
        // §3.7: CAP can predict stride accesses, just not long ones.
        let mut p = CapPredictor::new(config());
        let seq: Vec<u64> = (0..8).map(|i| 0x2000 + i * 8).collect();
        let mut last_round_correct = 0;
        for round in 0..8 {
            for &a in &seq {
                let pred = step(&mut p, 0x40, 0, a);
                if round == 7 && pred.is_correct(a) {
                    last_round_correct += 1;
                }
            }
        }
        assert!(last_round_correct >= seq.len() - 1);
    }

    /// Drives field B (ip 0x44, offset 0x10) through ONE traversal of the
    /// same RDS that field A trained, and counts correct predictions at the
    /// positions where B's own history is already warm but B has never
    /// updated any link for them itself. Any correct prediction there can
    /// only come from links shared with field A.
    fn first_traversal_cross_hits(p: &mut CapPredictor, bases: &[u64]) -> usize {
        let mut correct = 0;
        for (i, &b) in bases.iter().enumerate() {
            let pred = step(p, 0x44, 0x10, b + 0x10);
            if i >= 2 && pred.is_correct(b + 0x10) {
                correct += 1;
            }
        }
        correct
    }

    #[test]
    fn global_correlation_shares_links_between_fields() {
        // Two static loads walk the same RDS: field offsets 0x8 and 0x10.
        // Train ONLY the 0x8 field; the 0x10 field's very first traversal
        // must already hit, because links store shared base addresses.
        let mut p = CapPredictor::new(config());
        let bases = [0x1010u64, 0x88A4, 0x4858, 0x2B3C];
        for _ in 0..6 {
            for &b in &bases {
                step(&mut p, 0x40, 0x8, b + 0x8);
            }
        }
        let correct = first_traversal_cross_hits(&mut p, &bases);
        assert_eq!(
            correct, 2,
            "warm positions of B's first traversal must hit A's links"
        );
    }

    #[test]
    fn no_global_correlation_blocks_cross_field_sharing() {
        let mut cfg = config();
        cfg.params.global_correlation = false;
        let mut p = CapPredictor::new(cfg);
        let bases = [0x1010u64, 0x88A4, 0x4858, 0x2B3C];
        for _ in 0..6 {
            for &b in &bases {
                step(&mut p, 0x40, 0x8, b + 0x8);
            }
        }
        let correct = first_traversal_cross_hits(&mut p, &bases);
        assert_eq!(
            correct, 0,
            "without base addresses the fields must not share links"
        );
    }

    #[test]
    fn history_length_two_disambiguates_double_list() {
        // Figure 2: val field at offset 2 over a doubly linked list walked
        // both directions. History 1 cannot disambiguate; history 2 can.
        let run = |length: usize| {
            let mut cfg = config();
            cfg.params.history.length = length;
            let mut p = CapPredictor::new(cfg);
            let nodes = [0x10u64, 0x80, 0x40, 0x20];
            let mut correct = 0;
            let mut total = 0;
            for round in 0..40 {
                let forward = round % 2 == 0;
                let order: Vec<u64> = if forward {
                    nodes.to_vec()
                } else {
                    nodes.iter().rev().copied().collect()
                };
                for &n in &order {
                    let a = n + 2;
                    let pred = step(&mut p, 0x40, 2, a);
                    if round >= 20 {
                        total += 1;
                        if pred.is_correct(a) {
                            correct += 1;
                        }
                    }
                }
            }
            correct as f64 / total as f64
        };
        let acc1 = run(1);
        let acc2 = run(2);
        assert!(
            acc2 > acc1 + 0.2,
            "history 2 must beat history 1 on a double list: {acc1} vs {acc2}"
        );
        assert!(acc2 > 0.9, "history 2 should nearly always predict: {acc2}");
    }

    #[test]
    fn confidence_gates_speculation_until_warm() {
        let mut p = CapPredictor::new(config());
        let pattern = [0x100u64, 0x880, 0x480];
        let mut first_spec_round = None;
        for round in 0..6 {
            for &a in &pattern {
                let pred = step(&mut p, 0x40, 0, a);
                if pred.speculate && first_spec_round.is_none() {
                    first_spec_round = Some(round);
                }
            }
        }
        let round = first_spec_round.expect("must eventually speculate");
        assert!(round >= 1, "speculation requires confidence buildup");
    }

    #[test]
    fn confidence_disabled_speculates_on_every_prediction() {
        let mut cfg = config();
        cfg.params.confidence_enabled = false;
        let mut p = CapPredictor::new(cfg);
        let pattern = [0x100u64, 0x880, 0x480];
        for _ in 0..3 {
            for &a in &pattern {
                step(&mut p, 0x40, 0, a);
            }
        }
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert!(pred.addr.is_some());
        assert!(pred.speculate, "no confidence gate in Figure 9 mode");
    }

    #[test]
    fn random_addresses_stay_unpredicted() {
        use cap_rand::{Rng, SeedableRng};
        let mut rng = cap_rand::rngs::StdRng::seed_from_u64(2);
        let mut p = CapPredictor::new(config());
        let mut spec = 0;
        let mut wrong_spec = 0;
        for _ in 0..4000 {
            let a = (rng.gen::<u32>() as u64) & !3;
            let pred = step(&mut p, 0x40, 0, a);
            if pred.speculate {
                spec += 1;
                if !pred.is_correct(a) {
                    wrong_spec += 1;
                }
            }
        }
        assert!(
            spec < 40,
            "confidence + PF must suppress speculation on noise (spec={spec}, wrong={wrong_spec})"
        );
    }

    #[test]
    fn speculative_history_chains_predictions() {
        let mut cfg = config();
        cfg.params.speculative_history = true;
        let mut p = CapPredictor::new(cfg);
        let pattern = [0x100u64, 0x880, 0x480, 0x280];
        // Warm architecturally (immediate update).
        for _ in 0..8 {
            for &a in &pattern {
                step(&mut p, 0x40, 0, a);
            }
        }
        // Now predict 4 instances back-to-back with NO updates in between:
        // the speculative history must chain them all correctly.
        let mut preds = Vec::new();
        for (i, _) in pattern.iter().enumerate() {
            let ctx = LoadContext {
                pending: i as u32,
                ..LoadContext::new(0x40, 0, 0)
            };
            preds.push(p.predict(&ctx));
        }
        for (pred, &want) in preds.iter().zip(&pattern) {
            assert_eq!(pred.addr, Some(want), "chained prediction must follow");
        }
    }

    #[test]
    fn predict_ahead_chains_through_the_pattern() {
        let mut p = CapPredictor::new(config());
        let pattern = [0x100u64, 0x880, 0x480, 0x280, 0x940];
        for _ in 0..8 {
            for &a in &pattern {
                step(&mut p, 0x40, 0, a);
            }
        }
        // The trace ended after a full pattern: the next 5 instances are
        // one whole period.
        let ahead = p.predict_ahead(0x40, 5);
        assert_eq!(
            ahead,
            pattern.to_vec(),
            "chained lookups must walk the cycle"
        );
        // Asking for more wraps around the cycle.
        let ahead10 = p.predict_ahead(0x40, 10);
        assert_eq!(&ahead10[5..], &pattern[..5]);
    }

    #[test]
    fn predict_ahead_stops_at_unknown_context() {
        let mut p = CapPredictor::new(config());
        // A non-recurring prefix: links exist for seen transitions only.
        for a in [0x100u64, 0x880, 0x480, 0x280] {
            step(&mut p, 0x40, 0, a);
        }
        let ahead = p.predict_ahead(0x40, 8);
        assert!(
            ahead.len() < 8,
            "an unseen continuation must stop the chain (got {ahead:?})"
        );
    }

    #[test]
    fn predict_ahead_cold_entry_is_empty() {
        let p = CapPredictor::new(config());
        assert!(p.predict_ahead(0xDEAD, 4).is_empty());
    }

    #[test]
    fn predict_ahead_is_a_pure_read() {
        use cap_snapshot::Snapshot;
        let mut p = CapPredictor::new(config());
        let pattern = [0x100u64, 0x880, 0x480, 0x280];
        for _ in 0..6 {
            for &a in &pattern {
                step(&mut p, 0x40, 0, a);
            }
        }
        let before = p.to_payload();
        let _ = p.predict_ahead(0x40, 8);
        assert_eq!(
            p.to_payload(),
            before,
            "lookahead must not perturb LRU/tick or any table state"
        );
    }

    #[test]
    fn lb_miss_gives_no_prediction() {
        let mut p = CapPredictor::new(config());
        assert_eq!(
            p.predict(&LoadContext::new(0xDEAD, 0, 0)),
            Prediction::none()
        );
    }

    #[test]
    #[should_panic(expected = "history index bits must cover")]
    fn undersized_history_index_rejected() {
        let mut cfg = config();
        cfg.params.history.index_bits = 4; // 16 < 1024 sets
        let _ = CapPredictor::new(cfg);
    }
}
