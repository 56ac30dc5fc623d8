//! The [`FaultTarget`] injection surface and its implementations.
//!
//! The trait lives here (not in `cap-predictor`) so the predictor crate
//! stays free of chaos machinery; `cap-predictor` only exposes the small
//! mutable accessors (`entries_mut`, `corrupt_*`, `*_mut`) these
//! implementations are built from. All injections stay within the physical
//! width of the targeted field — see [`FaultKind`] — so the structural
//! invariants checked by [`FaultTarget::check_invariants`] hold before
//! *and* after any plan.

use crate::invariants::{check_lb_entries, check_lt_entries, InvariantViolation};
use crate::plan::{flip_random_bit, FaultKind};
use cap_predictor::cap::CapPredictor;
use cap_predictor::hybrid::HybridPredictor;
use cap_predictor::link_table::LinkTable;
use cap_predictor::load_buffer::{LbEntry, LoadBuffer, StrideState};
use cap_predictor::stride::StridePredictor;
use cap_rand::{rngs::StdRng, Rng};

/// A structure live predictor faults can be injected into.
pub trait FaultTarget {
    /// Short name for reports.
    fn target_name(&self) -> &'static str;

    /// The fault classes this target can apply.
    fn supported_faults(&self) -> &'static [FaultKind];

    /// Attempts to inject one fault of `kind`. Returns `true` when live
    /// state was actually mutated; `false` when there was nothing to
    /// corrupt (empty table, unsupported kind). Must never panic.
    fn inject_fault(&mut self, kind: FaultKind, rng: &mut StdRng) -> bool;

    /// Checks the structural invariants that must hold at all times —
    /// including immediately after any sequence of injected faults.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    fn check_invariants(&self) -> Result<(), InvariantViolation>;
}

/// Fault classes applicable to a Load Buffer entry.
const LB_KINDS: [FaultKind; 6] = [
    FaultKind::LbHistory,
    FaultKind::LbOffset,
    FaultKind::LbConfidence,
    FaultKind::LbCfi,
    FaultKind::LbStride,
    FaultKind::LbSelector,
];

/// Fault classes applicable to Load Buffer entries through a stride-only
/// predictor (the CAP-side fields are dead state there).
const STRIDE_LB_KINDS: [FaultKind; 4] = [
    FaultKind::LbConfidence,
    FaultKind::LbCfi,
    FaultKind::LbStride,
    FaultKind::LbSelector,
];

/// Fault classes applicable to a Link Table.
const LT_KINDS: [FaultKind; 3] = [FaultKind::LtLink, FaultKind::LtTag, FaultKind::LtPf];

/// Every class a two-level predictor (LB + LT) supports.
const FULL_KINDS: [FaultKind; 9] = [
    FaultKind::LbHistory,
    FaultKind::LbOffset,
    FaultKind::LbConfidence,
    FaultKind::LbCfi,
    FaultKind::LbStride,
    FaultKind::LbSelector,
    FaultKind::LtLink,
    FaultKind::LtTag,
    FaultKind::LtPf,
];

fn pick_lb_entry<'a>(lb: &'a mut LoadBuffer, rng: &mut StdRng) -> Option<&'a mut LbEntry> {
    let n = lb.occupancy();
    if n == 0 {
        return None;
    }
    lb.entries_mut().nth(rng.gen_range(0..n))
}

/// Injects one LB-class fault. `offset_bits` bounds offset flips to the
/// configured field width (0 disables offset faults entirely — a
/// zero-width field has no bits to upset).
pub(crate) fn inject_lb(
    lb: &mut LoadBuffer,
    kind: FaultKind,
    offset_bits: u32,
    rng: &mut StdRng,
) -> bool {
    let Some(entry) = pick_lb_entry(lb, rng) else {
        return false;
    };
    match kind {
        FaultKind::LbHistory => {
            let slot = rng.gen::<u32>() as usize;
            let bit = rng.gen_range(0..64u32);
            // Prefer the speculative history half the time, falling back to
            // the architectural one when it is empty.
            if rng.gen_bool(0.5) && entry.spec_history.corrupt_bit(slot, bit) {
                true
            } else {
                entry.history.corrupt_bit(slot, bit)
            }
        }
        FaultKind::LbOffset => {
            if offset_bits == 0 {
                return false;
            }
            entry.offset_lsb ^= 1u32 << rng.gen_range(0..offset_bits);
            true
        }
        FaultKind::LbConfidence => {
            let raw: u8 = rng.gen();
            if rng.gen_bool(0.5) {
                entry.cap_conf.corrupt_value(raw);
            } else {
                entry.stride_conf.corrupt_value(raw);
            }
            true
        }
        FaultKind::LbCfi => {
            let pattern = if rng.gen_bool(0.5) {
                Some(rng.gen::<u64>())
            } else {
                None
            };
            let bits: u64 = rng.gen();
            if rng.gen_bool(0.5) {
                entry.cap_cfi.corrupt(pattern, bits);
            } else {
                entry.stride_cfi.corrupt(pattern, bits);
            }
            true
        }
        FaultKind::LbStride => {
            match rng.gen_range(0..4u32) {
                0 => entry.stride = flip_random_bit(entry.stride as u64, rng) as i64,
                1 => entry.last_addr = flip_random_bit(entry.last_addr, rng),
                2 => {
                    entry.stride_state = [
                        StrideState::Init,
                        StrideState::Transient,
                        StrideState::Steady,
                    ][rng.gen_range(0..3usize)];
                }
                _ => {
                    entry.interval.learned = rng.gen_range(0..64u32);
                    entry.interval.run = rng.gen_range(0..64u32);
                }
            }
            true
        }
        FaultKind::LbSelector => {
            entry.selector = rng.gen_range(0..4u32) as u8;
            true
        }
        _ => false,
    }
}

/// Injects one LT-class fault. `tag_bits` bounds tag flips to the
/// configured tag width (0 disables tag faults — untagged tables store no
/// tag bits to upset).
pub(crate) fn inject_lt(
    lt: &mut LinkTable,
    kind: FaultKind,
    tag_bits: u32,
    rng: &mut StdRng,
) -> bool {
    // Decoupled-PF faults target the side table when one exists.
    if kind == FaultKind::LtPf {
        let slots = lt.decoupled_pf_mut();
        if !slots.is_empty() && rng.gen_bool(0.5) {
            let slot = &mut slots[rng.gen_range(0..slots.len())];
            if rng.gen_bool(0.2) {
                slot.1 = !slot.1;
            } else {
                slot.0 ^= 1u8 << rng.gen_range(0..4u32);
            }
            return true;
        }
    }
    let n = lt.occupancy();
    if n == 0 {
        return false;
    }
    let Some(entry) = lt.entries_mut().nth(rng.gen_range(0..n)) else {
        return false;
    };
    match kind {
        FaultKind::LtLink => {
            entry.link = flip_random_bit(entry.link, rng);
            true
        }
        FaultKind::LtTag => {
            if tag_bits == 0 {
                return false;
            }
            entry.tag ^= 1u64 << rng.gen_range(0..tag_bits);
            true
        }
        FaultKind::LtPf => {
            if rng.gen_bool(0.2) {
                entry.pf_primed = !entry.pf_primed;
            } else {
                entry.pf ^= 1u8 << rng.gen_range(0..4u32);
            }
            true
        }
        _ => false,
    }
}

/// The paper-default widths assumed when a bare table is targeted without
/// its owning predictor's configuration: 8 offset LSBs (§3.3) and 8 LT tag
/// bits (§3.4).
const DEFAULT_OFFSET_BITS: u32 = 8;
const DEFAULT_TAG_BITS: u32 = 8;

impl FaultTarget for LoadBuffer {
    fn target_name(&self) -> &'static str {
        "load-buffer"
    }

    fn supported_faults(&self) -> &'static [FaultKind] {
        &LB_KINDS
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut StdRng) -> bool {
        inject_lb(self, kind, DEFAULT_OFFSET_BITS, rng)
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        // Width-dependent bounds (offset field, history length) belong to
        // the owning predictor's configuration; a bare LB checks the
        // config-independent invariants.
        check_lb_entries(self.entries(), "load-buffer", None, None)
    }
}

impl FaultTarget for LinkTable {
    fn target_name(&self) -> &'static str {
        "link-table"
    }

    fn supported_faults(&self) -> &'static [FaultKind] {
        &LT_KINDS
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut StdRng) -> bool {
        inject_lt(self, kind, DEFAULT_TAG_BITS, rng)
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        check_lt_entries(self, "link-table", None)
    }
}

impl FaultTarget for CapPredictor {
    fn target_name(&self) -> &'static str {
        "cap"
    }

    fn supported_faults(&self) -> &'static [FaultKind] {
        &FULL_KINDS
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut StdRng) -> bool {
        let params = *self.component().params();
        if LT_KINDS.contains(&kind) {
            inject_lt(self.link_table_mut(), kind, params.history.tag_bits, rng)
        } else {
            inject_lb(self.load_buffer_mut(), kind, params.offset_lsb_bits, rng)
        }
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let params = self.component().params();
        check_lb_entries(
            self.load_buffer().entries(),
            "cap/load-buffer",
            Some(params.offset_lsb_bits),
            Some(params.history.length),
        )?;
        check_lt_entries(
            self.link_table(),
            "cap/link-table",
            Some(params.history.tag_bits),
        )
    }
}

impl FaultTarget for HybridPredictor {
    fn target_name(&self) -> &'static str {
        "hybrid"
    }

    fn supported_faults(&self) -> &'static [FaultKind] {
        &FULL_KINDS
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut StdRng) -> bool {
        let params = *self.cap_component().params();
        if LT_KINDS.contains(&kind) {
            inject_lt(
                self.cap_component_mut().link_table_mut(),
                kind,
                params.history.tag_bits,
                rng,
            )
        } else {
            inject_lb(self.load_buffer_mut(), kind, params.offset_lsb_bits, rng)
        }
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let params = self.cap_component().params();
        check_lb_entries(
            self.load_buffer().entries(),
            "hybrid/load-buffer",
            Some(params.offset_lsb_bits),
            Some(params.history.length),
        )?;
        check_lt_entries(
            self.cap_component().link_table(),
            "hybrid/link-table",
            Some(params.history.tag_bits),
        )
    }
}

impl FaultTarget for StridePredictor {
    fn target_name(&self) -> &'static str {
        "stride"
    }

    fn supported_faults(&self) -> &'static [FaultKind] {
        &STRIDE_LB_KINDS
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut StdRng) -> bool {
        if !STRIDE_LB_KINDS.contains(&kind) {
            return false;
        }
        // Offset width is irrelevant here: LbOffset is not in the
        // supported set (the stride side never reads the offset field).
        inject_lb(self.load_buffer_mut(), kind, 0, rng)
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        check_lb_entries(
            self.load_buffer().entries(),
            "stride/load-buffer",
            None,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_predictor::cap::CapConfig;
    use cap_predictor::hybrid::HybridConfig;
    use cap_predictor::load_buffer::LoadBufferConfig;
    use cap_predictor::stride::StrideParams;
    use cap_predictor::types::{AddressPredictor, LoadContext};
    use cap_rand::SeedableRng;

    fn warm<P: AddressPredictor>(p: &mut P) {
        let pattern = [0x1000u64, 0x8800, 0x4800, 0x2800];
        for _ in 0..12 {
            for (i, &a) in pattern.iter().enumerate() {
                let ctx = LoadContext::new(0x400 + (i as u64 % 2) * 4, 8, 0);
                let pred = p.predict(&ctx);
                p.update(&ctx, a, &pred);
            }
        }
    }

    fn drives_every_kind<T: FaultTarget>(target: &mut T, expect_any: bool) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut any = false;
        for &kind in target.supported_faults() {
            for _ in 0..16 {
                any |= target.inject_fault(kind, &mut rng);
            }
            target
                .check_invariants()
                .unwrap_or_else(|v| panic!("invariant violated after {kind:?}: {v}"));
        }
        assert_eq!(any, expect_any);
    }

    #[test]
    fn cap_supports_and_survives_every_kind() {
        let mut p = CapPredictor::new(CapConfig::paper_default());
        warm(&mut p);
        drives_every_kind(&mut p, true);
    }

    #[test]
    fn hybrid_supports_and_survives_every_kind() {
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        warm(&mut p);
        drives_every_kind(&mut p, true);
    }

    #[test]
    fn stride_supports_and_survives_every_kind() {
        let mut p = StridePredictor::new(
            LoadBufferConfig::paper_default(),
            StrideParams::paper_default(),
        );
        warm(&mut p);
        drives_every_kind(&mut p, true);
    }

    #[test]
    fn bare_tables_are_targets_too() {
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        warm(&mut p);
        drives_every_kind(p.load_buffer_mut(), true);
        drives_every_kind(p.cap_component_mut().link_table_mut(), true);
    }

    #[test]
    fn empty_targets_apply_nothing() {
        let mut p = CapPredictor::new(CapConfig::paper_default());
        drives_every_kind(&mut p, false);
    }

    #[test]
    fn faulted_predictor_still_predicts_and_updates() {
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        warm(&mut p);
        let mut rng = StdRng::seed_from_u64(21);
        for &kind in p.supported_faults() {
            for _ in 0..8 {
                p.inject_fault(kind, &mut rng);
            }
        }
        // Predict/update across garbage GHR values too: must not panic.
        for i in 0..200u64 {
            let ctx = LoadContext::new(0x400, 8, rng.gen());
            let pred = p.predict(&ctx);
            p.update(&ctx, 0x1000 + i * 8, &pred);
        }
        p.check_invariants().expect("post-run invariants hold");
    }
}
