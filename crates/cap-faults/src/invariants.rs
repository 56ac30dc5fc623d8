//! Structural invariants that must survive any injected fault.
//!
//! Because every [`crate::plan::FaultKind`] models a bit upset *within the
//! physical width* of its field, these invariants hold by construction on
//! a correct implementation — a violation means the injector (or the
//! predictor's own mutation paths) wrote outside a field's width, which is
//! exactly the class of bug the chaos suite exists to catch.

use crate::target::FaultTarget;
use cap_predictor::link_table::LinkTable;
use cap_predictor::load_buffer::LbEntry;
use std::error::Error;
use std::fmt;

/// A violated structural invariant: which target, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Name of the violating target (see [`FaultTarget::target_name`]).
    pub target: &'static str,
    /// Human-readable description of the violated invariant.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated in {}: {}", self.target, self.detail)
    }
}

impl Error for InvariantViolation {}

/// Checks a target's structural invariants (free-function spelling of
/// [`FaultTarget::check_invariants`], convenient in asserts and doctests).
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check_invariants<T: FaultTarget + ?Sized>(target: &T) -> Result<(), InvariantViolation> {
    target.check_invariants()
}

fn violation(target: &'static str, detail: String) -> InvariantViolation {
    InvariantViolation { target, detail }
}

/// Width-independent and (optionally) width-aware checks over Load Buffer
/// entries. `offset_bits`/`history_len` come from the owning predictor's
/// parameters when known; `None` skips the corresponding bound.
pub(crate) fn check_lb_entries<'a>(
    entries: impl Iterator<Item = &'a LbEntry>,
    target: &'static str,
    offset_bits: Option<u32>,
    history_len: Option<usize>,
) -> Result<(), InvariantViolation> {
    for e in entries {
        for (name, conf) in [("cap", &e.cap_conf), ("stride", &e.stride_conf)] {
            if conf.value() > conf.max() {
                return Err(violation(
                    target,
                    format!(
                        "{name} confidence counter out of range at ip {:#x}: {} > max {}",
                        e.tag,
                        conf.value(),
                        conf.max()
                    ),
                ));
            }
        }
        if e.selector > 3 {
            return Err(violation(
                target,
                format!("selector not 2-bit at ip {:#x}: {}", e.tag, e.selector),
            ));
        }
        if let Some(bits) = offset_bits {
            if bits < 32 && u64::from(e.offset_lsb) >= (1u64 << bits) {
                return Err(violation(
                    target,
                    format!(
                        "offset LSBs wider than {bits} bits at ip {:#x}: {:#x}",
                        e.tag, e.offset_lsb
                    ),
                ));
            }
        }
        if let Some(len) = history_len {
            for (name, hist) in [
                ("architectural", &e.history),
                ("speculative", &e.spec_history),
            ] {
                if hist.len() > len {
                    return Err(violation(
                        target,
                        format!(
                            "{name} history longer than spec ({}) at ip {:#x}: {}",
                            len,
                            e.tag,
                            hist.len()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Link Table checks: PF bits stay 4-bit, tags stay within the configured
/// tag width (when known), occupancy never exceeds capacity.
pub(crate) fn check_lt_entries(
    lt: &LinkTable,
    target: &'static str,
    tag_bits: Option<u32>,
) -> Result<(), InvariantViolation> {
    if lt.occupancy() > lt.config().entries {
        return Err(violation(
            target,
            format!(
                "occupancy {} exceeds capacity {}",
                lt.occupancy(),
                lt.config().entries
            ),
        ));
    }
    for e in lt.entries() {
        if e.pf > 0xF {
            return Err(violation(
                target,
                format!("PF bits not 4-bit: {:#x} (link {:#x})", e.pf, e.link),
            ));
        }
        if let Some(bits) = tag_bits {
            if bits < 64 && e.tag >= (1u64 << bits) {
                return Err(violation(
                    target,
                    format!("tag wider than {bits} bits: {:#x}", e.tag),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_predictor::cap::{CapConfig, CapPredictor};

    #[test]
    fn violation_displays_target_and_detail() {
        let v = violation("cap", "selector not 2-bit".to_string());
        let s = v.to_string();
        assert!(s.contains("cap") && s.contains("selector"), "got: {s}");
    }

    #[test]
    fn fresh_predictor_passes() {
        let p = CapPredictor::new(CapConfig::paper_default());
        check_invariants(&p).expect("fresh predictor has no violations");
    }

    #[test]
    fn out_of_width_state_is_caught() {
        let mut p = CapPredictor::new(CapConfig::paper_default());
        // Plant a live entry, then push its selector out of width through
        // the raw field — exactly what the injector must never do.
        use cap_predictor::types::{AddressPredictor, LoadContext};
        let ctx = LoadContext::new(0x400, 0, 0);
        let pred = p.predict(&ctx);
        p.update(&ctx, 0x1000, &pred);
        if let Some(e) = p.load_buffer_mut().entries_mut().next() {
            e.selector = 7;
        }
        let err = check_invariants(&p).expect_err("7 is not a 2-bit selector");
        assert!(err.detail.contains("selector"), "got: {err}");
    }
}
