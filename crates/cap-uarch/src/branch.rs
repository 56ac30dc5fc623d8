//! Branch predictors: bimodal, gshare, and the hybrid used by the paper's
//! simulated processor ("a hybrid branch predictor", §4.1).

/// A 2-bit saturating counter used by all branch predictor tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    const WEAKLY_TAKEN: Counter2 = Counter2(2);

    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// A direction predictor for conditional branches.
pub trait BranchPredictor {
    /// Predicts the direction of the branch at `ip` under the global
    /// history `ghr`.
    fn predict(&self, ip: u64, ghr: u64) -> bool;
    /// Trains with the architectural outcome.
    fn update(&mut self, ip: u64, ghr: u64, taken: bool);
}

/// A per-IP bimodal table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<Counter2>,
}

impl Bimodal {
    /// Creates the table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            table: vec![Counter2::WEAKLY_TAKEN; entries],
        }
    }

    fn index(&self, ip: u64) -> usize {
        ((ip >> 2) as usize) & (self.table.len() - 1)
    }
}

impl BranchPredictor for Bimodal {
    fn predict(&self, ip: u64, _ghr: u64) -> bool {
        self.table[self.index(ip)].predict()
    }

    fn update(&mut self, ip: u64, _ghr: u64, taken: bool) {
        let i = self.index(ip);
        self.table[i].update(taken);
    }
}

/// A gshare predictor (IP ⊕ GHR indexed 2-bit counters).
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<Counter2>,
    history_bits: u32,
}

impl Gshare {
    /// Creates the table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            table: vec![Counter2::WEAKLY_TAKEN; entries],
            history_bits,
        }
    }

    fn index(&self, ip: u64, ghr: u64) -> usize {
        let hist = ghr & ((1u64 << self.history_bits) - 1);
        (((ip >> 2) ^ hist) as usize) & (self.table.len() - 1)
    }
}

impl BranchPredictor for Gshare {
    fn predict(&self, ip: u64, ghr: u64) -> bool {
        self.table[self.index(ip, ghr)].predict()
    }

    fn update(&mut self, ip: u64, ghr: u64, taken: bool) {
        let i = self.index(ip, ghr);
        self.table[i].update(taken);
    }
}

/// A hybrid bimodal/gshare predictor with a per-IP choice table.
///
/// # Examples
///
/// ```
/// use cap_uarch::branch::{BranchPredictor, HybridBranchPredictor};
/// let mut p = HybridBranchPredictor::paper_default();
/// for _ in 0..8 {
///     p.update(0x40, 0, true);
/// }
/// assert!(p.predict(0x40, 0));
/// ```
#[derive(Debug, Clone)]
pub struct HybridBranchPredictor {
    bimodal: Bimodal,
    gshare: Gshare,
    choice: Vec<Counter2>,
}

impl HybridBranchPredictor {
    /// Creates the predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize, history_bits: u32) -> Self {
        Self {
            bimodal: Bimodal::new(entries),
            gshare: Gshare::new(entries, history_bits),
            choice: vec![Counter2::WEAKLY_TAKEN; entries],
        }
    }

    /// 4K-entry tables with 12 bits of global history.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(4096, 12)
    }

    fn choice_index(&self, ip: u64) -> usize {
        ((ip >> 2) as usize) & (self.choice.len() - 1)
    }
}

impl BranchPredictor for HybridBranchPredictor {
    fn predict(&self, ip: u64, ghr: u64) -> bool {
        // Choice counter >= 2 selects gshare.
        if self.choice[self.choice_index(ip)].predict() {
            self.gshare.predict(ip, ghr)
        } else {
            self.bimodal.predict(ip, ghr)
        }
    }

    fn update(&mut self, ip: u64, ghr: u64, taken: bool) {
        let b = self.bimodal.predict(ip, ghr);
        let g = self.gshare.predict(ip, ghr);
        // Train the chooser toward the component that was right.
        if b != g {
            let i = self.choice_index(ip);
            self.choice[i].update(g == taken);
        }
        self.bimodal.update(ip, ghr, taken);
        self.gshare.update(ip, ghr, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_bias() {
        let mut p = Bimodal::new(64);
        for _ in 0..4 {
            p.update(0x40, 0, false);
        }
        assert!(!p.predict(0x40, 0));
        for _ in 0..4 {
            p.update(0x40, 0, true);
        }
        assert!(p.predict(0x40, 0));
    }

    #[test]
    fn gshare_learns_history_correlated_branch() {
        let mut p = Gshare::new(256, 4);
        // Branch taken iff last outcome bit of ghr is 1.
        for i in 0..200u64 {
            let ghr = i % 2;
            p.update(0x40, ghr, ghr == 1);
        }
        assert!(p.predict(0x40, 1));
        assert!(!p.predict(0x40, 0));
    }

    #[test]
    fn bimodal_cannot_learn_alternating_pattern() {
        let mut p = Bimodal::new(64);
        let mut correct = 0;
        for i in 0..200u64 {
            let taken = i % 2 == 0;
            if p.predict(0x40, 0) == taken {
                correct += 1;
            }
            p.update(0x40, 0, taken);
        }
        assert!(
            correct <= 110,
            "alternating defeats bimodal ({correct}/200)"
        );
    }

    #[test]
    fn hybrid_matches_better_component() {
        // History-correlated branch: hybrid must converge to gshare-level
        // accuracy.
        let run = |p: &mut dyn BranchPredictor| {
            let mut correct = 0;
            for i in 0..1000u64 {
                let ghr = i & 0xF;
                let taken = (ghr & 1) == 1;
                if p.predict(0x40, ghr) == taken {
                    correct += 1;
                }
                p.update(0x40, ghr, taken);
            }
            correct
        };
        let mut hybrid = HybridBranchPredictor::paper_default();
        let mut bimodal = Bimodal::new(4096);
        let h = run(&mut hybrid);
        let b = run(&mut bimodal);
        assert!(h > b, "hybrid {h} must beat bimodal {b}");
        assert!(h > 900);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_entries_rejected() {
        let _ = Bimodal::new(100);
    }
}
