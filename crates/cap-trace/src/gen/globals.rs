//! Constant-address loads: globals, read-only constants, and stable stack
//! slots.
//!
//! The paper's Section 1 notes that a plain last-address predictor covers
//! about 40% of all loads — global scalar variables, read-only constants,
//! and "simple, reoccurring, stack references". This workload supplies that
//! population: many static loads, each re-reading its own fixed address,
//! with an optional slow re-target rate (a global pointer being swung to a
//! new object).

use super::{Seat, Workload};
use crate::builder::{IpAllocator, TraceBuilder};
use crate::record::OpLatency;
use cap_rand::rngs::StdRng;
use cap_rand::Rng;

/// Configuration for [`GlobalsWorkload`].
#[derive(Debug, Clone)]
pub struct GlobalsConfig {
    /// Number of static loads (each with its own fixed address).
    pub static_loads: usize,
    /// Per-load probability (in 1/10000) of being re-targeted to a fresh
    /// address on any given access. `0` means perfectly constant.
    pub retarget_per_10k: u32,
    /// Interleave a conditional branch every `branch_every` loads (keeps
    /// the GHR moving like real glue code). `0` disables.
    pub branch_every: usize,
}

impl Default for GlobalsConfig {
    fn default() -> Self {
        Self {
            static_loads: 48,
            retarget_per_10k: 2,
            branch_every: 3,
        }
    }
}

/// Loads of global variables and other constant addresses.
#[derive(Debug)]
pub struct GlobalsWorkload {
    config: GlobalsConfig,
    seat: Seat,
    load_ips: Vec<u64>,
    use_ip: u64,
    branch_ip: u64,
    targets: Vec<u64>,
    /// Per-target value version: bumped stochastically to model stores to
    /// the global between reads (addresses constant, values churning).
    value_versions: Vec<u64>,
    next_fresh: u64,
    cursor: usize,
}

impl GlobalsWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if `static_loads == 0`.
    #[must_use]
    pub fn new(config: GlobalsConfig, seat: Seat, rng: &mut StdRng) -> Self {
        assert!(config.static_loads > 0, "need at least one static load");
        let mut ips = IpAllocator::new(seat.ip_base);
        let load_ips = ips.code_block(config.static_loads);
        let use_ip = ips.next_ip();
        let branch_ip = ips.next_ip();
        let targets = (0..config.static_loads)
            .map(|_| seat.heap_base + (rng.gen_range(0..1u64 << 20) & !3))
            .collect();
        Self {
            next_fresh: seat.heap_base + (1 << 20),
            value_versions: vec![0; config.static_loads],
            config,
            seat,
            load_ips,
            use_ip,
            branch_ip,
            targets,
            cursor: 0,
        }
    }
}

impl Workload for GlobalsWorkload {
    fn emit(&mut self, builder: &mut TraceBuilder, rng: &mut StdRng, loads: usize) {
        let val = self.seat.reg(0);
        let acc = self.seat.reg(1);
        for n in 0..loads {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % self.load_ips.len();
            if self.config.retarget_per_10k > 0
                && rng.gen_range(0..10_000) < self.config.retarget_per_10k
            {
                self.targets[i] = self.next_fresh;
                self.next_fresh += 16;
            }
            if rng.gen_range(0..100) < 12 {
                // Someone stored to the global since the last read.
                self.value_versions[i] += 1;
            }
            builder.load_val(
                self.load_ips[i],
                self.targets[i],
                0,
                crate::gen::splitmix(self.targets[i] ^ self.value_versions[i].rotate_left(32)),
                Some(val),
                None,
            );
            // Every loaded value feeds dependent work, as compiled code
            // would — this is what puts load-to-use latency on the
            // critical path.
            builder.op(
                self.use_ip,
                OpLatency::Alu,
                Some(acc),
                [Some(acc), Some(val)],
            );
            if self.config.branch_every > 0 && n % self.config.branch_every == 0 {
                builder.cond_branch(self.branch_ip, rng.gen_bool(0.7));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SeatAllocator;
    use cap_rand::SeedableRng;
    use std::collections::BTreeMap;

    fn make(config: GlobalsConfig) -> (GlobalsWorkload, StdRng) {
        let mut seats = SeatAllocator::new();
        let mut r = StdRng::seed_from_u64(41);
        let wl = GlobalsWorkload::new(config, seats.next_seat(), &mut r);
        (wl, r)
    }

    #[test]
    fn without_retarget_every_ip_is_constant() {
        let (mut wl, mut r) = make(GlobalsConfig {
            retarget_per_10k: 0,
            ..GlobalsConfig::default()
        });
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 1000);
        let trace = b.finish();
        let mut per_ip: BTreeMap<u64, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for l in trace.loads() {
            per_ip.entry(l.ip).or_default().insert(l.addr);
        }
        assert!(per_ip.values().all(|s| s.len() == 1));
    }

    #[test]
    fn retarget_changes_some_targets_eventually() {
        let (mut wl, mut r) = make(GlobalsConfig {
            retarget_per_10k: 500,
            ..GlobalsConfig::default()
        });
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 2000);
        let trace = b.finish();
        let mut per_ip: BTreeMap<u64, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for l in trace.loads() {
            per_ip.entry(l.ip).or_default().insert(l.addr);
        }
        assert!(per_ip.values().any(|s| s.len() > 1));
    }

    #[test]
    fn branches_are_interleaved() {
        let (mut wl, mut r) = make(GlobalsConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 300);
        let trace = b.finish();
        let branches = trace.iter().filter(|e| e.as_branch().is_some()).count();
        assert!(branches >= 90);
    }

    #[test]
    fn exact_load_budget() {
        let (mut wl, mut r) = make(GlobalsConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 257);
        assert_eq!(b.finish().load_count(), 257);
    }
}
