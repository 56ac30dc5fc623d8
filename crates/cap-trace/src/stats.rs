//! Trace statistics — the characterisation numbers Section 2 of the paper
//! derives from its traces (static footprint, memory density, stride-ness).

use crate::record::{Trace, TraceEvent};
use std::collections::HashMap;

/// Summary statistics for a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: usize,
    /// Dynamic loads.
    pub loads: usize,
    /// Dynamic stores.
    pub stores: usize,
    /// Dynamic branches.
    pub branches: usize,
    /// Distinct static load IPs.
    pub static_loads: usize,
    /// Distinct load addresses (working set).
    pub unique_addresses: usize,
    /// Fraction of per-static-load address transitions that repeat the
    /// previous address (last-address predictability ceiling).
    pub constant_fraction: f64,
    /// Fraction of per-static-load address transitions whose delta matches
    /// the previous delta (stride predictability ceiling).
    pub stride_fraction: f64,
}

impl TraceStats {
    /// Computes statistics in one pass over the trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use cap_trace::builder::TraceBuilder;
    /// use cap_trace::stats::TraceStats;
    /// let mut b = TraceBuilder::new();
    /// for i in 0..10 {
    ///     b.load(0x100, 0x1000 + i * 8, 0);
    /// }
    /// let stats = TraceStats::compute(&b.finish());
    /// assert_eq!(stats.loads, 10);
    /// assert!(stats.stride_fraction > 0.8);
    /// ```
    #[must_use]
    pub fn compute(trace: &Trace) -> Self {
        let mut loads = 0usize;
        let mut stores = 0usize;
        let mut branches = 0usize;
        let mut addr_set: HashMap<u64, ()> = HashMap::new();
        // per-IP: (last addr, last delta)
        let mut per_ip: HashMap<u64, (u64, Option<i64>)> = HashMap::new();
        let mut transitions = 0usize;
        let mut constant = 0usize;
        let mut stride = 0usize;
        for e in trace.iter() {
            match e {
                TraceEvent::Load(l) => {
                    loads += 1;
                    addr_set.insert(l.addr, ());
                    match per_ip.get_mut(&l.ip) {
                        None => {
                            per_ip.insert(l.ip, (l.addr, None));
                        }
                        Some(entry) => {
                            transitions += 1;
                            let delta = l.addr.wrapping_sub(entry.0) as i64;
                            if delta == 0 {
                                constant += 1;
                            }
                            if entry.1 == Some(delta) {
                                stride += 1;
                            }
                            *entry = (l.addr, Some(delta));
                        }
                    }
                }
                TraceEvent::Store(_) => stores += 1,
                TraceEvent::Branch(_) => branches += 1,
                TraceEvent::Op(_) => {}
            }
        }
        let frac = |n: usize| {
            if transitions == 0 {
                0.0
            } else {
                n as f64 / transitions as f64
            }
        };
        Self {
            instructions: trace.len(),
            loads,
            stores,
            branches,
            static_loads: per_ip.len(),
            unique_addresses: addr_set.len(),
            constant_fraction: frac(constant),
            stride_fraction: frac(stride),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    #[test]
    fn constant_loads_have_high_constant_fraction() {
        let mut b = TraceBuilder::new();
        for _ in 0..100 {
            b.load(0x10, 0xAAAA, 0);
        }
        let s = TraceStats::compute(&b.finish());
        assert!(s.constant_fraction > 0.98);
        // A constant delta of 0 is also a repeated stride.
        assert!(s.stride_fraction > 0.9);
        assert_eq!(s.static_loads, 1);
        assert_eq!(s.unique_addresses, 1);
    }

    #[test]
    fn random_loads_have_low_predictability() {
        use cap_rand::{Rng, SeedableRng};
        let mut rng = cap_rand::rngs::StdRng::seed_from_u64(1);
        let mut b = TraceBuilder::new();
        for _ in 0..1000 {
            b.load(0x10, rng.gen::<u32>() as u64, 0);
        }
        let s = TraceStats::compute(&b.finish());
        assert!(s.constant_fraction < 0.02);
        assert!(s.stride_fraction < 0.02);
    }

    #[test]
    fn address_deltas_wrap_instead_of_overflowing() {
        let mut b = TraceBuilder::new();
        b.load(0x10, 0x8000_0000_0000_0000, 0);
        b.load(0x10, 0x1, 0);
        let s = TraceStats::compute(&b.finish());
        assert_eq!(s.loads, 2);
        assert_eq!(s.constant_fraction, 0.0);
        assert_eq!(s.stride_fraction, 0.0);
    }

    #[test]
    fn counts_are_per_kind() {
        let mut b = TraceBuilder::new();
        b.load(1, 0x10, 0);
        b.store(2, 0x20);
        b.cond_branch(3, true);
        b.alu(4);
        let s = TraceStats::compute(&b.finish());
        assert_eq!(s.instructions, 4);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 1);
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let s = TraceStats::compute(&Trace::new());
        assert_eq!(s.loads, 0);
        assert_eq!(s.constant_fraction, 0.0);
    }

    #[test]
    fn interleaved_static_loads_tracked_independently() {
        let mut b = TraceBuilder::new();
        // IP 1 is constant; IP 2 strides. Interleaved.
        for i in 0..50u64 {
            b.load(1, 0x5000, 0);
            b.load(2, 0x100 + i * 4, 0);
        }
        let s = TraceStats::compute(&b.finish());
        assert_eq!(s.static_loads, 2);
        assert!(s.constant_fraction > 0.45 && s.constant_fraction < 0.55);
        assert!(s.stride_fraction > 0.9);
    }
}
