//! Irregular-load workloads — the pollution source §3.5 defends against.
//!
//! "Many loads are completely unpredictable by nature; they may trash the
//! LT." This generator emits loads whose addresses are uniform over a large
//! region from many distinct static IPs, and never repeats a sequence — the
//! adversarial input for the pollution-free (PF) bits.

use super::{Seat, Workload};
use crate::builder::{IpAllocator, TraceBuilder};
use cap_rand::rngs::StdRng;
use cap_rand::Rng;

/// Configuration for [`RandomWorkload`].
#[derive(Debug, Clone)]
pub struct RandomConfig {
    /// Number of distinct static load IPs cycling through.
    pub static_loads: usize,
    /// Size of the address region sampled (bytes).
    pub region_size: u64,
    /// Fraction (percent) of loads that instead re-read one fixed hot
    /// address — makes the workload not *entirely* hopeless, like real
    /// irregular code with the occasional global.
    pub constant_percent: u32,
}

impl Default for RandomConfig {
    fn default() -> Self {
        Self {
            static_loads: 64,
            region_size: 1 << 24,
            constant_percent: 0,
        }
    }
}

/// Uniformly random loads over a large region.
#[derive(Debug)]
pub struct RandomWorkload {
    config: RandomConfig,
    seat: Seat,
    load_ips: Vec<u64>,
    hot_addr: u64,
    next_ip: usize,
}

impl RandomWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if `static_loads == 0` or `region_size == 0`.
    #[must_use]
    pub fn new(config: RandomConfig, seat: Seat, _rng: &mut StdRng) -> Self {
        assert!(config.static_loads > 0, "need at least one static load");
        assert!(config.region_size > 0, "region must be non-empty");
        assert!(
            config.constant_percent <= 100,
            "constant_percent is a percentage"
        );
        let mut ips = IpAllocator::new(seat.ip_base);
        let load_ips = ips.code_block(config.static_loads);
        Self {
            hot_addr: seat.heap_base,
            config,
            seat,
            load_ips,
            next_ip: 0,
        }
    }
}

impl Workload for RandomWorkload {
    fn emit(&mut self, builder: &mut TraceBuilder, rng: &mut StdRng, loads: usize) {
        let val = self.seat.reg(0);
        for _ in 0..loads {
            let ip = self.load_ips[self.next_ip];
            self.next_ip = (self.next_ip + 1) % self.load_ips.len();
            let constant = self.config.constant_percent > 0
                && rng.gen_range(0..100) < self.config.constant_percent;
            let addr = if constant {
                self.hot_addr
            } else {
                // 4-byte aligned uniform address in the region.
                self.seat.heap_base + (rng.gen_range(0..self.config.region_size) & !3)
            };
            builder.load_val(ip, addr, 0, crate::gen::splitmix(addr), Some(val), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SeatAllocator;
    use cap_rand::SeedableRng;
    use std::collections::BTreeSet;

    fn make(config: RandomConfig) -> (RandomWorkload, StdRng) {
        let mut seats = SeatAllocator::new();
        let mut r = StdRng::seed_from_u64(31);
        let wl = RandomWorkload::new(config, seats.next_seat(), &mut r);
        (wl, r)
    }

    #[test]
    fn addresses_are_spread() {
        let (mut wl, mut r) = make(RandomConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 1000);
        let trace = b.finish();
        let unique: BTreeSet<u64> = trace.loads().map(|l| l.addr).collect();
        assert!(unique.len() > 990, "uniform loads must rarely repeat");
    }

    #[test]
    fn static_ips_cycle() {
        let cfg = RandomConfig {
            static_loads: 8,
            ..RandomConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 64);
        let trace = b.finish();
        let ips: BTreeSet<u64> = trace.loads().map(|l| l.ip).collect();
        assert_eq!(ips.len(), 8);
    }

    #[test]
    fn constant_fraction_hits_hot_address() {
        let cfg = RandomConfig {
            constant_percent: 100,
            ..RandomConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let hot = wl.hot_addr;
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 50);
        let trace = b.finish();
        assert!(trace.loads().all(|l| l.addr == hot));
    }

    #[test]
    fn emit_exact_budget() {
        let (mut wl, mut r) = make(RandomConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 123);
        assert_eq!(b.finish().load_count(), 123);
    }

    #[test]
    fn addresses_are_aligned() {
        let (mut wl, mut r) = make(RandomConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 200);
        assert!(b.finish().loads().all(|l| l.addr % 4 == 0));
    }
}
