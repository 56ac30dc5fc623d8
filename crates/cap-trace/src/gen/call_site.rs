//! Control-correlated loads — the paper's §2.2 (`xlmatch` / `xllastarg`).
//!
//! A shared function contains static loads whose addresses depend entirely
//! on the call site (arguments passed in registers or on the stack). When
//! the call-site pattern recurs — `a-c-u-a` in the paper's xlisp example —
//! each static load's address sequence is `A1 A1 C U A2 A2 C U …`: recurring
//! and completely stride-hostile, but trivially context-predictable once the
//! history spans one period.

use super::{Seat, Workload};
use crate::alloc::HeapModel;
use crate::builder::{IpAllocator, TraceBuilder};
use cap_rand::rngs::StdRng;
use cap_rand::Rng;

/// Configuration for [`CallSiteWorkload`].
#[derive(Debug, Clone)]
pub struct CallSiteConfig {
    /// Number of distinct call sites.
    pub sites: usize,
    /// The recurring site sequence, as indices into `0..sites`. The paper's
    /// `xllastarg` pattern `a-a-u-c-b` would be `[0, 0, 1, 2, 3]` — note the
    /// immediate repetition, which forces histories of 4+ to disambiguate.
    pub pattern: Vec<usize>,
    /// Number of static loads inside the shared callee.
    pub loads_in_callee: usize,
    /// Probability (percent) of deviating from the pattern to a random site.
    pub noise_percent: u32,
    /// Size of each call site's argument block.
    pub site_block_size: u64,
}

impl Default for CallSiteConfig {
    fn default() -> Self {
        Self {
            sites: 4,
            // a - c - u - a : the xlmatch pattern (two sites repeat).
            pattern: vec![0, 1, 2, 0],
            loads_in_callee: 3,
            noise_percent: 0,
            site_block_size: 256,
        }
    }
}

/// A callee whose loads are correlated with the call site.
#[derive(Debug)]
pub struct CallSiteWorkload {
    config: CallSiteConfig,
    seat: Seat,
    /// Base address of each call site's argument/frame block. Within one
    /// pattern position the *same* block recurs, so the callee's loads form
    /// recurring sequences keyed by call history.
    site_bases: Vec<u64>,
    /// Distinct argument blocks for repeated occurrences of the same site in
    /// the pattern (the paper's `A1` vs `A2` for the two calls in `xaref`).
    occurrence_bases: Vec<u64>,
    call_ips: Vec<u64>,
    callee_entry: u64,
    load_ips: Vec<u64>,
    ret_ip: u64,
    position: usize,
}

impl CallSiteWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty, references an out-of-range site, or
    /// the callee has no loads.
    #[must_use]
    pub fn new(config: CallSiteConfig, seat: Seat, _rng: &mut StdRng) -> Self {
        assert!(!config.pattern.is_empty(), "pattern must not be empty");
        assert!(config.loads_in_callee > 0, "callee needs at least one load");
        assert!(
            config.pattern.iter().all(|&s| s < config.sites),
            "pattern references unknown call site"
        );
        let mut heap = HeapModel::new(seat.heap_base, 16);
        let site_bases: Vec<u64> = (0..config.sites)
            .map(|_| heap.alloc(config.site_block_size))
            .collect();
        // Each *occurrence* in the pattern gets its own block (A1 vs A2 in
        // the paper's xaref example) — except that consecutive occurrences
        // of the same site repeat the same arguments ("the function may be
        // called several times in a row with the same input parameters",
        // §3.2), which is what makes short histories ambiguous: after one
        // A1 the next address may be A1 again or the next site's block.
        let mut occurrence_bases: Vec<u64> = Vec::with_capacity(config.pattern.len());
        for (i, &site) in config.pattern.iter().enumerate() {
            if i > 0 && config.pattern[i - 1] == site {
                let prev = occurrence_bases[i - 1];
                occurrence_bases.push(prev);
            } else {
                occurrence_bases.push(heap.alloc(config.site_block_size));
            }
        }
        let mut ips = IpAllocator::new(seat.ip_base);
        let call_ips = ips.code_block(config.sites);
        ips.gap(64);
        let callee_entry = ips.next_ip();
        let load_ips = ips.code_block(config.loads_in_callee);
        let ret_ip = ips.next_ip();
        Self {
            config,
            seat,
            site_bases,
            occurrence_bases,
            call_ips,
            callee_entry,
            load_ips,
            ret_ip,
            position: 0,
        }
    }

    fn one_call(&mut self, b: &mut TraceBuilder, rng: &mut StdRng) -> usize {
        let noisy =
            self.config.noise_percent > 0 && rng.gen_range(0..100) < self.config.noise_percent;
        let (site, base) = if noisy {
            let s = rng.gen_range(0..self.config.sites);
            (s, self.site_bases[s])
        } else {
            let pos = self.position;
            self.position = (self.position + 1) % self.config.pattern.len();
            (self.config.pattern[pos], self.occurrence_bases[pos])
        };
        let arg = self.seat.reg(0);
        let tmp = self.seat.reg(1);
        b.call(self.call_ips[site], self.callee_entry);
        for (i, &ip) in self.load_ips.iter().enumerate() {
            let off = (i as i32) * 8;
            let ea = base.wrapping_add(off as i64 as u64);
            b.load_val(ip, ea, off, crate::gen::splitmix(ea), Some(tmp), Some(arg));
        }
        b.ret(self.ret_ip, self.call_ips[site] + 4);
        self.load_ips.len()
    }
}

impl Workload for CallSiteWorkload {
    fn emit(&mut self, builder: &mut TraceBuilder, rng: &mut StdRng, loads: usize) {
        let mut emitted = 0;
        while emitted < loads {
            emitted += self.one_call(builder, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SeatAllocator;
    use crate::record::BranchKind;
    use cap_rand::SeedableRng;
    use std::collections::BTreeSet;

    fn make(config: CallSiteConfig) -> (CallSiteWorkload, StdRng) {
        let mut seats = SeatAllocator::new();
        let mut r = StdRng::seed_from_u64(5);
        let wl = CallSiteWorkload::new(config, seats.next_seat(), &mut r);
        (wl, r)
    }

    #[test]
    fn pattern_produces_recurring_address_sequence() {
        let cfg = CallSiteConfig {
            pattern: vec![0, 1, 2, 0],
            loads_in_callee: 1,
            ..CallSiteConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 16);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        assert_eq!(&addrs[0..4], &addrs[4..8], "pattern period must recur");
    }

    #[test]
    fn consecutive_same_site_occurrences_share_a_block() {
        // Pattern [0, 0, 1]: back-to-back calls from site 0 pass the same
        // arguments (the paper's "several times in a row" case).
        let cfg = CallSiteConfig {
            sites: 2,
            pattern: vec![0, 0, 1],
            loads_in_callee: 1,
            ..CallSiteConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 3);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        assert_eq!(addrs[0], addrs[1], "consecutive occurrences share A1");
    }

    #[test]
    fn non_consecutive_repeats_use_distinct_blocks() {
        // Pattern [0, 1, 0]: the two occurrences of site 0 are separated,
        // so they are A1 and A2 (distinct argument blocks).
        let cfg = CallSiteConfig {
            sites: 2,
            pattern: vec![0, 1, 0],
            loads_in_callee: 1,
            ..CallSiteConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 3);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        assert_ne!(addrs[0], addrs[2], "A1 and A2 must differ");
    }

    #[test]
    fn callee_loads_share_call_block_base() {
        let (mut wl, mut r) = make(CallSiteConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 9);
        let trace = b.finish();
        let loads: Vec<_> = trace.loads().collect();
        for group in loads.chunks(3) {
            if group.len() == 3 {
                let bases: BTreeSet<u64> = group.iter().map(|l| l.base_addr()).collect();
                assert_eq!(bases.len(), 1);
            }
        }
    }

    #[test]
    fn calls_come_from_distinct_static_sites() {
        let (mut wl, mut r) = make(CallSiteConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 30);
        let trace = b.finish();
        let call_ips: BTreeSet<u64> = trace
            .iter()
            .filter_map(crate::TraceEvent::as_branch)
            .filter(|br| br.kind == BranchKind::Call)
            .map(|br| br.ip)
            .collect();
        assert_eq!(
            call_ips.len(),
            3,
            "pattern 0,1,2,0 exercises 3 static sites"
        );
    }

    #[test]
    fn noise_breaks_strict_recurrence() {
        let cfg = CallSiteConfig {
            noise_percent: 100,
            loads_in_callee: 1,
            ..CallSiteConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 64);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        // With 100% noise the sequence is site-random; a strict period of 4
        // across 16 periods is astronomically unlikely.
        let periodic = addrs
            .chunks(4)
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0] == w[1]);
        assert!(!periodic);
    }

    #[test]
    #[should_panic(expected = "unknown call site")]
    fn pattern_site_out_of_range_rejected() {
        let _ = make(CallSiteConfig {
            sites: 2,
            pattern: vec![0, 5],
            ..CallSiteConfig::default()
        });
    }
}
