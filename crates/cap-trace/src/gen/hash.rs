//! Hash-table probing workloads modelling TPC-style database access.
//!
//! Hash probes mix two populations: a *hot key set* that recurs in a stable
//! order (index lookups inside a loop — context-predictable) and *cold keys*
//! drawn uniformly (probe misses and one-off rows — irregular, LT-polluting).
//! The paper notes hash-table loads as a source of Link-Table aliasing
//! (§3.3), which is why the offset LSBs are excluded from the base address.

use super::{Seat, Workload};
use crate::alloc::HeapModel;
use crate::builder::{IpAllocator, TraceBuilder};
use crate::record::OpLatency;
use cap_rand::rngs::StdRng;
use cap_rand::Rng;

/// Configuration for [`HashWorkload`].
#[derive(Debug, Clone)]
pub struct HashConfig {
    /// Number of hash buckets (power of two).
    pub buckets: usize,
    /// Size of the recurring hot-key sequence.
    pub hot_keys: usize,
    /// Percentage of probes that use a cold (uniform random) key.
    pub cold_percent: u32,
    /// Maximum chain length walked past the bucket head.
    pub max_chain: usize,
    /// Bytes per chain node.
    pub node_size: u64,
}

impl Default for HashConfig {
    fn default() -> Self {
        Self {
            buckets: 1024,
            hot_keys: 16,
            cold_percent: 30,
            max_chain: 2,
            node_size: 32,
        }
    }
}

/// Probes into a chained hash table.
#[derive(Debug)]
pub struct HashWorkload {
    config: HashConfig,
    seat: Seat,
    table_base: u64,
    /// Chain node addresses per bucket (allocated lazily up front).
    chains: Vec<Vec<u64>>,
    hot_sequence: Vec<u64>,
    head_ip: u64,
    chain_ip: u64,
    cmp_branch_ip: u64,
    hot_pos: usize,
}

impl HashWorkload {
    /// Builds the table and hot sequence.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is not a power of two or `hot_keys == 0`.
    #[must_use]
    pub fn new(config: HashConfig, seat: Seat, rng: &mut StdRng) -> Self {
        assert!(
            config.buckets.is_power_of_two(),
            "buckets must be a power of two"
        );
        assert!(config.hot_keys > 0, "need at least one hot key");
        assert!(config.cold_percent <= 100, "cold_percent is a percentage");
        let table_base = seat.heap_base;
        let mut heap = HeapModel::new(seat.heap_base + (config.buckets as u64) * 8 + 4096, 16);
        let chains = (0..config.buckets)
            .map(|_| {
                let len = rng.gen_range(0..=config.max_chain);
                (0..len).map(|_| heap.alloc(config.node_size)).collect()
            })
            .collect();
        let hot_sequence = (0..config.hot_keys).map(|_| rng.gen::<u64>()).collect();
        let mut ips = IpAllocator::new(seat.ip_base);
        let head_ip = ips.next_ip();
        let chain_ip = ips.next_ip();
        let cmp_branch_ip = ips.next_ip();
        Self {
            config,
            seat,
            table_base,
            chains,
            hot_sequence,
            head_ip,
            chain_ip,
            cmp_branch_ip,
            hot_pos: 0,
        }
    }

    fn bucket_of(&self, key: u64) -> usize {
        // Simple multiplicative hash, deterministic.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.config.buckets - 1)
    }

    fn probe(&mut self, b: &mut TraceBuilder, key: u64) -> usize {
        let bucket = self.bucket_of(key);
        let ptr = self.seat.reg(0);
        let k = self.seat.reg(1);
        // Load the bucket head: table_base + bucket*8. Its value is the
        // first chain node's address (or null).
        let chain = self.chains[bucket].clone();
        b.load_val(
            self.head_ip,
            self.table_base + (bucket as u64) * 8,
            0,
            chain.first().copied().unwrap_or(0),
            Some(ptr),
            Some(k),
        );
        let mut loads = 1;
        // Key comparison consumes the loaded head pointer.
        b.op(
            self.cmp_branch_ip.wrapping_add(4),
            OpLatency::Alu,
            Some(k),
            [Some(k), Some(ptr)],
        );
        for (i, &node) in chain.iter().enumerate() {
            let next = chain.get(i + 1).copied().unwrap_or(0);
            b.load_val(self.chain_ip, node, 0, next, Some(ptr), Some(ptr));
            loads += 1;
            b.cond_branch(self.cmp_branch_ip, i + 1 < chain.len());
        }
        loads
    }
}

impl Workload for HashWorkload {
    fn emit(&mut self, builder: &mut TraceBuilder, rng: &mut StdRng, loads: usize) {
        let mut emitted = 0;
        while emitted < loads {
            let cold = rng.gen_range(0..100) < self.config.cold_percent;
            let key = if cold {
                rng.gen::<u64>()
            } else {
                let key = self.hot_sequence[self.hot_pos];
                self.hot_pos = (self.hot_pos + 1) % self.hot_sequence.len();
                key
            };
            emitted += self.probe(builder, key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SeatAllocator;
    use cap_rand::SeedableRng;
    use std::collections::BTreeSet;

    fn make(config: HashConfig) -> (HashWorkload, StdRng) {
        let mut seats = SeatAllocator::new();
        let mut r = StdRng::seed_from_u64(23);
        let wl = HashWorkload::new(config, seats.next_seat(), &mut r);
        (wl, r)
    }

    #[test]
    fn hot_only_probes_recur() {
        let cfg = HashConfig {
            cold_percent: 0,
            hot_keys: 4,
            max_chain: 0,
            ..HashConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 16);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        assert_eq!(&addrs[0..4], &addrs[4..8], "hot key sequence must recur");
    }

    #[test]
    fn cold_probes_scatter() {
        let cfg = HashConfig {
            cold_percent: 100,
            max_chain: 0,
            ..HashConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 512);
        let trace = b.finish();
        let unique: BTreeSet<u64> = trace.loads().map(|l| l.addr).collect();
        assert!(unique.len() > 200, "cold probes must hit many buckets");
    }

    #[test]
    fn head_addresses_stay_in_table() {
        let cfg = HashConfig::default();
        let buckets = cfg.buckets as u64;
        let (mut wl, mut r) = make(cfg);
        let table_base = wl.table_base;
        let head_ip = wl.head_ip;
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 200);
        let trace = b.finish();
        for l in trace.loads().filter(|l| l.ip == head_ip) {
            assert!(l.addr >= table_base);
            assert!(l.addr < table_base + buckets * 8);
        }
    }

    #[test]
    fn chain_walk_emits_chain_loads() {
        let cfg = HashConfig {
            cold_percent: 0,
            max_chain: 4,
            ..HashConfig::default()
        };
        let (mut wl, mut r) = make(cfg);
        let chain_ip = wl.chain_ip;
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 400);
        let trace = b.finish();
        let chain_loads = trace.loads().filter(|l| l.ip == chain_ip).count();
        assert!(chain_loads > 0, "some buckets must have chains");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_buckets_rejected() {
        let _ = make(HashConfig {
            buckets: 1000,
            ..HashConfig::default()
        });
    }
}
