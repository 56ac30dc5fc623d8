//! The two-level on-chip memory hierarchy (32 KB L1 + 1 MB L2, §4.1).

use crate::cache::{Cache, CacheConfig};
use crate::names;
use cap_obs::Obs;

/// Access latencies of each hierarchy level, in cycles.
///
/// `l1` is the load-to-use latency whose growth motivates the whole paper
/// ("two to five cycles in next-generation processors").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 hit latency (load-to-use).
    pub l1: u32,
    /// L2 hit latency.
    pub l2: u32,
    /// Main-memory latency.
    pub memory: u32,
}

impl LatencyConfig {
    /// Latencies representative of the paper's era: 3-cycle L1, 12-cycle
    /// L2, 80-cycle memory.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            l1: 3,
            l2: 12,
            memory: 80,
        }
    }
}

/// The L1+L2 data hierarchy.
///
/// # Examples
///
/// ```
/// use cap_uarch::hierarchy::{LatencyConfig, MemoryHierarchy};
/// let mut mem = MemoryHierarchy::paper_default();
/// let cold = mem.access(0x10_000);
/// let warm = mem.access(0x10_000);
/// assert!(cold > warm);
/// assert_eq!(warm, LatencyConfig::paper_default().l1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1: Cache,
    l2: Cache,
    latency: LatencyConfig,
    obs: Obs,
}

impl MemoryHierarchy {
    /// Builds a hierarchy from explicit configurations.
    #[must_use]
    pub fn new(l1: CacheConfig, l2: CacheConfig, latency: LatencyConfig) -> Self {
        Self {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            latency,
            obs: Obs::off(),
        }
    }

    /// Attaches a telemetry sink for the `uarch.l1.*` / `uarch.l2.*`
    /// counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Publishes the occupancy gauges of both cache levels.
    pub fn publish_occupancy(&self) {
        self.obs
            .gauge(names::L1_LIVE_LINES, self.l1.occupancy() as i64);
        self.obs
            .gauge(names::L2_LIVE_LINES, self.l2.occupancy() as i64);
    }

    /// The paper's configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(
            CacheConfig::paper_l1(),
            CacheConfig::paper_l2(),
            LatencyConfig::paper_default(),
        )
    }

    /// Performs one data access and returns its total latency in cycles.
    pub fn access(&mut self, addr: u64) -> u32 {
        if self.l1.access(addr) {
            self.obs.incr(names::L1_HIT);
            self.latency.l1
        } else if self.l2.access(addr) {
            self.obs.incr(names::L1_MISS);
            self.obs.incr(names::L2_HIT);
            self.latency.l2
        } else {
            self.obs.incr(names::L1_MISS);
            self.obs.incr(names::L2_MISS);
            self.latency.memory
        }
    }

    /// L1 hit rate so far.
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        self.l1.hit_rate()
    }

    /// L2 hit rate so far (of L1 misses).
    #[must_use]
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_classes_ordered() {
        let mut m = MemoryHierarchy::paper_default();
        let cold = m.access(0x4_0000);
        assert_eq!(cold, 80, "cold access goes to memory");
        let l1 = m.access(0x4_0000);
        assert_eq!(l1, 3);
    }

    #[test]
    fn l2_serves_l1_capacity_misses() {
        let mut m = MemoryHierarchy::paper_default();
        // Walk 64KB (2x L1 capacity, fits easily in L2) twice.
        for _ in 0..2 {
            for i in 0..2048u64 {
                m.access(i * 32);
            }
        }
        // Second pass: L1 thrashy, L2 should hit.
        let lat = m.access(0);
        assert!(
            lat == 12 || lat == 3,
            "second-pass access must not go to memory"
        );
    }

    #[test]
    fn hit_rates_exposed() {
        let mut m = MemoryHierarchy::paper_default();
        for _ in 0..100 {
            m.access(0x100);
        }
        assert!(m.l1_hit_rate() > 0.9);
    }
}
