//! A set-associative cache model with LRU replacement.
//!
//! The timing core only needs hit/miss classification per access — data
//! movement is not modelled. Write misses allocate (write-allocate), which
//! matches the inclusive write-back hierarchies of the era the paper
//! simulates.

/// Configuration of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity.
    pub assoc: usize,
}

impl CacheConfig {
    /// The paper's L1 data cache: 32 KB, 32-byte lines, 4-way.
    #[must_use]
    pub fn paper_l1() -> Self {
        Self {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            assoc: 4,
        }
    }

    /// The paper's L2 cache: 1 MB, 64-byte lines, 8-way.
    #[must_use]
    pub fn paper_l2() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            assoc: 8,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.size_bytes.is_multiple_of(self.line_bytes * self.assoc),
            "capacity must be divisible by line size x associativity"
        );
        assert!(
            self.sets().is_power_of_two(),
            "set count must be a power of two"
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    lru: u64,
    valid: bool,
}

/// A set-associative, LRU cache.
///
/// # Examples
///
/// ```
/// use cap_uarch::cache::{Cache, CacheConfig};
/// let mut l1 = Cache::new(CacheConfig::paper_l1());
/// assert!(!l1.access(0x1000)); // cold miss
/// assert!(l1.access(0x1000));  // hit
/// assert!(l1.access(0x1004));  // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`, `sets - 1` and `log2(sets)`: the address split,
    /// derived from `config` so that an access does no division.
    line_shift: u32,
    set_mask: usize,
    tag_shift: u32,
    lines: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Valid lines, tracked incrementally.
    live: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.sets();
        let empty = Line {
            tag: 0,
            lru: 0,
            valid: false,
        };
        Self {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            lines: vec![empty; sets * config.assoc],
            tick: 0,
            hits: 0,
            misses: 0,
            live: 0,
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Performs one access; returns `true` on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr as usize) & self.set_mask;
        let tag = line_addr >> self.tag_shift;
        let base = set * self.config.assoc;
        let ways = &mut self.lines[base..base + self.config.assoc];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Victim: the invalid or least-recently-used way. A (config-
        // impossible) zero-way set yields no victim rather than a panic.
        if let Some(victim) = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
        {
            if !victim.valid {
                self.live += 1;
            }
            *victim = Line {
                tag,
                lru: self.tick,
                valid: true,
            };
        }
        false
    }

    /// Number of valid lines (occupancy gauge).
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        self.live
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all accesses (0 when no accesses yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            assoc: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x4F), "same 16B line");
        assert!(!c.access(0x50), "next line misses");
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addr multiples of 4 lines).
        let a = 0x000;
        let b = 0x040;
        let d = 0x080;
        c.access(a);
        c.access(b);
        c.access(a); // a more recent than b
        c.access(d); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b));
    }

    #[test]
    fn capacity_sweep_thrashes() {
        let mut c = tiny();
        for round in 0..2 {
            for i in 0..64u64 {
                let hit = c.access(i * 16);
                if round == 0 {
                    assert!(!hit);
                }
            }
        }
        // Working set 1KB >> 128B cache: second round still misses.
        assert!(c.hit_rate() < 0.1);
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = tiny();
        for _ in 0..10 {
            for i in 0..4u64 {
                c.access(i * 16); // 4 lines, one per set
            }
        }
        assert!(c.hit_rate() > 0.85);
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        c.access(0x00);
        c.access(0x10);
        assert_eq!(c.occupancy(), 2);
        c.access(0x00); // hit: no growth
        assert_eq!(c.occupancy(), 2);
        // Fill far past capacity: occupancy saturates at 8 lines.
        for i in 0..64u64 {
            c.access(i * 16);
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn paper_configs_validate() {
        let _ = Cache::new(CacheConfig::paper_l1());
        let _ = Cache::new(CacheConfig::paper_l2());
        assert_eq!(CacheConfig::paper_l1().sets(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            line_bytes: 24,
            assoc: 2,
        });
    }
}
