//! Weighted interleaving of workloads into a composite trace.
//!
//! Real traces interleave phases: a stretch of pointer chasing, a stretch of
//! array code, some irregular glue. [`MixWorkload`] emits blocks from its
//! component workloads with probabilities proportional to their weights,
//! letting suite definitions dial in the pattern-class mix that
//! characterises each of the paper's eight application suites.

use super::Workload;
use crate::builder::TraceBuilder;
use cap_rand::rngs::StdRng;
use cap_rand::Rng;

/// A weighted component of a mix.
#[derive(Debug)]
struct Component {
    workload: Box<dyn Workload>,
    weight: u32,
}

/// Interleaves component workloads block-by-block.
///
/// # Examples
///
/// ```
/// use cap_trace::gen::mix::MixWorkload;
/// use cap_trace::gen::random::{RandomConfig, RandomWorkload};
/// use cap_trace::gen::{SeatAllocator, Workload};
/// use cap_trace::builder::TraceBuilder;
/// use cap_rand::SeedableRng;
///
/// let mut seats = SeatAllocator::new();
/// let mut rng = cap_rand::rngs::StdRng::seed_from_u64(1);
/// let a = RandomWorkload::new(RandomConfig::default(), seats.next_seat(), &mut rng);
/// let b = RandomWorkload::new(RandomConfig::default(), seats.next_seat(), &mut rng);
/// let mut mix = MixWorkload::new(100);
/// mix.add(Box::new(a), 3);
/// mix.add(Box::new(b), 1);
/// let mut builder = TraceBuilder::new();
/// mix.emit(&mut builder, &mut rng, 1000);
/// assert!(builder.finish().load_count() >= 1000);
/// ```
#[derive(Debug)]
pub struct MixWorkload {
    components: Vec<Component>,
    block_loads: usize,
}

impl MixWorkload {
    /// Creates an empty mix emitting `block_loads` loads per scheduling
    /// quantum.
    ///
    /// # Panics
    ///
    /// Panics if `block_loads == 0`.
    #[must_use]
    pub fn new(block_loads: usize) -> Self {
        assert!(block_loads > 0, "block size must be positive");
        Self {
            components: Vec::new(),
            block_loads,
        }
    }

    /// Adds a component with the given scheduling weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`.
    pub fn add(&mut self, workload: Box<dyn Workload>, weight: u32) {
        assert!(weight > 0, "component weight must be positive");
        self.components.push(Component { workload, weight });
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when no components have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    fn pick(&self, rng: &mut StdRng) -> usize {
        let total: u32 = self.components.iter().map(|c| c.weight).sum();
        let mut roll = rng.gen_range(0..total);
        for (i, c) in self.components.iter().enumerate() {
            if roll < c.weight {
                return i;
            }
            roll -= c.weight;
        }
        unreachable!("weights sum mismatch")
    }
}

impl Workload for MixWorkload {
    /// Emits interleaved blocks until the load budget is met.
    ///
    /// # Panics
    ///
    /// Panics if the mix has no components.
    fn emit(&mut self, builder: &mut TraceBuilder, rng: &mut StdRng, loads: usize) {
        assert!(!self.components.is_empty(), "mix has no components");
        let mut load_count = 0usize;
        while load_count < loads {
            let idx = self.pick(rng);
            let before = builder.len();
            self.components[idx].workload.emit(
                builder,
                rng,
                self.block_loads.min(loads - load_count),
            );
            load_count += builder.loads_since(before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random::{RandomConfig, RandomWorkload};
    use crate::gen::SeatAllocator;
    use cap_rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    fn random_component(seats: &mut SeatAllocator, r: &mut StdRng) -> Box<dyn Workload> {
        Box::new(RandomWorkload::new(
            RandomConfig::default(),
            seats.next_seat(),
            r,
        ))
    }

    #[test]
    fn mix_meets_budget() {
        let mut seats = SeatAllocator::new();
        let mut r = rng();
        let mut mix = MixWorkload::new(50);
        mix.add(random_component(&mut seats, &mut r), 1);
        mix.add(random_component(&mut seats, &mut r), 1);
        let mut b = TraceBuilder::new();
        mix.emit(&mut b, &mut r, 777);
        assert!(b.finish().load_count() >= 777);
    }

    #[test]
    fn weights_bias_scheduling() {
        let mut seats = SeatAllocator::new();
        let mut r = rng();
        let heavy = RandomWorkload::new(RandomConfig::default(), seats.next_seat(), &mut r);
        let light = RandomWorkload::new(RandomConfig::default(), seats.next_seat(), &mut r);
        // Record the heavy component's IP range to attribute loads.
        let mut heavy_probe = TraceBuilder::new();
        let mut heavy_copy = heavy;
        heavy_copy.emit(&mut heavy_probe, &mut r, 1);
        let heavy_ip = heavy_probe.finish().loads().next().unwrap().ip;
        let heavy_region = heavy_ip & !0xFFFFF;

        let mut seats2 = SeatAllocator::new();
        let mut r2 = rng();
        let heavy2 = RandomWorkload::new(RandomConfig::default(), seats2.next_seat(), &mut r2);
        let light2 = light;
        let mut mix = MixWorkload::new(10);
        mix.add(Box::new(heavy2), 9);
        mix.add(Box::new(light2), 1);
        let mut b = TraceBuilder::new();
        mix.emit(&mut b, &mut r2, 5000);
        let t = b.finish();
        let heavy_loads = t
            .loads()
            .filter(|l| l.ip & !0xFFFFF == heavy_region)
            .count();
        assert!(
            heavy_loads * 10 > t.load_count() * 7,
            "9:1 weighting should yield >70% heavy loads, got {heavy_loads}/{}",
            t.load_count()
        );
    }

    #[test]
    #[should_panic(expected = "no components")]
    fn empty_mix_panics_on_emit() {
        let mut mix = MixWorkload::new(10);
        let mut b = TraceBuilder::new();
        mix.emit(&mut b, &mut rng(), 10);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut seats = SeatAllocator::new();
        let mut r = rng();
        let mut mix = MixWorkload::new(10);
        mix.add(random_component(&mut seats, &mut r), 0);
    }
}
