//! Profile feedback / software assist — the paper's §6 future-work item.
//!
//! > "Profile feedback/Software assist: to ease the hardware work by
//! > letting the compiler/profiler classify loads according to the
//! > expected address pattern: last value, stride, context based, unknown,
//! > etc… This reduces warm-up time, helps reducing predictor size, and
//! > eliminates prediction table pollution."
//!
//! [`Profiler`] performs the offline pass (one observation run over a
//! trace, classifying each static load), and [`ProfileGuidedPredictor`]
//! consumes the classification: constant/stride loads use only the stride
//! component, context loads use only CAP, and *unknown* loads touch no
//! table at all — which is precisely how profiling "eliminates prediction
//! table pollution" and lets smaller tables match bigger unassisted ones.

use crate::cap::{CapComponent, CapParams};
use crate::link_table::LinkTableConfig;
use crate::load_buffer::{LbEntryProto, LoadBuffer, LoadBufferConfig};
use crate::stride::{StrideComponent, StrideParams};
use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail};
use cap_trace::{Trace, TraceEvent};
use std::collections::HashMap;

/// The address-pattern classes of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadClass {
    /// The address is (almost) always the same — last-value predictable.
    Constant,
    /// Consecutive addresses differ by a recurring delta.
    Stride,
    /// Addresses recur (short working set) without stride structure.
    Context,
    /// No exploitable structure observed.
    Unknown,
}

#[derive(Debug, Clone, Default)]
struct ProfileEntry {
    last_addr: u64,
    last_delta: Option<i64>,
    transitions: u64,
    constant: u64,
    stride: u64,
    recurring: u64,
    seen: Vec<u64>, // bounded recent-address sample
}

impl ProfileEntry {
    const SAMPLE: usize = 64;

    fn observe(&mut self, addr: u64) {
        if self.transitions == 0 && self.last_addr == 0 && self.seen.is_empty() {
            self.last_addr = addr;
            self.seen.push(addr);
            return;
        }
        let delta = addr.wrapping_sub(self.last_addr) as i64;
        self.transitions += 1;
        if delta == 0 {
            self.constant += 1;
        }
        if self.last_delta == Some(delta) {
            self.stride += 1;
        }
        if self.seen.contains(&addr) {
            self.recurring += 1;
        } else if self.seen.len() < Self::SAMPLE {
            self.seen.push(addr);
        }
        self.last_delta = Some(delta);
        self.last_addr = addr;
    }

    fn classify(&self) -> LoadClass {
        if self.transitions < 4 {
            return LoadClass::Unknown;
        }
        let frac = |n: u64| n as f64 / self.transitions as f64;
        if frac(self.constant) > 0.75 {
            LoadClass::Constant
        } else if frac(self.stride) > 0.75 {
            LoadClass::Stride
        } else if frac(self.recurring) > 0.5 {
            LoadClass::Context
        } else {
            LoadClass::Unknown
        }
    }
}

/// Per-static-load classification produced by a profiling run.
#[derive(Debug, Clone, Default)]
pub struct LoadClassMap {
    classes: HashMap<u64, LoadClass>,
}

impl LoadClassMap {
    /// The class of a static load (`Unknown` if never profiled).
    #[must_use]
    pub fn class_of(&self, ip: u64) -> LoadClass {
        self.classes.get(&ip).copied().unwrap_or(LoadClass::Unknown)
    }

    /// Number of classified static loads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when no loads were profiled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Number of loads in a given class.
    #[must_use]
    pub fn count(&self, class: LoadClass) -> usize {
        self.classes.values().filter(|&&c| c == class).count()
    }
}

/// The offline profiling pass.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    per_ip: HashMap<u64, ProfileEntry>,
}

impl Profiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one dynamic load.
    pub fn observe(&mut self, ip: u64, addr: u64) {
        self.per_ip.entry(ip).or_default().observe(addr);
    }

    /// Finalises the per-load classification.
    #[must_use]
    pub fn classify(&self) -> LoadClassMap {
        LoadClassMap {
            classes: self
                .per_ip
                .iter()
                .map(|(&ip, e)| (ip, e.classify()))
                .collect(),
        }
    }

    /// Convenience: profiles a whole trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use cap_predictor::profile::{LoadClass, Profiler};
    /// use cap_trace::suites::Suite;
    ///
    /// let trace = Suite::Int.traces()[0].generate(5_000);
    /// let classes = Profiler::profile_trace(&trace);
    /// assert!(classes.count(LoadClass::Constant) > 0);
    /// ```
    #[must_use]
    pub fn profile_trace(trace: &Trace) -> LoadClassMap {
        let mut p = Self::new();
        for event in trace.iter() {
            if let TraceEvent::Load(l) = event {
                p.observe(l.ip, l.addr);
            }
        }
        p.classify()
    }
}

/// A hybrid predictor steered by a profiling pass: each static load only
/// exercises the component its class calls for, and unknown loads touch no
/// table at all.
#[derive(Debug)]
pub struct ProfileGuidedPredictor {
    classes: LoadClassMap,
    lb: LoadBuffer,
    cap: CapComponent,
    stride: StrideComponent,
}

impl ProfileGuidedPredictor {
    /// Creates the predictor from a classification and the usual table
    /// geometry.
    #[must_use]
    pub fn new(
        classes: LoadClassMap,
        lb: LoadBufferConfig,
        lt: LinkTableConfig,
        cap: CapParams,
        stride: StrideParams,
    ) -> Self {
        let proto = LbEntryProto {
            cap_conf: cap.counter(),
            stride_conf: stride.counter(),
        };
        Self {
            classes,
            lb: LoadBuffer::new(lb, proto),
            cap: CapComponent::new(cap, lt),
            stride: StrideComponent::new(stride),
        }
    }

    /// The classification in use.
    #[must_use]
    pub fn classes(&self) -> &LoadClassMap {
        &self.classes
    }
}

impl AddressPredictor for ProfileGuidedPredictor {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let class = self.classes.class_of(ctx.ip);
        if class == LoadClass::Unknown {
            return Prediction::none();
        }
        let Some(entry) = self.lb.lookup(ctx.ip) else {
            return Prediction::none();
        };
        match class {
            LoadClass::Constant | LoadClass::Stride => {
                let (addr, confident) = self.stride.predict(entry, ctx);
                Prediction {
                    addr,
                    speculate: addr.is_some() && confident,
                    source: if addr.is_some() {
                        PredSource::Stride
                    } else {
                        PredSource::None
                    },
                    detail: PredictionDetail {
                        stride_addr: addr,
                        stride_confident: confident,
                        ..PredictionDetail::default()
                    },
                }
            }
            LoadClass::Context => {
                let (addr, confident) = self.cap.predict(entry, ctx);
                Prediction {
                    addr,
                    speculate: addr.is_some() && confident,
                    source: if addr.is_some() {
                        PredSource::Cap
                    } else {
                        PredSource::None
                    },
                    detail: PredictionDetail {
                        cap_addr: addr,
                        cap_confident: confident,
                        ..PredictionDetail::default()
                    },
                }
            }
            LoadClass::Unknown => unreachable!("handled above"),
        }
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        let class = self.classes.class_of(ctx.ip);
        if class == LoadClass::Unknown {
            return; // no allocation, no pollution
        }
        let (entry, _fresh) = self.lb.lookup_or_insert(ctx.ip);
        match class {
            LoadClass::Constant | LoadClass::Stride => {
                self.stride
                    .update(entry, ctx, actual, pred.detail.stride_addr, pred.speculate);
            }
            LoadClass::Context => {
                self.cap.update(
                    entry,
                    ctx,
                    actual,
                    pred.detail.cap_addr,
                    pred.speculate,
                    true,
                );
            }
            LoadClass::Unknown => unreachable!("handled above"),
        }
    }

    fn name(&self) -> &'static str {
        "profile-guided"
    }
}

impl ProfileGuidedPredictor {
    /// Number of live Load Buffer entries (diagnostics).
    #[must_use]
    pub fn lb_occupancy(&self) -> usize {
        self.lb.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_trace::builder::TraceBuilder;

    #[test]
    fn classifier_separates_the_four_classes() {
        let mut b = TraceBuilder::new();
        use cap_rand::{Rng, SeedableRng};
        let mut rng = cap_rand::rngs::StdRng::seed_from_u64(1);
        let pattern = [0x100u64, 0x9A0, 0x430, 0x7C8];
        for i in 0..400u64 {
            b.load(0x10, 0xAAAA, 0); // constant
            b.load(0x20, 0x1000 + i * 8, 0); // stride
            b.load(0x30, pattern[(i % 4) as usize], 0); // context
            b.load(0x40, (rng.gen::<u32>() as u64) & !3, 0); // random
        }
        let classes = Profiler::profile_trace(&b.finish());
        assert_eq!(classes.class_of(0x10), LoadClass::Constant);
        assert_eq!(classes.class_of(0x20), LoadClass::Stride);
        assert_eq!(classes.class_of(0x30), LoadClass::Context);
        assert_eq!(classes.class_of(0x40), LoadClass::Unknown);
        assert_eq!(classes.class_of(0x999), LoadClass::Unknown, "unseen ip");
    }

    #[test]
    fn constant_stride_loads_count_as_stride_class_for_zero_delta() {
        // A constant address is a stride of 0; the classifier must prefer
        // the Constant label (last-value predictable).
        let mut b = TraceBuilder::new();
        for _ in 0..50 {
            b.load(0x10, 0x500, 0);
        }
        let classes = Profiler::profile_trace(&b.finish());
        assert_eq!(classes.class_of(0x10), LoadClass::Constant);
    }

    #[test]
    fn too_few_observations_stay_unknown() {
        let mut b = TraceBuilder::new();
        b.load(0x10, 0x500, 0);
        b.load(0x10, 0x500, 0);
        let classes = Profiler::profile_trace(&b.finish());
        assert_eq!(classes.class_of(0x10), LoadClass::Unknown);
    }

    fn guided_for(trace: &Trace) -> ProfileGuidedPredictor {
        ProfileGuidedPredictor::new(
            Profiler::profile_trace(trace),
            LoadBufferConfig {
                entries: 256,
                assoc: 2,
            },
            LinkTableConfig {
                entries: 1024,
                assoc: 2,
                ..LinkTableConfig::paper_default()
            },
            {
                let mut p = CapParams::paper_default();
                p.history.index_bits = 10;
                p
            },
            StrideParams::paper_default(),
        )
    }

    #[test]
    fn guided_predictor_covers_classified_loads() {
        let mut b = TraceBuilder::new();
        let pattern = [0x100u64, 0x9A0, 0x430, 0x7C8];
        for i in 0..600u64 {
            b.load(0x10, 0xAAAA, 0);
            b.load(0x20, 0x1000 + (i % 64) * 8, 0);
            b.load(0x30, pattern[(i % 4) as usize], 0);
        }
        let trace = b.finish();
        let mut p = guided_for(&trace);
        let stats = crate::drive::Session::new(&mut p).run(&trace);
        assert!(
            stats.prediction_rate() > 0.75,
            "classified loads must be covered: {:.3}",
            stats.prediction_rate()
        );
        assert!(stats.accuracy() > 0.95);
    }

    #[test]
    fn unknown_loads_never_touch_tables() {
        use cap_rand::{Rng, SeedableRng};
        let mut rng = cap_rand::rngs::StdRng::seed_from_u64(3);
        let mut b = TraceBuilder::new();
        for _ in 0..500 {
            b.load(0x40, (rng.gen::<u32>() as u64) & !3, 0);
        }
        let trace = b.finish();
        let mut p = guided_for(&trace);
        let stats = crate::drive::Session::new(&mut p).run(&trace);
        assert_eq!(stats.predictions, 0, "unknown loads make no predictions");
        assert_eq!(p.lb_occupancy(), 0, "unknown loads allocate nothing");
    }
}
