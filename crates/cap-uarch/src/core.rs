//! The out-of-order core timing model.
//!
//! A timestamp-dataflow model of the paper's simulated processor (§4.1):
//! 8-wide fetch/dispatch/commit, a 128-entry reorder buffer, 10 functional
//! units (6 ALU + 4 data-cache ports), a two-level data cache, a hybrid
//! branch predictor, and optional load-address prediction with selective
//! (dependents-only) recovery.
//!
//! Each dynamic instruction is assigned fetch → dispatch → issue →
//! complete → commit timestamps subject to data dependences (through the
//! architectural registers carried by the trace) and structural capacity
//! ([`crate::capacity`]). This interval-style model captures
//! what the speedup figures measure — how much load-to-use latency the
//! address predictor removes from critical paths — without simulating
//! wrong-path instructions. Wrong-path *address predictor updates* (§5.4)
//! are likewise not modelled; the paper itself only discusses them
//! qualitatively.
//!
//! ## Address-prediction integration
//!
//! Without prediction, a load's cache access starts after its address
//! generation (base register ready + AGU latency). With a confident
//! prediction, the access is launched speculatively at dispatch — and
//! because data delivery is speculative too, dependents may consume the
//! value *before* verification. On a misprediction, the access is re-issued
//! after address generation and only the dependents re-execute (selective
//! recovery), with the wasted early port booking left in place.
//!
//! ## Memory disambiguation
//!
//! The paper's simulator orders loads and stores with "an efficient
//! dynamic memory disambiguation scheme" (§4.1). This model keeps the
//! completion time of the most recent store to every word: a load hitting
//! that word *forwards* from the store (1-cycle forward latency) instead
//! of the cache, and — crucially for address prediction — its data can
//! never be delivered before the producing store's data is ready, even
//! when the address was predicted perfectly. True memory dependences are
//! therefore not magically erased by address prediction.

use crate::branch::{BranchPredictor, HybridBranchPredictor};
use crate::cache::CacheConfig;
use crate::capacity::{InOrderSlots, SlotTracker};
use crate::hierarchy::{LatencyConfig, MemoryHierarchy};
use crate::names;
use cap_obs::Obs;
use cap_predictor::drive::{ControlState, GapPipe};
use cap_predictor::metrics::PredictorStats;
use cap_predictor::types::AddressPredictor;
use cap_trace::{RegId, Trace, TraceEvent};
use std::collections::{HashMap, VecDeque};

/// Core configuration (defaults follow §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Fetch/dispatch/commit width.
    pub width: u32,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Number of ALU/branch functional units.
    pub alu_units: u32,
    /// Number of data-cache ports (shared by loads and stores).
    pub mem_ports: u32,
    /// Front-end depth in cycles (fetch → dispatch).
    pub frontend_latency: u32,
    /// Extra cycles to redirect fetch after a branch misprediction.
    pub redirect_penalty: u32,
    /// Address-generation latency.
    pub agen_latency: u32,
    /// Extra cycles to replay a load after an address misprediction.
    pub replay_penalty: u32,
    /// Share the stride prediction structures for next-invocation data
    /// prefetching (\[Gonz97\]): when a confident stride prediction is
    /// made, the projected next-invocation line is pulled into the cache
    /// in the background.
    pub prefetch: bool,
    /// L1 configuration.
    pub l1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// Hierarchy latencies.
    pub latency: LatencyConfig,
}

impl CoreConfig {
    /// The paper's 8-wide, 128-deep configuration with 10 functional units
    /// and 4 data-cache ports.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            width: 8,
            rob_entries: 128,
            alu_units: 6,
            mem_ports: 4,
            frontend_latency: 3,
            redirect_penalty: 2,
            agen_latency: 1,
            replay_penalty: 1,
            prefetch: false,
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            latency: LatencyConfig::paper_default(),
        }
    }
}

/// Timing results of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Total cycles (commit time of the last instruction).
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Committed loads.
    pub loads: u64,
    /// Branch mispredictions.
    pub branch_mispredicts: u64,
    /// Background prefetches issued (when prefetching is enabled).
    pub prefetches: u64,
    /// L1 hit rate over the run.
    pub l1_hit_rate: f64,
    /// Address-prediction statistics (zeroed when no predictor was used).
    pub pred: PredictorStats,
}

impl CoreStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run relative to a baseline run of the same trace.
    #[must_use]
    pub fn speedup_over(&self, baseline: &CoreStats) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }
}

/// The timing simulator.
#[derive(Debug)]
pub struct OooCore {
    config: CoreConfig,
    mem: MemoryHierarchy,
    branch: HybridBranchPredictor,
    fetch_slots: InOrderSlots,
    dispatch_slots: InOrderSlots,
    commit_slots: InOrderSlots,
    alu: SlotTracker,
    ports: SlotTracker,
    reg_ready: [u64; RegId::COUNT],
    /// Completion time of the most recent store to each word address.
    store_ready: HashMap<u64, u64>,
    commit_ring: VecDeque<u64>,
    redirect_time: u64,
    last_commit: u64,
    control: ControlState,
    stats: CoreStats,
    obs: Obs,
}

impl OooCore {
    /// Creates a core.
    #[must_use]
    pub fn new(config: CoreConfig) -> Self {
        Self {
            mem: MemoryHierarchy::new(config.l1, config.l2, config.latency),
            branch: HybridBranchPredictor::paper_default(),
            fetch_slots: InOrderSlots::new(config.width),
            dispatch_slots: InOrderSlots::new(config.width),
            commit_slots: InOrderSlots::new(config.width),
            alu: SlotTracker::new(config.alu_units),
            ports: SlotTracker::new(config.mem_ports),
            reg_ready: [0; RegId::COUNT],
            store_ready: HashMap::new(),
            commit_ring: VecDeque::with_capacity(config.rob_entries + 1),
            redirect_time: 0,
            last_commit: 0,
            control: ControlState::default(),
            stats: CoreStats::default(),
            obs: Obs::off(),
            config,
        }
    }

    /// Attaches a telemetry sink: cache hit/miss counters land in it via
    /// the hierarchy, occupancy gauges (`uarch.rob.occupancy`,
    /// `uarch.*.live_lines`) are published at the periodic prune points
    /// and at end of run, and per-load prediction stats are mirrored
    /// under the `pred.*` names.
    pub fn set_obs(&mut self, obs: Obs) {
        self.mem.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Publishes the core/cache occupancy gauges.
    fn publish_occupancy(&self) {
        self.obs
            .gauge(names::ROB_OCCUPANCY, self.commit_ring.len() as i64);
        self.obs
            .gauge(names::STORE_SET_SIZE, self.store_ready.len() as i64);
        self.mem.publish_occupancy();
    }

    fn src_ready(&self, srcs: &[Option<RegId>]) -> u64 {
        srcs.iter()
            .flatten()
            .map(|r| self.reg_ready[r.index()])
            .max()
            .unwrap_or(0)
    }

    fn set_dst(&mut self, dst: Option<RegId>, ready: u64) {
        if let Some(r) = dst {
            self.reg_ready[r.index()] = ready;
        }
    }

    /// Runs a full trace through the core with an optional address
    /// predictor and a predict-to-update gap expressed in dynamic
    /// instructions (`0` = immediate update, as in §4), held by the same
    /// [`GapPipe`] a `Session` drives.
    pub fn run(
        &mut self,
        trace: &Trace,
        mut predictor: Option<&mut dyn AddressPredictor>,
        gap: usize,
    ) -> CoreStats {
        let mut pipe = GapPipe::new(gap, self.obs.clone());

        for (seq, event) in (0u64..).zip(trace.events()) {
            // Front end.
            let fetch = self.fetch_slots.alloc(self.redirect_time);
            let mut dispatch = self
                .dispatch_slots
                .alloc(fetch + u64::from(self.config.frontend_latency));
            // ROB: the instruction `rob_entries` older must have committed.
            if self.commit_ring.len() >= self.config.rob_entries {
                if let Some(oldest) = self.commit_ring.pop_front() {
                    dispatch = dispatch.max(oldest);
                }
            }

            let complete = match event {
                TraceEvent::Op(op) => {
                    let ready = self.src_ready(&op.srcs).max(dispatch);
                    let issue = self.alu.alloc(ready);
                    let complete = issue + u64::from(op.latency.cycles());
                    self.set_dst(op.dst, complete);
                    complete
                }
                TraceEvent::Branch(b) => {
                    let issue = self.alu.alloc(dispatch);
                    let resolve = issue + 1;
                    if b.kind == cap_trace::BranchKind::Conditional {
                        let predicted = self.branch.predict(b.ip, self.control.ghr);
                        if predicted != b.taken {
                            self.stats.branch_mispredicts += 1;
                            self.redirect_time = self
                                .redirect_time
                                .max(resolve + u64::from(self.config.redirect_penalty));
                        }
                        self.branch.update(b.ip, self.control.ghr, b.taken);
                    }
                    self.control.on_branch(b.ip, b.taken, b.kind);
                    resolve
                }
                TraceEvent::Store(st) => {
                    let agen = self.src_ready(&[st.addr_src]).max(dispatch)
                        + u64::from(self.config.agen_latency);
                    let data = self.src_ready(&[st.data_src]);
                    let port = self.ports.alloc(agen.max(data));
                    self.mem.access(st.addr);
                    // Make the stored word visible for load forwarding.
                    self.store_ready.insert(st.addr >> 2, port + 1);
                    port + 1
                }
                TraceEvent::Load(load) => {
                    self.stats.loads += 1;
                    let agen = self.src_ready(&[load.addr_src]).max(dispatch)
                        + u64::from(self.config.agen_latency);

                    // Query the address predictor at dispatch.
                    let prediction = predictor
                        .as_deref_mut()
                        .map(|p| pipe.predict(seq, p, self.control.context(load), load.addr));

                    if self.config.prefetch {
                        if let Some(pf) = prediction.and_then(|p| p.detail.next_invocation) {
                            // Background prefetch of the projected next
                            // invocation; no port booking — prefetches use
                            // idle bandwidth in this model.
                            self.mem.access(pf);
                            self.stats.prefetches += 1;
                        }
                    }
                    // A pending/recent store to the same word forwards its
                    // data; its readiness is a floor on the load's data
                    // delivery regardless of address prediction.
                    let forward_floor = self.store_ready.get(&(load.addr >> 2)).copied();
                    // A speculative access needs a concrete address; a
                    // `speculate` flag with no address (impossible from the
                    // shipped predictors, but reachable from a fault-injected
                    // one) falls through to the non-speculative path.
                    let spec_addr = prediction.filter(|p| p.speculate).and_then(|p| p.addr);
                    let data_ready = match spec_addr {
                        Some(predicted) => {
                            // The prediction is available in the front end
                            // ("address prediction is performed in an early
                            // stage of the pipeline", §4.1), so the
                            // speculative access overlaps decode/rename and
                            // starts right after fetch — this head start
                            // over waiting for dispatch + address
                            // generation is where the load-to-use latency
                            // hiding comes from.
                            let spec_port = self.ports.alloc(fetch + 1);
                            let spec_lat = self.mem.access(predicted);
                            let spec_done = spec_port + u64::from(spec_lat);
                            if predicted == load.addr {
                                // Correct: dependents consume the
                                // speculatively delivered data (but never
                                // before a forwarding store's data).
                                match forward_floor {
                                    Some(t) => spec_done.max(t.max(agen) + 1),
                                    None => spec_done,
                                }
                            } else {
                                // Mispredicted: replay after verification
                                // (address generation), dependents re-run.
                                let replay = self
                                    .ports
                                    .alloc(agen + u64::from(self.config.replay_penalty));
                                let lat = self.mem.access(load.addr);
                                replay + u64::from(lat)
                            }
                        }
                        _ => match forward_floor {
                            // Store-to-load forwarding: 1-cycle bypass once
                            // both the load's address and the store's data
                            // are known.
                            Some(t) => {
                                let port = self.ports.alloc(agen.max(t));
                                port + 1
                            }
                            None => {
                                let port = self.ports.alloc(agen);
                                let lat = self.mem.access(load.addr);
                                port + u64::from(lat)
                            }
                        },
                    };
                    self.set_dst(load.dst, data_ready);
                    data_ready
                }
            };

            // In-order commit.
            let commit = self.commit_slots.alloc(complete.max(self.last_commit));
            self.last_commit = commit;
            self.commit_ring.push_back(commit);
            self.stats.instructions += 1;

            // Allow the out-of-order trackers to prune below the dispatch
            // frontier; the in-order stages hold no window.
            if self.stats.instructions.is_multiple_of(8192) {
                self.alu.retire_below(dispatch);
                self.ports.retire_below(dispatch);
                if self.obs.enabled() {
                    self.publish_occupancy();
                }
            }
        }

        if let Some(p) = predictor {
            self.stats.pred.merge(&pipe.finish(p));
        }

        if self.obs.enabled() {
            self.publish_occupancy();
        }
        self.stats.cycles = self.last_commit;
        self.stats.l1_hit_rate = self.mem.l1_hit_rate();
        self.stats.clone()
    }
}

/// Convenience: runs `trace` on a fresh core.
///
/// # Examples
///
/// ```
/// use cap_uarch::core::{run_trace, CoreConfig};
/// use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
/// use cap_trace::suites::Suite;
///
/// let trace = Suite::Int.traces()[0].generate(3_000);
/// let base = run_trace(&trace, &CoreConfig::paper_default(), None, 0);
/// let mut pred = HybridPredictor::new(HybridConfig::paper_default());
/// let with = run_trace(&trace, &CoreConfig::paper_default(), Some(&mut pred), 0);
/// assert!(with.cycles <= base.cycles, "prediction must not slow the core");
/// ```
pub fn run_trace(
    trace: &Trace,
    config: &CoreConfig,
    predictor: Option<&mut dyn AddressPredictor>,
    gap: usize,
) -> CoreStats {
    OooCore::new(*config).run(trace, predictor, gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
    use cap_predictor::load_buffer::LoadBufferConfig;
    use cap_predictor::stride::{StrideParams, StridePredictor};
    use cap_trace::builder::TraceBuilder;
    use cap_trace::record::OpLatency;

    fn config() -> CoreConfig {
        CoreConfig::paper_default()
    }

    /// Repeated pointer-chase traversals: within a traversal each load's
    /// address register is the previous load's destination; traversals are
    /// separated by a stretch of non-load glue (epilogue/prologue), which
    /// is what lets pending predictions drain between traversals (§5.2).
    fn chase_trace(n: usize) -> Trace {
        let mut b = TraceBuilder::new();
        let ptr = RegId::new(8);
        let pattern = [0x1000u64, 0x8810, 0x4820, 0x2830, 0x9440, 0x6C50];
        let per_traversal = pattern.len() * 3 + 12;
        for _ in 0..n / per_traversal {
            for (i, &addr) in pattern.iter().enumerate() {
                b.load_dep(0x40, addr, 0, Some(ptr), Some(ptr));
                b.op(0x44, OpLatency::Alu, Some(RegId::new(9)), [Some(ptr), None]);
                b.cond_branch(0x48, i + 1 < pattern.len());
            }
            for g in 0..12 {
                b.alu(0x100 + g * 4);
            }
        }
        b.finish()
    }

    fn independent_trace(n: usize) -> Trace {
        let mut b = TraceBuilder::new();
        for i in 0..n {
            b.op(
                0x40 + (i as u64 % 8) * 4,
                OpLatency::Alu,
                None,
                [None, None],
            );
        }
        b.finish()
    }

    #[test]
    fn independent_ops_reach_alu_throughput() {
        // Width is 8 but there are only 6 ALUs: ALU-only code caps at 6.
        let stats = run_trace(&independent_trace(10_000), &config(), None, 0);
        assert!(
            stats.ipc() > 5.9 && stats.ipc() <= 6.05,
            "independent single-cycle ops should run ~6 IPC (ALU-bound), got {:.2}",
            stats.ipc()
        );
    }

    #[test]
    fn alu_capacity_limits_ipc() {
        // Only 6 ALUs: even with width 8, ALU-only code caps at 6 IPC.
        let mut cfg = config();
        cfg.alu_units = 2;
        let stats = run_trace(&independent_trace(10_000), &cfg, None, 0);
        assert!(
            stats.ipc() <= 2.05,
            "2 ALUs cap IPC at 2, got {:.2}",
            stats.ipc()
        );
    }

    #[test]
    fn pointer_chase_is_latency_bound() {
        let stats = run_trace(&chase_trace(5_000), &config(), None, 0);
        // Each load waits for the previous: at least L1 latency + agen
        // cycles per load on the critical path.
        let cycles_per_load = stats.cycles as f64 / stats.loads as f64;
        assert!(
            cycles_per_load > 3.5,
            "dependent loads must serialise, got {cycles_per_load:.2} cycles/load"
        );
    }

    #[test]
    fn telemetry_reconciles_with_core_stats() {
        use cap_predictor::metrics::PredictorStats;
        use std::sync::Arc;

        let trace = chase_trace(20_000);
        let registry = Arc::new(cap_obs::Registry::new());
        let mut pred = HybridPredictor::new(HybridConfig::paper_default());
        pred.set_obs(registry.obs());
        let mut core = OooCore::new(config());
        core.set_obs(registry.obs());
        let stats = core.run(&trace, Some(&mut pred), 0);

        let snap = registry.snapshot();
        // The `pred.*` mirror reads back as the exact same accumulator.
        assert_eq!(PredictorStats::from_obs_snapshot(&snap), stats.pred);
        // Cache counters reconcile with the hierarchy's own hit rate.
        let l1_hit = snap.counter(crate::names::L1_HIT).unwrap_or(0);
        let l1_miss = snap.counter(crate::names::L1_MISS).unwrap_or(0);
        assert!(l1_hit + l1_miss > 0, "timing run must touch the caches");
        let rate = l1_hit as f64 / (l1_hit + l1_miss) as f64;
        assert!((rate - stats.l1_hit_rate).abs() < 1e-12);
        // Occupancy gauges were published and are plausible.
        let l1_live = snap.gauge(crate::names::L1_LIVE_LINES).unwrap_or(-1);
        assert!(
            l1_live > 0 && l1_live <= 1024,
            "L1 has 1024 lines, got {l1_live}"
        );
        assert!(snap.gauge(crate::names::ROB_OCCUPANCY).is_some());
    }

    #[test]
    fn address_prediction_speeds_up_pointer_chase() {
        let trace = chase_trace(20_000);
        let base = run_trace(&trace, &config(), None, 0);
        let mut pred = HybridPredictor::new(HybridConfig::paper_default());
        let with = run_trace(&trace, &config(), Some(&mut pred), 0);
        let speedup = with.speedup_over(&base);
        assert!(
            speedup > 1.3,
            "prediction must break the pointer chase: speedup {speedup:.2}"
        );
    }

    #[test]
    fn useless_predictor_does_not_slow_the_core() {
        // A stride predictor on a random chase makes ~no confident
        // predictions; cycles must be ~unchanged.
        use cap_rand::{Rng, SeedableRng};
        let mut rng = cap_rand::rngs::StdRng::seed_from_u64(3);
        let mut b = TraceBuilder::new();
        for _ in 0..5_000 {
            b.load(0x40, (rng.gen::<u32>() as u64) & !3, 0);
        }
        let trace = b.finish();
        let base = run_trace(&trace, &config(), None, 0);
        let mut pred = StridePredictor::new(
            LoadBufferConfig::paper_default(),
            StrideParams::paper_default(),
        );
        let with = run_trace(&trace, &config(), Some(&mut pred), 0);
        let ratio = with.cycles as f64 / base.cycles as f64;
        assert!(
            ratio < 1.02,
            "non-predicting predictor must be ~free, ratio {ratio:.3}"
        );
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        use cap_rand::{Rng, SeedableRng};
        let make = |random: bool| {
            let mut rng = cap_rand::rngs::StdRng::seed_from_u64(5);
            let mut b = TraceBuilder::new();
            for i in 0..20_000u64 {
                let taken = if random {
                    rng.gen_bool(0.5)
                } else {
                    i % 2 == 0
                };
                b.cond_branch(0x40, taken);
                b.alu(0x44);
            }
            b.finish()
        };
        let predictable = run_trace(&make(false), &config(), None, 0);
        let random = run_trace(&make(true), &config(), None, 0);
        assert!(
            random.cycles > predictable.cycles * 3 / 2,
            "random branches must cost: {} vs {}",
            random.cycles,
            predictable.cycles
        );
        assert!(random.branch_mispredicts > predictable.branch_mispredicts * 5);
    }

    #[test]
    fn rob_limits_memory_level_parallelism() {
        // Independent cold loads: a bigger ROB overlaps more misses.
        use cap_rand::{Rng, SeedableRng};
        let mut rng = cap_rand::rngs::StdRng::seed_from_u64(7);
        let mut b = TraceBuilder::new();
        for _ in 0..5_000 {
            b.load(0x40, (rng.gen::<u32>() as u64) & !63, 0);
        }
        let trace = b.finish();
        let mut small = config();
        small.rob_entries = 16;
        let big = run_trace(&trace, &config(), None, 0);
        let little = run_trace(&trace, &small, None, 0);
        assert!(
            little.cycles > big.cycles,
            "16-entry ROB must be slower: {} vs {}",
            little.cycles,
            big.cycles
        );
    }

    #[test]
    fn gap_degrades_prediction_benefit() {
        let trace = chase_trace(20_000);
        let base = run_trace(&trace, &config(), None, 0);
        let mut p0 = HybridPredictor::new(HybridConfig::paper_default());
        let imm = run_trace(&trace, &config(), Some(&mut p0), 0);
        let mut p8 = HybridPredictor::new(HybridConfig::paper_pipelined());
        let gapped = run_trace(&trace, &config(), Some(&mut p8), 8);
        let s_imm = imm.speedup_over(&base);
        let s_gap = gapped.speedup_over(&base);
        assert!(
            s_gap <= s_imm + 1e-9,
            "gap must not beat immediate: {s_gap:.3} vs {s_imm:.3}"
        );
        assert!(s_gap > 1.0, "gapped prediction must still help: {s_gap:.3}");
    }

    #[test]
    fn store_to_load_forwarding_respects_data_dependence() {
        // A slow divide produces the stored value; a load of the same
        // address must wait for it, while a load of a different address
        // must not.
        let make = |same_addr: bool| {
            let mut b = TraceBuilder::new();
            let data = RegId::new(10);
            for i in 0..2_000u64 {
                b.op(0x40, OpLatency::Div, Some(data), [Some(data), None]);
                b.store_dep(0x44, 0x1000 + (i % 8) * 64, Some(data), None);
                let load_addr = if same_addr {
                    0x1000 + (i % 8) * 64
                } else {
                    0x9000 + (i % 8) * 64
                };
                b.load_dep(0x48, load_addr, 0, Some(RegId::new(11)), None);
                b.op(
                    0x4C,
                    OpLatency::Alu,
                    Some(RegId::new(12)),
                    [Some(RegId::new(12)), Some(RegId::new(11))],
                );
            }
            b.finish()
        };
        let dependent = run_trace(&make(true), &config(), None, 0);
        let independent = run_trace(&make(false), &config(), None, 0);
        assert!(
            dependent.cycles > independent.cycles,
            "memory dependence must cost cycles: {} vs {}",
            dependent.cycles,
            independent.cycles
        );
    }

    #[test]
    fn address_prediction_cannot_beat_memory_dependence() {
        // Loads whose data comes from a just-computed store: even a
        // perfect address predictor must not deliver the data before the
        // store's data exists.
        let mut b = TraceBuilder::new();
        let data = RegId::new(10);
        for _ in 0..2_000u64 {
            b.op(0x40, OpLatency::Div, Some(data), [Some(data), None]);
            b.store_dep(0x44, 0x1000, Some(data), None);
            b.load_dep(0x48, 0x1000, 0, Some(RegId::new(11)), None);
            b.op(
                0x4C,
                OpLatency::Alu,
                Some(RegId::new(12)),
                [Some(RegId::new(12)), Some(RegId::new(11))],
            );
        }
        let trace = b.finish();
        let base = run_trace(&trace, &config(), None, 0);
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        let with = run_trace(&trace, &config(), Some(&mut p), 0);
        // The constant-address load is trivially predictable, yet the
        // dependence through memory caps the gain.
        let speedup = with.speedup_over(&base);
        assert!(
            speedup < 1.05,
            "prediction must not break a true memory dependence: {speedup:.3}"
        );
    }

    #[test]
    fn prefetching_improves_l1_hit_rate_on_strides() {
        use cap_rand::{Rng, SeedableRng};
        // Large stride sweep with cold lines + interleaved random loads.
        let mut rng = cap_rand::rngs::StdRng::seed_from_u64(11);
        let mut b = TraceBuilder::new();
        for i in 0..20_000u64 {
            b.load(0x40, 0x10_0000 + i * 64, 0); // one cold line per load
            if i % 4 == 0 {
                b.load(0x44, (rng.gen::<u32>() as u64) & !3, 0);
            }
        }
        let trace = b.finish();
        let mut plain_cfg = config();
        plain_cfg.prefetch = false;
        let mut pf_cfg = config();
        pf_cfg.prefetch = true;
        let mut p1 = HybridPredictor::new(HybridConfig::paper_default());
        let plain = run_trace(&trace, &plain_cfg, Some(&mut p1), 0);
        let mut p2 = HybridPredictor::new(HybridConfig::paper_default());
        let with_pf = run_trace(&trace, &pf_cfg, Some(&mut p2), 0);
        assert!(with_pf.prefetches > 0, "prefetches must be issued");
        assert!(
            with_pf.l1_hit_rate > plain.l1_hit_rate + 0.1,
            "prefetching must lift the stride sweep's hit rate: {:.3} vs {:.3}",
            with_pf.l1_hit_rate,
            plain.l1_hit_rate
        );
    }

    #[test]
    fn stats_count_instructions_and_loads() {
        let stats = run_trace(&chase_trace(120), &config(), None, 0);
        // 120 / 30 = 4 traversals of 30 instructions (6 of them loads).
        assert_eq!(stats.instructions, 120);
        assert_eq!(stats.loads, 24);
        assert!(stats.cycles > 0);
    }
}
