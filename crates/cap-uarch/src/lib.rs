//! # cap-uarch — microarchitecture timing substrate for the CAP reproduction
//!
//! The ISCA 1999 paper evaluates its load-address predictors on Intel's
//! detailed performance simulator: an 8-wide, 128-deep out-of-order
//! processor with 10 functional units, 4 data-cache ports, a 32 KB L1 /
//! 1 MB L2 hierarchy, and a hybrid branch predictor (§4.1). This crate
//! rebuilds that substrate:
//!
//! * [`cache`] / [`hierarchy`] — set-associative LRU caches with the
//!   paper's geometry and era-appropriate latencies;
//! * [`branch`] — bimodal, gshare, and the hybrid direction predictor;
//! * [`capacity`] — per-cycle structural resource booking;
//! * [`core`] — the timestamp-dataflow out-of-order core with
//!   address-prediction integration and selective recovery.
//!
//! ## Quick start
//!
//! ```
//! use cap_uarch::core::{run_trace, CoreConfig};
//! use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
//! use cap_trace::suites::Suite;
//!
//! let trace = Suite::Int.traces()[0].generate(5_000);
//! let base = run_trace(&trace, &CoreConfig::paper_default(), None, 0);
//! let mut pred = HybridPredictor::new(HybridConfig::paper_default());
//! let with = run_trace(&trace, &CoreConfig::paper_default(), Some(&mut pred), 0);
//! println!("speedup: {:.3}", with.speedup_over(&base));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod cache;
pub mod capacity;
pub mod core;
pub mod hierarchy;

pub use crate::core::{run_trace, CoreConfig, CoreStats, OooCore};

/// Registry metric names recorded by the timing substrate when an
/// [`cap_obs::Obs`] is attached ([`OooCore::set_obs`] /
/// [`hierarchy::MemoryHierarchy::set_obs`]).
pub mod names {
    /// L1 data-cache hits.
    pub const L1_HIT: &str = "uarch.l1.hit";
    /// L1 data-cache misses.
    pub const L1_MISS: &str = "uarch.l1.miss";
    /// L2 hits (of L1 misses).
    pub const L2_HIT: &str = "uarch.l2.hit";
    /// L2 misses (accesses that went to memory).
    pub const L2_MISS: &str = "uarch.l2.miss";
    /// Live L1 lines (gauge).
    pub const L1_LIVE_LINES: &str = "uarch.l1.live_lines";
    /// Live L2 lines (gauge).
    pub const L2_LIVE_LINES: &str = "uarch.l2.live_lines";
    /// Reorder-buffer occupancy at the last publish point (gauge).
    pub const ROB_OCCUPANCY: &str = "uarch.rob.occupancy";
    /// Outstanding store-forwarding words at the last publish point
    /// (gauge).
    pub const STORE_SET_SIZE: &str = "uarch.store_set.size";
}

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::branch::{BranchPredictor, HybridBranchPredictor};
    pub use crate::cache::{Cache, CacheConfig};
    pub use crate::core::{run_trace, CoreConfig, CoreStats, OooCore};
    pub use crate::hierarchy::{LatencyConfig, MemoryHierarchy};
}
