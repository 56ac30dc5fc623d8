//! # cap-predictor — Correlated Load-Address Predictors (ISCA 1999)
//!
//! A faithful implementation of the predictors from Bekerman et al.,
//! *Correlated Load-Address Predictors*, ISCA 1999:
//!
//! * [`cap::CapPredictor`] — the paper's contribution: a two-level
//!   context-based predictor (Load Buffer + Link Table) with shift(m)-xor
//!   history folding, base-address **global correlation**, LT **tags**,
//!   **control-flow indications**, and **pollution-free bits**.
//! * [`stride::StridePredictor`] — the enhanced stride baseline with the
//!   interval technique and pipelined catch-up.
//! * [`hybrid::HybridPredictor`] — the shared-LB hybrid with a dynamic
//!   2-bit selector and configurable LT update policies.
//! * [`last_addr::LastAddressPredictor`] and
//!   [`control_based::ControlBasedPredictor`] — prior-art baselines and the
//!   §3.6 ablation.
//!
//! ## Quick start
//!
//! ```
//! use cap_predictor::drive::Session;
//! use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
//! use cap_trace::suites::Suite;
//!
//! let trace = Suite::Int.traces()[0].generate(20_000);
//! let mut predictor = HybridPredictor::new(HybridConfig::paper_default());
//! let stats = Session::new(&mut predictor).run(&trace);
//! println!(
//!     "prediction rate {:.1}%  accuracy {:.2}%",
//!     100.0 * stats.prediction_rate(),
//!     100.0 * stats.accuracy(),
//! );
//! assert!(stats.prediction_rate() > 0.2);
//! ```
//!
//! The pipelined model of Section 5 is exposed through
//! [`drive::Session::gap`], which delays table updates by a configurable
//! *prediction gap* and feeds per-load pending counts to the catch-up and
//! interval mechanisms.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Anything this crate marks deprecated must be migrated off before it
// lands, not left with internal callers.
#![deny(deprecated)]

pub mod cap;
pub mod confidence;
pub mod control_based;
pub mod delta;
pub mod drive;
pub mod history;
pub mod hybrid;
pub mod last_addr;
pub mod link_table;
pub mod load_buffer;
pub mod metrics;
pub mod profile;
pub mod stride;
pub mod types;
pub mod variable;

pub use types::{AddressPredictor, LoadContext, PredSource, Prediction};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::cap::{CapConfig, CapParams, CapPredictor};
    pub use crate::confidence::{CfiMode, SaturatingCounter};
    pub use crate::delta::{DeltaCapConfig, DeltaCapPredictor};
    pub use crate::drive::Session;
    pub use crate::history::HistorySpec;
    pub use crate::hybrid::{HybridConfig, HybridPredictor, LtUpdatePolicy, SelectorPolicy};
    pub use crate::last_addr::LastAddressPredictor;
    pub use crate::link_table::{LinkTableConfig, PfMode};
    pub use crate::load_buffer::LoadBufferConfig;
    pub use crate::metrics::PredictorStats;
    pub use crate::profile::{LoadClass, LoadClassMap, ProfileGuidedPredictor, Profiler};
    pub use crate::stride::{StrideParams, StridePredictor};
    pub use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction};
    pub use crate::variable::{VariableHistoryCap, VariableHistoryConfig};
}
