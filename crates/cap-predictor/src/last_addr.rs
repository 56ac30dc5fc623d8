//! The last-address predictor — the simplest prior-art baseline
//! (\[Lipa96a\]); predicts `A_{N+1} = A_N`.
//!
//! The paper's Section 1 reports that this scheme "surprisingly" covers
//! about 40% of all load addresses (globals, read-only constants, recurring
//! stack slots); the `text-coverage` experiment reproduces that headline.

use crate::confidence::SaturatingCounter;
use crate::load_buffer::{LbEntryProto, LoadBuffer, LoadBufferConfig};
use crate::types::{AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail};

/// A last-address predictor built on the shared Load Buffer.
#[derive(Debug, Clone)]
pub struct LastAddressPredictor {
    lb: LoadBuffer,
}

impl LastAddressPredictor {
    /// Creates the predictor with saturating-counter confidence
    /// (threshold 2, max 3).
    ///
    /// # Examples
    ///
    /// ```
    /// use cap_predictor::last_addr::LastAddressPredictor;
    /// use cap_predictor::load_buffer::LoadBufferConfig;
    /// use cap_predictor::types::{AddressPredictor, LoadContext};
    ///
    /// let mut p = LastAddressPredictor::new(LoadBufferConfig::paper_default());
    /// for _ in 0..4 {
    ///     let ctx = LoadContext::new(0x100, 0, 0);
    ///     let pred = p.predict(&ctx);
    ///     p.update(&ctx, 0xBEEC, &pred);
    /// }
    /// let pred = p.predict(&LoadContext::new(0x100, 0, 0));
    /// assert_eq!(pred.addr, Some(0xBEEC));
    /// assert!(pred.speculate);
    /// ```
    #[must_use]
    pub fn new(lb: LoadBufferConfig) -> Self {
        let counter = SaturatingCounter::new(2, 3, false);
        Self {
            lb: LoadBuffer::new(
                lb,
                LbEntryProto {
                    cap_conf: counter,
                    stride_conf: counter,
                },
            ),
        }
    }
}

impl AddressPredictor for LastAddressPredictor {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let Some(entry) = self.lb.lookup(ctx.ip) else {
            return Prediction::none();
        };
        if !entry.stride_seen {
            return Prediction::none();
        }
        let addr = Some(entry.last_addr);
        Prediction {
            addr,
            speculate: entry.stride_conf.is_confident(),
            source: PredSource::LastAddress,
            detail: PredictionDetail {
                stride_addr: addr,
                stride_confident: entry.stride_conf.is_confident(),
                ..PredictionDetail::default()
            },
        }
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        let (entry, _fresh) = self.lb.lookup_or_insert(ctx.ip);
        if pred.addr.is_some() {
            if pred.addr == Some(actual) {
                entry.stride_conf.on_correct();
            } else {
                entry.stride_conf.on_incorrect();
            }
        }
        entry.last_addr = actual;
        entry.stride_seen = true;
    }

    fn name(&self) -> &'static str {
        "last-address"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> LastAddressPredictor {
        LastAddressPredictor::new(LoadBufferConfig {
            entries: 64,
            assoc: 2,
        })
    }

    fn step(p: &mut LastAddressPredictor, ip: u64, actual: u64) -> Prediction {
        let ctx = LoadContext::new(ip, 0, 0);
        let pred = p.predict(&ctx);
        p.update(&ctx, actual, &pred);
        pred
    }

    #[test]
    fn predicts_constant_address() {
        let mut p = predictor();
        for _ in 0..5 {
            step(&mut p, 0x40, 0x1234);
        }
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert_eq!(pred.addr, Some(0x1234));
        assert!(pred.speculate);
        assert_eq!(pred.source, PredSource::LastAddress);
    }

    #[test]
    fn strides_defeat_it() {
        let mut p = predictor();
        let mut spec = 0;
        for i in 0..20u64 {
            let pred = step(&mut p, 0x40, 0x1000 + i * 8);
            if pred.speculate {
                spec += 1;
            }
        }
        assert_eq!(spec, 0, "a moving address never builds confidence");
    }

    #[test]
    fn changed_address_drops_confidence() {
        let mut p = predictor();
        for _ in 0..5 {
            step(&mut p, 0x40, 0x1234);
        }
        step(&mut p, 0x40, 0x9999);
        let pred = p.predict(&LoadContext::new(0x40, 0, 0));
        assert_eq!(pred.addr, Some(0x9999), "prediction follows the new value");
        assert!(!pred.speculate, "but confidence must rebuild");
    }

    #[test]
    fn first_occurrence_gives_nothing() {
        let mut p = predictor();
        assert_eq!(p.predict(&LoadContext::new(0x40, 0, 0)), Prediction::none());
        step(&mut p, 0x40, 0x1);
        assert!(p.predict(&LoadContext::new(0x40, 0, 0)).addr.is_some());
    }
}
