//! The recording seam: the [`Recorder`] trait and the [`Obs`] handle
//! that instrumented code actually holds.

use std::fmt;
use std::sync::Arc;

use crate::trace::EventKind;

/// A telemetry sink. [`crate::Registry`] is the standard one; tests
/// may supply their own to assert on individual calls.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &str, delta: u64);

    /// Sets the gauge `name` to `value`.
    fn gauge_set(&self, name: &str, value: i64);

    /// Records one observation into the histogram `name`.
    fn record(&self, name: &str, value: u64);

    /// Appends a trace event.
    fn event(&self, name: &str, kind: EventKind, value: u64);
}

/// The handle held by instrumented code.
///
/// `Obs::off()` (also `Obs::default()`) carries no recorder: every
/// call is a branch on a `None` discriminant and returns immediately —
/// no allocation, no locking, no string work. That is the contract
/// that lets hot paths stay instrumented unconditionally.
///
/// Cloning is cheap (an `Option<Arc>` copy); every worker/component
/// can hold its own handle onto one shared registry.
#[derive(Clone, Default)]
pub struct Obs {
    recorder: Option<Arc<dyn Recorder>>,
}

impl Obs {
    /// The disabled handle. All operations are no-ops.
    #[must_use]
    pub fn off() -> Self {
        Self { recorder: None }
    }

    /// A handle backed by `recorder`.
    #[must_use]
    pub fn on(recorder: Arc<dyn Recorder>) -> Self {
        Self {
            recorder: Some(recorder),
        }
    }

    /// Whether a recorder is attached. Call sites that would have to
    /// *format* a metric name should gate on this so the disabled
    /// path stays allocation-free.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Adds `delta` to counter `name`.
    #[inline]
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(r) = &self.recorder {
            r.counter_add(name, delta);
        }
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn incr(&self, name: &str) {
        self.count(name, 1);
    }

    /// Sets gauge `name` to `value`.
    #[inline]
    pub fn gauge(&self, name: &str, value: i64) {
        if let Some(r) = &self.recorder {
            r.gauge_set(name, value);
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn record(&self, name: &str, value: u64) {
        if let Some(r) = &self.recorder {
            r.record(name, value);
        }
    }

    /// Appends a trace event.
    #[inline]
    pub fn event(&self, name: &str, kind: EventKind, value: u64) {
        if let Some(r) = &self.recorder {
            r.event(name, kind, value);
        }
    }

    /// Appends a point event.
    #[inline]
    pub fn mark(&self, name: &str, value: u64) {
        self.event(name, EventKind::Mark, value);
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() {
            "Obs(on)"
        } else {
            "Obs(off)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Log(Mutex<Vec<String>>);

    impl Recorder for Log {
        fn counter_add(&self, name: &str, delta: u64) {
            self.0.lock().unwrap().push(format!("c {name} {delta}"));
        }
        fn gauge_set(&self, name: &str, value: i64) {
            self.0.lock().unwrap().push(format!("g {name} {value}"));
        }
        fn record(&self, name: &str, value: u64) {
            self.0.lock().unwrap().push(format!("h {name} {value}"));
        }
        fn event(&self, name: &str, kind: EventKind, value: u64) {
            self.0
                .lock()
                .unwrap()
                .push(format!("e {name} {} {value}", kind.name()));
        }
    }

    #[test]
    fn off_handle_is_inert() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        obs.count("x", 1);
        obs.gauge("x", -1);
        obs.record("x", 2);
        obs.mark("x", 3);
        assert_eq!(format!("{obs:?}"), "Obs(off)");
    }

    #[test]
    fn on_handle_forwards_every_call() {
        let log = Arc::new(Log::default());
        let obs = Obs::on(log.clone());
        assert!(obs.enabled());
        obs.incr("a");
        obs.count("a", 4);
        obs.gauge("b", -7);
        obs.record("c", 99);
        obs.event("d", EventKind::SpanEnd, 5);
        assert_eq!(
            *log.0.lock().unwrap(),
            vec!["c a 1", "c a 4", "g b -7", "h c 99", "e d end 5"]
        );
        assert_eq!(format!("{obs:?}"), "Obs(on)");
    }
}
