//! The standard in-process metric registry.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::histogram::Histogram;
use crate::recorder::{Obs, Recorder};
use crate::snapshot::StatsSnapshot;
use crate::trace::{EventKind, TraceEvent};

/// Default capacity of the trace-event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    events: VecDeque<TraceEvent>,
    event_capacity: usize,
    next_seq: u64,
    dropped_events: u64,
}

/// A thread-safe registry of counters, gauges, histograms, and a
/// bounded trace-event ring. Implements [`Recorder`], so an [`Obs`]
/// handle can point at it directly.
///
/// Metric maps are `BTreeMap`s: snapshots come out in sorted name
/// order regardless of which thread recorded first, which is what
/// makes the golden-file exports stable.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with the default trace-ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A registry whose trace ring keeps the last `capacity` events
    /// (older events are dropped and counted, not silently lost).
    #[must_use]
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
                events: VecDeque::with_capacity(capacity.min(4096)),
                event_capacity: capacity,
                next_seq: 0,
                dropped_events: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry still holds structurally valid metrics —
        // telemetry must never take the process down with it.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An [`Obs`] handle backed by this registry.
    #[must_use]
    pub fn obs(self: &Arc<Self>) -> Obs {
        Obs::on(self.clone() as Arc<dyn Recorder>)
    }

    /// Current value of a counter, if it has been touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.lock().counters.get(name).copied()
    }

    /// Current value of a gauge, if it has been set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.lock().gauges.get(name).copied()
    }

    /// A copy of a histogram, if it has observations.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// An ordered, self-contained snapshot of everything recorded.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let inner = self.lock();
        StatsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            events: inner.events.iter().cloned().collect(),
            dropped_events: inner.dropped_events,
        }
    }
}

impl Recorder for Registry {
    fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                inner.counters.insert(name.to_owned(), delta);
            }
        }
    }

    fn gauge_set(&self, name: &str, value: i64) {
        let mut inner = self.lock();
        match inner.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                inner.gauges.insert(name.to_owned(), value);
            }
        }
    }

    fn record(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                inner.histograms.insert(name.to_owned(), h);
            }
        }
    }

    fn event(&self, name: &str, kind: EventKind, value: u64) {
        let mut inner = self.lock();
        if inner.event_capacity == 0 {
            inner.dropped_events += 1;
            return;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == inner.event_capacity {
            inner.events.pop_front();
            inner.dropped_events += 1;
        }
        inner.events.push_back(TraceEvent {
            seq,
            name: name.to_owned(),
            kind,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter("a"), Some(5));
        r.counter_add("a", u64::MAX);
        assert_eq!(r.counter("a"), Some(u64::MAX));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        r.gauge_set("g", 10);
        r.gauge_set("g", -4);
        assert_eq!(r.gauge("g"), Some(-4));
    }

    #[test]
    fn histograms_record() {
        let r = Registry::new();
        r.record("h", 100);
        r.record("h", 200);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 300);
    }

    #[test]
    fn event_ring_drops_oldest_and_counts() {
        let r = Registry::with_event_capacity(2);
        r.event("e", EventKind::Mark, 0);
        r.event("e", EventKind::Mark, 1);
        r.event("e", EventKind::Mark, 2);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].seq, 1);
        assert_eq!(snap.events[1].seq, 2);
        assert_eq!(snap.dropped_events, 1);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let r = Registry::with_event_capacity(0);
        r.event("e", EventKind::Mark, 0);
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped_events, 1);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 1);
        r.counter_add("mid", 1);
        let names: Vec<_> = r
            .snapshot()
            .counters
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn obs_handle_reaches_the_registry() {
        let r = Arc::new(Registry::new());
        let obs = r.obs();
        obs.incr("via.handle");
        assert_eq!(r.counter("via.handle"), Some(1));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let obs = r.obs();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    obs.incr("threads.total");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("threads.total"), Some(4000));
    }
}
