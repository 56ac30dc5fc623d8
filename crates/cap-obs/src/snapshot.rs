//! The export form of a registry, with its own binary codec.
//!
//! `cap-obs` sits at the bottom of the workspace dependency graph (so
//! every other crate can classify errors through it), which means it
//! cannot reuse `cap-snapshot`'s section codec. The wire format here
//! is deliberately tiny: magic, version, then length-prefixed tables,
//! everything little-endian. Decoding never panics on hostile bytes —
//! every failure is a structured [`ObsDecodeError`].

use std::fmt;
use std::fmt::Write as _;

use crate::error::{Classify, ErrorClass};
use crate::histogram::HistogramSnapshot;
use crate::trace::{EventKind, TraceEvent};

/// Magic prefix of an encoded snapshot.
pub const MAGIC: &[u8; 4] = b"CAPO";
/// Current wire version.
pub const VERSION: u16 = 1;
/// Upper bound on any table length accepted by the decoder; hostile
/// length fields must not drive allocation.
const MAX_TABLE_LEN: u32 = 1 << 20;
/// Upper bound on an encoded name.
const MAX_NAME_LEN: u16 = 4096;

/// An ordered, self-contained view of everything a registry recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// The trace ring's surviving events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring (or refused by a zero-capacity
    /// ring) since the registry was created.
    pub dropped_events: u64,
}

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsDecodeError {
    /// The bytes ran out while reading the named field.
    Truncated {
        /// Field being read when the input ended.
        what: &'static str,
    },
    /// The magic prefix did not match.
    BadMagic,
    /// The version is not one this decoder speaks.
    VersionSkew {
        /// Version found in the input.
        found: u16,
    },
    /// A field held a structurally invalid value.
    BadValue {
        /// Description of the offending field.
        what: String,
    },
}

impl fmt::Display for ObsDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { what } => write!(f, "stats snapshot truncated reading {what}"),
            Self::BadMagic => write!(f, "stats snapshot has wrong magic"),
            Self::VersionSkew { found } => {
                write!(
                    f,
                    "stats snapshot version {found}, decoder speaks {VERSION}"
                )
            }
            Self::BadValue { what } => write!(f, "stats snapshot bad value: {what}"),
        }
    }
}

impl std::error::Error for ObsDecodeError {}

impl Classify for ObsDecodeError {
    fn error_class(&self) -> ErrorClass {
        ErrorClass::Corrupt
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ObsDecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ObsDecodeError::Truncated { what })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self, what: &'static str) -> Result<u8, ObsDecodeError> {
        Ok(self.take(1, what)?[0])
    }

    fn take_u16(&mut self, what: &'static str) -> Result<u16, ObsDecodeError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn take_u32(&mut self, what: &'static str) -> Result<u32, ObsDecodeError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn take_u64(&mut self, what: &'static str) -> Result<u64, ObsDecodeError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn take_len(&mut self, what: &'static str) -> Result<usize, ObsDecodeError> {
        let len = self.take_u32(what)?;
        if len > MAX_TABLE_LEN {
            return Err(ObsDecodeError::BadValue {
                what: format!("{what} length {len} exceeds cap {MAX_TABLE_LEN}"),
            });
        }
        Ok(len as usize)
    }

    fn take_name(&mut self, what: &'static str) -> Result<String, ObsDecodeError> {
        let len = self.take_u16(what)?;
        if len > MAX_NAME_LEN {
            return Err(ObsDecodeError::BadValue {
                what: format!("{what} name length {len} exceeds cap {MAX_NAME_LEN}"),
            });
        }
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ObsDecodeError::BadValue {
            what: format!("{what} name is not UTF-8"),
        })
    }
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    let len = name.len().min(MAX_NAME_LEN as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&name.as_bytes()[..len]);
}

impl StatsSnapshot {
    /// Encodes the snapshot into the `CAPO` wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, value) in &self.counters {
            put_name(&mut out, name);
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (name, value) in &self.gauges {
            put_name(&mut out, name);
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for (name, h) in &self.histograms {
            put_name(&mut out, name);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&h.min.to_le_bytes());
            out.extend_from_slice(&h.max.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u16).to_le_bytes());
            for &(bucket, n) in &h.buckets {
                out.push(bucket);
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for event in &self.events {
            out.extend_from_slice(&event.seq.to_le_bytes());
            put_name(&mut out, &event.name);
            out.push(event.kind.code());
            out.extend_from_slice(&event.value.to_le_bytes());
        }
        out.extend_from_slice(&self.dropped_events.to_le_bytes());
        out
    }

    /// Decodes a snapshot. Safe on arbitrary bytes: every failure is a
    /// structured error, never a panic or unbounded allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, ObsDecodeError> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(4, "magic")? != MAGIC {
            return Err(ObsDecodeError::BadMagic);
        }
        let version = c.take_u16("version")?;
        if version != VERSION {
            return Err(ObsDecodeError::VersionSkew { found: version });
        }

        let n = c.take_len("counter table")?;
        let mut counters = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = c.take_name("counter")?;
            let value = c.take_u64("counter value")?;
            counters.push((name, value));
        }

        let n = c.take_len("gauge table")?;
        let mut gauges = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = c.take_name("gauge")?;
            let value = c.take_u64("gauge value")? as i64;
            gauges.push((name, value));
        }

        let n = c.take_len("histogram table")?;
        let mut histograms = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = c.take_name("histogram")?;
            let count = c.take_u64("histogram count")?;
            let sum = c.take_u64("histogram sum")?;
            let min = c.take_u64("histogram min")?;
            let max = c.take_u64("histogram max")?;
            let buckets_len = c.take_u16("histogram bucket table")?;
            let mut buckets =
                Vec::with_capacity(usize::from(buckets_len).min(crate::histogram::BUCKETS));
            for _ in 0..buckets_len {
                let bucket = c.take_u8("bucket index")?;
                let count = c.take_u64("bucket count")?;
                buckets.push((bucket, count));
            }
            histograms.push((
                name,
                HistogramSnapshot {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                },
            ));
        }

        let n = c.take_len("event table")?;
        let mut events = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let seq = c.take_u64("event seq")?;
            let name = c.take_name("event")?;
            let code = c.take_u8("event kind")?;
            let kind = EventKind::from_code(code).ok_or_else(|| ObsDecodeError::BadValue {
                what: format!("event kind code {code}"),
            })?;
            let value = c.take_u64("event value")?;
            events.push(TraceEvent {
                seq,
                name,
                kind,
                value,
            });
        }

        let dropped_events = c.take_u64("dropped events")?;
        if c.pos != bytes.len() {
            return Err(ObsDecodeError::BadValue {
                what: format!("{} trailing bytes after snapshot", bytes.len() - c.pos),
            });
        }
        Ok(Self {
            counters,
            gauges,
            histograms,
            events,
            dropped_events,
        })
    }

    /// Merges another snapshot into this one: counters and gauges sum
    /// by name, histograms merge bucket-wise, trace events interleave
    /// by sequence number, and drop counts add. This is the fleet
    /// aggregation primitive — a cluster router merges every node's
    /// snapshot into one dashboard view. Merging is commutative up to
    /// event ordering ties, and name tables stay sorted, so a merged
    /// snapshot re-encodes canonically.
    pub fn merge(&mut self, other: &Self) {
        fn merge_sums<V: Copy>(
            dst: &mut Vec<(String, V)>,
            src: &[(String, V)],
            add: impl Fn(V, V) -> V,
        ) {
            for (name, value) in src {
                match dst.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                    Ok(i) => dst[i].1 = add(dst[i].1, *value),
                    Err(i) => dst.insert(i, (name.clone(), *value)),
                }
            }
        }
        merge_sums(&mut self.counters, &other.counters, u64::saturating_add);
        merge_sums(&mut self.gauges, &other.gauges, i64::saturating_add);
        for (name, theirs) in &other.histograms {
            match self
                .histograms
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
            {
                Ok(i) => {
                    let mut dense = self.histograms[i].1.to_histogram();
                    dense.merge(&theirs.to_histogram());
                    self.histograms[i].1 = dense.snapshot();
                }
                Err(i) => self.histograms.insert(i, (name.clone(), theirs.clone())),
            }
        }
        // Sequence numbers are per-registry, so cross-node ordering is
        // only approximate — good enough for a dashboard's "recent
        // events" pane, which is all the ring feeds.
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.seq);
        self.dropped_events = self.dropped_events.saturating_add(other.dropped_events);
    }

    /// Value of a counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.dropped_events == 0
    }

    /// A `top`-style text rendering: sorted tables of counters,
    /// gauges, and histogram quantiles, then the newest trace events.
    #[must_use]
    pub fn render_top(&self, max_events: usize) -> String {
        let mut out = String::new();
        let name_width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(out, "== counters ({}) ==", self.counters.len());
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<name_width$}  {value:>12}");
        }
        let _ = writeln!(out, "== gauges ({}) ==", self.gauges.len());
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "  {name:<name_width$}  {value:>12}");
        }
        let _ = writeln!(out, "== histograms ({}) ==", self.histograms.len());
        let _ = writeln!(
            out,
            "  {:<name_width$}  {:>10} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name:<name_width$}  {:>10} {:>10} {:>10} {:>10} {:>10}",
                h.count,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            );
        }
        let shown = self.events.len().min(max_events);
        let _ = writeln!(
            out,
            "== events (last {shown} of {}, {} dropped) ==",
            self.events.len(),
            self.dropped_events
        );
        for event in self.events.iter().rev().take(max_events).rev() {
            let _ = writeln!(
                out,
                "  #{:<8} {:<6} {}  {}",
                event.seq,
                event.kind.name(),
                event.name,
                event.value
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsSnapshot {
        StatsSnapshot {
            counters: vec![("a.hits".into(), 12), ("a.misses".into(), 3)],
            gauges: vec![("occupancy".into(), -5)],
            histograms: vec![(
                "lat".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 300,
                    min: 50,
                    max: 200,
                    buckets: vec![(6, 1), (7, 1), (8, 1)],
                },
            )],
            events: vec![TraceEvent {
                seq: 9,
                name: "breaker.open".into(),
                kind: EventKind::Mark,
                value: 1,
            }],
            dropped_events: 4,
        }
    }

    #[test]
    fn merge_sums_tables_and_interleaves_events() {
        let mut a = sample();
        let b = StatsSnapshot {
            counters: vec![("a.misses".into(), 7), ("b.new".into(), 1)],
            gauges: vec![("occupancy".into(), 8), ("queue".into(), 2)],
            histograms: vec![
                (
                    "lat".into(),
                    HistogramSnapshot {
                        count: 2,
                        sum: 500,
                        min: 40,
                        max: 460,
                        buckets: vec![(6, 1), (9, 1)],
                    },
                ),
                (
                    "other".into(),
                    HistogramSnapshot {
                        count: 1,
                        sum: 10,
                        min: 10,
                        max: 10,
                        buckets: vec![(4, 1)],
                    },
                ),
            ],
            events: vec![TraceEvent {
                seq: 2,
                name: "early".into(),
                kind: EventKind::Mark,
                value: 0,
            }],
            dropped_events: 1,
        };
        a.merge(&b);
        assert_eq!(a.counter("a.hits"), Some(12));
        assert_eq!(a.counter("a.misses"), Some(10));
        assert_eq!(a.counter("b.new"), Some(1));
        assert_eq!(a.gauge("occupancy"), Some(3));
        assert_eq!(a.gauge("queue"), Some(2));
        let lat = a.histogram("lat").unwrap();
        assert_eq!(lat.count, 5);
        assert_eq!(lat.sum, 800);
        assert_eq!(lat.min, 40);
        assert_eq!(lat.max, 460);
        assert_eq!(a.histogram("other").unwrap().count, 1);
        assert_eq!(
            a.events.first().map(|e| e.seq),
            Some(2),
            "events sort by seq"
        );
        assert_eq!(a.dropped_events, 5);
        // Name tables stay sorted, so the merged snapshot re-encodes
        // and decodes canonically.
        assert_eq!(StatsSnapshot::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn merge_is_commutative_on_tables() {
        let mut ab = sample();
        ab.merge(&StatsSnapshot::default());
        let mut ba = StatsSnapshot::default();
        ba.merge(&sample());
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.gauges, ba.gauges);
        assert_eq!(ab.histograms, ba.histograms);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = snap.encode();
        assert_eq!(StatsSnapshot::decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn empty_roundtrip() {
        let snap = StatsSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(StatsSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn negative_gauges_survive_the_wire() {
        let snap = sample();
        let back = StatsSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back.gauge("occupancy"), Some(-5));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(StatsSnapshot::decode(&bytes), Err(ObsDecodeError::BadMagic));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = sample().encode();
        bytes[4] = 0xEE;
        assert!(matches!(
            StatsSnapshot::decode(&bytes),
            Err(ObsDecodeError::VersionSkew { .. })
        ));
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let result = StatsSnapshot::decode(&bytes[..cut]);
            assert!(result.is_err(), "decode of {cut}-byte prefix must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            StatsSnapshot::decode(&bytes),
            Err(ObsDecodeError::BadValue { .. })
        ));
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x41;
            let _ = StatsSnapshot::decode(&mutated); // must not panic
        }
    }

    #[test]
    fn hostile_length_field_does_not_allocate_unbounded() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            StatsSnapshot::decode(&bytes),
            Err(ObsDecodeError::BadValue { .. })
        ));
    }

    #[test]
    fn decode_error_classifies_as_corrupt() {
        assert_eq!(ObsDecodeError::BadMagic.error_class(), ErrorClass::Corrupt);
        assert!(!ObsDecodeError::BadMagic.error_class().is_retryable());
    }

    #[test]
    fn render_top_mentions_every_section() {
        let text = sample().render_top(16);
        for needle in [
            "counters",
            "gauges",
            "histograms",
            "events",
            "a.hits",
            "breaker.open",
        ] {
            assert!(
                text.contains(needle),
                "render_top missing {needle}:\n{text}"
            );
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }
}
