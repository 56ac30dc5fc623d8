//! The Load Buffer (LB) — first level of every predictor in this crate
//! (§3.1, §3.7).
//!
//! A set-associative, LRU-replaced table indexed by the static load IP.
//! In the hybrid predictor the LB is *shared*: one entry carries the CAP
//! fields (offset LSBs, address history, CAP confidence), the enhanced
//! stride fields (last address, stride, state, interval), and the hybrid
//! selector counter, exactly as Figure 4 draws it.
//!
//! Like the hardware table, the LB is one contiguous array of ways in
//! set-major order: way `w` of set `s` lives at index `s · assoc + w`.
//! The set mask is computed once, when the table is built or restored,
//! and every entry keeps its histories inline, so a lookup, a fill or an
//! eviction never touches the heap.

use crate::confidence::{ControlFlowIndication, SaturatingCounter};
use crate::history::HistoryBuffer;

/// Stride-component state machine (the "state bits" of §3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrideState {
    /// Only one address seen; no stride yet.
    #[default]
    Init,
    /// A candidate stride observed once.
    Transient,
    /// The same stride observed twice or more.
    Steady,
}

/// Interval tracking for the enhanced stride predictor (§5.2): learn the
/// array length (number of consecutive correct predictions before the
/// wrap) and stop speculating once the current run reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalCounter {
    /// Learned interval (0 = nothing learned yet).
    pub learned: u32,
    /// Correct predictions in the current run.
    pub run: u32,
}

impl IntervalCounter {
    /// Minimum run length considered a real array traversal; shorter runs
    /// don't overwrite the learned interval.
    const MIN_INTERVAL: u32 = 4;

    /// Records a correct stride prediction.
    pub fn on_correct(&mut self) {
        self.run = self.run.saturating_add(1);
    }

    /// Records a stride misprediction, learning the run length as the
    /// interval when it looks like an array wrap.
    pub fn on_incorrect(&mut self) {
        if self.run >= Self::MIN_INTERVAL {
            self.learned = self.run;
        }
        self.run = 0;
    }

    /// True when speculation should be withheld because the current run
    /// (plus any in-flight predictions) has reached the learned interval.
    /// `run` saturates at `u32::MAX`, so the sum saturates too.
    #[must_use]
    pub fn exhausted(&self, pending: u32) -> bool {
        self.learned > 0 && self.run.saturating_add(pending) >= self.learned
    }
}

/// One Load Buffer entry (Figure 4's field layout).
#[derive(Debug, Clone)]
pub struct LbEntry {
    /// IP tag.
    pub tag: u64,
    // --- CAP fields ---
    /// Architectural history of recent (base) addresses.
    pub history: HistoryBuffer,
    /// Speculative history rolled forward at predict time (pipelined mode).
    pub spec_history: HistoryBuffer,
    /// The recorded LSBs of the load's immediate offset (§3.3).
    pub offset_lsb: u32,
    /// CAP confidence counter.
    pub cap_conf: SaturatingCounter,
    /// CAP control-flow indication state.
    pub cap_cfi: ControlFlowIndication,
    // --- stride fields ---
    /// True once at least one address has been observed (so `last_addr` is
    /// meaningful).
    pub stride_seen: bool,
    /// Last resolved address.
    pub last_addr: u64,
    /// Current stride delta.
    pub stride: i64,
    /// Stride state machine.
    pub stride_state: StrideState,
    /// Stride confidence counter.
    pub stride_conf: SaturatingCounter,
    /// Stride control-flow indication state.
    pub stride_cfi: ControlFlowIndication,
    /// Interval (array-length) tracking.
    pub interval: IntervalCounter,
    // --- hybrid fields ---
    /// 2-bit selector: 0–1 choose stride, 2–3 choose CAP. Initialised to 2
    /// ("weak CAP"), per §4.2.
    pub selector: u8,
    /// LRU timestamp.
    pub lru: u64,
}

impl LbEntry {
    fn new(tag: u64, proto: &LbEntryProto, lru: u64) -> Self {
        Self {
            tag,
            history: HistoryBuffer::new(),
            spec_history: HistoryBuffer::new(),
            offset_lsb: 0,
            cap_conf: proto.cap_conf,
            cap_cfi: ControlFlowIndication::new(),
            stride_seen: false,
            last_addr: 0,
            stride: 0,
            stride_state: StrideState::Init,
            stride_conf: proto.stride_conf,
            stride_cfi: ControlFlowIndication::new(),
            interval: IntervalCounter::default(),
            selector: 2,
            lru,
        }
    }
}

/// Prototype counters cloned into fresh entries.
#[derive(Debug, Clone, Copy)]
pub struct LbEntryProto {
    /// Initial CAP confidence counter (cold).
    pub cap_conf: SaturatingCounter,
    /// Initial stride confidence counter (cold).
    pub stride_conf: SaturatingCounter,
}

/// Configuration of a [`LoadBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadBufferConfig {
    /// Total entries (power of two).
    pub entries: usize,
    /// Associativity.
    pub assoc: usize,
}

impl LoadBufferConfig {
    /// The paper's baseline: 4K entries, 2-way set associative.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            entries: 4096,
            assoc: 2,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.entries / self.assoc
    }

    fn validate(&self) {
        assert!(
            self.entries.is_power_of_two(),
            "LB entries must be a power of two"
        );
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.entries.is_multiple_of(self.assoc)
                && (self.entries / self.assoc).is_power_of_two(),
            "LB sets must be a power of two"
        );
    }
}

/// The Load Buffer.
#[derive(Debug, Clone)]
pub struct LoadBuffer {
    config: LoadBufferConfig,
    proto: LbEntryProto,
    /// Every way of every set, set-major.
    ways: Vec<Option<LbEntry>>,
    /// `sets - 1`: selects a set from the shifted IP.
    set_mask: usize,
    tick: u64,
}

impl LoadBuffer {
    /// Creates an empty Load Buffer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: LoadBufferConfig, proto: LbEntryProto) -> Self {
        config.validate();
        Self {
            ways: vec![None; config.entries],
            set_mask: config.sets() - 1,
            config,
            proto,
            tick: 0,
        }
    }

    /// The buffer's configuration.
    #[must_use]
    pub fn config(&self) -> &LoadBufferConfig {
        &self.config
    }

    /// The ways of the set `ip` maps to, as a range of `ways`.
    fn set_range(&self, ip: u64) -> std::ops::Range<usize> {
        // Drop the 2 alignment bits of the IP before indexing.
        let first = (((ip >> 2) as usize) & self.set_mask) * self.config.assoc;
        first..first + self.config.assoc
    }

    /// Looks up the entry for `ip` without allocating; refreshes LRU on hit.
    ///
    /// The tick advances on *hits only*: a miss observes the table without
    /// touching it, so diagnostic probes of absent IPs (or a storm of them)
    /// cannot age unrelated entries and perturb eviction order.
    pub fn lookup(&mut self, ip: u64) -> Option<&mut LbEntry> {
        let set = self.set_range(ip);
        let entry = self.ways[set].iter_mut().flatten().find(|e| e.tag == ip)?;
        self.tick += 1;
        entry.lru = self.tick;
        Some(entry)
    }

    /// Looks up the entry for `ip` without touching LRU or tick state —
    /// a pure read for diagnostics and lookahead walks
    /// (e.g. [`crate::cap::CapPredictor::predict_ahead`]).
    #[must_use]
    pub fn peek(&self, ip: u64) -> Option<&LbEntry> {
        self.ways[self.set_range(ip)]
            .iter()
            .flatten()
            .find(|e| e.tag == ip)
    }

    /// Looks up the entry for `ip`, allocating (and possibly evicting LRU)
    /// on miss. Returns the entry and whether it was freshly allocated.
    pub fn lookup_or_insert(&mut self, ip: u64) -> (&mut LbEntry, bool) {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(ip);
        let set = &mut self.ways[range];
        let hit_way = set
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.tag == ip));
        let (entry, fresh) = match hit_way {
            Some(way) => (
                set[way].get_or_insert_with(|| LbEntry::new(ip, &self.proto, tick)),
                false,
            ),
            None => {
                // Prefer an empty way, else evict the LRU one. `fold`
                // defaults to way 0, so a (config-impossible) empty set
                // cannot make this panic.
                let way = set.iter().position(Option::is_none).unwrap_or_else(|| {
                    set.iter()
                        .enumerate()
                        .fold((0usize, u64::MAX), |best, (i, e)| {
                            let lru = e.as_ref().map_or(0, |e| e.lru);
                            if lru < best.1 {
                                (i, lru)
                            } else {
                                best
                            }
                        })
                        .0
                });
                // The new entry overwrites the victim in place.
                (set[way].insert(LbEntry::new(ip, &self.proto, tick)), true)
            }
        };
        entry.lru = tick;
        (entry, fresh)
    }

    /// Number of live entries (diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.ways.iter().flatten().count()
    }

    /// Iterates over live entries (diagnostics, invariant checking).
    pub fn entries(&self) -> impl Iterator<Item = &LbEntry> {
        self.ways.iter().flatten()
    }

    /// Mutably iterates over live entries. This is the fault-injection
    /// surface: a chaos harness may corrupt any entry field through it.
    /// The LB itself stays structurally sound under arbitrary field edits —
    /// set geometry is untouched and lookups tolerate stale tags (a
    /// corrupted tag simply behaves like an evicted/aliased entry).
    pub fn entries_mut(&mut self) -> impl Iterator<Item = &mut LbEntry> {
        self.ways.iter_mut().flatten()
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for StrideState {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u8(match self {
            StrideState::Init => 0,
            StrideState::Transient => 1,
            StrideState::Steady => 2,
        });
    }
}

impl Restorable for StrideState {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8("stride state tag")? {
            0 => Ok(StrideState::Init),
            1 => Ok(StrideState::Transient),
            2 => Ok(StrideState::Steady),
            tag => Err(r.bad_value(format!("unknown stride state tag {tag}"))),
        }
    }
}

impl Snapshot for IntervalCounter {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u32(self.learned);
        w.put_u32(self.run);
    }
}

impl Restorable for IntervalCounter {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            learned: r.take_u32("interval learned")?,
            run: r.take_u32("interval run")?,
        })
    }
}

impl Snapshot for LbEntry {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u64(self.tag);
        self.history.write_state(w);
        self.spec_history.write_state(w);
        w.put_u32(self.offset_lsb);
        self.cap_conf.write_state(w);
        self.cap_cfi.write_state(w);
        w.put_bool(self.stride_seen);
        w.put_u64(self.last_addr);
        w.put_i64(self.stride);
        self.stride_state.write_state(w);
        self.stride_conf.write_state(w);
        self.stride_cfi.write_state(w);
        self.interval.write_state(w);
        w.put_u8(self.selector);
        w.put_u64(self.lru);
    }
}

impl Restorable for LbEntry {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let entry = Self {
            tag: r.take_u64("lb entry tag")?,
            history: HistoryBuffer::read_state(r)?,
            spec_history: HistoryBuffer::read_state(r)?,
            offset_lsb: r.take_u32("lb offset lsb")?,
            cap_conf: SaturatingCounter::read_state(r)?,
            cap_cfi: ControlFlowIndication::read_state(r)?,
            stride_seen: r.take_bool("lb stride seen")?,
            last_addr: r.take_u64("lb last addr")?,
            stride: r.take_i64("lb stride")?,
            stride_state: StrideState::read_state(r)?,
            stride_conf: SaturatingCounter::read_state(r)?,
            stride_cfi: ControlFlowIndication::read_state(r)?,
            interval: IntervalCounter::read_state(r)?,
            selector: r.take_u8("lb selector")?,
            lru: r.take_u64("lb lru")?,
        };
        if entry.selector > 3 {
            return Err(r.bad_value(format!(
                "lb selector {} above 3 (2-bit counter)",
                entry.selector
            )));
        }
        Ok(entry)
    }
}

impl Snapshot for LoadBufferConfig {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_len(self.entries);
        w.put_len(self.assoc);
    }
}

impl Restorable for LoadBufferConfig {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let entries = r.take_u64("lb entries")?;
        let assoc = r.take_u64("lb associativity")?;
        // Mirror LoadBufferConfig::validate without its panics, with a
        // ceiling so hostile configs can't demand unbounded allocation.
        if !entries.is_power_of_two() || entries > 1 << 24 {
            return Err(r.bad_value(format!("lb entries {entries} not a power of two <= 2^24")));
        }
        if assoc == 0
            || assoc > entries
            || entries % assoc != 0
            || !(entries / assoc).is_power_of_two()
        {
            return Err(r.bad_value(format!(
                "lb associativity {assoc} incompatible with {entries} entries"
            )));
        }
        Ok(Self {
            entries: entries as usize,
            assoc: assoc as usize,
        })
    }
}

impl Snapshot for LoadBuffer {
    fn write_state(&self, w: &mut SectionWriter) {
        self.config.write_state(w);
        self.proto.cap_conf.write_state(w);
        self.proto.stride_conf.write_state(w);
        w.put_u64(self.tick);
        for way in &self.ways {
            match way {
                Some(entry) => {
                    w.put_bool(true);
                    entry.write_state(w);
                }
                None => w.put_bool(false),
            }
        }
    }
}

impl Restorable for LoadBuffer {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let config = LoadBufferConfig::read_state(r)?;
        let proto = LbEntryProto {
            cap_conf: SaturatingCounter::read_state(r)?,
            stride_conf: SaturatingCounter::read_state(r)?,
        };
        let tick = r.take_u64("lb tick")?;
        // Every way takes at least its presence byte, so the remaining
        // bytes bound what a hostile entry count can make us reserve.
        let mut ways = Vec::with_capacity(config.entries.min(r.remaining()));
        for _ in 0..config.entries {
            ways.push(if r.take_bool("lb way presence")? {
                Some(LbEntry::read_state(r)?)
            } else {
                None
            });
        }
        Ok(Self {
            set_mask: config.sets() - 1,
            config,
            proto,
            ways,
            tick,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> LbEntryProto {
        LbEntryProto {
            cap_conf: SaturatingCounter::new(2, 3, false),
            stride_conf: SaturatingCounter::new(2, 3, false),
        }
    }

    fn lb(entries: usize, assoc: usize) -> LoadBuffer {
        LoadBuffer::new(LoadBufferConfig { entries, assoc }, proto())
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut b = lb(16, 2);
        assert!(b.lookup(0x100).is_none());
        let (_, fresh) = b.lookup_or_insert(0x100);
        assert!(fresh);
        assert!(b.lookup(0x100).is_some());
        let (_, fresh2) = b.lookup_or_insert(0x100);
        assert!(!fresh2);
    }

    #[test]
    fn new_entries_start_cold_and_weak_cap() {
        let mut b = lb(16, 2);
        let (e, _) = b.lookup_or_insert(0x40);
        assert_eq!(e.selector, 2, "selector initialised to weak CAP (§4.2)");
        assert!(!e.cap_conf.is_confident());
        assert!(!e.stride_conf.is_confident());
        assert_eq!(e.stride_state, StrideState::Init);
        assert!(e.history.is_empty());
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut b = lb(2, 2); // 1 set, 2 ways
        b.lookup_or_insert(0x100);
        b.lookup_or_insert(0x200);
        // Touch 0x100 so 0x200 becomes LRU.
        b.lookup(0x100);
        b.lookup_or_insert(0x300);
        assert!(b.lookup(0x100).is_some());
        assert!(b.lookup(0x200).is_none(), "LRU way evicted");
        assert!(b.lookup(0x300).is_some());
    }

    #[test]
    fn miss_probe_storm_leaves_eviction_order_unchanged() {
        // Regression: `lookup` used to bump the tick on misses, so a storm
        // of probes for absent IPs aged resident entries and could flip
        // which way a later insert evicted.
        let mut b = lb(2, 2); // 1 set, 2 ways
        b.lookup_or_insert(0x100);
        b.lookup_or_insert(0x200);
        // 0x100 is now LRU. Probe a storm of IPs that are not resident
        // (same set — (ip >> 2) & 0 == 0 for every ip — so the probes
        // actually walk this set's ways).
        for i in 0..10_000u64 {
            assert!(b.lookup(0x1000 + i * 4).is_none());
        }
        // The insert must still evict 0x100, exactly as if the storm
        // never happened.
        b.lookup_or_insert(0x300);
        assert!(b.lookup(0x100).is_none(), "oldest entry still the victim");
        assert!(b.lookup(0x200).is_some());
        assert!(b.lookup(0x300).is_some());
    }

    #[test]
    fn miss_probes_do_not_advance_tick() {
        let mut b = lb(16, 2);
        b.lookup_or_insert(0x100);
        let tick_before = b.tick;
        for i in 0..1000u64 {
            let _ = b.lookup(0x9000 + i * 4);
        }
        assert_eq!(b.tick, tick_before, "misses must not age the table");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut b = lb(16, 1);
        // ips differ in set index bits (ip >> 2).
        b.lookup_or_insert(0 << 2);
        b.lookup_or_insert(1 << 2);
        assert!(b.lookup(0).is_some());
        assert!(b.lookup(4).is_some());
        assert_eq!(b.occupancy(), 2);
    }

    #[test]
    fn same_set_direct_mapped_conflicts() {
        let mut b = lb(16, 1); // 16 sets
        let a = 0u64;
        let conflicting = 16 << 2; // same (ip>>2) & 15
        b.lookup_or_insert(a);
        b.lookup_or_insert(conflicting);
        assert!(b.lookup(a).is_none(), "direct-mapped conflict evicts");
        assert!(b.lookup(conflicting).is_some());
    }

    #[test]
    fn interval_learns_array_length() {
        let mut iv = IntervalCounter::default();
        for _ in 0..10 {
            iv.on_correct();
        }
        iv.on_incorrect();
        assert_eq!(iv.learned, 10);
        assert_eq!(iv.run, 0);
        // After 9 correct in the new run, one more would be the wrap.
        for _ in 0..9 {
            iv.on_correct();
        }
        assert!(!iv.exhausted(0));
        iv.on_correct();
        assert!(iv.exhausted(0), "run reached learned interval");
    }

    #[test]
    fn interval_accounts_for_pending_predictions() {
        let mut iv = IntervalCounter::default();
        for _ in 0..8 {
            iv.on_correct();
        }
        iv.on_incorrect();
        for _ in 0..5 {
            iv.on_correct();
        }
        assert!(!iv.exhausted(2));
        assert!(iv.exhausted(3), "5 done + 3 pending = 8 = interval");
    }

    #[test]
    fn saturated_run_stays_exhausted_with_pending_predictions() {
        // `run` saturates at u32::MAX; adding in-flight predictions used
        // to overflow (a wrap to "not exhausted" in release).
        let iv = IntervalCounter {
            learned: 5,
            run: u32::MAX,
        };
        for pending in [0, 1, 8, u32::MAX] {
            assert!(iv.exhausted(pending), "pending {pending}");
        }
    }

    #[test]
    fn eviction_overwrites_every_field_of_the_victim() {
        let mut b = lb(1, 1); // 1 set, 1 way
        let (e, _) = b.lookup_or_insert(0x100);
        e.selector = 0;
        e.stride_seen = true;
        e.interval.run = 7;
        let (e, fresh) = b.lookup_or_insert(0x200);
        assert!(fresh);
        assert_eq!(e.tag, 0x200);
        assert_eq!(e.selector, 2);
        assert!(!e.stride_seen);
        assert_eq!(e.interval, IntervalCounter::default());
        assert!(e.history.is_empty() && e.spec_history.is_empty());
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn ways_are_stored_set_major() {
        // 4 sets. Fill set 1 (ip >> 2 == 1), then set 0: the set-major
        // walk still lists set 0 first.
        let mut b = lb(8, 2);
        b.lookup_or_insert(1 << 2);
        b.lookup_or_insert(0);
        b.lookup_or_insert(5 << 2); // set 1, second way
        let tags: Vec<u64> = b.entries().map(|e| e.tag).collect();
        assert_eq!(tags, vec![0, 1 << 2, 5 << 2]);
    }

    #[test]
    fn restore_of_a_truncated_way_array_fails() {
        // A hostile archive may claim 2^24 entries and then stop.
        let mut w = SectionWriter::new();
        LoadBufferConfig {
            entries: 1 << 24,
            assoc: 2,
        }
        .write_state(&mut w);
        proto().cap_conf.write_state(&mut w);
        proto().stride_conf.write_state(&mut w);
        w.put_u64(0);
        w.put_bool(false);
        assert!(LoadBuffer::from_payload(&w.into_bytes(), "lb").is_err());
    }

    #[test]
    fn short_runs_do_not_learn_interval() {
        let mut iv = IntervalCounter::default();
        iv.on_correct();
        iv.on_correct();
        iv.on_incorrect();
        assert_eq!(iv.learned, 0, "runs below MIN_INTERVAL are noise");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_config_rejected() {
        let _ = lb(24, 2);
    }
}
