//! The Link Table (LT) — second level of the CAP predictor (§3.1, §3.4,
//! §3.5).
//!
//! Indexed by the folded per-load history, each entry links a context to
//! the (base) address that followed it last time. Three refinements from
//! the paper are implemented here:
//!
//! * **Tags** — extra folded-history bits stored per entry; predictions are
//!   offered only on tag match, the paper's most effective confidence
//!   mechanism (Figure 10).
//! * **Set associativity** — the paper notes low impact (§4.2); supported
//!   for the sweep experiments.
//! * **Pollution-free (PF) bits** — bits 2..=5 of the last base address
//!   that *attempted* an update; a link is replaced only when the same
//!   update is seen twice in a row, filtering irregular loads and adding
//!   hysteresis (§3.5). The PF field can also live in a larger decoupled
//!   direct-mapped table (\[Mora98\]), enabled by [`PfMode::Decoupled`].
//!
//! Like the hardware table, the LT is one contiguous array of ways in
//! set-major order: way `w` of set `s` lives at index `s · assoc + w`.
//! The set mask is computed once, when the table is built or restored.

use crate::history::FoldedHistory;

/// Pollution-filter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PfMode {
    /// No pollution filtering: every update writes the link.
    Off,
    /// PF bits stored inline in each LT entry (paper's base scheme).
    #[default]
    Inline,
    /// PF bits in a decoupled direct-mapped table with `extra_index_bits`
    /// more index bits than the LT (finer granularity, per \[Mora98\]).
    Decoupled {
        /// Additional index bits relative to the LT index.
        extra_index_bits: u32,
    },
}

/// Configuration of a [`LinkTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTableConfig {
    /// Total number of entries (must be a power of two).
    pub entries: usize,
    /// Associativity (1 = direct-mapped, as in the paper's baseline).
    pub assoc: usize,
    /// Pollution-filter mode.
    pub pf_mode: PfMode,
}

impl LinkTableConfig {
    /// The paper's baseline: 4K-entry direct-mapped, inline PF bits.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            entries: 4096,
            assoc: 1,
            pf_mode: PfMode::Inline,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.entries / self.assoc
    }

    /// Slots of the decoupled PF table (0 unless [`PfMode::Decoupled`]).
    fn decoupled_len(&self) -> usize {
        match self.pf_mode {
            PfMode::Decoupled { extra_index_bits } => self.sets() << extra_index_bits,
            _ => 0,
        }
    }

    fn validate(&self) {
        assert!(
            self.entries.is_power_of_two(),
            "LT entries must be a power of two"
        );
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.entries.is_multiple_of(self.assoc)
                && (self.entries / self.assoc).is_power_of_two(),
            "LT sets must be a power of two"
        );
    }
}

/// One Link Table entry. Fields are public for diagnostics and fault
/// injection; normal prediction flows go through [`LinkTable::lookup`] /
/// [`LinkTable::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LtEntry {
    /// Extra folded-history bits matched on lookup (§3.4).
    pub tag: u64,
    /// The linked (base) address.
    pub link: u64,
    /// Inline pollution-filter bits (bits 2..=5 of the last attempted base).
    pub pf: u8,
    /// True once `pf` has been written at least once.
    pub pf_primed: bool,
    /// LRU timestamp.
    pub lru: u64,
}

/// What one [`LinkTable::update_outcome`] attempt did to the table.
///
/// [`LinkTable::update`] collapses this to "was the link written"; the
/// full outcome distinguishes healthy training from pollution so the
/// observability layer can count them separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LtWrite {
    /// Allocated a previously empty way.
    Fill,
    /// Re-wrote a tag-matching entry whose link already held the base
    /// (steady state — the common case once warm).
    Refresh,
    /// Changed a tag-matching entry's link to a new base (retraining an
    /// existing context).
    Retrain,
    /// Evicted a live entry with a *different* tag — the replacement /
    /// pollution event the PF bits exist to suppress (§3.5).
    Replace,
    /// PF filtering deferred the write; only PF state changed.
    Deferred,
}

impl LtWrite {
    /// Whether the link was actually written.
    #[must_use]
    pub fn written(self) -> bool {
        self != Self::Deferred
    }
}

/// The Link Table.
#[derive(Debug, Clone)]
pub struct LinkTable {
    config: LinkTableConfig,
    /// Every way of every set, set-major.
    ways: Vec<Option<LtEntry>>,
    /// `sets - 1`: selects a set from the folded index.
    set_mask: usize,
    decoupled_pf: Vec<(u8, bool)>,
    tick: u64,
}

/// PF bits of a base address: bits 2..=5, per §3.5.
fn pf_bits(base: u64) -> u8 {
    ((base >> 2) & 0xF) as u8
}

impl LinkTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`LinkTableConfig`]).
    #[must_use]
    pub fn new(config: LinkTableConfig) -> Self {
        config.validate();
        Self {
            ways: vec![None; config.entries],
            set_mask: config.sets() - 1,
            decoupled_pf: vec![(0, false); config.decoupled_len()],
            config,
            tick: 0,
        }
    }

    /// The table's configuration.
    #[must_use]
    pub fn config(&self) -> &LinkTableConfig {
        &self.config
    }

    fn set_index(&self, folded: &FoldedHistory) -> usize {
        (folded.index as usize) & self.set_mask
    }

    /// The ways of set `set`, as a range of `ways`.
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let first = set * self.config.assoc;
        first..first + self.config.assoc
    }

    /// Looks up the link for a folded history. Returns the linked (base)
    /// address only on a tag match.
    #[must_use]
    pub fn lookup(&self, folded: &FoldedHistory) -> Option<u64> {
        self.ways[self.set_range(self.set_index(folded))]
            .iter()
            .flatten()
            .find(|e| e.tag == folded.tag)
            .map(|e| e.link)
    }

    /// Attempts to record `folded → base`. Returns `true` if the link was
    /// actually written (PF filtering may defer the write to the second
    /// consecutive identical attempt).
    pub fn update(&mut self, folded: &FoldedHistory, base: u64) -> bool {
        self.update_outcome(folded, base).written()
    }

    /// [`LinkTable::update`] reporting *what* the write did — the
    /// telemetry surface behind the `cap.lt.*` counters.
    pub fn update_outcome(&mut self, folded: &FoldedHistory, base: u64) -> LtWrite {
        self.tick += 1;
        let tick = self.tick;
        let new_pf = pf_bits(base);
        let set_idx = self.set_index(folded);
        let range = self.set_range(set_idx);
        let set = &mut self.ways[range];
        // The matching way, else the way we would replace. PF filtering
        // below only refreshes PF bits (or fills the way and returns), so
        // an admitted write lands in this same way.
        let way = Self::way_for(set, folded.tag);
        let admit = match self.config.pf_mode {
            PfMode::Off => true,
            PfMode::Inline => {
                // Inline PF: consult/refresh the PF bits of the entry this
                // update maps to (the victim entry if none matches).
                match &mut set[way] {
                    Some(e) => {
                        let admit = e.pf_primed && e.pf == new_pf;
                        e.pf = new_pf;
                        e.pf_primed = true;
                        // A matching tag refreshes the link unconditionally
                        // only when admitted below.
                        admit || (e.tag == folded.tag && e.link == base)
                    }
                    None => {
                        // Empty way: prime the PF bits, admit nothing yet.
                        set[way] = Some(LtEntry {
                            tag: folded.tag,
                            link: base,
                            pf: new_pf,
                            pf_primed: true,
                            lru: tick,
                        });
                        // Allocating an empty entry is not pollution — the
                        // link is live immediately.
                        return LtWrite::Fill;
                    }
                }
            }
            PfMode::Decoupled { .. } => {
                // [Mora98]'s decoupled filter is a *larger direct-mapped*
                // table: the extra index bits come from the low end of the
                // fold (the tag field), giving finer granularity without
                // aliasing unrelated contexts. Xoring the whole tag into the
                // shifted index (the previous scheme) folded distinct
                // contexts onto one PF slot.
                let idx = (set_idx | ((folded.tag as usize) << self.set_mask.count_ones()))
                    & (self.decoupled_pf.len() - 1);
                let slot = &mut self.decoupled_pf[idx];
                let admit = slot.1 && slot.0 == new_pf;
                *slot = (new_pf, true);
                admit
            }
        };
        if !admit {
            return LtWrite::Deferred;
        }
        let (pf_state, outcome) = match set[way] {
            Some(e) if e.tag == folded.tag && e.link == base => {
                ((e.pf, e.pf_primed), LtWrite::Refresh)
            }
            Some(e) if e.tag == folded.tag => ((e.pf, e.pf_primed), LtWrite::Retrain),
            Some(e) => ((e.pf, e.pf_primed), LtWrite::Replace),
            None => ((new_pf, true), LtWrite::Fill),
        };
        set[way] = Some(LtEntry {
            tag: folded.tag,
            link: base,
            pf: pf_state.0,
            pf_primed: pf_state.1,
            lru: tick,
        });
        outcome
    }

    /// Chooses the way holding `tag`, else an empty way, else the LRU way.
    fn way_for(set: &[Option<LtEntry>], tag: u64) -> usize {
        if let Some(i) = set
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.tag == tag))
        {
            return i;
        }
        if let Some(i) = set.iter().position(Option::is_none) {
            return i;
        }
        // LRU fold defaulting to way 0 — a (config-impossible) empty set
        // cannot make this panic.
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
    }

    /// Number of live entries (diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.ways.iter().flatten().count()
    }

    /// Iterates over live entries (diagnostics, invariant checking).
    pub fn entries(&self) -> impl Iterator<Item = &LtEntry> {
        self.ways.iter().flatten()
    }

    /// Mutably iterates over live entries — the fault-injection surface for
    /// links, tags and PF bits. The table stays structurally sound under
    /// arbitrary field edits: a corrupted tag behaves like a miss/alias and
    /// corrupted PF bits only change admit decisions.
    pub fn entries_mut(&mut self) -> impl Iterator<Item = &mut LtEntry> {
        self.ways.iter_mut().flatten()
    }

    /// Mutable view of the decoupled PF table (empty unless
    /// [`PfMode::Decoupled`]); each slot is `(pf_bits, primed)`.
    pub fn decoupled_pf_mut(&mut self) -> &mut [(u8, bool)] {
        &mut self.decoupled_pf
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for PfMode {
    fn write_state(&self, w: &mut SectionWriter) {
        match self {
            PfMode::Off => w.put_u8(0),
            PfMode::Inline => w.put_u8(1),
            PfMode::Decoupled { extra_index_bits } => {
                w.put_u8(2);
                w.put_u32(*extra_index_bits);
            }
        }
    }
}

impl Restorable for PfMode {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8("pf mode tag")? {
            0 => Ok(PfMode::Off),
            1 => Ok(PfMode::Inline),
            2 => {
                let extra_index_bits = r.take_u32("pf extra index bits")?;
                if extra_index_bits > 16 {
                    return Err(
                        r.bad_value(format!("pf extra index bits {extra_index_bits} above 16"))
                    );
                }
                Ok(PfMode::Decoupled { extra_index_bits })
            }
            tag => Err(r.bad_value(format!("unknown pf mode tag {tag}"))),
        }
    }
}

impl Snapshot for LinkTableConfig {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_len(self.entries);
        w.put_len(self.assoc);
        self.pf_mode.write_state(w);
    }
}

impl Restorable for LinkTableConfig {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let entries = r.take_u64("lt entries")?;
        let assoc = r.take_u64("lt associativity")?;
        let pf_mode = PfMode::read_state(r)?;
        // Mirror LinkTableConfig::validate without its panics, with a
        // ceiling so hostile configs can't demand unbounded allocation.
        if !entries.is_power_of_two() || entries > 1 << 24 {
            return Err(r.bad_value(format!("lt entries {entries} not a power of two <= 2^24")));
        }
        if assoc == 0
            || assoc > entries
            || entries % assoc != 0
            || !(entries / assoc).is_power_of_two()
        {
            return Err(r.bad_value(format!(
                "lt associativity {assoc} incompatible with {entries} entries"
            )));
        }
        let config = Self {
            entries: entries as usize,
            assoc: assoc as usize,
            pf_mode,
        };
        if let PfMode::Decoupled { extra_index_bits } = pf_mode {
            if (config.sets() as u64) << extra_index_bits > 1 << 26 {
                return Err(r.bad_value(format!(
                    "decoupled pf table of {} sets << {extra_index_bits} bits above 2^26 slots",
                    config.sets()
                )));
            }
        }
        Ok(config)
    }
}

impl Snapshot for LtEntry {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u64(self.tag);
        w.put_u64(self.link);
        w.put_u8(self.pf);
        w.put_bool(self.pf_primed);
        w.put_u64(self.lru);
    }
}

impl Restorable for LtEntry {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            tag: r.take_u64("lt entry tag")?,
            link: r.take_u64("lt entry link")?,
            pf: r.take_u8("lt entry pf bits")?,
            pf_primed: r.take_bool("lt entry pf primed")?,
            lru: r.take_u64("lt entry lru")?,
        })
    }
}

impl Snapshot for LinkTable {
    fn write_state(&self, w: &mut SectionWriter) {
        self.config.write_state(w);
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
        for &(pf, primed) in &self.decoupled_pf {
            w.put_u8(pf);
            w.put_bool(primed);
        }
    }
}

impl Restorable for LinkTable {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let config = LinkTableConfig::read_state(r)?;
        let tick = r.take_u64("lt tick")?;
        // Every way takes at least its presence byte, and every PF slot
        // two bytes, so the remaining bytes bound what a hostile config
        // can make us reserve.
        let mut ways = Vec::with_capacity(config.entries.min(r.remaining()));
        for _ in 0..config.entries {
            ways.push(if r.take_bool("lt way presence")? {
                Some(LtEntry::read_state(r)?)
            } else {
                None
            });
        }
        let decoupled_len = config.decoupled_len();
        let mut decoupled_pf = Vec::with_capacity(decoupled_len.min(r.remaining() / 2));
        for _ in 0..decoupled_len {
            let pf = r.take_u8("decoupled pf bits")?;
            let primed = r.take_bool("decoupled pf primed")?;
            decoupled_pf.push((pf, primed));
        }
        Ok(Self {
            set_mask: config.sets() - 1,
            config,
            ways,
            decoupled_pf,
            tick,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn folded(index: u64, tag: u64) -> FoldedHistory {
        FoldedHistory { index, tag }
    }

    fn table(pf: PfMode) -> LinkTable {
        LinkTable::new(LinkTableConfig {
            entries: 64,
            assoc: 1,
            pf_mode: pf,
        })
    }

    #[test]
    fn lookup_misses_on_empty_table() {
        let lt = table(PfMode::Off);
        assert_eq!(lt.lookup(&folded(3, 0)), None);
    }

    #[test]
    fn update_then_lookup_roundtrips() {
        let mut lt = table(PfMode::Off);
        assert!(lt.update(&folded(5, 0x2A), 0x1000));
        assert_eq!(lt.lookup(&folded(5, 0x2A)), Some(0x1000));
    }

    #[test]
    fn tag_mismatch_hides_entry() {
        let mut lt = table(PfMode::Off);
        lt.update(&folded(5, 0x2A), 0x1000);
        assert_eq!(lt.lookup(&folded(5, 0x2B)), None, "different tag must miss");
    }

    #[test]
    fn pf_inline_requires_two_consecutive_identical_updates() {
        let mut lt = table(PfMode::Inline);
        // Seed the entry with link A (allocation is immediate).
        assert!(lt.update(&folded(1, 0), 0xA0));
        assert_eq!(lt.lookup(&folded(1, 0)), Some(0xA0));
        // One attempt to change the link to B: PF bits differ, rejected.
        assert!(!lt.update(&folded(1, 0), 0xB4));
        assert_eq!(
            lt.lookup(&folded(1, 0)),
            Some(0xA0),
            "first change deferred"
        );
        // Second consecutive identical attempt: admitted.
        assert!(lt.update(&folded(1, 0), 0xB4));
        assert_eq!(lt.lookup(&folded(1, 0)), Some(0xB4));
    }

    #[test]
    fn pf_blocks_alternating_irregular_updates() {
        let mut lt = table(PfMode::Inline);
        lt.update(&folded(1, 0), 0xA0);
        // Alternating, never-repeating bases with distinct PF bits: all
        // rejected, the original link survives (pollution resistance).
        let mut admitted = 0;
        for i in 0..16u64 {
            if lt.update(&folded(1, 0), 0x100 + i * 4) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 0, "strictly changing PF bits never admit");
        assert_eq!(lt.lookup(&folded(1, 0)), Some(0xA0));
    }

    #[test]
    fn pf_off_admits_everything() {
        let mut lt = table(PfMode::Off);
        lt.update(&folded(1, 0), 0xA0);
        assert!(lt.update(&folded(1, 0), 0xB0));
        assert_eq!(lt.lookup(&folded(1, 0)), Some(0xB0));
    }

    #[test]
    fn direct_mapped_conflicting_tags_evict_with_pf() {
        let mut lt = table(PfMode::Inline);
        lt.update(&folded(1, 0x1), 0xA0);
        // A different tag at the same index wants the entry: needs two
        // consecutive attempts (hysteresis on eviction too).
        assert!(!lt.update(&folded(1, 0x2), 0xB4));
        assert_eq!(lt.lookup(&folded(1, 0x1)), Some(0xA0));
        assert!(lt.update(&folded(1, 0x2), 0xB4));
        assert_eq!(lt.lookup(&folded(1, 0x2)), Some(0xB4));
        assert_eq!(lt.lookup(&folded(1, 0x1)), None);
    }

    #[test]
    fn set_associative_holds_conflicting_tags() {
        let mut lt = LinkTable::new(LinkTableConfig {
            entries: 64,
            assoc: 2,
            pf_mode: PfMode::Off,
        });
        lt.update(&folded(1, 0x1), 0xA0);
        lt.update(&folded(1, 0x2), 0xB0);
        assert_eq!(lt.lookup(&folded(1, 0x1)), Some(0xA0));
        assert_eq!(lt.lookup(&folded(1, 0x2)), Some(0xB0));
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut lt = LinkTable::new(LinkTableConfig {
            entries: 64,
            assoc: 2,
            pf_mode: PfMode::Off,
        });
        lt.update(&folded(1, 0x1), 0xA0);
        lt.update(&folded(1, 0x2), 0xB0);
        lt.update(&folded(1, 0x3), 0xC0); // evicts tag 0x1 (oldest)
        assert_eq!(lt.lookup(&folded(1, 0x1)), None);
        assert_eq!(lt.lookup(&folded(1, 0x2)), Some(0xB0));
        assert_eq!(lt.lookup(&folded(1, 0x3)), Some(0xC0));
    }

    #[test]
    fn decoupled_pf_filters_like_inline() {
        let mut lt = table(PfMode::Decoupled {
            extra_index_bits: 2,
        });
        // First-touch allocation is filtered too under decoupled mode:
        // the first attempt only primes the PF slot.
        assert!(!lt.update(&folded(1, 0), 0xA0));
        assert!(lt.update(&folded(1, 0), 0xA0));
        assert_eq!(lt.lookup(&folded(1, 0)), Some(0xA0));
    }

    #[test]
    fn decoupled_pf_distinguishes_tags_sharing_an_index() {
        let mut lt = table(PfMode::Decoupled {
            extra_index_bits: 4,
        });
        // Same LT index, different tags: PF slots differ, so the two
        // streams don't destroy each other's priming.
        assert!(!lt.update(&folded(1, 0x1), 0xA0));
        assert!(!lt.update(&folded(1, 0x2), 0xB0));
        assert!(lt.update(&folded(1, 0x1), 0xA0));
    }

    #[test]
    fn update_outcome_classifies_writes() {
        let mut lt = table(PfMode::Off);
        // Empty way: fill.
        assert_eq!(lt.update_outcome(&folded(1, 0x1), 0xA0), LtWrite::Fill);
        // Same tag, same link: refresh.
        assert_eq!(lt.update_outcome(&folded(1, 0x1), 0xA0), LtWrite::Refresh);
        // Same tag, new link: retrain.
        assert_eq!(lt.update_outcome(&folded(1, 0x1), 0xB0), LtWrite::Retrain);
        // Different tag evicting a live entry: replace (pollution).
        assert_eq!(lt.update_outcome(&folded(1, 0x2), 0xC0), LtWrite::Replace);
        assert!(LtWrite::Fill.written() && !LtWrite::Deferred.written());
    }

    #[test]
    fn update_outcome_reports_pf_deferral() {
        let mut lt = table(PfMode::Inline);
        assert_eq!(lt.update_outcome(&folded(1, 0), 0xA0), LtWrite::Fill);
        // PF bits differ: first change attempt is deferred.
        assert_eq!(lt.update_outcome(&folded(1, 0), 0xB4), LtWrite::Deferred);
        assert_eq!(lt.update_outcome(&folded(1, 0), 0xB4), LtWrite::Retrain);
    }

    #[test]
    fn ways_are_stored_set_major() {
        let mut lt = LinkTable::new(LinkTableConfig {
            entries: 8,
            assoc: 2,
            pf_mode: PfMode::Off,
        });
        lt.update(&folded(1, 0xA), 0x10);
        lt.update(&folded(0, 0xB), 0x20);
        lt.update(&folded(1, 0xC), 0x30);
        let links: Vec<u64> = lt.entries().map(|e| e.link).collect();
        assert_eq!(
            links,
            vec![0x20, 0x10, 0x30],
            "set 0 first, then set 1's two ways"
        );
    }

    #[test]
    fn restore_of_a_truncated_way_array_fails() {
        // A hostile archive may claim 2^24 entries and then stop.
        let mut w = SectionWriter::new();
        LinkTableConfig {
            entries: 1 << 24,
            assoc: 1,
            pf_mode: PfMode::Decoupled {
                extra_index_bits: 2,
            },
        }
        .write_state(&mut w);
        w.put_u64(0);
        w.put_bool(false);
        assert!(LinkTable::from_payload(&w.into_bytes(), "lt").is_err());
    }

    #[test]
    fn occupancy_counts_live_entries() {
        let mut lt = table(PfMode::Off);
        assert_eq!(lt.occupancy(), 0);
        lt.update(&folded(1, 0), 0xA0);
        lt.update(&folded(2, 0), 0xB0);
        assert_eq!(lt.occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_entries_rejected() {
        let _ = LinkTable::new(LinkTableConfig {
            entries: 100,
            assoc: 1,
            pf_mode: PfMode::Off,
        });
    }

    #[test]
    fn pf_bits_extract_bits_2_to_5() {
        assert_eq!(pf_bits(0b111100), 0b1111);
        assert_eq!(pf_bits(0b000011), 0);
        assert_eq!(pf_bits(1 << 6), 0);
    }
}
