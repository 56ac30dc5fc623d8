//! Per-load address-history recording and the shift(m)-xor compression
//! scheme (paper §3.2).
//!
//! The paper's Load Buffer keeps, per static load, a history of the last
//! *N* (base) addresses. The history is compressed into a Link-Table index
//! by the **shift(m)-xor** scheme: fold each address in turn by shifting
//! the accumulator left `m` bits and xoring in the address's low bits
//! (excluding the last two, which only matter on unaligned accesses), then
//! truncate. The scheme "naturally ages past addresses": after enough
//! pushes an old address's bits are entirely shifted out.
//!
//! For experiment fidelity we store the last `N` raw addresses and fold on
//! demand — this makes *history length* an exact, sweepable parameter
//! (Figure 9): the fold covers exactly the last `length` addresses, and an
//! older address cannot change it. Hardware would keep only an incremental
//! register of `index_bits + tag_bits` bits, which ages an address out only
//! once it is shifted past the top bit, so the two agree only when
//! `length × shift ≥ index_bits + tag_bits`. At the paper's defaults
//! (length 4, shift 3, 20 bits) such a register still holds the 5th–7th
//! newest addresses.
//!
//! The addresses live inline in a fixed array of
//! [`HistoryBuffer::CAPACITY`] = 12 slots, so a history is part of its
//! Load Buffer entry and never touches the heap. 12 is the longest history
//! the paper sweeps (Figure 9: lengths 1–12), and specs and archives that
//! ask for more are rejected.

/// Parameters of the history compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistorySpec {
    /// Number of past addresses recorded (the paper sweeps 1–12; default 4).
    pub length: usize,
    /// Shift amount `m` of the shift(m)-xor scheme.
    pub shift: u32,
    /// Bits of the folded history used to index the Link Table.
    pub index_bits: u32,
    /// Extra folded-history bits stored as a Link-Table tag (§3.4); `0`
    /// disables tagging.
    pub tag_bits: u32,
}

impl HistorySpec {
    /// The paper's default configuration: history length 4, shift 3,
    /// 12 index bits (4K-entry LT), 8 tag bits.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            length: 4,
            shift: 3,
            index_bits: 12,
            tag_bits: 8,
        }
    }

    /// Total folded width (index + tag).
    #[must_use]
    pub fn width(&self) -> u32 {
        self.index_bits + self.tag_bits
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero length, length above
    /// [`HistoryBuffer::CAPACITY`], zero shift, zero width, or width > 63).
    pub fn validate(&self) {
        assert!(self.length > 0, "history length must be positive");
        assert!(
            self.length <= HistoryBuffer::CAPACITY,
            "history length must be at most 12"
        );
        assert!(self.shift > 0, "shift amount must be positive");
        assert!(self.width() > 0, "folded width must be positive");
        assert!(self.width() <= 63, "folded width must fit in u64");
    }
}

/// The folded history split into Link-Table index and tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldedHistory {
    /// Link-Table index bits.
    pub index: u64,
    /// Link-Table tag bits (0 when tagging is disabled).
    pub tag: u64,
}

/// A bounded FIFO of recent (base) addresses for one static load.
///
/// The recorded addresses are the last `len` slots of `addrs`, oldest
/// first, so a push shifts the whole fixed-size array by one slot and
/// writes the newest address at the end.
#[derive(Clone, Default)]
pub struct HistoryBuffer {
    addrs: [u64; HistoryBuffer::CAPACITY],
    len: usize,
}

impl HistoryBuffer {
    /// The most addresses a history holds: Figure 9's longest length.
    pub const CAPACITY: usize = 12;

    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded addresses, oldest first.
    fn as_slice(&self) -> &[u64] {
        &self.addrs[Self::CAPACITY - self.len..]
    }

    /// Records `addr` as the most recent address, keeping at most
    /// `spec.length` entries.
    pub fn push(&mut self, addr: u64, spec: &HistorySpec) {
        self.addrs.copy_within(1.., 0);
        self.addrs[Self::CAPACITY - 1] = addr;
        self.len = (self.len + 1).min(spec.length).min(Self::CAPACITY);
    }

    /// Number of recorded addresses (≤ `spec.length`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no addresses have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once the history holds `spec.length` addresses — predictions
    /// before that point would index the LT with a partial context.
    #[must_use]
    pub fn is_warm(&self, spec: &HistorySpec) -> bool {
        self.len >= spec.length
    }

    /// Folds the recorded addresses with the shift(m)-xor scheme and splits
    /// the result into LT index and tag.
    ///
    /// Oldest address first, so the newest address's bits occupy the least
    /// shifted (freshest) position, as in an incremental register that
    /// shifts on every push. Unlike that register, the fold covers exactly
    /// the last `spec.length` addresses; the two agree only when
    /// `length × shift ≥ index_bits + tag_bits`.
    #[must_use]
    pub fn fold(&self, spec: &HistorySpec) -> FoldedHistory {
        self.fold_last(spec, spec.length)
    }

    /// Folds only the most recent `length` recorded addresses — used by
    /// variable-history-length predictors that serve several context
    /// lengths from one buffer (retain at the longest, fold at each).
    #[must_use]
    pub fn fold_last(&self, spec: &HistorySpec, length: usize) -> FoldedHistory {
        let width = spec.width();
        let mask = (1u64 << width) - 1;
        let mut h: u64 = 0;
        let recorded = self.as_slice();
        for &a in &recorded[recorded.len().saturating_sub(length)..] {
            // All LSBs except the last two (alignment bits), per §3.2.
            h = ((h << spec.shift) ^ (a >> 2)) & mask;
        }
        FoldedHistory {
            index: h & ((1u64 << spec.index_bits) - 1),
            tag: if spec.tag_bits == 0 {
                0
            } else {
                (h >> spec.index_bits) & ((1u64 << spec.tag_bits) - 1)
            },
        }
    }

    /// True once at least `length` addresses are recorded.
    #[must_use]
    pub fn has_at_least(&self, length: usize) -> bool {
        self.len >= length
    }

    /// Flips one bit of a recorded address, modelling an upset in the
    /// history register (fault injection). `slot` and `bit` are wrapped into
    /// range; returns `false` (and does nothing) when the history is empty.
    /// Every `u64` is a structurally valid address, so the buffer's only
    /// invariant — length ≤ `spec.length` — is untouched.
    pub fn corrupt_bit(&mut self, slot: usize, bit: u32) -> bool {
        if self.len == 0 {
            return false;
        }
        let slot = Self::CAPACITY - self.len + slot % self.len;
        self.addrs[slot] ^= 1u64 << (bit % 64);
        true
    }

    /// Clears the history (used when repairing speculative state).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Copies another history's contents into this one (state repair).
    pub fn copy_from(&mut self, other: &HistoryBuffer) {
        self.clone_from(other);
    }
}

/// Two histories are equal when they record the same addresses; slots
/// outside the recorded window are not state.
impl PartialEq for HistoryBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for HistoryBuffer {}

impl std::fmt::Debug for HistoryBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryBuffer")
            .field("addrs", &self.as_slice())
            .finish()
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for HistorySpec {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_len(self.length);
        w.put_u32(self.shift);
        w.put_u32(self.index_bits);
        w.put_u32(self.tag_bits);
    }
}

impl Restorable for HistorySpec {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let length = r.take_u64("history length")?;
        let shift = r.take_u32("history shift")?;
        let index_bits = r.take_u32("history index bits")?;
        let tag_bits = r.take_u32("history tag bits")?;
        // Mirror HistorySpec::validate without its panics.
        if length == 0 || length > HistoryBuffer::CAPACITY as u64 {
            return Err(r.bad_value(format!(
                "history length {length} outside 1..={}",
                HistoryBuffer::CAPACITY
            )));
        }
        if shift == 0 || shift > 63 {
            return Err(r.bad_value(format!("history shift {shift} outside 1..=63")));
        }
        let width = index_bits.checked_add(tag_bits);
        if !matches!(width, Some(1..=63)) {
            return Err(r.bad_value(format!(
                "folded width index {index_bits} + tag {tag_bits} outside 1..=63"
            )));
        }
        Ok(Self {
            length: length as usize,
            shift,
            index_bits,
            tag_bits,
        })
    }
}

impl Snapshot for HistoryBuffer {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_len(self.len);
        for &a in self.as_slice() {
            w.put_u64(a);
        }
    }
}

impl Restorable for HistoryBuffer {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_len(8, "history address count")?;
        if len > Self::CAPACITY {
            return Err(r.bad_value(format!(
                "history of {len} addresses above capacity {}",
                Self::CAPACITY
            )));
        }
        let mut history = Self::new();
        for slot in &mut history.addrs[Self::CAPACITY - len..] {
            *slot = r.take_u64("history address")?;
        }
        history.len = len;
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(length: usize) -> HistorySpec {
        HistorySpec {
            length,
            shift: 3,
            index_bits: 12,
            tag_bits: 8,
        }
    }

    #[test]
    fn paper_default_is_valid() {
        HistorySpec::paper_default().validate();
        assert_eq!(HistorySpec::paper_default().width(), 20);
    }

    #[test]
    fn push_keeps_at_most_length() {
        let s = spec(3);
        let mut h = HistoryBuffer::new();
        for a in 0..10u64 {
            h.push(a << 4, &s);
        }
        assert_eq!(h.len(), 3);
        assert!(h.is_warm(&s));
    }

    #[test]
    fn fold_depends_on_every_recorded_address() {
        let s = spec(3);
        let mut h1 = HistoryBuffer::new();
        let mut h2 = HistoryBuffer::new();
        for a in [0x100u64, 0x200, 0x300] {
            h1.push(a, &s);
        }
        for a in [0x104u64, 0x200, 0x300] {
            h2.push(a, &s);
        }
        assert_ne!(h1.fold(&s), h2.fold(&s), "oldest address must still matter");
    }

    #[test]
    fn fold_ignores_alignment_bits() {
        let s = spec(2);
        let mut h1 = HistoryBuffer::new();
        let mut h2 = HistoryBuffer::new();
        h1.push(0x100, &s);
        h1.push(0x200, &s);
        // Differ only in the low 2 bits.
        h2.push(0x101, &s);
        h2.push(0x202, &s);
        assert_eq!(h1.fold(&s), h2.fold(&s));
    }

    #[test]
    fn different_order_folds_differently() {
        let s = spec(2);
        let mut h1 = HistoryBuffer::new();
        let mut h2 = HistoryBuffer::new();
        h1.push(0x100, &s);
        h1.push(0x200, &s);
        h2.push(0x200, &s);
        h2.push(0x100, &s);
        assert_ne!(
            h1.fold(&s),
            h2.fold(&s),
            "shift-xor must be order-sensitive"
        );
    }

    #[test]
    fn old_addresses_age_out_of_window() {
        let s = spec(2);
        let mut h1 = HistoryBuffer::new();
        let mut h2 = HistoryBuffer::new();
        // Same last 2 addresses, different older prefix.
        for a in [0xAAAA0u64, 0x100, 0x200] {
            h1.push(a, &s);
        }
        for a in [0xBBBB0u64, 0x100, 0x200] {
            h2.push(a, &s);
        }
        assert_eq!(h1.fold(&s), h2.fold(&s), "length-2 history keeps only 2");
    }

    #[test]
    fn fold_covers_exactly_the_last_length_addresses() {
        // Two histories that differ only in their 5th newest address.
        let s = HistorySpec::paper_default();
        let mask = (1u64 << s.width()) - 1;
        let newest = [0x1000u64, 0x2340, 0x5678, 0x9AB0];
        let (mut h1, mut h2) = (HistoryBuffer::new(), HistoryBuffer::new());
        let (mut r1, mut r2) = (0u64, 0u64);
        for (h, r, oldest) in [(&mut h1, &mut r1, 0xAAA0u64), (&mut h2, &mut r2, 0xBBB0)] {
            for a in std::iter::once(oldest).chain(newest) {
                h.push(a, &s);
                *r = ((*r << s.shift) ^ (a >> 2)) & mask;
            }
        }
        assert_eq!(
            h1.fold(&s),
            h2.fold(&s),
            "older than length: out of the fold"
        );
        assert_ne!(r1, r2, "a 20-bit shift(3)-xor register still holds it");
    }

    #[test]
    fn index_and_tag_partition_folded_value() {
        let s = spec(4);
        let mut h = HistoryBuffer::new();
        for a in [0x1234u64, 0x5678, 0x9ABC, 0xDEF0] {
            h.push(a, &s);
        }
        let f = h.fold(&s);
        assert!(f.index < (1 << 12));
        assert!(f.tag < (1 << 8));
    }

    #[test]
    fn zero_tag_bits_yields_zero_tag() {
        let s = HistorySpec {
            tag_bits: 0,
            ..spec(4)
        };
        let mut h = HistoryBuffer::new();
        h.push(0xFFFF_FFFF, &s);
        assert_eq!(h.fold(&s).tag, 0);
    }

    #[test]
    fn copy_from_replicates_state() {
        let s = spec(3);
        let mut a = HistoryBuffer::new();
        for x in [1u64 << 4, 2 << 4, 3 << 4] {
            a.push(x, &s);
        }
        let mut b = HistoryBuffer::new();
        b.push(0xDEAD0, &s);
        b.copy_from(&a);
        assert_eq!(a, b);
        assert_eq!(a.fold(&s), b.fold(&s));
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_rejected() {
        HistorySpec {
            length: 0,
            ..spec(1)
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at most 12")]
    fn length_above_capacity_rejected() {
        spec(HistoryBuffer::CAPACITY + 1).validate();
    }

    #[test]
    fn capacity_length_keeps_twelve_addresses() {
        let s = spec(HistoryBuffer::CAPACITY);
        s.validate();
        let mut h = HistoryBuffer::new();
        for a in 0..20u64 {
            h.push(a << 4, &s);
        }
        let want: Vec<u64> = (8..20u64).map(|a| a << 4).collect();
        assert_eq!(h.as_slice(), want.as_slice(), "the newest 12, oldest first");
    }

    #[test]
    fn push_under_a_shorter_spec_trims_to_its_length() {
        // A restored history may be longer than the spec it is pushed
        // with; the push keeps only the spec's newest addresses.
        let mut h = HistoryBuffer::new();
        for a in 0..12u64 {
            h.push(a << 4, &spec(12));
        }
        h.push(0x999 << 4, &spec(3));
        assert_eq!(h.as_slice(), &[10 << 4, 11 << 4, 0x999 << 4]);
    }

    #[test]
    fn corrupt_bit_counts_slots_from_the_oldest() {
        let s = spec(3);
        let mut h = HistoryBuffer::new();
        for a in [0x100u64, 0x200, 0x300] {
            h.push(a, &s);
        }
        assert!(h.corrupt_bit(3, 4), "slot 3 wraps to slot 0");
        assert_eq!(h.as_slice(), &[0x110, 0x200, 0x300]);
        h.clear();
        assert!(!h.corrupt_bit(0, 0), "an empty history has nothing to flip");
    }

    #[test]
    fn equality_ignores_slots_outside_the_window() {
        let s = spec(2);
        let mut a = HistoryBuffer::new();
        for x in [0xAAA0u64, 0x100, 0x200] {
            a.push(x, &s);
        }
        let mut b = HistoryBuffer::new();
        for x in [0x100u64, 0x200] {
            b.push(x, &s);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn archives_longer_than_capacity_are_bad_values() {
        let bad_value = |e: SnapshotError| matches!(e, SnapshotError::BadValue { .. });

        let mut w = SectionWriter::new();
        spec(12).write_state(&mut w);
        assert_eq!(
            HistorySpec::from_payload(&w.into_bytes(), "spec"),
            Ok(spec(12))
        );
        let mut w = SectionWriter::new();
        spec(13).write_state(&mut w);
        let err = HistorySpec::from_payload(&w.into_bytes(), "spec").unwrap_err();
        assert!(bad_value(err), "history length 13 must be a bad value");

        let mut w = SectionWriter::new();
        w.put_len(13);
        for a in 0..13u64 {
            w.put_u64(a << 4);
        }
        let err = HistoryBuffer::from_payload(&w.into_bytes(), "history").unwrap_err();
        assert!(bad_value(err), "13 recorded addresses must be a bad value");
    }
}
