//! Versioned, checksummed binary snapshots of live simulator state.
//!
//! The CAP predictors are long-lived stateful tables; this crate gives
//! that state a durable form: a `magic | format-version | sections`
//! container ([`SnapshotArchive`]) where every section's payload carries a
//! CRC-32, and a [`Snapshot`]/[`Restorable`] trait pair that the predictor
//! and trace crates implement for their types.
//!
//! Two guarantees define the crate:
//!
//! 1. **Exactness** — restoring a snapshot reproduces the source value
//!    bit-for-bit, including LRU ticks, confidence counters, speculative
//!    history, and PRNG position, so a resumed simulation is
//!    indistinguishable from an uninterrupted one.
//! 2. **Hostility tolerance** — no decode path panics, whatever the input
//!    bytes. Every failure is a structured [`SnapshotError`] naming the
//!    section and reason (truncation, CRC mismatch, version skew, width
//!    overflow, invariant violation). The `cap-faults` chaos suite feeds
//!    thousands of mutated snapshots through these paths to hold the line.
//!
//! Between full snapshots, the [`journal`] module frames CRC'd
//! append-only delta records (`journal-*.capj`) whose replay is
//! torn-tail-tolerant — the price of an append-only file that must
//! survive crashes mid-append.
//!
//! File I/O, checkpoint rotation, and crash-consistent atomic writes live
//! in `cap-harness`; this crate is pure bytes.

mod archive;
mod crc;
mod error;
pub mod journal;
mod wire;

pub use archive::{SnapshotArchive, SnapshotBuilder, FORMAT_VERSION, MAGIC, MAX_NAME_LEN};
pub use crc::crc32;
pub use error::SnapshotError;
pub use journal::{
    encode_journal_header, encode_journal_record, JournalReplay, TornReason, TornTail,
    JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use wire::{Restorable, SectionReader, SectionWriter, Snapshot};

use cap_rand::rngs::StdRng;

impl Snapshot for StdRng {
    fn write_state(&self, w: &mut SectionWriter) {
        for word in self.state() {
            w.put_u64(word);
        }
    }
}

impl Restorable for StdRng {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.take_u64("rng state word")?;
        }
        if s == [0; 4] {
            // The all-zero state is the transition function's fixed point;
            // a legitimate writer can never produce it (from_state remaps
            // it at construction), so reject rather than silently remap.
            return Err(r.bad_value("rng state is all-zero (degenerate xoshiro fixed point)"));
        }
        Ok(StdRng::from_state(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn rng_snapshot_resumes_exact_stream() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..173 {
            rng.next_u64();
        }
        let payload = rng.to_payload();
        let mut restored = StdRng::from_payload(&payload, "rng").unwrap();
        for _ in 0..512 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn all_zero_rng_state_rejected() {
        let payload = vec![0u8; 32];
        assert!(matches!(
            StdRng::from_payload(&payload, "rng").unwrap_err(),
            SnapshotError::BadValue { section, .. } if section == "rng"
        ));
    }

    #[test]
    fn gen_bool_position_survives_roundtrip() {
        // gen_bool/gen_range consume words too; position must carry over.
        let mut rng = StdRng::seed_from_u64(4);
        let _ = rng.gen_range(0..100u32);
        let _ = rng.gen_bool(0.3);
        let mut restored = StdRng::from_payload(&rng.to_payload(), "rng").unwrap();
        assert_eq!(
            restored.gen_range(0..1_000_000u64),
            rng.gen_range(0..1_000_000u64)
        );
    }
}
