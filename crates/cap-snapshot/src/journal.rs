//! The delta-journal record codec: CRC'd append-only records written
//! between full snapshots.
//!
//! A full [`crate::SnapshotArchive`] bounds recovery loss to the
//! *checkpoint interval*; the journal shrinks that bound to the
//! *flush interval* by logging each event applied since the last full
//! snapshot. Recovery restores the newest complete snapshot and then
//! re-applies the journal's records in order.
//!
//! # Wire format
//!
//! ```text
//! header:  magic "CAPJRNL\0" | version u32 LE | base_events u64 LE
//! record:  len u32 LE | crc32(payload) u32 LE | payload (len bytes)
//! record:  ...
//! ```
//!
//! `base_events` names the snapshot this journal applies on top of
//! (`0` = a fresh, cold state). Records repeat until the file ends.
//!
//! # Torn tails are data, not errors
//!
//! An append-only file that lives through crashes *will* end
//! mid-record: a crash can cut the final append anywhere, and a lying
//! fsync can drop its tail entirely. [`JournalReplay::parse`] therefore
//! never fails on the record stream — it returns every record up to the
//! first framing violation or CRC mismatch and reports the cut as a
//! [`TornTail`]. Only a damaged *header* is an error (the file is not a
//! journal, or its base is unreadable — there is nothing safe to
//! replay).
//!
//! Bytes *after* a bad record are unreachable by design: once one frame
//! is untrusted, every later frame boundary is untrusted too.

use crate::crc::crc32;
use crate::error::SnapshotError;

/// Leading bytes of every journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"CAPJRNL\0";

/// Journal format version written by this build.
pub const JOURNAL_VERSION: u32 = 1;

/// Byte length of the fixed journal header.
pub const JOURNAL_HEADER_LEN: usize = 8 + 4 + 8;

/// Per-record framing overhead (length + CRC) in bytes.
pub const JOURNAL_RECORD_OVERHEAD: usize = 4 + 4;

/// Upper bound on a single record payload. Far above anything the
/// harness writes (one trace event ≈ tens of bytes); exists so a
/// garbage length field in a torn tail cannot size an allocation.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

const SECTION: &str = "journal";

/// Encodes the fixed header of a journal applying on top of the
/// snapshot taken at `base_events` events.
#[must_use]
pub fn encode_journal_header(base_events: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(JOURNAL_HEADER_LEN);
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.extend_from_slice(&base_events.to_le_bytes());
    out
}

/// Frames one record: `len | crc32 | payload`.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_RECORD_LEN`] — a writer bug, not an input
/// condition (the harness journals single trace events).
#[must_use]
pub fn encode_journal_record(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_RECORD_LEN as usize,
        "journal record of {} bytes exceeds MAX_RECORD_LEN",
        payload.len()
    );
    let mut out = Vec::with_capacity(JOURNAL_RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Where and why a journal's record stream stopped short of the file's
/// end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first untrusted byte (== the end of the last
    /// valid record).
    pub at_byte: usize,
    /// Bytes abandoned from there to the end of the file.
    pub lost_bytes: usize,
    /// What the framing scan hit.
    pub reason: TornReason,
}

/// The framing violation that ended a record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`JOURNAL_RECORD_OVERHEAD`] bytes remained — the
    /// frame header itself was cut.
    PartialFrame,
    /// The length field promises more bytes than the file holds — the
    /// payload was cut.
    PartialPayload,
    /// The length field exceeds [`MAX_RECORD_LEN`] — garbage framing.
    OversizedLength,
    /// The payload is complete but its CRC does not match.
    CrcMismatch,
}

impl TornReason {
    /// Short name for logs and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TornReason::PartialFrame => "partial-frame",
            TornReason::PartialPayload => "partial-payload",
            TornReason::OversizedLength => "oversized-length",
            TornReason::CrcMismatch => "crc-mismatch",
        }
    }
}

/// A parsed journal: the validated prefix of an append-only file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReplay {
    /// Event count of the snapshot this journal applies on top of.
    pub base_events: u64,
    /// Every record whose framing and CRC checked out, in append order.
    pub records: Vec<Vec<u8>>,
    /// Length of the trusted prefix (header + valid records). Rewriting
    /// the file as `bytes[..valid_len]` drops the torn tail.
    pub valid_len: usize,
    /// Present when the file held bytes beyond the last valid record.
    pub torn: Option<TornTail>,
}

impl JournalReplay {
    /// Parses a journal file.
    ///
    /// # Errors
    ///
    /// Only for a damaged *header* (short, wrong magic, or a version
    /// this build cannot read). Anything wrong in the record stream is
    /// reported as [`JournalReplay::torn`], never an error.
    pub fn parse(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < JOURNAL_HEADER_LEN {
            if bytes.len() < JOURNAL_MAGIC.len() || bytes[..8] != JOURNAL_MAGIC {
                return Err(SnapshotError::BadMagic {
                    found: bytes[..bytes.len().min(8)].to_vec(),
                });
            }
            return Err(SnapshotError::Truncated {
                section: SECTION.to_owned(),
                what: "journal header",
                needed: JOURNAL_HEADER_LEN,
                available: bytes.len(),
            });
        }
        if bytes[..8] != JOURNAL_MAGIC {
            return Err(SnapshotError::BadMagic {
                found: bytes[..8].to_vec(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version == 0 || version > JOURNAL_VERSION {
            return Err(SnapshotError::VersionSkew {
                found: version,
                supported: JOURNAL_VERSION,
            });
        }
        let base_events = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));

        let mut records = Vec::new();
        let mut at = JOURNAL_HEADER_LEN;
        let torn = loop {
            if at == bytes.len() {
                break None; // clean end exactly on a record boundary
            }
            let remaining = bytes.len() - at;
            if remaining < JOURNAL_RECORD_OVERHEAD {
                break Some(TornReason::PartialFrame);
            }
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            if len > MAX_RECORD_LEN {
                break Some(TornReason::OversizedLength);
            }
            let stored_crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
            let payload_start = at + JOURNAL_RECORD_OVERHEAD;
            let payload_end = payload_start + len as usize;
            if payload_end > bytes.len() {
                break Some(TornReason::PartialPayload);
            }
            let payload = &bytes[payload_start..payload_end];
            if crc32(payload) != stored_crc {
                break Some(TornReason::CrcMismatch);
            }
            records.push(payload.to_vec());
            at = payload_end;
        };

        Ok(JournalReplay {
            base_events,
            records,
            valid_len: at,
            torn: torn.map(|reason| TornTail {
                at_byte: at,
                lost_bytes: bytes.len() - at,
                reason,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(base: u64, payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = encode_journal_header(base);
        for p in payloads {
            bytes.extend_from_slice(&encode_journal_record(p));
        }
        bytes
    }

    #[test]
    fn roundtrip_clean_journal() {
        let bytes = journal(5_000, &[b"alpha", b"", b"gamma gamma"]);
        let replay = JournalReplay::parse(&bytes).unwrap();
        assert_eq!(replay.base_events, 5_000);
        assert_eq!(
            replay.records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma gamma".to_vec()]
        );
        assert_eq!(replay.valid_len, bytes.len());
        assert!(replay.torn.is_none());
    }

    #[test]
    fn header_only_journal_is_empty_not_torn() {
        let replay = JournalReplay::parse(&encode_journal_header(0)).unwrap();
        assert_eq!(replay.base_events, 0);
        assert!(replay.records.is_empty());
        assert!(replay.torn.is_none());
    }

    #[test]
    fn truncation_at_every_cut_point_recovers_the_valid_prefix() {
        let payloads: [&[u8]; 3] = [b"first record", b"second", b"the third record here"];
        let bytes = journal(42, &payloads);
        // Record boundaries (end offsets of each complete record).
        let mut boundaries = vec![JOURNAL_HEADER_LEN];
        for p in payloads {
            boundaries.push(boundaries.last().unwrap() + JOURNAL_RECORD_OVERHEAD + p.len());
        }
        for cut in JOURNAL_HEADER_LEN..=bytes.len() {
            let replay = JournalReplay::parse(&bytes[..cut]).unwrap();
            assert_eq!(replay.base_events, 42);
            // How many whole records fit before the cut?
            let expect = boundaries
                .iter()
                .filter(|&&b| b > JOURNAL_HEADER_LEN && b <= cut)
                .count();
            assert_eq!(replay.records.len(), expect, "cut at {cut}");
            for (i, r) in replay.records.iter().enumerate() {
                assert_eq!(r.as_slice(), payloads[i]);
            }
            assert_eq!(replay.valid_len, boundaries[expect], "cut at {cut}");
            let on_boundary = boundaries.contains(&cut);
            assert_eq!(replay.torn.is_none(), on_boundary, "cut at {cut}");
            if let Some(t) = replay.torn {
                assert_eq!(t.at_byte, boundaries[expect]);
                assert_eq!(t.lost_bytes, cut - boundaries[expect]);
                assert!(matches!(
                    t.reason,
                    TornReason::PartialFrame | TornReason::PartialPayload
                ));
            }
        }
    }

    #[test]
    fn corrupt_header_is_an_error_at_every_cut() {
        for cut in 0..JOURNAL_HEADER_LEN {
            let bytes = journal(7, &[b"x"]);
            assert!(JournalReplay::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_magic = journal(7, &[b"x"]);
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            JournalReplay::parse(&bad_magic),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut skewed = journal(7, &[b"x"]);
        skewed[8..12].copy_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        assert!(matches!(
            JournalReplay::parse(&skewed),
            Err(SnapshotError::VersionSkew { .. })
        ));
    }

    #[test]
    fn bit_flip_in_any_record_stops_replay_there() {
        let payloads: [&[u8]; 3] = [b"aaaa", b"bbbb", b"cccc"];
        let clean = journal(1, &payloads);
        for byte in JOURNAL_HEADER_LEN..clean.len() {
            let mut bytes = clean.clone();
            bytes[byte] ^= 0x40;
            let replay = JournalReplay::parse(&bytes).unwrap();
            let tail = replay.torn.expect("a flipped byte must surface as torn");
            // Which record holds the flipped byte? Replay keeps the ones
            // before it and nothing at or after it.
            let rec = (byte - JOURNAL_HEADER_LEN) / (JOURNAL_RECORD_OVERHEAD + 4);
            assert_eq!(replay.records.len(), rec, "flip at byte {byte}");
            assert!(tail.lost_bytes > 0);
        }
    }

    #[test]
    fn garbage_length_cannot_size_an_allocation() {
        let mut bytes = encode_journal_header(0);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        bytes.extend_from_slice(&[0u8; 60]);
        let replay = JournalReplay::parse(&bytes).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.torn.unwrap().reason, TornReason::OversizedLength);
    }

    #[test]
    fn rewriting_the_valid_prefix_yields_a_clean_journal() {
        let mut bytes = journal(9, &[b"keep me", b"keep me too"]);
        let full = bytes.clone();
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]); // torn tail
        let replay = JournalReplay::parse(&bytes).unwrap();
        assert!(replay.torn.is_some());
        assert_eq!(&bytes[..replay.valid_len], full.as_slice());
        let again = JournalReplay::parse(&bytes[..replay.valid_len]).unwrap();
        assert!(again.torn.is_none());
        assert_eq!(again.records, replay.records);
    }
}
