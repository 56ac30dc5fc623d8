//! The snapshot container: `magic | format-version | sections`, each
//! section independently CRC-32-checked.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"CAPSNAP\0"
//! format version   u32       readers reject versions above theirs
//! section count    u32
//! per section:
//!   name length    u16       1..=MAX_NAME_LEN
//!   name           bytes     ASCII
//!   payload length u64
//!   payload crc32  u32       CRC-32 (IEEE) of the payload bytes
//!   payload        bytes
//! ```
//!
//! The header and framing are *not* covered by a checksum of their own:
//! framing damage shows up as a structured parse error (bad magic,
//! truncation, width overflow) rather than going undetected, while every
//! byte of state lives in some section's payload and therefore *is* CRC
//! covered. Parsing checks every section's CRC eagerly, so a corrupted
//! section fails the load even if the caller never restores it.

use crate::crc::crc32;
use crate::wire::{Restorable, SectionReader, Snapshot};
use crate::SnapshotError;

/// First bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"CAPSNAP\0";

/// The container version this build writes (and the highest it reads).
pub const FORMAT_VERSION: u32 = 1;

/// Longest permitted section name.
pub const MAX_NAME_LEN: usize = 64;

/// Builds a snapshot container section by section.
///
/// # Examples
///
/// ```
/// use cap_snapshot::{SnapshotArchive, SnapshotBuilder};
///
/// let mut b = SnapshotBuilder::new();
/// b.add_raw("meta", vec![1, 2, 3]);
/// let bytes = b.finish();
/// let archive = SnapshotArchive::parse(&bytes).unwrap();
/// assert_eq!(archive.section("meta").unwrap(), &[1, 2, 3]);
/// ```
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty container.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a section holding `value`'s encoded state.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, longer than [`MAX_NAME_LEN`], or already
    /// present — section names are chosen by code, not input, so a clash
    /// is a programming error.
    pub fn add<T: Snapshot + ?Sized>(&mut self, name: &str, value: &T) {
        self.add_raw(name, value.to_payload());
    }

    /// Adds a section with a caller-built payload.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SnapshotBuilder::add`].
    pub fn add_raw(&mut self, name: &str, payload: Vec<u8>) {
        assert!(
            !name.is_empty() && name.len() <= MAX_NAME_LEN,
            "section name must be 1..={MAX_NAME_LEN} bytes"
        );
        assert!(
            !self.sections.iter().any(|(n, _)| n == name),
            "duplicate section '{name}'"
        );
        self.sections.push((name.to_owned(), payload));
    }

    /// Encodes the container.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A parsed, CRC-verified snapshot container.
#[derive(Debug)]
pub struct SnapshotArchive {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotArchive {
    /// Parses and integrity-checks a container.
    ///
    /// Every section's CRC is verified here, so corruption anywhere in
    /// the payload bytes fails the parse even if the damaged section is
    /// never restored.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] framing variant; this function never panics,
    /// whatever `bytes` holds.
    pub fn parse(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SectionReader::new(bytes, "container");
        let magic: Vec<u8> = (0..MAGIC.len())
            .map(|_| r.take_u8("magic"))
            .collect::<Result<_, _>>()
            .map_err(|_| SnapshotError::BadMagic {
                found: bytes.to_vec(),
            })?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = r.take_u32("format version")?;
        if version > FORMAT_VERSION || version == 0 {
            return Err(SnapshotError::VersionSkew {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        // Each section needs at least name-len + payload-len + crc bytes,
        // so the count is bounded by the remaining bytes.
        let count = r.take_u32("section count")? as usize;
        let min_section_bytes = 2 + 8 + 4;
        if count > r.remaining() / min_section_bytes {
            return Err(SnapshotError::WidthOverflow {
                section: "container".to_owned(),
                what: "section count",
                value: count as u64,
                limit: (r.remaining() / min_section_bytes) as u64,
            });
        }
        let mut sections: Vec<(String, Vec<u8>)> = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = r.take_u16("section name length")? as usize;
            if name_len == 0 || name_len > MAX_NAME_LEN {
                return Err(SnapshotError::BadValue {
                    section: "container".to_owned(),
                    what: format!("section name length {name_len} outside 1..={MAX_NAME_LEN}"),
                });
            }
            let name_bytes: Vec<u8> = (0..name_len)
                .map(|_| r.take_u8("section name"))
                .collect::<Result<_, _>>()?;
            let name = String::from_utf8(name_bytes).map_err(|_| SnapshotError::BadValue {
                section: "container".to_owned(),
                what: "section name is not UTF-8".to_owned(),
            })?;
            let payload_len = r.take_len(1, "payload length")?;
            let stored_crc = r.take_u32("payload crc")?;
            let payload: Vec<u8> = (0..payload_len)
                .map(|_| r.take_u8("payload"))
                .collect::<Result<_, _>>()?;
            let computed = crc32(&payload);
            if computed != stored_crc {
                return Err(SnapshotError::CrcMismatch {
                    section: name,
                    stored: stored_crc,
                    computed,
                });
            }
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(SnapshotError::BadValue {
                    section: "container".to_owned(),
                    what: format!("duplicate section '{name}'"),
                });
            }
            sections.push((name, payload));
        }
        r.finish()?;
        Ok(Self { sections })
    }

    /// The names of every section, in container order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// A section's raw payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] when `name` is absent.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
            .ok_or_else(|| SnapshotError::MissingSection {
                name: name.to_owned(),
            })
    }

    /// Restores a value from the named section, requiring that the
    /// payload is fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`], or any decode failure from the
    /// type's [`Restorable`] implementation.
    pub fn restore<T: Restorable>(&self, name: &str) -> Result<T, SnapshotError> {
        T::from_payload(self.section(name)?, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        b.add_raw("alpha", vec![1, 2, 3, 4]);
        b.add_raw("beta", (0..=255).collect());
        b.finish()
    }

    #[test]
    fn roundtrip() {
        let archive = SnapshotArchive::parse(&sample()).unwrap();
        assert_eq!(
            archive.section_names().collect::<Vec<_>>(),
            ["alpha", "beta"]
        );
        assert_eq!(archive.section("alpha").unwrap(), &[1, 2, 3, 4]);
        assert_eq!(archive.section("beta").unwrap().len(), 256);
    }

    #[test]
    fn missing_section_is_structured() {
        let archive = SnapshotArchive::parse(&sample()).unwrap();
        assert!(matches!(
            archive.section("gamma").unwrap_err(),
            SnapshotError::MissingSection { name } if name == "gamma"
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotArchive::parse(&bytes).unwrap_err(),
            SnapshotError::BadMagic { .. }
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            SnapshotArchive::parse(&bytes).unwrap_err(),
            SnapshotError::VersionSkew { found, supported }
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn payload_corruption_fails_crc() {
        let bytes = sample();
        // Flip the last payload byte (inside "beta").
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        match SnapshotArchive::parse(&bad).unwrap_err() {
            SnapshotError::CrcMismatch { section, .. } => assert_eq!(section, "beta"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn truncation_anywhere_is_structured() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = SnapshotArchive::parse(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic { .. }
                        | SnapshotError::WidthOverflow { .. }
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn hostile_section_count_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotArchive::parse(&bytes).unwrap_err(),
            SnapshotError::WidthOverflow { .. }
        ));
    }

    #[test]
    fn empty_container_parses() {
        let bytes = SnapshotBuilder::new().finish();
        let archive = SnapshotArchive::parse(&bytes).unwrap();
        assert_eq!(archive.section_names().count(), 0);
    }
}
