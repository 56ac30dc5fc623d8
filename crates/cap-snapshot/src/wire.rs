//! Little-endian wire primitives.
//!
//! A [`SectionWriter`] appends fixed-width fields to a section payload; a
//! [`SectionReader`] consumes them, returning a structured
//! [`SnapshotError`] — never panicking — when the bytes disagree with the
//! expected shape. Readers carry the section name so every error can say
//! *where* it happened.

use crate::SnapshotError;

/// Appends snapshot state to a section payload.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64` (two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i32` (two's complement).
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `usize` as a `u64` (the format is 64-bit regardless of
    /// host width).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `Option<u64>` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes raw bytes with no framing (caller wrote the length already).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Consumes a section payload, tracking the section name for errors.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> SectionReader<'a> {
    /// A reader over `buf`, attributing errors to `section`.
    #[must_use]
    pub fn new(buf: &'a [u8], section: &'a str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    /// The section this reader attributes errors to.
    #[must_use]
    pub fn section(&self) -> &str {
        self.section
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                section: self.section.to_owned(),
                what,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self, what: &'static str) -> Result<u16, SnapshotError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("slice is 8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self, what: &'static str) -> Result<i64, SnapshotError> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("slice is 8 bytes")))
    }

    /// Reads a little-endian `i32`.
    pub fn take_i32(&mut self, what: &'static str) -> Result<i32, SnapshotError> {
        let b = self.take(4, what)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn take_bool(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.bad_value(format!("{what}: bool byte must be 0 or 1, got {other}"))),
        }
    }

    /// Reads an `Option<u64>` written by [`SectionWriter::put_opt_u64`].
    pub fn take_opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, SnapshotError> {
        if self.take_bool(what)? {
            Ok(Some(self.take_u64(what)?))
        } else {
            Ok(None)
        }
    }

    /// Reads an element count written by [`SectionWriter::put_len`],
    /// rejecting — before anything is allocated from it — any count whose
    /// elements (at `min_elem_bytes` apiece) could not fit in the bytes
    /// that remain. This is the width-overflow guard that keeps hostile
    /// lengths from driving huge allocations or wraparound arithmetic.
    pub fn take_len(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, SnapshotError> {
        let raw = self.take_u64(what)?;
        let limit = self
            .remaining()
            .checked_div(min_elem_bytes)
            .unwrap_or(self.remaining()) as u64;
        if raw > limit {
            return Err(SnapshotError::WidthOverflow {
                section: self.section.to_owned(),
                what,
                value: raw,
                limit,
            });
        }
        Ok(raw as usize)
    }

    /// Reads exactly `n` raw bytes (inverse of a length-prefixed
    /// [`SectionWriter::put_raw`]; pair with [`SectionReader::take_len`]
    /// to recover variable-length payloads such as strings).
    pub fn take_raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        self.take(n, what)
    }

    /// Builds a [`SnapshotError::BadValue`] attributed to this section.
    pub fn bad_value(&self, what: impl Into<String>) -> SnapshotError {
        SnapshotError::BadValue {
            section: self.section.to_owned(),
            what: what.into(),
        }
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                section: self.section.to_owned(),
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// State that can be written into a snapshot section payload.
pub trait Snapshot {
    /// Appends this value's full live state to `w`.
    fn write_state(&self, w: &mut SectionWriter);

    /// Convenience: the value encoded as a stand-alone payload.
    fn to_payload(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        self.write_state(&mut w);
        w.into_bytes()
    }
}

/// State that can be rebuilt from a snapshot section payload.
///
/// Implementations must *never panic* on hostile input: any byte sequence
/// either decodes to a value satisfying the type's invariants or returns a
/// structured [`SnapshotError`].
pub trait Restorable: Sized {
    /// Reads one value from `r`, validating every invariant the type's
    /// constructors would have enforced.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant describing how the bytes disagreed
    /// with the expected shape.
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError>;

    /// Convenience: decodes a stand-alone payload, requiring that every
    /// byte is consumed.
    ///
    /// # Errors
    ///
    /// Propagates [`Restorable::read_state`] failures, plus
    /// [`SnapshotError::TrailingBytes`] on leftover bytes.
    fn from_payload(bytes: &[u8], section: &str) -> Result<Self, SnapshotError> {
        let mut r = SectionReader::new(bytes, section);
        let value = Self::read_state(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = SectionWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-42);
        w.put_i32(-7);
        w.put_bool(true);
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes, "test");
        assert_eq!(r.take_u8("a").unwrap(), 0xAB);
        assert_eq!(r.take_u16("b").unwrap(), 0x1234);
        assert_eq!(r.take_u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64("d").unwrap(), u64::MAX - 7);
        assert_eq!(r.take_i64("e").unwrap(), -42);
        assert_eq!(r.take_i32("f").unwrap(), -7);
        assert!(r.take_bool("g").unwrap());
        assert_eq!(r.take_opt_u64("h").unwrap(), Some(9));
        assert_eq!(r.take_opt_u64("i").unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_structured() {
        let mut r = SectionReader::new(&[1, 2], "lb");
        let err = r.take_u64("tick").unwrap_err();
        match err {
            SnapshotError::Truncated {
                section,
                what,
                needed,
                available,
            } => {
                assert_eq!(section, "lb");
                assert_eq!(what, "tick");
                assert_eq!(needed, 8);
                assert_eq!(available, 2);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn bool_rejects_junk_bytes() {
        let mut r = SectionReader::new(&[7], "flags");
        assert!(matches!(
            r.take_bool("valid").unwrap_err(),
            SnapshotError::BadValue { .. }
        ));
    }

    #[test]
    fn hostile_length_is_width_overflow_not_allocation() {
        let mut w = SectionWriter::new();
        w.put_len(usize::MAX);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes, "lt");
        let err = r.take_len(8, "set count").unwrap_err();
        match err {
            SnapshotError::WidthOverflow { section, value, .. } => {
                assert_eq!(section, "lt");
                assert_eq!(value, u64::MAX);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected_by_from_payload() {
        #[derive(Debug)]
        struct One(u8);
        impl Restorable for One {
            fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
                Ok(One(r.take_u8("v")?))
            }
        }
        let err = One::from_payload(&[1, 2], "one").unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::TrailingBytes { remaining: 1, .. }
        ));
        assert_eq!(One::from_payload(&[3], "one").unwrap().0, 3);
    }
}
