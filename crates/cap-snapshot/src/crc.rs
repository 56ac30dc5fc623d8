//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) — the per-section
//! integrity check of the snapshot container.
//!
//! Implemented in-repo because the workspace is dependency-free by
//! design; validated against the standard check value
//! (`crc32("123456789") == 0xCBF43926`).

/// Reflected CRC-32 polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// The 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC-32 of `bytes`.
///
/// # Examples
///
/// ```
/// assert_eq!(cap_snapshot::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_vectors() {
        // Independently computable reference values for the IEEE polynomial.
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let clean = b"some section payload bytes".to_vec();
        let base = crc32(&clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
