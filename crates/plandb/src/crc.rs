//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the
//! integrity check on every database frame and on the index block.
//!
//! Table-driven, with the table built at compile time; matches the
//! ubiquitous zlib/`cksum -o 3` definition (init `0xFFFF_FFFF`, final
//! xor `0xFFFF_FFFF`), so external tooling can re-verify frames.

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i as usize] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// CRC-32/IEEE of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        c = TABLE[usize::from((c & 0xFF) as u8 ^ b)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Published CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = crc32(b"plan database frame payload");
        let mut bytes = b"plan database frame payload".to_vec();
        bytes[7] ^= 0x20;
        assert_ne!(crc32(&bytes), base);
    }
}
