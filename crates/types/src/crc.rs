//! CRC32 (IEEE 802.3 polynomial), table-driven, eight bytes per step.
//!
//! Clio assumes it can detect blocks that were "written with garbage"
//! (§2.3.2). A CRC in each block trailer is our concrete detection
//! mechanism; it is implemented here so the workspace needs no extra
//! dependency. Every block image is checked before any entry of it is
//! served, so this loop sits on the read path's per-block cost: it uses
//! the slice-by-8 form (eight table lookups per 64-bit load, no
//! byte-to-byte dependency inside a step), with the one-byte Sarwate loop
//! only for the tail shorter than a word.

/// The reflected IEEE CRC32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight consecutive input bytes fold into the state with eight
/// independent lookups. `TABLES[0]` is the classic byte-at-a-time table.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Computes the CRC32 of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC update; feed `0xFFFF_FFFF` as the initial state and XOR
/// the final state with `0xFFFF_FFFF` to finish.
#[must_use]
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = TABLES[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    c
}

/// A streaming CRC32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.state = crc32_update(self.state, data);
    }

    /// Finishes and returns the checksum.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use clio_testkit::rng::StdRng;

    use super::*;

    /// The byte-at-a-time Sarwate loop the slice-by-8 form replaced: the
    /// oracle every fast result is compared against.
    fn bytewise_update(state: u32, data: &[u8]) -> u32 {
        let mut c = state;
        for &b in data {
            c = TABLES[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
        }
        c
    }

    fn random_buffer(len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        StdRng::seed_from_u64(0xC110).fill(&mut buf);
        buf
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slice_by_8_matches_bytewise_oracle_at_every_length_and_alignment() {
        let buf = random_buffer(8 + 257);
        for start in 0..8 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                // A non-trivial running state too, not just the initial one.
                for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, data),
                        bytewise_update(state, data),
                        "start {start} len {len} state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split_point() {
        let data = random_buffer(257);
        let whole = crc32(&data);
        assert_eq!(whole, bytewise_update(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 512];
        let good = crc32(&data);
        data[200] ^= 0x10;
        assert_ne!(crc32(&data), good);
    }
}
