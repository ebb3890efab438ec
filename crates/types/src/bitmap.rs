//! A small, fixed-width bitmap.
//!
//! Entrymap log entries carry one bitmap of `N` bits per active log file
//! (§2.1): bit `j` of a level-`i` bitmap says whether the `j`-th sub-group of
//! `N^(i-1)` blocks contains entries of that log file.

use std::fmt;

/// A bitmap over a fixed number of bits, stored little-endian by byte.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SmallBitmap {
    bits: usize,
    bytes: Vec<u8>,
}

impl SmallBitmap {
    /// Creates an all-zero bitmap of `bits` bits.
    #[must_use]
    pub fn new(bits: usize) -> SmallBitmap {
        SmallBitmap {
            bits,
            bytes: vec![0; bits.div_ceil(8)],
        }
    }

    /// Reconstructs a bitmap from its byte representation.
    ///
    /// Returns `None` if `bytes` is too short for `bits`.
    #[must_use]
    pub fn from_bytes(bits: usize, bytes: &[u8]) -> Option<SmallBitmap> {
        if bytes.len() < bits.div_ceil(8) {
            return None;
        }
        let mut bm = SmallBitmap {
            bits,
            bytes: bytes[..bits.div_ceil(8)].to_vec(),
        };
        bm.mask_spare();
        Some(bm)
    }

    /// Clears stray bits above `bits` in the last byte, so equality is
    /// structural.
    fn mask_spare(&mut self) {
        if let Some(last) = self.bytes.last_mut() {
            *last &= spare_mask(self.bits);
        }
    }

    /// Whether `bytes` — the byte representation of a `bits`-wide bitmap,
    /// as [`SmallBitmap::as_bytes`] gives it — has any bit set. Answers
    /// what `from_bytes(bits, bytes)` followed by [`SmallBitmap::any`]
    /// would, without building the bitmap.
    #[must_use]
    pub fn any_in(bits: usize, bytes: &[u8]) -> bool {
        match bytes.get(..bits.div_ceil(8)).and_then(<[u8]>::split_last) {
            Some((last, full)) => full.iter().any(|&b| b != 0) || last & spare_mask(bits) != 0,
            None => false,
        }
    }

    /// Number of bits in the bitmap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the bitmap has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The underlying bytes (`ceil(bits / 8)` of them).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`; bit indices come from block arithmetic and an
    /// out-of-range index is a bug, not an input error.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        self.bytes[i / 8] |= 1 << (i % 8);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        self.bytes[i / 8] &= !(1 << (i % 8));
    }

    /// Reads bit `i`; out-of-range bits read as 0.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.bits {
            return false;
        }
        self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    /// Whether any bit is set.
    #[must_use]
    pub fn any(&self) -> bool {
        self.bytes.iter().any(|&b| b != 0)
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.bytes.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bits).filter(move |&i| self.get(i))
    }

    /// The highest set bit strictly below `limit`, if any.
    #[must_use]
    pub fn highest_below(&self, limit: usize) -> Option<usize> {
        (0..limit.min(self.bits)).rev().find(|&i| self.get(i))
    }

    /// The lowest set bit at or above `from`, if any.
    #[must_use]
    pub fn lowest_at_or_above(&self, from: usize) -> Option<usize> {
        (from..self.bits).find(|&i| self.get(i))
    }

    /// In-place union with another bitmap of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn union_with(&mut self, other: &SmallBitmap) {
        assert_eq!(self.bits, other.bits, "bitmap width mismatch");
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a |= b;
        }
    }

    /// In-place union with the byte representation of a bitmap of the same
    /// width, as [`SmallBitmap::as_bytes`] gives it — what
    /// `union_with(&from_bytes(len, bytes))` does, without building the
    /// second bitmap.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly `as_bytes().len()` long.
    pub fn union_with_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.bytes.len(), bytes.len(), "bitmap width mismatch");
        for (a, b) in self.bytes.iter_mut().zip(bytes) {
            *a |= b;
        }
        self.mask_spare();
    }
}

/// The bits of a `bits`-wide bitmap's last byte that belong to it.
fn spare_mask(bits: usize) -> u8 {
    0xFF >> (bits.div_ceil(8) * 8 - bits)
}

impl fmt::Debug for SmallBitmap {
    /// Renders e.g. `SmallBitmap(0010_1000)`, bit 0 first — the same
    /// orientation as the block order it indexes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SmallBitmap(")?;
        for i in 0..self.bits {
            if i > 0 && i % 4 == 0 {
                write!(f, "_")?;
            }
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bm = SmallBitmap::new(16);
        assert!(!bm.any());
        bm.set(0);
        bm.set(15);
        assert!(bm.get(0) && bm.get(15) && !bm.get(7));
        assert_eq!(bm.count_ones(), 2);
        bm.clear(0);
        assert!(!bm.get(0));
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        SmallBitmap::new(8).set(8);
    }

    #[test]
    fn get_out_of_range_is_false() {
        let bm = SmallBitmap::new(8);
        assert!(!bm.get(100));
    }

    #[test]
    fn byte_round_trip_masks_spare_bits() {
        let mut bm = SmallBitmap::new(12);
        bm.set(3);
        bm.set(11);
        let bytes = bm.as_bytes().to_vec();
        assert_eq!(bytes.len(), 2);
        // Feed bytes with junk in the spare high bits.
        let mut noisy = bytes.clone();
        noisy[1] |= 0xF0;
        let back = SmallBitmap::from_bytes(12, &noisy).unwrap();
        assert_eq!(back, bm);
    }

    #[test]
    fn from_bytes_rejects_short_input() {
        assert!(SmallBitmap::from_bytes(16, &[0u8; 1]).is_none());
    }

    #[test]
    fn search_helpers() {
        let mut bm = SmallBitmap::new(16);
        bm.set(2);
        bm.set(9);
        assert_eq!(bm.highest_below(16), Some(9));
        assert_eq!(bm.highest_below(9), Some(2));
        assert_eq!(bm.highest_below(2), None);
        assert_eq!(bm.lowest_at_or_above(0), Some(2));
        assert_eq!(bm.lowest_at_or_above(3), Some(9));
        assert_eq!(bm.lowest_at_or_above(10), None);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![2, 9]);
    }

    #[test]
    fn union() {
        let mut a = SmallBitmap::new(8);
        let mut b = SmallBitmap::new(8);
        a.set(1);
        b.set(6);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 6]);
    }

    #[test]
    fn byte_forms_agree_with_the_owned_bitmap() {
        for bits in [1usize, 4, 8, 12, 16, 1024] {
            let len = bits.div_ceil(8);
            for fill in [0x00u8, 0x01, 0x80, 0xF0, 0xFF] {
                let mut raw = vec![0u8; len];
                raw[len - 1] = fill;
                let owned = SmallBitmap::from_bytes(bits, &raw).unwrap();
                assert_eq!(
                    SmallBitmap::any_in(bits, &raw),
                    owned.any(),
                    "{bits} {fill:#x}"
                );
                let mut acc = SmallBitmap::new(bits);
                acc.set(0);
                let mut want = acc.clone();
                want.union_with(&owned);
                acc.union_with_bytes(&raw);
                assert_eq!(acc, want, "{bits} {fill:#x}");
            }
        }
        assert!(
            !SmallBitmap::any_in(16, &[0xFF]),
            "too short reads as empty"
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn union_with_bytes_of_another_width_panics() {
        SmallBitmap::new(16).union_with_bytes(&[0u8; 1]);
    }

    #[test]
    fn zero_width_is_empty() {
        let bm = SmallBitmap::new(0);
        assert!(bm.is_empty());
        assert!(!bm.any());
        assert_eq!(bm.as_bytes().len(), 0);
    }
}
