//! The payload of an entrymap log entry.
//!
//! A level-`i` entrymap log entry appears every `N^i` blocks and contains,
//! for each active log file with entries in the previous `N^i` blocks, a
//! bitmap of size `N` indicating which sub-groups (blocks for level 1,
//! groups of `N^(i-1)` blocks for higher levels) contain such entries
//! (§2.1). From §3.5, an entrymap entry's size is `h + a(N/8 + c)` bytes:
//! `a` bitmaps of `N/8` bytes each plus a small per-file constant `c` (the
//! 2-byte file id here) and the entry header `h`.

use clio_types::{ClioError, LogFileId, Result, SmallBitmap};

/// A decoded entrymap log entry payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrymapRecord {
    /// Tree level: 1 covers blocks, 2 covers groups of `N`, and so on.
    pub level: u8,
    /// Which level-`level` group the record covers: the blocks
    /// `[group * N^level, (group + 1) * N^level)`. Normally implied by the
    /// record's location, but stored explicitly so a map displaced from an
    /// invalidated block (§2.3.2) remains self-identifying.
    pub group: u64,
    /// Bitmap width `N` (the tree degree).
    pub bits: u16,
    /// Whether further records for the same (`level`, `group`) follow in a
    /// *subsequent* block — set when a record's per-file maps are too
    /// numerous to fit the block that should carry them and the remainder
    /// is displaced forward (§2.3.2 spirit). Readers merge until they see a
    /// record with this flag clear.
    pub continued: bool,
    /// One bitmap per log file that has entries in the covered range,
    /// sorted by id.
    pub maps: Vec<(LogFileId, SmallBitmap)>,
}

impl EntrymapRecord {
    /// Creates a record; the map list is sorted by id for determinism.
    #[must_use]
    pub fn new(
        level: u8,
        group: u64,
        bits: u16,
        mut maps: Vec<(LogFileId, SmallBitmap)>,
    ) -> EntrymapRecord {
        maps.sort_by_key(|(id, _)| *id);
        EntrymapRecord {
            level,
            group,
            bits,
            continued: false,
            maps,
        }
    }

    /// Fixed bytes before the per-file maps.
    pub const HEADER_LEN: usize = 14;

    /// Bytes per per-file map entry for a given bitmap width.
    #[must_use]
    pub fn per_map_len(bits: u16) -> usize {
        2 + usize::from(bits).div_ceil(8)
    }

    /// Encoded payload length in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        Self::HEADER_LEN + self.maps.len() * Self::per_map_len(self.bits)
    }

    /// Serializes the payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(self.level);
        out.extend_from_slice(&self.group.to_le_bytes());
        out.extend_from_slice(&self.bits.to_le_bytes());
        out.push(u8::from(self.continued));
        out.extend_from_slice(&(self.maps.len() as u16).to_le_bytes());
        for (id, bm) in &self.maps {
            out.extend_from_slice(&id.0.to_le_bytes());
            debug_assert_eq!(bm.len(), usize::from(self.bits));
            out.extend_from_slice(bm.as_bytes());
        }
        out
    }

    /// Parses a payload into an owned record: [`EntrymapRecordView::parse`]
    /// (the one validator) plus one bitmap built per listed log file.
    pub fn decode(data: &[u8]) -> Result<EntrymapRecord> {
        let view = EntrymapRecordView::parse(data)?;
        let maps = view
            .maps()
            .map(|(id, bytes)| {
                let bm = SmallBitmap::from_bytes(usize::from(view.bits), bytes)
                    .expect("invariant: parse sized every map to the record's width");
                (id, bm)
            })
            .collect();
        Ok(EntrymapRecord {
            level: view.level,
            group: view.group,
            bits: view.bits,
            continued: view.continued,
            maps,
        })
    }

    /// The bitmap for `id`, if the covered range contains its entries.
    #[must_use]
    pub fn map_for(&self, id: LogFileId) -> Option<&SmallBitmap> {
        self.maps
            .binary_search_by_key(&id, |(i, _)| *i)
            .ok()
            .map(|at| &self.maps[at].1)
    }
}

/// A validated entrymap record payload, borrowed: the header fields decoded,
/// the per-file table left in place. Searches ask a record about the few
/// ids they care about; this answers from the encoded bytes, where an owned
/// [`EntrymapRecord`] would first build a bitmap for every log file listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntrymapRecordView<'a> {
    /// Tree level; see [`EntrymapRecord::level`].
    pub level: u8,
    /// The level-`level` group covered; see [`EntrymapRecord::group`].
    pub group: u64,
    /// Bitmap width `N`.
    pub bits: u16,
    /// Whether further records for the same (`level`, `group`) follow in a
    /// subsequent block; see [`EntrymapRecord::continued`].
    pub continued: bool,
    /// The per-file table: entries of [`EntrymapRecord::per_map_len`] bytes,
    /// a 2-byte id then the bitmap, in the encoder's id order.
    table: &'a [u8],
}

impl<'a> EntrymapRecordView<'a> {
    /// Validates a payload — the header, the table's length against its
    /// count, every id's range — without copying or allocating.
    pub fn parse(data: &'a [u8]) -> Result<EntrymapRecordView<'a>> {
        let Some((head, rest)) = data.split_first_chunk::<{ EntrymapRecord::HEADER_LEN }>() else {
            return Err(ClioError::BadRecord("truncated entrymap record"));
        };
        let [level, g0, g1, g2, g3, g4, g5, g6, g7, b0, b1, continued, c0, c1] = *head;
        let bits = u16::from_le_bytes([b0, b1]);
        if bits == 0 || bits > 1024 {
            return Err(ClioError::BadRecord("implausible entrymap width"));
        }
        let count = usize::from(u16::from_le_bytes([c0, c1]));
        let per = EntrymapRecord::per_map_len(bits);
        let Some(table) = rest.get(..count * per) else {
            return Err(ClioError::BadRecord("truncated entrymap bitmaps"));
        };
        if table
            .chunks_exact(per)
            .any(|e| LogFileId::new(u16::from_le_bytes([e[0], e[1]])).is_none())
        {
            return Err(ClioError::BadRecord("entrymap id out of range"));
        }
        Ok(EntrymapRecordView {
            level,
            group: u64::from_le_bytes([g0, g1, g2, g3, g4, g5, g6, g7]),
            bits,
            continued: continued != 0,
            table,
        })
    }

    /// The listed log files and their bitmaps' bytes
    /// ([`SmallBitmap::as_bytes`] form), in table order.
    pub fn maps(&self) -> impl ExactSizeIterator<Item = (LogFileId, &'a [u8])> {
        self.table
            .chunks_exact(EntrymapRecord::per_map_len(self.bits))
            .map(|e| (LogFileId(u16::from_le_bytes([e[0], e[1]])), &e[2..]))
    }

    /// The bytes of the bitmap for `id`, if the covered range contains its
    /// entries: a binary search of the fixed-stride, id-sorted table.
    #[must_use]
    pub fn map_for(&self, id: LogFileId) -> Option<&'a [u8]> {
        let per = EntrymapRecord::per_map_len(self.bits);
        let (mut lo, mut hi) = (0, self.table.len() / per);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let e = &self.table[mid * per..(mid + 1) * per];
            match u16::from_le_bytes([e[0], e[1]]).cmp(&id.0) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(&e[2..]),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(bits: u16, ones: &[usize]) -> SmallBitmap {
        let mut b = SmallBitmap::new(usize::from(bits));
        for &i in ones {
            b.set(i);
        }
        b
    }

    #[test]
    fn round_trip() {
        let rec = EntrymapRecord::new(
            2,
            31,
            16,
            vec![
                (LogFileId(9), bm(16, &[0, 15])),
                (LogFileId(2), bm(16, &[3])),
            ],
        );
        let bytes = rec.encode();
        assert_eq!(bytes.len(), rec.encoded_len());
        let back = EntrymapRecord::decode(&bytes).unwrap();
        assert_eq!(back, rec);
        // Sorted by id.
        assert_eq!(back.maps[0].0, LogFileId(2));
    }

    #[test]
    fn map_lookup() {
        let rec = EntrymapRecord::new(1, 0, 8, vec![(LogFileId(8), bm(8, &[1]))]);
        assert!(rec.map_for(LogFileId(8)).unwrap().get(1));
        assert!(rec.map_for(LogFileId(9)).is_none());
    }

    #[test]
    fn empty_record_is_legal() {
        // A quiet period can still force an (empty) entrymap entry.
        let rec = EntrymapRecord::new(1, 5, 16, vec![]);
        let back = EntrymapRecord::decode(&rec.encode()).unwrap();
        assert!(back.maps.is_empty());
        assert_eq!(back.encoded_len(), EntrymapRecord::HEADER_LEN);
    }

    #[test]
    fn decode_rejects_truncation_and_junk() {
        assert!(EntrymapRecord::decode(&[]).is_err());
        assert!(EntrymapRecord::decode(&[1, 16, 0]).is_err());
        let rec = EntrymapRecord::new(1, 0, 16, vec![(LogFileId(8), bm(16, &[0]))]);
        let mut bytes = rec.encode();
        bytes.truncate(bytes.len() - 1);
        assert!(EntrymapRecord::decode(&bytes).is_err());
        // Zero-width bitmaps are implausible.
        assert!(EntrymapRecord::decode(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn view_answers_from_the_encoded_bytes() {
        let mut rec = EntrymapRecord::new(
            2,
            31,
            12,
            vec![
                (LogFileId(9), bm(12, &[0, 11])),
                (LogFileId(2), bm(12, &[3])),
                (LogFileId(700), bm(12, &[])),
            ],
        );
        rec.continued = true;
        let bytes = rec.encode();
        let view = EntrymapRecordView::parse(&bytes).unwrap();
        assert_eq!(
            (view.level, view.group, view.bits, view.continued),
            (2, 31, 12, true)
        );
        let listed: Vec<_> = view.maps().collect();
        assert_eq!(listed.len(), 3);
        for ((id, raw), (want_id, want)) in listed.iter().zip(&rec.maps) {
            assert_eq!((id, *raw), (want_id, want.as_bytes()));
        }
        assert_eq!(
            view.map_for(LogFileId(9)),
            Some(bm(12, &[0, 11]).as_bytes())
        );
        assert_eq!(view.map_for(LogFileId(700)), Some(&[0u8, 0][..]));
        for absent in [0u16, 3, 10, 701] {
            assert_eq!(view.map_for(LogFileId(absent)), None);
        }
        // Bytes past the table are not the record's, as for `decode`.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0xFF; 5]);
        assert_eq!(EntrymapRecord::decode(&padded).unwrap(), rec);
    }

    #[test]
    fn an_id_out_of_range_is_rejected() {
        let rec = EntrymapRecord::new(1, 0, 16, vec![(LogFileId(8), bm(16, &[0]))]);
        let mut bytes = rec.encode();
        bytes[EntrymapRecord::HEADER_LEN + 1] = 0xFF;
        assert!(EntrymapRecordView::parse(&bytes).is_err());
        assert!(EntrymapRecord::decode(&bytes).is_err());
    }

    #[test]
    fn continued_flag_round_trips() {
        let mut rec = EntrymapRecord::new(1, 3, 16, vec![(LogFileId(8), bm(16, &[2]))]);
        rec.continued = true;
        let back = EntrymapRecord::decode(&rec.encode()).unwrap();
        assert!(back.continued);
        assert_eq!(back, rec);
    }

    #[test]
    fn size_matches_paper_formula() {
        // §3.5: an entrymap entry's size is h + a(N/8 + c); our payload part
        // is a(N/8 + 2) + 5 fixed bytes.
        let n = 16u16;
        for a in [0usize, 1, 5, 40] {
            let maps: Vec<_> = (0..a)
                .map(|i| (LogFileId(8 + i as u16), bm(n, &[i % 16])))
                .collect();
            let rec = EntrymapRecord::new(1, 0, n, maps);
            assert_eq!(
                rec.encoded_len(),
                EntrymapRecord::HEADER_LEN + a * (usize::from(n) / 8 + 2)
            );
        }
    }
}
