//! The volume label — block 0 of every log volume.
//!
//! A log volume is "the removable, physical storage medium, such as an
//! optical disk, on which log data is stored" (§2). The label fixes the
//! volume's identity, its position within its volume sequence (§2.1), and
//! the geometry every other structure depends on (block size and entrymap
//! degree `N`). It is written once, when the volume is initialized, and is
//! the only block that is not part of the volume-sequence log.

use clio_types::crc::crc32;
use clio_types::{
    ClioError, Result, Timestamp, VolumeId, VolumeSeqId, DEFAULT_FANOUT, MAX_FANOUT, MIN_BLOCK_SIZE,
};

/// Magic number identifying a Clio volume label.
const MAGIC: u32 = 0xC110_0001;

/// The contents of block 0 of a volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolumeLabel {
    /// This volume's identity.
    pub volume: VolumeId,
    /// The volume sequence this volume belongs to.
    pub sequence: VolumeSeqId,
    /// Position of this volume within the sequence (0 = first).
    pub volume_index: u32,
    /// The preceding volume in the sequence, if any.
    pub predecessor: Option<VolumeId>,
    /// Block size in bytes; constant across a volume sequence.
    pub block_size: u32,
    /// Entrymap tree degree `N`; constant across a volume sequence.
    pub fanout: u16,
    /// When the volume was initialized.
    pub created: Timestamp,
}

impl VolumeLabel {
    /// A label for the first volume of a fresh sequence with default
    /// geometry.
    #[must_use]
    pub fn first(
        volume: VolumeId,
        sequence: VolumeSeqId,
        block_size: u32,
        created: Timestamp,
    ) -> VolumeLabel {
        VolumeLabel {
            volume,
            sequence,
            volume_index: 0,
            predecessor: None,
            block_size,
            fanout: DEFAULT_FANOUT as u16,
            created,
        }
    }

    /// The label for the successor of `self` (§2.1: "whenever a volume
    /// fills up, a (previously unused) successor volume is loaded, with
    /// this successor being logically a continuation of its predecessor").
    #[must_use]
    pub fn successor(&self, volume: VolumeId, created: Timestamp) -> VolumeLabel {
        VolumeLabel {
            volume,
            sequence: self.sequence,
            volume_index: self.volume_index + 1,
            predecessor: Some(self.volume),
            block_size: self.block_size,
            fanout: self.fanout,
            created,
        }
    }

    /// Serializes the label to a full block image of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `self.block_size` disagrees with `block_size` or is too
    /// small — geometry mismatches are configuration bugs.
    #[must_use]
    pub fn encode(&self, block_size: usize) -> Vec<u8> {
        assert_eq!(self.block_size as usize, block_size, "geometry mismatch");
        assert!(block_size >= MIN_BLOCK_SIZE, "block too small for a label");
        let mut out = vec![0u8; block_size];
        out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        out[4..12].copy_from_slice(&self.volume.0.to_le_bytes());
        out[12..20].copy_from_slice(&self.sequence.0.to_le_bytes());
        out[20..24].copy_from_slice(&self.volume_index.to_le_bytes());
        out[24] = u8::from(self.predecessor.is_some());
        out[25..33].copy_from_slice(&self.predecessor.unwrap_or(VolumeId(0)).0.to_le_bytes());
        out[33..37].copy_from_slice(&self.block_size.to_le_bytes());
        out[37..39].copy_from_slice(&self.fanout.to_le_bytes());
        out[39..47].copy_from_slice(&self.created.0.to_le_bytes());
        let crc = crc32(&out[..block_size - 4]);
        out[block_size - 4..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a label block.
    pub fn decode(bytes: &[u8]) -> Result<VolumeLabel> {
        use clio_types::BlockNo;
        if bytes.len() < MIN_BLOCK_SIZE {
            return Err(ClioError::BadRecord("label block too small"));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(ClioError::CorruptBlock(BlockNo(0)));
        }
        let crc_stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if crc32(&bytes[..bytes.len() - 4]) != crc_stored {
            return Err(ClioError::CorruptBlock(BlockNo(0)));
        }
        let volume = VolumeId(u64::from_le_bytes(bytes[4..12].try_into().expect("8")));
        let sequence = VolumeSeqId(u64::from_le_bytes(bytes[12..20].try_into().expect("8")));
        let volume_index = u32::from_le_bytes(bytes[20..24].try_into().expect("4"));
        let predecessor = (bytes[24] != 0)
            .then(|| VolumeId(u64::from_le_bytes(bytes[25..33].try_into().expect("8"))));
        let block_size = u32::from_le_bytes(bytes[33..37].try_into().expect("4"));
        let fanout = u16::from_le_bytes(bytes[37..39].try_into().expect("2"));
        if block_size as usize != bytes.len() {
            return Err(ClioError::BadRecord(
                "label block size disagrees with image",
            ));
        }
        if !(2..=MAX_FANOUT).contains(&usize::from(fanout)) {
            return Err(ClioError::BadRecord("fanout outside 2..=1024"));
        }
        let created = Timestamp(u64::from_le_bytes(bytes[39..47].try_into().expect("8")));
        Ok(VolumeLabel {
            volume,
            sequence,
            volume_index,
            predecessor,
            block_size,
            fanout,
            created,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_first_volume() {
        let label = VolumeLabel::first(VolumeId(7), VolumeSeqId(9), 1024, Timestamp(5));
        let img = label.encode(1024);
        assert_eq!(img.len(), 1024);
        assert_eq!(VolumeLabel::decode(&img).unwrap(), label);
    }

    #[test]
    fn successor_chains() {
        let v0 = VolumeLabel::first(VolumeId(1), VolumeSeqId(9), 512, Timestamp(5));
        let v1 = v0.successor(VolumeId(2), Timestamp(99));
        assert_eq!(v1.volume_index, 1);
        assert_eq!(v1.predecessor, Some(VolumeId(1)));
        assert_eq!(v1.sequence, v0.sequence);
        assert_eq!(v1.block_size, v0.block_size);
        let img = v1.encode(512);
        assert_eq!(VolumeLabel::decode(&img).unwrap(), v1);
    }

    #[test]
    fn corruption_is_detected() {
        let label = VolumeLabel::first(VolumeId(7), VolumeSeqId(9), 256, Timestamp(5));
        let mut img = label.encode(256);
        img[8] ^= 1;
        assert!(VolumeLabel::decode(&img).is_err());
        // Not a label at all.
        assert!(VolumeLabel::decode(&vec![0u8; 256]).is_err());
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn encode_checks_geometry() {
        let label = VolumeLabel::first(VolumeId(7), VolumeSeqId(9), 1024, Timestamp(5));
        let _ = label.encode(512);
    }

    #[test]
    fn decode_rejects_wrong_image_size() {
        let label = VolumeLabel::first(VolumeId(7), VolumeSeqId(9), 1024, Timestamp(5));
        let img = label.encode(1024);
        // Truncated to half: CRC is elsewhere, magic still present.
        assert!(VolumeLabel::decode(&img[..512]).is_err());
    }

    /// A well-formed label from elsewhere must not reach `Geometry::new`
    /// with a degree it panics on: above the range used to pass.
    #[test]
    fn regression_decode_rejects_a_fanout_no_tree_can_have() {
        let mut label = VolumeLabel::first(VolumeId(7), VolumeSeqId(9), 256, Timestamp(5));
        for (fanout, ok) in [
            (0, false),
            (1, false),
            (2, true),
            (1024, true),
            (1025, false),
        ] {
            label.fanout = fanout;
            let got = VolumeLabel::decode(&label.encode(256));
            if ok {
                assert_eq!(got.unwrap().fanout, fanout);
            } else {
                assert!(
                    matches!(got, Err(ClioError::BadRecord(_))),
                    "{fanout}: {got:?}"
                );
            }
        }
    }
}
