//! Fuzz-style robustness: every decoder must reject arbitrary bytes with
//! an error, never panic, and round-trip what it encodes even when the
//! image is then perturbed. Runs on `clio_testkit::prop`.

use clio_format::records::{BadBlockRecord, CatalogRecord};
use clio_format::{BlockView, EntryHeader, EntrymapRecord, EntrymapRecordView, VolumeLabel};
use clio_testkit::prop::{any_u64, any_u8, bools, bytes, check, pair, quad, u16s, usizes};
use clio_testkit::rng::StdRng;
use clio_types::{LogFileId, SmallBitmap};

const CASES: u32 = 256;

#[test]
fn entry_header_decode_never_panics() {
    check(
        "entry_header_decode_never_panics",
        CASES,
        &bytes(0..40),
        |noise| {
            let _ = EntryHeader::decode(noise);
        },
    );
}

#[test]
fn entrymap_record_decode_never_panics() {
    check(
        "entrymap_record_decode_never_panics",
        CASES,
        &bytes(0..300),
        |noise| {
            let _ = EntrymapRecord::decode(noise);
        },
    );
}

#[test]
fn catalog_record_decode_never_panics() {
    check(
        "catalog_record_decode_never_panics",
        CASES,
        &bytes(0..300),
        |noise| {
            let _ = CatalogRecord::decode(noise);
        },
    );
}

#[test]
fn bad_block_record_decode_never_panics() {
    check(
        "bad_block_record_decode_never_panics",
        CASES,
        &bytes(0..20),
        |noise| {
            let _ = BadBlockRecord::decode(noise);
        },
    );
}

#[test]
fn volume_label_decode_never_panics() {
    check(
        "volume_label_decode_never_panics",
        CASES,
        &bytes(0..2048),
        |noise| {
            let _ = VolumeLabel::decode(noise);
        },
    );
}

#[test]
fn block_view_never_panics_on_truncated_or_extended_images() {
    let g = pair(&usizes(0..1024), &usizes(0..64));
    check(
        "block_view_never_panics_on_truncated_or_extended_images",
        CASES,
        &g,
        |(cut, pad)| {
            // Build a real block, then hand the parser a wrong-length slice.
            use clio_format::{BlockBuilder, EntryForm};
            use clio_types::{LogFileId, Timestamp};
            let mut b = BlockBuilder::new(1024, Timestamp(5));
            let h = EntryHeader::new(
                LogFileId(8),
                EntryForm::Timestamped,
                Some(Timestamp(6)),
                None,
            );
            let _ = b.push(&h, b"payload bytes");
            let mut img = b.finish();
            let cut = (*cut).min(img.len());
            let _ = BlockView::parse(&img[..cut]);
            img.extend(std::iter::repeat_n(0xA5u8, *pad));
            let _ = BlockView::parse(&img);
        },
    );
}

#[test]
fn catalog_record_survives_arbitrary_mutation_without_panic() {
    let g = pair(&usizes(0..200), &any_u8());
    check(
        "catalog_record_survives_arbitrary_mutation_without_panic",
        CASES,
        &g,
        |(at, val)| {
            use clio_format::records::LogFileAttrs;
            use clio_types::{LogFileId, Timestamp};
            let rec = CatalogRecord::Checkpoint {
                next_id: 42,
                files: vec![LogFileAttrs {
                    id: LogFileId(8),
                    parent: LogFileId(0),
                    perms: 3,
                    created: Timestamp(9),
                    sealed: false,
                    name: "mutated".into(),
                }],
            };
            let mut bytes = rec.encode();
            let i = at % bytes.len();
            bytes[i] = *val;
            // Must decode to something or error — never panic, never hang.
            let _ = CatalogRecord::decode(&bytes);
        },
    );
}

/// The owned decoder as it was before `EntrymapRecord::decode` became
/// `EntrymapRecordView::parse` + collect: the oracle for what the one
/// validator must accept and reject.
fn reference_decode(data: &[u8]) -> Option<EntrymapRecord> {
    if data.len() < EntrymapRecord::HEADER_LEN {
        return None;
    }
    let bits = u16::from_le_bytes([data[9], data[10]]);
    if bits == 0 || bits > 1024 {
        return None;
    }
    let count = usize::from(u16::from_le_bytes([data[12], data[13]]));
    let per = EntrymapRecord::per_map_len(bits);
    if data.len() < EntrymapRecord::HEADER_LEN + count * per {
        return None;
    }
    let mut maps = Vec::with_capacity(count);
    for entry in data[EntrymapRecord::HEADER_LEN..]
        .chunks_exact(per)
        .take(count)
    {
        let id = LogFileId::new(u16::from_le_bytes([entry[0], entry[1]]))?;
        maps.push((id, SmallBitmap::from_bytes(usize::from(bits), &entry[2..])?));
    }
    Some(EntrymapRecord {
        level: data[0],
        group: u64::from_le_bytes(data[1..9].try_into().unwrap()),
        bits,
        continued: data[11] != 0,
        maps,
    })
}

/// A record as the writer makes them: `count` distinct ids, `bits`-wide
/// bitmaps of seeded noise.
fn seeded_record(bits: u16, count: usize, continued: bool, seed: u64) -> EntrymapRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < count {
        ids.insert(rng.gen_range(0u16..4096));
    }
    let maps = ids
        .into_iter()
        .map(|id| {
            let mut raw = vec![0u8; usize::from(bits).div_ceil(8)];
            rng.fill(&mut raw);
            (
                LogFileId(id),
                SmallBitmap::from_bytes(usize::from(bits), &raw).unwrap(),
            )
        })
        .collect();
    let mut rec = EntrymapRecord::new(rng.next_u32() as u8, rng.next_u64(), bits, maps);
    rec.continued = continued;
    rec
}

/// The borrowed view is the one validator: it accepts exactly what the
/// owned decoder accepted, and on what it accepts the two agree.
fn assert_view_agrees(data: &[u8]) {
    let want = reference_decode(data);
    let view = EntrymapRecordView::parse(data);
    assert_eq!(view.is_ok(), want.is_some());
    assert_eq!(EntrymapRecord::decode(data).ok(), want);
    let (Ok(view), Some(want)) = (view, want) else {
        return;
    };
    assert_eq!(
        (view.level, view.group, view.bits, view.continued),
        (want.level, want.group, want.bits, want.continued)
    );
    // Stray bits above the width are the bytes' own; the owned bitmap
    // masks them, and so does every use of the raw bytes.
    let masked = |raw: &[u8]| SmallBitmap::from_bytes(usize::from(view.bits), raw).unwrap();
    assert_eq!(view.maps().len(), want.maps.len());
    for ((id, raw), (want_id, want_bm)) in view.maps().zip(&want.maps) {
        assert_eq!((id, &masked(raw)), (*want_id, want_bm));
        assert_eq!(
            SmallBitmap::any_in(usize::from(view.bits), raw),
            want_bm.any()
        );
    }
}

#[test]
fn entrymap_record_view_agrees_with_decode() {
    check(
        "entrymap_record_view_agrees_with_decode/noise",
        CASES,
        &bytes(0..300),
        |noise| assert_view_agrees(noise),
    );
    // Noise behind a header that passes the width check, so the table
    // checks (length against count, id range) are what decides.
    check(
        "entrymap_record_view_agrees_with_decode/plausible_header",
        CASES,
        &quad(&u16s(1..40), &u16s(0..12), &bytes(0..120), &any_u8()),
        |(bits, count, table, level)| {
            let mut data = vec![*level; 9];
            data.extend_from_slice(&bits.to_le_bytes());
            data.push(level & 1);
            data.extend_from_slice(&count.to_le_bytes());
            data.extend_from_slice(table);
            assert_view_agrees(&data);
        },
    );
    let recs = quad(&u16s(2..1025), &usizes(0..601), &bools(), &any_u64());
    check(
        "entrymap_record_view_agrees_with_decode/encoded",
        64,
        &recs,
        |(bits, count, continued, seed)| {
            let rec = seeded_record(*bits, *count, *continued, *seed);
            let data = rec.encode();
            assert_eq!(reference_decode(&data).as_ref(), Some(&rec));
            assert_view_agrees(&data);
            // What `encode` produced has no stray bits: the view hands
            // out the owned record's bytes, for every id there is.
            let view = EntrymapRecordView::parse(&data).unwrap();
            for ((id, raw), (want_id, want_bm)) in view.maps().zip(&rec.maps) {
                assert_eq!((id, raw), (*want_id, want_bm.as_bytes()));
            }
            for id in (0..4096).map(LogFileId) {
                assert_eq!(
                    view.map_for(id),
                    rec.map_for(id).map(SmallBitmap::as_bytes),
                    "{id}"
                );
            }
        },
    );
    // One bit flipped, or the tail cut off, anywhere in a real record.
    let damaged = pair(
        &quad(&u16s(2..65), &usizes(0..40), &bools(), &any_u64()),
        &pair(&any_u64(), &bools()),
    );
    check(
        "entrymap_record_view_agrees_with_decode/damaged",
        CASES,
        &damaged,
        |((bits, count, continued, seed), (at, cut))| {
            let mut data = seeded_record(*bits, *count, *continued, *seed).encode();
            let at = (*at % (data.len() as u64 * 8)) as usize;
            if *cut {
                data.truncate(at / 8);
            } else {
                data[at / 8] ^= 1 << (at % 8);
            }
            assert_view_agrees(&data);
        },
    );
}
