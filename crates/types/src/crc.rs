//! CRC32 (IEEE 802.3 polynomial): carry-less-multiply folding where the
//! CPU has it, table-driven slice-by-8 everywhere else.
//!
//! Clio assumes it can detect blocks that were "written with garbage"
//! (§2.3.2). A CRC in each block trailer is our concrete detection
//! mechanism; it is implemented here so the workspace needs no extra
//! dependency. Every block read off a medium is checked once, so this
//! loop sits on the read miss's per-block cost. On x86-64 with
//! `pclmulqdq` and SSE4.1 (detected at run time), inputs of 64 bytes or
//! more fold four 128-bit lanes per 64-byte step (`fold`, the one
//! `unsafe` function in the workspace). Shorter inputs, other CPUs and
//! the fold's sub-16-byte tail use the slice-by-8 form (eight table
//! lookups per 64-bit load, no byte-to-byte dependency inside a step),
//! with the one-byte Sarwate loop only for the tail shorter than a word.
//! Both compute the same function: every CRC value, and so the on-disk
//! format, is the same whichever runs.

/// The reflected IEEE CRC32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight consecutive input bytes fold into the state with eight
/// independent lookups. `TABLES[0]` is the classic byte-at-a-time table.
static TABLES: [[u32; 256]; 8] = {
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
    #[cfg(target_arch = "x86_64")]
    if let Some(c) = fold(state, data) {
        return c;
    }
    slice_by_8(state, data)
}

/// The shortest input [`fold`] takes: its four 16-byte lanes.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

/// CRC update by carry-less-multiply folding (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009, in its bit-reflected form): `None` when `data` is shorter
/// than [`FOLD_MIN`] or the CPU lacks `pclmulqdq` or SSE4.1.
///
/// Four 128-bit accumulators each fold the lane 64 bytes ahead
/// (x^512 mod P), then fold into one (x^128 mod P), which folds the
/// remaining 16-byte chunks; the 128-bit remainder is reduced to 64 and
/// then 32 bits by a Barrett reduction. The constants are those of the
/// reflected IEEE polynomial, shifted left one bit as the reflected
/// multiply requires. Bytes past the last 16-byte chunk go to
/// [`slice_by_8`].
#[cfg(target_arch = "x86_64")]
fn fold(state: u32, data: &[u8]) -> Option<u32> {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// x^(4·128+32) and x^(4·128−32) mod P: fold across 64 bytes.
    const K1K2: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// x^(128+32) and x^(128−32) mod P: fold across 16 bytes.
    const K3K4: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// x^64 mod P: 96 → 64 bits.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) and the Barrett constant ⌊x^64 / P(x)⌋, both reflected.
    const P_MU: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    /// Every intrinsic below needs only the features checked before
    /// this is called, and every load reads 16 bytes the slice holds.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn run(state: u32, data: &[u8]) -> u32 {
        let load = |chunk: &[u8]| _mm_loadu_si128(chunk.as_ptr().cast::<__m128i>());
        // `a` carried 128 bits further on (by the `k` pair), plus `b`.
        let carry = |a, b, k| {
            let lo = _mm_clmulepi64_si128::<0x00>(a, k);
            let hi = _mm_clmulepi64_si128::<0x11>(a, k);
            _mm_xor_si128(_mm_xor_si128(b, lo), hi)
        };
        let (head, rest) = data.split_at(FOLD_MIN);
        let mut x = [0, 16, 32, 48].map(|at| load(&head[at..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
        let mut steps = rest.chunks_exact(FOLD_MIN);
        for step in &mut steps {
            for (lane, at) in x.iter_mut().zip([0, 16, 32, 48]) {
                *lane = carry(*lane, load(&step[at..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);
        let mut acc = carry(carry(carry(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut chunks = steps.remainder().chunks_exact(16);
        for chunk in &mut chunks {
            acc = carry(acc, load(chunk), k3k4);
        }
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 → 96 → 64 bits.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is the high half of R ⊕ T2.
        let p_mu = _mm_set_epi64x(P_MU.1, P_MU.0);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        slice_by_8(c, chunks.remainder())
    }

    if data.len() < FOLD_MIN
        || !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
    {
        return None;
    }
    // SAFETY: the CPU has both features `run` enables (checked just
    // above), and `run` loads only within `data`.
    Some(unsafe { run(state, data) })
}

/// The table-driven update: the fallback and the fold's tail.
fn slice_by_8(state: u32, data: &[u8]) -> u32 {
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

    /// The fold's answer where this build and CPU have one.
    fn folded(state: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        return fold(state, data);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// The fold, slice-by-8 (called directly, so the fallback stays
    /// tested on a CPU that folds) and the bytewise oracle agree at every
    /// length 0 … 4 096, every start alignment 0 … 15 and three running
    /// states. The oracle extends one byte at a time, so each
    /// (start, state) costs one pass.
    #[test]
    fn fold_slice_by_8_and_bytewise_agree_at_every_length_alignment_and_state() {
        const MAX: usize = 4096;
        let buf = random_buffer(16 + MAX);
        let random_state = StdRng::seed_from_u64(0x57A7).next_u64() as u32;
        let mut folds = 0usize;
        for start in 0..16 {
            for state in [0xFFFF_FFFF, 0, random_state] {
                let mut oracle = state;
                for len in 0..=MAX {
                    let data = &buf[start..start + len];
                    let at = || format!("start {start} len {len} state {state:#x}");
                    assert_eq!(slice_by_8(state, data), oracle, "slice-by-8, {}", at());
                    assert_eq!(crc32_update(state, data), oracle, "dispatch, {}", at());
                    if let Some(f) = folded(state, data) {
                        assert_eq!(f, oracle, "fold, {}", at());
                        folds += 1;
                    }
                    if len < MAX {
                        oracle = bytewise_update(oracle, &buf[start + len..=start + len]);
                    }
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            assert_eq!(
                folds,
                16 * 3 * (MAX + 1 - FOLD_MIN),
                "the fold took every long input"
            );
        }
        println!("{folds} folded inputs checked");
    }

    /// Splits land on both sides of the 64-byte fold threshold and of
    /// every 16-byte chunk boundary.
    #[test]
    fn streaming_matches_oneshot_at_every_split_point() {
        let data = random_buffer(4096);
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
