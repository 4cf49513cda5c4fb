//! The 64-bit checksum of blocks and journals.
//!
//! The `Directory` backend stores an 8-byte checksum alongside every block
//! and verifies it on read, turning silent device corruption (injected by a
//! [`crate::FaultPlan`] or real-world bit rot) into a detectable
//! [`crate::EmError::Corrupt`] instead of wrong answers. Journal envelopes
//! carry the same checksum of their body.
//!
//! The function is XXH64 with seed 0: four independent 64-bit lanes over
//! little-endian words, so a block costs a few multiplies per 32 bytes
//! rather than one dependent multiply per byte. It is not cryptographic —
//! the threat model is accidental corruption (torn writes, flipped bits),
//! where a 64-bit checksum's miss probability (~2⁻⁶⁴ per block) is
//! negligible — and it is deterministic across platforms, so on-disk files
//! are verifiable anywhere.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("slice of 8 bytes"))
}

/// 64-bit checksum of a byte slice (XXH64, seed 0).
pub fn block_checksum(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, w) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, merge)
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for w in words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("slice of 4 bytes"));
        h = (h ^ (half as u64).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_xxh64_spec_vectors() {
        assert_eq!(block_checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(block_checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    /// A deterministic, non-trivial byte pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    fn assert_flips_detected(data: &[u8], bits: impl Iterator<Item = usize>) {
        let base = block_checksum(data);
        let mut b = data.to_vec();
        for bit in bits {
            b[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(block_checksum(&b), base, "len {} bit {bit}", data.len());
            b[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn single_bit_flip_in_a_full_block_changes_checksum() {
        // An 8 KiB block is 256 whole stripes, so it exercises the four
        // lanes; a stride coprime to 64 still hits every lane and every
        // bit position within a word.
        let stride = if cfg!(debug_assertions) { 7 } else { 1 };
        assert_flips_detected(&pattern(8192), (0..8192 * 8).step_by(stride));
        // The tail paths: one 8-byte word, one 4-byte half word and three
        // single bytes after the stripes.
        assert_flips_detected(&pattern(8192 + 15), 8192 * 8..(8192 + 15) * 8);
        // And a short input that never reaches the lanes.
        assert_flips_detected(&pattern(31), 0..31 * 8);
    }

    #[test]
    fn zero_inputs_of_every_length_are_distinct() {
        let sums: std::collections::HashSet<u64> =
            (0..=64).map(|n| block_checksum(&vec![0u8; n])).collect();
        assert_eq!(sums.len(), 65);
    }
}
