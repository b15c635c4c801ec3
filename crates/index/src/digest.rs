//! Stable index digests for replica-convergence checks.
//!
//! The index digest ([`crate::storage::index_digest`]) is [`fnv1a64`] of the
//! persisted byte stream with every hub-column record and every node-state
//! record replaced by the 8 little-endian bytes of its own record hash
//! (`RecordHasher`). The per-record hashes are cached beside the records
//! (`DigestCell`), so an update re-hashes what it recomputed and nothing
//! else.
//!
//! Two hashes, two jobs. [`fnv1a64`] takes a byte at a time and hashes whole
//! files (golden tests, the router's shard fold, the outer fold of the index
//! digest). A record hash runs once per node state the sweep produces, so it
//! takes the record's bytes 8 at a time, read from the in-memory vectors
//! without encoding them first.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit over `bytes`. Stable across platforms and releases — the
/// digest is compared across processes and over the wire (`stats`), so it
/// must not depend on `std`'s randomized hashers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a64::default();
    hasher.update(bytes);
    hasher.finish()
}

/// Streaming [`fnv1a64`]: an `io::Write` sink, so the storage encoders
/// fold the index stream without buffering it.
pub(crate) struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    fn update(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl Write for Fnv1a64 {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Seed of [`RecordHasher`]: the first 64 bits of π's fraction.
const RECORD_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd multiplier of a [`RecordHasher`] step (⌊2⁶⁴/φ⌋, made odd).
const RECORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The stable hash of one persisted record, fed the record's byte stream as
/// typed values instead of bytes — so a record is hashed straight from its
/// vectors. The stream is cut into 8-byte little-endian words (a last
/// partial word is zero-padded) and each word `x` steps the state `h` to
/// `rotl((h ^ x)·M, 26)`; the byte count is folded in at the end and the
/// result finished by the murmur3 64-bit mixer. Each step is a bijection of
/// `h` for a fixed word and of the word for a fixed `h`, and the finish is a
/// bijection, so two streams of one length that differ in a single word —
/// a single bit, say — always hash apart. `record_hash` is the same hash
/// of an already encoded byte string, the reference this one is tested
/// against.
///
/// Every record field is 4 or 8 bytes wide, so at most 4 bytes wait for the
/// next value: the words straddling a `u32` boundary are assembled from the
/// halves.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecordHasher {
    state: u64,
    /// The low 4 bytes of the next word, valid while `half`.
    pending: u64,
    half: bool,
    bytes: u64,
}

impl Default for RecordHasher {
    fn default() -> Self {
        Self { state: RECORD_SEED, pending: 0, half: false, bytes: 0 }
    }
}

impl RecordHasher {
    #[inline]
    fn word(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(RECORD_MUL).rotate_left(26);
    }

    /// Appends a `u32` (4 little-endian bytes).
    #[inline]
    pub(crate) fn u32(&mut self, v: u32) {
        if self.half {
            self.word(self.pending | u64::from(v) << 32);
        } else {
            self.pending = u64::from(v);
        }
        self.half = !self.half;
        self.bytes += 4;
    }

    /// Appends a `u64` (8 little-endian bytes).
    #[inline]
    pub(crate) fn u64(&mut self, v: u64) {
        if self.half {
            self.word(self.pending | v << 32);
            self.pending = v >> 32;
        } else {
            self.word(v);
        }
        self.bytes += 8;
    }

    /// Appends `vs` as [`rtk_sparse::codec::write_u32_seq`] encodes it.
    pub(crate) fn u32_seq(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        let mut rest = vs;
        if self.half {
            if let Some((&first, tail)) = rest.split_first() {
                self.u32(first);
                rest = tail;
            }
        }
        let pairs = rest.chunks_exact(2);
        let last = pairs.remainder();
        for pair in pairs {
            self.word(u64::from(pair[0]) | u64::from(pair[1]) << 32);
        }
        self.bytes += 8 * (rest.len() / 2) as u64;
        if let Some(&v) = last.first() {
            self.u32(v);
        }
    }

    /// Appends `vs` as [`rtk_sparse::codec::write_f64_seq`] encodes it.
    pub(crate) fn f64_seq(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        if self.half {
            for v in vs {
                let bits = v.to_bits();
                self.word(self.pending | bits << 32);
                self.pending = bits >> 32;
            }
        } else {
            for v in vs {
                self.word(v.to_bits());
            }
        }
        self.bytes += 8 * vs.len() as u64;
    }

    /// The hash of everything appended.
    pub(crate) fn finish(mut self) -> u64 {
        if self.half {
            self.word(self.pending);
        }
        let mut h = self.state ^ self.bytes;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ h >> 33
    }
}

/// [`RecordHasher`] over an encoded byte string: the record hash defined on
/// bytes.
#[cfg(test)]
pub(crate) fn record_hash(bytes: &[u8]) -> u64 {
    let mut hasher = RecordHasher::default();
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for word in words {
        hasher.word(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        hasher.word(u64::from_le_bytes(last));
    }
    hasher.bytes = bytes.len() as u64;
    hasher.finish()
}

/// The cached record hash of one persisted record, kept beside the record.
///
/// `0` means "not computed": whoever needs the hash next computes and stores
/// it (a record whose hash is really `0` is re-hashed on every read —
/// correct, merely uncached). Filling happens behind `&self` — the digest is
/// read under the server's *read* lock — hence the atomic; the value
/// publishes no other data and every writer stores the same hash of the same
/// record, so `Relaxed` suffices. Invalidation needs `&mut self`: a record
/// only changes under exclusive access.
///
/// A cache is not part of its owner's identity: cells always compare equal.
#[derive(Debug, Default)]
pub(crate) struct DigestCell(AtomicU64);

impl DigestCell {
    /// A cell already holding `digest`.
    pub(crate) fn filled(digest: u64) -> Self {
        Self(AtomicU64::new(digest))
    }

    /// The record's hash: the cached one, computed by `hash` and stored if
    /// absent — or, with `cached` false, `hash()` with the cell left alone
    /// (the cold reference the cache is tested against).
    pub(crate) fn get_or(&self, cached: bool, hash: impl FnOnce() -> u64) -> u64 {
        match self.0.load(Ordering::Relaxed) {
            digest if cached && digest != 0 => digest,
            _ => {
                let digest = hash();
                if cached {
                    self.0.store(digest, Ordering::Relaxed);
                }
                digest
            }
        }
    }

    /// Forgets the cached hash (the record changed).
    pub(crate) fn clear(&mut self) {
        *self.0.get_mut() = 0;
    }
}

impl Clone for DigestCell {
    fn clone(&self) -> Self {
        Self::filled(self.0.load(Ordering::Relaxed))
    }
}

impl PartialEq for DigestCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn is_sensitive_to_single_byte_changes() {
        let a = fnv1a64(&[0u8; 64]);
        let mut buf = [0u8; 64];
        buf[63] = 1;
        assert_ne!(a, fnv1a64(&buf));
    }

    /// Every mix of 4- and 8-byte fields, sequences of every short length
    /// at either alignment: the typed stream hashes as its encoded bytes.
    #[test]
    fn a_record_hasher_hashes_its_values_as_their_encoded_bytes() {
        use rtk_sparse::codec;
        for lead in 0..3u32 {
            for len in 0..7usize {
                let ids: Vec<u32> = (0..len as u32).map(|i| 0x0101_0101 * (i + 1)).collect();
                let vals: Vec<f64> = (0..len).map(|i| -0.5 + i as f64 / 3.0).collect();
                let mut typed = RecordHasher::default();
                let mut bytes = Vec::new();
                for i in 0..lead {
                    typed.u32(i + 7);
                    codec::write_u32(&mut bytes, i + 7).unwrap();
                }
                typed.u32_seq(&ids);
                codec::write_u32_seq(&mut bytes, &ids).unwrap();
                typed.f64_seq(&vals);
                codec::write_f64_seq(&mut bytes, &vals).unwrap();
                typed.u64(u64::MAX - len as u64);
                codec::write_u64(&mut bytes, u64::MAX - len as u64).unwrap();
                typed.u32_seq(&ids[..len / 2]);
                codec::write_u32_seq(&mut bytes, &ids[..len / 2]).unwrap();
                assert_eq!(typed.finish(), record_hash(&bytes), "lead {lead}, len {len}");
            }
        }
        assert_ne!(record_hash(&[]), record_hash(&[0]), "the length is part of the hash");
        assert_ne!(record_hash(&[0; 8]), record_hash(&[0; 16]));
    }

    #[test]
    fn a_cell_computes_once_until_cleared_and_streaming_equals_one_shot() {
        let mut cell = DigestCell::default();
        assert_eq!(cell.get_or(false, || 5), 5, "a cold read hashes");
        assert_eq!(cell.get_or(true, || 7), 7, "and stores nothing");
        assert_eq!(cell.get_or(true, || unreachable!("cached")), 7);
        assert_eq!(cell.get_or(false, || 8), 8, "a cold read ignores the cache");
        assert_eq!(cell.clone().get_or(true, || unreachable!("a clone keeps the hash")), 7);
        cell.clear();
        assert_eq!(cell.get_or(true, || 9), 9);

        let mut streamed = Fnv1a64::default();
        streamed.write_all(b"foo").unwrap();
        streamed.write_all(b"bar").unwrap();
        assert_eq!(streamed.finish(), fnv1a64(b"foobar"));
    }
}
