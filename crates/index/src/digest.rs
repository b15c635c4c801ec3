//! Stable index digests for replica-convergence checks.
//!
//! The index digest ([`crate::storage::index_digest`]) is [`fnv1a64`] of the
//! persisted byte stream with every hub-column record and every node-state
//! record replaced by the 8 little-endian bytes of its own [`fnv1a64`]. The
//! per-record hashes are cached beside the records (`DigestCell`), so an
//! update re-hashes what it recomputed and nothing else.

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

/// Streaming [`fnv1a64`]: an `io::Write` sink, so the storage encoders hash
/// a record (or the folded index stream) without buffering it.
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

/// The cached [`fnv1a64`] of one persisted record, kept beside the record.
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
