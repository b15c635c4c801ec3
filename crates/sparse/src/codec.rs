//! Minimal versioned little-endian binary codec.
//!
//! Both the graph binary format and the index snapshot format are built from
//! these primitives: fixed-width little-endian integers/floats and
//! `u64`-length-prefixed sequences, preceded by an 8-byte magic tag and a
//! `u32` format version. A hand-rolled codec keeps the on-disk layout
//! explicit, auditable and dependency-free (the primitives are specified in
//! `docs/FORMATS.md`, "Shared primitives").

use std::io::{self, Read, Write};

/// Errors produced while decoding a binary stream.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the expected magic tag.
    BadMagic {
        /// Magic expected by the caller.
        expected: [u8; 8],
        /// Magic actually present in the stream.
        found: [u8; 8],
    },
    /// The format version is newer than this library understands.
    UnsupportedVersion {
        /// Version found in the stream.
        found: u32,
        /// Greatest version this build can decode.
        supported: u32,
    },
    /// A declared length is implausibly large or inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o error: {e}"),
            DecodeError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            DecodeError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (max supported {supported})")
            }
            DecodeError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

/// Sanity cap on declared sequence lengths (1 billion elements), applied
/// on top of every caller's bound: each sequence reader takes the bound its
/// input implies (a node count, a frame size, a `max_k`) and checks it
/// *before* any allocation happens.
pub const MAX_SEQ_LEN: u64 = 1_000_000_000;

/// Writes the 8-byte magic tag followed by a `u32` version.
pub fn write_header<W: Write>(w: &mut W, magic: &[u8; 8], version: u32) -> io::Result<()> {
    w.write_all(magic)?;
    write_u32(w, version)
}

/// Reads and validates a header written by [`write_header`]; returns the
/// stream's version (≤ `max_version`).
pub fn read_header<R: Read>(
    r: &mut R,
    magic: &[u8; 8],
    max_version: u32,
) -> Result<u32, DecodeError> {
    let mut found = [0u8; 8];
    r.read_exact(&mut found)?;
    if &found != magic {
        return Err(DecodeError::BadMagic { expected: *magic, found });
    }
    let version = read_u32(r)?;
    if version > max_version {
        return Err(DecodeError::UnsupportedVersion { found: version, supported: max_version });
    }
    Ok(version)
}

/// Writes a `u32` little-endian.
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u32` little-endian.
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes a `u64` little-endian.
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u64` little-endian.
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes an `f64` as its little-endian IEEE-754 bits.
pub fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads an `f64` from little-endian IEEE-754 bits.
pub fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Validates a declared length against a caller-supplied bound (itself
/// clamped by [`MAX_SEQ_LEN`]) *before* anything is allocated, so a corrupt
/// or malicious length prefix cannot trigger a huge `Vec` reservation.
pub fn check_len(len: u64, bound: u64, what: &str) -> Result<usize, DecodeError> {
    let bound = bound.min(MAX_SEQ_LEN);
    if len > bound {
        return Err(DecodeError::Corrupt(format!(
            "{what}: declared length {len} exceeds bound {bound}"
        )));
    }
    Ok(len as usize)
}

/// Writes a `u64`-length-prefixed slice of `u32`s.
pub fn write_u32_seq<W: Write>(w: &mut W, vs: &[u32]) -> io::Result<()> {
    write_u64(w, vs.len() as u64)?;
    for &v in vs {
        write_u32(w, v)?;
    }
    Ok(())
}

/// Reads a sequence written by [`write_u32_seq`], rejecting declared lengths
/// above `bound` (e.g. a node count or frame size) before allocating.
pub fn read_u32_seq_bounded<R: Read>(r: &mut R, bound: u64) -> Result<Vec<u32>, DecodeError> {
    let len = check_len(read_u64(r)?, bound, "u32 sequence")?;
    let mut out = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        out.push(read_u32(r)?);
    }
    Ok(out)
}

/// Writes a `u64`-length-prefixed slice of `f64`s.
pub fn write_f64_seq<W: Write>(w: &mut W, vs: &[f64]) -> io::Result<()> {
    write_u64(w, vs.len() as u64)?;
    for &v in vs {
        write_f64(w, v)?;
    }
    Ok(())
}

/// Reads a sequence written by [`write_f64_seq`], rejecting declared lengths
/// above `bound` before allocating.
pub fn read_f64_seq_bounded<R: Read>(r: &mut R, bound: u64) -> Result<Vec<f64>, DecodeError> {
    let len = check_len(read_u64(r)?, bound, "f64 sequence")?;
    let mut out = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        out.push(read_f64(r)?);
    }
    Ok(out)
}

/// Writes a `u64`-length-prefixed byte string.
pub fn write_bytes<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    write_u64(w, bytes.len() as u64)?;
    w.write_all(bytes)
}

/// Reads a byte string written by [`write_bytes`], rejecting declared
/// lengths above `bound` before allocating.
pub fn read_bytes_bounded<R: Read>(r: &mut R, bound: u64) -> Result<Vec<u8>, DecodeError> {
    let len = check_len(read_u64(r)?, bound, "byte string")?;
    let mut out = vec![0u8; len];
    r.read_exact(&mut out)?;
    Ok(out)
}

/// Writes a sparse vector as two length-prefixed parallel sequences.
pub fn write_sparse_vector<W: Write>(w: &mut W, v: &crate::SparseVector) -> io::Result<()> {
    write_u32_seq(w, v.indices())?;
    write_f64_seq(w, v.values())
}

/// Reads a sparse vector written by [`write_sparse_vector`], rejecting nnz
/// counts above `bound` (typically the dimension) before allocating.
pub fn read_sparse_vector_bounded<R: Read>(
    r: &mut R,
    bound: u64,
) -> Result<crate::SparseVector, DecodeError> {
    let indices = read_u32_seq_bounded(r, bound)?;
    let values = read_f64_seq_bounded(r, bound)?;
    if indices.len() != values.len() {
        return Err(DecodeError::Corrupt(format!(
            "sparse vector: {} indices but {} values",
            indices.len(),
            values.len()
        )));
    }
    if indices.windows(2).any(|w| w[0] >= w[1]) {
        return Err(DecodeError::Corrupt("sparse vector: indices not strictly increasing".into()));
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(DecodeError::Corrupt("sparse vector: non-finite value".into()));
    }
    Ok(crate::SparseVector::from_parts(indices, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseVector;
    use std::io::Cursor;

    const MAGIC: &[u8; 8] = b"RTKTEST1";

    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        write_f64(&mut buf, -0.15).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(read_f64(&mut r).unwrap(), -0.15);
    }

    #[test]
    fn sequences_round_trip() {
        let mut buf = Vec::new();
        write_u32_seq(&mut buf, &[1, 2, 3]).unwrap();
        write_f64_seq(&mut buf, &[0.5, 0.25]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_u32_seq_bounded(&mut r, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(read_f64_seq_bounded(&mut r, 2).unwrap(), vec![0.5, 0.25]);
    }

    #[test]
    fn empty_sequences_round_trip() {
        let mut buf = Vec::new();
        write_u32_seq(&mut buf, &[]).unwrap();
        let mut r = Cursor::new(buf);
        assert!(read_u32_seq_bounded(&mut r, 0).unwrap().is_empty());
    }

    #[test]
    fn sparse_vector_round_trips() {
        let v = SparseVector::from_parts(vec![0, 7, 9], vec![0.5, 0.125, 1e-9]);
        let mut buf = Vec::new();
        write_sparse_vector(&mut buf, &v).unwrap();
        let back = read_sparse_vector_bounded(&mut Cursor::new(buf), 10).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn header_round_trips_and_validates() {
        let mut buf = Vec::new();
        write_header(&mut buf, MAGIC, 2).unwrap();
        let v = read_header(&mut Cursor::new(buf.clone()), MAGIC, 3).unwrap();
        assert_eq!(v, 2);

        let err = read_header(&mut Cursor::new(buf.clone()), b"WRONGMAG", 3).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));

        let err = read_header(&mut Cursor::new(buf), MAGIC, 1).unwrap_err();
        assert!(matches!(err, DecodeError::UnsupportedVersion { found: 2, supported: 1 }));
    }

    #[test]
    fn corrupt_sparse_vector_is_rejected() {
        // Mismatched lengths.
        let mut buf = Vec::new();
        write_u32_seq(&mut buf, &[1, 2]).unwrap();
        write_f64_seq(&mut buf, &[0.5]).unwrap();
        assert!(matches!(
            read_sparse_vector_bounded(&mut Cursor::new(buf), 8).unwrap_err(),
            DecodeError::Corrupt(_)
        ));

        // Unsorted indices.
        let mut buf = Vec::new();
        write_u32_seq(&mut buf, &[2, 1]).unwrap();
        write_f64_seq(&mut buf, &[0.5, 0.5]).unwrap();
        assert!(matches!(
            read_sparse_vector_bounded(&mut Cursor::new(buf), 8).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn absurd_length_fails_fast() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        assert!(matches!(
            read_u32_seq_bounded(&mut Cursor::new(buf), u64::MAX).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn bounded_readers_reject_before_reading_payload() {
        // A declared length just over the caller's bound must fail as
        // Corrupt even though the stream has no payload bytes at all —
        // proof the check happens before any allocation/read.
        let mut buf = Vec::new();
        write_u64(&mut buf, 11).unwrap();
        assert!(matches!(
            read_u32_seq_bounded(&mut Cursor::new(buf.clone()), 10).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
        assert!(matches!(
            read_f64_seq_bounded(&mut Cursor::new(buf.clone()), 10).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
        assert!(matches!(
            read_bytes_bounded(&mut Cursor::new(buf), 10).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn bounded_sparse_vector_respects_dimension() {
        let v = SparseVector::from_parts(vec![0, 3, 9], vec![0.5, 0.25, 0.125]);
        let mut buf = Vec::new();
        write_sparse_vector(&mut buf, &v).unwrap();
        // nnz = 3 fits a bound of 3 …
        assert_eq!(read_sparse_vector_bounded(&mut Cursor::new(buf.clone()), 3).unwrap(), v);
        // … but not a bound of 2.
        assert!(matches!(
            read_sparse_vector_bounded(&mut Cursor::new(buf), 2).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn bytes_round_trip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello wire").unwrap();
        let back = read_bytes_bounded(&mut Cursor::new(buf), 64).unwrap();
        assert_eq!(back, b"hello wire");
    }

    #[test]
    fn check_len_clamps_to_global_cap() {
        // Even a huge caller bound never admits more than MAX_SEQ_LEN.
        assert!(check_len(MAX_SEQ_LEN + 1, u64::MAX, "seq").is_err());
        assert_eq!(check_len(5, u64::MAX, "seq").unwrap(), 5);
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 10).unwrap(); // declares 10 elements, provides none
        assert!(matches!(
            read_u32_seq_bounded(&mut Cursor::new(buf), 10).unwrap_err(),
            DecodeError::Io(_)
        ));
    }
}
