//! Versioned binary persistence: one file, the snapshot manifest (magic
//! `RTKMANI1`, version 2), for every engine — whole or one shard.
//!
//! The paper's index is explicitly designed to be kept and *updated* across
//! query sessions; persistence makes that durable. Little-endian, see
//! [`rtk_sparse::codec`]:
//!
//! ```text
//! header: magic "RTKMANI1", u32 version
//! u64 graph_bytes, then the graph as an `RTKGRPH1` body (rtk_graph::io)
//! u64 node_count, u64 max_k, u64 shard_count
//! bca: f64 alpha, f64 eta, f64 delta, u32 max_iterations
//! f64 rounding_threshold
//! u32seq shard start offsets
//! hubs: u32seq ids, then per hub one record: sparse column (values > 0),
//!       f64 deficit;
//!       after the last hub one u64: unrounded nnz summed over all hubs
//! per shard: u64 section_bytes (0 = the file does not hold this shard),
//!     then a self-contained shard section:
//!     header: magic "RTKSHRD1", u32 version
//!     u64 shard_id, u64 node_lo, u64 shard_len, u64 node_count, u64 max_k
//!     per node of the shard's range one record: u32 source,
//!     u32 iterations, sparse r, sparse w, sparse s,
//!     u32seq topk_indices, f64seq topk_values
//! stats: timings, counters (see code)
//! ```
//!
//! [`save`] writes every shard section the index holds (one, for a backend's
//! `persist`); [`load`] returns what the file holds, [`load_one_shard`] one
//! shard of it — a backend's start-up load, whose footprint is one shard —
//! and [`stitch`] re-assembles one-shard files. Sections are written behind
//! a counting pre-pass and decoded straight from the one reader, bounded by
//! their lengths: none is buffered whole, runs into the next, or leaves
//! bytes unread. Every sequence decode is bounded by stream-derived sizes
//! (node count, `max_k`, section byte counts) *before* allocating. Any other
//! magic or version is refused — rebuild with `rtk index build`.
//!
//! **Index digest.** [`index_digest`] hashes the stream an index persists
//! as, less the graph section and the stats block — the manifest for an
//! index holding every shard, the `RTKSHRD1` section for a one-shard
//! index — with each hub
//! record and each node record replaced by the 8 little-endian bytes of its
//! own record hash (and each section length counting the folded section),
//! folded by [`crate::fnv1a64`]. A record hash (`digest::RecordHasher`)
//! takes the record's bytes 8 at a time, straight from the in-memory
//! vectors (`node_record_digest`, `hub_record_digest`); it is computed by the
//! worker that produced the record and cached beside it, so the digest
//! costs one short pass, not a serialization. Hashing the graph would cost
//! every edge update an `O(|E|)` pass.
//!
//! The hub-selection policy and hub-vector solver are *not* recorded: a
//! loaded index refines and queries identically, and
//! `config().hub_selection` becomes `Explicit(ids)`. The solver comes back
//! as [`HubSolver::PowerMethod`], which an edge update's hub re-solve
//! reproduces exactly for any index built with it; a `Bca` hub solver is
//! not recorded.

use crate::config::{HubSelection, HubSolver, IndexConfig};
use crate::digest::{Fnv1a64, RecordHasher};
use crate::error::IndexError;
use crate::hub_matrix::HubMatrix;
use crate::index::ReverseIndex;
use crate::node_state::NodeState;
use crate::shard::ShardMap;
use crate::stats::IndexStats;
use rtk_graph::DiGraph;
use rtk_rwr::bca::BcaSnapshot;
use rtk_rwr::{BcaParams, HubSet};
use rtk_sparse::codec::{self, DecodeError};
use rtk_sparse::DescendingTopK;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic tag of the snapshot (the manifest).
pub const MANIFEST_MAGIC: &[u8; 8] = b"RTKMANI1";
/// Current manifest format version; older versions are refused.
pub const MANIFEST_VERSION: u32 = 2;
/// Magic tag of one serialized shard section.
pub const SHARD_MAGIC: &[u8; 8] = b"RTKSHRD1";
/// Current shard section version.
pub const SHARD_VERSION: u32 = 1;

/// Sanity cap on one serialized section (1 TiB): rejects corrupt section
/// lengths before the section's decode begins.
const MAX_SECTION_BYTES: u64 = 1 << 40;

/// What a snapshot holds: the graph and the index (every shard, or one).
pub type Snapshot = (DiGraph, ReverseIndex);

fn corrupt(msg: String) -> IndexError {
    IndexError::Decode(DecodeError::Corrupt(msg))
}

/// Serializes `graph` and `index` to `writer` as one manifest holding every
/// shard section `index` holds.
pub fn save<W: Write>(graph: &DiGraph, index: &ReverseIndex, writer: W) -> Result<(), IndexError> {
    if graph.node_count() != index.node_count() {
        return Err(IndexError::GraphMismatch {
            index_nodes: index.node_count(),
            graph_nodes: graph.node_count(),
        });
    }
    write_manifest(Some(graph), index, writer, Records::Encoded)
}

/// How the writers below emit hub-column and node-state records.
#[derive(Clone, Copy)]
enum Records {
    /// The persisted encoding.
    Encoded,
    /// Each record as the 8 LE bytes of its record hash — the stream
    /// [`index_digest`] hashes. `cached: false` re-hashes every record
    /// instead of trusting the cells kept beside them.
    Digested { cached: bool },
}

/// A stable digest (FNV-1a 64) of what `index` persists as (see the module
/// docs): two indexes holding the same shards have equal digests exactly
/// when their persisted index bytes other than the build stats are equal,
/// up to hash collisions — two builds of one graph and config digest
/// equal.
/// Record hashes are cached, so after an update this re-hashes what the
/// update recomputed and otherwise folds 8 bytes per record. Comparable
/// between processes of the same build only — the fold is not a wire format.
pub fn index_digest(index: &ReverseIndex) -> u64 {
    fold_digest(index, Records::Digested { cached: true })
}

/// [`index_digest`] recomputed from the entries, trusting no cached record
/// hash — the reference the cache is tested against.
pub fn index_digest_cold(index: &ReverseIndex) -> u64 {
    fold_digest(index, Records::Digested { cached: false })
}

fn fold_digest(index: &ReverseIndex, records: Records) -> u64 {
    let mut hasher = Fnv1a64::default();
    match index.owned_shard() {
        None => write_manifest(None, index, &mut hasher, records),
        Some(i) => write_shard(index, i, &mut hasher, records),
    }
    .expect("hashing an in-memory index cannot fail");
    hasher.finish()
}

/// Deserializes a snapshot written by [`save`]: the graph and an index
/// holding what the file holds — every shard, or the one a backend wrote.
pub fn load<R: Read>(reader: R) -> Result<Snapshot, IndexError> {
    load_owning(reader, None)
}

/// Loads the graph and the index holding only shard `shard_id` (plus the
/// shared hub matrix and shard map), skipping every other shard's section
/// by its length prefix — the memory footprint is one shard, not the whole
/// index. Every check [`load`] applies to the manifest applies here too.
pub fn load_one_shard<R: Read>(reader: R, shard_id: usize) -> Result<Snapshot, IndexError> {
    load_owning(reader, Some(shard_id))
}

/// The one snapshot reader: `only` picks the shard to hold (`None` = what
/// the file holds).
fn load_owning<R: Read>(reader: R, only: Option<usize>) -> Result<Snapshot, IndexError> {
    let mut r = BufReader::new(reader);
    let version = codec::read_header(&mut r, MANIFEST_MAGIC, MANIFEST_VERSION)?;
    if version != MANIFEST_VERSION {
        // Version 1 carried no graph section; there is no importer.
        return Err(DecodeError::UnsupportedVersion {
            found: version,
            supported: MANIFEST_VERSION,
        }
        .into());
    }
    let graph_bytes = codec::read_u64(&mut r).map_err(DecodeError::Io)?;
    let graph = decode_section(&mut r, graph_bytes, "graph section", |s| {
        rtk_graph::io::read_binary(s).map_err(|e| match e {
            rtk_graph::GraphError::Decode(e) => e.into(),
            e => corrupt(e.to_string()),
        })
    })?;
    let index = load_manifest_body(&mut r, only)?;
    let (gn, n) = (graph.node_count(), index.node_count());
    if gn != n {
        return Err(corrupt(format!("graph section has {gn} nodes, the index {n}")));
    }
    Ok((graph, index))
}

/// Decodes one section of `len` bytes straight from the manifest's reader,
/// through a [`Section`] bound so the decoder cannot consume the next
/// section; bytes it leaves unread are corruption. Every failure names the
/// section.
fn decode_section<R: BufRead, T>(
    r: &mut R,
    len: u64,
    what: &str,
    decode: impl FnOnce(&mut Section<'_, R>) -> Result<T, IndexError>,
) -> Result<T, IndexError> {
    if len > MAX_SECTION_BYTES {
        return Err(corrupt(format!("{what}: a section of {len} bytes is implausible")));
    }
    let mut section = Section { inner: r, left: len };
    let value = decode(&mut section).map_err(|e| match e {
        IndexError::Decode(DecodeError::Corrupt(m)) => corrupt(format!("{what}: {m}")),
        IndexError::Decode(e) => corrupt(format!("{what}: {e}")),
        e => corrupt(format!("{what}: {e}")),
    })?;
    if section.left != 0 {
        return Err(corrupt(format!("{what}: {} trailing bytes after its payload", section.left)));
    }
    Ok(value)
}

/// The next `left` bytes of `inner` — `io::Take` whose `read_exact` copies
/// straight out of the manifest reader's buffer: a decode is many small
/// fixed-width reads, and `Take`'s read loop made loads a third slower.
struct Section<'r, R> {
    inner: &'r mut R,
    left: u64,
}

impl<R: BufRead> Read for Section<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let max = buf.len().min(usize::try_from(self.left).unwrap_or(usize::MAX));
        let n = self.inner.read(&mut buf[..max])?;
        self.left -= n as u64;
        Ok(n)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        if buf.len() as u64 > self.left {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        match self.inner.fill_buf()? {
            buffered if buffered.len() >= buf.len() => {
                buf.copy_from_slice(&buffered[..buf.len()]);
                self.inner.consume(buf.len());
            }
            _ => self.inner.read_exact(buf)?,
        }
        self.left -= buf.len() as u64;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared per-node and hub-matrix encoding
// ---------------------------------------------------------------------------

/// One node-state record: the resumable run and its top-K lower bounds.
fn write_node_record<W: Write>(
    w: &mut W,
    snap: &BcaSnapshot,
    lower_bounds: &DescendingTopK,
) -> std::io::Result<()> {
    codec::write_u32(w, snap.source)?;
    codec::write_u32(w, snap.iterations)?;
    codec::write_sparse_vector(w, &snap.residue)?;
    codec::write_sparse_vector(w, &snap.retained)?;
    codec::write_sparse_vector(w, &snap.hub_ink)?;
    let entries = lower_bounds.entries();
    let idx: Vec<u32> = entries.iter().map(|&(i, _)| i).collect();
    let vals: Vec<f64> = entries.iter().map(|&(_, v)| v).collect();
    codec::write_u32_seq(w, &idx)?;
    codec::write_f64_seq(w, &vals)
}

/// The record hash ([`RecordHasher`]) of the bytes [`write_node_record`]
/// emits, read from the snapshot's and the list's own vectors.
pub(crate) fn node_record_digest(snap: &BcaSnapshot, lower_bounds: &DescendingTopK) -> u64 {
    let mut hasher = RecordHasher::default();
    hasher.u32(snap.source);
    hasher.u32(snap.iterations);
    for v in [&snap.residue, &snap.retained, &snap.hub_ink] {
        hash_sparse_vector(&mut hasher, v);
    }
    let entries = lower_bounds.entries();
    hasher.u64(entries.len() as u64);
    for &(i, _) in entries {
        hasher.u32(i);
    }
    hasher.u64(entries.len() as u64);
    for &(_, v) in entries {
        hasher.u64(v.to_bits());
    }
    hasher.finish()
}

/// Appends `v` as [`codec::write_sparse_vector`] encodes it.
fn hash_sparse_vector(hasher: &mut RecordHasher, v: &rtk_sparse::SparseVector) {
    hasher.u32_seq(v.indices());
    hasher.f64_seq(v.values());
}

fn read_node_state<R: Read>(
    r: &mut R,
    u: u32,
    n: usize,
    max_k: usize,
    hub_matrix: &HubMatrix,
) -> Result<NodeState, IndexError> {
    let source = codec::read_u32(r).map_err(DecodeError::Io)?;
    if source != u {
        return Err(corrupt(format!("node state {u} claims source {source}")));
    }
    let iterations = codec::read_u32(r).map_err(DecodeError::Io)?;
    let residue = codec::read_sparse_vector_bounded(r, n as u64)?;
    let retained = codec::read_sparse_vector_bounded(r, n as u64)?;
    let hub_ink = codec::read_sparse_vector_bounded(r, n as u64)?;
    // The codec only checks that indices ascend; node-id range is this
    // layer's invariant. An out-of-range id would panic downstream (hub
    // lookups, materializer scatters), so reject it here as corruption.
    for (what, v) in [("residue", &residue), ("retained", &retained), ("hub ink", &hub_ink)] {
        check_node_ids(v, n, u, what)?;
    }
    // Ink parks at hubs only: the engine that resumes the state keeps `s`
    // by hub position, and the materializer reads a hub's column.
    let hubs = hub_matrix.hubs();
    if let Some(&bad) = hub_ink.indices().iter().find(|&&h| !hubs.contains(h)) {
        return Err(corrupt(format!("node {u}: hub ink at node {bad}, which is not a hub")));
    }
    let idx = codec::read_u32_seq_bounded(r, max_k as u64)?;
    let vals = codec::read_f64_seq_bounded(r, max_k as u64)?;
    if let Some(&bad) = idx.iter().find(|&&i| i as usize >= n) {
        return Err(corrupt(format!("node {u}: top-K id {bad} out of range for {n} nodes")));
    }
    if idx.len() != vals.len() || idx.len() > max_k {
        return Err(corrupt(format!(
            "node {u}: malformed top-K ({} indices, {} values, K={max_k})",
            idx.len(),
            vals.len()
        )));
    }
    let entries: Vec<(u32, f64)> = idx.into_iter().zip(vals).collect();
    if entries.windows(2).any(|w| w[0].1 < w[1].1) {
        return Err(corrupt(format!("node {u}: top-K values not descending")));
    }
    let snapshot = BcaSnapshot { source, iterations, residue, retained, hub_ink };
    let lower_bounds = DescendingTopK::from_sorted(entries, max_k);
    Ok(NodeState::from_parts(snapshot, lower_bounds, hub_matrix))
}

/// Rejects sparse-vector entries whose node id exceeds the graph.
fn check_node_ids(
    v: &rtk_sparse::SparseVector,
    n: usize,
    u: u32,
    what: &str,
) -> Result<(), IndexError> {
    if let Some((bad, _)) = v.iter().find(|&(i, _)| i as usize >= n) {
        return Err(corrupt(format!("node {u}: {what} index {bad} out of range for {n} nodes")));
    }
    Ok(())
}

/// One hub record: the rounded column and its mass deficit.
fn write_hub_record<W: Write>(
    w: &mut W,
    column: &rtk_sparse::SparseVector,
    deficit: f64,
) -> std::io::Result<()> {
    codec::write_sparse_vector(w, column)?;
    codec::write_f64(w, deficit)
}

/// The record hash ([`RecordHasher`]) of the bytes [`write_hub_record`]
/// emits.
pub(crate) fn hub_record_digest(column: &rtk_sparse::SparseVector, deficit: f64) -> u64 {
    let mut hasher = RecordHasher::default();
    hash_sparse_vector(&mut hasher, column);
    hasher.u64(deficit.to_bits());
    hasher.finish()
}

fn write_hub_matrix<W: Write>(w: &mut W, hm: &HubMatrix, records: Records) -> std::io::Result<()> {
    codec::write_u32_seq(w, hm.hubs().ids())?;
    for (i, &h) in hm.hubs().ids().iter().enumerate() {
        match records {
            Records::Encoded => {
                write_hub_record(w, &hm.column(h).expect("hub column"), hm.deficit(h))?
            }
            Records::Digested { cached } => codec::write_u64(w, hm.column_digest(i, cached))?,
        }
    }
    // Unrounded nnz totals are stored as one aggregate across hubs.
    codec::write_u64(w, hm.unrounded_nnz() as u64)
}

fn read_hub_matrix<R: Read>(
    r: &mut R,
    n: usize,
    rounding_threshold: f64,
) -> Result<HubMatrix, IndexError> {
    let hub_ids = codec::read_u32_seq_bounded(r, n as u64)?;
    if let Some(&bad) = hub_ids.iter().find(|&&h| h as usize >= n) {
        return Err(corrupt(format!("hub id {bad} out of range for {n} nodes")));
    }
    // Duplicates would panic inside HubSet construction; reject them as the
    // corrupt stream they are.
    let mut seen_hubs = std::collections::HashSet::with_capacity(hub_ids.len());
    if let Some(&dup) = hub_ids.iter().find(|&&h| !seen_hubs.insert(h)) {
        return Err(corrupt(format!("duplicate hub id {dup}")));
    }
    let mut columns = Vec::with_capacity(hub_ids.len());
    let mut deficits = Vec::with_capacity(hub_ids.len());
    for &h in &hub_ids {
        let column = codec::read_sparse_vector_bounded(r, n as u64)?;
        check_node_ids(&column, n, h, "hub column")?;
        // The in-memory panel reads 0.0 as "no entry", and Prop. 1's lower
        // bound needs every entry positive: anything else is corruption.
        if let Some((i, v)) = column.iter().find(|&(_, v)| v <= 0.0) {
            return Err(corrupt(format!("hub {h}: column value {v} at node {i} is not positive")));
        }
        columns.push(column);
        deficits.push(codec::read_f64(r).map_err(DecodeError::Io)?);
    }
    let unrounded_total = codec::read_u64(r).map_err(DecodeError::Io)? as usize;
    // Per-hub unrounded counts are not needed post-build; distribute the
    // aggregate so `unrounded_nnz()` stays correct.
    let rounded_total: usize = columns.iter().map(|c| c.nnz()).sum();
    let mut unrounded_nnz: Vec<usize> = columns.iter().map(|c| c.nnz()).collect();
    if let Some(first) = unrounded_nnz.first_mut() {
        *first += unrounded_total.saturating_sub(rounded_total);
    }
    let hubs = HubSet::from_ids(n, hub_ids);
    Ok(HubMatrix::from_parts(hubs, columns, deficits, unrounded_nnz, rounding_threshold))
}

fn write_bca_and_rounding<W: Write>(
    w: &mut W,
    bca: &BcaParams,
    rounding_threshold: f64,
) -> std::io::Result<()> {
    codec::write_f64(w, bca.alpha)?;
    codec::write_f64(w, bca.propagation_threshold)?;
    codec::write_f64(w, bca.residue_threshold)?;
    codec::write_u32(w, bca.max_iterations)?;
    codec::write_f64(w, rounding_threshold)
}

fn read_bca_and_rounding<R: Read>(r: &mut R) -> Result<(BcaParams, f64), IndexError> {
    let alpha = codec::read_f64(r).map_err(DecodeError::Io)?;
    let propagation_threshold = codec::read_f64(r).map_err(DecodeError::Io)?;
    let residue_threshold = codec::read_f64(r).map_err(DecodeError::Io)?;
    let max_iterations = codec::read_u32(r).map_err(DecodeError::Io)?;
    let rounding_threshold = codec::read_f64(r).map_err(DecodeError::Io)?;
    Ok((
        BcaParams { alpha, propagation_threshold, residue_threshold, max_iterations },
        rounding_threshold,
    ))
}

fn write_stats<W: Write>(w: &mut W, s: &IndexStats) -> std::io::Result<()> {
    codec::write_f64(w, s.hub_selection_seconds)?;
    codec::write_f64(w, s.hub_vectors_seconds)?;
    codec::write_f64(w, s.node_sweep_seconds)?;
    codec::write_f64(w, s.total_seconds)?;
    codec::write_u64(w, s.total_iterations)?;
    codec::write_u64(w, s.total_pushes)?;
    codec::write_u64(w, s.threads as u64)
}

/// Reads the persisted stats fields and recomputes the derived size figures
/// from the decoded states and hub matrix.
fn read_stats<R: Read>(
    r: &mut R,
    states: &[NodeState],
    hub_matrix: &HubMatrix,
    n: usize,
) -> Result<IndexStats, IndexError> {
    let hub_selection_seconds = codec::read_f64(r).map_err(DecodeError::Io)?;
    let hub_vectors_seconds = codec::read_f64(r).map_err(DecodeError::Io)?;
    let node_sweep_seconds = codec::read_f64(r).map_err(DecodeError::Io)?;
    let total_seconds = codec::read_f64(r).map_err(DecodeError::Io)?;
    let total_iterations = codec::read_u64(r).map_err(DecodeError::Io)?;
    let total_pushes = codec::read_u64(r).map_err(DecodeError::Io)?;
    let threads = codec::read_u64(r).map_err(DecodeError::Io)? as usize;

    let lower_bound_bytes: usize = states.iter().map(|s| s.lower_bounds().heap_bytes()).sum();
    let actual_bytes =
        states.iter().map(|s| s.heap_bytes()).sum::<usize>() + hub_matrix.heap_bytes();
    let entry_bytes = std::mem::size_of::<u32>() + std::mem::size_of::<f64>();
    let no_rounding_bytes =
        actual_bytes + (hub_matrix.unrounded_nnz() - hub_matrix.nnz()) * entry_bytes;
    let predicted_bytes = hub_matrix
        .predicted_bytes(n, crate::builder::DEFAULT_POWER_LAW_BETA)
        .map(|p| p + lower_bound_bytes);
    Ok(IndexStats {
        hub_selection_seconds,
        hub_vectors_seconds,
        node_sweep_seconds,
        total_seconds,
        hub_count: hub_matrix.hub_count(),
        total_iterations,
        total_pushes,
        actual_bytes,
        no_rounding_bytes,
        predicted_bytes,
        lower_bound_bytes,
        threads,
    })
}

fn loaded_config(
    max_k: usize,
    bca: BcaParams,
    hub_matrix: &HubMatrix,
    rounding_threshold: f64,
    threads: usize,
) -> IndexConfig {
    IndexConfig {
        max_k,
        bca,
        hub_selection: HubSelection::Explicit(hub_matrix.hubs().ids().to_vec()),
        hub_solver: HubSolver::PowerMethod,
        rounding_threshold,
        threads,
    }
}

// ---------------------------------------------------------------------------
// Shard sections and the manifest
// ---------------------------------------------------------------------------

/// Writes the section of shard `shard_id`, which `index` must hold.
fn write_shard<W: Write>(
    index: &ReverseIndex,
    shard_id: usize,
    writer: W,
    records: Records,
) -> Result<(), IndexError> {
    let range = index.shard_map().range(shard_id);
    let mut w = BufWriter::new(writer);
    codec::write_header(&mut w, SHARD_MAGIC, SHARD_VERSION)?;
    codec::write_u64(&mut w, shard_id as u64)?;
    codec::write_u64(&mut w, u64::from(range.start))?;
    codec::write_u64(&mut w, range.len() as u64)?;
    codec::write_u64(&mut w, index.node_count() as u64)?;
    codec::write_u64(&mut w, index.max_k() as u64)?;
    for u in range {
        match records {
            Records::Encoded => {
                let state = index.state(u);
                write_node_record(&mut w, state.snapshot(), state.lower_bounds())?
            }
            Records::Digested { cached } => {
                codec::write_u64(&mut w, index.record_digest(u, cached))?
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Decodes the section of shard `shard_id` written by [`write_shard`],
/// appending its states to `states`. `shard_map`, `hub_matrix`, and
/// `max_k` come from the owning manifest; the section's own header is
/// validated against them.
fn read_shard<R: Read>(
    r: &mut R,
    shard_id: usize,
    shard_map: &ShardMap,
    hub_matrix: &HubMatrix,
    max_k: usize,
    states: &mut Vec<NodeState>,
) -> Result<(), IndexError> {
    let node_count = shard_map.node_count();
    codec::read_header(r, SHARD_MAGIC, SHARD_VERSION)?;
    let id = codec::read_u64(r).map_err(DecodeError::Io)?;
    let node_lo = codec::read_u64(r).map_err(DecodeError::Io)?;
    let len = codec::read_u64(r).map_err(DecodeError::Io)?;
    let claimed_n = codec::read_u64(r).map_err(DecodeError::Io)? as usize;
    let claimed_k = codec::read_u64(r).map_err(DecodeError::Io)? as usize;
    if claimed_n != node_count || claimed_k != max_k {
        return Err(corrupt(format!(
            "shard {id} claims n={claimed_n}, K={claimed_k}; manifest says n={node_count}, K={max_k}"
        )));
    }
    let expected = shard_map.range(shard_id);
    if id != shard_id as u64 || (node_lo, len) != (u64::from(expected.start), expected.len() as u64)
    {
        return Err(corrupt(format!(
            "section covers {node_lo}..{} (id {id}), manifest expects {expected:?}",
            node_lo.saturating_add(len)
        )));
    }
    states.reserve(expected.len().min(1 << 20));
    for u in expected {
        states.push(read_node_state(r, u, node_count, max_k, hub_matrix)?);
    }
    Ok(())
}

/// Writes the manifest: with `graph`, the snapshot [`save`] persists;
/// without, the stream [`index_digest`] folds (no stats block).
fn write_manifest<W: Write>(
    graph: Option<&DiGraph>,
    index: &ReverseIndex,
    writer: W,
    records: Records,
) -> Result<(), IndexError> {
    let (n, max_k) = (index.node_count(), index.max_k());
    let mut w = BufWriter::new(writer);
    codec::write_header(&mut w, MANIFEST_MAGIC, MANIFEST_VERSION)?;
    if let Some(graph) = graph {
        write_section(&mut w, |s| match rtk_graph::io::write_binary(graph, s) {
            Err(rtk_graph::GraphError::Io(e)) => Err(IndexError::Io(e)),
            other => other.map_err(|e| IndexError::InvalidConfig(e.to_string())),
        })?;
    }
    codec::write_u64(&mut w, n as u64)?;
    codec::write_u64(&mut w, max_k as u64)?;
    codec::write_u64(&mut w, index.shard_count() as u64)?;
    write_bca_and_rounding(&mut w, &index.config().bca, index.config().rounding_threshold)?;
    codec::write_u32_seq(&mut w, index.shard_map().starts())?;
    write_hub_matrix(&mut w, index.hub_matrix(), records)?;
    for i in 0..index.shard_count() {
        if index.holds(i) {
            write_section(&mut w, |s| write_shard(index, i, s, records))?;
        } else {
            codec::write_u64(&mut w, 0)?;
        }
    }
    // Build timings, counters and the thread count describe how the index
    // was made, not what it holds: two builds of one graph and config hold
    // the same index, so the digest leaves them out.
    if let Records::Encoded = records {
        write_stats(&mut w, index.stats())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes one `u64`-length-prefixed section. A counting pre-pass computes
/// the prefix, so the section is never buffered in memory (a graph, or a
/// single shard of a large index, can be gigabytes).
fn write_section<W: Write>(
    w: &mut W,
    mut body: impl FnMut(&mut dyn Write) -> Result<(), IndexError>,
) -> Result<(), IndexError> {
    let mut counter = CountingWriter::default();
    body(&mut counter)?;
    codec::write_u64(w, counter.bytes)?;
    body(w)
}

/// An `io::Write` sink that only counts bytes — the section-length pre-pass
/// of `write_section`.
#[derive(Default)]
struct CountingWriter {
    bytes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Reads the manifest after its graph section, decoding the section of
/// every shard the file holds (`only = None`) or of shard `only` alone —
/// the others are skipped by their length prefixes, never materialized.
/// Both paths run the same checks.
fn load_manifest_body<R: BufRead>(
    r: &mut R,
    only: Option<usize>,
) -> Result<ReverseIndex, IndexError> {
    let n = codec::check_len(
        codec::read_u64(r).map_err(DecodeError::Io)?,
        codec::MAX_SEQ_LEN,
        "node count",
    )?;
    let max_k = codec::check_len(
        codec::read_u64(r).map_err(DecodeError::Io)?,
        codec::MAX_SEQ_LEN,
        "max_k",
    )?;
    let shard_count = codec::check_len(
        codec::read_u64(r).map_err(DecodeError::Io)?,
        n.max(1) as u64,
        "shard count",
    )?;
    if shard_count == 0 {
        return Err(corrupt("manifest declares zero shards".into()));
    }
    if let Some(wanted) = only.filter(|&w| w >= shard_count) {
        return Err(corrupt(format!(
            "shard {wanted} out of range: manifest declares {shard_count} shards"
        )));
    }
    let (bca, rounding_threshold) = read_bca_and_rounding(r)?;
    let starts = codec::read_u32_seq_bounded(r, shard_count as u64)?;
    if starts.len() != shard_count {
        return Err(corrupt(format!(
            "manifest declares {shard_count} shards but lists {} starts",
            starts.len()
        )));
    }
    let shard_map = ShardMap::from_starts(n, starts).map_err(|e| match e {
        IndexError::InvalidConfig(m) => corrupt(format!("shard map: {m}")),
        other => other,
    })?;
    let hub_matrix = read_hub_matrix(r, n, rounding_threshold)?;

    let (mut states, mut held) = (Vec::new(), Vec::new());
    for i in 0..shard_count {
        let section_bytes = codec::read_u64(r).map_err(DecodeError::Io)?;
        if section_bytes == 0 {
            continue; // not held by this file
        }
        let what = format!("shard {i}");
        if only.is_some_and(|wanted| wanted != i) {
            // Skip the section without decoding (or materializing) it.
            decode_section(r, section_bytes, &what, |s| {
                std::io::copy(s, &mut std::io::sink())?;
                Ok(())
            })?;
            continue;
        }
        decode_section(r, section_bytes, &what, |s| {
            read_shard(s, i, &shard_map, &hub_matrix, max_k, &mut states)
        })?;
        held.push(i);
    }
    let owned = match (only, held.as_slice()) {
        (Some(wanted), []) => {
            return Err(corrupt(format!("shard {wanted}: section not held by this file")))
        }
        (None, all) if all.len() == shard_count => None,
        (_, &[one]) => Some(one),
        (_, held) => {
            return Err(corrupt(format!(
                "holds {} of {shard_count} shard sections; a snapshot holds every shard or one",
                held.len()
            )))
        }
    };

    let stats = read_stats(r, &states, &hub_matrix, n)?;
    let config = loaded_config(max_k, bca, &hub_matrix, rounding_threshold, stats.threads);
    Ok(ReverseIndex::from_states(config, hub_matrix, shard_map, owned, states, stats))
}

// ---------------------------------------------------------------------------
// Offline stitching of per-shard persist outputs
// ---------------------------------------------------------------------------

/// Re-assembles one snapshot holding every shard from snapshots holding
/// some — the files a router-tier `persist` fans out as `<path>.shard<i>`,
/// one per backend, each with the backend's graph, `P_H` and own section.
/// The inputs must agree on the graph, `P_H`, the configuration and the
/// shard map: backends that applied the same edge updates hold the same
/// graph and hub matrix, so the stitched snapshot answers like the live
/// tier. Together they must hold every shard exactly once, in any order.
pub fn stitch<R: Read>(inputs: Vec<R>) -> Result<Snapshot, IndexError> {
    let mut snapshots = inputs.into_iter().map(load);
    let (graph, first) = snapshots
        .next()
        .ok_or_else(|| IndexError::InvalidConfig("stitch: no snapshots to stitch".into()))??;
    let (config, hub_matrix) = (first.config().clone(), first.hub_matrix().clone());
    let (shard_map, stats) = (first.shard_map().clone(), *first.stats());
    let mut parts = vec![first];
    for (j, snapshot) in snapshots.enumerate() {
        let (other_graph, index) = snapshot?;
        if other_graph != graph
            || index.hub_matrix() != &hub_matrix
            || index.config() != &config
            || index.shard_map() != &shard_map
        {
            return Err(corrupt(format!(
                "stitch: input {} disagrees with input 0 on the graph, P_H or the index layout",
                j + 1
            )));
        }
        parts.push(index);
    }
    // Each input holds one contiguous range: ordered by range, the blocks
    // must tile `0..n` exactly.
    parts.sort_by_key(|index| index.owned_range().start);
    let mut next = 0;
    for index in &parts {
        let owned = index.owned_range();
        if owned.start != next {
            let (i, what) = if owned.start < next {
                (shard_map.shard_of(owned.start), "is held by two inputs")
            } else {
                (shard_map.shard_of(next), "is held by no input")
            };
            return Err(corrupt(format!("stitch: shard {i} {what}")));
        }
        next = owned.end;
    }
    if next as usize != shard_map.node_count() {
        let i = shard_map.shard_of(next);
        return Err(corrupt(format!("stitch: shard {i} is held by no input")));
    }
    let states: Vec<NodeState> = parts.into_iter().flat_map(ReverseIndex::into_block).collect();

    // The first input's stats scalars, derived size figures recomputed from
    // the stitched states — the same split the on-disk format uses.
    let mut stats_buf = Vec::new();
    write_stats(&mut stats_buf, &stats)?;
    let stats = read_stats(&mut stats_buf.as_slice(), &states, &hub_matrix, graph.node_count())?;
    let index = ReverseIndex::from_states(config, hub_matrix, shard_map, None, states, stats);
    Ok((graph, index))
}

/// [`stitch`] from files: opens `<prefix>.shard0`, `<prefix>.shard1`, …
/// until the next index is missing, then stitches what was found. At least
/// `<prefix>.shard0` must exist.
pub fn stitch_path_prefix<P: AsRef<Path>>(prefix: P) -> Result<Snapshot, IndexError> {
    let prefix = prefix.as_ref();
    let mut files = Vec::new();
    loop {
        let path = section_path(prefix, files.len());
        if !path.exists() {
            break;
        }
        files.push(std::fs::File::open(path)?);
    }
    if files.is_empty() {
        return Err(IndexError::InvalidConfig(format!(
            "stitch: no shard snapshots at {:?}",
            section_path(prefix, 0)
        )));
    }
    stitch(files)
}

/// `<prefix>.shard<i>` — the naming convention of router-tier persists.
fn section_path(prefix: &Path, i: usize) -> std::path::PathBuf {
    let mut name = prefix.as_os_str().to_os_string();
    name.push(format!(".shard{i}"));
    std::path::PathBuf::from(name)
}

/// Saves to a file path (see [`save`]).
pub fn save_path<P: AsRef<Path>>(
    graph: &DiGraph,
    index: &ReverseIndex,
    path: P,
) -> Result<(), IndexError> {
    save(graph, index, std::fs::File::create(path)?)
}

/// Loads from a file path (see [`load`]).
pub fn load_path<P: AsRef<Path>>(path: P) -> Result<Snapshot, IndexError> {
    load(std::fs::File::open(path)?)
}

/// Loads the graph and the index holding only shard `shard_id` from a
/// snapshot file (see [`load_one_shard`]).
pub fn load_one_shard_path<P: AsRef<Path>>(
    path: P,
    shard_id: usize,
) -> Result<Snapshot, IndexError> {
    load_one_shard(std::fs::File::open(path)?, shard_id)
}

// ---------------------------------------------------------------------------
// RTKULOG1 — append-only edge-update log
// ---------------------------------------------------------------------------

/// Magic tag of the update-log format.
pub const ULOG_MAGIC: &[u8; 8] = b"RTKULOG1";
/// Current update-log format version.
pub const ULOG_VERSION: u32 = 1;
/// Fixed byte size of one encoded [`UpdateRecord`] (`u32` op, `u32` from,
/// `u32` to, `f64` weight).
pub const ULOG_RECORD_BYTES: usize = 20;

const ULOG_OP_ADD: u32 = 0;
const ULOG_OP_REMOVE: u32 = 1;

/// One logged edge update. The log stores only the edit — the affected-set
/// recompute it triggers ([`crate::update`]) is a deterministic function of
/// the edit and the graph, so `snapshot + replay(log)` regenerates the live
/// engine exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UpdateRecord {
    /// Insert the edge (or accumulate onto an existing one's weight).
    AddEdge {
        /// Edge tail.
        from: u32,
        /// Edge head.
        to: u32,
        /// Weight to add (must be finite and `> 0`).
        weight: f64,
    },
    /// Remove an existing edge entirely.
    RemoveEdge {
        /// Edge tail.
        from: u32,
        /// Edge head.
        to: u32,
    },
}

impl UpdateRecord {
    /// The edge tail — the node whose transition row the update renormalizes.
    pub fn source(&self) -> u32 {
        match self {
            UpdateRecord::AddEdge { from, .. } | UpdateRecord::RemoveEdge { from, .. } => *from,
        }
    }

    /// Encodes one fixed-width record (no header; see [`write_update_log`]).
    pub fn encode<W: Write>(&self, w: &mut W) -> Result<(), IndexError> {
        let (op, from, to, weight) = match *self {
            UpdateRecord::AddEdge { from, to, weight } => (ULOG_OP_ADD, from, to, weight),
            // Removals carry a canonical 0.0 payload so encode∘decode is
            // the identity on bytes.
            UpdateRecord::RemoveEdge { from, to } => (ULOG_OP_REMOVE, from, to, 0.0),
        };
        codec::write_u32(w, op)?;
        codec::write_u32(w, from)?;
        codec::write_u32(w, to)?;
        codec::write_f64(w, weight)?;
        Ok(())
    }

    fn decode(buf: &[u8; ULOG_RECORD_BYTES], index: usize) -> Result<Self, IndexError> {
        let op = u32::from_le_bytes(buf[0..4].try_into().expect("fixed slice"));
        let from = u32::from_le_bytes(buf[4..8].try_into().expect("fixed slice"));
        let to = u32::from_le_bytes(buf[8..12].try_into().expect("fixed slice"));
        let weight = f64::from_le_bytes(buf[12..20].try_into().expect("fixed slice"));
        match op {
            ULOG_OP_ADD => {
                if !(weight.is_finite() && weight > 0.0) {
                    return Err(corrupt(format!(
                        "update record {index}: add-edge weight {weight} is not positive finite"
                    )));
                }
                Ok(UpdateRecord::AddEdge { from, to, weight })
            }
            ULOG_OP_REMOVE => {
                if weight.to_bits() != 0 {
                    return Err(corrupt(format!(
                        "update record {index}: remove-edge carries non-canonical weight {weight}"
                    )));
                }
                Ok(UpdateRecord::RemoveEdge { from, to })
            }
            other => Err(corrupt(format!("update record {index}: unknown op {other}"))),
        }
    }
}

/// Writes the `RTKULOG1` header. Appenders call this once on a fresh log,
/// then [`UpdateRecord::encode`] per update — no length prefix or trailer,
/// so the file can grow by pure appends.
pub fn write_update_log_header<W: Write>(w: &mut W) -> Result<(), IndexError> {
    codec::write_header(w, ULOG_MAGIC, ULOG_VERSION)?;
    Ok(())
}

/// Writes a complete log: header plus every record.
pub fn write_update_log<W: Write>(w: &mut W, records: &[UpdateRecord]) -> Result<(), IndexError> {
    write_update_log_header(w)?;
    for r in records {
        r.encode(w)?;
    }
    Ok(())
}

/// Reads a log until end-of-stream ([`read_update_log_bounded`] with the
/// codec's global sequence cap).
pub fn read_update_log<R: Read>(r: R) -> Result<Vec<UpdateRecord>, IndexError> {
    read_update_log_bounded(r, codec::MAX_SEQ_LEN)
}

/// Reads a log until end-of-stream, rejecting logs longer than
/// `max_records`. The record stream has no length prefix (append-only), so
/// "done" is exactly "zero bytes left"; a partial trailing record — a
/// truncated append — is a decode error, never silently dropped.
pub fn read_update_log_bounded<R: Read>(
    r: R,
    max_records: u64,
) -> Result<Vec<UpdateRecord>, IndexError> {
    let mut r = BufReader::new(r);
    codec::read_header(&mut r, ULOG_MAGIC, ULOG_VERSION)?;
    let max_records = max_records.min(codec::MAX_SEQ_LEN);
    let mut records = Vec::new();
    let mut buf = [0u8; ULOG_RECORD_BYTES];
    loop {
        let mut filled = 0usize;
        while filled < ULOG_RECORD_BYTES {
            let n = r.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        if filled == 0 {
            return Ok(records);
        }
        if filled < ULOG_RECORD_BYTES {
            return Err(corrupt(format!(
                "update log truncated mid-record: record {} has {filled} of {ULOG_RECORD_BYTES} bytes",
                records.len()
            )));
        }
        if records.len() as u64 >= max_records {
            return Err(corrupt(format!("update log holds more than {max_records} records")));
        }
        records.push(UpdateRecord::decode(&buf, records.len())?);
    }
}

/// Writes a complete log to a file path.
pub fn save_update_log<P: AsRef<Path>>(
    path: P,
    records: &[UpdateRecord],
) -> Result<(), IndexError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_update_log(&mut w, records)?;
    w.flush()?;
    Ok(())
}

/// Reads a complete log from a file path.
pub fn load_update_log<P: AsRef<Path>>(path: P) -> Result<Vec<UpdateRecord>, IndexError> {
    read_update_log(std::fs::File::open(path)?)
}

/// Appends `record` to the log at `path`, creating the file (with header)
/// if missing. This is the durable-server write path: one `open — append —
/// sync` per applied update, after the in-memory apply succeeded.
pub fn append_update_log<P: AsRef<Path>>(path: P, record: &UpdateRecord) -> Result<(), IndexError> {
    use std::io::Seek;
    let mut f = std::fs::OpenOptions::new().read(true).append(true).create(true).open(path)?;
    if f.seek(std::io::SeekFrom::End(0))? == 0 {
        write_update_log_header(&mut f)?;
    }
    record.encode(&mut f)?;
    f.sync_data()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::{DanglingPolicy, GraphBuilder, TransitionMatrix};
    use std::io::Cursor;

    /// The paper's Figure 1 graph and its index, in `shards` shards.
    fn build_index(shards: usize) -> (DiGraph, ReverseIndex) {
        let g = GraphBuilder::from_edges(
            6,
            &[
                (0, 1),
                (0, 3),
                (0, 5),
                (1, 0),
                (1, 2),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 4),
                (4, 1),
                (5, 1),
                (5, 3),
            ],
            DanglingPolicy::Error,
        )
        .unwrap();
        let config = IndexConfig {
            max_k: 3,
            hub_selection: HubSelection::DegreeBased { b: 1 },
            rounding_threshold: 1e-6,
            threads: 1,
            ..Default::default()
        };
        let mut index = ReverseIndex::build(&TransitionMatrix::new(&g), config).unwrap();
        index.repartition(shards);
        (g, index)
    }

    /// A fixed toy node record: every field non-empty, sequences of odd and
    /// even lengths, so words straddle the `u32` / `u64` boundaries.
    fn toy_record() -> (BcaSnapshot, DescendingTopK) {
        let sparse = |ids: &[u32], vals: &[f64]| {
            rtk_sparse::SparseVector::from_parts(ids.to_vec(), vals.to_vec())
        };
        let snapshot = BcaSnapshot {
            source: 7,
            iterations: 3,
            residue: sparse(&[1, 4, 9], &[0.125, 0.0625, 1e-9]),
            retained: sparse(&[0, 7], &[0.15, 0.3]),
            hub_ink: sparse(&[2], &[0.2]),
        };
        let lower_bounds = DescendingTopK::from_sorted(vec![(7, 0.3), (0, 0.15), (4, 0.01)], 4);
        (snapshot, lower_bounds)
    }

    fn encoded_node_record(snapshot: &BcaSnapshot, lower_bounds: &DescendingTopK) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_node_record(&mut bytes, snapshot, lower_bounds).unwrap();
        bytes
    }

    /// The record hashes are pinned: a change of platform, of the hasher,
    /// or of how a record is fed to it shows here first.
    #[test]
    fn record_hashes_are_pinned() {
        let (snapshot, lower_bounds) = toy_record();
        let column = rtk_sparse::SparseVector::from_parts(vec![0, 3, 5], vec![0.5, 0.25, 0.125]);
        let node = node_record_digest(&snapshot, &lower_bounds);
        let hub = hub_record_digest(&column, 0.125);
        assert_eq!(node, 0x3a9d_2a84_79d4_960e, "node record: {node:#018x}");
        assert_eq!(hub, 0x0c39_18b2_4489_4ad7, "hub record: {hub:#018x}");
    }

    /// A record hash is the record hash of the persisted bytes, for the
    /// toy record, every record of a built index and every hub record.
    #[test]
    fn record_hashes_hash_the_persisted_record_bytes() {
        let (snapshot, lower_bounds) = toy_record();
        let bytes = encoded_node_record(&snapshot, &lower_bounds);
        assert_eq!(
            node_record_digest(&snapshot, &lower_bounds),
            crate::digest::record_hash(&bytes)
        );
        let (_, index) = build_index(1);
        for u in 0..index.node_count() as u32 {
            let state = index.state(u);
            let bytes = encoded_node_record(state.snapshot(), state.lower_bounds());
            assert_eq!(index.record_digest(u, false), crate::digest::record_hash(&bytes));
        }
        let hm = index.hub_matrix();
        for (i, &h) in hm.hubs().ids().iter().enumerate() {
            let mut bytes = Vec::new();
            write_hub_record(&mut bytes, &hm.column(h).unwrap(), hm.deficit(h)).unwrap();
            assert_eq!(hm.column_digest(i, false), crate::digest::record_hash(&bytes));
        }
    }

    #[test]
    fn flipping_any_bit_of_an_encoded_record_changes_its_hash() {
        let (snapshot, lower_bounds) = toy_record();
        let mut bytes = encoded_node_record(&snapshot, &lower_bounds);
        let clean = crate::digest::record_hash(&bytes);
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crate::digest::record_hash(&bytes), clean, "bit {bit}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn equal_records_hash_equal_whatever_their_capacity() {
        let (snapshot, lower_bounds) = toy_record();
        let roomy = |v: &rtk_sparse::SparseVector| {
            let mut indices = Vec::with_capacity(v.nnz() + 40);
            let mut values = Vec::with_capacity(v.nnz() + 40);
            indices.extend_from_slice(v.indices());
            values.extend_from_slice(v.values());
            rtk_sparse::SparseVector::from_parts(indices, values)
        };
        let mut entries = Vec::with_capacity(64);
        entries.extend_from_slice(lower_bounds.entries());
        let wide = BcaSnapshot {
            residue: roomy(&snapshot.residue),
            retained: roomy(&snapshot.retained),
            hub_ink: roomy(&snapshot.hub_ink),
            ..snapshot.clone()
        };
        assert!(wide.residue.heap_bytes() > snapshot.residue.heap_bytes(), "more capacity");
        let wide_bounds = DescendingTopK::from_sorted(entries, lower_bounds.capacity());
        assert_eq!(
            node_record_digest(&wide, &wide_bounds),
            node_record_digest(&snapshot, &lower_bounds)
        );
        let column = roomy(&snapshot.residue);
        assert_eq!(hub_record_digest(&column, 0.5), hub_record_digest(&snapshot.residue, 0.5));
    }

    fn saved(g: &DiGraph, index: &ReverseIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        save(g, index, &mut buf).unwrap();
        buf
    }

    /// Offset of the node count: header (12), the graph section's length
    /// prefix (8) and the graph section.
    fn prelude(buf: &[u8]) -> usize {
        20 + u64::from_le_bytes(buf[12..20].try_into().unwrap()) as usize
    }

    #[test]
    fn round_trips_states_and_hubs() {
        let (g, index) = build_index(1);
        let buf = saved(&g, &index);
        assert_eq!(&buf[..8], MANIFEST_MAGIC);
        let (graph, loaded) = load(Cursor::new(buf)).unwrap();
        assert_eq!(graph, g);
        assert_eq!((loaded.max_k(), loaded.owned_shard()), (index.max_k(), None));
        assert_eq!(loaded.hub_matrix(), index.hub_matrix());
        assert_eq!(loaded.hub_matrix().unrounded_nnz(), index.hub_matrix().unrounded_nnz());
        for u in 0..6u32 {
            assert_eq!(loaded.state(u), index.state(u), "node {u}");
        }
        // The solver comes back as built, so an edge update re-solves the
        // hub columns as it would have before the save.
        assert_eq!(loaded.config().hub_solver, index.config().hub_solver);
    }

    #[test]
    fn sharded_round_trip_preserves_everything() {
        for shards in [1usize, 2, 3, 6] {
            let (g, index) = build_index(shards);
            let buf = saved(&g, &index);
            // Every shard count produces the manifest layout.
            assert_eq!(&buf[..8], MANIFEST_MAGIC);
            let (graph, loaded) = load(Cursor::new(&buf)).unwrap();
            assert_eq!(loaded.shard_map(), index.shard_map());
            assert_eq!(loaded.shard_count(), shards);
            for u in 0..6u32 {
                assert_eq!(loaded.state(u), index.state(u), "shards={shards} node {u}");
            }
            assert_eq!(saved(&graph, &loaded), buf, "shards={shards}: save → load → save");
        }
    }

    #[test]
    fn flattening_a_sharded_index_restores_its_bytes() {
        // Sharding changes layout, never content: re-partitioning to 3
        // shards and back to 1 saves the exact bytes of the index that was
        // never sharded (`rtk shard split --shards 1`'s guarantee).
        let (g, single) = build_index(1);
        let mut flattened = single.clone();
        flattened.repartition(3);
        flattened.repartition(1);
        assert_eq!(saved(&g, &single), saved(&g, &flattened));
    }

    #[test]
    fn standalone_shard_sections_round_trip() {
        // A one-shard index saves the graph, `P_H`, the shard map and its
        // own section (a backend's persist), and loads back as itself.
        let (g, index) = build_index(3);
        for sid in 0..3 {
            let one = index.one_shard(sid).unwrap();
            let buf = saved(&g, &one);
            let (graph, back) = load(Cursor::new(&buf)).unwrap();
            assert_eq!(graph, g);
            assert_eq!(back.owned_shard(), Some(sid));
            assert_eq!(back.shard_map(), index.shard_map());
            assert!(back.iter_states().eq(one.iter_states()));
            assert_eq!(saved(&graph, &back), buf, "shard {sid}: save → load → save");
            // Only its own shard is in the file.
            assert!(load_one_shard(Cursor::new(&buf), (sid + 1) % 3).is_err(), "{sid}");
        }
    }

    fn one_shard_files(g: &DiGraph, index: &ReverseIndex) -> Vec<Vec<u8>> {
        (0..index.shard_count())
            .map(|sid| saved(g, &index.one_shard(sid).unwrap()))
            .collect()
    }

    fn stitch_bytes(parts: &[&Vec<u8>]) -> Result<Snapshot, IndexError> {
        stitch(parts.iter().map(|b| Cursor::new(b.as_slice())).collect())
    }

    #[test]
    fn stitch_reassembles_persisted_shard_sections() {
        let (g, index) = build_index(3);
        // Persist each shard standalone, as router backends do, and hand
        // the files back in scrambled order.
        let mut files = one_shard_files(&g, &index);
        files.rotate_left(1);
        let (graph, stitched) = stitch_bytes(&files.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(graph, g);
        assert_eq!(stitched.owned_shard(), None);
        for u in 0..6u32 {
            assert_eq!(stitched.state(u), index.state(u), "node {u}");
        }
        // The stitched snapshot is the whole index's.
        assert_eq!(saved(&graph, &stitched), saved(&g, &index));
    }

    #[test]
    fn stitch_rejects_gaps_duplicates_and_short_tails() {
        let (g, index) = build_index(3);
        let files = one_shard_files(&g, &index);
        let (s0, s1, s2) = (&files[0], &files[1], &files[2]);
        assert!(stitch_bytes(&[]).is_err(), "no inputs");
        assert!(stitch_bytes(&[s0, s2]).is_err(), "gap where shard 1 should be");
        assert!(stitch_bytes(&[s0, s0, s1, s2]).is_err(), "duplicate range");
        assert!(stitch_bytes(&[s0, s1]).is_err(), "tail does not reach n");
        assert!(stitch_bytes(&[s1, s2]).is_err(), "does not start at node 0");
        // The full set still stitches after all those rejections.
        assert!(stitch_bytes(&[s0, s1, s2]).is_ok());
    }

    #[test]
    fn stitch_path_prefix_reads_consecutive_sections() {
        let (g, index) = build_index(2);
        let dir = std::env::temp_dir().join("rtk_index_stitch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("snap.rtki");
        for (sid, bytes) in one_shard_files(&g, &index).iter().enumerate() {
            std::fs::write(dir.join(format!("snap.rtki.shard{sid}")), bytes).unwrap();
        }
        let (_, stitched) = stitch_path_prefix(&prefix).unwrap();
        assert_eq!(stitched.shard_count(), 2);
        for u in 0..6u32 {
            assert_eq!(stitched.state(u), index.state(u), "node {u}");
        }
        std::fs::remove_file(dir.join("snap.rtki.shard0")).unwrap();
        std::fs::remove_file(dir.join("snap.rtki.shard1")).unwrap();
        // With no files on disk the prefix loader fails cleanly.
        assert!(stitch_path_prefix(&prefix).is_err());
    }

    #[test]
    fn loaded_index_refines_identically() {
        let (g, mut original) = build_index(1);
        let t = TransitionMatrix::new(&g);
        let (_, mut loaded) = load(Cursor::new(saved(&g, &original))).unwrap();

        for index in [&mut original, &mut loaded] {
            let mut engine =
                rtk_rwr::bca::BcaEngine::new(index.hub_matrix().hubs().clone(), index.config().bca);
            let mut copy = index.state(3).clone();
            crate::node_state::refine_state(
                &mut copy,
                &t,
                &mut engine,
                index.hub_matrix(),
                &mut crate::hub_matrix::Materializer::default(),
                &rtk_rwr::bca::BcaStop::one_iteration(),
            );
            index.commit_state(3, copy);
        }
        assert_eq!(original.state(3), loaded.state(3));
    }

    #[test]
    fn rejects_corrupt_magic() {
        let (g, index) = build_index(1);
        let mut buf = saved(&g, &index);
        buf[3] = b'?';
        assert!(load(Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejects_duplicate_hub_ids_cleanly() {
        let (g, index) = build_index(1);
        assert!(index.hub_matrix().hub_count() >= 2);
        let mut buf = saved(&g, &index);
        // Locate the hub-id sequence after the manifest prelude: n/max_k/
        // shards (24) + bca (28) + omega (8), the starts `u32seq` (u64 count
        // + one u32 per shard), then the hub-id u64 count and the ids.
        // Overwrite the second id with the first.
        let ids_start = prelude(&buf) + 24 + 28 + 8 + (8 + 4 * index.shard_count()) + 8;
        let first = buf[ids_start..ids_start + 4].to_vec();
        buf[ids_start + 4..ids_start + 8].copy_from_slice(&first);
        // Must be a clean decode error naming the duplicate, not a HubSet
        // panic.
        match load(Cursor::new(buf)) {
            Err(IndexError::Decode(DecodeError::Corrupt(m))) => {
                assert!(m.contains("duplicate hub id"), "{m}")
            }
            other => panic!("expected a duplicate-hub-id error, got {:?}", other.err()),
        }
    }

    #[test]
    fn rejects_hub_ink_at_a_non_hub_cleanly() {
        let (g, index) = build_index(1);
        let hubs = index.hub_matrix().hubs();
        // A node whose last parked ink sits at a hub followed by a non-hub:
        // moving that ink one id up keeps the ids ascending and in range.
        let (u, state) = (0..6u32)
            .map(|u| (u, index.state(u)))
            .find(|(_, s)| {
                s.snapshot()
                    .hub_ink
                    .indices()
                    .last()
                    .is_some_and(|&h| h < 5 && !hubs.contains(h + 1))
            })
            .expect("test premise: a node parks ink at a hub below a non-hub");
        let snap = state.snapshot();
        let record = encoded_node_record(snap, state.lower_bounds());
        let mut buf = saved(&g, &index);
        let at = buf.windows(record.len()).position(|w| w == record).expect("node record");
        // The last hub-ink id: source and iterations (8), `r` and `w`, the
        // id count (8) and the ids before it.
        let encoded_len = |v: &rtk_sparse::SparseVector| {
            let mut bytes = Vec::new();
            codec::write_sparse_vector(&mut bytes, v).unwrap();
            bytes.len()
        };
        let last = at
            + 8
            + encoded_len(&snap.residue)
            + encoded_len(&snap.retained)
            + 8
            + 4 * (snap.hub_ink.nnz() - 1);
        let hub = *snap.hub_ink.indices().last().unwrap();
        assert_eq!(buf[last..last + 4], hub.to_le_bytes());
        buf[last..last + 4].copy_from_slice(&(hub + 1).to_le_bytes());
        // A clean decode error naming the node and the id, not a panic on
        // the state's first refinement.
        match load(Cursor::new(buf)) {
            Err(IndexError::Decode(DecodeError::Corrupt(m))) => {
                assert!(m.contains(&format!("node {u}: hub ink at node {}", hub + 1)), "{m}")
            }
            other => panic!("expected a non-hub hub-ink error, got {:?}", other.err()),
        }
    }

    #[test]
    fn rejects_truncated_stream() {
        let (g, index) = build_index(1);
        let mut buf = saved(&g, &index);
        buf.truncate(buf.len() / 2);
        assert!(load(Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejects_manifest_shard_range_mismatch() {
        let (g, index) = build_index(2);
        let mut buf = saved(&g, &index);
        // Corrupt the second shard-start offset (starts live 60 bytes into
        // the prelude: n/max_k/shards 24 + bca 28 + omega 8; then the u64
        // count and the first u32 start).
        let second_start = prelude(&buf) + 60 + 8 + 4;
        buf[second_start] = buf[second_start].wrapping_add(1);
        assert!(load(Cursor::new(buf)).is_err());
    }

    #[test]
    fn shard_slices_load_standalone_from_manifest() {
        let (g, index) = build_index(3);
        let buf = saved(&g, &index);
        for sid in 0..3usize {
            let (graph, one) = load_one_shard(Cursor::new(&buf), sid).unwrap();
            assert_eq!(graph, g);
            assert_eq!(one.owned_shard(), Some(sid));
            assert_eq!(one.shard_map(), index.shard_map());
            assert_eq!(one.shard_count(), 3);
            assert_eq!(one.node_count(), 6);
            assert_eq!(one.max_k(), 3);
            assert_eq!(one.hub_matrix().hubs().ids(), index.hub_matrix().hubs().ids());
            assert_eq!(one.owned_range(), index.shard_map().range(sid));
            let held: Vec<_> = one.held_shards().map(|(id, range, _)| (id, range)).collect();
            assert_eq!(held, [(sid, index.shard_map().range(sid))]);
            for u in one.owned_range() {
                assert_eq!(one.state(u), index.state(u), "shard {sid} node {u}");
            }
            // A one-shard index saves what `one_shard` would.
            assert_eq!(saved(&graph, &one), saved(&g, &index.one_shard(sid).unwrap()));
        }
        // Out-of-range shard ids fail cleanly.
        assert!(load_one_shard(Cursor::new(&buf), 3).is_err());
    }

    #[test]
    fn shard_slice_handles_one_shard_manifests_and_from_index() {
        let (g, index) = build_index(1);
        let buf = saved(&g, &index);
        let (_, one) = load_one_shard(Cursor::new(&buf), 0).unwrap();
        assert_eq!(one.owned_shard(), Some(0));
        assert_eq!(one.owned_range(), 0..6);
        assert_eq!(one.iter_states().count(), 6);
        assert!(load_one_shard(Cursor::new(&buf), 1).is_err());

        let mem = index.one_shard(0).unwrap();
        assert!(mem.iter_states().eq(one.iter_states()));
        assert!(index.one_shard(5).is_err());
        // A one-shard index can hand out its own shard, nothing else.
        let (_, sharded) = build_index(2);
        let second = sharded.one_shard(1).unwrap();
        assert!(second.one_shard(1).is_ok());
        assert!(second.one_shard(0).is_err());
    }

    #[test]
    fn short_starts_list_is_corrupt_on_both_load_paths() {
        // A manifest declaring 2 shards but listing 1 start used to pass the
        // one-shard loader's checks and panic in `ShardMap::range` — the
        // file a `--shard-only` backend reads at start-up.
        let (g, index) = build_index(2);
        let mut buf = saved(&g, &index);
        // Starts live 60 bytes into the prelude (see
        // `rejects_manifest_shard_range_mismatch`): u64 count, then one u32
        // per shard. Drop the second start.
        let starts = prelude(&buf) + 60;
        buf[starts..starts + 8].copy_from_slice(&1u64.to_le_bytes());
        buf.drain(starts + 12..starts + 16);
        let is_corrupt = |r: Result<Snapshot, IndexError>| match r {
            Err(IndexError::Decode(DecodeError::Corrupt(m))) => m.contains("starts"),
            _ => false,
        };
        assert!(is_corrupt(load(Cursor::new(&buf))));
        for sid in 0..2 {
            assert!(is_corrupt(load_one_shard(Cursor::new(&buf), sid)), "shard {sid}");
        }
    }

    #[test]
    fn file_path_helpers_work() {
        let (g, index) = build_index(1);
        let dir = std::env::temp_dir().join("rtk_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.rtki");
        save_path(&g, &index, &path).unwrap();
        let (_, loaded) = load_path(&path).unwrap();
        assert_eq!(loaded.node_count(), 6);
        assert_eq!(load_one_shard_path(&path, 0).unwrap().1.owned_shard(), Some(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_builds_of_one_graph_and_config_digest_equal() {
        // The build stats (timings, iterations, pushes, threads) say how an
        // index was made, not what it holds; the digest leaves them out.
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(1000, 6000, 7)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 50,
            hub_selection: HubSelection::DegreeBased { b: 25 },
            threads: 1,
            ..Default::default()
        };
        let a = ReverseIndex::build(&t, config.clone()).unwrap();
        let b = ReverseIndex::build(&t, config).unwrap();
        assert!((0..1000).all(|u| a.state(u) == b.state(u)));
        assert_ne!(a.stats().total_seconds.to_bits(), b.stats().total_seconds.to_bits());
        assert_eq!(index_digest(&a), index_digest(&b));
        assert_eq!(index_digest_cold(&a), index_digest(&a));
    }
}
