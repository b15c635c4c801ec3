//! Graph persistence: TSV edge lists and a versioned binary format.
//!
//! The TSV format matches the SNAP convention used by the paper's datasets:
//! one `from<TAB>to[<TAB>weight]` edge per line, `#` comments ignored. The
//! binary format is the [`rtk_sparse::codec`] layout with magic `RTKGRPH1`.

use crate::builder::{DanglingPolicy, GraphBuilder};
use crate::csr::DiGraph;
use crate::error::GraphError;
use rtk_sparse::codec;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic tag of the binary graph format.
pub const GRAPH_MAGIC: &[u8; 8] = b"RTKGRPH1";
/// Current (and only) binary format version.
pub const GRAPH_VERSION: u32 = 1;

/// Reads a TSV edge list from `reader`.
///
/// * Lines starting with `#` (or blank) are skipped.
/// * Each edge line is `from to [weight]`, whitespace-separated.
/// * `node_count` is inferred as `max id + 1` unless `declared_nodes` is
///   given (necessary when trailing nodes have no edges).
pub fn read_edge_list<R: Read>(
    reader: R,
    declared_nodes: Option<usize>,
    policy: DanglingPolicy,
) -> Result<DiGraph, GraphError> {
    let buf = BufReader::new(reader);
    let mut edges: Vec<(u32, u32, Option<f64>)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut saw_node = false;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse_id = |s: Option<&str>, what: &str| -> Result<u32, GraphError> {
            s.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u32>()
            .map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let from = parse_id(parts.next(), "source id")?;
        let to = parse_id(parts.next(), "target id")?;
        let weight = match parts.next() {
            Some(w) => Some(w.parse::<f64>().map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad weight: {e}"),
            })?),
            None => None,
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno + 1,
                message: "too many fields (expected 2 or 3)".into(),
            });
        }
        saw_node = true;
        max_id = max_id.max(from).max(to);
        edges.push((from, to, weight));
    }
    let n = match declared_nodes {
        Some(n) => n,
        None if saw_node => max_id as usize + 1,
        None => 0,
    };
    let mut b = GraphBuilder::new(n);
    for (f, t, w) in edges {
        match w {
            Some(w) => b.add_weighted_edge(f, t, w)?,
            None => b.add_edge(f, t)?,
        };
    }
    b.build(policy)
}

/// Reads a TSV edge list from a file path. See [`read_edge_list`].
pub fn read_edge_list_path<P: AsRef<Path>>(
    path: P,
    declared_nodes: Option<usize>,
    policy: DanglingPolicy,
) -> Result<DiGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?, declared_nodes, policy)
}

/// Writes `graph` as a TSV edge list (weights emitted only when stored).
pub fn write_edge_list<W: Write>(graph: &DiGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes: {}", graph.node_count())?;
    writeln!(w, "# edges: {}", graph.edge_count())?;
    for (f, t, wt) in graph.edges() {
        if graph.is_weighted() {
            writeln!(w, "{f}\t{t}\t{wt}")?;
        } else {
            writeln!(w, "{f}\t{t}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes `graph` in the binary format (magic `RTKGRPH1`).
pub fn write_binary<W: Write>(graph: &DiGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    codec::write_header(&mut w, GRAPH_MAGIC, GRAPH_VERSION)?;
    codec::write_u64(&mut w, graph.node_count() as u64)?;
    codec::write_u32(&mut w, u32::from(graph.is_weighted()))?;
    codec::write_u64(&mut w, graph.edge_count() as u64)?;
    for (f, t, wt) in graph.edges() {
        codec::write_u32(&mut w, f)?;
        codec::write_u32(&mut w, t)?;
        if graph.is_weighted() {
            codec::write_f64(&mut w, wt)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a graph written by [`write_binary`] straight from `reader`, and
/// not one byte past it, so a graph can sit inside a longer stream (the
/// graph section of an index snapshot). Buffer an unbuffered source first,
/// as [`read_binary_path`] does.
pub fn read_binary<R: Read>(mut r: R) -> Result<DiGraph, GraphError> {
    codec::read_header(&mut r, GRAPH_MAGIC, GRAPH_VERSION)?;
    // Bound both counts before the builder allocates: a corrupt header must
    // fail fast instead of reserving billions of adjacency slots.
    let n = codec::check_len(codec::read_u64(&mut r)?, codec::MAX_SEQ_LEN, "node count")?;
    let weighted = codec::read_u32(&mut r)? != 0;
    let m = codec::check_len(codec::read_u64(&mut r)?, codec::MAX_SEQ_LEN, "edge count")?;
    // A stored graph has no dangling node, so each node owns at least one of
    // the `m` edge records: refusing `n > m` bounds everything `build` sizes
    // by `n` by the records actually read, not by a header.
    if n > m {
        return Err(codec::DecodeError::Corrupt(format!(
            "{n} nodes but {m} edges: a stored graph has no dangling node"
        ))
        .into());
    }
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let f = codec::read_u32(&mut r)?;
        let t = codec::read_u32(&mut r)?;
        if weighted {
            let w = codec::read_f64(&mut r)?;
            b.add_weighted_edge(f, t, w)?;
        } else {
            b.add_edge(f, t)?;
        }
    }
    // The stored graph was already repaired, so Error policy must succeed;
    // failure indicates a corrupt stream.
    b.build(DanglingPolicy::Error)
}

/// Writes the binary format to a file path.
pub fn write_binary_path<P: AsRef<Path>>(graph: &DiGraph, path: P) -> Result<(), GraphError> {
    write_binary(graph, std::fs::File::create(path)?)
}

/// Reads the binary format from a file path.
pub fn read_binary_path<P: AsRef<Path>>(path: P) -> Result<DiGraph, GraphError> {
    read_binary(BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> DiGraph {
        GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)], DanglingPolicy::Error)
            .unwrap()
    }

    #[test]
    fn tsv_round_trip_unweighted() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf), Some(4), DanglingPolicy::Error).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn tsv_round_trip_weighted() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 2.5).unwrap();
        b.add_weighted_edge(1, 0, 0.25).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf), None, DanglingPolicy::Error).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn tsv_skips_comments_and_blanks() {
        let text = "# a comment\n\n0 1\n1 0\n";
        let g = read_edge_list(Cursor::new(text), None, DanglingPolicy::Error).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn tsv_infers_node_count() {
        let text = "0\t7\n7\t0\n";
        let g = read_edge_list(Cursor::new(text), None, DanglingPolicy::SelfLoop).unwrap();
        assert_eq!(g.node_count(), 8);
    }

    #[test]
    fn tsv_rejects_malformed_lines() {
        for bad in ["0", "0 x", "0 1 notaweight", "0 1 1.0 extra"] {
            let err = read_edge_list(Cursor::new(bad), None, DanglingPolicy::SelfLoop);
            assert!(matches!(err.unwrap_err(), GraphError::Parse { line: 1, .. }), "input {bad:?}");
        }
    }

    #[test]
    fn binary_round_trip_unweighted() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read_binary(Cursor::new(buf)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn binary_round_trip_weighted() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 0.5).unwrap();
        b.add_weighted_edge(1, 2, 1.5).unwrap();
        b.add_weighted_edge(2, 0, 2.0).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn binary_rejects_wrong_magic() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    /// `read_binary` on hostile bytes: `Err`, or a graph that round-trips
    /// and has no dangling node. A panic fails the calling test.
    fn read_hostile(bytes: &[u8]) -> Result<DiGraph, GraphError> {
        let read = read_binary(Cursor::new(bytes));
        if let Ok(g) = &read {
            assert!((0..g.node_count() as u32).all(|u| g.out_degree(u) > 0), "dangling node");
            let mut again = Vec::new();
            write_binary(g, &mut again).unwrap();
            assert_eq!(&read_binary(Cursor::new(again)).unwrap(), g);
        }
        read
    }

    #[test]
    fn binary_survives_hostile_bytes() {
        let g = crate::gen::rmat(&crate::gen::RmatConfig::new(30, 90, 5)).unwrap();
        let mut file = Vec::new();
        write_binary(&g, &mut file).unwrap();
        assert_eq!(read_hostile(&file).unwrap(), g);

        for len in 0..file.len() {
            assert!(read_hostile(&file[..len]).is_err(), "truncated to {len} bytes");
        }
        for at in 0..file.len() {
            let mut flipped = file.clone();
            flipped[at] ^= 1 << (at % 8);
            let _ = read_hostile(&flipped);
        }
        // The node count sits at bytes 12..20 and the edge count at 24..32.
        assert_eq!(file[12..20], (g.node_count() as u64).to_le_bytes());
        assert_eq!(file[24..32], (g.edge_count() as u64).to_le_bytes());
        for field in [12..20, 24..32] {
            for count in [1u64 << 32, 1 << 40, 1 << 63] {
                let mut lying = file.clone();
                lying[field.clone()].copy_from_slice(&count.to_le_bytes());
                assert!(read_hostile(&lying).is_err(), "count {count} at {field:?}");
            }
        }
    }

    #[test]
    fn binary_refuses_more_nodes_than_edges() {
        // 32 bytes declaring 10⁹ nodes and no edges: refused on the counts,
        // before the builder sizes anything by the node count.
        let mut buf = Vec::new();
        codec::write_header(&mut buf, GRAPH_MAGIC, GRAPH_VERSION).unwrap();
        codec::write_u64(&mut buf, 1_000_000_000).unwrap();
        codec::write_u32(&mut buf, 0).unwrap();
        codec::write_u64(&mut buf, 0).unwrap();
        assert_eq!(buf.len(), 32);
        assert!(matches!(read_binary(Cursor::new(buf)), Err(GraphError::Decode(_))));
    }
}
