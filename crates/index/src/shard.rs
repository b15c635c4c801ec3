//! Node-range sharding: a layout of the snapshot, not of memory.
//!
//! The paper's two-phase query screens every node `0..n` independently, so
//! the per-node state is embarrassingly partitionable. A [`ShardMap`] cuts
//! the id space into `S` contiguous ranges. The cut decides how a snapshot
//! is laid out — one section per range (see [`crate::storage`]) — and which
//! range one backend process holds ([`crate::ReverseIndex::one_shard`]). In
//! memory a [`crate::ReverseIndex`] keeps the states of its owned range as
//! one block whatever the map says, so the shard count, like the thread
//! count, may only change wall time, never answers.

use crate::error::IndexError;

/// Partition of the node id space `0..n` into contiguous shard ranges.
///
/// Stored as the start offset of every shard (`starts[0] == 0`, strictly
/// increasing), so `shard_of` is one binary search and ranges are implicit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    node_count: usize,
    starts: Vec<u32>,
}

impl ShardMap {
    /// Splits `0..node_count` into `shards` near-even contiguous ranges
    /// (the first `node_count % shards` ranges get one extra node). The
    /// shard count is clamped to `[1, max(node_count, 1)]` so every shard
    /// is non-empty.
    pub fn even(node_count: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(node_count.max(1));
        let base = node_count / shards;
        let extra = node_count % shards;
        let mut starts = Vec::with_capacity(shards);
        let mut at = 0usize;
        for i in 0..shards {
            starts.push(at as u32);
            at += base + usize::from(i < extra);
        }
        debug_assert_eq!(at, node_count);
        Self { node_count, starts }
    }

    /// Reassembles a map from persisted start offsets, validating shape.
    pub fn from_starts(node_count: usize, starts: Vec<u32>) -> Result<Self, IndexError> {
        if starts.is_empty() {
            return Err(IndexError::InvalidConfig("shard map has no shards".into()));
        }
        if starts[0] != 0 {
            return Err(IndexError::InvalidConfig(format!(
                "shard map must start at node 0, got {}",
                starts[0]
            )));
        }
        if starts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IndexError::InvalidConfig(
                "shard starts must be strictly increasing".into(),
            ));
        }
        if let Some(&last) = starts.last() {
            if node_count > 0 && last as usize >= node_count {
                return Err(IndexError::InvalidConfig(format!(
                    "shard start {last} out of range for {node_count} nodes"
                )));
            }
        }
        Ok(Self { node_count, starts })
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.starts.len()
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Start offsets, one per shard (`starts[0] == 0`).
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// The shard owning node `u`.
    #[inline]
    pub fn shard_of(&self, u: u32) -> usize {
        debug_assert!((u as usize) < self.node_count);
        // partition_point returns the count of starts ≤ u; the owning shard
        // is the last one starting at or before u.
        self.starts.partition_point(|&s| s <= u) - 1
    }

    /// Global node-id range of shard `i`.
    pub fn range(&self, i: usize) -> std::ops::Range<u32> {
        let lo = self.starts[i];
        let hi = self.starts.get(i + 1).copied().unwrap_or(self.node_count as u32);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_covers_every_node_once() {
        for n in [0usize, 1, 5, 6, 7, 100] {
            for s in [1usize, 2, 3, 4, 8, 200] {
                let map = ShardMap::even(n, s);
                assert!(map.shard_count() >= 1);
                assert!(map.shard_count() <= n.max(1));
                let mut covered = 0usize;
                for i in 0..map.shard_count() {
                    let r = map.range(i);
                    assert!(r.start < r.end || n == 0, "empty shard {i} (n={n} s={s})");
                    covered += r.len();
                    for u in r {
                        assert_eq!(map.shard_of(u), i, "n={n} s={s} u={u}");
                    }
                }
                assert_eq!(covered, n, "n={n} s={s}");
            }
        }
    }

    #[test]
    fn even_split_is_balanced() {
        let map = ShardMap::even(10, 4);
        let sizes: Vec<usize> = (0..4).map(|i| map.range(i).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn from_starts_validates() {
        assert!(ShardMap::from_starts(6, vec![]).is_err());
        assert!(ShardMap::from_starts(6, vec![1]).is_err());
        assert!(ShardMap::from_starts(6, vec![0, 3, 3]).is_err());
        assert!(ShardMap::from_starts(6, vec![0, 6]).is_err());
        let map = ShardMap::from_starts(6, vec![0, 2, 4]).unwrap();
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.range(2), 4..6);
        assert_eq!(map.shard_of(3), 1);
    }

    #[test]
    fn single_shard_map_is_identity() {
        let map = ShardMap::even(42, 1);
        assert_eq!(map.shard_count(), 1);
        assert_eq!(map.range(0), 0..42);
        assert_eq!(map.shard_of(41), 0);
    }
}
