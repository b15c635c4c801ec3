//! Weighted co-authorship network with planted prolific authors
//! (paper §5.4, Table 3).
//!
//! The paper extracts a DBLP subgraph (44,528 authors / 121,352 edges) and
//! weights transitions by co-authorship counts: `a_{i,j} = w_{i,j}/w_j` where
//! `w_{i,j}` counts papers co-authored by `i` and `j` and `w_j` counts `j`'s
//! papers. We synthesize the same structure with an affiliation model:
//!
//! * authors join research *communities*;
//! * "papers" draw 2–4 authors, usually from one community, occasionally
//!   across communities;
//! * a handful of planted **prolific authors** write far more papers and
//!   collaborate across all communities — these play the role of the
//!   Yu/Han/Faloutsos rows of Table 3, whose reverse top-5 lists dwarf their
//!   co-author counts.
//!
//! One normalization deviation from the paper: its
//! `Σ_i w_{i,j}` can exceed `w_j` when papers have 3+ authors, making its
//! transition matrix super-stochastic; we normalize each column by its actual
//! outgoing weight so the RWR fixpoint (Eq. 1) exists. Relative edge weights
//! — the quantity that matters — are identical.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};

/// Parameters for [`dblp_sim`].
#[derive(Clone, Copy, Debug)]
pub struct CoauthorConfig {
    /// Number of authors.
    pub authors: usize,
    /// Number of papers to generate.
    pub papers: usize,
    /// Number of research communities.
    pub communities: usize,
    /// Number of planted prolific authors.
    pub prolific: usize,
    /// Multiplier on a prolific author's paper participation rate.
    pub prolific_boost: f64,
    /// Probability a paper draws authors across communities.
    pub cross_community_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CoauthorConfig {
    fn default() -> Self {
        Self {
            authors: 20_000,
            papers: 40_000,
            communities: 200,
            prolific: 12,
            prolific_boost: 60.0,
            cross_community_prob: 0.15,
            seed: 0xDB1F,
        }
    }
}

/// The generated co-authorship network plus per-author metadata.
#[derive(Clone, Debug)]
pub struct CoauthorDataset {
    /// Weighted undirected-as-bidirected co-authorship graph; edge weight =
    /// number of co-authored papers.
    pub graph: DiGraph,
    /// Papers written by each author (`w_j` in the paper's notation).
    pub publications: Vec<u32>,
    /// Ids of the planted prolific authors.
    pub prolific_authors: Vec<u32>,
}

impl CoauthorDataset {
    /// Number of distinct co-authors of `author` (the graph degree).
    pub fn coauthor_count(&self, author: u32) -> usize {
        self.graph.out_degree(author)
    }
}

/// Generates the co-authorship network.
pub fn dblp_sim(config: &CoauthorConfig) -> CoauthorDataset {
    assert!(config.authors >= 10, "dblp_sim: need at least 10 authors");
    assert!(config.communities >= 1 && config.communities <= config.authors);
    assert!(config.prolific <= config.authors);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.authors;

    // Community assignment: contiguous blocks (ids are arbitrary anyway).
    let community_of = |author: usize| author * config.communities / n;
    let community_bounds = |c: usize| {
        let lo = (c * n).div_ceil(config.communities);
        let hi = ((c + 1) * n).div_ceil(config.communities);
        (lo, hi.max(lo + 1).min(n))
    };

    // Prolific authors: spread across communities, one per stride.
    let prolific_authors: Vec<u32> =
        (0..config.prolific).map(|i| (i * n / config.prolific.max(1)) as u32).collect();
    let is_prolific: Vec<bool> = {
        let mut v = vec![false; n];
        for &p in &prolific_authors {
            v[p as usize] = true;
        }
        v
    };

    let mut publications = vec![0u32; n];
    let mut builder = GraphBuilder::new(n);

    for _ in 0..config.papers {
        let size = rng.gen_range(2..=4usize);
        let mut team: Vec<u32> = Vec::with_capacity(size);

        // Anchor author: prolific with probability proportional to the boost.
        let prolific_mass = config.prolific as f64 * config.prolific_boost;
        let anchor = if rng.gen_bool(prolific_mass / (prolific_mass + n as f64)) {
            prolific_authors[rng.gen_range(0..prolific_authors.len())]
        } else {
            rng.gen_range(0..n) as u32
        };
        team.push(anchor);

        // Remaining authors: same community unless a cross-community paper;
        // prolific authors collaborate everywhere.
        let cross = rng.gen_bool(config.cross_community_prob) || is_prolific[anchor as usize];
        let (lo, hi) = community_bounds(community_of(anchor as usize));
        let mut guard = 0;
        while team.len() < size && guard < 100 {
            guard += 1;
            let candidate =
                if cross { rng.gen_range(0..n) as u32 } else { rng.gen_range(lo..hi) as u32 };
            if !team.contains(&candidate) {
                team.push(candidate);
            }
        }

        for &a in &team {
            publications[a as usize] += 1;
        }
        for i in 0..team.len() {
            for j in 0..team.len() {
                if i != j {
                    builder.add_weighted_edge(team[i], team[j], 1.0).expect("author ids in range");
                }
            }
        }
    }

    // Authors with no papers become isolated; the self-loop policy keeps the
    // graph stochastic (they simply hold their own ink).
    let graph = builder.build(DanglingPolicy::SelfLoop).expect("non-empty graph");
    CoauthorDataset { graph, publications, prolific_authors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CoauthorDataset {
        dblp_sim(&CoauthorConfig {
            authors: 800,
            papers: 2_000,
            communities: 20,
            prolific: 4,
            ..Default::default()
        })
    }

    #[test]
    fn weights_count_coauthored_papers() {
        let d = small();
        assert!(d.graph.is_weighted());
        // Every weight is a positive integer (paper count).
        for (_, _, w) in d.graph.edges() {
            assert!(w >= 1.0 && w.fract() == 0.0, "weight {w}");
        }
    }

    #[test]
    fn edges_are_symmetric_in_weight() {
        let d = small();
        for (f, t, w) in d.graph.edges() {
            if f == t {
                continue; // self-loop repair for paperless authors
            }
            let back = d
                .graph
                .out_neighbors(t)
                .iter()
                .position(|&x| x == f)
                .map(|i| d.graph.out_weights(t).unwrap()[i]);
            assert_eq!(back, Some(w), "asymmetric edge {f}->{t}");
        }
    }

    #[test]
    fn prolific_authors_dominate_publication_counts() {
        let d = small();
        let avg: f64 =
            d.publications.iter().map(|&p| p as f64).sum::<f64>() / d.publications.len() as f64;
        for &p in &d.prolific_authors {
            assert!(
                d.publications[p as usize] as f64 > 5.0 * avg,
                "prolific {p}: {} vs avg {avg}",
                d.publications[p as usize]
            );
        }
    }

    #[test]
    fn prolific_authors_have_many_coauthors() {
        let d = small();
        let avg: f64 = (0..800u32).map(|u| d.coauthor_count(u) as f64).sum::<f64>() / 800.0;
        for &p in &d.prolific_authors {
            assert!(d.coauthor_count(p) as f64 > 3.0 * avg);
        }
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.publications, b.publications);
    }
}
