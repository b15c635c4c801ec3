//! Dataset descriptors tying graphs to the paper's experiment parameters.
//!
//! Table 2 evaluates four hub-budget values `B` per graph; the bold column is
//! the configuration reused by every query experiment (Figures 5–7, 9). The
//! `B` values here are the paper's, scaled by each analogue's node-count
//! ratio (the substitution described in the crate docs) and rounded to
//! friendly numbers.

use rtk_graph::DiGraph;

/// One evaluation dataset and its experiment parameters.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Short name used in harness output ("web-cs-sim", …).
    pub name: &'static str,
    /// The paper dataset this stands in for.
    pub paper_name: &'static str,
    /// Hub budgets `B` swept by Table 2 (scaled from the paper's).
    pub b_values: [usize; 4],
    /// The `B` used by the query experiments (the paper's bold row).
    pub default_b: usize,
    /// Rounding threshold `ω` (paper: 1e-6, 5e-6 for the largest graph).
    pub rounding_threshold: f64,
    /// Builder for the graph.
    pub build: fn() -> DiGraph,
}

impl DatasetSpec {
    /// Builds the dataset's graph.
    pub fn graph(&self) -> DiGraph {
        (self.build)()
    }
}

/// The four unlabeled efficiency datasets of §5.1, in paper order.
pub fn paper_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "web-cs-sim",
            paper_name: "Web-stanford-cs",
            // Paper swept 50/100/200/300 on 9,914 nodes; ours is 10,000.
            b_values: [50, 100, 200, 300],
            default_b: 50,
            rounding_threshold: 1e-6,
            build: crate::web::web_cs_sim,
        },
        DatasetSpec {
            name: "epinions-sim",
            paper_name: "Epinions",
            // Paper: 1000/1500/2000/3000 on 75,879 nodes; ours 25,000 (×⅓).
            b_values: [330, 500, 660, 1000],
            default_b: 660,
            rounding_threshold: 1e-6,
            build: crate::epinions::epinions_sim,
        },
        DatasetSpec {
            name: "web-std-sim",
            paper_name: "Web-stanford",
            // Paper: 1000/1500/2000/3000 on 281,903 nodes; ours 50,000 (~1/5.6).
            b_values: [180, 270, 360, 540],
            default_b: 360,
            rounding_threshold: 1e-6,
            build: crate::web::web_std_sim,
        },
        DatasetSpec {
            name: "web-google-sim",
            paper_name: "Web-google",
            // Paper: 5000/10000/20000/50000 on 875,713 nodes; ours 100,000
            // (~1/8.75).
            b_values: [570, 1140, 2290, 5710],
            default_b: 1140,
            rounding_threshold: 5e-6,
            build: crate::web::web_google_sim,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_four_datasets_in_paper_order() {
        let specs = paper_datasets();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].paper_name, "Web-stanford-cs");
        assert_eq!(specs[3].paper_name, "Web-google");
    }

    #[test]
    fn default_b_is_among_swept_values() {
        for spec in paper_datasets() {
            assert!(
                spec.b_values.contains(&spec.default_b),
                "{}: default_b {} not in {:?}",
                spec.name,
                spec.default_b,
                spec.b_values
            );
        }
    }

    #[test]
    fn smallest_dataset_builds() {
        let spec = &paper_datasets()[0];
        let g = spec.graph();
        assert_eq!(g.node_count(), 10_000);
    }
}
