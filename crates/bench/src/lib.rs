//! Shared harness for the experiment binaries (one per table/figure of the
//! paper — `docs/ARCHITECTURE.md`, "Perf tracking", lists what each emits).
//!
//! Every binary accepts:
//!
//! * `--quick` — scaled-down workloads (the committed `EXPERIMENTS.md`
//!   numbers use this mode);
//! * `--full`  — the full workloads (default);
//! * `--queries N` — override the workload size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_datasets::DatasetSpec;
use rtk_graph::DiGraph;
use rtk_index::{HubSelection, HubSolver, IndexConfig};
use rtk_obs::{log_event, Json, Level};
use rtk_rwr::{BcaParams, RwrParams};

/// Parsed command-line options shared by all experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Scaled-down workloads for fast runs.
    pub quick: bool,
    /// Optional workload-size override.
    pub queries: Option<usize>,
}

impl Args {
    /// Parses `std::env::args()`. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        let mut args = Args { quick: false, queries: None };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--full" => args.quick = false,
                "--queries" => {
                    let v = it.next().unwrap_or_default();
                    args.queries = Some(v.parse().unwrap_or_else(|_| {
                        log_event(
                            Level::Error,
                            "bench",
                            &format!("--queries expects a number, got {v:?}"),
                            &[],
                        );
                        std::process::exit(2);
                    }));
                }
                "--help" | "-h" => {
                    println!("usage: [--quick|--full] [--queries N]");
                    std::process::exit(0);
                }
                other => {
                    log_event(
                        Level::Error,
                        "bench",
                        &format!("unknown flag {other:?}; try --help"),
                        &[],
                    );
                    std::process::exit(2);
                }
            }
        }
        args
    }

    /// Workload size: the override, or `quick`/`full` defaults.
    pub fn workload(&self, quick_default: usize, full_default: usize) -> usize {
        self.queries.unwrap_or(if self.quick { quick_default } else { full_default })
    }
}

/// Builds the paper-default index configuration for a dataset spec.
///
/// Hub vectors use the power method on small graphs and exhaustive-ish BCA
/// on large ones (the paper permits either, see `rtk_index::HubSolver` — BCA keeps
/// multi-thousand-hub builds tractable on one machine, with the truncation
/// tracked as a deficit).
pub fn index_config(spec: &DatasetSpec, b: usize, nodes: usize) -> IndexConfig {
    let alpha = 0.15;
    let hub_solver = if nodes > 30_000 {
        HubSolver::Bca(BcaParams {
            alpha,
            propagation_threshold: 1e-7,
            residue_threshold: 1e-3,
            max_iterations: 100_000,
        })
    } else {
        HubSolver::PowerMethod(RwrParams::with_alpha(alpha))
    };
    IndexConfig {
        max_k: 200,
        bca: BcaParams::default(),
        hub_selection: HubSelection::DegreeBased { b },
        hub_solver,
        rounding_threshold: spec.rounding_threshold,
        threads: 0,
        shards: 1,
    }
}

/// A deterministic random query workload over `0..n`.
pub fn query_workload(n: usize, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(0..n) as u32).collect()
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Bytes → mebibytes.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Prints a markdown table with aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        line(row.clone());
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper_ref: &str, dataset: &str, workload: &str) {
    println!("## {id} — reproducing {paper_ref}");
    println!("dataset: {dataset}; workload: {workload}");
    println!();
}

/// Summarizes a graph for banners.
pub fn graph_summary(g: &DiGraph) -> String {
    format!("{} nodes / {} edges", g.node_count(), g.edge_count())
}

/// Builds a [`Json`] object from `(key, value)` pairs — shorthand for the
/// study writers.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The standard `"graph"` member every study artifact carries.
pub fn graph_json(kind: &str, nodes: usize, edges: usize, seed: u64) -> Json {
    obj(vec![
        ("kind", Json::Str(kind.to_string())),
        ("nodes", Json::U64(nodes as u64)),
        ("edges", Json::U64(edges as u64)),
        ("seed", Json::U64(seed)),
    ])
}

/// Writes a machine-readable `BENCH_*.json` artifact and announces it.
///
/// All study binaries serialize through [`rtk_obs::Json`] — the same tree
/// and renderer behind `rtk remote stats --json` — so the artifacts stay
/// schema-aligned by construction instead of by hand-matched format
/// strings.
pub fn write_json_artifact(path: &str, value: &Json) {
    let mut text = value.render_pretty();
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| {
        log_event(Level::Error, "bench", &format!("cannot write {path}: {e}"), &[]);
        std::process::exit(1);
    });
    println!("wrote {path}");
}

/// Sets one top-level member of an existing `BENCH_*.json` artifact,
/// preserving every other member — so a study can contribute its section
/// to an artifact another binary owns (e.g. `update_study` adding
/// `incremental_vs_rebuild` to `parallel_study`'s `BENCH_query.json`)
/// without rerunning or clobbering the rest. Creates the file with just
/// this member when it does not exist.
pub fn merge_json_artifact(path: &str, key: &str, value: &Json) {
    let text = match std::fs::read_to_string(path) {
        Ok(existing) => merge_top_level_member(&existing, key, value).unwrap_or_else(|why| {
            log_event(Level::Error, "bench", &format!("cannot merge into {path}: {why}"), &[]);
            std::process::exit(1);
        }),
        Err(_) => {
            let mut t = obj(vec![(key, value.clone())]).render_pretty();
            t.push('\n');
            t
        }
    };
    std::fs::write(path, text).unwrap_or_else(|e| {
        log_event(Level::Error, "bench", &format!("cannot write {path}: {e}"), &[]);
        std::process::exit(1);
    });
    println!("merged {key:?} into {path}");
}

/// Replaces (or appends) `key` among the top-level members of a rendered
/// JSON object, leaving the other members' raw text untouched.
fn merge_top_level_member(text: &str, key: &str, value: &Json) -> Result<String, String> {
    let mut members = split_top_level_members(text)?;
    members.retain(|(k, _)| k != key);
    members.push((key.to_string(), value.render_pretty()));
    let body = members
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    Ok(format!("{{\n{body}\n}}\n"))
}

/// Splits a rendered JSON object into its top-level `(key, raw value)`
/// members. Only needs to handle what [`Json::render_pretty`] emits, but
/// tracks strings/escapes/nesting properly so hand-edited artifacts do
/// not get mangled silently — anything unparsable is an error.
fn split_top_level_members(text: &str) -> Result<Vec<(String, String)>, String> {
    let trimmed = text.trim();
    let inner = trimmed
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("artifact is not a JSON object")?;
    let chars: Vec<char> = inner.chars().collect();
    let mut members = Vec::new();
    let mut i = 0;
    loop {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i >= chars.len() {
            break;
        }
        if chars[i] != '"' {
            return Err(format!("expected a quoted key, found {:?}", chars[i]));
        }
        i += 1;
        let mut key = String::new();
        while i < chars.len() && chars[i] != '"' {
            if chars[i] == '\\' {
                key.push(chars[i]);
                i += 1;
                if i >= chars.len() {
                    return Err("truncated escape in key".into());
                }
            }
            key.push(chars[i]);
            i += 1;
        }
        if i >= chars.len() {
            return Err("unterminated key".into());
        }
        i += 1; // closing quote
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i >= chars.len() || chars[i] != ':' {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        let start = i;
        let mut depth = 0i64;
        let mut in_string = false;
        while i < chars.len() {
            let c = chars[i];
            if in_string {
                match c {
                    '\\' => i += 1,
                    '"' => in_string = false,
                    _ => {}
                }
            } else {
                match c {
                    '"' => in_string = true,
                    '[' | '{' => depth += 1,
                    ']' | '}' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        if depth != 0 || in_string {
            return Err(format!("unbalanced value for key {key:?}"));
        }
        members.push((key, chars[start..i].iter().collect::<String>().trim().to_string()));
        if i < chars.len() {
            i += 1; // the separating comma
        }
    }
    Ok(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_in_range() {
        let a = query_workload(100, 50, 1);
        let b = query_workload(100, 50, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|&q| q < 100));
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn mean_and_mib() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mib(1024 * 1024), 1.0);
    }

    #[test]
    fn json_helpers_share_the_obs_renderer() {
        let g = graph_json("rmat", 10, 20, 7);
        assert_eq!(g.render(), r#"{"kind":"rmat","nodes":10,"edges":20,"seed":7}"#);
    }

    #[test]
    fn split_recovers_members_of_rendered_objects() {
        let v = obj(vec![
            ("a", Json::U64(1)),
            ("b", Json::Arr(vec![Json::Str("x,]}".into()), Json::Bool(true)])),
            ("c", obj(vec![("nested", Json::F64(0.5))])),
        ]);
        let members = split_top_level_members(&v.render_pretty()).expect("split");
        assert_eq!(members.len(), 3);
        assert_eq!(members[0], ("a".to_string(), "1".to_string()));
        assert_eq!(members[1].0, "b");
        assert!(members[1].1.contains("x,]}"));
        assert_eq!(members[2].0, "c");
        // Compact renderings split identically.
        let compact = split_top_level_members(&v.render()).expect("split compact");
        assert_eq!(compact.len(), 3);
        assert_eq!(compact[0], ("a".to_string(), "1".to_string()));
    }

    #[test]
    fn split_rejects_garbage() {
        assert!(split_top_level_members("[1,2]").is_err());
        assert!(split_top_level_members(r#"{"a": [1, 2}"#).is_err());
        assert!(split_top_level_members(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn merge_replaces_one_member_and_keeps_the_rest_verbatim() {
        let original = obj(vec![
            ("bench", Json::Str("parallel_study".into())),
            ("screen_kernel", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
        ])
        .render_pretty();
        let merged =
            merge_top_level_member(&original, "incremental_vs_rebuild", &Json::Arr(vec![]))
                .expect("merge");
        let members = split_top_level_members(&merged).expect("resplit");
        assert_eq!(
            members.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["bench", "screen_kernel", "incremental_vs_rebuild"],
        );
        // Merging again with a new value replaces, not duplicates.
        let remerged =
            merge_top_level_member(&merged, "incremental_vs_rebuild", &Json::U64(7)).expect("re");
        let members = split_top_level_members(&remerged).expect("resplit 2");
        assert_eq!(members.len(), 3);
        assert_eq!(members[2], ("incremental_vs_rebuild".to_string(), "7".to_string()));
    }

    #[test]
    fn config_switches_hub_solver_by_size() {
        let spec = &rtk_datasets::paper_datasets()[0];
        assert!(matches!(index_config(spec, 10, 10_000).hub_solver, HubSolver::PowerMethod(_)));
        assert!(matches!(index_config(spec, 10, 100_000).hub_solver, HubSolver::Bca(_)));
    }
}
