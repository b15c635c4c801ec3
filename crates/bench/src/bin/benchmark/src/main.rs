//! The repo benchmark: four workloads, end-to-end and per-layer metrics, one
//! command. See README.md beside this package for what is measured and why.
//!
//! ```sh
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat N]
//! ```

mod gen;
mod layers;
mod load;
mod run;
mod spans;
mod stats;
mod tier;

use run::{Kind, Options, Profile, Report};
use std::process::ExitCode;

/// The end-to-end metrics, with the share of the parent's median by which
/// each may worsen. Kept equal to `BENCHMARK.json` by a test.
const END_TO_END: [(&str, &str, f64); 8] = [
    ("setup_s", "s", 0.25),
    ("ops_per_s", "1/s", 0.25),
    ("p50_ms", "ms", 0.25),
    ("p95_ms", "ms", 0.25),
    ("edge_update_ms", "ms", 0.25),
    ("recovery_s", "s", 0.25),
    ("index_mib", "MiB", 0.1),
    ("peak_rss_mib", "MiB", 0.25),
];

/// The per-layer metrics of the traced run, in the order they are printed.
const PER_LAYER: [&str; 58] = [
    "graph.spmv_t_ns_per_edge",
    "rwr.pmpn_ms",
    "rwr.pmpn_iterations",
    "rwr.power_ms",
    "rwr.bca_ns_per_push",
    "query.pmpn_share",
    "query.screen_share",
    "query.candidates_per_query",
    "query.hits_per_query",
    "query.refined_per_query",
    "query.refine_iters_per_query",
    "query.refine_iters_top1pct_share",
    "query.result_per_candidate",
    "query.us_per_refine_iter",
    "approx.speedup_vs_exact",
    "approx.build_ms",
    "approx.fallback_ratio",
    "approx.contract_violations",
    "index.build_hubs_s",
    "index.build_sweep_s",
    "index.build_pushes",
    "index.bytes_per_edge",
    "index.update_ms_mean",
    "index.update_states_mean",
    "index.bytes_growth_ratio",
    "query.commit_ms",
    "core.save_s",
    "core.load_s",
    "core.snapshot_mib",
    "core.digest_ms",
    "core.replay_s",
    "sparse.pool_scope_us",
    "server.ping_rtt_us",
    "server.overhead_ms_p50",
    "server.wire_req_encode_ns",
    "server.wire_req_decode_ns",
    "server.wire_resp_encode_ns",
    "server.wire_resp_decode_ns",
    "server.wire_resp_bytes",
    "obs.trace_overhead_ratio",
    "server.ulog_append_ms",
    "server.rung2_wait_ms_p95",
    "server.rung2_p95_ms",
    "server.rung3_p95_ms",
    "server.rung3_achieved_qps",
    "server.gen_late_ms_max",
    "server.max_ok_rate_qps",
    "server.busy_rejections",
    "server.protocol_errors",
    "server.engine_errors",
    "router.self_ms_p50",
    "router.shard_skew_ratio",
    "router.added_ms_p50",
    "router.hedged_requests",
    "router.failovers",
    "router.unhealthy_backends",
    "load.pooled_p99_ms",
    "load.max_ms",
];

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    quick: bool,
    repeat: usize,
    options: Options,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 0.0,
        quick: false,
        repeat: 0,
        options: Options::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<f64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads = match name.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    one => vec![Kind::parse(one).ok_or(format!("unknown workload {one}"))?],
                };
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => parsed.options.traced = number(value()?)? != 0.0,
            "--traced" => parsed.options.traced = true,
            "--trace-out" => parsed.options.trace_out = Some(value()?.into()),
            "--quick" => parsed.quick = true,
            "--repeat" => parsed.repeat = number(value()?)? as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err(
            "--workload <local_frozen|served_open|routed_closed|update_mix|all> is required".into(),
        );
    }
    if parsed.seconds <= 0.0 {
        parsed.seconds = if parsed.quick { 1.0 } else { 16.0 };
    }
    Ok(parsed)
}

/// `{cores, cpu, os}` and the commit, for whoever reads the numbers later.
fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git_sha = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".into(), |sha| sha.trim().to_string());
    format!(
        "# host cores={} cpu=\"{cpu}\" os={} git_sha={git_sha}",
        tier::nproc(),
        std::env::consts::OS
    )
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        metrics
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn print_report(report: &Report) -> Result<(), String> {
    let name = report.kind.name();
    for m in &report.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!("{name} fail_ratio {fail_ratio} ratio");
    for note in &report.notes {
        println!("# {name}: {note}");
    }
    println!("{}", result_json(report)?);
    Ok(())
}

/// `--repeat N`: N sets back to back; per end-to-end metric the median, the
/// quartiles, and whether the sets agree within the metric's bound.
fn repeat(args: &Args, profile: &Profile) -> Result<bool, String> {
    let mut all_agree = true;
    for &kind in &args.workloads {
        let mut sets: Vec<Report> = Vec::new();
        for set in 0..args.repeat {
            let report = run::run(kind, args.seed, args.seconds, profile, &args.options)?;
            println!(
                "# {} set {}: correct={} failed={}",
                kind.name(),
                set + 1,
                report.correct,
                report.failed
            );
            all_agree &= report.correct;
            sets.push(report);
        }
        for (i, metric) in sets[0].metrics.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|r| r.metrics[i].value).collect();
            let mid = stats::median(&values);
            let (q1, q3) = if values.len() >= 2 { stats::quartiles(&values) } else { (mid, mid) };
            let spread = (values.iter().copied().fold(f64::MIN, f64::max)
                - values.iter().copied().fold(f64::MAX, f64::min))
                / mid.abs().max(f64::MIN_POSITIVE);
            let verdict = match END_TO_END.iter().find(|(name, ..)| *name == metric.name) {
                Some(&(.., bound)) if spread <= bound => format!("agree within {bound}"),
                Some(&(.., bound)) => {
                    all_agree = false;
                    format!("DISAGREE: range/median {spread:.3} over bound {bound}")
                }
                None => format!("range/median {spread:.3}"),
            };
            println!(
                "{} {} median {mid} q1 {q1} q3 {q3} {} n={} {verdict}",
                kind.name(),
                metric.name,
                metric.unit,
                values.len()
            );
        }
    }
    Ok(all_agree)
}

fn real_main(argv: &[String]) -> Result<bool, String> {
    let args = parse(argv)?;
    let profile = if args.quick { Profile::quick() } else { Profile::full() };
    println!("{}", host_line());
    if args.repeat > 0 {
        return repeat(&args, &profile);
    }
    let mut all_correct = true;
    for &kind in &args.workloads {
        println!(
            "# workload {} seed {} seconds {} trace {}",
            kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.options.traced)
        );
        let report = run::run(kind, args.seed, args.seconds, &profile, &args.options)?;
        // The driver refuses a result that lacks a declared metric.
        let declared: Vec<&str> = if args.options.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        if !report.metrics.iter().map(|m| m.name.as_str()).eq(declared) {
            return Err(format!("{}: metrics differ from the declared list", kind.name()));
        }
        print_report(&report)?;
        all_correct &= report.correct;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: Kind, seed: u64, options: &Options) -> Report {
        run::run(kind, seed, 1.0, &Profile::quick(), options).expect("quick run")
    }

    fn runnable() -> Vec<Kind> {
        // Two shard backends need two cores; the harness refuses otherwise.
        Kind::ALL
            .into_iter()
            .filter(|&k| k != Kind::RoutedClosed || tier::nproc() >= 2)
            .collect()
    }

    #[test]
    fn quick_profile_runs_every_workload_and_reports_every_end_to_end_metric() {
        for kind in runnable() {
            let started = std::time::Instant::now();
            let report = quick(kind, 42, &Options::default());
            assert!(report.correct, "{}: {:?}", kind.name(), report.notes);
            assert_eq!(report.failed, 0);
            assert!(report.attempted >= 10);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            for (m, (_, unit, _)) in report.metrics.iter().zip(END_TO_END) {
                assert!(m.value > 0.0 && m.value.is_finite(), "{} = {}", m.name, m.value);
                assert_eq!(m.unit, unit);
            }
            assert!(result_json(&report)
                .unwrap()
                .starts_with("{\"correct\": true, \"attempted\": "));
            assert!(started.elapsed().as_secs_f64() < 5.0, "{} took too long", kind.name());
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_writes_its_spans() {
        std::fs::create_dir_all(".bench_tmp").unwrap();
        let out =
            std::path::PathBuf::from(format!(".bench_tmp/spans-{}.jsonl", std::process::id()));
        for kind in runnable() {
            let options =
                Options { traced: true, trace_out: Some(out.clone()), ..Default::default() };
            let report = quick(kind, 42, &options);
            assert!(report.correct, "{}: {:?}", kind.name(), report.notes);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, PER_LAYER);
            let value = |name: &str| report.metrics.iter().find(|m| m.name == name).unwrap().value;
            assert!(value("rwr.pmpn_ms") > 0.0 && value("server.ping_rtt_us") > 0.0);
            // A layer the workload does not run reads 0.
            assert_eq!(value("router.self_ms_p50") > 0.0, kind == Kind::RoutedClosed);
            assert_eq!(value("server.rung3_p95_ms") > 0.0, kind == Kind::ServedOpen);
            assert_eq!(value("approx.contract_violations"), 0.0);
            let spans = std::fs::read_to_string(&out).expect("span file written");
            assert!(spans.lines().count() >= report.attempted as usize);
            assert!(
                spans.contains("\"name\":\"client.call\"")
                    && spans.contains("\"name\":\"pmpn_solve\"")
            );
        }
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn a_corrupted_answer_makes_the_run_incorrect_and_the_exit_code_nonzero() {
        let options = Options { corrupt_sampled: true, ..Default::default() };
        let report = quick(Kind::ServedOpen, 42, &options);
        assert!(!report.correct);
        assert_eq!(report.failed, Profile::quick().sampled_answers as u64);
        assert!(result_json(&report).unwrap().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_second_seed_runs_clean() {
        for kind in runnable() {
            let report = quick(kind, 7, &Options::default());
            assert!(report.correct, "{} seed 7: {:?}", kind.name(), report.notes);
        }
    }

    #[test]
    fn counts_repeat_exactly_between_two_runs_of_the_same_seed() {
        let options = Options { traced: true, ..Default::default() };
        let (a, b) = (quick(Kind::UpdateMix, 42, &options), quick(Kind::UpdateMix, 42, &options));
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if x.unit == "count" {
                assert_eq!(x.value, y.value, "{}", x.name);
            }
        }
        assert_eq!(a.attempted, b.attempted);
    }

    #[test]
    fn arguments_of_the_driver_contract_parse() {
        let argv: Vec<String> = "--workload update_mix --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        assert_eq!(args.workloads, vec![Kind::UpdateMix]);
        assert_eq!((args.seed, args.seconds, args.options.traced), (7, 3.0, true));
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&[]).is_err());
    }

    /// `BENCHMARK.json` at the repo root names exactly these metrics and
    /// workloads (checked textually: the benchmark carries no JSON parser).
    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let count = |needle: &str| text.matches(needle).count();
        for kind in Kind::ALL {
            assert_eq!(count(&format!("{{\"name\": \"{}\"", kind.name())), 1, "{}", kind.name());
        }
        for (name, unit, bound) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert_eq!(count(&entry), 1, "{name}");
            let line = text.lines().find(|l| l.contains(&entry)).unwrap();
            assert!(line.contains(&format!("\"bound\": {bound}}}")), "{name}: {line}");
        }
        for name in PER_LAYER {
            assert_eq!(count(&format!("{{\"name\": \"{name}\", \"unit\": ")), 1, "{name}");
        }
        assert_eq!(count("\"better\""), END_TO_END.len() + PER_LAYER.len());
    }
}
