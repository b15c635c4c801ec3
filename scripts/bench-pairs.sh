#!/usr/bin/env bash
# Alternating parent/change runs of the repo benchmark, the evidence every
# gain PR needs (ROADMAP "Rules that apply to every direction").
#
#   scripts/bench-pairs.sh <parent-rev> <workloads> [pairs=10] [seed=42] [layer-metric ...]
#
# <workloads> is a workload of BENCHMARK.json, a comma list of them, or
# `all`. Builds the benchmark once from a copy of <parent-rev> and once from
# the working tree (each into its own directory under target/bench-pairs/),
# then runs <pairs> pairs at BENCHMARK.json's `run_seconds`: every pair runs
# each listed workload on both sides, alternating which side goes first.
# Prints one table per workload: per end-to-end metric each side's median
# and quartiles and how many pairs the change won. Per-layer metric names
# after the seed (e.g. index.update_ms_mean core.replay_s) add <pairs> traced
# pairs (`--trace 1`) and the same table for those names: the layer that
# explains a gain. An unknown workload or metric name is refused before
# anything is built. It only *runs* the benchmark: a wrong answer or a
# failed run stops the script.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent_rev=$1
workload_arg=$2
pairs=${3:-10}
seed=${4:-42}
layer_metrics=("${@:5}")

root=$(git rev-parse --show-toplevel)
cd "$root"
# The listed workloads, space-separated, once every name is known.
workloads=$(python3 - "$workload_arg" "${layer_metrics[@]}" <<'PY'
import json, sys
bench = json.load(open("BENCHMARK.json"))
declared = [spec["name"] for spec in bench["workloads"]]
asked = declared if sys.argv[1] == "all" else sys.argv[1].split(",")
unknown = [name for name in asked if name not in declared]
if unknown:
    sys.exit(f"not a workload of BENCHMARK.json: {', '.join(unknown)} "
             f"(it declares {', '.join(declared)}; or give all)")
known = {spec["name"] for spec in bench["per_layer"]}
unknown = [name for name in sys.argv[2:] if name not in known]
if unknown:
    sys.exit(f"not a per-layer metric of BENCHMARK.json: {', '.join(unknown)}")
print(" ".join(dict.fromkeys(asked)))
PY
)
sha=$(git rev-parse --short=12 "$parent_rev^{commit}")
manifest=crates/bench/src/bin/benchmark/Cargo.toml
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
work=$root/target/bench-pairs
parent_src=$work/parent-$sha
out_of() { # <workload>
    echo "$work/runs-$sha-$1-seed$seed"
}
for w in $workloads; do
    mkdir -p "$(out_of "$w")"
    for file in parent change parent-traced change-traced; do
        : >"$(out_of "$w")/$file.jsonl"
    done
done

# A plain copy of the parent's committed files (no worktree metadata left in
# .git); kept between invocations, as are both target directories.
if [ ! -d "$parent_src" ]; then
    mkdir -p "$parent_src"
    git archive "$sha" | tar -x -C "$parent_src"
fi

build() { # <source dir> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" \
        cargo build --release --offline --quiet --manifest-path "$manifest")
}
echo "building parent $sha and the working tree ..." >&2
build "$parent_src" "$work/parent-$sha-target"
build "$root" "$work/change-target"

run() { # parent | change, then 0 | 1 (traced), then the workload
    local src=$root target=$work/change-target file
    file=$(out_of "$3")/$1.jsonl
    if [ "$1" = parent ]; then
        src=$parent_src target=$work/parent-$sha-target
    fi
    if [ "$2" = 1 ]; then
        file=$(out_of "$3")/$1-traced.jsonl
    fi
    (cd "$src" && "$target/release/benchmark" --workload "$3" --seed "$seed" \
        --seconds "$seconds" --trace "$2" | tail -n 1) >>"$file"
}
pairs_of() { # 0 | 1 (traced)
    for i in $(seq 1 "$pairs"); do
        for w in $workloads; do
            echo "pair $i/$pairs, $w (trace $1)" >&2
            if [ $((i % 2)) -eq 1 ]; then
                run parent "$1" "$w"
                run change "$1" "$w"
            else
                run change "$1" "$w"
                run parent "$1" "$w"
            fi
        done
    done
}
pairs_of 0
if [ ${#layer_metrics[@]} -gt 0 ]; then
    pairs_of 1
fi

for w in $workloads; do
python3 - "$(out_of "$w")" "$w" "$sha" "$seed" "$seconds" "${layer_metrics[@]}" <<'PY'
import json, statistics, sys

out, workload, sha, seed, seconds = sys.argv[1:6]
layer_metrics = sys.argv[6:]
sides = {s: [json.loads(l) for l in open(f"{out}/{s}.jsonl")] for s in ("parent", "change")}
print(f"{workload}: parent {sha} vs working tree, {len(sides['parent'])} pairs, "
      f"seed {seed}, --seconds {seconds}")
for side, runs in sides.items():
    print(f"  {side}: failed {sum(r['failed'] for r in runs)} of "
          f"{sum(r['attempted'] for r in runs)}, correct in {sum(r['correct'] for r in runs)} "
          f"of {len(runs)} runs")

def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3

def table(sides, specs, width):
    print(f"  {'metric':<{width}}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
          f"{'delta':>9}  wins")
    for spec in specs:
        name = spec["name"]
        p = [r["metrics"][name]["value"] for r in sides["parent"] if name in r["metrics"]]
        c = [r["metrics"][name]["value"] for r in sides["change"] if name in r["metrics"]]
        if not p or not c:
            print(f"  {name:<{width}}  not reported")
            continue
        better = (lambda a, b: a > b) if spec["better"] == "higher" else (lambda a, b: a < b)
        wins = sum(better(cv, pv) for pv, cv in zip(p, c))
        losses = sum(better(pv, cv) for pv, cv in zip(p, c))
        (pm, p1, p3), (cm, c1, c3) = spread(p), spread(c)
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        bound = f", bound {spec['bound']:.0%}" if "bound" in spec else ""
        print(f"  {name:<{width}}{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>36}"
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>36}{delta:>9}  "
              f"{wins}/{len(p)} (lost {losses}), {spec['better']} is better{bound}")

bench = json.load(open("BENCHMARK.json"))
table(sides, bench["end_to_end"], 16)
if layer_metrics:
    known = {spec["name"]: spec for spec in bench["per_layer"]}
    traced = {s: [json.loads(l) for l in open(f"{out}/{s}-traced.jsonl")]
              for s in ("parent", "change")}
    print(f"  per-layer, {len(traced['parent'])} traced pairs:")
    table(traced, [known[name] for name in layer_metrics], 28)
PY
done
