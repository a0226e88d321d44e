#!/usr/bin/env bash
# Runs the lifecycle benchmark on every workload of BENCHMARK.json:
# untraced (end-to-end metrics), then traced (per-layer metrics), and prints
# one "workload metric value unit" line per metric.
#
#   bench_pipeline/run_pipeline.sh [--seed=N] [--seconds=S] [--repeat=K]
#                                  [--smoke]
#
# --repeat=K runs each workload untraced K times, with seeds N..N+K-1, and
# reports for every end-to-end metric its median, quartiles and quartile
# spread (q3 - q1, as a share of the median) against the metric's bound.
# Exits non-zero when any run fails a correctness check or prints no result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seed=1
seconds=30
repeat=1
smoke=()
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed="${arg#--seed=}" ;;
    --seconds=*) seconds="${arg#--seconds=}" ;;
    --repeat=*) repeat="${arg#--repeat=}" ;;
    --smoke) smoke=(--smoke) ;;
    *) echo "usage: $0 [--seed=N] [--seconds=S] [--repeat=K] [--smoke]" >&2
       exit 2 ;;
  esac
done

mkdir -p "$root/.bench_build"
results="$root/.bench_build/pipeline-results.tsv"
: > "$results"
status=0
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")

run() {  # workload seed trace
  local line
  if ! line=$(python3 "$here/run.py" --workload "$1" --seed "$2" \
                --seconds "$seconds" --trace "$3" "${smoke[@]}" | tail -n 1); then
    status=1
  fi
  [[ -n "$line" ]] || line='{}'
  printf '%s\t%s\t%s\n' "$1" "$3" "$line" >> "$results"
}

for w in $workloads; do
  for ((k = 0; k < repeat; k++)); do
    run "$w" $((seed + k)) 0
  done
  run "$w" "$seed" 1
done

python3 - "$root/BENCHMARK.json" "$results" "$repeat" <<'PY' || status=1
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
repeat = int(sys.argv[3])
ok = True
runs = {}  # (workload, traced) -> [result]
for row in open(sys.argv[2]):
    workload, traced, text = row.rstrip("\n").split("\t", 2)
    result = json.loads(text)
    if result.get("correct") is not True:
        print(f"{workload} FAILED correctness (traced={traced})")
        ok = False
    runs.setdefault((workload, traced == "1"), []).append(result)

for (workload, traced), results in runs.items():
    if traced or repeat == 1:
        for r in results:
            for name, m in r.get("metrics", {}).items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        continue
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results
                  if name in r.get("metrics", {})]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread <= bound / 3 else (
            "within-bound" if spread <= bound else "WIDE")
        print(f"{workload} {name} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {bound} {verdict}")
sys.exit(0 if ok else 1)
PY
exit "$status"
