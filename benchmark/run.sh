#!/usr/bin/env bash
# Repeatability harness: builds the benchmark once and runs the four
# workloads as sets.
#
#   benchmark/run.sh             one set: dash_hot, dash_cold, viewport and ingest_live, each
#                                untraced (end-to-end metrics) and traced (per-layer metrics,
#                                benchmark/out/trace.json)
#   benchmark/run.sh --repeat N  N sets of the same build, set r on seed 20210101 + r - 1, as the
#                                driver compares runs on different seeds: prints each end-to-end
#                                metric's values and their spread, and exits 1 if a spread exceeds
#                                the metric's bound in BENCHMARK.json (setup_s excepted, as the
#                                driver excepts it). The spread is the driver's: the distance
#                                between the quartiles as a share of the median; of fewer than four
#                                values, (max - min) / median
#
# Every --repeat writes the spreads to benchmark/out/spreads.json and prints the bound they
# support: the bracket the benchmark's issue gave the metric where the box can resolve it, else
# twice the widest spread of the metric, and never more than the 25% a bound may be:
# min(25%, max(bracket, 2 x widest spread)). From five sets on, that bound is written into
# BENCHMARK.json.
#
# The human-readable output of every run is kept under benchmark/out/logs/.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
export RASED_BENCH_BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/rased-benchmark"
exec python3 - "$@" <<'PY'
import json, os, statistics, subprocess, sys

BASE_SEED = 20210101  # DEFAULT_SEED in src/config.rs
CAP = 0.25
BRACKET = {"setup_s": 0.10, "req_per_s": 0.10, "p50_us": 0.10, "p99_us": 0.15, "ok_ratio": 0.001,
           "ingest_days_per_s": 0.10, "disk_bytes_per_update": 0.01, "peak_rss_mb": 0.10}

args = sys.argv[1:]
if args and (len(args) != 2 or args[0] != "--repeat" or not args[1].isdigit() or int(args[1]) < 1):
    sys.exit("usage: benchmark/run.sh [--repeat N]")
repeat = int(args[1]) if args else 1

spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
if sorted(m["name"] for m in metrics) != sorted(BRACKET):
    sys.exit("the end-to-end metrics of BENCHMARK.json are not the ones this script has brackets for")
os.makedirs("benchmark/out/logs", exist_ok=True)

def run(workload, seed, trace, tag):
    cmd = [os.environ["RASED_BENCH_BIN"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    log = f"benchmark/out/logs/{workload}-{tag}.log"
    open(log, "w").write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} ({tag}) exited {proc.returncode}; see {log}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} ({tag}) incorrect: {result['failed']} of {result['attempted']} failed")
    names = [m["name"] for m in (spec["per_layer"] if trace else metrics)]
    if sorted(result["metrics"]) != sorted(names):
        sys.exit(f"{workload} ({tag}) printed other metrics than BENCHMARK.json lists")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(vals):
    if len(vals) < 4:
        return (max(vals) - min(vals)) / statistics.median(vals)
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)

# values[workload][metric] = one value per set
values = {w: {m["name"]: [] for m in metrics} for w in workloads}
for r in range(repeat):
    for w in workloads:
        got = run(w, BASE_SEED + r, 0, f"set{r + 1}")
        print(f"set{r + 1} {w:<12} " + "  ".join(f"{k}={v:.6g}" for k, v in got.items()), flush=True)
        for k, v in got.items():
            values[w][k].append(v)
        if r == 0:
            run(w, BASE_SEED, 1, "set1-traced")
if repeat < 2:
    sys.exit(0)

failed, report = False, {}
print(f"\n{'metric':<22} {'workload':<12} {'median':>12} {'spread':>8} {'bound':>7}")
for m in metrics:
    name, widest = m["name"], 0.0
    for w in workloads:
        vals = values[w][name]
        s = spread(vals)
        widest = max(widest, s)
        report.setdefault(name, {})[w] = {"values": vals, "spread": s}
        over = s > m["bound"]
        failed |= over and name != "setup_s"
        shown = "  ".join(f"{v:.6g}" for v in vals)
        print(f"{name:<22} {w:<12} {statistics.median(vals):>12.6g} {s:>8.2%} {m['bound']:>7.2%}"
              f"{'  OVER' if over else ''}  {shown}")
    supported = round(min(CAP, max(BRACKET[name], 2 * widest)), 3)
    report[name]["supported_bound"] = supported
    note = "" if 2 * widest <= CAP else "  (doubled spread above the cap: unresolved at any bound)"
    print(f"{name:<22} {'-> bound':<12} {'':>12} {widest:>8.2%} {supported:>7.2%}{note}")
    m["bound"] = supported
json.dump(report, open("benchmark/out/spreads.json", "w"), indent=1)
print("\nspreads written to benchmark/out/spreads.json")
if repeat >= 5:
    json.dump(spec, open("BENCHMARK.json", "w"), indent=2)
    open("BENCHMARK.json", "a").write("\n")
    print("bounds written to BENCHMARK.json")
else:
    print("fewer than five sets: BENCHMARK.json keeps its bounds")
sys.exit(1 if failed else 0)
PY
