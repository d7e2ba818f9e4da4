#!/usr/bin/env bash
# A/A check: runs the whole suite as two independent sets of runs on this
# checkout, each run with another seed, and prints per workload and
# end-to-end metric both medians, their relative difference, each set's
# quartile spread and the bound. Then it checks what must repeat exactly:
# two runs on one seed give the same simulated numbers, the same
# core.roundtrips_per_alloc and no failed operation. Exits non-zero if a
# difference or a spread (setup_s's spread excepted, as in the acceptance
# procedure) exceeds its bound, or if an exact value moved. Run it before
# any perf claim: a difference between two commits means nothing until this
# passes.
#
# BENCHMARK.json can carry one bound per metric, so it carries the loosest
# a workload needs. The bounds used here are per workload: the issue's
# (10 % / 5 % / 2 %) wherever the measured spread supports them, the
# BENCHMARK.json bound elsewhere. Rows marked UNRESOLVED have a spread over
# a third of even that bound on this host (README.md, "How steady it is").
#
#   benchmark/aa.sh                 # 10 runs per set and workload
#   RUNS=4 benchmark/aa.sh          # quicker, coarser
#   WORKLOADS="churn_inline" benchmark/aa.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export RUNS="${RUNS:-10}" WORKLOADS="${WORKLOADS:-}"
exec python3 - <<'PY'
import json, os, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
runs = int(os.environ["RUNS"])
wanted = os.environ["WORKLOADS"].split() or [w["name"] for w in spec["workloads"]]

TIGHT = {
    ("xalanc_magazine", "slowdown_vs_system"): 0.10,
    ("churn_inline", "slowdown_vs_system"): 0.10,
    ("table3_sim", "slowdown_vs_system"): 0.02,
    ("churn_inline", "mem_overhead_at_peak"): 0.02,
    ("table3_sim", "mem_overhead_at_peak"): 0.02,
}
UNRESOLVED = {("xalanc_sync", "slowdown_vs_system"), ("conns_completion", "slowdown_vs_system")}
# What one seed must give twice over, by workload.
EXACT = {
    "xalanc_sync": ["core.roundtrips_per_alloc", "core.posts_per_free"],
    "xalanc_magazine": ["core.roundtrips_per_alloc", "core.posts_per_free"],
    "conns_completion": ["core.roundtrips_per_alloc", "core.posts_per_free"],
    "table3_sim": [m["name"] for m in spec["per_layer"] if m["name"].startswith("simalloc.")],
}

def run(workload, seed, trace=0, seconds=spec["run_seconds"]):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    # A run that fails its correctness gate prints no result: say so and
    # run it again.
    for attempt in range(3):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode == 0:
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if result["correct"] and result["failed"] == 0:
                return {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{workload} seed {seed}: run failed (exit {done.returncode}), rerunning",
              file=sys.stderr)
    sys.exit(f"{workload} seed {seed}: failed three times")

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

bad = 0
print(f"{'workload':<18}{'metric':<22}{'set A':>12}{'set B':>12}{'diff':>9}"
      f"{'spread A':>10}{'spread B':>10}{'bound':>8}")
for workload in wanted:
    # Seeds differ within a set and between the sets.
    sets = [[run(workload, 1 + s * runs + i) for i in range(runs)] for s in (0, 1)]
    for m in spec["end_to_end"]:
        name = m["name"]
        bound = TIGHT.get((workload, name), m["bound"])
        a, b = ([r[name] for r in s] for s in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = (spread(v) if runs >= 2 else 0.0 for v in (a, b))
        over = abs(worse) > bound or (name != "setup_s" and max(sa, sb) > bound)
        bad += over
        flag = "  OVER" if over else "  UNRESOLVED" if (workload, name) in UNRESOLVED else ""
        print(f"{workload:<18}{name:<22}{ma:>12.4f}{mb:>12.4f}{worse:>+9.2%}"
              f"{sa:>10.2%}{sb:>10.2%}{bound:>8.0%}{flag}", flush=True)

print("\nexact: two runs on seed 1, every value must repeat bit for bit")
for workload in wanted:
    if workload == "table3_sim":
        a, b = (run(workload, 1) for _ in range(2))
        checks = [(n, a[n], b[n]) for n in ("slowdown_vs_system", "mem_overhead_at_peak")]
    else:
        checks = []
    if workload in EXACT:
        # The exact counts come from the traced pass, which runs before
        # the measured window: a short window is enough.
        a, b = (run(workload, 1, trace=1, seconds=1) for _ in range(2))
        checks += [(n, a[n], b[n]) for n in EXACT[workload]]
        checks += [("bench.failed_ops_share", r["bench.failed_ops_share"], 0) for r in (a, b)]
    for name, x, y in checks:
        moved = x != y
        bad += moved
        print(f"{workload:<18}{name:<40}{x!r:>22}{y!r:>22}{'  MOVED' if moved else ''}",
              flush=True)
sys.exit(1 if bad else 0)
PY
