#!/usr/bin/env bash
# Perf trajectory snapshot: run the tier-1 bench smoke set, then capture
# the Table 2 families as JSON in BENCH_table2.json at the repo root, so
# future PRs can diff wall times and counters (tests, evals,
# transition_visits) against this one. Every JSON
# records where and how it ran in its "context" block: nproc, the build
# type, the git revision (suffixed "-dirty" when src/ or bench/ differ
# from it) and BENCH_MIN_TIME.
#
#   BENCH_MIN_TIME  per-benchmark min time in seconds (default 0.05; the
#                   smoke pass always uses the tier-1 value of 0.01)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MIN_TIME="${BENCH_MIN_TIME:-0.05}"

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$JOBS" --target \
  bench_table1 bench_table2 bench_fig1_gridtests bench_fig2_startimage \
  bench_fig3_diamonds bench_fig4_longrows bench_fig5_lemma3 \
  bench_maintenance bench_kernels bench_antichain

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
GIT_REV="$(git rev-parse HEAD 2> /dev/null || echo unknown)"
if ! git diff --quiet HEAD -- src bench 2> /dev/null; then
  GIT_REV="$GIT_REV-dirty"
fi
CONTEXT="nproc=$(nproc),build_type=${BUILD_TYPE:-unknown},git_rev=$GIT_REV"
CONTEXT="$CONTEXT,min_time=$MIN_TIME"

# Smoke pass: every bench binary once, same flags as the tier-1 ctests.
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "== smoke: $(basename "$b")"
  "$b" --benchmark_min_time=0.01 > /dev/null
done

# Snapshot pass: Table 2 only, longer min_time, JSON committed at the root.
./build/bench/bench_table2 \
  --benchmark_context="$CONTEXT" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out=BENCH_table2.json \
  --benchmark_out_format=json

# Figure 4 row-family evaluator sweep: the live planner against the
# compile-time orders (BM_Fig4_RowFamilyEval vs ..._StaticPlan, which
# closes the planner's size gate; join_probes / stats_counted expose the
# join and recount work). Merged into
# BENCH_table2.json when python3 is around, kept as a sibling file
# otherwise.
./build/bench/bench_fig4_longrows \
  --benchmark_context="$CONTEXT" \
  --benchmark_filter='BM_Fig4_RowFamilyEval' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out=BENCH_fig4_rowfamily.json \
  --benchmark_out_format=json

# Antichain-inclusion rung: lazy NtaIncluded vs the explicit
# Complement+Product route on the exponential family (macrostates /
# det_states counters expose the O(k)-vs-2^k gap; the explicit arm is
# capped at k = 12 by design — see bench/bench_antichain.cc).
./build/bench/bench_antichain \
  --benchmark_context="$CONTEXT" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out=BENCH_antichain.json \
  --benchmark_out_format=json

if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("BENCH_table2.json") as f:
    table2 = json.load(f)
extra = []
for path, prefixes in [
    ("BENCH_fig4_rowfamily.json", ("BM_Fig4_RowFamilyEval",)),
    ("BENCH_antichain.json", ("BM_AntichainInclusion", "BM_ExplicitInclusion")),
]:
    with open(path) as f:
        extra.extend(json.load(f)["benchmarks"])
    table2["benchmarks"] = [
        b for b in table2["benchmarks"]
        if not b["name"].startswith(prefixes)
    ]
table2["benchmarks"] += extra
with open("BENCH_table2.json", "w") as f:
    json.dump(table2, f, indent=2)
    f.write("\n")
EOF
  rm -f BENCH_fig4_rowfamily.json BENCH_antichain.json
  echo "bench_snapshot: wrote BENCH_table2.json (incl. fig4 row-family" \
       "sweep and antichain rung)"
else
  echo "bench_snapshot: wrote BENCH_table2.json, BENCH_fig4_rowfamily.json" \
       "and BENCH_antichain.json"
fi

# Maintenance churn family: maintained view image vs from-scratch
# recompute under small insert/delete batches, plus the self-checking
# speedup gauge (counter `speedup`; the acceptance bar is >= 2x on these
# small-delta steps — the SetLabel flags any run below it).
./build/bench/bench_maintenance \
  --benchmark_context="$CONTEXT" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out=BENCH_maintenance.json \
  --benchmark_out_format=json
echo "bench_snapshot: wrote BENCH_maintenance.json"

# Kernel probe-shape family: one workload per compiled-kernel shape
# (single-position probe, binary-min probe, membership, scan); each
# bench self-checks its `facts` counter against the workload's closed
# form in its label.
./build/bench/bench_kernels \
  --benchmark_context="$CONTEXT" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out=BENCH_kernels.json \
  --benchmark_out_format=json
echo "bench_snapshot: wrote BENCH_kernels.json"
