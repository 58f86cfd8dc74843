#!/usr/bin/env bash
# Tier-1 gate: the fast test suite in the default build, plus the
# differential oracles, the fuzz smoke and the fault phases under
# ASan/UBSan.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Fast suite (tier1-labelled tests) in the default build.
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS"
ctest --test-dir build -L tier1 --output-on-failure -j "$JOBS"

# Static analysis gate: every example program must lint without errors
# (mondet_lint_examples runs the same command as a tier1 ctest; repeated
# here so the gate still fires when examples/programs/ gains files after
# the build directory was configured).
./build/tools/mondet-lint examples/programs/*.dl > /dev/null

# clang-tidy over the analysis subsystem. The binary is looked up by
# plain name and by the versioned names distros install; the `tidy`
# CMake preset configures the compile database the pass runs against.
# Default: skip with a notice when no binary exists (the minimal CI
# image ships only gcc). Set MONDET_REQUIRE_CLANG_TIDY=1 to turn a
# missing binary into a hard failure — full CI images set it so the
# pass can never be skipped silently there.
CLANG_TIDY=""
for cand in clang-tidy clang-tidy-20 clang-tidy-19 clang-tidy-18 \
            clang-tidy-17 clang-tidy-16 clang-tidy-15 clang-tidy-14; do
  if command -v "$cand" > /dev/null 2>&1; then
    CLANG_TIDY="$cand"
    break
  fi
done
if [ -n "$CLANG_TIDY" ]; then
  # Once a binary is known to exist on this machine, the pass may never
  # again be skipped silently (e.g. by nested tier1 runs or CI re-execs
  # that mangle PATH): missing clang-tidy becomes a hard failure.
  export MONDET_REQUIRE_CLANG_TIDY=1
  cmake --preset tidy > /dev/null
  "$CLANG_TIDY" -p build-tidy --quiet src/analysis/*.cc
elif [ "${MONDET_REQUIRE_CLANG_TIDY:-0}" != "0" ]; then
  echo "tier1: clang-tidy required (MONDET_REQUIRE_CLANG_TIDY) but not found" >&2
  exit 1
else
  echo "tier1: clang-tidy not found, skipping lint pass"
fi

# Differential oracles under ASan/UBSan. base_test covers the base
# layer: the fact store and its positional indexes, the fact hash,
# Gaifman graphs and homomorphism search; plan_differential_test
# exercises the statistics-driven planner (live re-planning with
# per-stratum recounts) and the gate-closed compile-time orders against
# the naive reference and checks the plans bound statistics pick for
# cross products; maintenance_differential_test is the
# maintained-vs-recomputed fixpoint oracle for incremental view
# maintenance (Backward/Forward deletion on every stratum, then the
# stratum loop's continuation, over randomized insert/delete
# schedules); mondet_maintained_test pins where Backward/Forward seeds
# its candidates (from each fact while it is still in the instance),
# rules past the kernel frame's 64 stack ElemIds (the heap frame, in
# every join of a write), the Backward/Forward search's hazards (a
# 200,000-deep proof on its explicit stack among them), its head-first
# join orders and the fact and delta sequences of a churn-shaped write
# stream;
# mondet_parallel_test is the walk-vs-flat oracle for the checker: the
# monotonicity-pruned trie walk of the canonical tests against the flat
# test-by-test scan (same verdict, counterexample and counters);
# dataflow_soundness_test is the abstract-interpretation soundness
# oracle (concrete fixpoint contained in the abstract one, dead rules
# never fire, dropping subsumed rules keeps the fixpoint);
# antichain_test is the lazy-inclusion arm: NtaIncluded vs the explicit
# Complement+Product route, the Thm 5 counterexamples, which the pruned
# walk derives from its first bad pair (pinned ones and those over
# RandomViewSpecs seeds 0-99, each decoded and checked against the query
# and the UCQ), the pinned walk counters, and the antichain-inclusion
# oracle seed sweep;
# cq_automaton_test and mondet_check_test run the same
# product walk (automata/product_walk.h) as Thm 5 does — contained and
# not-contained DatalogContainedInUcq, the right-automaton contract the
# prune relies on, Thm 5 vs the canonical tests, and repeated decisions
# over one vocabulary; property_test's CqDpAgreement (the CQ-match DP vs
# homomorphism search on random instances) and Thm5VsCanonical are the
# only DP coverage outside the path-plus-U family, and the DP indexes its
# bitset words and match arena by hand; separator_test drives the NP
# separator and the chase separator, which runs the checker's
# canonical-test walk (core/test_walk.cc) over J, with caps that cut its
# block partway; datalog_test and analysis_test pin Stratify
# (datalog/strata.cc), whose per-rule index lists feed the evaluator's
# delta seats, the dataflow fixpoint and the fragment witnesses, and the
# goldens built on them, and EvalFrom's edges; base_test also covers
# Instance::Rollback, the walk's checkpoint; fuzz_isolation_test drives
# the fuzz harness' per-case step over a test oracle that trips
# MONDET_CHECK, so every check runs in a forked child (testing/fuzz.cc)
# and the abort must come back as a reported, shrunk failure.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMONDET_SANITIZE=ON
cmake --build build-asan -j "$JOBS" --target base_test eval_differential_test plan_differential_test stats_test maintenance_differential_test mondet_maintained_test mondet_parallel_test dataflow_soundness_test antichain_test cq_automaton_test mondet_check_test property_test separator_test datalog_test analysis_test fuzz_isolation_test mondet-fuzz
./build-asan/tests/base_test
./build-asan/tests/eval_differential_test
./build-asan/tests/dataflow_soundness_test
./build-asan/tests/plan_differential_test
./build-asan/tests/stats_test
./build-asan/tests/maintenance_differential_test
./build-asan/tests/mondet_maintained_test
./build-asan/tests/mondet_parallel_test
./build-asan/tests/antichain_test
./build-asan/tests/cq_automaton_test
./build-asan/tests/mondet_check_test
./build-asan/tests/property_test
./build-asan/tests/separator_test
./build-asan/tests/datalog_test
./build-asan/tests/analysis_test
./build-asan/tests/fuzz_isolation_test

# Fuzz smoke arm: mondet-fuzz over every registered oracle at fixed
# seeds under ASan/UBSan (~10s). Deterministic — the same seeds every
# run, so a failure here is a reproducible regression, and the harness
# prints the shrunk `.repro` path in its failure output (replay with
# `mondet-fuzz --replay <path>`).
FUZZ_OUT="build-asan/fuzz-repros"
mkdir -p "$FUZZ_OUT"
if ! ./build-asan/tools/mondet-fuzz --seeds 16 --out "$FUZZ_OUT"; then
  echo "tier1: fuzz smoke FAILED — shrunk repros under $FUZZ_OUT" \
       "(see 'repro written to' lines above)" >&2
  exit 1
fi

# Fault-injection gate: deliberately broken engines
# (MONDET_FAULT=skip-delta-seat drops the last recursive delta seat;
# MONDET_FAULT=skip-kernel-row trims the last row of every join kernel
# enumeration; MONDET_FAULT=skip-continuation-seat makes the
# continuation that EvalFrom and Maintain's insertion run never seed an
# EDB or lower-stratum atom; MONDET_FAULT=skip-stratum-proof makes the
# Backward/Forward search of maintenance accept no derivation through
# the stratum's own facts;
# MONDET_FAULT=skip-antichain-prune
# makes the product walk's subsumption prune, shared by NtaIncluded and
# Thm 5, bidirectional, i.e. unsound; MONDET_FAULT=skip-prefix-eval
# makes the checker's canonical-test walk prune subtrees without
# evaluating their prefix) must be caught — seven phases: the
# eval-differential oracle catches the first three faults, the
# maintenance-differential oracle skip-continuation-seat and
# skip-stratum-proof, the antichain-inclusion and mondet-parallel
# oracles the last two — within the smoke seed budget and shrunk to
# <= 5 rules (<= 6 NTA transitions) — proof the harness detects and the
# shrinker reduces, not just that everything is green.
./scripts/check_fuzz_fault.sh ./build-asan/tools/mondet-fuzz

echo "tier1: OK"
