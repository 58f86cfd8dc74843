#!/usr/bin/env bash
# Fault-injection gate for the fuzz harness: a deliberately broken
# engine must be *caught* and the failure must *shrink*.
#
# Seven phases over six faults: three faults in the evaluator and one
# each in the maintenance engine, the product walk and the checker; the
# continuation fault runs against two oracles:
#
#   MONDET_FAULT=skip-delta-seat makes the semi-naive evaluator drop the
#   last recursive delta seat of every rule (src/datalog/eval_plan.cc),
#   so some derivations that need late delta rounds are silently lost —
#   caught by the eval-differential oracle.
#
#   MONDET_FAULT=skip-kernel-row makes every join kernel trim the last
#   candidate row of every enumeration (src/datalog/kernel.cc), so
#   derivations whose match sits in a bucket's last row are lost —
#   caught by the eval-differential oracle against the naive reference.
#   The kernels also run Maintain's Backward/Forward joins, so the
#   fault reaches its candidate seeds, backward checks and forward
#   chaining too, and the maintenance-differential oracle flags it as
#   well; the phase stays on eval-differential, which reaches every
#   kernel Eval runs.
#
#   MONDET_FAULT=skip-continuation-seat makes the evaluator's in-place
#   continuation (CompiledProgram::RunStrata from new rows, run by
#   EvalFrom and by Maintain's insertion, src/datalog/eval_plan.cc)
#   never seed a body atom over an EDB or lower-stratum predicate, so
#   derivations through facts appended after a fixpoint are lost —
#   caught by the eval-differential oracle's continuation arm, which
#   splits each input, evaluates the first part and continues over the
#   rest, and, since every write's insertion is such a continuation, by
#   the maintenance-differential oracle.
#
#   MONDET_FAULT=skip-stratum-proof makes the Backward/Forward search of
#   maintenance (CompiledProgram::MaintainBF, src/datalog/eval_plan.cc)
#   accept no derivation that uses a fact of the stratum itself, so
#   facts whose every proof runs through the stratum are disproved and
#   lost from the maintained fixpoint — caught by the
#   maintenance-differential oracle against a from-scratch Eval.
#
#   MONDET_FAULT=skip-antichain-prune makes the subsumption prune of the
#   lazy product walk bidirectional (src/automata/product_walk.h): it
#   also discards new right states that are *subsets* of visited ones,
#   which is unsound — inclusion verdicts flip to "included". The walk
#   is the one NtaIncluded and Thm 5's DatalogContainedInUcq both run,
#   so the fault reaches Thm 5 too; it is caught by the
#   antichain-inclusion oracle's three-way agreement contract.
#
#   MONDET_FAULT=skip-prefix-eval makes the canonical-test walk of
#   CheckMonotonicDeterminacy (src/core/test_walk.cc) prune every
#   branching trie node whose D' prefix builds, without evaluating Q on
#   it, so failing tests below are never run — caught by the
#   mondet-parallel oracle, which compares the walk against the flat
#   test-by-test scan (FlatMonDetReference).
#
# For each (oracle, fault) pair this script asserts that mondet-fuzz
#
#   1. reports failures within the smoke seed budget (exit 1, not 0 —
#      the harness would be decorative if a lost fixpoint got through),
#   2. writes a shrunk repro whose program has at most 5 rules — or,
#      for the NTA gate, at most 6 automaton transitions total —
#      (the delta-debugging loop must actually reduce), and
#   3. passes the very same seeds against the unbroken engine
#      (the fault, not the harness, is what trips).
#
# Usage: check_fuzz_fault.sh <mondet-fuzz binary> [seeds]
set -u

bin="${1:?usage: check_fuzz_fault.sh <mondet-fuzz binary> [seeds]}"
seeds="${2:-64}"

run_phase() {
  local oracle="$1" fault="$2" gate="${3:-rules}"
  local outdir out status rules trans
  outdir="$(mktemp -d)"

  # Clean control run: same seeds, healthy evaluator, must be green.
  out="$("$bin" --oracle "$oracle" --seeds "$seeds" --out "$outdir" 2>&1)"
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "fuzz-fault[$oracle]: clean run failed (exit $status)" \
         "— real bug?" >&2
    echo "$out" >&2
    rm -rf "$outdir"
    return 1
  fi

  # Faulted run: must trip (exit 1) and leave at least one repro behind.
  out="$(MONDET_FAULT="$fault" \
          "$bin" --oracle "$oracle" --seeds "$seeds" --out "$outdir" 2>&1)"
  status=$?
  if [ "$status" -ne 1 ]; then
    echo "fuzz-fault[$oracle]: injected fault $fault NOT caught" \
         "(exit $status, expected 1) over $seeds seeds" >&2
    echo "$out" >&2
    rm -rf "$outdir"
    return 1
  fi

  local repros=("$outdir/$oracle"-seed*.repro)
  if [ ! -e "${repros[0]}" ]; then
    echo "fuzz-fault[$oracle]: failures reported but no repro written" \
         "to $outdir" >&2
    echo "$out" >&2
    rm -rf "$outdir"
    return 1
  fi

  if [ "$gate" = "nta" ]; then
    # Shrinking gate for NTA cases: the two [nta ...] sections together
    # keep at most 6 leaf/unary/binary transition lines.
    trans=$(awk '/^\[nta /{inp=1; next} /^\[/{inp=0}
                 inp && /^(leaf|unary|binary) /{n++} END{print n+0}' \
            "${repros[0]}")
    if [ "$trans" -gt 6 ]; then
      echo "fuzz-fault[$oracle]: shrunk repro still has $trans NTA" \
           "transitions (want <= 6):" >&2
      cat "${repros[0]}" >&2
      rm -rf "$outdir"
      return 1
    fi
    echo "fuzz-fault[$oracle]: OK — $fault caught, shrunk repro has" \
         "$trans NTA transitions (${repros[0]##*/})"
    rm -rf "$outdir"
    return 0
  fi

  # Shrinking gate: the first repro's [program] section has <= 5 rules.
  # Rules are the ':-'-bearing lines between [program] and the next
  # section header.
  rules=$(awk '/^\[program\]/{inp=1; next} /^\[/{inp=0}
               inp && /:-/{n++} END{print n+0}' "${repros[0]}")
  if [ "$rules" -gt 5 ]; then
    echo "fuzz-fault[$oracle]: shrunk repro still has $rules rules" \
         "(want <= 5):" >&2
    cat "${repros[0]}" >&2
    rm -rf "$outdir"
    return 1
  fi

  echo "fuzz-fault[$oracle]: OK — $fault caught, shrunk repro has" \
       "$rules rules (${repros[0]##*/})"
  rm -rf "$outdir"
  return 0
}

run_phase eval-differential skip-delta-seat || exit 1
run_phase eval-differential skip-kernel-row || exit 1
run_phase eval-differential skip-continuation-seat || exit 1
run_phase maintenance-differential skip-continuation-seat || exit 1
run_phase maintenance-differential skip-stratum-proof || exit 1
run_phase antichain-inclusion skip-antichain-prune nta || exit 1
run_phase mondet-parallel skip-prefix-eval || exit 1
exit 0
