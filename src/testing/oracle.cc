#include "testing/oracle.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/dataflow.h"
#include "automata/ops.h"
#include "base/homomorphism.h"
#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "reductions/thm9.h"
#include "reductions/tiling.h"
#include "testing/corpus.h"
#include "testing/reference.h"
#include "testing/tm.h"

namespace mondet {
namespace testing {

namespace {

OracleOutcome Fail(const FuzzCase& c, const std::string& detail) {
  return {false, detail + "\n--- case ---\n" + DescribeCase(c)};
}

OracleOutcome Pass() { return {true, ""}; }

// --- Shared comparison helpers (gtest-free ports of the test idioms). ----

/// Same fact *set*: `got` holds exactly the facts of `want`.
std::optional<std::string> DiffSets(const Instance& want, const Instance& got,
                                    const std::string& tag) {
  if (want.num_facts() != got.num_facts()) {
    return tag + ": fact counts differ (" + std::to_string(want.num_facts()) +
           " vs " + std::to_string(got.num_facts()) + ")";
  }
  for (const Fact& f : want.AllFacts()) {
    if (!got.HasFact(f)) {
      return tag + ": missing fact " + FactToString(want, f);
    }
  }
  return std::nullopt;
}

/// Same fact *sequence*: byte-identical insertion order.
std::optional<std::string> DiffSequences(const Instance& a, const Instance& b,
                                         const std::string& tag) {
  if (a.num_facts() != b.num_facts()) {
    return tag + ": fact counts differ (" + std::to_string(a.num_facts()) +
           " vs " + std::to_string(b.num_facts()) + ")";
  }
  for (uint32_t i = 0; i < a.num_facts(); ++i) {
    const FactView fa = a.ViewAt(i);
    const FactView fb = b.ViewAt(i);
    if (!(fa == fb)) {
      return tag + ": fact " + std::to_string(i) + " differs (" +
             FactToString(a, fa) + " vs " + FactToString(b, fb) + ")";
    }
  }
  return std::nullopt;
}

// --- eval-differential ------------------------------------------------------
// Port of tests/eval_differential_test.cc: naive reference vs semi-naive,
// the same fact set; and the same for the in-place continuation
// (CompiledProgram::EvalFrom) over the input split in two.

class EvalOracle : public Oracle {
 public:
  std::string name() const override { return "eval-differential"; }
  GenProfile Profile() const override { return EvalProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = EvalProfile();
    c.program = RandomProgram(c.profile, 7000 + seed);
    c.instance =
        RandomInstance(c.profile.vocab, SeededPreds(c.profile, seed),
                       c.profile.elems, c.profile.facts, 9000 + seed);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    const Program& program = *c.program;
    const Instance& inst = *c.instance;

    Instance naive = NaiveFpEval(program, inst);
    Instance semi = FpEval(program, inst);
    if (auto d = DiffSets(naive, semi, "naive vs semi-naive")) {
      return Fail(c, *d);
    }

    // Eval of the first `split` facts, the rest appended, EvalFrom from
    // the first appended id. The split comes from the seed, so this arm
    // draws nothing from the generator; split 0 continues from Eval of
    // no facts at all.
    const uint32_t split =
        c.seed % static_cast<uint32_t>(inst.num_facts() + 1);
    Instance prefix(inst.vocab());
    prefix.EnsureElements(inst.num_elements());
    for (uint32_t g = 0; g < split; ++g) {
      const FactView f = inst.ViewAt(g);
      prefix.AddFact(f.pred, f.args);
    }
    const CompiledProgram compiled(program);
    Instance cont = compiled.Eval(prefix);
    const uint32_t first_new = static_cast<uint32_t>(cont.num_facts());
    for (uint32_t g = split; g < inst.num_facts(); ++g) {
      const FactView f = inst.ViewAt(g);
      cont.AddFact(f.pred, f.args);
    }
    compiled.EvalFrom(cont, first_new);
    if (auto d = DiffSets(naive, cont,
                          "naive vs continuation after fact " +
                              std::to_string(split))) {
      return Fail(c, *d);
    }
    return Pass();
  }
};

// --- plan-differential ------------------------------------------------------
// Port of tests/plan_differential_test.cc: the stats-driven planner
// agrees with the naive oracle, the compile-time orders (size gate
// closed) derive the same set, and no stats-driven plan joins a cross
// product on a connected join graph.

/// True when the rule's join graph — body atoms as nodes, edges between
/// atoms sharing a variable — has a single component (nullary excluded).
bool ConnectedJoinGraph(const Rule& rule) {
  std::vector<int> nodes;
  for (int i = 0; i < static_cast<int>(rule.body.size()); ++i) {
    if (!rule.body[i].args.empty()) nodes.push_back(i);
  }
  if (nodes.size() <= 1) return true;
  std::vector<bool> seen(rule.body.size(), false);
  std::vector<int> stack = {nodes[0]};
  seen[nodes[0]] = true;
  size_t reached = 1;
  auto shares = [&](int a, int b) {
    for (VarId va : rule.body[a].args) {
      for (VarId vb : rule.body[b].args) {
        if (va == vb) return true;
      }
    }
    return false;
  };
  while (!stack.empty()) {
    int cur = stack.back();
    stack.pop_back();
    for (int nxt : nodes) {
      if (!seen[nxt] && shares(cur, nxt)) {
        seen[nxt] = true;
        ++reached;
        stack.push_back(nxt);
      }
    }
  }
  return reached == nodes.size();
}

/// Replays one seat's join order; returns a message if any step joins an
/// atom with no bound variable while something is already bound (= cross
/// product). Nullary atoms are filters and exempt.
std::optional<std::string> CrossProductError(const Rule& rule,
                                             const JoinOrderDesc& seat) {
  std::vector<bool> bound(rule.num_vars(), false);
  bool anything_bound = false;
  if (seat.delta_atom >= 0) {
    for (VarId v : rule.body[seat.delta_atom].args) bound[v] = true;
    anything_bound = !rule.body[seat.delta_atom].args.empty();
  }
  for (size_t k = 0; k < seat.order.size(); ++k) {
    const QAtom& atom = rule.body[seat.order[k]];
    bool shares = false;
    for (VarId v : atom.args) {
      if (bound[v]) shares = true;
    }
    if (anything_bound && !shares && !atom.args.empty()) {
      return "cross product at step " + std::to_string(k) + " of rule " +
             std::to_string(seat.rule) + " (delta_atom " +
             std::to_string(seat.delta_atom) + ")";
    }
    for (VarId v : atom.args) bound[v] = true;
    if (!atom.args.empty()) anything_bound = true;
  }
  return std::nullopt;
}

class PlanOracle : public Oracle {
 public:
  std::string name() const override { return "plan-differential"; }
  GenProfile Profile() const override { return PlanProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = PlanProfile();
    c.program = RandomProgram(c.profile, 17000 + seed);
    c.instance =
        RandomInstance(c.profile.vocab, SeededPreds(c.profile, seed),
                       c.profile.elems, c.profile.facts, 19000 + seed);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    const Program& program = *c.program;
    const Instance& inst = *c.instance;
    CompiledProgram compiled(program);
    Instance naive = NaiveFpEval(program, inst);

    // 1. Stats-driven vs the naive oracle (gate forced open: the planner,
    // not its size gate, is under test).
    EvalOptions opt;
    opt.stats_min_facts = 0;
    Instance semi = compiled.Eval(inst, nullptr, opt);
    if (auto d = DiffSets(naive, semi, "naive vs stats-driven")) {
      return Fail(c, *d);
    }

    // 2. Gate closed (compile-time EDB-first orders): same fact set.
    EvalOptions opt_static;
    opt_static.stats_min_facts = std::numeric_limits<size_t>::max();
    Instance plain = compiled.Eval(inst, nullptr, opt_static);
    if (auto d = DiffSets(naive, plain, "naive vs gate-closed")) {
      return Fail(c, *d);
    }

    // 3. The plans the instance's statistics pick, on a second program so
    // the first keeps its EDB-first orders for step 2: every (rule, seat)
    // orders each remaining body atom once with one estimate per step,
    // and joins no cross product on a connected join graph.
    CompiledProgram bound(program);
    bound.BindStats(Stats::Collect(inst));
    for (const JoinOrderDesc& seat : bound.DescribePlans()) {
      const Rule& rule = program.rules()[seat.rule];
      const size_t expect = rule.body.size() - (seat.delta_atom >= 0 ? 1 : 0);
      if (seat.order.size() != expect) {
        return Fail(c, "seat order length " +
                           std::to_string(seat.order.size()) + " != " +
                           std::to_string(expect) + " for rule " +
                           std::to_string(seat.rule));
      }
      if (seat.est_rows.size() != seat.order.size()) {
        return Fail(c, "seat estimate count mismatches order");
      }
      if (ConnectedJoinGraph(rule)) {
        if (auto d = CrossProductError(rule, seat)) return Fail(c, *d);
      }
    }
    return Pass();
  }
};

// --- maintenance-differential -----------------------------------------------
// Port of tests/maintenance_differential_test.cc: the maintained fixpoint
// equals a from-scratch Eval after every prefix of the raw insert/delete
// schedule.

/// The maintenance contract: same elements, same fact set.
std::optional<std::string> DiffFixpoints(const Instance& got,
                                         const Instance& want,
                                         const std::string& tag) {
  if (got.num_elements() != want.num_elements()) {
    return tag + ": element counts differ";
  }
  if (got.num_facts() != want.num_facts()) {
    return tag + ": fact counts differ (" + std::to_string(got.num_facts()) +
           " vs " + std::to_string(want.num_facts()) + ")";
  }
  std::vector<Fact> gf = got.AllFacts(), wf = want.AllFacts();
  std::sort(gf.begin(), gf.end());
  std::sort(wf.begin(), wf.end());
  for (size_t i = 0; i < gf.size(); ++i) {
    if (!(gf[i] == wf[i])) {
      return tag + ": sorted fact " + std::to_string(i) + " differs";
    }
  }
  return std::nullopt;
}

class MaintenanceOracle : public Oracle {
 public:
  std::string name() const override { return "maintenance-differential"; }
  GenProfile Profile() const override { return EvalProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = EvalProfile();
    c.program = RandomProgram(c.profile, 11000 + seed);
    std::mt19937 rng(12000 + seed);
    std::vector<PredId> churn = SeededPreds(c.profile, seed);
    // The historical oracle used a slightly smaller base (8 facts) than
    // the eval family so deletions bite.
    c.instance = RandomInstance(c.profile.vocab, churn, c.profile.elems, 8,
                                13000 + seed);
    const int steps = 4 + seed % 4;
    c.schedule = RandomSchedule(c.profile, churn, *c.instance, steps, rng);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    const Program& program = *c.program;
    CompiledProgram compiled(program);
    Instance base = *c.instance;  // evolves under the schedule

    EvalOptions opt;
    opt.stats_min_facts = 0;

    Instance m = compiled.Eval(base, nullptr, opt);
    for (size_t step = 0; step < c.schedule.size(); ++step) {
      const RawBatch& raw = c.schedule[step];
      const FactDelta delta = ApplyBatch(raw.inserts, raw.deletes, base);
      compiled.Maintain(m, base, delta);

      const std::string tag = "step " + std::to_string(step);
      if (auto d = DiffFixpoints(m, compiled.Eval(base, nullptr, opt),
                                 tag + " (vs recompute)")) {
        return Fail(c, *d);
      }
    }
    return Pass();
  }
};

// --- dataflow-soundness -----------------------------------------------------
// Port of tests/dataflow_soundness_test.cc's three TEST_P properties (the
// deterministic cases stay in the test file). The instance-free arms are
// gated on the case's actual content — no seeded IDB facts — rather than
// the historical seed parity, so shrunk cases remain fully checkable.

class DataflowOracle : public Oracle {
 public:
  std::string name() const override { return "dataflow-soundness"; }
  GenProfile Profile() const override { return DataflowProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = DataflowProfile();
    c.program = RandomProgram(c.profile, 7000 + seed);
    c.instance =
        RandomInstance(c.profile.vocab, SeededPreds(c.profile, seed),
                       c.profile.elems, c.profile.facts, 9000 + seed);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    const Program& program = *c.program;
    const Instance& inst = *c.instance;
    const VocabularyPtr& vocab = c.profile.vocab;
    Instance fix = NaiveFpEval(program, inst);

    // The instance-free analysis assumes IDB relations start empty, so
    // its soundness arms only apply to IDB-free inputs.
    bool idb_free = true;
    for (const Fact& f : inst.AllFacts()) {
      if (program.IsIdb(f.pred)) idb_free = false;
    }

    // 1. Concrete fixpoint within gamma(abstract fixpoint).
    EmptinessResult er = AnalyzeEmptiness(program, &inst);
    for (const Fact& f : fix.AllFacts()) {
      auto it = er.preds.find(f.pred);
      if (it == er.preds.end()) {
        return Fail(c, "no abstract value for " + vocab->name(f.pred));
      }
      const PredAbstract& pa = it->second;
      if (!pa.nonempty) {
        return Fail(c, "fact over " + vocab->name(f.pred) +
                           " but predicate abstractly empty");
      }
      if (pa.pos.size() != f.args.size()) {
        return Fail(c, "abstract arity mismatch for " + vocab->name(f.pred));
      }
      for (size_t j = 0; j < f.args.size(); ++j) {
        if (!pa.pos[j].Admits(f.args[j])) {
          return Fail(c, vocab->name(f.pred) + " position " +
                             std::to_string(j) +
                             " rejects a concrete value");
        }
      }
    }
    for (PredId p : er.empty_idbs) {
      if (fix.NumRows(p) > 0) {
        return Fail(c, vocab->name(p) + " flagged empty but holds a fact");
      }
    }
    EmptinessResult free_er = AnalyzeEmptiness(program, nullptr);
    if (idb_free) {
      for (PredId p : free_er.empty_idbs) {
        if (fix.NumRows(p) > 0) {
          return Fail(c, "instance-free emptiness unsound for " +
                             vocab->name(p));
        }
      }
    }

    // 2. Dead rules never fire; instance-free mask weaker than seeded.
    if (er.rule_dead.size() != program.rules().size() ||
        free_er.rule_dead.size() != program.rules().size()) {
      return Fail(c, "rule_dead size mismatch");
    }
    for (size_t ri = 0; ri < program.rules().size(); ++ri) {
      if (idb_free && free_er.rule_dead[ri] && !er.rule_dead[ri]) {
        return Fail(c, "rule " + std::to_string(ri) +
                           " dead without a seed but live with one");
      }
      if (er.rule_dead[ri]) {
        const Rule& rule = program.rules()[ri];
        Instance pattern(vocab);
        pattern.EnsureElements(rule.num_vars());
        for (const QAtom& a : rule.body) {
          pattern.AddFact(a.pred,
                          std::vector<ElemId>(a.args.begin(), a.args.end()));
        }
        if (HasHomomorphism(pattern, fix)) {
          return Fail(c, "dead rule " + std::to_string(ri) +
                             " has a body match in the fixpoint");
        }
        if (er.dead_reasons[ri].detail.empty()) {
          return Fail(c, "dead rule " + std::to_string(ri) +
                             " carries no reason");
        }
      }
    }

    // 3. Dropping subsumed rules / redundant atoms preserves the fixpoint.
    SubsumptionResult sr = AnalyzeSubsumption(program);
    if (sr.subsumed_by.size() != program.rules().size()) {
      return Fail(c, "subsumed_by size mismatch");
    }
    bool any_subsumed = false;
    Program reduced(vocab);
    for (size_t ri = 0; ri < program.rules().size(); ++ri) {
      if (sr.subsumed_by[ri] >= 0) {
        any_subsumed = true;
        if (sr.subsumed_by[ri] == static_cast<int>(ri) ||
            sr.subsumed_by[ri] >=
                static_cast<int>(program.rules().size())) {
          return Fail(c, "bad subsumer index for rule " + std::to_string(ri));
        }
        continue;
      }
      reduced.AddRule(program.rules()[ri]);
    }
    if (any_subsumed) {
      Instance fix2 = NaiveFpEval(reduced, inst);
      if (auto d = DiffSets(fix, fix2, "dropping subsumed rules")) {
        return Fail(c, *d);
      }
    }
    for (size_t ri = 0; ri < program.rules().size(); ++ri) {
      for (int ai : sr.redundant_atoms[ri]) {
        Program without(vocab);
        for (size_t rj = 0; rj < program.rules().size(); ++rj) {
          Rule r = program.rules()[rj];
          if (rj == ri) r.body.erase(r.body.begin() + ai);
          without.AddRule(r);
        }
        Instance fix2 = NaiveFpEval(without, inst);
        if (auto d = DiffSets(fix, fix2,
                              "dropping redundant atom " +
                                  std::to_string(ai) + " of rule " +
                                  std::to_string(ri))) {
          return Fail(c, *d);
        }
      }
    }
    return Pass();
  }
};

// --- mondet-parallel --------------------------------------------------------
// CheckMonotonicDeterminacy's pruned trie walk agrees with the flat
// test-by-test scan (FlatMonDetReference): same verdict, counterexample,
// tests_run and expansions_tried. The oracle keeps its name because
// corpus files, golden pins and the ctest name it.

std::optional<std::string> DiffMonDetInstances(const Instance& a,
                                               const Instance& b,
                                               const std::string& what) {
  if (a.num_elements() != b.num_elements()) {
    return what + ": element counts differ";
  }
  return DiffSequences(a, b, what);
}

std::optional<std::string> DiffMonDetResults(const MonDetResult& a,
                                             const MonDetResult& b,
                                             const std::string& what) {
  if (a.verdict != b.verdict) return what + ": verdicts differ";
  if (a.tests_run != b.tests_run) {
    return what + ": tests_run differ (" + std::to_string(a.tests_run) +
           " vs " + std::to_string(b.tests_run) + ")";
  }
  if (a.expansions_tried != b.expansions_tried) {
    return what + ": expansions_tried differ";
  }
  if (a.failure.has_value() != b.failure.has_value()) {
    return what + ": one run found a counterexample, the other did not";
  }
  if (a.failure) {
    if (auto d = DiffMonDetInstances(a.failure->approximation.inst,
                                     b.failure->approximation.inst,
                                     what + " approximation")) {
      return d;
    }
    if (a.failure->approximation.frontier !=
        b.failure->approximation.frontier) {
      return what + ": approximation frontiers differ";
    }
    if (auto d = DiffMonDetInstances(a.failure->dprime, b.failure->dprime,
                                     what + " dprime")) {
      return d;
    }
  }
  return std::nullopt;
}

class WalkVsFlatOracle : public Oracle {
 public:
  std::string name() const override { return "mondet-parallel"; }
  GenProfile Profile() const override { return QueryProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = QueryProfile();
    c.program = RandomGoalProgram(c.profile, 5000 + seed);
    c.views = RandomViewSpecs(c.profile, seed);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    DatalogQuery query(*c.program, c.profile.goal);
    ViewSet views = BuildViews(c.profile.vocab, c.views);

    MonDetOptions opts;
    opts.query_depth = 3;
    opts.view_depth = 3;
    opts.max_query_expansions = 24;
    opts.max_tests_per_expansion = 48;

    MonDetResult walk = CheckMonotonicDeterminacy(query, views, opts);
    MonDetResult flat = FlatMonDetReference(query, views, opts);
    if (auto d = DiffMonDetResults(walk, flat, "walk vs flat")) {
      return Fail(c, *d);
    }
    return Pass();
  }
};

// --- tm-reduction -----------------------------------------------------------
// The executable undecidability frontier: a builtin machine's bounded run
// is compiled through the tiling reduction (testing/tm.h); the extracted
// certificate must re-check, the backtracking solver must agree on the
// exact grid and refute the truncated grids, and the Thm 9 run-string
// gadget must accept both the faithful and a corrupted encoding of the
// same run. Machines that do not halt within the budget pass vacuously
// (the semi-decision boundary).

class TmOracle : public Oracle {
 public:
  std::string name() const override { return "tm-reduction"; }
  // TM cases carry no generated program; the profile is only the corpus
  // vocabulary anchor.
  GenProfile Profile() const override { return EvalProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = EvalProfile();
    const std::vector<std::string> names = BuiltinTmNames();
    TmCase tc;
    tc.machine = names[seed % names.size()];
    // Short all-ones inputs: the eraser is quadratic, so longer tapes
    // blow the grid up past what the backtracking solver refutes quickly.
    tc.input.assign(1 + (seed / names.size()) % 3, 1);
    tc.max_steps = 200;
    c.tm = tc;
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    if (!c.tm.has_value()) return Fail(c, "tm-reduction case without [tm]");
    const TmCase& tc = *c.tm;
    const std::vector<std::string> names = BuiltinTmNames();
    if (std::find(names.begin(), names.end(), tc.machine) == names.end()) {
      return Fail(c, "unknown machine " + tc.machine);
    }
    for (int sym : tc.input) {
      if (sym != 0 && sym != 1) return Fail(c, "input symbol out of range");
    }
    const TuringMachine tm = BuiltinTm(tc.machine);

    std::optional<TmTiling> tiling =
        CompileTmRun(tm, tc.input, tc.max_steps);
    if (!tiling.has_value()) return Pass();  // no halt, no verdict

    // (a) The certificate extracted from the trace re-checks directly.
    std::string why;
    if (!CheckTiling(tiling->tp, tiling->n, tiling->m, tiling->cert, &why)) {
      return Fail(c, "extracted certificate rejected: " + why);
    }
    // (b)/(c) use the exhaustive backtracking solver, whose refutation
    // arms must sweep the whole search space — exponential in grid area.
    // A 4x15 eraser grid (60 cells) exhausts in ~0.5s; 5x25 takes hours.
    // Gate the exhaustive arms on area so every machine/input still gets
    // the certificate re-check above and the Thm 9 arms below.
    const long area = static_cast<long>(tiling->n) * tiling->m;
    constexpr long kSolverAreaCap = 64;
    if (area <= kSolverAreaCap) {
      // (b) The solver solves the exact grid, and its witness re-checks.
      std::optional<std::vector<int>> sol =
          tiling->tp.Solve(tiling->n, tiling->m);
      if (!sol.has_value()) {
        return Fail(c, "solver found no tiling on the certified grid");
      }
      if (!CheckTiling(tiling->tp, tiling->n, tiling->m, *sol, &why)) {
        return Fail(c, "solver witness rejected: " + why);
      }
      // (c) Truncated grids are unsolvable: the construction pins the
      // run length, which is what makes the reduction faithful.
      if (tiling->m > 3 &&
          tiling->tp.Solve(tiling->n, tiling->m - 1).has_value()) {
        return Fail(c, "truncated grid unexpectedly solvable");
      }
    }
    // The height-2 refutation dies in the first rows; always cheap.
    if (tiling->tp.Solve(tiling->n, 2).has_value()) {
      return Fail(c, "height-2 grid unexpectedly solvable");
    }
    // (d) The Thm 9 run-string gadget accepts the faithful encoding (the
    // run reaches accept) and the corrupted one (local corruption fires).
    Thm9Gadget gadget = BuildThm9(tm);
    Instance run = gadget.EncodeRun(tc.input, tc.max_steps);
    if (!DatalogHoldsOn(gadget.query, run)) {
      return Fail(c, "Thm 9 query rejects the faithful run string");
    }
    Instance corrupted = gadget.EncodeCorruptedRun(tc.input, tc.max_steps);
    if (!DatalogHoldsOn(gadget.query, corrupted)) {
      return Fail(c, "Thm 9 query rejects the corrupted run string");
    }
    return Pass();
  }
};

// --- antichain-inclusion ----------------------------------------------------
// The lazy antichain inclusion check — the product walk Thm 5 runs
// (automata/product_walk.h), here over an on-demand subset construction —
// against the two other ways the library can decide the same question:
// the explicit Complement + Product + IsEmpty route, the exact reference,
// so the verdicts must be *equal*; and a brute-force sweep of the
// enumerable code universe, a sound refuter only (a separating code can
// be larger than the enumerated depth), so it participates in the sound
// direction: enumerated separating code => not included. Every
// non-inclusion witness must itself be accepted by `a` and rejected by
// `b`.

class AntichainOracle : public Oracle {
 public:
  std::string name() const override { return "antichain-inclusion"; }
  // NTA cases carry no generated program; the profile is only the corpus
  // vocabulary anchor (as with tm-reduction).
  GenProfile Profile() const override { return EvalProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = EvalProfile();
    c.nta_a = RandomNta(31000 + seed);
    Nta b = RandomNta(33000 + seed);
    // Every third seed unions the left side into the right, so
    // guaranteed-included instances (no early exit, full exploration)
    // are as common as the random mostly-not-included ones.
    if (seed % 3 == 0) b = UnionNta(b, *c.nta_a);
    c.nta_b = std::move(b);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    if (!c.nta_a.has_value() || !c.nta_b.has_value()) {
      return Fail(c, "antichain-inclusion case without [nta a]/[nta b]");
    }
    const Nta& a = *c.nta_a;
    const Nta& b = *c.nta_b;
    SymbolUniverse universe = SymbolsOf(a);
    universe.Merge(SymbolsOf(b));

    const NtaInclusionResult anti = NtaIncluded(a, b, universe);

    // Explicit route: complement, then product emptiness.
    const bool explicit_included =
        IsEmpty(Product(a, Complement(b, universe)));
    if (anti.included != explicit_included) {
      return Fail(c, std::string("antichain says ") +
                         (anti.included ? "included" : "not included") +
                         ", explicit Complement+Product disagrees");
    }

    // The antichain never materializes more macrostates than the
    // explicit determinization has states (every interned macrostate is
    // a reachable subset).
    const Nta det = Determinize(b, universe);
    if (anti.macrostates_visited > det.num_states()) {
      return Fail(c, "antichain interned more macrostates (" +
                         std::to_string(anti.macrostates_visited) +
                         ") than Determinize built (" +
                         std::to_string(det.num_states()) + ")");
    }

    // Witness contract.
    if (anti.included != !anti.witness.has_value()) {
      return Fail(c, "witness presence disagrees with the verdict");
    }
    if (anti.witness.has_value()) {
      if (!anti.witness->Validate() || anti.witness->width != a.width()) {
        return Fail(c, "malformed non-inclusion witness");
      }
      if (!a.Accepts(*anti.witness)) {
        return Fail(c, "non-inclusion witness rejected by a");
      }
      if (b.Accepts(*anti.witness)) {
        return Fail(c, "non-inclusion witness accepted by b");
      }
    }

    // Brute force over the enumerable universe (sound direction only).
    for (const TreeCode& code : NtaEnumerationCodes()) {
      if (a.Accepts(code) && !b.Accepts(code) && anti.included) {
        return Fail(c, "enumerated separating code but verdict is included");
      }
    }

    // Reflexivity sanity on both sides.
    if (!NtaIncluded(a, a, universe).included ||
        !NtaIncluded(b, b, universe).included) {
      return Fail(c, "an automaton is not included in itself");
    }
    return Pass();
  }
};

}  // namespace

const std::vector<const Oracle*>& AllOracles() {
  static const std::vector<const Oracle*>* all = [] {
    auto* v = new std::vector<const Oracle*>();
    v->push_back(new EvalOracle());
    v->push_back(new PlanOracle());
    v->push_back(new MaintenanceOracle());
    v->push_back(new DataflowOracle());
    v->push_back(new WalkVsFlatOracle());
    v->push_back(new TmOracle());
    v->push_back(new AntichainOracle());
    return v;
  }();
  return *all;
}

const Oracle* FindOracle(const std::string& name) {
  for (const Oracle* o : AllOracles()) {
    if (o->name() == name) return o;
  }
  return nullptr;
}

std::string DescribeCase(const FuzzCase& c) { return SerializeCase(c); }

}  // namespace testing
}  // namespace mondet
