#include "core/mondet_check.h"

#include <algorithm>
#include <map>
#include <optional>

#include "automata/product_walk.h"
#include "base/check.h"
#include "core/cq_automaton.h"
#include "core/forward.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"

namespace mondet {

namespace {

/// All expansions of a view definition up to `depth`, capped. Returns
/// (expansions, exhaustive).
std::pair<std::vector<Expansion>, bool> ViewExpansions(const View& view,
                                                       int depth,
                                                       size_t cap) {
  std::vector<Expansion> out;
  bool exhaustive = EnumeratePredExpansions(
      view.definition.program, view.definition.goal, depth, cap,
      [&](const Expansion& e) {
        out.push_back(e);
        return true;
      });
  return {std::move(out), exhaustive};
}

/// Builds the D' of the first `nfacts` image facts for one choice of
/// per-fact view expansions: each view fact V(c) is replaced by the chosen
/// expansion's facts, frontier unified with c and other elements fresh.
/// Qi's elements come first, then each fact's fresh elements in fact
/// order, so the D' of a prefix is a sub-instance of every D' that extends
/// it, with the same element ids. Returns nullopt when some expansion's
/// frontier cannot be unified with its fact's arguments.
std::optional<Instance> BuildDPrime(
    const VocabularyPtr& vocab, const std::vector<Fact>& image,
    const std::vector<const Expansion*>& choice, size_t nfacts,
    size_t base_elems) {
  Instance dprime(vocab);
  dprime.EnsureElements(base_elems);
  for (size_t fi = 0; fi < nfacts; ++fi) {
    const Fact& fact = image[fi];
    const Expansion& exp = *choice[fi];
    // Map the expansion's elements: frontier -> fact args, others fresh.
    std::vector<ElemId> map(exp.inst.num_elements(), kNoElem);
    for (size_t i = 0; i < exp.frontier.size(); ++i) {
      ElemId from = exp.frontier[i];
      if (map[from] != kNoElem && map[from] != fact.args[i]) {
        return std::nullopt;  // frontier repeats, fact args differ
      }
      map[from] = fact.args[i];
    }
    for (ElemId e = 0; e < exp.inst.num_elements(); ++e) {
      if (map[e] == kNoElem) map[e] = dprime.AddElement();
    }
    for (uint32_t fg = 0; fg < exp.inst.num_facts(); ++fg) {
      const FactView f = exp.inst.ViewAt(fg);
      std::vector<ElemId> args;
      args.reserve(f.args.size());
      for (ElemId a : f.args) args.push_back(map[a]);
      dprime.AddFact(f.pred, args);
    }
  }
  return dprime;
}

constexpr size_t kNoTest = static_cast<size_t>(-1);

/// One expansion's block of canonical tests, walked as a trie. A depth-k
/// node fixes the view expansions of image facts 0..k-1; its leaves are
/// the tests numbered in mixed radix with fact 0 most significant, cut
/// off at `size` tests; every fact has a choice and `size` is positive.
///
/// The walk is depth-first in test order and evaluates Q on the D' prefix
/// of every node with two or more children in range. Q is monotone and a
/// prefix is a sub-instance of every D' below it with the same element
/// ids — Qi's, among them the frontier tuple c, come first — so when the
/// prefix satisfies Q(c) every test below passes, and when the prefix
/// cannot be built no test below can. Either way the subtree is skipped.
/// The first failing leaf met is therefore the lowest failing test index.
class TestBlockWalk {
 public:
  TestBlockWalk(const VocabularyPtr& vocab, const std::vector<Fact>& image,
                const Expansion& qi, PredId goal,
                const CompiledProgram& compiled,
                std::vector<const std::vector<Expansion>*> options,
                size_t size)
      : vocab_(vocab),
        image_(image),
        qi_(qi),
        goal_(goal),
        compiled_(compiled),
        options_(std::move(options)),
        size_(size),
        span_(options_.size() + 1, 1),
        choice_(options_.size(), nullptr) {
    // span_[k]: leaves under a depth-k node, saturated at `size` (a child
    // starting that far from its node's first leaf is out of range).
    for (size_t k = options_.size(); k-- > 0;) {
      const size_t r = options_[k]->size();
      span_[k] = span_[k + 1] > size_ / r ? size_ : span_[k + 1] * r;
    }
  }

  /// The lowest failing test index, or kNoTest.
  size_t Run() { return Visit(0, 0); }

  size_t evaluations() const { return evaluations_; }
  /// The D' of the failing test Run returned.
  Instance TakeFailure() { return std::move(*failure_); }

 private:
  std::optional<Instance> Build(size_t nfacts) const {
    return BuildDPrime(vocab_, image_, choice_, nfacts,
                       qi_.inst.num_elements());
  }

  /// Does D' satisfy Q(c) for Qi's frontier tuple c? (The paper states
  /// the Boolean case; the tuple version is the natural non-Boolean
  /// extension.)
  bool Holds(const Instance& dprime) {
    ++evaluations_;
    return compiled_.Eval(dprime).HasFact(goal_, qi_.frontier);
  }

  /// The lowest failing test index under the depth-`depth` node whose
  /// first leaf is test `first`, or kNoTest.
  size_t Visit(size_t depth, size_t first) {
    if (depth == options_.size()) {
      std::optional<Instance> dprime = Build(depth);
      // An unbuildable choice is counted but never a failure.
      if (!dprime || Holds(*dprime)) return kNoTest;
      failure_ = std::move(dprime);
      return first;
    }
    const std::vector<Expansion>& opts = *options_[depth];
    const size_t child_span = span_[depth + 1];
    const size_t children =
        std::min(opts.size(), 1 + (size_ - first - 1) / child_span);
    if (children >= 2) {
      std::optional<Instance> prefix = Build(depth);
      // MONDET_FAULT=skip-prefix-eval prunes without evaluating: unsound,
      // for the fuzz harness' self-test.
      if (!prefix || FaultInjected("skip-prefix-eval") || Holds(*prefix)) {
        return kNoTest;
      }
    }
    for (size_t j = 0; j < children; ++j) {
      choice_[depth] = &opts[j];
      const size_t t = Visit(depth + 1, first + j * child_span);
      if (t != kNoTest) return t;
    }
    return kNoTest;
  }

  const VocabularyPtr& vocab_;
  const std::vector<Fact>& image_;
  const Expansion& qi_;
  const PredId goal_;
  const CompiledProgram& compiled_;
  const std::vector<const std::vector<Expansion>*> options_;
  const size_t size_;
  std::vector<size_t> span_;
  std::vector<const Expansion*> choice_;
  size_t evaluations_ = 0;
  std::optional<Instance> failure_;
};

}  // namespace

MonDetResult CheckMonotonicDeterminacy(const DatalogQuery& query,
                                       const ViewSet& views,
                                       const MonDetOptions& options) {
  const VocabularyPtr& vocab = query.program.vocab();
  MonDetResult result;

  // Validate the inputs through the analyzer: user-reachable precondition
  // failures return kInvalidInput with witnesses instead of aborting or
  // silently computing garbage.
  if (query.program.vocab().get() != views.vocab().get()) {
    result.diagnostics.push_back(MakeDiagnostic(
        Severity::kError, "view-vocabulary",
        "query and views are defined over different vocabularies"));
  } else {
    if (!query.program.IsIdb(query.goal)) {
      result.diagnostics.push_back(MakeDiagnostic(
          Severity::kError, "goal",
          "goal predicate " + vocab->name(query.goal) +
              " is not the head of any rule"));
    }
    if (options.require_query_fragment) {
      std::vector<Diagnostic> witnesses = FragmentViolations(
          query.program, *options.require_query_fragment);
      result.diagnostics.insert(result.diagnostics.end(), witnesses.begin(),
                                witnesses.end());
    }
    if (options.require_view_fragment) {
      for (const View& v : views.views()) {
        std::vector<Diagnostic> witnesses = FragmentViolations(
            v.definition.program, *options.require_view_fragment);
        for (Diagnostic& d : witnesses) {
          d.message = "view " + vocab->name(v.pred) + ": " + d.message;
        }
        result.diagnostics.insert(result.diagnostics.end(), witnesses.begin(),
                                  witnesses.end());
      }
    }
  }
  if (HasErrors(result.diagnostics)) {
    result.verdict = Verdict::kInvalidInput;
    return result;
  }

  // The query program is evaluated on every candidate D'; compile it once.
  CompiledProgram compiled_query(query.program);

  // Pre-enumerate view definition expansions.
  std::map<PredId, std::vector<Expansion>> view_exps;
  bool views_exhaustive = true;
  for (const View& v : views.views()) {
    auto [exps, exhaustive] =
        ViewExpansions(v, options.view_depth, options.max_tests_per_expansion);
    views_exhaustive = views_exhaustive && exhaustive &&
                       IsNonRecursive(v.definition.program);
    view_exps[v.pred] = std::move(exps);
  }

  bool query_exhaustive =
      IsNonRecursive(query.program) &&
      options.query_depth >=
          static_cast<int>(query.program.Idbs().size()) + 1;

  // Collect the query approximations up front; the search then walks one
  // bounded block of (view-choice) tests per expansion, in expansion
  // order.
  std::vector<Expansion> expansions;
  bool enumeration_complete = EnumerateExpansions(
      query, options.query_depth, options.max_query_expansions,
      [&](const Expansion& qi) {
        expansions.push_back(qi);
        return true;
      });

  bool all_tests_built = true;
  size_t tests_before = 0;  // Σ block sizes of completed expansions

  for (size_t ei = 0; ei < expansions.size(); ++ei) {
    const Expansion& qi = expansions[ei];

    // The walk takes the image facts in (pred, args) order, so the test
    // numbering — and with it tests_run and the reported counterexample —
    // is a function of the image's fact *set*, not of the order the
    // evaluator derived it in.
    std::vector<Fact> image = views.Image(qi.inst).AllFacts();
    std::sort(image.begin(), image.end());

    // Per-fact expansion choices; block size = min(Π choices, cap), the
    // exact number of tests a sequential lexicographic walk would count.
    std::vector<const std::vector<Expansion>*> options_per_fact;
    options_per_fact.reserve(image.size());
    bool has_empty = false;
    for (const Fact& f : image) {
      options_per_fact.push_back(&view_exps.at(f.pred));
      if (options_per_fact.back()->empty()) {
        // No expansion of this view within the depth bound: cannot build
        // any D' through this fact.
        has_empty = true;
      }
    }
    const size_t cap = options.max_tests_per_expansion;
    size_t block = 1;
    if (has_empty) {
      all_tests_built = false;
      block = 0;
    } else {
      for (const auto* opts : options_per_fact) {
        size_t c = opts->size();
        if (block > cap / c) {
          all_tests_built = false;
          block = cap;
          break;
        }
        block *= c;
      }
    }

    if (block == 0) continue;  // nothing to walk
    TestBlockWalk walk(vocab, image, qi, query.goal, compiled_query,
                       std::move(options_per_fact), block);
    const size_t t_fail = walk.Run();
    result.evaluations += walk.evaluations();
    if (t_fail != kNoTest) {
      // Pruned tests count as run: the walk stops where a test-by-test
      // scan would have.
      result.expansions_tried = ei + 1;
      result.tests_run = tests_before + t_fail + 1;
      result.failure.emplace(qi, walk.TakeFailure());
      result.verdict = Verdict::kNotDetermined;
      return result;
    }
    tests_before += block;
  }

  result.expansions_tried = expansions.size();
  result.tests_run = tests_before;
  if (query_exhaustive && views_exhaustive && enumeration_complete &&
      all_tests_built) {
    result.verdict = Verdict::kDetermined;
  } else {
    result.verdict = Verdict::kUnknownBounded;
  }
  return result;
}

ContainmentResult DatalogContainedInUcq(const DatalogQuery& query,
                                        const UCQ& ucq) {
  ContainmentResult result;
  ForwardResult fwd = ApproximationAutomaton(query);
  const Nta& nta = fwd.automaton;

  // The verdict from the pruned walk, stopping at its first bad pair.
  UcqMatchAutomaton dp(ucq, fwd.width);
  ProductWalkResult w = ProductWalk(nta, dp, /*prune=*/true);
  result.pairs_explored = w.pairs.size();
  result.transition_visits = w.transition_visits;
  result.subsumption_prunes = w.subsumption_prunes;
  result.macrostates_visited = dp.num_states();
  result.contained = w.first_bad < 0;
  if (result.contained) return result;
  // The witness comes from a second, unpruned walk to its first bad pair:
  // the prune decides which pairs get interned, so only the unpruned
  // walk's first bad pair is independent of it.
  UcqMatchAutomaton dp_witness(ucq, fwd.width);
  ProductWalkResult ww = ProductWalk(nta, dp_witness, /*prune=*/false);
  MONDET_CHECK(ww.first_bad >= 0);
  result.transition_visits += ww.transition_visits;
  result.counterexample = BuildDerivedCode(nta, ww.derivs, ww.first_bad);
  return result;
}

Thm5Result CheckCqOverDatalogViews(const CQ& query, const ViewSet& views) {
  MONDET_CHECK(query.free_vars().empty());
  const VocabularyPtr& vocab = query.vocab();

  // Q'' = Π_V ∪ { Goal'' ← V(Q) }: the views applied to Q's canonical
  // database, read back as a query over the view schema, with the view
  // definitions as rules.
  Instance canon = query.CanonicalDb();
  Instance image = views.Image(canon);
  Program program = views.CombinedProgram();
  PredId goal2 = vocab->AddPredicate("Thm5.Goal", 0);
  Rule goal_rule;
  for (size_t e = 0; e < canon.num_elements(); ++e) {
    goal_rule.var_names.push_back(canon.element_name(static_cast<ElemId>(e)));
  }
  goal_rule.head = QAtom(goal2, {});
  for (uint32_t fg = 0; fg < image.num_facts(); ++fg) {
    const FactView f = image.ViewAt(fg);
    goal_rule.body.push_back(
        QAtom(f.pred, std::vector<VarId>(f.args.begin(), f.args.end())));
  }
  program.AddRule(std::move(goal_rule));
  DatalogQuery q2(std::move(program), goal2);

  UCQ target(vocab);
  target.AddDisjunct(query);
  ContainmentResult contained = DatalogContainedInUcq(q2, target);

  Thm5Result out;
  out.determined = contained.contained;
  out.pairs_explored = contained.pairs_explored;
  out.transition_visits = contained.transition_visits;
  out.macrostates_visited = contained.macrostates_visited;
  out.subsumption_prunes = contained.subsumption_prunes;
  out.counterexample = std::move(contained.counterexample);
  return out;
}

}  // namespace mondet
