#include "core/mondet_check.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>

#include "automata/product_walk.h"
#include "base/check.h"
#include "base/stats.h"
#include "base/thread_pool.h"
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

/// Builds D' for one choice of per-fact view expansions: each view fact
/// V(c) is replaced by the chosen expansion's facts, frontier unified with
/// c and other elements fresh. Returns nullopt when some expansion's
/// frontier cannot be unified with its fact's arguments.
std::optional<Instance> BuildDPrime(
    const VocabularyPtr& vocab, const Instance& image,
    const std::vector<const Expansion*>& choice, size_t base_elems) {
  Instance dprime(vocab);
  dprime.EnsureElements(base_elems);
  for (uint32_t fi = 0; fi < image.num_facts(); ++fi) {
    const FactView fact = image.ViewAt(fi);
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

/// Orders facts by (pred, args): the per-expansion test enumeration walks
/// the image facts in this order, so the test numbering — and with it
/// tests_run and the reported counterexample — is a function of the
/// image's fact *set*, not of the order the evaluator derived it in.
bool FactLess(const Fact& a, const Fact& b) {
  if (a.pred != b.pred) return a.pred < b.pred;
  return a.args < b.args;
}

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

  // Collect the query approximations up front; the search then runs one
  // bounded block of (view-choice) tests per expansion, in expansion
  // order, fanning each block out over the shared thread pool.
  std::vector<Expansion> expansions;
  bool enumeration_complete = EnumerateExpansions(
      query, options.query_depth, options.max_query_expansions,
      [&](const Expansion& qi) {
        expansions.push_back(qi);
        return true;
      });

  const int nthreads = std::max(1, ResolveEvalThreads(options.num_threads));
  ThreadPool& pool = ThreadPool::Shared();

  bool all_tests_built = true;
  size_t tests_before = 0;  // Σ block sizes of completed expansions
  constexpr size_t kNoTest = static_cast<size_t>(-1);

  for (size_t ei = 0; ei < expansions.size(); ++ei) {
    const Expansion& qi = expansions[ei];

    // One image per expansion, instances a few facts each: like the
    // query evals below, too small to amortize per-instance dataflow
    // analysis.
    EvalOptions img_opts;
    img_opts.dataflow_prune = false;
    std::vector<Fact> image_facts =
        views.Image(qi.inst, nullptr, img_opts).AllFacts();
    std::sort(image_facts.begin(), image_facts.end(), FactLess);
    Instance image(vocab);
    image.EnsureElements(qi.inst.num_elements());
    for (const Fact& f : image_facts) image.AddFact(f);

    // Per-fact expansion choices; block size = min(Π choices, cap), the
    // exact number of tests a sequential lexicographic walk would count.
    const size_t nfacts = image.num_facts();
    std::vector<const std::vector<Expansion>*> options_per_fact;
    options_per_fact.reserve(nfacts);
    bool has_empty = false;
    for (uint32_t fg = 0; fg < image.num_facts(); ++fg) {
      const FactView f = image.ViewAt(fg);
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

    // Decodes a flat test index into per-fact choices, fact 0 most
    // significant — flat-index order IS the sequential lexicographic
    // order, so "lowest failing index" means "first failure a sequential
    // run would hit".
    auto decode = [&](size_t t, std::vector<const Expansion*>* choice) {
      choice->assign(nfacts, nullptr);
      for (size_t fi = nfacts; fi-- > 0;) {
        const std::vector<Expansion>& opts = *options_per_fact[fi];
        (*choice)[fi] = &opts[t % opts.size()];
        t /= opts.size();
      }
    };

    // One statistics snapshot per block, collected from the first
    // buildable D': every test's D' assembles the same view expansions
    // over the same image facts, so one test's counts describe them all
    // well. The snapshot spares each of the (up to `cap`) inner Evals its
    // own live collection — stale stats stay correct by construction —
    // and, being built sequentially before the fan-out, keeps the planned
    // orders identical at every thread count.
    std::optional<Stats> block_stats;
    {
      std::vector<const Expansion*> probe_choice;
      const size_t probe_limit = std::min<size_t>(block, 4);
      for (size_t t = 0; t < probe_limit && !block_stats; ++t) {
        decode(t, &probe_choice);
        std::optional<Instance> dprime =
            BuildDPrime(vocab, image, probe_choice, qi.inst.num_elements());
        if (dprime) block_stats = Stats::Collect(*dprime);
      }
    }

    std::atomic<size_t> best{kNoTest};
    std::vector<std::vector<const Expansion*>> scratch(nthreads);
    pool.ParallelFor(block, nthreads, [&](size_t t, int w) {
      // Only skip tests above a known failure: `best` never increases, so
      // the minimum failing index is always evaluated.
      if (t >= best.load(std::memory_order_acquire)) return;
      decode(t, &scratch[w]);
      std::optional<Instance> dprime =
          BuildDPrime(vocab, image, scratch[w], qi.inst.num_elements());
      if (!dprime) return;  // unbuildable choice: counted, never a failure
      // The test succeeds if D' |= Q(c) for Qi's frontier tuple c (the
      // paper states the Boolean case; the tuple version is the natural
      // non-Boolean extension). Inner evaluations stay single-threaded —
      // the parallelism budget is spent on the test fan-out.
      EvalOptions eopts;
      eopts.num_threads = 1;
      if (block_stats) eopts.stats = &*block_stats;
      // Thousands of µs-scale evals per check: the per-instance dataflow
      // analysis can never amortize here, same reason the stats snapshot
      // above bypasses live collection.
      eopts.dataflow_prune = false;
      if (!compiled_query.Eval(*dprime, nullptr, eopts)
               .HasFact(query.goal, qi.frontier)) {
        size_t cur = best.load(std::memory_order_relaxed);
        while (t < cur && !best.compare_exchange_weak(
                              cur, t, std::memory_order_acq_rel)) {
        }
      }
    });

    size_t t_fail = best.load(std::memory_order_acquire);
    if (t_fail != kNoTest) {
      // As-if-sequential accounting: a 1-thread lexicographic walk would
      // have stopped at exactly this test.
      result.expansions_tried = ei + 1;
      result.tests_run = tests_before + t_fail + 1;
      std::vector<const Expansion*> choice;
      decode(t_fail, &choice);
      std::optional<Instance> dprime =
          BuildDPrime(vocab, image, choice, qi.inst.num_elements());
      result.failure.emplace(qi, std::move(*dprime));
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
                                        const UCQ& ucq,
                                        const ContainmentOptions& options) {
  ContainmentResult result;
  ForwardResult fwd = ApproximationAutomaton(query);
  const Nta& nta = fwd.automaton;

  // Antichain: the verdict from the pruned walk, stopping at its first
  // bad pair. Full fixpoint: the unpruned walk to saturation, whose first
  // bad pair is the counterexample.
  UcqMatchAutomaton dp(ucq, fwd.width);
  ProductWalkResult w = ProductWalk(nta, dp, /*prune=*/options.antichain,
                                    /*early_exit=*/options.antichain);
  result.pairs_explored = w.pairs.size();
  result.transition_visits = w.transition_visits;
  result.subsumption_prunes = w.subsumption_prunes;
  result.macrostates_visited = dp.num_states();
  result.contained = w.first_bad < 0;
  if (result.contained) return result;
  if (!options.antichain) {
    result.counterexample = BuildDerivedCode(nta, w.derivs, w.first_bad);
    return result;
  }
  // The witness comes from a second, unpruned early-exit walk: it interns
  // the full fixpoint's pairs up to their first bad one, so the
  // counterexample is byte-identical to the full-fixpoint route's.
  UcqMatchAutomaton dp_witness(ucq, fwd.width);
  ProductWalkResult ww = ProductWalk(nta, dp_witness, /*prune=*/false,
                                     /*early_exit=*/true);
  MONDET_CHECK(ww.first_bad >= 0);
  result.transition_visits += ww.transition_visits;
  result.counterexample = BuildDerivedCode(nta, ww.derivs, ww.first_bad);
  return result;
}

Thm5Result CheckCqOverDatalogViews(const CQ& query, const ViewSet& views,
                                   const ContainmentOptions& options) {
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
  ContainmentResult contained = DatalogContainedInUcq(q2, target, options);

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
