// Workload "containment": seeded Thm 5 decisions (CheckCqOverDatalogViews)
// at default options. Operations mix the path-plus-U CQ family over the
// VReach (recursive) / VR (atomic) views at n = 2-4, which is determined at
// every n, with random CQs over {E1, E2} paired with RandomViewSpecs views,
// query paths capped at 3 atoms, in a fixed window (see RunContainment).
// One operation = one decision.
//
// Reference, once per input: the bounded canonical-test checker; when it
// refutes the pair Thm 5 must say "not determined", and when it proves
// determinacy Thm 5 must agree. Repeated decisions must repeat exactly.
//
// The traced run rebuilds Thm 5's Q'' from public calls
// (CQ::CanonicalDb, ViewSet::Image, ViewSet::CombinedProgram) and times
// ApproximationAutomaton and DatalogContainedInUcq apart; the replay's
// verdict must equal the real decision.

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/forward.h"
#include "core/mondet_check.h"
#include "datalog/parser.h"
#include "harness.h"
#include "testing/generator.h"

namespace perfbench {
namespace {

using namespace mondet;

struct Thm5Input {
  std::string label;
  CQ query;
  ViewSet views;
  bool family;  // the path-plus-U family, determined at every n
  // Reference state.
  bool seen = false;
  bool determined = false;
  size_t pairs = 0;

  Thm5Input(std::string l, CQ q, ViewSet v, bool fam)
      : label(std::move(l)),
        query(std::move(q)),
        views(std::move(v)),
        family(fam) {}
};

struct Thm5Pool {
  std::vector<std::unique_ptr<Thm5Input>> family;
  std::vector<std::unique_ptr<Thm5Input>> random;
};

Thm5Pool BuildPool(const Options& o, std::mt19937_64& rng) {
  Thm5Pool pool;
  // One vocabulary per input: Thm 5 interns its fold predicates by name
  // (core/forward.cc), so two queries over one vocabulary whose Q'' fold
  // to different arities abort on the second decision.
  for (int n = o.smoke ? 1 : 2; n <= (o.smoke ? 2 : 4); ++n) {
    auto vocab = MakeVocabulary();
    PredId r = vocab->AddPredicate("R", 2);
    PredId u = vocab->AddPredicate("U", 1);
    std::vector<Diagnostic> diags;
    std::optional<DatalogQuery> def = ParseQuery(
        "Reach(x) :- R(x,y), U(y).\nReach(x) :- R(x,y), Reach(y).", "Reach",
        vocab, &diags);
    if (!def) throw std::runtime_error("reach view does not parse");
    ViewSet views(vocab);
    views.AddView("VReach", *def);
    views.AddAtomicView("VR", r);
    CQ q(vocab);
    std::vector<VarId> vars;
    for (int i = 0; i <= n; ++i) vars.push_back(q.AddVar());
    for (int i = 0; i < n; ++i) q.AddAtom(r, {vars[i], vars[i + 1]});
    q.AddAtom(u, {vars[n]});
    q.SetFreeVars({});
    pool.family.push_back(std::make_unique<Thm5Input>(
        "path-u/" + std::to_string(n), std::move(q), std::move(views),
        /*fam=*/true));
  }
  // Random CQs: every (view shape, path length) pair once, so the mix of
  // costs is the same whatever the seed; the seed places the E1 marks.
  for (int k = 0; k < (o.smoke ? 2 : 9); ++k) {
    const unsigned s = static_cast<unsigned>(3 * (rng() % 333333) + k % 3);
    const int len = 1 + k / 3;
    testing::GenProfile p = testing::QueryProfile();
    const PredId e1 = *p.vocab->FindPredicate("E1");
    const PredId e2 = *p.vocab->FindPredicate("E2");
    CQ q(p.vocab);
    std::vector<VarId> vars;
    for (int i = 0; i <= len; ++i) vars.push_back(q.AddVar());
    for (int i = 0; i < len; ++i) q.AddAtom(e2, {vars[i], vars[i + 1]});
    // An E1 mark on a random path node, keeping the query at 3 atoms.
    if (len < 3 && rng() % 2 == 0) {
      q.AddAtom(e1, {vars[rng() % vars.size()]});
    }
    q.SetFreeVars({});
    ViewSet views =
        testing::BuildViews(p.vocab, testing::RandomViewSpecs(p, s));
    pool.random.push_back(std::make_unique<Thm5Input>(
        "random/" + std::to_string(s) + "/" + std::to_string(len),
        std::move(q), std::move(views), /*fam=*/false));
  }
  // The view programs compile lazily on first use; do it here.
  for (const auto* part : {&pool.family, &pool.random}) {
    for (const auto& in : *part) in->views.Compiled();
  }
  return pool;
}

std::optional<std::string> Verify(Thm5Input& in, const Thm5Result& r) {
  if (in.seen) {
    if (r.determined != in.determined || r.pairs_explored != in.pairs) {
      return in.label + ": decision differs from an earlier run";
    }
    return std::nullopt;
  }
  if (in.family && !r.determined) {
    return in.label + ": wrong verdict for the path-plus-U family";
  }
  MonDetOptions opts;
  opts.view_depth = 3;
  opts.max_query_expansions = 50;
  opts.max_tests_per_expansion = 500;
  const MonDetResult bounded =
      CheckMonotonicDeterminacy(CqAsDatalog(in.query, "G"), in.views, opts);
  if (bounded.verdict == Verdict::kNotDetermined && r.determined) {
    return in.label + ": canonical tests refute, Thm 5 says determined";
  }
  if (bounded.verdict == Verdict::kDetermined && !r.determined) {
    return in.label + ": canonical tests prove, Thm 5 says not determined";
  }
  if (!r.determined && !r.counterexample) {
    return in.label + ": not determined without a counterexample";
  }
  in.seen = true;
  in.determined = r.determined;
  in.pairs = r.pairs_explored;
  return std::nullopt;
}

struct ReplayCounts {
  bool contained = false;
  double forward_ms = 0;
  double containment_ms = 0;
  size_t states = 0, transitions = 0;
  size_t pairs = 0, visits = 0, macrostates = 0, prunes = 0;
};

/// Q'' = Π_V ∪ {Thm5.Goal ← V(Q)}, as CheckCqOverDatalogViews builds it.
ReplayCounts ReplayThm5(const Thm5Input& in, Tracer& tr) {
  const VocabularyPtr& vocab = in.query.vocab();
  Instance canon = in.query.CanonicalDb();
  Instance image = in.views.Image(canon);
  Program program = in.views.CombinedProgram();
  PredId goal = vocab->AddPredicate("Thm5.Goal", 0);
  Rule goal_rule;
  for (size_t e = 0; e < canon.num_elements(); ++e) {
    goal_rule.var_names.push_back(canon.element_name(static_cast<ElemId>(e)));
  }
  goal_rule.head = QAtom(goal, {});
  for (uint32_t fg = 0; fg < image.num_facts(); ++fg) {
    const FactView f = image.ViewAt(fg);
    goal_rule.body.push_back(
        QAtom(f.pred, std::vector<VarId>(f.args.begin(), f.args.end())));
  }
  program.AddRule(std::move(goal_rule));
  const DatalogQuery q2(std::move(program), goal);
  UCQ target(vocab);
  target.AddDisjunct(in.query);

  ReplayCounts c;
  Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope s(tr, "core.forward.build");
    ForwardResult fwd = ApproximationAutomaton(q2);
    c.states = fwd.automaton.num_states();
    c.transitions = fwd.automaton.num_transitions();
  }
  c.forward_ms = MsSince(t0);
  t0 = Clock::now();
  {
    Tracer::Scope s(tr, "core.containment");
    const ContainmentResult cr = DatalogContainedInUcq(q2, target);
    c.contained = cr.contained;
    c.pairs = cr.pairs_explored;
    c.visits = cr.transition_visits;
    c.macrostates = cr.macrostates_visited;
    c.prunes = cr.subsumption_prunes;
  }
  c.containment_ms = MsSince(t0);
  return c;
}

}  // namespace

void RunContainment(const Options& o, Tracer& tr, Result* r) {
  std::mt19937_64 rng(o.seed);
  Thm5Pool pool;
  while (r->MoreSetUps()) {
    rng.seed(o.seed);
    pool = Thm5Pool();  // the last set-up's teardown is not timed
    const Clock::time_point t0 = Clock::now();
    pool = BuildPool(o, rng);
    r->AddSetUp(MsSince(t0));
  }
  // One window, in this order: the largest family member kLargestReps
  // times, the smallest once, then one round of the random CQs (shuffled)
  // alternating with the middle member. A decision right after the largest
  // one runs about 1.7 ms slower, so that slot goes to the smallest member
  // and never to a random CQ. Sorted by latency, a window is the random CQs
  // and the smallest member (at most 1.9 ms), the middle member (2-4 ms)
  // and the largest (about 200 ms), so op_ms.p50 falls inside the middle
  // member's decisions and op_ms.p90 inside the largest's, both
  // independent of the seed.
  constexpr size_t kLargestReps = 5;
  const size_t family_n = pool.family.size();
  const size_t middle = family_n > 2 ? 1 : 0;
  std::vector<int> window;  // family index, or -1 for the next random CQ
  window.insert(window.end(), kLargestReps, static_cast<int>(family_n - 1));
  window.push_back(0);
  for (size_t k = 0; k < pool.random.size(); ++k) {
    if (k > 0) window.push_back(static_cast<int>(middle));
    window.push_back(-1);
  }
  Cycle random(pool.random.size(), rng);
  r->window = window.size();

  TraceSplit split;
  size_t replays = 0;
  ReplayCounts sum;
  double walk_ms = 0;

  Loop loop(o, r);
  while (loop.More()) {
    const uint64_t i = loop.ops();
    const int slot = window[i % window.size()];
    Thm5Input& in =
        slot < 0 ? *pool.random[random.Next()] : *pool.family[slot];
    const bool traced = o.trace && (i / 4) % 2 == 0;
    tr.set_active(traced);
    tr.set_op(i, in.label);
    Thm5Result result;
    double ms = 0;
    {
      Tracer::Scope s(tr, "core.thm5");
      const double c0 = o.trace ? CpuSeconds() : 0;
      ms = loop.Time(
          [&] { result = CheckCqOverDatalogViews(in.query, in.views); });
      if (o.trace) split.Add(traced, ms, CpuSeconds() - c0);
    }
    r->Work(static_cast<double>(result.pairs_explored), ms);

    if (traced) {
      ReplayCounts c;
      loop.Busy([&] {
        Tracer::Scope s(tr, "core.thm5.replay");
        c = ReplayThm5(in, tr);
      });
      if (c.contained != result.determined) {
        r->Fail(in.label + ": replay verdict differs from Thm 5");
        continue;
      }
      ++replays;
      sum.states += c.states;
      sum.transitions += c.transitions;
      sum.pairs += c.pairs;
      sum.visits += c.visits;
      sum.macrostates += c.macrostates;
      sum.prunes += c.prunes;
      sum.forward_ms += c.forward_ms;
      walk_ms += std::max(0.0, c.containment_ms - c.forward_ms);
    }
    std::optional<std::string> err;
    loop.Verify([&] { err = Verify(in, result); });
    if (err) r->Fail(*err);
  }
  tr.set_active(true);

  if (o.trace) {
    const double n = std::max<double>(1, replays);
    auto& L = r->layers;
    L["core.forward.build_ms"] = sum.forward_ms / n;
    L["core.forward.nta_states"] = sum.states / n;
    L["core.forward.nta_transitions"] = sum.transitions / n;
    L["core.containment.walk_ms"] = walk_ms / n;
    L["core.containment.pairs"] = sum.pairs / n;
    L["core.containment.transition_visits"] = sum.visits / n;
    L["core.containment.macrostates"] = sum.macrostates / n;
    L["core.containment.prune_ratio"] =
        sum.pairs + sum.prunes > 0
            ? static_cast<double>(sum.prunes) / (sum.pairs + sum.prunes)
            : 0;
    split.Report(&L);
  }
}

}  // namespace perfbench
