// Workload "check": a seeded mix of Lemma 5 canonical-test checks
// (CheckMonotonicDeterminacy) with known verdicts. Three of every four
// operations are small checks (exact CQ/CQ and UCQ/UCQ cells, the Lemma 8
// reduction, 384 random query/view pairs); every fourth is a deep check (the
// MDL/MDL+CQ pair at depth 5-6, the Thm 6 gadget over the solvable and the
// unsolvable tiling). One operation = one check.
//
// The traced run replays each traced check single-threaded through the
// same public calls the checker makes (expansion enumeration, compile,
// view image, D' assembly, statistics, evaluation) and rejects the replay
// unless its verdict and test count equal the real check's.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mondet_check.h"
#include "datalog/approximation.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"
#include "datalog/parser.h"
#include "harness.h"
#include "reductions/prop9.h"
#include "reductions/thm6.h"
#include "testing/generator.h"
#include "testing/reference.h"

namespace perfbench {
namespace {

using namespace mondet;

enum class Expect { kDetermined, kNotDetermined, kNotRefuted, kAny };

struct CheckInput {
  std::string label;
  DatalogQuery query;
  ViewSet views;
  MonDetOptions options;
  Expect expect;
  // Reference state: the first result on this input, after its witness
  // (if any) passed the naive re-check; later results must repeat it.
  bool seen = false;
  Verdict verdict = Verdict::kUnknownBounded;
  size_t tests_run = 0;
  size_t expansions = 0;
  Fingerprint dprime;

  CheckInput(std::string l, DatalogQuery q, ViewSet v, MonDetOptions o,
             Expect e)
      : label(std::move(l)),
        query(std::move(q)),
        views(std::move(v)),
        options(o),
        expect(e) {}
};

struct CheckPool {
  std::vector<std::unique_ptr<CheckInput>> small;
  std::vector<std::unique_ptr<CheckInput>> deep;
};

CQ PathCq(const VocabularyPtr& vocab, PredId r, int n) {
  CQ cq(vocab);
  std::vector<VarId> vars;
  for (int i = 0; i <= n; ++i) vars.push_back(cq.AddVar());
  for (int i = 0; i < n; ++i) cq.AddAtom(r, {vars[i], vars[i + 1]});
  cq.SetFreeVars({});
  return cq;
}

DatalogQuery MustQuery(const std::string& text, const std::string& goal,
                       const VocabularyPtr& vocab) {
  std::vector<Diagnostic> diags;
  std::optional<DatalogQuery> q = ParseQuery(text, goal, vocab, &diags);
  if (!q) throw std::runtime_error("benchmark query does not parse: " + text);
  return std::move(*q);
}

/// The exact cells: path CQs of length 1..8 over the 2-step view (even
/// lengths determined, odd ones not), and the UCQ cell (determined).
void AddExactCells(bool smoke, CheckPool* pool) {
  for (int len = 1; len <= (smoke ? 4 : 8); ++len) {
    auto vocab = MakeVocabulary();
    PredId r = vocab->AddPredicate("R", 2);
    ViewSet views(vocab);
    std::string error;
    views.AddCqView("V", *ParseCq("V(x,z) :- R(x,y), R(y,z).", vocab, &error));
    pool->small.push_back(std::make_unique<CheckInput>(
        "cqcq/" + std::to_string(len),
        CqAsDatalog(PathCq(vocab, r, len), "G"), views, MonDetOptions{},
        len % 2 == 0 ? Expect::kDetermined : Expect::kNotDetermined));
  }
  for (int n = 1; n <= (smoke ? 1 : 3); ++n) {
    auto vocab = MakeVocabulary();
    PredId r = vocab->AddPredicate("R", 2);
    PredId s = vocab->AddPredicate("S", 1);
    UCQ q(vocab);
    q.AddDisjunct(PathCq(vocab, r, 2 * n));
    CQ d(vocab);
    d.AddAtom(s, {d.AddVar()});
    d.SetFreeVars({});
    q.AddDisjunct(d);
    ViewSet views(vocab);
    std::string error;
    views.AddCqView("V", *ParseCq("V(x,z) :- R(x,y), R(y,z).", vocab, &error));
    views.AddAtomicView("VS", s);
    pool->small.push_back(std::make_unique<CheckInput>(
        "ucqucq/" + std::to_string(n), UcqAsDatalog(q, "G"), views,
        MonDetOptions{}, Expect::kDetermined));
  }
}

/// Prop. 9 / Lemma 8: Q1 ⊑ Q2 iff the reduction's query is monotonically
/// determined.
void AddLemma8(CheckPool* pool) {
  for (bool contained : {true, false}) {
    auto vocab = MakeVocabulary();
    DatalogQuery q1 = MustQuery(
        contained ? "G1() :- R(x,y), R(y,z)." : "G1() :- R(x,y).", "G1", vocab);
    DatalogQuery q2 = MustQuery(
        contained ? "G2() :- R(x,y)." : "G2() :- R(x,x).", "G2", vocab);
    Prop9Reduction red = ContainmentToMonDet(q1, q2);
    pool->small.push_back(std::make_unique<CheckInput>(
        contained ? "lemma8/contained" : "lemma8/not-contained", red.query,
        red.views, MonDetOptions{},
        contained ? Expect::kNotRefuted : Expect::kNotDetermined));
  }
}

/// Random QueryProfile programs paired with RandomViewSpecs views, at the
/// bounds of the mondet-parallel oracle. No verdict is known in advance;
/// every refutation's witness is re-checked.
void AddRandomPairs(int count, std::mt19937_64& rng, CheckPool* pool) {
  MonDetOptions opts;
  opts.query_depth = 3;
  opts.view_depth = 3;
  opts.max_query_expansions = 24;
  opts.max_tests_per_expansion = 48;
  for (int i = 0; i < count; ++i) {
    // RandomViewSpecs picks one of three view shapes by s % 3; each shape
    // gets a third of the pairs whatever the seed.
    const unsigned s = static_cast<unsigned>(3 * (rng() % 333333) + i % 3);
    testing::GenProfile p = testing::QueryProfile();
    DatalogQuery q(testing::RandomGoalProgram(p, 5000 + s), p.goal);
    ViewSet views = testing::BuildViews(p.vocab, testing::RandomViewSpecs(p, s));
    pool->small.push_back(std::make_unique<CheckInput>(
        "random/" + std::to_string(s), std::move(q), std::move(views), opts,
        Expect::kAny));
  }
}

/// The MDL/MDL+CQ pair (determined, recursive: never refuted) at `depth`.
std::unique_ptr<CheckInput> MdlMdlCq(int depth) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustQuery(
      "P(x) :- U(x).\nP(x) :- R(x,y), P(y).\nGoal() :- P(x).", "Goal", vocab);
  DatalogQuery vdef =
      MustQuery("VP(x) :- U(x).\nVP(x) :- R(x,y), VP(y).", "VP", vocab);
  ViewSet views(vocab);
  views.AddView("VReach", vdef);
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));
  MonDetOptions opts;
  opts.query_depth = depth;
  opts.view_depth = depth;
  opts.max_query_expansions = 100;
  opts.max_tests_per_expansion = 2000;
  return std::make_unique<CheckInput>("mdl/" + std::to_string(depth), q, views,
                                      opts, Expect::kNotRefuted);
}

/// Thm 6: the gadget is refuted iff the tiling problem is solvable.
std::unique_ptr<CheckInput> Thm6(bool solvable) {
  Thm6Gadget g =
      BuildThm6(solvable ? SolvableTilingProblem() : UnsolvableTilingProblem());
  MonDetOptions opts;
  opts.query_depth = 4;
  opts.view_depth = 3;
  opts.max_query_expansions = 40;
  opts.max_tests_per_expansion = 3000;
  return std::make_unique<CheckInput>(
      solvable ? "thm6/solvable" : "thm6/unsolvable", g.query, g.views, opts,
      solvable ? Expect::kNotDetermined : Expect::kNotRefuted);
}

CheckPool BuildPool(const Options& o, std::mt19937_64& rng) {
  CheckPool pool;
  AddExactCells(o.smoke, &pool);
  AddLemma8(&pool);
  // op_ms.p50 falls among the random pairs; with this many, which pairs the
  // seed draws hardly moves it.
  AddRandomPairs(o.smoke ? 3 : 384, rng, &pool);
  if (o.smoke) {
    pool.deep.push_back(MdlMdlCq(3));
  } else {
    pool.deep.push_back(MdlMdlCq(5));
    pool.deep.push_back(MdlMdlCq(6));
    pool.deep.push_back(Thm6(true));
    pool.deep.push_back(Thm6(false));
  }
  // The view programs compile lazily on first use; do it here.
  for (const auto* part : {&pool.small, &pool.deep}) {
    for (const auto& in : *part) in->views.Compiled();
  }
  return pool;
}

bool VerdictMatches(Expect e, Verdict v) {
  switch (e) {
    case Expect::kDetermined:
      return v == Verdict::kDetermined;
    case Expect::kNotDetermined:
      return v == Verdict::kNotDetermined;
    case Expect::kNotRefuted:
      return v == Verdict::kDetermined || v == Verdict::kUnknownBounded;
    case Expect::kAny:
      return v != Verdict::kInvalidInput;
  }
  return false;
}

/// Checks one result against the input's known verdict; on the first
/// result for the input, re-checks a refutation's witness with the naive
/// evaluator (the approximation satisfies Q, D' does not); later results
/// must repeat the first one exactly.
std::optional<std::string> Verify(CheckInput& in, const MonDetResult& r) {
  if (!VerdictMatches(in.expect, r.verdict)) {
    return in.label + ": unexpected verdict " +
           std::to_string(static_cast<int>(r.verdict));
  }
  const Fingerprint dp =
      r.failure ? FingerprintOf(r.failure->dprime) : Fingerprint{};
  if (!in.seen) {
    if (r.verdict == Verdict::kNotDetermined) {
      if (!r.failure) return in.label + ": refutation without a witness";
      const PredId goal = in.query.goal;
      const std::vector<ElemId>& c = r.failure->approximation.frontier;
      if (!NaiveFpEval(in.query.program, r.failure->approximation.inst)
               .HasFact(goal, c)) {
        return in.label + ": witness approximation does not satisfy Q";
      }
      if (NaiveFpEval(in.query.program, r.failure->dprime).HasFact(goal, c)) {
        return in.label + ": witness D' satisfies Q (not a failing test)";
      }
    }
    in.seen = true;
    in.verdict = r.verdict;
    in.tests_run = r.tests_run;
    in.expansions = r.expansions_tried;
    in.dprime = dp;
    return std::nullopt;
  }
  if (r.verdict != in.verdict || r.tests_run != in.tests_run ||
      r.expansions_tried != in.expansions || !(dp == in.dprime)) {
    return in.label + ": result differs from an earlier run on this input";
  }
  return std::nullopt;
}

/// Mirror of the checker's D' assembly (core/mondet_check.cc), through
/// Instance::AddElement / AddFact.
std::optional<Instance> BuildDPrime(const VocabularyPtr& vocab,
                                    const Instance& image,
                                    const std::vector<const Expansion*>& choice,
                                    size_t base_elems) {
  Instance dprime(vocab);
  dprime.EnsureElements(base_elems);
  std::vector<ElemId> args;
  for (uint32_t fi = 0; fi < image.num_facts(); ++fi) {
    const FactView fact = image.ViewAt(fi);
    const Expansion& exp = *choice[fi];
    std::vector<ElemId> map(exp.inst.num_elements(), kNoElem);
    for (size_t i = 0; i < exp.frontier.size(); ++i) {
      const ElemId from = exp.frontier[i];
      if (map[from] != kNoElem && map[from] != fact.args[i]) {
        return std::nullopt;
      }
      map[from] = fact.args[i];
    }
    for (ElemId e = 0; e < exp.inst.num_elements(); ++e) {
      if (map[e] == kNoElem) map[e] = dprime.AddElement();
    }
    for (uint32_t fg = 0; fg < exp.inst.num_facts(); ++fg) {
      const FactView f = exp.inst.ViewAt(fg);
      args.clear();
      for (ElemId a : f.args) args.push_back(map[a]);
      dprime.AddFact(f.pred, args);
    }
  }
  return dprime;
}

struct Replay {
  Verdict verdict = Verdict::kUnknownBounded;
  size_t tests_run = 0;
  size_t expansions = 0;
};

/// Single-threaded replay of CheckMonotonicDeterminacy (test cache off, as
/// the checker's default), one span per layer call.
Replay ReplayCheck(const CheckInput& in, Tracer& tr) {
  const DatalogQuery& query = in.query;
  const MonDetOptions& o = in.options;
  const VocabularyPtr& vocab = query.program.vocab();
  Replay out;

  std::map<PredId, std::vector<Expansion>> view_exps;
  std::vector<Expansion> expansions;
  bool views_exhaustive = true;
  bool enumeration_complete = false;
  {
    Tracer::Scope s(tr, "datalog.approximation.expand");
    for (const View& v : in.views.views()) {
      std::vector<Expansion> exps;
      const bool exhaustive = EnumeratePredExpansions(
          v.definition.program, v.definition.goal, o.view_depth,
          o.max_tests_per_expansion, [&](const Expansion& e) {
            exps.push_back(e);
            return true;
          });
      views_exhaustive = views_exhaustive && exhaustive &&
                         IsNonRecursive(v.definition.program);
      view_exps[v.pred] = std::move(exps);
    }
    enumeration_complete = EnumerateExpansions(
        query, o.query_depth, o.max_query_expansions,
        [&](const Expansion& qi) {
          expansions.push_back(qi);
          return true;
        });
  }
  std::optional<CompiledProgram> compiled;
  {
    Tracer::Scope s(tr, "datalog.compile");
    compiled.emplace(query.program);
  }
  const bool query_exhaustive =
      IsNonRecursive(query.program) &&
      o.query_depth >= static_cast<int>(query.program.Idbs().size()) + 1;

  bool all_tests_built = true;
  size_t tests_before = 0;
  for (size_t ei = 0; ei < expansions.size(); ++ei) {
    const Expansion& qi = expansions[ei];
    std::vector<Fact> image_facts;
    {
      Tracer::Scope s(tr, "views.image");
      EvalOptions img_opts;
      img_opts.dataflow_prune = false;
      image_facts = in.views.Image(qi.inst, nullptr, img_opts).AllFacts();
    }
    std::sort(image_facts.begin(), image_facts.end());
    Instance image(vocab);
    image.EnsureElements(qi.inst.num_elements());
    for (const Fact& f : image_facts) image.AddFact(f);

    std::vector<const std::vector<Expansion>*> per_fact;
    bool has_empty = false;
    for (uint32_t fg = 0; fg < image.num_facts(); ++fg) {
      per_fact.push_back(&view_exps.at(image.ViewAt(fg).pred));
      has_empty = has_empty || per_fact.back()->empty();
    }
    const size_t cap = o.max_tests_per_expansion;
    size_t block = 1;
    if (has_empty) {
      all_tests_built = false;
      block = 0;
    } else {
      for (const auto* opts : per_fact) {
        if (block > cap / opts->size()) {
          all_tests_built = false;
          block = cap;
          break;
        }
        block *= opts->size();
      }
    }
    std::vector<const Expansion*> choice;
    auto decode = [&](size_t t) {
      choice.assign(per_fact.size(), nullptr);
      for (size_t fi = per_fact.size(); fi-- > 0;) {
        choice[fi] = &(*per_fact[fi])[t % per_fact[fi]->size()];
        t /= per_fact[fi]->size();
      }
    };
    auto build = [&]() {
      Tracer::Scope s(tr, "base.instance.dprime_build");
      return BuildDPrime(vocab, image, choice, qi.inst.num_elements());
    };

    std::optional<Stats> block_stats;
    for (size_t t = 0; t < std::min<size_t>(block, 4) && !block_stats; ++t) {
      decode(t);
      std::optional<Instance> dprime = build();
      if (dprime) {
        Tracer::Scope s(tr, "base.stats.collect");
        block_stats = Stats::Collect(*dprime);
      }
    }
    for (size_t t = 0; t < block; ++t) {
      decode(t);
      std::optional<Instance> dprime = build();
      if (!dprime) continue;
      {
        // The copy CompiledProgram::Eval makes of its input, timed apart.
        Tracer::Scope s(tr, "base.instance.copy");
        Instance copy(*dprime);
        if (copy.num_facts() != dprime->num_facts()) {
          throw std::runtime_error("instance copy lost facts");
        }
      }
      bool holds = false;
      {
        Tracer::Scope s(tr, "datalog.eval");
        EvalOptions eopts;
        eopts.num_threads = 1;
        if (block_stats) eopts.stats = &*block_stats;
        eopts.dataflow_prune = false;
        holds = compiled->Eval(*dprime, nullptr, eopts)
                    .HasFact(query.goal, qi.frontier);
      }
      if (!holds) {
        out.verdict = Verdict::kNotDetermined;
        out.tests_run = tests_before + t + 1;
        out.expansions = ei + 1;
        return out;
      }
    }
    tests_before += block;
  }
  out.expansions = expansions.size();
  out.tests_run = tests_before;
  out.verdict = query_exhaustive && views_exhaustive && enumeration_complete &&
                        all_tests_built
                    ? Verdict::kDetermined
                    : Verdict::kUnknownBounded;
  return out;
}

}  // namespace

void RunCheck(const Options& o, Tracer& tr, Result* r) {
  std::mt19937_64 rng(o.seed);
  CheckPool pool;
  while (r->MoreSetUps()) {
    rng.seed(o.seed);
    pool = CheckPool();  // the last set-up's teardown is not timed
    const Clock::time_point t0 = Clock::now();
    pool = BuildPool(o, rng);
    r->AddSetUp(MsSince(t0));
  }
  Cycle small(pool.small.size(), rng);
  Cycle deep(pool.deep.size(), rng);
  // Sixteen operations hold one shuffled round of the four deep checks.
  r->window = 4 * pool.deep.size();
  // The deep checks, which make op_ms.p90 and most of the time, search on
  // every pool thread.
  r->parallel = true;

  TraceSplit split;
  size_t traced_checks = 0, traced_tests = 0, traced_exps = 0;

  Loop loop(o, r);
  while (loop.More()) {
    const uint64_t i = loop.ops();
    CheckInput& in =
        i % 4 == 3 ? *pool.deep[deep.Next()] : *pool.small[small.Next()];
    // In the traced run, blocks of four operations alternate between
    // traced and untraced, so both halves see the same small/deep mix.
    const bool traced = o.trace && (i / 4) % 2 == 0;
    tr.set_active(traced);
    tr.set_op(i, in.label);
    MonDetResult result;
    double ms = 0;
    {
      Tracer::Scope s(tr, "core.check");
      const double c0 = o.trace ? CpuSeconds() : 0;
      ms = loop.Time([&] {
        result = CheckMonotonicDeterminacy(in.query, in.views, in.options);
      });
      if (o.trace) split.Add(traced, ms, CpuSeconds() - c0);
    }
    r->Work(static_cast<double>(result.tests_run), ms);

    if (traced) {
      MonDetOptions one = in.options;
      one.num_threads = 1;
      MonDetResult single;
      Replay replay;
      loop.Busy([&] {
        {
          Tracer::Scope s(tr, "core.check.1t");
          single = CheckMonotonicDeterminacy(in.query, in.views, one);
        }
        Tracer::Scope s(tr, "core.check.replay");
        replay = ReplayCheck(in, tr);
      });
      if (replay.verdict != result.verdict ||
          replay.tests_run != result.tests_run ||
          replay.expansions != result.expansions_tried ||
          single.verdict != result.verdict ||
          single.tests_run != result.tests_run) {
        r->Fail(in.label + ": replay disagrees with the check (tests " +
                std::to_string(replay.tests_run) + " vs " +
                std::to_string(result.tests_run) + ")");
        continue;
      }
      ++traced_checks;
      traced_tests += result.tests_run;
      traced_exps += result.expansions_tried;
    }
    std::optional<std::string> err;
    loop.Verify([&] { err = Verify(in, result); });
    if (err) r->Fail(*err);
  }
  tr.set_active(true);

  if (o.trace) {
    const double checks = std::max<double>(1, traced_checks);
    double replay_ms = 0;
    for (const char* phase :
         {"datalog.approximation.expand", "datalog.compile", "views.image",
          "base.instance.dprime_build", "base.stats.collect", "datalog.eval"}) {
      replay_ms += tr.TotalMs(phase);
    }
    const double single_ms = tr.TotalMs("core.check.1t");
    auto& L = r->layers;
    L["datalog.approximation.expand_ms"] =
        tr.TotalMs("datalog.approximation.expand") / checks;
    L["datalog.compile_ms"] = tr.TotalMs("datalog.compile") / checks;
    L["views.image_us"] = tr.MeanMs("views.image") * 1e3;
    L["base.instance.dprime_build_us"] =
        tr.MeanMs("base.instance.dprime_build") * 1e3;
    L["base.instance.copy_us"] = tr.MeanMs("base.instance.copy") * 1e3;
    L["base.stats.collect_us"] = tr.MeanMs("base.stats.collect") * 1e3;
    L["datalog.eval.us_per_test"] = tr.MeanMs("datalog.eval") * 1e3;
    L["core.check.tests_per_check"] = traced_tests / checks;
    L["core.check.expansions_per_check"] = traced_exps / checks;
    L["core.check.replay_share"] = single_ms > 0 ? replay_ms / single_ms : 0;
    split.Report(&L);
  }
}

}  // namespace perfbench
