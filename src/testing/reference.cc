#include "testing/reference.h"

#include <algorithm>
#include <map>

#include "datalog/approximation.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"

namespace mondet {
namespace testing {

namespace {

/// D' for one full choice of view expansions, one image fact at a time:
/// Qi's elements keep their ids, each expansion's frontier is renamed to
/// its fact's arguments and its other elements become fresh, in element
/// order. nullopt when a repeated frontier element meets two different
/// arguments.
std::optional<Instance> AssembleDPrime(
    const VocabularyPtr& vocab, const std::vector<Fact>& image,
    const std::vector<const Expansion*>& pick, size_t base_elems) {
  Instance dprime(vocab);
  dprime.EnsureElements(base_elems);
  for (size_t fi = 0; fi < image.size(); ++fi) {
    const Expansion& exp = *pick[fi];
    std::map<ElemId, ElemId> rename;
    for (size_t i = 0; i < exp.frontier.size(); ++i) {
      auto [it, inserted] =
          rename.emplace(exp.frontier[i], image[fi].args[i]);
      if (!inserted && it->second != image[fi].args[i]) return std::nullopt;
    }
    for (ElemId e = 0; e < exp.inst.num_elements(); ++e) {
      if (rename.count(e) == 0) rename[e] = dprime.AddElement();
    }
    for (const Fact& f : exp.inst.AllFacts()) {
      std::vector<ElemId> args;
      for (ElemId a : f.args) args.push_back(rename.at(a));
      dprime.AddFact(f.pred, args);
    }
  }
  return dprime;
}

}  // namespace

MonDetResult FlatMonDetReference(const DatalogQuery& query,
                                 const ViewSet& views,
                                 const MonDetOptions& options) {
  MonDetResult result;
  const VocabularyPtr& vocab = query.program.vocab();
  if (vocab.get() != views.vocab().get() || !query.program.IsIdb(query.goal)) {
    result.verdict = Verdict::kInvalidInput;
    return result;
  }

  std::map<PredId, std::vector<Expansion>> view_exps;
  bool views_exhaustive = true;
  for (const View& v : views.views()) {
    std::vector<Expansion>& exps = view_exps[v.pred];
    const bool exhaustive = EnumeratePredExpansions(
        v.definition.program, v.definition.goal, options.view_depth,
        options.max_tests_per_expansion, [&](const Expansion& e) {
          exps.push_back(e);
          return true;
        });
    views_exhaustive = views_exhaustive && exhaustive &&
                       IsNonRecursive(v.definition.program);
  }
  std::vector<Expansion> expansions;
  const bool enumeration_complete = EnumerateExpansions(
      query, options.query_depth, options.max_query_expansions,
      [&](const Expansion& qi) {
        expansions.push_back(qi);
        return true;
      });
  const bool query_exhaustive =
      IsNonRecursive(query.program) &&
      options.query_depth >=
          static_cast<int>(query.program.Idbs().size()) + 1;

  CompiledProgram compiled(query.program);
  bool all_tests_built = true;
  for (size_t ei = 0; ei < expansions.size(); ++ei) {
    const Expansion& qi = expansions[ei];
    std::vector<Fact> image = views.Image(qi.inst).AllFacts();
    std::sort(image.begin(), image.end());
    std::vector<const std::vector<Expansion>*> choices;
    for (const Fact& f : image) choices.push_back(&view_exps.at(f.pred));

    // min(Π choices, cap) tests; a cut product or a fact without any
    // expansion leaves tests unbuilt.
    const size_t cap = options.max_tests_per_expansion;
    size_t block = 1;
    if (std::any_of(choices.begin(), choices.end(),
                    [](const auto* c) { return c->empty(); })) {
      block = 0;
      all_tests_built = false;
    } else {
      for (const auto* c : choices) {
        if (block > cap / c->size()) {
          block = cap;
          all_tests_built = false;
          break;
        }
        block *= c->size();
      }
    }

    std::vector<const Expansion*> pick(choices.size());
    for (size_t t = 0; t < block; ++t) {
      // Test t in mixed radix, fact 0 most significant.
      size_t rest = t;
      for (size_t fi = choices.size(); fi-- > 0;) {
        pick[fi] = &(*choices[fi])[rest % choices[fi]->size()];
        rest /= choices[fi]->size();
      }
      std::optional<Instance> dprime =
          AssembleDPrime(vocab, image, pick, qi.inst.num_elements());
      if (!dprime) continue;
      ++result.evaluations;
      if (!compiled.Eval(*dprime).HasFact(query.goal, qi.frontier)) {
        result.verdict = Verdict::kNotDetermined;
        result.tests_run += t + 1;
        result.expansions_tried = ei + 1;
        result.failure.emplace(qi, std::move(*dprime));
        return result;
      }
    }
    result.tests_run += block;
  }
  result.expansions_tried = expansions.size();
  result.verdict = query_exhaustive && views_exhaustive &&
                           enumeration_complete && all_tests_built
                       ? Verdict::kDetermined
                       : Verdict::kUnknownBounded;
  return result;
}

}  // namespace testing
}  // namespace mondet
