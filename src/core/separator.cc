#include "core/separator.h"

#include <functional>
#include <map>

#include "base/check.h"
#include "base/homomorphism.h"
#include "datalog/approximation.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"

namespace mondet {

namespace {

/// Applies an element-merging map to an instance (quotient).
Instance Quotient(const Instance& inst, const std::vector<ElemId>& to_class,
                  size_t num_classes) {
  Instance out(inst.vocab());
  out.EnsureElements(num_classes);
  for (uint32_t fg = 0; fg < inst.num_facts(); ++fg) {
    const FactView f = inst.ViewAt(fg);
    std::vector<ElemId> args;
    args.reserve(f.args.size());
    for (ElemId a : f.args) args.push_back(to_class[a]);
    out.AddFact(f.pred, args);
  }
  return out;
}

/// Enumerates set partitions of {0..n-1} as class-assignment vectors
/// (restricted growth strings); callback returns false to stop.
bool EnumeratePartitions(size_t n, size_t cap,
                         const std::function<bool(const std::vector<ElemId>&,
                                                  size_t)>& cb) {
  std::vector<ElemId> assign(n, 0);
  size_t count = 0;
  std::function<bool(size_t, size_t)> rec = [&](size_t i,
                                                size_t used) -> bool {
    if (i == n) {
      if (++count > cap) return false;
      return cb(assign, used);
    }
    for (ElemId c = 0; c <= used && c <= i; ++c) {
      assign[i] = c;
      if (!rec(i + 1, std::max<size_t>(used, c + 1))) return false;
    }
    return true;
  };
  if (n == 0) return cb(assign, 0);
  return rec(0, 0);
}

}  // namespace

bool NpSeparatorAccepts(const DatalogQuery& query, const ViewSet& views,
                        const Instance& j, int expansion_depth,
                        size_t max_expansions, size_t max_quotients) {
  bool accepted = false;
  EnumerateExpansions(
      query, expansion_depth, max_expansions, [&](const Expansion& e) {
        EnumeratePartitions(
            e.inst.num_elements(), max_quotients,
            [&](const std::vector<ElemId>& assign, size_t classes) {
              Instance x = Quotient(e.inst, assign, classes);
              Instance image = views.Image(x);
              // V(X) ⊆ J up to a homomorphism matching J's elements:
              // check the image maps into J as an instance.
              if (HasHomomorphism(image, j)) {
                accepted = true;
                return false;
              }
              return true;
            });
        return !accepted;
      });
  return accepted;
}

bool ChaseSeparatorAccepts(const DatalogQuery& query, const ViewSet& views,
                           const Instance& j, int view_depth,
                           size_t max_choices) {
  const VocabularyPtr& vocab = query.program.vocab();
  // The query program runs on every chase witness; compile it once.
  CompiledProgram compiled_query(query.program);
  // Pre-enumerate expansions of each view definition.
  std::map<PredId, std::vector<Expansion>> view_exps;
  for (const View& v : views.views()) {
    std::vector<Expansion> exps;
    EnumeratePredExpansions(v.definition.program, v.definition.goal,
                            view_depth, max_choices,
                            [&](const Expansion& e) {
                              exps.push_back(e);
                              return true;
                            });
    view_exps[v.pred] = std::move(exps);
  }
  size_t nfacts = j.num_facts();
  std::vector<const Expansion*> choice(nfacts, nullptr);
  size_t tried = 0;
  bool all_hold = true;
  std::function<bool(size_t)> descend = [&](size_t fi) -> bool {
    if (tried >= max_choices) return false;
    if (fi == nfacts) {
      ++tried;
      Instance dprime(vocab);
      dprime.EnsureElements(j.num_elements());
      for (uint32_t i = 0; i < nfacts; ++i) {
        const FactView fact = j.ViewAt(i);
        const Expansion& exp = *choice[i];
        std::vector<ElemId> map(exp.inst.num_elements(), kNoElem);
        bool ok = true;
        for (size_t p = 0; p < exp.frontier.size(); ++p) {
          ElemId from = exp.frontier[p];
          if (map[from] != kNoElem && map[from] != fact.args[p]) ok = false;
          map[from] = fact.args[p];
        }
        if (!ok) return true;  // unbuildable choice; skip
        for (ElemId e = 0; e < exp.inst.num_elements(); ++e) {
          if (map[e] == kNoElem) map[e] = dprime.AddElement();
        }
        for (uint32_t fg = 0; fg < exp.inst.num_facts(); ++fg) {
          const FactView f = exp.inst.ViewAt(fg);
          std::vector<ElemId> args;
          for (ElemId a : f.args) args.push_back(map[a]);
          dprime.AddFact(f.pred, args);
        }
      }
      if (compiled_query.Eval(dprime).NumRows(query.goal) == 0) {
        all_hold = false;
        return false;
      }
      return true;
    }
    const auto& options = view_exps.at(j.ViewAt(static_cast<uint32_t>(fi)).pred);
    if (options.empty()) return true;  // no inverse within bound: skip fact
    for (const Expansion& e : options) {
      choice[fi] = &e;
      if (!descend(fi + 1)) return false;
    }
    return true;
  };
  descend(0);
  return all_hold;
}

}  // namespace mondet
