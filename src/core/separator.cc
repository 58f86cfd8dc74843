#include "core/separator.h"

#include <functional>
#include <map>

#include "base/homomorphism.h"
#include "core/test_walk.h"
#include "datalog/approximation.h"

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
  const std::map<PredId, std::vector<Expansion>> view_exps =
      ViewExpansions(views, view_depth, max_choices).first;
  // One block of canonical tests over J's facts in insertion order.
  const std::vector<Fact> facts = j.AllFacts();
  std::vector<const std::vector<Expansion>*> options;
  options.reserve(facts.size());
  for (const Fact& f : facts) options.push_back(&view_exps.at(f.pred));
  const size_t block = TestBlockSize(options, max_choices);
  if (block == 0) return true;  // no chase witness to refute Q on
  const CompiledProgram compiled_query(query.program);
  TestBlockWalk walk(facts, j.num_elements(), /*frontier=*/{}, query.goal,
                     compiled_query, std::move(options), block);
  return walk.Run() == kNoTest;
}

}  // namespace mondet
