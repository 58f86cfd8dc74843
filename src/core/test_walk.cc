#include "core/test_walk.h"

#include <algorithm>

#include "base/check.h"
#include "datalog/fragment.h"

namespace mondet {

std::pair<std::map<PredId, std::vector<Expansion>>, bool> ViewExpansions(
    const ViewSet& views, int depth, size_t cap) {
  std::pair<std::map<PredId, std::vector<Expansion>>, bool> out{{}, true};
  for (const View& v : views.views()) {
    const Program& def = v.definition.program;
    std::vector<Expansion>& exps = out.first[v.pred];
    const bool uncapped = EnumeratePredExpansions(
        def, v.definition.goal, depth, cap, [&](const Expansion& e) {
          exps.push_back(e);
          return true;
        });
    if (!uncapped || !IsNonRecursive(def) ||
        depth < static_cast<int>(def.Idbs().size())) {
      out.second = false;
    }
  }
  return out;
}

namespace {

/// Appends the replacement of view fact `fact` by expansion `exp` to
/// `dprime`: the expansion's frontier unified with the fact's arguments,
/// its other elements fresh, allocated in element order, then its facts.
/// Returns false, having added nothing, when the frontier cannot be
/// unified (it repeats an element where the fact's arguments differ).
/// `map` is scratch.
bool AppendExpansion(Instance& dprime, const Fact& fact, const Expansion& exp,
                     std::vector<ElemId>& map) {
  map.assign(exp.inst.num_elements(), kNoElem);
  for (size_t i = 0; i < exp.frontier.size(); ++i) {
    const ElemId from = exp.frontier[i];
    if (map[from] != kNoElem && map[from] != fact.args[i]) return false;
    map[from] = fact.args[i];
  }
  for (ElemId e = 0; e < exp.inst.num_elements(); ++e) {
    if (map[e] == kNoElem) map[e] = dprime.AddElement();
  }
  // Each fact's mapped arguments go in the scratch past the map.
  const size_t n = map.size();
  for (uint32_t fg = 0; fg < exp.inst.num_facts(); ++fg) {
    const FactView f = exp.inst.ViewAt(fg);
    map.resize(n + f.args.size());
    for (size_t i = 0; i < f.args.size(); ++i) map[n + i] = map[f.args[i]];
    dprime.AddFact(f.pred,
                   std::span<const ElemId>(map.data() + n, f.args.size()));
  }
  return true;
}

/// Builds the D' of the first `nfacts` view facts for one choice of
/// per-fact view expansions: the `base_elems` elements the facts range
/// over, then each fact's replacement (AppendExpansion) in fact order, so
/// the D' of a prefix is a sub-instance of every D' that extends it, with
/// the same element ids. Returns nullopt when some expansion's frontier
/// cannot be unified with its fact's arguments.
std::optional<Instance> BuildDPrime(const VocabularyPtr& vocab,
                                    const std::vector<Fact>& facts,
                                    const std::vector<const Expansion*>& choice,
                                    size_t nfacts, size_t base_elems) {
  Instance dprime(vocab);
  dprime.EnsureElements(base_elems);
  std::vector<ElemId> map;
  for (size_t fi = 0; fi < nfacts; ++fi) {
    if (!AppendExpansion(dprime, facts[fi], *choice[fi], map)) {
      return std::nullopt;
    }
  }
  return dprime;
}

}  // namespace

size_t TestBlockSize(const std::vector<const std::vector<Expansion>*>& options,
                     size_t cap, bool* all_built) {
  size_t block = 1;
  bool complete = true;
  if (std::any_of(options.begin(), options.end(),
                  [](const auto* opts) { return opts->empty(); })) {
    // A fact without an expansion within the depth bound: no D' can be
    // built through it.
    block = 0;
    complete = false;
  } else {
    for (const auto* opts : options) {
      const size_t c = opts->size();
      if (block > cap / c) {
        block = cap;
        complete = false;
        break;
      }
      block *= c;
    }
    if (block > cap) {  // the empty product's one test, at cap 0
      block = cap;
      complete = false;
    }
  }
  if (!complete && all_built != nullptr) *all_built = false;
  return block;
}

TestBlockWalk::TestBlockWalk(const std::vector<Fact>& facts,
                             size_t base_elems,
                             std::span<const ElemId> frontier, PredId goal,
                             const CompiledProgram& compiled,
                             std::vector<const std::vector<Expansion>*> options,
                             size_t size)
    : facts_(facts),
      base_elems_(base_elems),
      frontier_(frontier),
      goal_(goal),
      compiled_(compiled),
      options_(std::move(options)),
      size_(size),
      span_(options_.size() + 1, 1),
      choice_(options_.size(), nullptr),
      work_(compiled.program().vocab()) {
  work_.EnsureElements(base_elems);
  // span_[k]: leaves under a depth-k node, saturated at `size` (a child
  // starting that far from its node's first leaf is out of range).
  for (size_t k = options_.size(); k-- > 0;) {
    const size_t r = options_[k]->size();
    span_[k] = span_[k + 1] > size_ / r ? size_ : span_[k + 1] * r;
  }
}

size_t TestBlockWalk::Visit(size_t depth, size_t first,
                            uint32_t fixpoint_end) {
  if (depth == options_.size()) {
    if (Holds(fixpoint_end)) return kNoTest;
    // Built apart, once: the working instance also holds derived facts.
    failure_ = BuildDPrime(work_.vocab(), facts_, choice_, depth, base_elems_);
    return first;
  }
  const std::vector<Expansion>& opts = *options_[depth];
  const size_t child_span = span_[depth + 1];
  const size_t children =
      std::min(opts.size(), 1 + (size_ - first - 1) / child_span);
  if (children >= 2) {
    // MONDET_FAULT=skip-prefix-eval prunes without evaluating: unsound,
    // for the fuzz harness' self-test.
    if (FaultInjected("skip-prefix-eval") || Holds(fixpoint_end)) {
      return kNoTest;
    }
    fixpoint_end = static_cast<uint32_t>(work_.num_facts());
  }
  for (size_t j = 0; j < children; ++j) {
    choice_[depth] = &opts[j];
    const Instance::Checkpoint mark = work_.Mark();
    // A child whose frontier does not unify has no buildable D' below: its
    // tests are counted and never fail.
    const size_t t =
        AppendExpansion(work_, facts_[depth], opts[j], map_)
            ? Visit(depth + 1, first + j * child_span, fixpoint_end)
            : kNoTest;
    work_.Rollback(mark);
    if (t != kNoTest) return t;
  }
  return kNoTest;
}

}  // namespace mondet
