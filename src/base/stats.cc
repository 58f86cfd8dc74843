#include "base/stats.h"

#include <algorithm>

#include "base/check.h"

namespace mondet {

Stats Stats::Collect(const Instance& inst) {
  Stats s;
  const size_t n = inst.vocab()->size();
  s.by_pred_.resize(n);
  for (PredId p = 0; p < n; ++p) s.CountPred(inst, p);
  return s;
}

void Stats::Refresh(const Instance& inst, const std::vector<PredId>& preds) {
  for (PredId p : preds) CountPred(inst, p);
}

void Stats::Apply(const Instance& inst, std::span<const Fact> added,
                  std::span<const Fact> removed) {
  // The contract check: this snapshot counted every fact of `inst` except
  // exactly the ones in `added`, plus exactly the ones in `removed`. A
  // delta from another instance, a partially-counted snapshot, a delta
  // containing already-counted facts, or a removal of a never-counted
  // fact all break the equation (Instance::AddFact / RemoveFact report
  // whether they changed the instance, which is what guarantees the
  // deltas hold genuinely applied mutations).
  MONDET_CHECK(counted_facts_ + added.size() ==
                   inst.num_facts() + removed.size() &&
               "Stats::Apply: delta does not extend the counted instance");
  for (const Fact& f : removed) {
    MONDET_CHECK(f.pred < by_pred_.size() &&
                 "Stats::Apply: removal of a never-counted predicate");
    PredicateStats& ps = by_pred_[f.pred];
    EnsureMaps(ps);
    MONDET_CHECK(ps.cardinality > 0 &&
                 "Stats::Apply: removal from an empty relation");
    MONDET_CHECK(f.args.size() <= ps.value_counts.size() &&
                 "Stats::Apply: removal wider than the counted relation");
    --ps.cardinality;
    --counted_facts_;
    for (size_t pos = 0; pos < f.args.size(); ++pos) {
      auto it = ps.value_counts[pos].find(f.args[pos]);
      MONDET_CHECK(it != ps.value_counts[pos].end() && it->second > 0 &&
                   "Stats::Apply: removal of a never-counted value");
      if (--it->second == 0) {
        ps.value_counts[pos].erase(it);
        --ps.distinct[pos];
      }
    }
  }
  for (const Fact& f : added) {
    if (f.pred >= by_pred_.size()) by_pred_.resize(f.pred + 1);
    PredicateStats& ps = by_pred_[f.pred];
    EnsureMaps(ps);
    if (ps.distinct.size() < f.args.size()) {
      ps.distinct.resize(f.args.size(), 0);
      ps.value_counts.resize(f.args.size());
    }
    ++ps.cardinality;
    ++counted_facts_;
    for (size_t pos = 0; pos < f.args.size(); ++pos) {
      if (++ps.value_counts[pos][f.args[pos]] == 1) ++ps.distinct[pos];
    }
  }
}

void Stats::CountPred(const Instance& inst, PredId p) {
  if (p >= by_pred_.size()) by_pred_.resize(p + 1);
  PredicateStats& ps = by_pred_[p];
  const uint32_t rows = inst.NumRows(p);
  const int arity = inst.vocab()->arity(p);
  counted_facts_ += rows - ps.cardinality;
  ps.cardinality = rows;
  ps.distinct.assign(arity, 0);
  ps.value_counts.assign(arity, {});
  ps.sorted_vals.assign(arity, {});
  ps.maps_built = rows == 0;
  if (rows == 0) return;
  // Sort each column and count runs for the distinct counts the planner
  // reads. The per-value multiplicity maps are NOT built here: the sorted
  // snapshot is kept instead, and EnsureMaps turns it into maps only if a
  // delta ever lands on this predicate (see PredicateStats::sorted_vals).
  const std::span<const ElemId> flat = inst.FlatArgs(p);
  for (int pos = 0; pos < arity; ++pos) {
    std::vector<ElemId>& vals = ps.sorted_vals[pos];
    vals.reserve(rows);
    for (uint32_t row = 0; row < rows; ++row) {
      vals.push_back(flat[static_cast<size_t>(row) * arity + pos]);
    }
    std::sort(vals.begin(), vals.end());
    size_t runs = 0;
    for (size_t i = 0; i < vals.size();) {
      size_t j = i + 1;
      while (j < vals.size() && vals[j] == vals[i]) ++j;
      ++runs;
      i = j;
    }
    ps.distinct[pos] = runs;
  }
}

void Stats::EnsureMaps(PredicateStats& ps) {
  if (ps.maps_built) return;
  for (size_t pos = 0; pos < ps.sorted_vals.size(); ++pos) {
    const std::vector<ElemId>& vals = ps.sorted_vals[pos];
    auto& counts = ps.value_counts[pos];
    counts.reserve(ps.distinct[pos]);
    for (size_t i = 0; i < vals.size();) {
      size_t j = i + 1;
      while (j < vals.size() && vals[j] == vals[i]) ++j;
      counts.emplace(vals[i], static_cast<uint32_t>(j - i));
      i = j;
    }
  }
  ps.sorted_vals.clear();
  ps.sorted_vals.shrink_to_fit();
  ps.maps_built = true;
}

double Stats::EstimateMatches(PredId p,
                              const std::vector<bool>& bound_pos) const {
  if (p >= by_pred_.size()) return 0.0;
  const PredicateStats& ps = by_pred_[p];
  if (ps.cardinality == 0) return 0.0;
  double est = static_cast<double>(ps.cardinality);
  const size_t n = std::min(bound_pos.size(), ps.distinct.size());
  for (size_t i = 0; i < n; ++i) {
    if (bound_pos[i]) {
      est /= static_cast<double>(std::max<size_t>(1, ps.distinct[i]));
    }
  }
  return est;
}

double Stats::EstimateMatches(PredId p, const std::vector<ElemId>& args,
                              const std::vector<bool>& bound_var) const {
  if (p >= by_pred_.size()) return 0.0;
  const PredicateStats& ps = by_pred_[p];
  if (ps.cardinality == 0) return 0.0;
  double est = static_cast<double>(ps.cardinality);
  const size_t n = std::min(args.size(), ps.distinct.size());
  for (size_t i = 0; i < n; ++i) {
    if (args[i] < bound_var.size() && bound_var[args[i]]) {
      est /= static_cast<double>(std::max<size_t>(1, ps.distinct[i]));
    }
  }
  return est;
}

}  // namespace mondet
