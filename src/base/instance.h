#ifndef MONDET_BASE_INSTANCE_H_
#define MONDET_BASE_INSTANCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/ids.h"
#include "base/symbol_table.h"

namespace mondet {

/// A single ground fact R(c1..cn), as an owning value. The store keeps
/// facts columnar (see Instance); Fact is the exchange currency of deltas,
/// change logs and tests.
struct Fact {
  PredId pred = kNoPred;
  std::vector<ElemId> args;

  Fact() = default;
  Fact(PredId p, std::vector<ElemId> a) : pred(p), args(std::move(a)) {}

  bool operator==(const Fact& o) const {
    return pred == o.pred && args == o.args;
  }
  /// Lexicographic (pred, args) order: the canonical fact order used by
  /// the maintenance engine to apply delta batches deterministically and
  /// by tests comparing maintained against recomputed instances.
  bool operator<(const Fact& o) const {
    if (pred != o.pred) return pred < o.pred;
    return args < o.args;
  }
};

/// SplitMix64 finalizer: three xor-shift-multiply rounds, full avalanche.
/// Every input bit flips each output bit with probability ~1/2, so dense
/// consecutive ElemIds spread over the whole 64-bit range instead of
/// clustering in neighboring hash-table buckets (the failure mode of the
/// previous multiplicative mix, pinned by the collision regression test).
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The fact hash shared by FactHash and the Instance-internal fact table:
/// a SplitMix64 round per argument, seeded from the predicate.
inline uint64_t HashFactKey(PredId pred, std::span<const ElemId> args) {
  uint64_t h = SplitMix64(0x243f6a8885a308d3ull ^ pred);
  for (ElemId a : args) h = SplitMix64(h ^ a);
  return h;
}

/// A borrowed, allocation-free view of one stored fact: the predicate and
/// a span into the instance's argument arena. Valid until the instance is
/// mutated. Hashes and compares like the Fact with the same content
/// (FactHash / FactEq are transparent over both).
struct FactView {
  PredId pred = kNoPred;
  std::span<const ElemId> args;

  Fact ToFact() const {
    return Fact(pred, std::vector<ElemId>(args.begin(), args.end()));
  }
  friend bool operator==(const FactView& a, const FactView& b) {
    return a.pred == b.pred &&
           std::equal(a.args.begin(), a.args.end(), b.args.begin(),
                      b.args.end());
  }
};

struct FactHash {
  using is_transparent = void;
  size_t operator()(const Fact& f) const {
    return static_cast<size_t>(HashFactKey(f.pred, f.args));
  }
  size_t operator()(const FactView& f) const {
    return static_cast<size_t>(HashFactKey(f.pred, f.args));
  }
};

/// Transparent Fact/FactView equality, for heterogeneous lookups in
/// unordered containers keyed by Fact (probe with a FactView, no copy).
struct FactEq {
  using is_transparent = void;
  static bool Same(PredId ap, std::span<const ElemId> aa, PredId bp,
                   std::span<const ElemId> ba) {
    return ap == bp && std::equal(aa.begin(), aa.end(), ba.begin(), ba.end());
  }
  bool operator()(const Fact& a, const Fact& b) const {
    return Same(a.pred, a.args, b.pred, b.args);
  }
  bool operator()(const Fact& a, const FactView& b) const {
    return Same(a.pred, a.args, b.pred, b.args);
  }
  bool operator()(const FactView& a, const Fact& b) const {
    return Same(a.pred, a.args, b.pred, b.args);
  }
  bool operator()(const FactView& a, const FactView& b) const {
    return Same(a.pred, a.args, b.pred, b.args);
  }
};

/// A database instance: a finite set of facts over a shared Vocabulary.
///
/// Elements are dense ids 0..num_elements()-1 local to this instance.
/// The active domain (Sec. 2 of the paper) is the set of elements occurring
/// in some fact; elements can also exist unused (e.g. reserved names).
///
/// Storage is columnar, struct-of-arrays at the relation level: each
/// predicate owns one flat ElemId arena in which row r occupies
/// [r*arity, (r+1)*arity), plus parallel per-row vectors (derivation
/// counts, global ids). Facts are addressed two ways:
///   - by *global id* 0..num_facts()-1 in insertion order (ViewAt/FactAt),
///     the order the determinism contracts are phrased in;
///   - by *(pred, row)* with row 0..NumRows(pred)-1 (Args/RowsWith), the
///     dense coordinates the join kernels and positional indexes use.
/// RemoveFact swap-and-pops in both spaces, so neither ids nor rows are
/// stable across removals; every index is repaired in O(arity).
class Instance {
 public:
  explicit Instance(VocabularyPtr vocab) : vocab_(std::move(vocab)) {}

  /// Copying skips the lazily-built positional indexes: they are caches,
  /// a copy rarely probes the same (pred,pos) pairs before mutating, and
  /// re-materializing one is a single counting pass — cheaper than
  /// deep-copying its per-value bucket vectors.
  Instance(const Instance& o);
  Instance& operator=(const Instance& o);
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  const VocabularyPtr& vocab() const { return vocab_; }

  /// Creates a fresh element, optionally with a debug name.
  ElemId AddElement(std::string name = "");

  /// Ensures at least n elements exist; returns nothing.
  void EnsureElements(size_t n);

  size_t num_elements() const { return num_elements_; }
  /// The element's debug name; elements created without one render as
  /// "e<id>", synthesized here on demand (storing 4M default names was a
  /// measurable construction cost in the checker's instance-churn loops).
  std::string element_name(ElemId e) const {
    return names_[e].empty() ? "e" + std::to_string(e) : names_[e];
  }
  void set_element_name(ElemId e, std::string name) {
    names_[e] = std::move(name);
  }

  /// Adds a fact if not already present. Returns true if newly added.
  /// All argument elements must already exist.
  bool AddFact(PredId pred, std::span<const ElemId> args);
  bool AddFact(PredId pred, const std::vector<ElemId>& args) {
    return AddFact(pred, std::span<const ElemId>(args));
  }
  bool AddFact(const Fact& f) { return AddFact(f.pred, f.args); }

  /// Removes a fact if present. Returns true if it was removed. Removal
  /// swap-and-pops in both id spaces — the last row of the predicate moves
  /// into the freed row, the last global id into the freed id — so ids,
  /// rows and iteration order are not stable across RemoveFact; every
  /// internal index (positional buckets, degrees, the fact table) is
  /// repaired in place in O(arity).
  bool RemoveFact(PredId pred, std::span<const ElemId> args);
  bool RemoveFact(PredId pred, const std::vector<ElemId>& args) {
    return RemoveFact(pred, std::span<const ElemId>(args));
  }
  bool RemoveFact(const Fact& f) { return RemoveFact(f.pred, f.args); }

  bool HasFact(PredId pred, std::span<const ElemId> args) const;
  bool HasFact(PredId pred, const std::vector<ElemId>& args) const {
    return HasFact(pred, std::span<const ElemId>(args));
  }
  bool HasFact(const Fact& f) const { return HasFact(f.pred, f.args); }

  /// Per-fact derivation count, used by the maintenance engine: the
  /// number of distinct derivations (plus one for base membership) that
  /// support the fact. Facts start at 1; the count is bookkeeping only
  /// and has no effect on set semantics. Zero for absent facts.
  uint64_t FactCount(const Fact& f) const;
  void SetFactCount(const Fact& f, uint64_t count);

  size_t num_facts() const { return order_.size(); }

  /// The (pred, row) coordinates of global fact id `g`.
  std::pair<PredId, uint32_t> Locate(uint32_t g) const {
    const uint64_t v = order_[g];
    return {static_cast<PredId>(v >> 32), static_cast<uint32_t>(v)};
  }

  /// Borrowed view of the fact with global id `g` (insertion order).
  FactView ViewAt(uint32_t g) const {
    const auto [p, row] = Locate(g);
    return {p, Args(p, row)};
  }

  /// Owning copy of the fact with global id `g`.
  Fact FactAt(uint32_t g) const { return ViewAt(g).ToFact(); }

  /// All facts in insertion order, materialized (cold paths and tests;
  /// hot paths iterate ViewAt or per-predicate rows instead).
  std::vector<Fact> AllFacts() const;

  /// Rows currently stored for `pred` (0 for a predicate with no facts).
  uint32_t NumRows(PredId pred) const {
    return pred < preds_.size()
               ? static_cast<uint32_t>(preds_[pred].counts.size())
               : 0;
  }

  /// The arguments of row `row` of `pred` (unchecked hot-path accessor;
  /// row must be < NumRows(pred)).
  std::span<const ElemId> Args(PredId pred, uint32_t row) const {
    const PredStore& st = preds_[pred];
    return {st.data.data() + static_cast<size_t>(row) * st.arity, st.arity};
  }

  /// The whole row-major argument arena of `pred`: row r occupies
  /// [r*arity, (r+1)*arity). Empty for a predicate with no facts.
  std::span<const ElemId> FlatArgs(PredId pred) const {
    if (pred >= preds_.size()) return {};
    return {preds_[pred].data.data(), preds_[pred].data.size()};
  }

  /// Global id of row `row` of `pred`.
  uint32_t GlobalOf(PredId pred, uint32_t row) const {
    return preds_[pred].global_of[row];
  }

  /// Derivation count by (pred, row) coordinates.
  uint64_t CountAt(PredId pred, uint32_t row) const {
    return preds_[pred].counts[row];
  }
  void SetCountAt(PredId pred, uint32_t row, uint64_t count);

  /// Rows of `pred` whose argument at `pos` equals `val`, in row (=
  /// insertion) order. Backed by a dense per-(pred,pos) bucket index,
  /// bulk-built by a counting pass on first use and maintained
  /// incrementally by AddFact/RemoveFact afterwards (appends, and O(1)
  /// swap-and-pop removals via the row->bucket-slot map).
  std::span<const uint32_t> RowsWith(PredId pred, int pos, ElemId val) const {
    if (pred >= index_.size() ||
        static_cast<size_t>(pos) >= index_[pred].size() ||
        !index_[pred][pos].built) {
      return BuildAndProbe(pred, pos, val);
    }
    const PosIndex& ix = index_[pred][pos];
    if (val >= ix.buckets.size()) return {};
    const std::vector<uint32_t>& b = ix.buckets[val];
    return {b.data(), b.size()};
  }

  /// The active domain: elements occurring in some fact.
  std::vector<ElemId> ActiveDomain() const;

  /// True if the element occurs in some fact.
  bool InActiveDomain(ElemId e) const;

  /// Number of facts that mention element `e`.
  size_t Degree(ElemId e) const;

  /// Copies all facts of `other` into this instance, mapping element `e` of
  /// `other` to a fresh element here. Returns the element translation.
  /// Both instances must share the same Vocabulary object.
  std::vector<ElemId> DisjointUnionWith(const Instance& other);

  /// Returns the subinstance containing only facts over the given predicate
  /// set (the restriction F|Σ' of the paper). Elements are preserved.
  Instance RestrictTo(const std::unordered_set<PredId>& preds) const;

  /// Human-readable rendering (for logs / examples).
  std::string DebugString() const;

 private:
  /// Columnar storage of one relation.
  struct PredStore {
    uint32_t arity = 0;              // cached vocab arity
    std::vector<ElemId> data;        // row-major argument arena
    std::vector<uint64_t> counts;    // row -> derivation count
    std::vector<uint32_t> global_of;  // row -> global fact id
  };
  /// Dense (val -> rows) index of one (pred, pos) pair. `slots[row]` is
  /// row's position inside its bucket, which makes removal swap-and-pop.
  struct PosIndex {
    bool built = false;
    std::vector<std::vector<uint32_t>> buckets;  // val -> rows, add order
    std::vector<uint32_t> slots;                 // row -> index in bucket
  };
  /// One slot of the open-addressing fact table (linear probing,
  /// power-of-two capacity). `gid` doubles as the empty/tombstone marker.
  struct TableSlot {
    uint64_t hash = 0;
    uint32_t gid = kEmptySlot;
  };
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr uint32_t kTombSlot = 0xFFFFFFFEu;
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Grows preds_/index_ to cover `pred` and caches its arity.
  PredStore& EnsurePred(PredId pred);

  /// Slot holding (pred, args), or kNoSlot. Table must be non-empty.
  size_t FindSlot(PredId pred, std::span<const ElemId> args,
                  uint64_t hash) const;
  /// Re-points the table entry of an existing fact at a new global id.
  void RepointTableGid(PredId pred, std::span<const ElemId> args,
                       uint32_t gid);
  void RehashTable(size_t min_live);

  /// Counting-pass bulk build of one (pred,pos) index, then probe.
  std::span<const uint32_t> BuildAndProbe(PredId pred, int pos,
                                          ElemId val) const;
  void BuildPosIndex(PredId pred, int pos) const;

  VocabularyPtr vocab_;
  size_t num_elements_ = 0;
  std::vector<std::string> names_;
  std::vector<PredStore> preds_;
  // Positional indexes, built lazily per (pred,pos) pair; mutable so the
  // const probe path can materialize them. An Instance is therefore not
  // safe to read from two threads at once.
  mutable std::vector<std::vector<PosIndex>> index_;
  // Global id -> packed (pred << 32 | row); insertion order.
  std::vector<uint64_t> order_;
  // Open-addressing fact table: membership, counts lookup, and the hook
  // RemoveFact needs to find and repair the swapped-in fact.
  std::vector<TableSlot> table_;
  size_t table_live_ = 0;  // live entries
  size_t table_used_ = 0;  // live + tombstones
  std::vector<uint32_t> degree_;
};

/// Renders a fact like "R(a,b)" using instance element names (or e<i>).
std::string FactToString(const Instance& inst, const Fact& f);
std::string FactToString(const Instance& inst, const FactView& f);

}  // namespace mondet

#endif  // MONDET_BASE_INSTANCE_H_
