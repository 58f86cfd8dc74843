#ifndef MONDET_DATALOG_KERNEL_H_
#define MONDET_DATALOG_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/instance.h"
#include "cq/cq.h"

namespace mondet {

/// Compiled join kernels, the evaluator's one join engine: each planned
/// (rule, delta-seat, join-order) triple lowers into a flat loop nest over
/// the columnar fact store (Instance rows). CompiledProgram lowers each
/// triple once, on first use, and keeps it for the program's lifetime.
///
/// A kernel is shape-specialized at build time: per body atom it records
/// which positions are already bound when the atom runs (index probes +
/// equality checks) and which positions write a variable into the fixed
/// binding frame. At run time the only decisions left are picking the
/// smallest candidate bucket among the probe positions and comparing
/// ElemIds — no per-tuple allocation, no kNoElem sentinel tests, no
/// std::function indirection. Any rule the parser accepts lowers: atom
/// arities and variable counts have no fixed bound.
///
/// Determinism: a kernel enumerates candidate rows in row-insertion order
/// — bucket order equals insertion order on the insert-only Eval path,
/// and the anchor choice only narrows the candidate *set scan*, never
/// reorders the surviving matches — so a fixed plan derives one fixed
/// fact sequence.

/// One position of a tuple. On a candidate row: compare the row's
/// argument at `pos` against frame slot `slot` (check) or write it there
/// (!check). On a head or membership tuple: copy frame slot `slot` to
/// tuple position `pos`.
struct KernelOp {
  uint32_t pos = 0;
  uint32_t slot = 0;
  bool check = false;
};

/// One body atom of a kernel, in join order. Its ops are
/// JoinKernel::ops[first, end): first the checks of the positions bound
/// before the step, which double as the index-probe anchors
/// ([first, probe_end)), then the remaining positions in position order,
/// so a variable repeated within the atom writes first and checks its
/// later occurrences.
struct KernelStep {
  /// Shape tag, decided at build time from the bound/unbound positions:
  /// the hot 1- and 2-probe shapes skip the runtime anchor scan entirely
  /// (and kProbe1 also the anchor's redundant equality check); kMembership
  /// is a single hash-table probe; kScan is the no-bound-position
  /// fallback over all rows.
  enum Kind : uint8_t { kMembership, kProbe1, kProbe2, kProbeN, kScan };

  PredId pred = kNoPred;
  uint32_t arity = 0;
  uint32_t first = 0;
  uint32_t probe_end = 0;
  uint32_t end = 0;
  Kind kind = kScan;
};

/// A full compiled kernel: the delta-seat loader, the join steps, and the
/// head emitter, their ops in one flat array. Frames are `num_slots`
/// ElemIds (the rule's variables); safety guarantees every head slot is
/// written before the head is emitted. RunKernel assembles head and
/// membership tuples in a scratch area of `scratch_size` ElemIds past the
/// frame.
struct JoinKernel {
  PredId head_pred = kNoPred;
  uint32_t head_arity = 0;     // ops[0, head_arity): the head tuple
  PredId seat_pred = kNoPred;  // kNoPred for the full-join kernel
  uint32_t seat_arity = 0;     // next seat_arity ops: the seat loader
  uint32_t num_slots = 0;
  uint32_t scratch_size = 0;  // widest head or membership tuple
  std::vector<KernelStep> steps;
  std::vector<KernelOp> ops;
};

/// Flat derived-head buffer: `count` heads of one rule, their arguments
/// concatenated in `args` (head i spans [i*arity, (i+1)*arity)). The
/// explicit count keeps nullary heads representable.
struct DerivedBuffer {
  std::vector<ElemId> args;
  size_t count = 0;

  void clear() {
    args.clear();
    count = 0;
  }
};

/// Lowers one planned (rule, seat, order) into a kernel. `seat` is the
/// body index whose variables the delta fact pre-binds (-1 = full join);
/// `order` lists the remaining body atoms in join order.
JoinKernel BuildKernel(const QAtom& head, const std::vector<QAtom>& body,
                       size_t num_vars, int seat,
                       const std::vector<uint32_t>& order);

/// Runs kernel `k` over `target`, appending each derived head (not
/// already in `target`) to `out` — a flat buffer, no per-fact allocation:
/// once for the full-join kernel (which ignores the row range), otherwise
/// once per row in [first, end) of `k.seat_pred` in `target`. `*probes`
/// grows by the candidate rows scanned (bucket sizes; 1 per membership
/// test).
void RunKernel(const JoinKernel& k, const Instance& target, uint32_t first,
               uint32_t end, size_t* probes, DerivedBuffer* out);

}  // namespace mondet

#endif  // MONDET_DATALOG_KERNEL_H_
