#ifndef MONDET_DATALOG_KERNEL_H_
#define MONDET_DATALOG_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/instance.h"
#include "cq/cq.h"

namespace mondet {

/// Compiled join kernels: each planned (rule, delta-seat, join-order)
/// triple lowers into a flat loop nest over the columnar fact store
/// (Instance rows), replacing the generic backtracking interpreter of
/// CompiledProgram::Join on the evaluator's hot path.
///
/// A kernel is shape-specialized at build time: per body atom it records
/// which positions are already bound when the atom runs (index probes +
/// equality checks) and which positions write a variable into the fixed
/// binding frame. At run time the only decisions left are picking the
/// smallest candidate bucket among the probe positions and comparing
/// ElemIds — no per-tuple allocation, no kNoElem sentinel tests, no
/// std::function indirection.
///
/// Determinism: a kernel enumerates exactly the candidate rows the generic
/// interpreter enumerates, in the same (row-insertion) order — bucket
/// order equals insertion order on the insert-only Eval path, and the
/// anchor choice only narrows the candidate *set scan*, never reorders the
/// surviving matches. Kernels on vs. off is therefore byte-identical in
/// derived-fact order (pinned by the kernel-differential oracle).

/// One position of a step's candidate row: either compare the row's
/// argument at `pos` against frame slot `slot` (check == 1) or write it
/// there (check == 0). Ops are evaluated in position order, so a repeated
/// variable within one atom writes first and checks later occurrences.
struct KernelOp {
  uint8_t pos = 0;
  uint8_t check = 0;
  uint16_t slot = 0;
};

/// A pre-bound position usable as the index-probe anchor.
struct KernelProbe {
  uint8_t pos = 0;
  uint16_t slot = 0;
};

/// One body atom of a kernel, in join order.
struct KernelStep {
  /// Shape tag, decided at build time from the bound/unbound positions:
  /// the hot 1- and 2-probe shapes skip the runtime anchor scan entirely
  /// (and kProbe1 also the anchor's redundant equality check); kMembership
  /// is a single hash-table probe; kScan is the no-bound-position
  /// fallback over all rows.
  enum Kind : uint8_t { kMembership, kProbe1, kProbe2, kProbeN, kScan };

  PredId pred = kNoPred;
  uint8_t arity = 0;
  Kind kind = kScan;
  std::vector<KernelProbe> probes;  // pre-bound positions (anchor choices)
  std::vector<KernelOp> ops;        // checks + writes, position order
};

/// A full compiled kernel: the delta-seat loader, the join steps, and the
/// head emitter. Frames are `num_slots` ElemIds (the rule's variables);
/// safety guarantees every head slot is written before Emit runs.
struct JoinKernel {
  PredId head_pred = kNoPred;
  std::vector<uint16_t> head_slots;  // frame slot per head position
  uint16_t num_slots = 0;
  PredId seat_pred = kNoPred;  // kNoPred for the full-join kernel
  uint8_t seat_arity = 0;
  std::vector<KernelOp> seat_ops;  // checks = repeated seat variables
  std::vector<KernelStep> steps;
};

/// Per-run counters, matching the generic interpreter's semantics:
/// `probes` counts candidate rows scanned (bucket sizes; 1 per membership
/// test), `step_rows[d]` counts rows surviving step d's checks.
struct KernelCounters {
  size_t probes = 0;
  std::vector<size_t>* step_rows = nullptr;
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

/// True when the rule's shape fits the fixed-width kernel buffers (atom
/// arities <= 16, at most 65535 variables). Unsupported rules keep the
/// generic interpreter; BuildKernel checks the same bounds.
bool KernelSupported(const QAtom& head, const std::vector<QAtom>& body,
                     size_t num_vars);

/// Lowers one planned (rule, seat, order) into a kernel. `seat` is the
/// body index whose variables the delta fact pre-binds (-1 = full join);
/// `order` lists the remaining body atoms in join order.
JoinKernel BuildKernel(const QAtom& head, const std::vector<QAtom>& body,
                       size_t num_vars, int seat,
                       const std::vector<uint32_t>& order);

/// Runs the full-join kernel over `target`, appending each derived head
/// (not already in `target`) to `out` — a flat buffer, no per-fact
/// allocation.
void RunKernelFull(const JoinKernel& k, const Instance& target,
                   KernelCounters& c, DerivedBuffer* out);

/// Runs the delta kernel once per row of `delta_rows` (rows of
/// `k.seat_pred` in `target`), appending derived heads to `out`.
void RunKernelDelta(const JoinKernel& k, const Instance& target,
                    std::span<const uint32_t> delta_rows, KernelCounters& c,
                    DerivedBuffer* out);

}  // namespace mondet

#endif  // MONDET_DATALOG_KERNEL_H_
