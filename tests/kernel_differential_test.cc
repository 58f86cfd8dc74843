// Differential test for the compiled join kernels: on randomized Datalog
// programs and instances, the specialized kernel data plane and its
// generic-interpreter escape hatch (EvalOptions::compiled_kernels) must
// be observationally identical — byte-identical fact sequences and equal
// derivation counters, under both the stats planner and the static
// compile-time orders — with the naive full-rescan reference anchoring
// the fact set.
//
// The generator and checker live in the shared randomized-testing
// library (testing/oracle.h, oracle `kernel-differential`) so the
// `mondet-fuzz` CLI can drive the same property over open-ended seed
// ranges and shrink any failure to a minimal repro. This suite pins the
// historical seed range; a failure message carries the full generated
// case, so it can be saved as a `.repro` and replayed with
// `mondet-fuzz --replay`.

#include <gtest/gtest.h>

#include "testing/oracle.h"

namespace mondet {
namespace {

class KernelDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelDifferential, KernelsMatchInterpreterAndReference) {
  const testing::Oracle* oracle = testing::FindOracle("kernel-differential");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferential, ::testing::Range(0u, 160u));

}  // namespace
}  // namespace mondet
