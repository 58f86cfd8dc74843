// Differential test for the compiled semi-naive evaluator: on randomized
// Datalog programs and instances, the naive full-rescan reference
// (testing/reference.h) and the semi-naive evaluator must produce the
// same fixpoint.
//
// The generator and checker live in the shared randomized-testing
// library (testing/oracle.h, oracle `eval-differential`) so the
// `mondet-fuzz` CLI can drive the same property over open-ended seed
// ranges and shrink any failure to a minimal repro. This suite pins the
// historical seed range; a failure message carries the full generated
// case (testing::Describe), so it can be saved as a `.repro` and
// replayed with `mondet-fuzz --replay`.

#include <gtest/gtest.h>

#include "testing/oracle.h"

namespace mondet {
namespace {

class EvalDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(EvalDifferential, NaiveAndSeminaiveAgree) {
  const testing::Oracle* oracle = testing::FindOracle("eval-differential");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalDifferential, ::testing::Range(0u, 220u));

}  // namespace
}  // namespace mondet
