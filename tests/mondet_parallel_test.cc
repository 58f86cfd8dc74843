// Determinism test for the parallel counterexample-search pipeline: on
// randomized query/view pairs, CheckMonotonicDeterminacy must produce a
// bit-identical result — verdict, counterexample, tests_run,
// expansions_tried — at 1 and 4 threads.
//
// The generator and checker live in the shared randomized-testing
// library (testing/oracle.h, oracle `mondet-parallel`); `mondet-fuzz`
// drives the same property over open-ended seed ranges with shrinking.

#include <gtest/gtest.h>

#include "testing/oracle.h"

namespace mondet {
namespace {

class MonDetParallel : public ::testing::TestWithParam<unsigned> {};

TEST_P(MonDetParallel, DeterministicAcrossThreads) {
  const testing::Oracle* oracle = testing::FindOracle("mondet-parallel");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonDetParallel, ::testing::Range(0u, 100u));

}  // namespace
}  // namespace mondet
