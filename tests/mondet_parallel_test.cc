// Walk-vs-flat test for the canonical-test checker: on randomized
// query/view pairs, CheckMonotonicDeterminacy's monotonicity-pruned trie
// walk must produce the result of the flat test-by-test scan
// (FlatMonDetReference, testing/reference.h) — verdict, counterexample,
// tests_run, expansions_tried.
//
// The generator and checker live in the shared randomized-testing
// library (testing/oracle.h, oracle `mondet-parallel`); `mondet-fuzz`
// drives the same property over open-ended seed ranges with shrinking.

#include <gtest/gtest.h>

#include "testing/oracle.h"

namespace mondet {
namespace {

class MonDetParallel : public ::testing::TestWithParam<unsigned> {};

TEST_P(MonDetParallel, WalkMatchesFlatScan) {
  const testing::Oracle* oracle = testing::FindOracle("mondet-parallel");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonDetParallel, ::testing::Range(0u, 100u));

}  // namespace
}  // namespace mondet
