// Plan-quality differential test for the statistics-driven join planner:
// on randomized programs × random bound instances, the stats-driven run
// must match the naive reference, planner-off runs must derive the same
// set, and no plan the instance's statistics pick for a connected-join-
// graph rule may contain a cross product.
//
// The generator and checker live in the shared randomized-testing
// library (testing/oracle.h, oracle `plan-differential`); `mondet-fuzz`
// drives the same property over open-ended seed ranges with shrinking.
// Failure messages carry the full generated case for `.repro` replay.

#include <gtest/gtest.h>

#include "testing/oracle.h"

namespace mondet {
namespace {

class PlanDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlanDifferential, StatsPlannerAgreesWithReference) {
  const testing::Oracle* oracle = testing::FindOracle("plan-differential");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferential, ::testing::Range(0u, 200u));

}  // namespace
}  // namespace mondet
