// Differential test for retraction + incremental view maintenance
// (CompiledProgram::Maintain): on randomized programs and randomized
// insert/delete schedules, the maintained fixpoint must equal a
// from-scratch Eval of the current base, as a fact set over the same
// elements, after *every* prefix of the schedule. Raw batches
// deliberately contain duplicate inserts and deletes of absent facts
// (normalization is the caller contract).
//
// The generator and checker live in the shared randomized-testing
// library (testing/oracle.h, oracle `maintenance-differential`);
// `mondet-fuzz` drives the same property with shrinking, and failure
// messages carry the full generated case for `.repro` replay.

#include <gtest/gtest.h>

#include "testing/oracle.h"

namespace mondet {
namespace {

class MaintenanceDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(MaintenanceDifferential, MaintainedEqualsRecomputedAtEveryPrefix) {
  const testing::Oracle* oracle =
      testing::FindOracle("maintenance-differential");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceDifferential,
                         ::testing::Range(0u, 220u));

}  // namespace
}  // namespace mondet
