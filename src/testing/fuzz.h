#ifndef MONDET_TESTING_FUZZ_H_
#define MONDET_TESTING_FUZZ_H_

#include <string>

#include "testing/oracle.h"

namespace mondet {
namespace testing {

/// `oracle.Check(c)` run in a forked child process, its outcome read back
/// over a pipe. A child that dies on a signal, or exits without writing an
/// outcome, fails: the message names the signal (or exit status) and
/// carries the tail of the child's stderr — where a MONDET_CHECK abort
/// prints its `MONDET_CHECK failed at ...` line — followed by the case.
/// So an engine abort is a failure to report and shrink, not the end of
/// the run. Waits for the child before returning: one child at a time.
OracleOutcome CheckInChild(const Oracle& oracle, const FuzzCase& c);

/// mondet-fuzz's per-case step: checks `c` in a child; on failure prints
/// a FAIL report to stderr, shrinks the case (unless `shrink` is false;
/// every shrink step runs in a child too) and writes the repro to
/// `out_dir`. Returns true when the case passed.
bool RunCase(const Oracle& oracle, const FuzzCase& c, bool shrink,
             const std::string& out_dir);

}  // namespace testing
}  // namespace mondet

#endif  // MONDET_TESTING_FUZZ_H_
