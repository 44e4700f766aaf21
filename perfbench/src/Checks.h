//===- perfbench/src/Checks.h - Output checks -------------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output checks that fail a benchmark run. Each is a pure function
/// from what the program produced and what was expected to a list of
/// errors (empty: the check passed), so the self-tests can feed each one a
/// wrong expectation and watch it fire.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <string>
#include <utility>
#include <vector>

namespace dlf {
namespace analysis {
struct PredictAnalysis;
} // namespace analysis
} // namespace dlf

namespace perfbench {

using Errors = std::vector<std::string>;

/// Two renderings of one result must be byte-identical (campaign table vs
/// the --jobs 1 table; in-process predict report vs dlf-analyze stdout).
Errors checkSame(const std::string &What, const std::string &Got,
                 const std::string &Want);

/// Every one of \p ExpectedCycles cycles was reproduced at least once.
Errors checkConfirmsAll(const std::vector<unsigned> &ReproducedPerCycle,
                        size_t ExpectedCycles);

/// One graded cycle of a predict report: its lock names and verdict.
struct GradedCycle {
  std::vector<std::string> Locks;
  bool Sound = false;
};

/// The graded cycles of a predict analysis.
std::vector<GradedCycle> gradedCycles(const dlf::analysis::PredictAnalysis &A);

/// Every planted free inversion is graded PREDICTED-SOUND, no planted
/// guarded one is, and no cycle exists outside the plants.
Errors checkPredictVerdicts(const std::vector<GradedCycle> &Cycles,
                            unsigned SoundPlants, unsigned GuardedPlants);

/// The observer's final report (dlf-analyze cycle format) holds exactly one
/// cycle per planted lock pair and nothing else. Lock i of the target is
/// "<site>#<i+1>" in the report.
Errors checkObservedCycles(const std::string &Report,
                           const std::vector<std::pair<unsigned, unsigned>> &Planted);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
