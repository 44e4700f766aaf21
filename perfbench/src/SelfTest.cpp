//===- perfbench/src/SelfTest.cpp - Benchmark self-tests ------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The benchmark's own tests (`python3 perfbench/run.py --self-test`):
//   * the same seed gives byte-identical generated inputs, and another
//     seed gives different ones;
//   * every workload and metric name matches [A-Za-z0-9_.-]+;
//   * each output check passes on the right expectation and fires on a
//     wrong one — on real program output where the check reads any.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Generate.h"

#include "analysis/Predict.h"
#include "analysis/Trace.h"

#include <iostream>
#include <regex>

namespace perfbench {

using namespace dlf;

namespace {

struct Suite {
  unsigned Failures = 0;
  void expect(bool Ok, const std::string &What) {
    std::cout << (Ok ? "  ok    " : "  FAIL  ") << What << "\n";
    Failures += !Ok;
  }
};

void generators(Suite &T) {
  T.expect(generatePredictTrace(7) == generatePredictTrace(7),
           "predict trace: same seed, byte-identical");
  T.expect(generatePredictTrace(7) != generatePredictTrace(8),
           "predict trace: another seed differs");
  for (const char *W : {"observe-stream", "observe-dense"}) {
    const std::string Name = std::string(W) + " plan: ";
    T.expect(observePlanText(7, W) == observePlanText(7, W),
             Name + "same seed, byte-identical");
    T.expect(observePlanText(7, W) != observePlanText(8, W),
             Name + "another seed differs");
    ObservePlan P;
    std::string Err;
    T.expect(ObservePlan::parse(observePlanText(7, W), P, &Err) &&
                 P.serialize() == observePlanText(7, W),
             Name + "parse/serialize round trip " + Err);
  }
}

void names(Suite &T) {
  const std::regex Name("[A-Za-z0-9_.-]+");
  unsigned Bad = 0, Count = 0;
  auto Check = [&](const std::string &N) {
    ++Count;
    if (!std::regex_match(N, Name)) {
      std::cout << "        bad name '" << N << "'\n";
      ++Bad;
    }
  };
  for (const std::string &W : workloadNames())
    Check(W);
  for (const auto &M : endToEndMetrics())
    Check(M.first);
  for (const auto &M : perLayerMetrics())
    Check(M.first);
  T.expect(Bad == 0, "all " + std::to_string(Count) +
                         " workload and metric names match [A-Za-z0-9_.-]+");
}

void checks(Suite &T, const RunOptions &O) {
  T.expect(checkSame("x", "table\n", "table\n").empty(), "checkSame: equal");
  T.expect(!checkSame("x", "#0 reps=5\n", "#0 reps=4\n").empty(),
           "checkSame fires on a different table");

  T.expect(checkConfirmsAll({3, 1}, 2).empty(), "checkConfirmsAll: both");
  T.expect(!checkConfirmsAll({3, 0}, 2).empty(),
           "checkConfirmsAll fires on an unconfirmed cycle");
  T.expect(!checkConfirmsAll({3, 1}, 3).empty(),
           "checkConfirmsAll fires on a wrong cycle count");

  // Predict verdicts on the engine's real output for a small trace.
  TraceShape Shape;
  Shape.Ops = 2000;
  makeDirs(O.WorkDir);
  const std::string Path = O.WorkDir + "/selftest.trace";
  analysis::TraceFile Trace;
  bool Read = writeFile(Path, generatePredictTrace(3, Shape)) &&
              analysis::readTrace(Path, Trace, nullptr) ==
                  analysis::TraceReadStatus::Ok;
  std::vector<GradedCycle> G =
      Read ? gradedCycles(analysis::predictDeadlocks(Trace)) : std::vector<GradedCycle>{};
  T.expect(Read && checkPredictVerdicts(G, Shape.SoundPlants, Shape.GuardedPlants)
                       .empty(),
           "checkPredictVerdicts: planted verdicts on real output");
  T.expect(!checkPredictVerdicts(G, Shape.SoundPlants + 1, Shape.GuardedPlants)
                .empty(),
           "checkPredictVerdicts fires on a missing free plant");
  std::vector<GradedCycle> Flipped = G;
  for (GradedCycle &C : Flipped)
    C.Sound = !C.Sound;
  T.expect(!checkPredictVerdicts(Flipped, Shape.SoundPlants, Shape.GuardedPlants)
                .empty(),
           "checkPredictVerdicts fires on swapped verdicts");

  // The observer's report format (analysis::printCycleReport).
  const std::string Report =
      "dlf-observe: 10 dependency entries, 40 acquire events, 1 potential "
      "deadlock cycle(s)\n\n#0 ...\nclassification: schedulable\n"
      "cycle-spec: t#1|touchLock+0x1c#25|runOp+0x10,runOp+0x1c;"
      "t#2|touchLock+0x1c#26|runOp+0x10,runOp+0x1c\n\n";
  T.expect(checkObservedCycles(Report, {{24, 25}}).empty(),
           "checkObservedCycles: the planted pair");
  T.expect(!checkObservedCycles(Report, {{24, 26}}).empty(),
           "checkObservedCycles fires on another pair");
  T.expect(!checkObservedCycles(Report, {{24, 25}, {26, 27}}).empty(),
           "checkObservedCycles fires on a missing plant");
}

} // namespace

int runSelfTests(const RunOptions &O) {
  Suite T;
  std::cout << "perfbench self-tests\n";
  generators(T);
  names(T);
  checks(T, O);
  std::cout << (T.Failures ? "self-tests FAILED: " + std::to_string(T.Failures)
                            : std::string("self-tests passed"))
            << "\n";
  return T.Failures ? 1 : 0;
}

} // namespace perfbench
