//===- perfbench/src/Predict.cpp - predict-offline workload ---------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Offline prediction over a generated text trace, through the public call
// sequence `dlf-analyze --predict --analysis-jobs 2` makes: readTrace ->
// predictDeadlocks (IncrementalLogBuilder::feed, runIGoodlock, the verdict
// pass) -> printPredictReport. No process or scheduler work: the Phase I
// engines do all of it. The layer probes time the stages one by one.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Generate.h"

#include "analysis/Predict.h"
#include "analysis/Trace.h"

#include <algorithm>
#include <iostream>
#include <sstream>

namespace perfbench {

using namespace dlf;

namespace {

constexpr unsigned AnalysisJobs = 2;

} // namespace

std::vector<GradedCycle> gradedCycles(const analysis::PredictAnalysis &A) {
  std::vector<GradedCycle> Out;
  for (size_t I = 0; I != A.Cycles.size(); ++I) {
    GradedCycle G;
    for (const CycleComponent &C : A.Cycles[I].Components)
      G.Locks.push_back(C.LockName);
    G.Sound = I < A.Predictions.size() && A.Predictions[I].sound();
    Out.push_back(std::move(G));
  }
  return Out;
}

std::string predictTracePath(const RunOptions &O) {
  makeDirs(O.WorkDir);
  std::string Path = O.WorkDir + "/predict-" + std::to_string(O.Seed) + ".trace";
  writeFile(Path, generatePredictTrace(O.Seed));
  return Path;
}

WorkloadOutcome runPredictWorkload(const RunOptions &O, double Seconds,
                                   Result &R) {
  WorkloadOutcome Out;
  const std::string Path = predictTracePath(O);
  const TraceShape Shape;
  IGoodlockOptions Opts;
  Opts.AnalysisJobs = AnalysisJobs;

  std::vector<double> ReadS, EventsPerS, LatencyMs, VerdictS, CpuUsPerEvent;
  std::string RefReport;
  uint64_t Events = 0;
  unsigned Iterations = 0;
  // Iteration 0 warms the page cache and allocator and gives the
  // reference report; it is checked but not timed.
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  for (unsigned I = 0; I < 11 || nowNs() < Deadline; ++I) {
    uint64_t T0 = nowNs();
    analysis::TraceFile Trace;
    std::string Err;
    analysis::TraceReadStatus St;
    {
      Tracer::Scope S("analysis.readTrace");
      St = analysis::readTrace(Path, Trace, &Err);
    }
    uint64_t T1 = nowNs();
    double Cpu0 = selfCpuMs();
    analysis::PredictAnalysis A;
    std::ostringstream Report;
    {
      Tracer::Scope S("analysis.predictDeadlocks");
      A = analysis::predictDeadlocks(Trace, Opts);
    }
    uint64_t TVerdicts = nowNs();
    {
      Tracer::Scope S("analysis.printPredictReport");
      analysis::printPredictReport(Report, "dlf-analyze", A);
    }
    uint64_t T2 = nowNs();
    double Cpu = selfCpuMs() - Cpu0;
    ++R.Attempted;
    if (St != analysis::TraceReadStatus::Ok) {
      ++R.Failed;
      R.fail("predict-offline", {"readTrace: " + Err});
      break;
    }
    if (I == 0) {
      RefReport = Report.str();
      Events = Trace.Events.size();
      Errors E = checkPredictVerdicts(gradedCycles(A), Shape.SoundPlants,
                                      Shape.GuardedPlants);
      R.fail("predict-offline verdicts", E);
      R.Failed += !E.empty();
      continue;
    }
    Errors E = checkSame("report vs first iteration", Report.str(), RefReport);
    R.fail("predict-offline iteration " + std::to_string(I), E);
    R.Failed += !E.empty();
    ++Iterations;
    ReadS.push_back(nsToMs(T1 - T0) / 1e3);
    EventsPerS.push_back(static_cast<double>(Events) / (nsToMs(T2 - T1) / 1e3));
    LatencyMs.push_back(nsToMs(T2 - T0));
    VerdictS.push_back(nsToMs(TVerdicts - T0) / 1e3);
    CpuUsPerEvent.push_back(Cpu * 1e3 / static_cast<double>(Events));
  }
  const double PeakRss = selfPeakRssMb();

  // The report must be what dlf-analyze prints for the same trace.
  std::string AnalyzeOut = O.WorkDir + "/predict-analyze.out";
  int Rc = runProcess({O.BinDir + "/dlf/dlf-analyze", Path, "--predict",
                       "--analysis-jobs", std::to_string(AnalysisJobs)},
                      AnalyzeOut, "", 120);
  ++R.Attempted;
  std::string Want;
  Errors E;
  if (Rc != 0 || !readFile(AnalyzeOut, Want))
    E.push_back("dlf-analyze --predict exited " + std::to_string(Rc));
  else
    E = checkSame("report vs dlf-analyze --predict stdout", RefReport, Want);
  R.fail("predict-offline", E);
  R.Failed += !E.empty();

  Out.Throughput = median(EventsPerS);
  const std::string N = " (n=" + std::to_string(Iterations) + " analyses)";
  std::cout << "predict-offline: " << Events << " trace events, "
            << Shape.SoundPlants << " free + " << Shape.GuardedPlants
            << " guarded planted inversions, --analysis-jobs "
            << AnalysisJobs << "\n";
  auto Put = [&](const char *Name, double V, const char *Unit,
                 const std::string &Note) {
    R.set(Name, V, Unit);
    report(Name, V, Unit, Note);
  };
  Put("setup_s", median(ReadS), "s", "median readTrace" + N);
  Put("throughput_per_s", Out.Throughput, "1/s",
      "events_per_s: trace events / (predict + print) wall" + N);
  Put("latency_ms_p50", percentile(LatencyMs, 50), "ms",
      "read + predict + print, per analysis" + N);
  Put("latency_ms_tail", percentile(LatencyMs, 90), "ms",
      "p90 of the same (the highest with >= 10 samples beyond it)" + N);
  Put("first_deadlock_s", median(VerdictS), "s",
      "median trace read -> PREDICTED-SOUND verdicts returned" + N);
  Put("cpu_us_per_item", median(CpuUsPerEvent), "us",
      "cpu_us_per_event: process CPU of predict + print" + N);
  Put("peak_rss_mb", PeakRss, "MB", "this process");
  Put("ok_frac", 1.0 - static_cast<double>(R.Failed) / R.Attempted, "1",
      "1 - fail_frac: failed checks or exits of " +
          std::to_string(R.Attempted) + " analyses");
  return Out;
}

} // namespace perfbench
