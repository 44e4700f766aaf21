//===- perfbench/src/Main.cpp - End-to-end benchmark ----------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench: runs one workload of the end-to-end benchmark and
// prints its metrics, one per line with unit and meaning, then one JSON
// result line. See perfbench/README.md.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                        [--bin-dir DIR] [--work-dir DIR] [--commit ID]
//   perfbench selftest [--bin-dir DIR] [--work-dir DIR]
//   perfbench gen-trace --seed N     (predict-offline input, stdout)
//   perfbench gen-plan --seed N [--workload W]
//                                    (observe-stream or observe-dense input)
//   perfbench metrics                (declared names and units)
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends half the time untraced and half traced (the difference is the
// tracing overhead), then runs the layer probes and reports the per-layer
// metrics, each layer's self time, and writes every span to
// <work-dir>/<workload>.spans.json.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generate.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include <sys/statfs.h>
#include <unistd.h>

namespace perfbench {

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "dbcp-serial",    "jigsaw-parallel", "predict-offline",
      "observe-stream", "observe-dense"};
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},          {"throughput_per_s", "1/s"},
      {"latency_ms_p50", "ms"},  {"latency_ms_tail", "ms"},
      {"first_deadlock_s", "s"}, {"cpu_us_per_item", "us"},
      {"peak_rss_mb", "MB"},     {"ok_frac", "1"}};
  return M;
}

/// Layers whose self time the traced run reports (every traced run has
/// spans of each: the probes cover them all).
static const char *const SelfTimeLayers[] = {"campaign", "runtime", "igoodlock",
                                             "analysis", "ring"};

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = [] {
    std::vector<std::pair<std::string, std::string>> V = {
        {"runtime.rep_ms_p50", "ms"},
        {"runtime.rep_cpu_ms_p50", "ms"},
        {"runtime.steps_per_rep", "count"},
        {"runtime.step_us", "us"},
        {"runtime.wait_frac", "1"},
        {"runtime.overhead_x", "x"},
        {"fuzzer.pauses_per_rep", "count"},
        {"fuzzer.thrashes_per_rep", "count"},
        {"fuzzer.reproduce_frac", "1"},
        {"campaign.sandbox_ms_p50", "ms"},
        {"campaign.journal_append_ms_p50", "ms"},
        {"campaign.journal_append_ms_p99", "ms"},
        {"campaign.rep_overhead_ms", "ms"},
        {"campaign.phase1_ms", "ms"},
        {"igoodlock.closure_ms", "ms"},
        {"igoodlock.entries", "count"},
        {"igoodlock.chains", "count"},
        {"igoodlock.chains_dropped", "count"},
        {"analysis.read_ms", "ms"},
        {"analysis.logbuild_ms", "ms"},
        {"analysis.prune_ms", "ms"},
        {"analysis.predict_ms", "ms"},
        {"analysis.sound_frac", "1"},
        {"ring.write_ns", "ns"},
        {"ring.drain_us_per_kevent", "us"},
        {"ring.assemble_us_per_kevent", "us"},
        {"ring.dropped", "count"},
        {"igoodlock.epoch_closure_ms_p50", "ms"},
        {"igoodlock.epoch_closure_ms_p99", "ms"},
        {"trace.overhead_frac", "1"}};
    for (const char *L : SelfTimeLayers)
      V.emplace_back(std::string("self.") + L + "_ms", "ms");
    return V;
  }();
  return M;
}

} // namespace perfbench

using namespace perfbench;

namespace {

const char *Usage =
    "usage: perfbench run --workload W --seed N --seconds S "
    "--trace 0|1\n"
    "                            [--bin-dir DIR] [--work-dir DIR] "
    "[--commit ID]\n"
    "       perfbench selftest [--bin-dir DIR] [--work-dir DIR]\n"
    "       perfbench gen-trace|gen-plan --seed N\n"
    "       perfbench metrics\n";

std::string filesystemType(const std::string &Dir) {
  struct statfs S;
  if (statfs(Dir.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x01021994:
    return "tmpfs";
  case 0x794c7630:
    return "overlayfs";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  default: {
    std::ostringstream OS;
    OS << "0x" << std::hex << S.f_type;
    return OS.str();
  }
  }
}

std::string loadAverage() {
  std::string Text;
  if (!readFile("/proc/loadavg", Text))
    return "unknown";
  return Text.substr(0, Text.find(' '));
}

WorkloadOutcome runWorkload(const RunOptions &O, double Seconds, Result &R) {
  if (O.Workload == "predict-offline")
    return runPredictWorkload(O, Seconds, R);
  if (O.Workload == "observe-stream" || O.Workload == "observe-dense")
    return runObserveWorkload(O, Seconds, R);
  return runCampaignWorkload(O, Seconds, R);
}

int runBenchmark(const RunOptions &O, const std::string &Commit) {
  if (!makeDirs(O.WorkDir)) {
    std::cerr << "error: cannot create " << O.WorkDir << "\n";
    return 2;
  }
  std::cout << "provenance: nproc " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", loadavg " << loadAverage() << ", journal filesystem "
            << filesystemType(O.WorkDir) << ", build " << PERFBENCH_BUILD_TYPE
            << ", commit " << Commit << ", workload " << O.Workload
            << ", seed " << O.Seed << ", seconds " << O.Seconds << ", trace "
            << O.Trace << "\n";

  Result R;
  if (!O.Trace) {
    runWorkload(O, O.Seconds, R);
  } else {
    // Half the time untraced, half traced: the same workload both ways, so
    // the difference in its main rate is the tracing overhead.
    Result Untraced, Traced;
    std::cout << "untraced half:\n";
    WorkloadOutcome Plain = runWorkload(O, O.Seconds / 2.0, Untraced);
    Tracer::get().setOn(true);
    std::cout << "traced half:\n";
    WorkloadOutcome Spanned = runWorkload(O, O.Seconds / 2.0, Traced);
    if (Spanned.SerialCommitGapMs == 0)
      Spanned.SerialCommitGapMs = serialCommitGapMs(O, Spanned.ProbeProgram);
    runLayerProbes(O, Spanned, R);
    Tracer::get().setOn(false);

    double Overhead = Plain.Throughput > 0
                          ? (Plain.Throughput - Spanned.Throughput) /
                                Plain.Throughput
                          : 0;
    R.set("trace.overhead_frac", Overhead, "1");
    report("trace.overhead_frac", Overhead, "1",
           "1 - traced / untraced throughput_per_s");
    std::map<std::string, double> Self = Tracer::get().selfMsByLayer();
    for (const char *L : SelfTimeLayers) {
      std::string Name = std::string("self.") + L + "_ms";
      R.set(Name, Self[L], "ms");
      report(Name, Self[L], "ms", "summed span self time");
    }
    std::cout << "self time per span:\n";
    for (const auto &KV : Tracer::get().selfMsByName())
      report(KV.first, KV.second.first, "ms",
             "n=" + std::to_string(KV.second.second));
    std::string Spans = O.WorkDir + "/" + O.Workload + ".spans.json";
    if (Tracer::get().write(Spans))
      std::cout << "spans written to " << Spans << "\n";

    for (Result *Part : {&Untraced, &Traced}) {
      R.Attempted += Part->Attempted;
      R.Failed += Part->Failed;
      R.CheckErrors.insert(R.CheckErrors.end(), Part->CheckErrors.begin(),
                           Part->CheckErrors.end());
    }
  }
  // The result carries exactly the declared metrics of its kind.
  const auto &Declared = O.Trace ? perLayerMetrics() : endToEndMetrics();
  for (const auto &M : Declared)
    if (!R.Metrics.count(M.first))
      R.CheckErrors.push_back("metric " + M.first + " was not measured");
  if (R.Metrics.size() != Declared.size())
    R.CheckErrors.push_back("undeclared metrics in the result");
  for (const std::string &E : R.CheckErrors)
    std::cout << "CHECK FAILED: " << E << "\n";
  std::cout << R.json() << std::endl;
  return R.correct() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::cerr << Usage;
    return 2;
  }
  const std::string Cmd = Argv[1];
  RunOptions O;
  std::string Commit = "unknown";
  bool SeedGiven = false;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc) {
      std::cerr << "error: " << Arg << " expects a value\n" << Usage;
      return 2;
    }
    std::string Val = Argv[++I];
    char *End = nullptr;
    unsigned long long N = std::strtoull(Val.c_str(), &End, 10);
    bool Numeric = !Val.empty() && End && *End == '\0';
    if (Arg == "--workload") {
      O.Workload = Val;
    } else if (Arg == "--seed" && Numeric) {
      O.Seed = N;
      SeedGiven = true;
    } else if (Arg == "--seconds" && Numeric && N >= 1 && N <= 600) {
      O.Seconds = static_cast<unsigned>(N);
    } else if (Arg == "--trace" && (Val == "0" || Val == "1")) {
      O.Trace = Val == "1";
    } else if (Arg == "--bin-dir") {
      O.BinDir = Val;
    } else if (Arg == "--work-dir") {
      O.WorkDir = Val;
    } else if (Arg == "--commit") {
      Commit = Val;
    } else {
      std::cerr << "error: bad option " << Arg << " " << Val << "\n" << Usage;
      return 2;
    }
  }

  if (Cmd == "gen-trace" || Cmd == "gen-plan") {
    if (!SeedGiven) {
      std::cerr << "error: " << Cmd << " needs --seed\n";
      return 2;
    }
    std::cout << (Cmd == "gen-trace" ? generatePredictTrace(O.Seed)
                                     : observePlanText(O.Seed, O.Workload));
    return 0;
  }
  if (Cmd == "metrics") {
    for (const auto &M : endToEndMetrics())
      std::cout << "end_to_end " << M.first << " " << M.second << "\n";
    for (const auto &M : perLayerMetrics())
      std::cout << "per_layer " << M.first << " " << M.second << "\n";
    for (const std::string &W : workloadNames())
      std::cout << "workload " << W << "\n";
    return 0;
  }
  if (Cmd == "selftest")
    return runSelfTests(O);
  if (Cmd != "run") {
    std::cerr << Usage;
    return 2;
  }
  bool Known = false;
  for (const std::string &W : workloadNames())
    Known |= W == O.Workload;
  if (!Known) {
    std::cerr << "error: unknown workload '" << O.Workload << "'\n";
    return 2;
  }
  return runBenchmark(O, Commit);
}
