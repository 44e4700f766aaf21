//===- perfbench/src/Campaign.cpp - dbcp-serial / jigsaw-parallel ---------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Campaign workloads: whole CampaignRunner::run calls (sandboxed Phase I,
// then every Phase II repetition in a forked child, journaled on the
// checkout's filesystem), back to back until the measuring time is spent.
// The benchmark's own StatusSink timestamps the "phase1" and every "commit"
// event, which gives set-up time, commit gaps and time to first
// confirmation without touching the runner.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "campaign/CampaignRunner.h"
#include "campaign/ProcessSandbox.h"
#include "serve/CampaignStatus.h"
#include "substrates/BenchmarkRegistry.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>

#include <unistd.h>

namespace perfbench {

using namespace dlf;

namespace {

struct CampaignSpec {
  const char *Program;
  unsigned Jobs;
  unsigned RepsPerCycle;
  /// Cycles Phase I must find, each confirmed at least once (0: any
  /// number, at least one confirmed).
  size_t MustConfirmCycles;
  /// Distinct seeds a run's campaigns cycle over. jigsaw's first
  /// confirmation lands anywhere from the 3rd to the 15th commit depending
  /// on the seed, so its median needs more seeds than dbcp's, whose first
  /// rep nearly always reproduces.
  unsigned SeedsPerRun;
};

CampaignSpec specFor(const std::string &Workload) {
  if (Workload == "dbcp-serial")
    return {"dbcp", 1, 100, 2, 4};
  return {"jigsaw", 3, 3, 0, 12};
}

/// Timestamps the campaign's public events as they reach the sink.
class TimingSink : public serve::StatusSink {
public:
  explicit TimingSink(uint64_t LaunchNs) : LaunchNs(LaunchNs) {}

  void publishStatus(const serve::CampaignStatus &) override {}
  void publishMetrics(const telemetry::MetricsSnapshot &) override {}
  void publishEvent(const std::string &Type, const std::string &Json) override {
    uint64_t Now = nowNs();
    if (Type == "phase1") {
      Phase1Ns = Now;
      Tracer::get().record("campaign.phase1", LaunchNs, Now);
    } else if (Type == "commit") {
      Tracer::get().record("campaign.commit",
                           CommitNs.empty() ? Phase1Ns : CommitNs.back(), Now);
      CommitNs.push_back(Now);
      if (!FirstConfirmNs &&
          Json.find("\"class\":\"reproduced\"") != std::string::npos)
        FirstConfirmNs = Now;
    }
  }

  const uint64_t LaunchNs;
  uint64_t Phase1Ns = 0;
  uint64_t FirstConfirmNs = 0;
  std::vector<uint64_t> CommitNs;
};

struct CampaignRun {
  campaign::CampaignReport Report;
  std::unique_ptr<TimingSink> Sink;
  double CpuMs = 0; ///< this process plus every child, user + system

  std::vector<double> commitGapsMs() const {
    std::vector<double> Gaps;
    for (size_t I = 1; I < Sink->CommitNs.size(); ++I)
      Gaps.push_back(nsToMs(Sink->CommitNs[I] - Sink->CommitNs[I - 1]));
    return Gaps;
  }

  /// The per-cycle table, as comparable text (the deterministic counts).
  std::string table() const {
    std::ostringstream OS;
    for (size_t I = 0; I != Report.PerCycle.size(); ++I)
      OS << "#" << I << " " << Report.PerCycle[I].countsKey()
         << (Report.PerCycle[I].Skipped ? " skipped" : "") << "\n";
    return OS.str();
  }
};

CampaignRun runCampaign(const BenchmarkInfo &Bench, const CampaignSpec &Spec,
                        unsigned Jobs, uint64_t Seed,
                        const std::string &Journal) {
  campaign::CampaignConfig C;
  C.BenchmarkName = Bench.Name;
  C.Entry = Bench.Entry;
  C.Tester.PhaseTwoReps = Spec.RepsPerCycle;
  // The Phase I observation is part of the workload, not of its seed:
  // jigsaw's cycle count ranges from about 12 to 40 over Phase I seeds.
  // The seed picks the Phase II schedules, as `dlf-run --seed` does.
  C.Tester.PhaseOneSeed = PhaseOneSeed;
  C.Tester.PhaseTwoSeedBase = Seed * 1000;
  C.Jobs = Jobs;
  C.JournalPath = Journal;
  std::remove(Journal.c_str());

  CampaignRun R;
  double Cpu0 = selfCpuMs() + childrenCpuMs();
  R.Sink = std::make_unique<TimingSink>(nowNs());
  C.Status = R.Sink.get();
  {
    Tracer::Scope S("campaign.run");
    campaign::CampaignRunner Runner(std::move(C));
    R.Report = Runner.run(/*Resume=*/false);
  }
  R.CpuMs = selfCpuMs() + childrenCpuMs() - Cpu0;
  std::remove(Journal.c_str());
  return R;
}

/// Checks one campaign's own outcome (not its agreement with others).
Errors checkCampaign(const CampaignRun &R, const CampaignSpec &Spec) {
  Errors E;
  if (!R.Report.Error.empty())
    E.push_back("campaign error: " + R.Report.Error);
  if (!R.Report.CampaignComplete)
    E.push_back("campaign did not complete");
  if (!R.Sink->Phase1Ns)
    E.push_back("no phase1 event");
  std::vector<unsigned> Repro;
  for (const campaign::CycleCampaignStats &S : R.Report.PerCycle)
    Repro.push_back(S.Reproduced);
  if (Spec.MustConfirmCycles) {
    Errors C = checkConfirmsAll(Repro, Spec.MustConfirmCycles);
    E.insert(E.end(), C.begin(), C.end());
  } else if (!R.Sink->FirstConfirmNs) {
    E.push_back("no cycle confirmed");
  }
  return E;
}

/// The --jobs 1 reference table of every seed, or the failure that
/// replaces it. References run ReferenceJobs at a time, each in a sandboxed
/// copy of this process that reports its table over the result pipe, so a
/// run spends seconds, not tens of seconds, before timing starts.
std::vector<std::string> referenceTables(const BenchmarkInfo &Bench,
                                         const CampaignSpec &Spec,
                                         const std::vector<uint64_t> &Seeds,
                                         const std::string &Dir, Result &R,
                                         const std::string &Workload) {
  constexpr size_t ReferenceJobs = 3;
  std::vector<std::string> Tables(Seeds.size());
  std::vector<std::unique_ptr<campaign::SandboxProcess>> Running(Seeds.size());
  campaign::SandboxLimits L;
  L.TimeoutMs = 120000;
  size_t Next = 0, Done = 0;
  while (Done != Seeds.size()) {
    size_t InFlight = 0;
    for (size_t I = 0; I != Seeds.size(); ++I)
      InFlight += Running[I] && !Running[I]->finished();
    for (; Next != Seeds.size() && InFlight < ReferenceJobs; ++Next, ++InFlight) {
      const uint64_t Seed = Seeds[Next];
      const std::string Journal =
          Dir + "/reference-" + std::to_string(Next) + ".jsonl";
      Running[Next] = std::make_unique<campaign::SandboxProcess>();
      Running[Next]->start(
          [&, Seed, Journal](int Fd) {
            CampaignRun Ref = runCampaign(Bench, Spec, 1, Seed, Journal);
            // "E <error>" lines, then the table.
            std::string Out;
            for (const std::string &E : checkCampaign(Ref, Spec))
              Out += "E " + E + "\n";
            Out += Ref.table();
            return write(Fd, Out.data(), Out.size()) ==
                           static_cast<ssize_t>(Out.size())
                       ? 0
                       : 1;
          },
          L);
    }
    usleep(2000);
    for (size_t I = 0; I != Next; ++I) {
      if (!Running[I] || !Running[I]->poll())
        continue;
      campaign::SandboxResult SR = Running[I]->takeResult();
      Running[I].reset();
      ++Done;
      const std::string Where =
          Workload + " reference seed " + std::to_string(Seeds[I]);
      if (SR.Status != campaign::SandboxStatus::Completed) {
        R.fail(Where, {"reference campaign " + SR.triage()});
        continue;
      }
      std::istringstream IS(SR.Payload);
      for (std::string Line; std::getline(IS, Line);) {
        if (Line.rfind("E ", 0) == 0)
          R.fail(Where, {Line.substr(2)});
        else
          Tables[I] += Line + "\n";
      }
    }
  }
  return Tables;
}

} // namespace

double serialCommitGapMs(const RunOptions &O, const std::string &Program) {
  CampaignSpec Spec = specFor(Program == "dbcp" ? "dbcp-serial" : "");
  makeDirs(O.WorkDir + "/journal");
  CampaignRun Run = runCampaign(*findBenchmark(Spec.Program), Spec, 1, O.Seed,
                                O.WorkDir + "/journal/probe-campaign.jsonl");
  return median(Run.commitGapsMs());
}

WorkloadOutcome runCampaignWorkload(const RunOptions &O, double Seconds,
                                    Result &R) {
  const CampaignSpec Spec = specFor(O.Workload);
  const BenchmarkInfo *Bench = findBenchmark(Spec.Program);
  WorkloadOutcome Out;
  Out.ProbeProgram = Spec.Program;
  if (!Bench) {
    R.fail(O.Workload, {std::string("no registry workload ") + Spec.Program});
    return Out;
  }
  const std::string Dir = O.WorkDir + "/journal";
  makeDirs(Dir);

  // Campaigns cycle over SeedsPerRun seeds derived from --seed, so a run's
  // medians do not hang on one seed's luck (which rep confirms first).
  // Each seed's --jobs 1 campaign is the reference every measured campaign
  // with that seed must reproduce (the jobs-determinism contract).
  std::vector<uint64_t> Seeds;
  for (unsigned I = 0; I != Spec.SeedsPerRun; ++I)
    Seeds.push_back(O.Seed * Spec.SeedsPerRun + I);
  const std::vector<std::string> RefTables =
      referenceTables(*Bench, Spec, Seeds, Dir, R, O.Workload);
  // One untimed campaign warms the page cache and allocator.
  runCampaign(*Bench, Spec, Spec.Jobs, Seeds[0], Dir + "/warmup.jsonl");

  // Every campaign metric is one value per campaign, then the median over
  // the run's campaigns: a host stall during one campaign moves one value
  // of many instead of a run's pooled tail.
  std::vector<double> Setup, RepsPerS, GapP50, GapP90, FirstConfirm, CpuPerRep;
  size_t GapCount = 0;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  unsigned Campaigns = 0;
  while (Campaigns < Spec.SeedsPerRun || nowNs() < Deadline) {
    const unsigned S = Campaigns % Spec.SeedsPerRun;
    CampaignRun C = runCampaign(*Bench, Spec, Spec.Jobs, Seeds[S],
                                Dir + "/measured.jsonl");
    ++Campaigns;
    std::string Where = O.Workload + " campaign " + std::to_string(Campaigns) +
                        " seed " + std::to_string(Seeds[S]);
    R.fail(Where, checkCampaign(C, Spec));
    R.fail(Where,
           checkSame("per-cycle table vs --jobs 1", C.table(), RefTables[S]));
    const campaign::CampaignReport &Rep = C.Report;
    for (const campaign::CycleCampaignStats &CS : Rep.PerCycle) {
      uint64_t Failed = CS.Hung + CS.CrashedSignal + CS.CrashedExit + CS.Oom;
      uint64_t Lost = CS.Quarantined && CS.Reps < Spec.RepsPerCycle
                          ? Spec.RepsPerCycle - CS.Reps
                          : 0;
      R.Attempted += CS.Reps + Lost;
      R.Failed += Failed + Lost;
    }
    if (!C.Sink->Phase1Ns || !Rep.RepsExecuted)
      continue;
    Setup.push_back(nsToMs(C.Sink->Phase1Ns - C.Sink->LaunchNs) / 1e3);
    RepsPerS.push_back(Rep.repsPerSecond());
    std::vector<double> G = C.commitGapsMs();
    GapP50.push_back(percentile(G, 50));
    GapP90.push_back(percentile(G, 90));
    GapCount += G.size();
    if (C.Sink->FirstConfirmNs)
      FirstConfirm.push_back(
          nsToMs(C.Sink->FirstConfirmNs - C.Sink->LaunchNs) / 1e3);
    CpuPerRep.push_back(C.CpuMs / Rep.RepsExecuted);
    std::cerr << Where << ": " << Rep.repsPerSecond() << " reps/s, gap p50 "
              << GapP50.back() << " p90 " << GapP90.back() << " ms, setup "
              << Setup.back() * 1e3 << " ms, first confirm "
              << (FirstConfirm.empty() ? 0 : FirstConfirm.back()) << " s\n";
  }
  const double PeakRss = std::max(selfPeakRssMb(), childrenPeakRssMb());
  if (R.Attempted == 0)
    R.Attempted = 1;

  const std::string N = " (n=" + std::to_string(Campaigns) + " campaigns)";
  const std::string Gn = " per campaign" + N + ", " +
                         std::to_string(GapCount) + " gaps";
  Out.Throughput = median(RepsPerS);
  // A --jobs 1 workload's own gaps are the serial commit gap the
  // rep-overhead probe needs; otherwise the traced run measures one.
  Out.SerialCommitGapMs = Spec.Jobs == 1 ? median(GapP50) : 0;
  std::cout << O.Workload << ": " << Spec.Program << " campaigns, --jobs "
            << Spec.Jobs << ", " << Spec.RepsPerCycle << " reps/cycle, "
            << Spec.SeedsPerRun << " seeds, journal on disk\n";
  auto Put = [&](const char *Name, double V, const char *Unit,
                 const std::string &Note) {
    R.set(Name, V, Unit);
    report(Name, V, Unit, Note);
  };
  Put("setup_s", median(Setup), "s", "median launch -> phase1 event" + N);
  Put("throughput_per_s", Out.Throughput, "1/s",
      "reps_per_s: median reps per s of Phase II wall" + N);
  Put("latency_ms_p50", median(GapP50), "ms",
      "commit_gap_ms_p50: between successive frontier commits" + Gn);
  Put("latency_ms_tail", median(GapP90), "ms", "commit_gap_ms_p90" + Gn);
  Put("first_deadlock_s", median(FirstConfirm), "s",
      "first_confirm_s: median launch -> first reproduced commit" + N);
  Put("cpu_us_per_item", median(CpuPerRep) * 1e3, "us",
      "cpu_ms_per_rep x 1000: parent + children, user + sys" + N);
  Put("peak_rss_mb", PeakRss, "MB", "largest of this process and any child");
  Put("ok_frac", 1.0 - static_cast<double>(R.Failed) / R.Attempted, "1",
      "1 - fail_frac: hung/crashed/oom/quarantined reps of " +
          std::to_string(R.Attempted));
  return Out;
}

} // namespace perfbench
