//===- perfbench/src/Probes.cpp - Per-layer probes of the traced run ------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The traced run's layer probes. Each one times a public call of one layer
// on the workload's own inputs where the layer is on the workload's path,
// and on the seed's default inputs otherwise (the dbcp program, the
// generated trace, the generated plan), so every traced run reports every
// layer. The README's layer table says which end-to-end metric each one
// should move, on which workload.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generate.h"

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/Predict.h"
#include "analysis/Trace.h"
#include "campaign/Journal.h"
#include "campaign/ProcessSandbox.h"
#include "fuzzer/ActiveTester.h"
#include "igoodlock/IGoodlock.h"
#include "ring/Assemble.h"
#include "ring/Ring.h"
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

struct Closure {
  double Ms = 0;
  IGoodlockStats Stats;
  std::vector<AbstractCycle> Cycles;
};

/// One iGoodlock closure with guarded cycles kept (as the analyzers run it).
Closure timeClosure(const LockDependencyLog &Log, const char *Span) {
  IGoodlockOptions Opts;
  Opts.KeepGuardedCycles = true;
  Opts.AnalysisJobs = 2;
  Closure C;
  uint64_t T0 = nowNs();
  {
    Tracer::Scope S(Span);
    C.Cycles = runIGoodlock(Log, Opts, &C.Stats);
  }
  C.Ms = nsToMs(nowNs() - T0);
  return C;
}

class Probes {
public:
  Probes(const RunOptions &O, const WorkloadOutcome &W, Result &R)
      : O(O), W(W), R(R) {}

  void run() {
    std::cout << "layer probes (runtime/campaign on " << W.ProbeProgram
              << "):\n";
    Closure Phase1Closure = runtimeAndPhaseOne();
    sandbox();
    journal();
    Closure TraceClosure = analysisStages();
    Closure PlanClosure = ring();
    const Closure &C = O.Workload == "predict-offline" ? TraceClosure
                       : O.Workload.rfind("observe", 0) == 0 ? PlanClosure
                                                        : Phase1Closure;
    const char *On = O.Workload == "predict-offline" ? "the generated trace"
                     : O.Workload.rfind("observe", 0) == 0
                         ? "the plan's final log"
                         : "the Phase I log";
    put("igoodlock.closure_ms", C.Ms, "ms", std::string("runIGoodlock on ") + On);
    put("igoodlock.entries", static_cast<double>(C.Stats.Entries), "count", "");
    put("igoodlock.chains", static_cast<double>(C.Stats.ChainsExplored),
        "count", "");
    put("igoodlock.chains_dropped", static_cast<double>(C.Stats.ChainsDropped),
        "count", "MaxChains cuts");
  }

private:
  void put(const char *Name, double V, const char *Unit,
           const std::string &Note) {
    R.set(Name, V, Unit);
    report(Name, V, Unit, Note);
  }

  /// Runs \p Body until \p Seconds pass (at least \p Min times).
  template <typename Fn> static void repeat(double Seconds, unsigned Min, Fn Body) {
    const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
    for (unsigned I = 0; I < Min || nowNs() < Deadline; ++I)
      Body(I);
  }

  /// Uninstrumented runs, for runtime.overhead_x. A deadlock-prone program
  /// can hang for real without the scheduler, so they run in a watchdogged
  /// child that streams each run's wall time; it goes first, before any
  /// in-process execution has started runtime threads in this process.
  static std::vector<double> passthroughMs(ActiveTester &Tester) {
    campaign::SandboxLimits L;
    L.TimeoutMs = 1000;
    campaign::SandboxResult SR;
    {
      Tracer::Scope S("runtime.runPassthrough");
      SR = campaign::runInSandbox(
          [&](int Fd) {
            repeat(0.3, 20, [&](unsigned) {
              uint64_t Start = nowNs();
              Tester.runPassthrough();
              std::string Line = std::to_string(nsToMs(nowNs() - Start)) + "\n";
              if (write(Fd, Line.data(), Line.size()) < 0)
                _exit(1);
            });
            return 0;
          },
          L);
    }
    std::vector<double> Ms;
    std::istringstream IS(SR.Payload);
    for (double V; IS >> V;)
      Ms.push_back(V);
    return Ms;
  }

  Closure runtimeAndPhaseOne() {
    const BenchmarkInfo *Bench = findBenchmark(W.ProbeProgram);
    ActiveTesterConfig Cfg;
    Cfg.PhaseOneSeed = PhaseOneSeed;
    Cfg.PhaseTwoSeedBase = O.Seed * 1000;
    ActiveTester Tester(Bench->Entry, Cfg);
    std::vector<double> Plain = passthroughMs(Tester);

    PhaseOneResult P1;
    uint64_t T0 = nowNs();
    {
      Tracer::Scope S("campaign.runPhaseOne");
      P1 = Tester.runPhaseOne();
    }
    put("campaign.phase1_ms", nsToMs(nowNs() - T0), "ms",
        "ActiveTester::runPhaseOne, in-process");
    Closure C = timeClosure(P1.Log, "igoodlock.runIGoodlock");
    if (P1.Cycles.empty())
      return C;

    // Phase II executions in-process: the same cycles and seeds a
    // campaign's children run.
    std::vector<double> Wall, Cpu, Steps, StepUs;
    double Pauses = 0, Thrashes = 0, Matches = 0;
    repeat(1.0, 20, [&](unsigned I) {
      const AbstractCycle &Cycle = P1.Cycles[I % P1.Cycles.size()];
      double Cpu0 = selfCpuMs();
      uint64_t Start = nowNs();
      ExecutionResult E;
      {
        Tracer::Scope S("runtime.runOnce");
        E = Tester.runOnce(Cycle, Cfg.PhaseTwoSeedBase + I);
      }
      double Ms = nsToMs(nowNs() - Start);
      Wall.push_back(Ms);
      Cpu.push_back(selfCpuMs() - Cpu0);
      Steps.push_back(static_cast<double>(E.Steps));
      StepUs.push_back(E.Steps ? Ms * 1e3 / static_cast<double>(E.Steps) : 0);
      Pauses += static_cast<double>(E.Pauses);
      Thrashes += static_cast<double>(E.Thrashes);
      Matches += E.DeadlockFound && E.Witness &&
                 ActiveTester::witnessMatchesCycle(*E.Witness, Cycle,
                                                   Cfg.Base.Kind,
                                                   Cfg.Base.UseContext);
    });
    const double N = static_cast<double>(Wall.size());
    double WallSum = 0, CpuSum = 0;
    for (size_t I = 0; I != Wall.size(); ++I) {
      WallSum += Wall[I];
      CpuSum += Cpu[I];
    }
    const std::string Reps = " (n=" + std::to_string(Wall.size()) + " runOnce)";
    put("runtime.rep_ms_p50", median(Wall), "ms", "ActiveTester::runOnce wall" + Reps);
    put("runtime.rep_cpu_ms_p50", median(Cpu), "ms", "process CPU per runOnce" + Reps);
    put("runtime.steps_per_rep", median(Steps), "count", "ExecutionResult::Steps");
    put("runtime.step_us", median(StepUs), "us", "runOnce wall / steps");
    put("runtime.wait_frac", 1.0 - CpuSum / WallSum, "1", "1 - CPU / wall of runOnce");
    put("fuzzer.pauses_per_rep", Pauses / N, "count", "");
    put("fuzzer.thrashes_per_rep", Thrashes / N, "count", "");
    put("fuzzer.reproduce_frac", Matches / N, "1", "runs confirming their target cycle");

    put("runtime.overhead_x", Plain.empty() ? 0 : median(Wall) / median(Plain),
        "x",
        "runOnce / runPassthrough wall (n=" + std::to_string(Plain.size()) +
            " passthrough)");
    RepMs = median(Wall);
    return C;
  }

  void sandbox() {
    std::vector<double> Ms;
    repeat(0.3, 50, [&](unsigned) {
      uint64_t Start = nowNs();
      Tracer::Scope S("campaign.runInSandbox");
      campaign::runInSandbox([](int) { return 0; });
      Ms.push_back(nsToMs(nowNs() - Start));
    });
    put("campaign.sandbox_ms_p50", median(Ms), "ms",
        "runInSandbox, empty payload (n=" + std::to_string(Ms.size()) + ")");

    double Gap = W.SerialCommitGapMs;
    put("campaign.rep_overhead_ms", Gap - RepMs, "ms",
        "--jobs 1 commit gap p50 " + std::to_string(Gap) +
            " ms - runtime.rep_ms_p50");
  }

  void journal() {
    const std::string Dir = O.WorkDir + "/journal";
    makeDirs(Dir);
    const std::string Path = Dir + "/probe.jsonl";
    campaign::JournalWriter J;
    std::vector<double> Ms;
    if (J.open(Path, /*Truncate=*/true)) {
      repeat(0.6, 200, [&](unsigned I) {
        campaign::JsonValue Rec = campaign::JsonValue::object();
        Rec.set("event", "rep");
        Rec.set("cycle", 0u);
        Rec.set("rep", I);
        Rec.set("class", "reproduced");
        Rec.set("attempts", 1u);
        Rec.set("seed", static_cast<uint64_t>(1000 + I));
        Rec.set("wall_ms", 1.5);
        uint64_t Start = nowNs();
        Tracer::Scope S("campaign.journalAppend");
        J.append(Rec);
        Ms.push_back(nsToMs(nowNs() - Start));
      });
      J.close();
    }
    std::remove(Path.c_str());
    const std::string N = " (n=" + std::to_string(Ms.size()) + ")";
    put("campaign.journal_append_ms_p50", percentile(Ms, 50), "ms",
        "JournalWriter::append + fsync in the journal directory" + N);
    put("campaign.journal_append_ms_p99", percentile(Ms, 99), "ms", N);
  }

  Closure analysisStages() {
    const std::string Path = predictTracePath(O);
    std::vector<double> Read, Build, Closures, Prune, Predict;
    Closure Last;
    double SoundFrac = 0;
    for (unsigned I = 0; I != 3; ++I) {
      analysis::TraceFile Trace;
      uint64_t T0 = nowNs();
      {
        Tracer::Scope S("analysis.readTrace");
        analysis::readTrace(Path, Trace, nullptr);
      }
      uint64_t T1 = nowNs();
      analysis::IncrementalLogBuilder Builder(nullptr);
      {
        Tracer::Scope S("analysis.feed");
        Builder.feed(Trace.Events);
      }
      uint64_t T2 = nowNs();
      Last = timeClosure(Builder.log(), "igoodlock.runIGoodlock");
      const std::vector<AbstractCycle> &Cycles = Last.Cycles;
      uint64_t T3 = nowNs();
      {
        Tracer::Scope S("analysis.classifyCycles");
        analysis::classifyCycles(Builder.log(), Cycles);
      }
      uint64_t T4 = nowNs();
      analysis::PredictOptions POpts;
      POpts.Jobs = 2;
      std::vector<analysis::CyclePrediction> P;
      {
        Tracer::Scope S("analysis.evaluateCycles");
        P = analysis::evaluateCycles(Trace, Cycles, POpts);
      }
      uint64_t T5 = nowNs();
      Read.push_back(nsToMs(T1 - T0));
      Build.push_back(nsToMs(T2 - T1));
      Closures.push_back(Last.Ms);
      Prune.push_back(nsToMs(T4 - T3));
      Predict.push_back(nsToMs(T5 - T4));
      size_t Sound = 0;
      for (const analysis::CyclePrediction &C : P)
        Sound += C.sound();
      SoundFrac = P.empty() ? 0 : static_cast<double>(Sound) / P.size();
    }
    put("analysis.read_ms", median(Read), "ms", "readTrace (median of 3)");
    put("analysis.logbuild_ms", median(Build), "ms", "IncrementalLogBuilder::feed");
    put("analysis.prune_ms", median(Prune), "ms", "classifyCycles");
    put("analysis.predict_ms", median(Predict), "ms",
        "evaluateCycles, 2 jobs (the verdict pass of predictDeadlocks)");
    put("analysis.sound_frac", SoundFrac, "1", "PREDICTED-SOUND / cycles");
    Last.Ms = median(Closures);
    return Last;
  }

  /// Replays the plan's event sequence through an in-process ring — what
  /// the preload writes and dlf-observe drains — in 50 ms epochs of the
  /// plan's schedule, re-running the closure after each epoch as the
  /// observer does.
  Closure ring() {
    ObservePlan Plan;
    std::string Text;
    readFile(observePlanPath(O), Text);
    ObservePlan::parse(Text, Plan, nullptr);

    int Fd = -1;
    std::string Err;
    std::unique_ptr<ring::RingReader> Reader(
        ring::RingReader::createMemfd(8, 4096, &Fd, &Err));
    std::unique_ptr<ring::RingWriter> Writer(
        Reader ? ring::RingWriter::attachFd(Fd, &Err) : nullptr);
    if (!Writer) {
      R.fail("ring probe", {Err});
      return {};
    }
    std::vector<ring::ShardHandle> Shards;
    for (unsigned T = 0; T != Plan.Threads; ++T)
      Shards.push_back(Writer->claimShard());
    const uint32_t Main = Writer->internSite("main");
    const uint32_t Spawn = Writer->internSite("perfbench-target:spawn");
    const uint32_t Prologue = Writer->internSite("perfbench-target:touchLock");
    const uint32_t Outer = Writer->internSite("perfbench-target:runOp+outer");
    const uint32_t Inner = Writer->internSite("perfbench-target:runOp+inner");
    auto Addr = [](unsigned Lock) { return 0x10000u + 64u * Lock; };

    ring::Assembler Asm(*Reader);
    analysis::IncrementalLogBuilder Builder(nullptr);
    std::vector<ring::Record> Batch;
    std::vector<analysis::TraceEvent> Events;
    uint64_t Records = 0;
    double WriteNs = 0, DrainUs = 0, AssembleUs = 0;
    std::vector<double> EpochClosure;
    auto Write = [&](unsigned T, ring::RecordKind K, uint64_t A, uint32_t Site) {
      Writer->write(Shards[T], K, T + 1, A, Site);
      ++Records;
    };
    auto Epoch = [&]() {
      Batch.clear();
      Events.clear();
      uint64_t T0 = nowNs();
      {
        Tracer::Scope S("ring.drainPass");
        Reader->drainPass(Batch);
      }
      uint64_t T1 = nowNs();
      {
        Tracer::Scope S("ring.assemble");
        Asm.feed(Batch, Events);
      }
      uint64_t T2 = nowNs();
      DrainUs += nsToMs(T1 - T0) * 1e3;
      AssembleUs += nsToMs(T2 - T1) * 1e3;
      {
        Tracer::Scope S("analysis.feed");
        Builder.feed(Events);
      }
      EpochClosure.push_back(timeClosure(Builder.log(), "igoodlock.epochClosure").Ms);
    };

    uint64_t Start = nowNs();
    {
      Tracer::Scope S("ring.write");
      Write(0, ring::RecordKind::ThreadSelf, 0, Main);
      for (unsigned L = 0; L != Plan.Locks; ++L) {
        Write(0, ring::RecordKind::Acquire, Addr(L), Prologue);
        Write(0, ring::RecordKind::Release, Addr(L), 0);
      }
      for (unsigned T = 1; T != Plan.Threads; ++T)
        Write(0, ring::RecordKind::ThreadFork, T + 1, Spawn);
    }
    WriteNs += static_cast<double>(nowNs() - Start);
    Epoch();
    const size_t OpsPerEpoch =
        std::max<size_t>(1, static_cast<size_t>(Plan.OpsPerSecond * 0.05));
    for (size_t K = 0; K < Plan.Ops.size();) {
      uint64_t T0 = nowNs();
      {
        Tracer::Scope S("ring.write");
        for (size_t End = std::min(K + OpsPerEpoch, Plan.Ops.size()); K != End;
             ++K) {
          const ObservePlan::Op &Op = Plan.Ops[K];
          unsigned T = static_cast<unsigned>(K % Plan.Threads);
          Write(T, ring::RecordKind::Acquire, Addr(Op.Outer), Outer);
          Write(T, ring::RecordKind::Acquire, Addr(Op.Inner), Inner);
          Write(T, ring::RecordKind::Release, Addr(Op.Inner), 0);
          Write(T, ring::RecordKind::Release, Addr(Op.Outer), 0);
        }
      }
      WriteNs += static_cast<double>(nowNs() - T0);
      Epoch();
    }
    Writer->markDone();
    const double KEvents = static_cast<double>(Records) / 1e3;
    put("ring.write_ns", WriteNs / static_cast<double>(Records), "ns",
        "RingWriter::write, " + std::to_string(Records) + " records");
    put("ring.drain_us_per_kevent", DrainUs / KEvents, "us",
        "RingReader::drainPass per 1000 records");
    put("ring.assemble_us_per_kevent", AssembleUs / KEvents, "us",
        "Assembler::feed per 1000 records");
    put("ring.dropped", static_cast<double>(Writer->dropsTotal()), "count",
        "records lost to overflow");
    const std::string N = " (n=" + std::to_string(EpochClosure.size()) + " epochs)";
    put("igoodlock.epoch_closure_ms_p50", percentile(EpochClosure, 50), "ms",
        "runIGoodlock over the accumulated log per 50 ms epoch" + N);
    put("igoodlock.epoch_closure_ms_p99", percentile(EpochClosure, 99), "ms", N);
    Closure Final = timeClosure(Builder.log(), "igoodlock.runIGoodlock");
    return Final;
  }

  const RunOptions &O;
  const WorkloadOutcome &W;
  Result &R;
  double RepMs = 0;
};

} // namespace

void runLayerProbes(const RunOptions &O, const WorkloadOutcome &W,
                    Result &R) {
  Probes(O, W, R).run();
}

} // namespace perfbench
