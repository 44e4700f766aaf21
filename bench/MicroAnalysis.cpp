//===- bench/MicroAnalysis.cpp - Offline-analysis micro-benchmarks ---------===//
//
// Measures the two trace-analysis passes added with the static-analysis
// suite: the guard-lock cycle pruner (cost vs. number of witnessing
// assignments it has to enumerate) and the lockset + vector-clock race
// detector (cost vs. trace size, and the scaling of its sharded
// pair-checking pass across worker counts). Also the observer's per-event
// path into the dependency log: IncrementalLogBuilder::feed over
// observe-like epochs (cost vs. lock-stack depth).
//
//===----------------------------------------------------------------------===//

#include "analysis/GuardPruner.h"
#include "analysis/LogBuilder.h"
#include "analysis/RaceDetector.h"
#include "analysis/Trace.h"
#include "igoodlock/IGoodlock.h"
#include "runtime/Records.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace dlf;
using namespace dlf::analysis;

namespace {

void addThread(LockDependencyLog &Log, uint64_t Tid) {
  ThreadRecord T;
  T.Id = ThreadId(Tid);
  T.Name = "t" + std::to_string(Tid);
  Log.onThreadCreated(T);
}

void addLock(LockDependencyLog &Log, uint64_t Lid) {
  LockRecord L;
  L.Id = LockId(Lid);
  L.Name = "l" + std::to_string(Lid);
  Log.onLockCreated(L);
}

void addEntry(LockDependencyLog &Log, uint64_t Tid,
              const std::vector<uint64_t> &Held, uint64_t Acq,
              const std::string &SiteTag) {
  ThreadRecord T;
  T.Id = ThreadId(Tid);
  LockRecord L;
  L.Id = LockId(Acq);
  std::vector<LockStackEntry> Stack;
  for (uint64_t H : Held)
    Stack.push_back({LockId(H), Label::intern("site:" + SiteTag + ":" +
                                              std::to_string(H))});
  Log.onAcquireExecuted(
      T, L, Stack,
      Label::intern("site:" + SiteTag + ":" + std::to_string(Acq)),
      LockMode::Exclusive);
}

/// A gate-guarded inversion whose components re-occur at \p Occurrences
/// distinct sites each: the pruner enumerates Occurrences^2 assignments
/// per cycle, all guarded.
void buildGuardedLog(LockDependencyLog &Log, std::vector<AbstractCycle> &Cycles,
                     uint64_t Occurrences) {
  addThread(Log, 1);
  addThread(Log, 2);
  addLock(Log, 10);
  addLock(Log, 11);
  addLock(Log, 12);
  for (uint64_t O = 0; O != Occurrences; ++O) {
    std::string Tag = std::to_string(O);
    addEntry(Log, 1, {10, 11}, 12, "a" + Tag);
    addEntry(Log, 2, {10, 12}, 11, "b" + Tag);
  }
  IGoodlockOptions Opts;
  Opts.KeepGuardedCycles = true;
  Cycles = runIGoodlock(Log, Opts);
}

void BM_GuardPrune(benchmark::State &State) {
  LockDependencyLog Log;
  std::vector<AbstractCycle> Cycles;
  buildGuardedLog(Log, Cycles, static_cast<uint64_t>(State.range(0)));
  uint64_t Guarded = 0;
  for (auto _ : State) {
    std::vector<CycleClassification> Classes = classifyCycles(Log, Cycles);
    for (const CycleClassification &C : Classes)
      Guarded += C.Class == CycleClass::Guarded;
    benchmark::DoNotOptimize(Classes);
  }
  State.counters["cycles"] = static_cast<double>(Cycles.size());
  State.counters["guarded"] =
      static_cast<double>(Guarded) / State.iterations();
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Cycles.size()));
}
BENCHMARK(BM_GuardPrune)->Arg(1)->Arg(4)->Arg(16);

/// A synthetic access trace: \p Objects shared objects, each touched by
/// two forked threads at several sites, half the objects lock-protected
/// (no race) and half bare (racy).
TraceFile buildAccessTrace(uint64_t Objects) {
  TraceFile Trace;
  auto Add = [&Trace](TraceEvent::Kind K, uint64_t A, uint64_t B,
                      std::string Text) {
    TraceEvent E;
    E.K = K;
    E.A = A;
    E.B = B;
    E.Text = std::move(Text);
    Trace.Events.push_back(std::move(E));
  };
  Add(TraceEvent::Kind::ThreadNew, 1, 0, "main");
  Add(TraceEvent::Kind::ThreadNew, 2, 0, "w2");
  Add(TraceEvent::Kind::ThreadNew, 3, 0, "w3");
  Add(TraceEvent::Kind::Fork, 1, 2, "");
  Add(TraceEvent::Kind::Fork, 1, 3, "");
  Add(TraceEvent::Kind::LockNew, 50, 0, "lock");
  for (uint64_t O = 0; O != Objects; ++O) {
    uint64_t Oid = 100 + O;
    Add(TraceEvent::Kind::ObjectNew, Oid, 0, "obj#" + std::to_string(O));
    bool Protected = (O % 2) == 0;
    for (uint64_t Tid : {uint64_t(2), uint64_t(3)}) {
      if (Protected)
        Add(TraceEvent::Kind::Acquire, Tid, 50, "acq");
      Add(TraceEvent::Kind::Write, Tid, Oid,
          "store" + std::to_string(Tid) + "." + std::to_string(O));
      Add(TraceEvent::Kind::Read, Tid, Oid,
          "load" + std::to_string(Tid) + "." + std::to_string(O));
      if (Protected)
        Add(TraceEvent::Kind::Release, Tid, 50, "");
    }
  }
  return Trace;
}

void BM_RacePass(benchmark::State &State) {
  TraceFile Trace = buildAccessTrace(static_cast<uint64_t>(State.range(0)));
  RaceDetectorOptions Opts;
  Opts.Jobs = static_cast<unsigned>(State.range(1));
  uint64_t Pairs = 0;
  for (auto _ : State) {
    RaceAnalysis R = detectRaces(Trace, Opts);
    Pairs += R.RacyPairs;
    benchmark::DoNotOptimize(R);
  }
  State.counters["racy_pairs"] =
      static_cast<double>(Pairs) / State.iterations();
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Trace.Events.size()));
}
BENCHMARK(BM_RacePass)
    ->Args({64, 1})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({4096, 1})
    ->Args({4096, 4});

/// Observe-like epochs for the log builder: 4 threads each run one of 64
/// fixed nested acquisition paths of \p Depth locks (drawn from 32 locks),
/// then release in reverse, the way the ring assembler hands events over
/// (sites interned, releases bare). After the first pass every acquire is
/// a duplicate — the observer's steady state.
std::vector<std::vector<TraceEvent>> buildObserveEpochs(unsigned Depth,
                                                        size_t EpochEvents,
                                                        size_t Epochs) {
  constexpr unsigned Threads = 4, Locks = 32, Paths = 64;
  Rng R(Depth);
  std::vector<std::vector<uint64_t>> PathLocks(Paths);
  std::vector<std::vector<Label>> PathSites(Paths);
  for (unsigned P = 0; P != Paths; ++P) {
    while (PathLocks[P].size() != Depth) {
      uint64_t L = 1 + R.nextBelow(Locks);
      bool Dup = false;
      for (uint64_t H : PathLocks[P])
        Dup |= H == L;
      if (Dup)
        continue;
      PathLocks[P].push_back(L);
      PathSites[P].push_back(Label::intern("obs:" + std::to_string(L) + "/" +
                                           std::to_string(R.nextBelow(2))));
    }
  }
  std::vector<std::vector<TraceEvent>> Out(Epochs);
  for (std::vector<TraceEvent> &Epoch : Out) {
    while (Epoch.size() + 2 * Depth <= EpochEvents) {
      uint64_t Tid = 1 + R.nextBelow(Threads);
      unsigned P = static_cast<unsigned>(R.nextBelow(Paths));
      for (unsigned I = 0; I != Depth; ++I) {
        TraceEvent &E = Epoch.emplace_back();
        E.K = TraceEvent::Kind::Acquire;
        E.A = Tid;
        E.B = PathLocks[P][I];
        E.Interned = PathSites[P][I];
      }
      for (unsigned I = Depth; I-- > 0;) {
        TraceEvent &E = Epoch.emplace_back();
        E.K = TraceEvent::Kind::Release;
        E.A = Tid;
        E.B = PathLocks[P][I];
      }
    }
  }
  // The introductions go first, in the first epoch.
  std::vector<TraceEvent> Intro;
  for (uint64_t T = 1; T <= Threads; ++T) {
    TraceEvent &E = Intro.emplace_back();
    E.K = TraceEvent::Kind::ThreadNew;
    E.A = T;
    E.Text = "t" + std::to_string(T);
  }
  for (uint64_t L = 1; L <= Locks; ++L) {
    TraceEvent &E = Intro.emplace_back();
    E.K = TraceEvent::Kind::LockNew;
    E.A = L;
    E.Text = "l" + std::to_string(L);
  }
  Out.front().insert(Out.front().begin(), Intro.begin(), Intro.end());
  return Out;
}

void BM_LogBuilderFeed(benchmark::State &State) {
  constexpr size_t EpochEvents = 4000, Epochs = 16;
  std::vector<std::vector<TraceEvent>> Stream = buildObserveEpochs(
      static_cast<unsigned>(State.range(0)), EpochEvents, Epochs);
  IncrementalLogBuilder Builder;
  for (const std::vector<TraceEvent> &Epoch : Stream)
    Builder.feed(Epoch);
  size_t Next = 0;
  int64_t Events = 0;
  for (auto _ : State) {
    const std::vector<TraceEvent> &Epoch = Stream[Next];
    Next = (Next + 1) % Epochs;
    Builder.feed(Epoch);
    Events += static_cast<int64_t>(Epoch.size());
  }
  State.counters["entries"] =
      static_cast<double>(Builder.log().entries().size());
  State.SetItemsProcessed(Events);
}
BENCHMARK(BM_LogBuilderFeed)->Arg(1)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
