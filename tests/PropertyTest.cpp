//===- tests/PropertyTest.cpp - Parameterized property sweeps ----------------===//
//
// Property-style tests over seed sweeps and generated programs:
//
//  * soundness of the no-report direction: randomly generated programs
//    that follow a global lock order never produce cycles;
//  * completeness of the planted-bug direction: a random ordered program
//    with one planted inversion always produces (and confirms) it;
//  * cross-execution abstraction stability (the keystone of Phase II);
//  * scheduler invariants for every seed;
//  * invariance properties of the closure and the cycle checker.
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "fuzzer/RandomStrategy.h"
#include "fuzzer/RealDeadlockChecker.h"
#include "igoodlock/IGoodlock.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"
#include "substrates/BenchmarkRegistry.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

namespace {

using namespace dlf;

// -- Random program generation ----------------------------------------------------

struct GeneratedProgramConfig {
  unsigned Locks = 6;
  unsigned Threads = 4;
  unsigned SectionsPerThread = 5;
  unsigned MaxNesting = 3;
  bool PlantInversion = false;
};

/// Builds a program whose threads acquire random nested subsets of a lock
/// array in strictly increasing index order (deadlock-free by
/// construction), optionally planting one inverted pair.
void runGeneratedProgram(const GeneratedProgramConfig &Config,
                         uint64_t Seed) {
  DLF_SCOPE("gen::program");
  Rng R(Seed);

  std::vector<std::unique_ptr<Mutex>> Locks;
  for (unsigned I = 0; I != Config.Locks; ++I)
    Locks.push_back(std::make_unique<Mutex>(
        "gen" + std::to_string(I), DLF_NAMED_SITE("gen:newLock"), nullptr));

  // Pre-generate each thread's acquisition plan (deterministic from Seed).
  struct Section {
    std::vector<unsigned> LockIndices; // sorted ascending = ordered
  };
  std::vector<std::vector<Section>> Plans(Config.Threads);
  for (auto &Plan : Plans) {
    for (unsigned S = 0; S != Config.SectionsPerThread; ++S) {
      Section Sec;
      unsigned Depth = 1 + static_cast<unsigned>(
                               R.nextBelow(Config.MaxNesting));
      std::set<unsigned> Chosen;
      while (Chosen.size() < Depth)
        Chosen.insert(static_cast<unsigned>(R.nextBelow(Config.Locks)));
      Sec.LockIndices.assign(Chosen.begin(), Chosen.end());
      Plan.push_back(std::move(Sec));
    }
  }

  std::vector<Thread> Workers;
  for (unsigned T = 0; T != Config.Threads; ++T) {
    const auto &Plan = Plans[T];
    Workers.emplace_back(Thread(
        [&Locks, &Plan] {
          DLF_SCOPE("gen::worker");
          for (const Section &Sec : Plan) {
            std::vector<std::unique_ptr<MutexGuard>> Guards;
            for (unsigned Idx : Sec.LockIndices)
              Guards.push_back(std::make_unique<MutexGuard>(
                  *Locks[Idx], DLF_NAMED_SITE("gen:acquire")));
            yieldNow();
          }
        },
        "gen" + std::to_string(T), DLF_NAMED_SITE("gen:spawn")));
  }

  if (Config.PlantInversion) {
    // Two extra threads acquiring a dedicated pair in opposite orders,
    // with distinct sites so the planted cycle is identifiable.
    Mutex P("plantP", DLF_NAMED_SITE("gen:plantP"));
    Mutex Q("plantQ", DLF_NAMED_SITE("gen:plantQ"));
    Thread Forward(
        [&] {
          DLF_SCOPE("gen::plantForward");
          MutexGuard A(P, DLF_NAMED_SITE("plant:pq-p"));
          MutexGuard B(Q, DLF_NAMED_SITE("plant:pq-q"));
        },
        "plantFwd", DLF_NAMED_SITE("gen:plantFwdSpawn"));
    Thread Backward(
        [&] {
          DLF_SCOPE("gen::plantBackward");
          for (int I = 0; I != 6; ++I)
            yieldNow();
          MutexGuard A(Q, DLF_NAMED_SITE("plant:qp-q"));
          MutexGuard B(P, DLF_NAMED_SITE("plant:qp-p"));
        },
        "plantBwd", DLF_NAMED_SITE("gen:plantBwdSpawn"));
    Forward.join();
    Backward.join();
  }

  for (Thread &W : Workers)
    W.join();
}

class GeneratedPrograms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedPrograms, OrderedLockingNeverReportsCycles) {
  GeneratedProgramConfig Config;
  ActiveTesterConfig Tester;
  Tester.PhaseOneSeed = GetParam() * 7 + 1;
  ActiveTester T([&] { runGeneratedProgram(Config, GetParam()); }, Tester);
  PhaseOneResult P1 = T.runPhaseOne();
  EXPECT_TRUE(P1.Exec.Completed);
  EXPECT_TRUE(P1.Cycles.empty())
      << "false alarm on an ordered program, seed " << GetParam();
  EXPECT_GT(P1.Log.acquireEvents(), 0u);
}

TEST_P(GeneratedPrograms, PlantedInversionIsFoundAndConfirmed) {
  GeneratedProgramConfig Config;
  Config.PlantInversion = true;
  ActiveTesterConfig Tester;
  Tester.PhaseTwoReps = 5;
  Tester.PhaseOneSeed = GetParam() * 13 + 5;
  ActiveTester T([&] { runGeneratedProgram(Config, GetParam()); }, Tester);
  ActiveTesterReport Report = T.run();
  ASSERT_EQ(Report.PhaseOne.Cycles.size(), 1u)
      << "exactly the planted cycle must be reported";
  EXPECT_GT(Report.PerCycle[0].ReproducedTarget, 0u)
      << "planted deadlock not confirmed, seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPrograms,
                         ::testing::Range<uint64_t>(1, 9));

/// Multiple independent planted inversions in one program: the pipeline
/// must find and confirm *all* of them, not just one.
class MultiPlanted : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiPlanted, EveryPlantedCycleFoundAndConfirmed) {
  constexpr unsigned PlantCount = 3;
  auto Program = [] {
    DLF_SCOPE("mp::program");
    for (unsigned Plant = 0; Plant != PlantCount; ++Plant) {
      Mutex P("mp-p" + std::to_string(Plant), DLF_NAMED_SITE("mp:newP"));
      Mutex Q("mp-q" + std::to_string(Plant), DLF_NAMED_SITE("mp:newQ"));
      Thread Forward(
          [&] {
            DLF_SCOPE("mp::fwd");
            MutexGuard A(P, DLF_NAMED_SITE("mp:fwdP"));
            MutexGuard B(Q, DLF_NAMED_SITE("mp:fwdQ"));
          },
          "mp.fwd" + std::to_string(Plant), DLF_NAMED_SITE("mp:spawnFwd"));
      Thread Backward(
          [&] {
            DLF_SCOPE("mp::bwd");
            for (int I = 0; I != 5; ++I)
              yieldNow();
            MutexGuard A(Q, DLF_NAMED_SITE("mp:bwdQ"));
            MutexGuard B(P, DLF_NAMED_SITE("mp:bwdP"));
          },
          "mp.bwd" + std::to_string(Plant), DLF_NAMED_SITE("mp:spawnBwd"));
      Forward.join();
      Backward.join();
    }
  };

  ActiveTesterConfig Config;
  Config.PhaseTwoReps = 4;
  Config.PhaseOneSeed = GetParam() * 11 + 3;
  Config.PhaseTwoSeedBase = GetParam() * 1000;
  ActiveTester Tester(Program, Config);
  ActiveTesterReport Report = Tester.run();
  ASSERT_EQ(Report.PhaseOne.Cycles.size(), PlantCount)
      << "each planted pair has its own locks: no cross cycles";
  EXPECT_EQ(Report.confirmedCycles(), PlantCount);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiPlanted,
                         ::testing::Values(1, 2, 3, 4));

// -- Cross-execution abstraction stability ------------------------------------------

class AbstractionStability : public ::testing::TestWithParam<const char *> {};

TEST_P(AbstractionStability, PhaseOneCycleKeysAgreeAcrossSeeds) {
  const BenchmarkInfo *Info = findBenchmark(GetParam());
  ASSERT_NE(Info, nullptr);

  auto KeysForSeed = [&](uint64_t Seed) {
    ActiveTesterConfig Config;
    Config.PhaseOneSeed = Seed;
    ActiveTester Tester(Info->Entry, Config);
    PhaseOneResult P1 = Tester.runPhaseOne();
    std::set<std::string> Keys;
    for (const AbstractCycle &Cycle : P1.Cycles)
      Keys.insert(Cycle.key(AbstractionKind::ExecutionIndex, true));
    return Keys;
  };

  // Different random schedules must observe the *same* abstract cycles:
  // abstractions exist precisely to survive schedule changes.
  auto A = KeysForSeed(1);
  auto B = KeysForSeed(77);
  EXPECT_EQ(A, B) << GetParam();
  EXPECT_FALSE(A.empty());
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, AbstractionStability,
                         ::testing::Values("logging", "dbcp", "swing",
                                           "collections-lists"));

// -- Scheduler invariants over seeds ---------------------------------------------------

class SchedulerSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerSeeds, DeterministicEventCountsOnAnySchedule) {
  // The program's acquire count is schedule-independent; every seed must
  // complete with exactly that count.
  Options Opts;
  Opts.Mode = RunMode::Active;
  Opts.Seed = GetParam();
  SimpleRandomStrategy Strategy;
  Runtime RT(Opts, &Strategy);
  ExecutionResult R = RT.run([] {
    Mutex A("inv-a", DLF_SITE());
    Mutex B("inv-b", DLF_SITE());
    std::vector<Thread> Workers;
    for (int T = 0; T != 3; ++T) {
      Workers.emplace_back(Thread([&A, &B] {
        for (int I = 0; I != 7; ++I) {
          MutexGuard Outer(A, DLF_NAMED_SITE("inv:outer"));
          MutexGuard Inner(B, DLF_NAMED_SITE("inv:inner"));
        }
      }));
    }
    for (Thread &W : Workers)
      W.join();
  });
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.AcquireEvents, 3u * 7u * 2u);
  EXPECT_EQ(R.Thrashes, 0u);
  EXPECT_FALSE(R.DeadlockFound);
}

TEST_P(SchedulerSeeds, DeadlockFreeWorkloadsAlwaysComplete) {
  for (const char *Name : {"cache4j", "hedc", "jspider"}) {
    const BenchmarkInfo *Info = findBenchmark(Name);
    Options Opts;
    Opts.Mode = RunMode::Active;
    Opts.Seed = GetParam();
    SimpleRandomStrategy Strategy;
    Runtime RT(Opts, &Strategy);
    ExecutionResult R = RT.run(Info->Entry);
    EXPECT_TRUE(R.Completed) << Name << " seed " << GetParam();
    EXPECT_FALSE(R.Stalled);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// -- Closure invariances ------------------------------------------------------------

/// Builds a random relation, returning it under an arbitrary thread-id
/// permutation; cycle *count* must be invariant under renaming.
class ClosureInvariance : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosureInvariance, CycleCountInvariantUnderThreadRenaming) {
  Rng R(GetParam());
  constexpr unsigned Threads = 6, Locks = 6, Entries = 18;

  struct RawEntry {
    uint64_t Thread;
    std::vector<uint64_t> Held;
    uint64_t Acq;
  };
  std::vector<RawEntry> Raw;
  for (unsigned I = 0; I != Entries; ++I) {
    RawEntry E;
    E.Thread = 1 + R.nextBelow(Threads);
    unsigned HeldCount = 1 + static_cast<unsigned>(R.nextBelow(2));
    std::set<uint64_t> Held;
    while (Held.size() < HeldCount)
      Held.insert(1 + R.nextBelow(Locks));
    E.Held.assign(Held.begin(), Held.end());
    do {
      E.Acq = 1 + R.nextBelow(Locks);
    } while (Held.count(E.Acq));
    Raw.push_back(std::move(E));
  }

  auto CountCycles = [&](const std::vector<uint64_t> &Rename) {
    LockDependencyLog Log;
    for (const RawEntry &E : Raw) {
      ThreadRecord T;
      T.Id = ThreadId(Rename[E.Thread - 1]);
      // Abstractions track the *original* identity so the abstract cycles
      // stay comparable.
      T.Abs.Index.Elements = {static_cast<uint32_t>(E.Thread), 1};
      Log.onThreadCreated(T);
      std::vector<LockStackEntry> Stack;
      for (uint64_t H : E.Held) {
        LockRecord L;
        L.Id = LockId(H);
        L.Abs.Index.Elements = {static_cast<uint32_t>(H)};
        Log.onLockCreated(L);
        Stack.push_back(
            {LockId(H), Label::intern("inv:l" + std::to_string(H))});
      }
      LockRecord Acq;
      Acq.Id = LockId(E.Acq);
      Acq.Abs.Index.Elements = {static_cast<uint32_t>(E.Acq)};
      Log.onLockCreated(Acq);
      Log.onAcquireExecuted(T, Acq, Stack,
                            Label::intern("inv:l" + std::to_string(E.Acq)),
                            LockMode::Exclusive);
    }
    IGoodlockOptions Opts;
    Opts.MaxCycleLength = 4;
    return runIGoodlock(Log, Opts).size();
  };

  std::vector<uint64_t> Identity = {1, 2, 3, 4, 5, 6};
  std::vector<uint64_t> Permuted = {4, 6, 1, 3, 2, 5};
  EXPECT_EQ(CountCycles(Identity), CountCycles(Permuted))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureInvariance,
                         ::testing::Range<uint64_t>(1, 13));

// -- Checker invariances ----------------------------------------------------------------

class CheckerInvariance : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckerInvariance, ViewOrderDoesNotChangeExistence) {
  Rng R(GetParam() * 31 + 7);
  constexpr size_t Threads = 4, Locks = 5;

  std::vector<ThreadRecord> Records(Threads);
  std::vector<LockRecord> LockRecords(Locks);
  for (size_t I = 0; I != Threads; ++I)
    Records[I].Id = ThreadId(I + 1);
  for (size_t I = 0; I != Locks; ++I)
    LockRecords[I].Id = LockId(I + 1);

  std::vector<std::vector<LockStackEntry>> Stacks(Threads);
  for (size_t T = 0; T != Threads; ++T) {
    size_t Depth = R.nextBelow(4);
    std::set<uint64_t> Used;
    for (size_t D = 0; D != Depth; ++D) {
      uint64_t L = 1 + R.nextBelow(Locks);
      if (!Used.insert(L).second)
        continue;
      Stacks[T].push_back({LockId(L), Label::intern("ci:site")});
    }
  }

  auto Exists = [&](const std::vector<size_t> &Order) {
    std::vector<ThreadStackView> Views;
    for (size_t I : Order)
      Views.push_back({&Records[I], &Stacks[I]});
    return findRealDeadlock(Views, [&](LockId Id) -> const LockRecord & {
             return LockRecords[Id.Raw - 1];
           })
        .has_value();
  };

  std::vector<size_t> Order = {0, 1, 2, 3};
  bool Reference = Exists(Order);
  do {
    EXPECT_EQ(Exists(Order), Reference) << "seed " << GetParam();
  } while (std::next_permutation(Order.begin(), Order.end()));
}

/// Brute-force reference for Algorithm 4, independent of its search order:
/// is there a sequence of distinct threads t1..tm (m >= 2), each with view
/// positions p_i < q_i, such that t_i's wait entry q_i is t_(i+1)'s hold
/// entry p_(i+1) (cyclically), the held locks at the p_i are pairwise
/// distinct, and every wait conflicts with the hold it reaches?
bool oracleHasCycle(const std::vector<std::vector<LockStackEntry>> &Views) {
  std::vector<size_t> Seq;
  std::vector<size_t> P, Q;
  // Tries every (p_i, q_i) choice for threads Seq[I..] given the earlier ones.
  std::function<bool(size_t)> Choose = [&](size_t I) {
    size_t M = Seq.size();
    if (I == M) {
      std::set<uint64_t> Held;
      for (size_t K = 0; K != M; ++K) {
        const LockStackEntry &Wait = Views[Seq[K]][Q[K]];
        const LockStackEntry &Hold = Views[Seq[(K + 1) % M]][P[(K + 1) % M]];
        if (Wait.Lock != Hold.Lock || !lockModesConflict(Wait.Mode, Hold.Mode))
          return false;
        if (!Held.insert(Views[Seq[K]][P[K]].Lock.Raw).second)
          return false;
      }
      return true;
    }
    const auto &View = Views[Seq[I]];
    for (P[I] = 0; P[I] < View.size(); ++P[I])
      for (Q[I] = P[I] + 1; Q[I] < View.size(); ++Q[I])
        if (Choose(I + 1))
          return true;
    return false;
  };
  std::function<bool()> Grow = [&] {
    if (Seq.size() >= 2) {
      P.assign(Seq.size(), 0);
      Q.assign(Seq.size(), 0);
      if (Choose(0))
        return true;
    }
    for (size_t T = 0; T != Views.size(); ++T) {
      if (std::find(Seq.begin(), Seq.end(), T) != Seq.end())
        continue;
      Seq.push_back(T);
      bool Found = Grow();
      Seq.pop_back();
      if (Found)
        return true;
    }
    return false;
  };
  return Grow();
}

/// Random held stacks over distinct locks with random Shared/Exclusive
/// modes; with \p Pending, each thread also gets a pending tail half the
/// time. Checks findRealDeadlock's verdict against oracleHasCycle.
void checkAgainstOracle(uint64_t Seed, bool Pending) {
  Rng R(Seed * 131 + (Pending ? 17 : 3));
  constexpr size_t Threads = 4, Locks = 5, Trials = 60;
  std::vector<ThreadRecord> Records(Threads);
  std::vector<LockRecord> LockRecords(Locks);
  for (size_t I = 0; I != Threads; ++I)
    Records[I].Id = ThreadId(I + 1);
  for (size_t I = 0; I != Locks; ++I)
    LockRecords[I].Id = LockId(I + 1);
  auto RandomEntry = [&](std::set<uint64_t> &Used) {
    uint64_t L;
    do {
      L = 1 + R.nextBelow(Locks);
    } while (!Used.insert(L).second);
    return LockStackEntry{LockId(L), Label::intern("oracle:site"),
                          R.nextBelow(2) ? LockMode::Shared
                                         : LockMode::Exclusive};
  };

  size_t WithCycle = 0;
  for (size_t Trial = 0; Trial != Trials; ++Trial) {
    std::vector<std::vector<LockStackEntry>> Held(Threads);
    std::vector<LockStackEntry> Tails(Threads);
    std::vector<bool> HasTail(Threads, false);
    for (size_t T = 0; T != Threads; ++T) {
      std::set<uint64_t> Used;
      size_t Depth = R.nextBelow(Pending ? 4 : 5);
      for (size_t D = 0; D != Depth; ++D)
        Held[T].push_back(RandomEntry(Used));
      if (Pending && R.nextBelow(2)) {
        Tails[T] = RandomEntry(Used);
        HasTail[T] = true;
      }
    }

    std::vector<ThreadStackView> Views;
    std::vector<std::vector<LockStackEntry>> Flat = Held;
    for (size_t T = 0; T != Threads; ++T) {
      Views.push_back({&Records[T], &Held[T], HasTail[T] ? &Tails[T] : nullptr});
      if (HasTail[T])
        Flat[T].push_back(Tails[T]);
    }
    bool Expected = oracleHasCycle(Flat);
    WithCycle += Expected;
    auto Witness = findRealDeadlock(Views, [&](LockId Id) -> const LockRecord & {
      return LockRecords[Id.Raw - 1];
    });
    ASSERT_EQ(Witness.has_value(), Expected)
        << "seed " << Seed << " trial " << Trial;
    if (Witness) {
      EXPECT_GE(Witness->Edges.size(), 2u);
    }
  }
  // The sweep must exercise both verdicts to mean anything.
  EXPECT_GT(WithCycle, 0u) << "seed " << Seed;
  EXPECT_LT(WithCycle, Trials) << "seed " << Seed;
}

TEST_P(CheckerInvariance, RandomModesAgreeWithBruteForceOracle) {
  checkAgainstOracle(GetParam(), /*Pending=*/false);
}

TEST_P(CheckerInvariance, RandomPendingTailsAgreeWithBruteForceOracle) {
  checkAgainstOracle(GetParam(), /*Pending=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerInvariance,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
