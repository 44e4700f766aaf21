//===- tests/IncrementalClosureTest.cpp - epoch-stepped closure --------------===//
//
// The contract of IncrementalIGoodlock, dlf-observe's per-epoch closure:
// after every step over a growing log, the cycle count equals what a full
// runIGoodlock over the same log reports, and the chains the steps
// materialize add up to the full run's (each chain is built exactly once).
// Randomized logs are fed in epochs of random size, over mutexes and
// rwlock modes, with guarded cycles kept, with the happens-before filter,
// past 64 distinct locks (where the held-set masks fold lossily), sharded
// across workers, and with a MaxChains small enough to force the fallback
// to full runs.
//
// Also pins the dedup-first LockDependencyLog::onAcquireExecuted against
// a reference that builds every entry before hashing it: same entries, in
// the same order, and the same acquire count.
//
//===----------------------------------------------------------------------===//

#include "igoodlock/IGoodlock.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_set>
#include <vector>

namespace {

using namespace dlf;

/// One observed acquire, ready to feed to a log.
struct Acquire {
  uint64_t Thread = 0;
  std::vector<LockStackEntry> Held;
  uint64_t Lock = 0;
  Label Site;
  LockMode Mode = LockMode::Exclusive;
  VectorClock Clock;
};

struct StreamShape {
  unsigned Threads = 5;
  unsigned Locks = 8;
  unsigned Acquires = 120;
  unsigned HeldMax = 3;
  /// Percent of holds and acquires taken in shared (read) mode.
  unsigned SharedPct = 0;
  bool WithClocks = false;
  /// Distinct acquire sites per lock: more sites, fewer duplicates.
  unsigned SitesPerLock = 2;
};

Label site(uint64_t Lock, unsigned Variant) {
  return Label::intern("inc:" + std::to_string(Lock) + "/" +
                       std::to_string(Variant));
}

/// A random acquire stream. Repeats are frequent (few sites per lock), so
/// the dedup path and epochs that add nothing new both get exercised.
std::vector<Acquire> randomStream(uint32_t Seed, const StreamShape &Shape) {
  std::mt19937 Rng(Seed);
  auto Rand = [&](unsigned N) { return static_cast<unsigned>(Rng() % N); };
  auto RandMode = [&] {
    return Rand(100) < Shape.SharedPct ? LockMode::Shared
                                       : LockMode::Exclusive;
  };
  std::vector<Acquire> Out;
  for (unsigned I = 0; I != Shape.Acquires; ++I) {
    Acquire A;
    A.Thread = 1 + Rand(Shape.Threads);
    unsigned HeldCount = Rand(Shape.HeldMax + 1);
    for (unsigned H = 0; H != HeldCount; ++H) {
      uint64_t L = 1 + Rand(Shape.Locks);
      bool Dup = false;
      for (const LockStackEntry &E : A.Held)
        Dup |= E.Lock == LockId(L);
      if (!Dup)
        A.Held.push_back({LockId(L), site(L, Rand(Shape.SitesPerLock)),
                          RandMode()});
    }
    A.Lock = 1 + Rand(Shape.Locks);
    A.Site = site(A.Lock, Rand(Shape.SitesPerLock));
    A.Mode = RandMode();
    if (Shape.WithClocks) {
      A.Clock.resize(Shape.Threads, 0);
      for (unsigned C = 0; C != Shape.Threads; ++C)
        A.Clock[C] = Rand(4);
    }
    Out.push_back(std::move(A));
  }
  return Out;
}

ThreadRecord threadRecord(uint64_t Id) {
  ThreadRecord T;
  T.Id = ThreadId(Id);
  T.Name = "t" + std::to_string(Id);
  T.Abs.Index.Elements = {static_cast<uint32_t>(Id), 1};
  return T;
}

LockRecord lockRecord(uint64_t Id) {
  LockRecord L;
  L.Id = LockId(Id);
  L.Name = "l" + std::to_string(Id);
  L.Abs.Index.Elements = {static_cast<uint32_t>(Id), 1};
  return L;
}

/// Feeds one acquire, registering its thread and locks at first sight (the
/// metadata a log's entries name never changes afterwards).
void feed(LockDependencyLog &Log, std::unordered_set<uint64_t> &SeenThreads,
          std::unordered_set<uint64_t> &SeenLocks, const Acquire &A) {
  if (SeenThreads.insert(A.Thread).second)
    Log.onThreadCreated(threadRecord(A.Thread));
  for (const LockStackEntry &E : A.Held)
    if (SeenLocks.insert(E.Lock.Raw).second)
      Log.onLockCreated(lockRecord(E.Lock.Raw));
  if (SeenLocks.insert(A.Lock).second)
    Log.onLockCreated(lockRecord(A.Lock));
  ThreadRecord T = threadRecord(A.Thread);
  T.Clock = A.Clock;
  Log.onAcquireExecuted(T, lockRecord(A.Lock), A.Held, A.Site, A.Mode);
}

struct EpochRun {
  uint64_t Steps = 0;
  uint64_t FullRuns = 0;
  size_t FinalCycles = 0;
};

/// Feeds \p Stream in epochs of random size (some empty), stepping the
/// incremental closure after each and checking it against a full run.
EpochRun checkEpochs(const std::vector<Acquire> &Stream,
                     const IGoodlockOptions &Opts, uint32_t Seed,
                     unsigned MaxEpoch) {
  std::mt19937 Rng(Seed * 7919u + 1);
  LockDependencyLog Log;
  std::unordered_set<uint64_t> SeenThreads, SeenLocks;
  IncrementalIGoodlock Inc(Opts);
  EpochRun Run;
  uint64_t StepChains = 0;
  size_t Next = 0;
  while (true) {
    size_t End = std::min(Stream.size(), Next + Rng() % (MaxEpoch + 1));
    for (; Next != End; ++Next)
      feed(Log, SeenThreads, SeenLocks, Stream[Next]);
    IGoodlockStats StepStats, FullStats;
    const uint64_t FullRunsBefore = Inc.fullRuns();
    size_t Count = Inc.step(Log, &StepStats);
    // Once a level has been cut, every later step is a full run.
    if (FullRunsBefore) {
      EXPECT_EQ(Inc.fullRuns(), FullRunsBefore + 1) << "seed " << Seed;
    }
    size_t Full = runIGoodlock(Log, Opts, &FullStats).size();
    ++Run.Steps;
    EXPECT_EQ(Count, Full) << "seed " << Seed << " step " << Run.Steps
                           << " entries " << Log.entries().size();
    EXPECT_EQ(StepStats.Entries, Log.entries().size());
    if (Inc.fullRuns() == 0) {
      // Each chain is materialized by exactly one step.
      StepChains += StepStats.ChainsExplored;
      EXPECT_EQ(StepChains, FullStats.ChainsExplored)
          << "seed " << Seed << " step " << Run.Steps;
      EXPECT_FALSE(FullStats.Truncated && FullStats.ChainsDropped);
    }
    Run.FinalCycles = Count;
    if (Next == Stream.size())
      break;
  }
  Run.FullRuns = Inc.fullRuns();
  return Run;
}

constexpr uint32_t Seeds = 20;

TEST(IncrementalClosure, MatchesFullRunAfterEveryEpoch) {
  size_t Cycles = 0;
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed) {
    EpochRun R = checkEpochs(randomStream(Seed, {}), {}, Seed, 12);
    EXPECT_EQ(R.FullRuns, 0u) << "seed " << Seed;
    Cycles += R.FinalCycles;
  }
  EXPECT_GT(Cycles, 0u) << "the streams should close some cycles";
}

TEST(IncrementalClosure, RwlockModes) {
  StreamShape Shape;
  Shape.SharedPct = 40;
  size_t Cycles = 0;
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed)
    Cycles += checkEpochs(randomStream(100 + Seed, Shape), {}, Seed, 10)
                  .FinalCycles;
  EXPECT_GT(Cycles, 0u);
}

TEST(IncrementalClosure, KeepGuardedCycles) {
  IGoodlockOptions Opts;
  Opts.KeepGuardedCycles = true;
  Opts.MaxCycleLength = 4;
  StreamShape Shape;
  Shape.SharedPct = 20;
  Shape.Acquires = 90;
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed)
    checkEpochs(randomStream(200 + Seed, Shape), Opts, Seed, 10);
}

TEST(IncrementalClosure, FilterByHappensBefore) {
  IGoodlockOptions Opts;
  Opts.FilterByHappensBefore = true;
  StreamShape Shape;
  Shape.WithClocks = true;
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed)
    checkEpochs(randomStream(300 + Seed, Shape), Opts, Seed, 15);
}

TEST(IncrementalClosure, MoreThan64LocksFoldMasks) {
  // The lock count crosses 64 mid-stream, so early epochs run with exact
  // masks and later ones with the lossy fold and its sorted fallback.
  StreamShape Shape;
  Shape.Threads = 6;
  Shape.Locks = 90;
  Shape.Acquires = 400;
  Shape.HeldMax = 4;
  Shape.SitesPerLock = 1;
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed)
    checkEpochs(randomStream(400 + Seed, Shape), {}, Seed, 40);
}

TEST(IncrementalClosure, ShardedStepsMatch) {
  IGoodlockOptions Opts;
  Opts.AnalysisJobs = 3;
  Opts.MinChainsPerShard = 1;
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed)
    checkEpochs(randomStream(500 + Seed, {}), Opts, Seed, 12);
}

TEST(IncrementalClosure, MaxChainsForcesFullRuns) {
  IGoodlockOptions Opts;
  Opts.MaxChains = 12;
  Opts.KeepGuardedCycles = true;
  uint64_t FullRuns = 0;
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed)
    FullRuns += checkEpochs(randomStream(600 + Seed, {}), Opts, Seed, 8)
                    .FullRuns;
  EXPECT_GT(FullRuns, 0u) << "MaxChains should have forced the fallback";
}

TEST(IncrementalClosure, EmptyAndRepeatedStepsAreStable) {
  LockDependencyLog Log;
  IncrementalIGoodlock Inc;
  EXPECT_EQ(Inc.step(Log), 0u);
  std::unordered_set<uint64_t> SeenThreads, SeenLocks;
  // The textbook ABBA pair.
  Acquire A;
  A.Thread = 1;
  A.Held = {{LockId(1), site(1, 0)}};
  A.Lock = 2;
  A.Site = site(2, 0);
  Acquire B;
  B.Thread = 2;
  B.Held = {{LockId(2), site(2, 1)}};
  B.Lock = 1;
  B.Site = site(1, 1);
  feed(Log, SeenThreads, SeenLocks, A);
  EXPECT_EQ(Inc.step(Log), 0u);
  feed(Log, SeenThreads, SeenLocks, B);
  IGoodlockStats Stats;
  EXPECT_EQ(Inc.step(Log, &Stats), 1u);
  // Nothing new: the step does no work and the count holds.
  EXPECT_EQ(Inc.step(Log, &Stats), 1u);
  EXPECT_EQ(Stats.ChainsExplored, 0u);
  EXPECT_EQ(Inc.fullRuns(), 0u);
}

//===----------------------------------------------------------------------===//
// Dedup-first onAcquireExecuted.
//===----------------------------------------------------------------------===//

/// The build-then-hash dedup the recorder used before hashing the held
/// stack directly: materialize the entry, key its fields, keep it if new.
struct ReferenceLog {
  std::vector<DependencyEntry> Entries;
  std::unordered_set<Hash128> Seen;
  uint64_t AcquireEvents = 0;

  void onAcquire(ThreadId Thread, LockId Lock,
                 const std::vector<LockStackEntry> &HeldBefore, Label Site,
                 LockMode Mode, const VectorClock &Clock) {
    ++AcquireEvents;
    DependencyEntry Entry;
    Entry.Thread = Thread;
    Entry.Acquired = Lock;
    Entry.AcquiredMode = Mode;
    for (const LockStackEntry &E : HeldBefore) {
      Entry.Held.push_back(E.Lock);
      Entry.HeldModes.push_back(E.Mode);
      Entry.Context.push_back(E.Site);
    }
    Entry.Context.push_back(Site);
    Entry.Clock = Clock;
    Hasher128 Key;
    Key.add(Entry.Thread.Raw);
    Key.add(Entry.Acquired.Raw);
    Key.add(static_cast<uint64_t>(Entry.AcquiredMode));
    Key.add(Entry.Held.size());
    for (LockId Held : Entry.Held)
      Key.add(Held.Raw);
    for (LockMode M : Entry.HeldModes)
      Key.add(static_cast<uint64_t>(M));
    Key.add(Entry.Context.size());
    for (Label C : Entry.Context)
      Key.add(C.raw());
    if (Seen.insert(Key.finish()).second)
      Entries.push_back(std::move(Entry));
  }
};

TEST(IncrementalClosure, DedupFirstKeepsEntriesAndOrder) {
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed) {
    StreamShape Shape;
    Shape.SharedPct = 30;
    Shape.WithClocks = true;
    Shape.Acquires = 300;
    std::vector<Acquire> Stream = randomStream(700 + Seed, Shape);
    LockDependencyLog Log;
    std::unordered_set<uint64_t> SeenThreads, SeenLocks;
    ReferenceLog Ref;
    for (const Acquire &A : Stream) {
      feed(Log, SeenThreads, SeenLocks, A);
      Ref.onAcquire(ThreadId(A.Thread), LockId(A.Lock), A.Held, A.Site,
                    A.Mode, A.Clock);
    }
    EXPECT_EQ(Log.acquireEvents(), Ref.AcquireEvents);
    ASSERT_EQ(Log.entries().size(), Ref.Entries.size()) << "seed " << Seed;
    EXPECT_LT(Log.entries().size(), Stream.size()) << "no duplicates seen";
    for (size_t I = 0; I != Ref.Entries.size(); ++I) {
      const DependencyEntry &Got = Log.entries()[I];
      const DependencyEntry &Want = Ref.Entries[I];
      EXPECT_EQ(Got.Thread, Want.Thread) << "seed " << Seed << " entry " << I;
      EXPECT_EQ(Got.Acquired, Want.Acquired);
      EXPECT_EQ(Got.AcquiredMode, Want.AcquiredMode);
      EXPECT_EQ(Got.Held, Want.Held);
      EXPECT_EQ(Got.HeldModes, Want.HeldModes);
      EXPECT_EQ(Got.Context, Want.Context);
      EXPECT_EQ(Got.Clock, Want.Clock);
    }
  }
}

} // namespace
