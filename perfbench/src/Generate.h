//===- perfbench/src/Generate.h - Seeded input generators -------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's generated inputs. Both generators are pure functions of
/// their seed (a private SplitMix64, so a change to the library's own RNG
/// never changes what the benchmark feeds the program):
///
///  * the predict-offline text trace: four threads running nested
///    two-lock critical sections over three lock tiers (outer -> middle ->
///    inner, never backwards, so the background has chains but no
///    cycles), drawing from a pool of lock pairs that grows along the
///    trace — far more events than distinct dependencies — plus planted
///    ABBA inversions, some free (PREDICTED-SOUND) and some under a
///    common gate lock (guarded);
///  * the observe-stream plan: the same tiered background for three
///    threads, paced at a fixed operation rate, with planted inversions
///    whose second half waits for the first to finish, so the target
///    never really deadlocks but the analysis must report each one.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATE_H
#define PERFBENCH_GENERATE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: the generators' only source of randomness.
class SplitMix {
public:
  explicit SplitMix(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t S;
};

// -- predict-offline ------------------------------------------------------------

/// Shape of the generated trace.
struct TraceShape {
  unsigned Threads = 4;
  unsigned LocksPerTier = 10;
  unsigned Ops = 12000;
  unsigned SoundPlants = 20;
  unsigned GuardedPlants = 20;
};

/// Lock abstraction names the generator gives planted locks; a cycle whose
/// locks all carry one plant's prefix is that plant.
std::string soundPlantPrefix(unsigned I);   ///< "plant-sound-<i>-"
std::string guardedPlantPrefix(unsigned I); ///< "plant-guard-<i>-"

/// Renders the trace in the text format dlf-analyze reads.
std::string generatePredictTrace(uint64_t Seed, const TraceShape &Shape = {});

// -- observe-stream -------------------------------------------------------------

/// A paced operation schedule for the generated target. Operation k is due
/// at T0 + k / OpsPerSecond and runs on thread k % Threads: lock Outer,
/// lock Inner, unlock Inner, unlock Outer (four events). After >= 0 makes
/// the operation wait until operation After has finished.
struct ObservePlan {
  struct Op {
    unsigned Outer = 0;
    unsigned Inner = 0;
    int64_t After = -1;
  };
  unsigned Threads = 3;
  unsigned Locks = 0;
  double OpsPerSecond = 0;
  /// Pause between the prologue (every lock taken once, in index order,
  /// from one call site) and T0, so the observer has drained it.
  unsigned LeadMs = 300;
  std::vector<Op> Ops;
  /// Lock index pairs of the planted inversions.
  std::vector<std::pair<unsigned, unsigned>> Planted;

  /// Events a paced operation produces in the observer's stream.
  static constexpr unsigned EventsPerOp = 4;

  std::string serialize() const;
  static bool parse(const std::string &Text, ObservePlan &Out,
                    std::string *Error);
};

/// \p LocksPerTier sets how many distinct dependencies the background can
/// reach: 2 * LocksPerTier^2 lock pairs per thread.
ObservePlan generateObservePlan(uint64_t Seed, double Seconds,
                                double OpsPerSecond, unsigned LocksPerTier);

} // namespace perfbench

#endif // PERFBENCH_GENERATE_H
