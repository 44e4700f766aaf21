//===- perfbench/src/Generate.cpp - Seeded input generators ---------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Generate.h"

#include <sstream>

namespace perfbench {

namespace {

/// The tiered background's lock pairs: every (outer, middle) and every
/// (middle, inner) pair, in a seeded order. Taking them only in this
/// direction gives the closure chains (outer -> middle -> inner across
/// threads) but never a cycle.
std::vector<std::pair<unsigned, unsigned>> tierPairs(SplitMix &R,
                                                     unsigned PerTier) {
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned A = 0; A != PerTier; ++A)
    for (unsigned B = 0; B != PerTier; ++B) {
      Pairs.emplace_back(A, PerTier + B);
      Pairs.emplace_back(PerTier + A, 2 * PerTier + B);
    }
  for (size_t I = Pairs.size(); I > 1; --I)
    std::swap(Pairs[I - 1], Pairs[R.below(I)]);
  return Pairs;
}

/// Pool prefix in use at operation \p K of \p N: grows linearly from a
/// tenth of the pool to all of it, so distinct dependencies keep appearing.
size_t poolPrefix(size_t PoolSize, uint64_t K, uint64_t N) {
  size_t First = PoolSize / 10 ? PoolSize / 10 : 1;
  return First + static_cast<size_t>((PoolSize - First) * K / (N ? N : 1));
}

} // namespace

std::string soundPlantPrefix(unsigned I) {
  return "plant-sound-" + std::to_string(I) + "-";
}

std::string guardedPlantPrefix(unsigned I) {
  return "plant-guard-" + std::to_string(I) + "-";
}

std::string generatePredictTrace(uint64_t Seed, const TraceShape &Shape) {
  SplitMix R(Seed);
  std::ostringstream OS;
  OS << "# dlf-preload trace v1\n# perfbench predict-offline seed " << Seed
     << "\n";
  for (unsigned T = 1; T <= Shape.Threads; ++T)
    OS << "T " << T << " perfbench.c:spawn#" << T << "\n";
  for (unsigned T = 2; T <= Shape.Threads; ++T)
    OS << "F 1 " << T << "\n";

  // Lock ids: the three background tiers first, then per plant two locks
  // (and a gate for the guarded ones).
  const unsigned Tier = Shape.LocksPerTier;
  const char *TierName[] = {"outer", "middle", "inner"};
  for (unsigned L = 0; L != 3 * Tier; ++L)
    OS << "M " << (L + 1) << " bg-" << TierName[L / Tier] << "-" << L % Tier
       << "\n";
  unsigned NextLock = 3 * Tier + 1;
  struct Plant {
    bool Guarded;
    unsigned A, B, Gate;
  };
  std::vector<Plant> Plants;
  for (unsigned I = 0; I != Shape.SoundPlants + Shape.GuardedPlants; ++I) {
    bool Guarded = I >= Shape.SoundPlants;
    unsigned Idx = Guarded ? I - Shape.SoundPlants : I;
    std::string Prefix =
        Guarded ? guardedPlantPrefix(Idx) : soundPlantPrefix(Idx);
    Plant P{Guarded, NextLock, NextLock + 1, 0};
    OS << "M " << P.A << " " << Prefix << "a\n";
    OS << "M " << P.B << " " << Prefix << "b\n";
    NextLock += 2;
    if (Guarded) {
      P.Gate = NextLock++;
      OS << "M " << P.Gate << " " << Prefix << "gate\n";
    }
    Plants.push_back(P);
  }
  // Interleave plants between sound and guarded so both kinds spread
  // over the whole trace.
  std::vector<Plant> Order;
  for (unsigned I = 0; I != Plants.size(); ++I)
    Order.push_back(Plants[(I % 2 == 0 ? I / 2
                                       : Shape.SoundPlants + I / 2) %
                           Plants.size()]);

  std::vector<std::pair<unsigned, unsigned>> Pool = tierPairs(R, Tier);
  size_t NextPlant = 0;
  for (uint64_t K = 0; K != Shape.Ops; ++K) {
    // Plants sit at evenly spaced points. Each one is two back-to-back
    // operations by distinct threads, with nothing in between, so a
    // free inversion always has a witness schedule in the trace.
    if (NextPlant < Order.size() &&
        K == (NextPlant + 1) * Shape.Ops / (Order.size() + 1)) {
      const Plant &P = Order[NextPlant++];
      uint64_t T1 = 1 + R.below(Shape.Threads);
      uint64_t T2 = 1 + (T1 + R.below(Shape.Threads - 1)) % Shape.Threads;
      auto Section = [&](uint64_t T, unsigned X, unsigned Y) {
        if (P.Guarded)
          OS << "A " << T << " " << P.Gate << " plant.c:gate\n";
        OS << "A " << T << " " << X << " plant.c:first\n";
        OS << "A " << T << " " << Y << " plant.c:second\n";
        OS << "R " << T << " " << Y << "\n";
        OS << "R " << T << " " << X << "\n";
        if (P.Guarded)
          OS << "R " << T << " " << P.Gate << "\n";
      };
      Section(T1, P.A, P.B);
      Section(T2, P.B, P.A);
    }
    uint64_t T = 1 + R.below(Shape.Threads);
    const auto &Pair = Pool[R.below(poolPrefix(Pool.size(), K, Shape.Ops))];
    OS << "A " << T << " " << (Pair.first + 1) << " bg.c:outer\n";
    OS << "A " << T << " " << (Pair.second + 1) << " bg.c:inner\n";
    OS << "R " << T << " " << (Pair.second + 1) << "\n";
    OS << "R " << T << " " << (Pair.first + 1) << "\n";
  }
  return OS.str();
}

std::string ObservePlan::serialize() const {
  std::ostringstream OS;
  OS << "# perfbench observe plan v1\n";
  OS << "threads " << Threads << "\nlocks " << Locks << "\nrate "
     << OpsPerSecond << "\nlead_ms " << LeadMs << "\n";
  for (const auto &P : Planted)
    OS << "planted " << P.first << " " << P.second << "\n";
  for (const Op &O : Ops)
    OS << "op " << O.Outer << " " << O.Inner << " " << O.After << "\n";
  return OS.str();
}

bool ObservePlan::parse(const std::string &Text, ObservePlan &Out,
                        std::string *Error) {
  Out = ObservePlan();
  std::istringstream IS(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    bool Ok = true;
    if (Key == "threads") {
      Ok = static_cast<bool>(LS >> Out.Threads) && Out.Threads > 0;
    } else if (Key == "locks") {
      Ok = static_cast<bool>(LS >> Out.Locks);
    } else if (Key == "rate") {
      Ok = static_cast<bool>(LS >> Out.OpsPerSecond) && Out.OpsPerSecond > 0;
    } else if (Key == "lead_ms") {
      Ok = static_cast<bool>(LS >> Out.LeadMs);
    } else if (Key == "planted") {
      std::pair<unsigned, unsigned> P;
      Ok = static_cast<bool>(LS >> P.first >> P.second) &&
           P.first < Out.Locks && P.second < Out.Locks;
      Out.Planted.push_back(P);
    } else if (Key == "op") {
      Op O;
      Ok = static_cast<bool>(LS >> O.Outer >> O.Inner >> O.After) &&
           O.Outer < Out.Locks && O.Inner < Out.Locks &&
           O.After < static_cast<int64_t>(Out.Ops.size());
      Out.Ops.push_back(O);
    } else {
      Ok = false;
    }
    if (!Ok) {
      if (Error)
        *Error = "plan line " + std::to_string(LineNo) + ": '" + Line + "'";
      return false;
    }
  }
  if (Out.Ops.empty()) {
    if (Error)
      *Error = "plan has no operations";
    return false;
  }
  return true;
}

ObservePlan generateObservePlan(uint64_t Seed, double Seconds,
                                double OpsPerSecond, unsigned LocksPerTier) {
  SplitMix R(Seed ^ 0x6f62736572766521ull);
  const unsigned Tier = LocksPerTier;
  const unsigned PlantCount = 3;
  ObservePlan P;
  P.OpsPerSecond = OpsPerSecond;
  P.Locks = 3 * Tier + 2 * PlantCount;
  for (unsigned I = 0; I != PlantCount; ++I)
    P.Planted.emplace_back(3 * Tier + 2 * I, 3 * Tier + 2 * I + 1);

  const uint64_t N = static_cast<uint64_t>(Seconds * OpsPerSecond);
  std::vector<std::pair<unsigned, unsigned>> Pool = tierPairs(R, Tier);
  P.Ops.resize(N);
  for (uint64_t K = 0; K != N; ++K) {
    const auto &Pair = Pool[R.below(poolPrefix(Pool.size(), K, N))];
    P.Ops[K].Outer = Pair.first;
    P.Ops[K].Inner = Pair.second;
  }
  // Plant I starts at the same point of the stream for every seed, so the
  // time to the first reported cycle does not depend on the seed: the
  // first half takes (a, b), the second half — on another thread, a few
  // hundred operations later — takes (b, a) once the first half finished.
  const uint64_t Gap = 3 * 97 + 1; // not a multiple of Threads
  for (unsigned I = 0; I != PlantCount; ++I) {
    uint64_t K = (I + 1) * N / (PlantCount + 2);
    if (K + Gap >= N)
      continue;
    P.Ops[K] = {P.Planted[I].first, P.Planted[I].second, -1};
    P.Ops[K + Gap] = {P.Planted[I].second, P.Planted[I].first,
                      static_cast<int64_t>(K)};
  }
  return P;
}

} // namespace perfbench
