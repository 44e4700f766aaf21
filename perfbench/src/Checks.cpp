//===- perfbench/src/Checks.cpp - Output checks ---------------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Generate.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>

namespace perfbench {

Errors checkSame(const std::string &What, const std::string &Got,
                 const std::string &Want) {
  if (Got == Want)
    return {};
  size_t At = 0;
  while (At < Got.size() && At < Want.size() && Got[At] == Want[At])
    ++At;
  return {What + " differs at byte " + std::to_string(At) + " (got " +
          std::to_string(Got.size()) + " bytes, want " +
          std::to_string(Want.size()) + ")"};
}

Errors checkConfirmsAll(const std::vector<unsigned> &ReproducedPerCycle,
                        size_t ExpectedCycles) {
  Errors E;
  if (ReproducedPerCycle.size() != ExpectedCycles)
    E.push_back("found " + std::to_string(ReproducedPerCycle.size()) +
                " cycle(s), want " + std::to_string(ExpectedCycles));
  for (size_t I = 0; I != ReproducedPerCycle.size(); ++I)
    if (ReproducedPerCycle[I] == 0)
      E.push_back("cycle #" + std::to_string(I) + " never confirmed");
  return E;
}

namespace {

/// Which plant a cycle is: every lock name starts with the same plant
/// prefix. Returns -1 when the locks belong to no single plant.
int plantOf(const GradedCycle &C, unsigned Count,
            std::string (*Prefix)(unsigned)) {
  for (unsigned I = 0; I != Count; ++I) {
    const std::string P = Prefix(I);
    bool All = !C.Locks.empty();
    for (const std::string &L : C.Locks)
      All &= L.compare(0, P.size(), P) == 0;
    if (All)
      return static_cast<int>(I);
  }
  return -1;
}

} // namespace

Errors checkPredictVerdicts(const std::vector<GradedCycle> &Cycles,
                            unsigned SoundPlants, unsigned GuardedPlants) {
  Errors E;
  std::vector<unsigned> SoundSeen(SoundPlants), GuardedSeen(GuardedPlants);
  for (size_t I = 0; I != Cycles.size(); ++I) {
    const GradedCycle &C = Cycles[I];
    int S = plantOf(C, SoundPlants, soundPlantPrefix);
    int G = plantOf(C, GuardedPlants, guardedPlantPrefix);
    std::string Name = "cycle #" + std::to_string(I);
    if (S >= 0) {
      ++SoundSeen[static_cast<size_t>(S)];
      if (!C.Sound)
        E.push_back(Name + " (free plant " + std::to_string(S) +
                    ") is not PREDICTED-SOUND");
    } else if (G >= 0) {
      ++GuardedSeen[static_cast<size_t>(G)];
      if (C.Sound)
        E.push_back(Name + " (guarded plant " + std::to_string(G) +
                    ") is PREDICTED-SOUND");
    } else {
      E.push_back(Name + " is not a planted inversion");
    }
  }
  for (unsigned I = 0; I != SoundPlants; ++I)
    if (SoundSeen[I] != 1)
      E.push_back("free plant " + std::to_string(I) + " reported " +
                  std::to_string(SoundSeen[I]) + " time(s), want 1");
  for (unsigned I = 0; I != GuardedPlants; ++I)
    if (GuardedSeen[I] != 1)
      E.push_back("guarded plant " + std::to_string(I) + " reported " +
                  std::to_string(GuardedSeen[I]) + " time(s), want 1");
  return E;
}

Errors checkObservedCycles(
    const std::string &Report,
    const std::vector<std::pair<unsigned, unsigned>> &Planted) {
  Errors E;
  std::multiset<std::pair<unsigned, unsigned>> Seen;
  std::istringstream IS(Report);
  std::string Line;
  const std::string Tag = "cycle-spec: ";
  while (std::getline(IS, Line)) {
    if (Line.compare(0, Tag.size(), Tag) != 0)
      continue;
    // <thread>|<lock>|<ctx,...> per component, ';'-separated.
    std::vector<unsigned> Locks;
    std::istringstream CS(Line.substr(Tag.size()));
    std::string Comp;
    while (std::getline(CS, Comp, ';')) {
      size_t A = Comp.find('|');
      size_t B = A == std::string::npos ? A : Comp.find('|', A + 1);
      std::string Lock = B == std::string::npos ? "" : Comp.substr(A + 1, B - A - 1);
      size_t Hash = Lock.rfind('#');
      unsigned N = 0;
      if (Hash != std::string::npos)
        N = static_cast<unsigned>(std::strtoul(Lock.c_str() + Hash + 1, nullptr, 10));
      if (N == 0) {
        E.push_back("cycle lock '" + Lock + "' carries no #<n> abstraction");
        continue;
      }
      Locks.push_back(N - 1);
    }
    std::sort(Locks.begin(), Locks.end());
    if (Locks.size() == 2)
      Seen.insert({Locks[0], Locks[1]});
    else
      E.push_back("cycle '" + Line.substr(Tag.size()) +
                  "' is not a two-lock inversion");
  }
  std::multiset<std::pair<unsigned, unsigned>> Want;
  for (auto P : Planted)
    Want.insert({std::min(P.first, P.second), std::max(P.first, P.second)});
  if (Seen != Want) {
    std::ostringstream OS;
    OS << "reported lock pairs {";
    for (auto P : Seen)
      OS << " " << P.first << "/" << P.second;
    OS << " } != planted {";
    for (auto P : Want)
      OS << " " << P.first << "/" << P.second;
    OS << " }";
    E.push_back(OS.str());
  }
  return E;
}

} // namespace perfbench
