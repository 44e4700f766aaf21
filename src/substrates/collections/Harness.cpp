//===- substrates/collections/Harness.cpp - Collections workloads ----------===//

#include "substrates/collections/Harness.h"

#include "runtime/Thread.h"
#include "substrates/Stagger.h"
#include "substrates/collections/SyncList.h"
#include "substrates/collections/SyncMap.h"

#include <array>
#include <string>

using namespace dlf;
using namespace dlf::collections;

namespace {

using ListBulkMethod = void (SyncList::*)(const SyncList &);

struct NamedListMethod {
  const char *Name;
  ListBulkMethod Method;
};

constexpr std::array<NamedListMethod, 3> ListMethods = {{
    {"addAll", &SyncList::addAll},
    {"removeAll", &SyncList::removeAll},
    {"retainAll", &SyncList::retainAll},
}};

/// Anchor object representing one collection "class" instance; registered
/// with the abstraction engine so locks created inside it get a k-object
/// parent. All classes share the anchor's creation site, which is exactly
/// why the k-object abstraction collapses them while execution indexing
/// (loop counts) does not — the Figure 2 variant-1 vs variant-2 gap.
struct ClassAnchor {
  explicit ClassAnchor(const char *ClassName) {
    DLF_NEW_OBJECT(this, nullptr);
    (void)ClassName;
  }
};

} // namespace

void collections::runListsHarness() {
  DLF_SCOPE("collections::runListsHarness");
  static constexpr std::array<const char *, 3> Classes = {
      "ArrayList", "Stack", "LinkedList"};

  for (const char *ClassName : Classes) {
    ClassAnchor Anchor(ClassName);

    // The 9 ordered method combinations, each as an isolated thread pair
    // over its own pair of lists (fresh lists per combination keep the
    // combinations independent; iGoodlock has no happens-before relation,
    // so shared lists would pair threads of *different*, join-separated
    // combinations into infeasible extra cycles). The "fast" worker
    // immediately runs l1.m(l2); the "slow" worker staggers first, so
    // unbiased schedules almost never overlap the windows (Figure 1's
    // long-running-methods pattern).
    for (const NamedListMethod &MethodA : ListMethods) {
      for (const NamedListMethod &MethodB : ListMethods) {
        SyncList L1(std::string(ClassName) + ".l1", DLF_SITE(), &Anchor);
        SyncList L2(std::string(ClassName) + ".l2", DLF_SITE(), &Anchor);
        for (int I = 0; I != 4; ++I) {
          L1.add(I);
          L2.add(I + 2);
        }
        Thread Fast(
            [&] {
              DLF_SCOPE("lists::fastWorker");
              (L1.*MethodA.Method)(L2);
            },
            std::string(ClassName) + ".fast." + MethodA.Name, DLF_SITE(),
            &Anchor);
        Thread Slow(
            [&] {
              DLF_SCOPE("lists::slowWorker");
              // Twelve yields under the Active scheduler; a real pause in
              // Record mode, where yields alone let the pair overlap.
              staggerWall(12, 2000);
              (L2.*MethodB.Method)(L1);
            },
            std::string(ClassName) + ".slow." + MethodB.Name, DLF_SITE(),
            &Anchor);
        Fast.join();
        Slow.join();
      }
    }
  }
}

void collections::runMapsHarness() {
  DLF_SCOPE("collections::runMapsHarness");
  static constexpr std::array<const char *, 5> Classes = {
      "HashMap", "TreeMap", "WeakHashMap", "LinkedHashMap", "IdentityHashMap"};

  for (const char *ClassName : Classes) {
    ClassAnchor Anchor(ClassName);
    SyncMap M1(std::string(ClassName) + ".m1", DLF_SITE(), &Anchor);
    SyncMap M2(std::string(ClassName) + ".m2", DLF_SITE(), &Anchor);
    for (int I = 0; I != 4; ++I) {
      M1.put(I, I * 10);
      M2.put(I, I * 20);
    }

    // Four concurrent workers sharing the two monitors: m1-first and
    // m2-first directions for each of equals/getAll. Any (m1-first,
    // m2-first) pair can close a cycle, so four abstract cycles exist per
    // class and Phase II often creates a non-target one first. Outside
    // the Active scheduler the staggers are real 3 ms steps, so a plain
    // run under load does not overlap the windows for real.
    Thread EqualsForward(
        [&] {
          DLF_SCOPE("maps::equalsForward");
          M1.equals(M2);
        },
        std::string(ClassName) + ".eqFwd", DLF_SITE(), &Anchor);
    Thread EqualsBackward(
        [&] {
          DLF_SCOPE("maps::equalsBackward");
          staggerWall(6, 3000);
          M2.equals(M1);
        },
        std::string(ClassName) + ".eqBwd", DLF_SITE(), &Anchor);
    Thread GetForward(
        [&] {
          DLF_SCOPE("maps::getForward");
          staggerWall(12, 6000);
          M1.getAll(M2);
        },
        std::string(ClassName) + ".getFwd", DLF_SITE(), &Anchor);
    Thread GetBackward(
        [&] {
          DLF_SCOPE("maps::getBackward");
          staggerWall(18, 9000);
          M2.getAll(M1);
        },
        std::string(ClassName) + ".getBwd", DLF_SITE(), &Anchor);

    EqualsForward.join();
    EqualsBackward.join();
    GetForward.join();
    GetBackward.join();
  }
}

void collections::runCollectionsHarness() {
  runListsHarness();
  runMapsHarness();
}
