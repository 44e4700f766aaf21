//===- fuzzer/WaitForCycle.h - Algorithm 4's cycle search --------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search at the heart of checkRealDeadlock (paper Algorithm 4), shared
/// by both Phase II front ends: the managed scheduler (through
/// findRealDeadlock) and the LD_PRELOAD interposer. It is header-only and
/// depends on the standard library alone, so libdlf_preload.so can use it
/// without linking libdlf.
///
/// Each thread contributes one view: its held lock stack, outermost first,
/// plus an optional pending entry — the acquire it is blocked on, paused
/// before, or committed to re-acquiring. An edge A -> B via thread t exists
/// when A appears before B in t's view; a cycle needs pairwise-distinct
/// threads and locks, and every hold it passes through must conflict (per
/// lockModesConflict) with the wait that reaches it, so a shared hold never
/// blocks a shared wait.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_FUZZER_WAITFORCYCLE_H
#define DLF_FUZZER_WAITFORCYCLE_H

#include "event/Ids.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace dlf {

/// One thread's view for the search. \p Entry exposes `.Lock` (LockId) and
/// `.Mode` (LockMode); \p Owner is whatever the caller needs to format a
/// witness from the path (the search never looks at it).
template <typename Entry, typename Owner> struct WaitForView {
  const Owner *Thread = nullptr;
  const std::vector<Entry> *Held = nullptr;
  /// The thread's pending acquire, appended after Held; null when none.
  const Entry *Pending = nullptr;

  size_t size() const { return Held->size() + (Pending ? 1 : 0); }
  const Entry &operator[](size_t I) const {
    return I < Held->size() ? (*Held)[I] : *Pending;
  }
};

/// A cycle as (view index, position in that view) per edge: edge i's entry
/// is the lock its thread waits for, which edge i+1's thread holds
/// (cyclically).
using WaitForPath = std::vector<std::pair<size_t, size_t>>;

namespace detail {

template <typename View> class WaitForSearch {
public:
  explicit WaitForSearch(const std::vector<View> &Views)
      : Views(Views), UsedThread(Views.size(), false) {}

  /// Tries every start edge (V, From -> To) in view order; fills \p Path
  /// with the first cycle found.
  bool run(WaitForPath &Path) {
    for (size_t V = 0; V != Views.size(); ++V) {
      const View &Stack = Views[V];
      for (size_t From = 0; From != Stack.size(); ++From) {
        for (size_t To = From + 1; To != Stack.size(); ++To) {
          std::fill(UsedThread.begin(), UsedThread.end(), false);
          UsedLocks.clear();
          Path.clear();
          StartLock = Stack[From].Lock;
          StartHeldMode = Stack[From].Mode;
          if (Stack[To].Lock == StartLock)
            continue; // degenerate; locks in one stack are distinct anyway
          UsedThread[V] = true;
          UsedLocks.push_back(StartLock);
          UsedLocks.push_back(Stack[To].Lock);
          Path.push_back({V, To});
          if (extend(Stack[To].Lock, Stack[To].Mode, Path))
            return true;
        }
      }
    }
    Path.clear();
    return false;
  }

private:
  /// Extends a chain whose previous thread wants \p Current in
  /// \p CurrentWantMode. An edge through another thread only exists when
  /// that thread's hold of Current conflicts with the want.
  bool extend(LockId Current, LockMode CurrentWantMode, WaitForPath &Path) {
    for (size_t V = 0; V != Views.size(); ++V) {
      if (UsedThread[V])
        continue;
      const View &Stack = Views[V];
      // Find Current in this stack, then try every lock after it.
      for (size_t From = 0; From != Stack.size(); ++From) {
        if (Stack[From].Lock != Current)
          continue;
        if (!lockModesConflict(CurrentWantMode, Stack[From].Mode))
          break; // shared-shared: the previous thread is not blocked here
        for (size_t To = From + 1; To != Stack.size(); ++To) {
          LockId Next = Stack[To].Lock;
          if (Next == StartLock) {
            // The closing edge must conflict with the start thread's hold.
            if (!lockModesConflict(Stack[To].Mode, StartHeldMode))
              continue;
            Path.push_back({V, To});
            return true; // closed the cycle
          }
          if (std::find(UsedLocks.begin(), UsedLocks.end(), Next) !=
              UsedLocks.end())
            continue;
          UsedThread[V] = true;
          UsedLocks.push_back(Next);
          Path.push_back({V, To});
          if (extend(Next, Stack[To].Mode, Path))
            return true;
          Path.pop_back();
          UsedLocks.pop_back();
          UsedThread[V] = false;
        }
        break; // locks within one stack are distinct; Current occurs once
      }
    }
    return false;
  }

  const std::vector<View> &Views;
  std::vector<bool> UsedThread;
  /// The chain's locks; at most one per thread, so a linear scan is cheap.
  std::vector<LockId> UsedLocks;
  LockId StartLock;
  LockMode StartHeldMode = LockMode::Exclusive;
};

} // namespace detail

/// Algorithm 4: finds one cycle of pairwise-distinct threads and locks over
/// \p Views (WaitForView-shaped: `size()` and `operator[]` yielding entries
/// with `.Lock`/`.Mode`). Views with no entries are allowed and contribute
/// nothing. Returns false, with \p Path empty, when no cycle exists.
template <typename View>
bool findWaitForCycle(const std::vector<View> &Views, WaitForPath &Path) {
  return detail::WaitForSearch<View>(Views).run(Path);
}

} // namespace dlf

#endif // DLF_FUZZER_WAITFORCYCLE_H
