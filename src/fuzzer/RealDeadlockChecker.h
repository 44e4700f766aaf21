//===- fuzzer/RealDeadlockChecker.h - Algorithm 4 ----------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// checkRealDeadlock (paper Algorithm 4): given the current LockSet stack of
/// every thread — including pending locks of blocked threads and the
/// tentative push of the thread currently being scheduled — decide whether
/// there exist distinct threads t1..tm and distinct locks l1..lm such that
/// li appears before l(i+1) in LockSet[ti] for i in [1, m-1] and lm appears
/// before l1 in LockSet[tm]. If so, the execution has created (or is one
/// committed acquire away from creating) a real deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_FUZZER_REALDEADLOCKCHECKER_H
#define DLF_FUZZER_REALDEADLOCKCHECKER_H

#include "fuzzer/WaitForCycle.h"
#include "runtime/Records.h"
#include "runtime/Result.h"

#include <functional>
#include <optional>
#include <vector>

namespace dlf {

/// One thread's view for the check: the record (for names/abstractions in
/// the witness), the lock stack to use — usually &T->LockStack, but the
/// scheduler substitutes a tentative stack for the thread whose acquire is
/// being committed — and an optional pending tail (a paused thread's
/// committed acquire, or a notified waiter's reacquire).
using ThreadStackView = WaitForView<LockStackEntry, ThreadRecord>;

/// Runs Algorithm 4 (findWaitForCycle) over \p Views. Returns a witness
/// describing one cycle (edges ordered so that edge i's wait lock is held
/// by edge i+1's thread, cyclically), or std::nullopt when no cycle exists.
///
/// Lock names/abstractions for the witness are looked up through
/// \p LockById since the checker has no registry of its own.
std::optional<DeadlockWitness>
findRealDeadlock(const std::vector<ThreadStackView> &Views,
                 const std::function<const LockRecord &(LockId)> &LockById);

} // namespace dlf

#endif // DLF_FUZZER_REALDEADLOCKCHECKER_H
