//===- analysis/Predict.cpp - Sync-preserving deadlock prediction -----------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Two layers:
//
//  1. TraceIndex — one serial walk over the trace building, per thread, the
//     ordered list of synchronization events (acquires, releases, wakeups,
//     joins, forks), per lock the critical-section list in trace order, and
//     for every acquire an Occurrence carrying the held-set, context and
//     full-sync vector clock at the request (fork + release→acquire +
//     notify→wake + join edges, the RaceDetector discipline).
//
//  2. Per-cycle verdicts — components are matched to occurrences exactly
//     like the guard pruner (exact context preferred, loose fallback,
//     capped, first-in-trace-order), assignments are enumerated mixed-radix
//     under a cap, and each assignment runs pre-filters (wait-edge modes,
//     common guard, pairwise clock concurrency) and then the
//     sync-preserving closure: a fixpoint over per-thread included-prefix
//     lengths. Including an acquire whose critical section conflicts with a
//     later included acquire on the same lock forces its release in; wakeups
//     force their notify; joins force the whole joined thread; any included
//     event of a forked thread forces the fork. Cycle threads' prefixes are
//     fixed at their request event, so a requirement landing past a fixed
//     boundary fails the assignment.
//
// Soundness rests on a trace invariant: conflicting critical sections never
// overlap in the trace (acquire lines are written at grant, both by the
// preload and by the runtime trace recorder). Every closure constraint then
// points forward in trace order, so replaying the included set in trace
// order is a legal schedule ending in the deadlock state. A lock observed
// violating the invariant is marked irregular and conservatively fails any
// closure that touches it.
//
//===----------------------------------------------------------------------===//

#include "analysis/Predict.h"

#include "event/Label.h"
#include "event/VectorClock.h"
#include "analysis/LogBuilder.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <ostream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace dlf {
namespace analysis {

namespace {

constexpr uint32_t NoRelease = std::numeric_limits<uint32_t>::max();

/// One per-thread synchronization event, in program order.
struct IndexedEvent {
  enum Kind : uint8_t {
    Acquire,   ///< Lock/Cs valid; mode lives on the critical section
    Release,   ///< Lock/Cs valid
    Wake,      ///< Src* = the notify this wakeup consumed (when recorded)
    JoinEdge,  ///< Src* = joined thread and its full event count
    Notify,    ///< occupies an ordinal so wakeups can require it; no action
    ForkChild, ///< occupies an ordinal so children can require it; no action
  };
  Kind K = Acquire;
  uint32_t Lock = 0;
  uint32_t Cs = 0;
  uint32_t SrcThread = 0;
  uint32_t SrcCount = 0; ///< required included-event count of SrcThread
  bool HasSrc = false;
};

/// One critical section of one lock.
struct CritSec {
  uint64_t AcqIdx = 0; ///< global trace position of the acquire (order key)
  uint32_t Thread = 0; ///< dense owner
  uint32_t AcqOrd = 0; ///< ordinal of the acquire in the owner's event list
  uint32_t RelOrd = NoRelease;
  LockMode Mode = LockMode::Exclusive;
};

struct HeldLock {
  uint64_t RawLock = 0;
  LockMode Mode = LockMode::Exclusive;
};

/// One concrete acquire, snapshotted at the request.
struct Occurrence {
  uint32_t Thread = 0; ///< dense
  uint32_t LockDense = 0;
  LockMode Mode = LockMode::Exclusive;
  uint32_t Ord = 0; ///< ordinal of the acquire event (= the fixed prefix)
  std::vector<Label> Context;
  std::vector<HeldLock> Held;
  VectorClock Clock;
};

struct PerThread {
  std::vector<IndexedEvent> Evs;
  bool HasParent = false;
  uint32_t Parent = 0;
  uint32_t ParentCount = 0; ///< parent events up to and including the fork
};

struct PerLock {
  std::vector<CritSec> CSes; ///< in trace acquire order
  /// Conflicting critical sections overlapped in the trace (grant-order
  /// invariant violated): closures touching this lock fail conservatively.
  bool Irregular = false;
};

/// The walk output (layer 1). Built once per evaluateCycles call, then
/// shared read-only across verdict workers.
class TraceIndex {
public:
  explicit TraceIndex(const TraceFile &Trace);

  std::vector<PerThread> Threads;
  std::vector<PerLock> Locks;
  std::vector<uint64_t> ThreadRaw; ///< dense -> raw id
  std::vector<uint64_t> LockRaw;
  std::vector<Occurrence> Occs; ///< all acquires, trace order
  /// (thread raw, lock raw) -> occurrence indices, trace order. Keys are
  /// mixed; hits re-verify the pair, so a collision only costs time.
  std::unordered_map<uint64_t, std::vector<uint32_t>> OccsByTL;
  std::unordered_map<uint64_t, std::string> LockNameByRaw;
  uint64_t AcquireEvents = 0;

  static uint64_t tlKey(uint64_t T, uint64_t L) {
    return T * 0x9E3779B97F4A7C15ull ^ L;
  }

private:
  uint32_t thread(uint64_t Raw);
  uint32_t lock(uint64_t Raw);

  std::unordered_map<uint64_t, uint32_t> ThreadIdx;
  std::unordered_map<uint64_t, uint32_t> LockIdx;
};

uint32_t TraceIndex::thread(uint64_t Raw) {
  auto [It, New] = ThreadIdx.try_emplace(
      Raw, static_cast<uint32_t>(Threads.size()));
  if (New) {
    Threads.emplace_back();
    ThreadRaw.push_back(Raw);
  }
  return It->second;
}

uint32_t TraceIndex::lock(uint64_t Raw) {
  auto [It, New] =
      LockIdx.try_emplace(Raw, static_cast<uint32_t>(Locks.size()));
  if (New) {
    Locks.emplace_back();
    LockRaw.push_back(Raw);
  }
  return It->second;
}

TraceIndex::TraceIndex(const TraceFile &Trace) {
  // Walk-only state, discarded after construction.
  // Clocks carry MUST-order edges only: fork, join, notify→wake. The
  // observed release→acquire order is deliberately NOT joined — it is a
  // schedule artifact that a sync-preserving reordering may undo whenever
  // the consuming critical section is left out of the witness; the closure
  // enforces lock ordering precisely where it is load-bearing. This also
  // makes the hb-ordered pre-filter agree with the guard pruner, whose
  // LogBuilder clocks use the same discipline.
  std::vector<VectorClock> ThreadClock;
  struct StackEnt {
    uint64_t RawLock = 0;
    Label Site;
    LockMode Mode = LockMode::Exclusive;
  };
  std::vector<std::vector<StackEnt>> Stack;
  // Per (thread, lock): open critical-section indices, innermost last.
  std::vector<std::unordered_map<uint32_t, std::vector<uint32_t>>> OpenCs;
  // Per lock: currently open conflict state for the overlap check.
  std::vector<uint32_t> OpenExcl; // count of open exclusive CSes
  std::vector<uint32_t> OpenShared;
  std::unordered_map<uint64_t, VectorClock> CondNotifyClock;
  struct NotifySrc {
    uint32_t Thread = 0;
    uint32_t Count = 0;
  };
  std::unordered_map<uint64_t, NotifySrc> CondLastNotify;

  auto Grow = [&](uint32_t T) {
    if (ThreadClock.size() <= T) {
      ThreadClock.resize(T + 1);
      Stack.resize(T + 1);
      OpenCs.resize(T + 1);
    }
  };
  auto GrowLock = [&](uint32_t L) {
    if (OpenExcl.size() <= L) {
      OpenExcl.resize(L + 1, 0);
      OpenShared.resize(L + 1, 0);
    }
  };

  uint64_t Pos = 0;
  for (const TraceEvent &E : Trace.Events) {
    ++Pos;
    switch (E.K) {
    case TraceEvent::Kind::ThreadNew: {
      uint32_t T = thread(E.A);
      Grow(T);
      if (ThreadClock[T].empty())
        vcTick(ThreadClock[T], ThreadId(E.A));
      break;
    }
    case TraceEvent::Kind::LockNew: {
      GrowLock(lock(E.A));
      LockNameByRaw.emplace(E.A, E.Text);
      break;
    }
    case TraceEvent::Kind::Fork: {
      uint32_t P = thread(E.A);
      uint32_t C = thread(E.B);
      Grow(std::max(P, C));
      if (ThreadClock[P].empty())
        vcTick(ThreadClock[P], ThreadId(E.A));
      vcJoin(ThreadClock[C], ThreadClock[P]);
      vcTick(ThreadClock[C], ThreadId(E.B));
      vcTick(ThreadClock[P], ThreadId(E.A));
      IndexedEvent Ev;
      Ev.K = IndexedEvent::ForkChild;
      Ev.SrcThread = C;
      Threads[P].Evs.push_back(Ev);
      Threads[C].HasParent = true;
      Threads[C].Parent = P;
      Threads[C].ParentCount = static_cast<uint32_t>(Threads[P].Evs.size());
      break;
    }
    case TraceEvent::Kind::Join: {
      uint32_t J = thread(E.A);
      uint32_t T = thread(E.B);
      Grow(std::max(J, T));
      vcJoin(ThreadClock[J], ThreadClock[T]);
      IndexedEvent Ev;
      Ev.K = IndexedEvent::JoinEdge;
      Ev.SrcThread = T;
      Ev.SrcCount = static_cast<uint32_t>(Threads[T].Evs.size());
      Ev.HasSrc = true;
      Threads[J].Evs.push_back(Ev);
      break;
    }
    case TraceEvent::Kind::Acquire:
    case TraceEvent::Kind::SharedAcquire: {
      bool Shared = E.K == TraceEvent::Kind::SharedAcquire;
      uint32_t T = thread(E.A);
      uint32_t L = lock(E.B);
      Grow(T);
      GrowLock(L);
      if (ThreadClock[T].empty())
        vcTick(ThreadClock[T], ThreadId(E.A));
      ++AcquireEvents;

      // Grant-order invariant check: a conflicting critical section open
      // at this acquire means the trace interleaves conflicting holds.
      if (OpenExcl[L] != 0 || (!Shared && OpenShared[L] != 0))
        Locks[L].Irregular = true;

      Label Site = E.label();
      Occurrence O;
      O.Thread = T;
      O.LockDense = L;
      O.Mode = Shared ? LockMode::Shared : LockMode::Exclusive;
      O.Ord = static_cast<uint32_t>(Threads[T].Evs.size());
      O.Clock = ThreadClock[T];
      O.Context.reserve(Stack[T].size() + 1);
      O.Held.reserve(Stack[T].size());
      for (const StackEnt &S : Stack[T]) {
        O.Context.push_back(S.Site);
        O.Held.push_back({S.RawLock, S.Mode});
      }
      O.Context.push_back(Site);

      CritSec Cs;
      Cs.AcqIdx = Pos;
      Cs.Thread = T;
      Cs.AcqOrd = O.Ord;
      Cs.Mode = O.Mode;
      auto CsIdx = static_cast<uint32_t>(Locks[L].CSes.size());
      Locks[L].CSes.push_back(Cs);
      OpenCs[T][L].push_back(CsIdx);
      if (Shared)
        ++OpenShared[L];
      else
        ++OpenExcl[L];

      IndexedEvent Ev;
      Ev.K = IndexedEvent::Acquire;
      Ev.Lock = L;
      Ev.Cs = CsIdx;
      Threads[T].Evs.push_back(Ev);
      Stack[T].push_back({E.B, Site, O.Mode});

      OccsByTL[tlKey(E.A, E.B)].push_back(
          static_cast<uint32_t>(Occs.size()));
      Occs.push_back(std::move(O));
      break;
    }
    case TraceEvent::Kind::Release:
    case TraceEvent::Kind::SharedRelease: {
      uint32_t T = thread(E.A);
      uint32_t L = lock(E.B);
      Grow(T);
      GrowLock(L);
      auto OpenIt = OpenCs[T].find(L);
      if (OpenIt == OpenCs[T].end() || OpenIt->second.empty())
        break; // release without a recorded acquire: ignore (warned upstream)
      uint32_t CsIdx = OpenIt->second.back();
      OpenIt->second.pop_back();
      CritSec &Cs = Locks[L].CSes[CsIdx];
      Cs.RelOrd = static_cast<uint32_t>(Threads[T].Evs.size());
      if (Cs.Mode == LockMode::Shared) {
        if (OpenShared[L] != 0)
          --OpenShared[L];
      } else if (OpenExcl[L] != 0) {
        --OpenExcl[L];
      }
      IndexedEvent Ev;
      Ev.K = IndexedEvent::Release;
      Ev.Lock = L;
      Ev.Cs = CsIdx;
      Threads[T].Evs.push_back(Ev);
      // Pop the innermost matching stack entry (LogBuilder discipline).
      auto &St = Stack[T];
      for (size_t I = St.size(); I != 0; --I)
        if (St[I - 1].RawLock == E.B) {
          St.erase(St.begin() + static_cast<ptrdiff_t>(I - 1));
          break;
        }
      break;
    }
    case TraceEvent::Kind::CondNotify: {
      uint32_t T = thread(E.A);
      Grow(T);
      // Store-then-tick (message-passing discipline): the stored clock must
      // exclude the notifier's post-notify tick, otherwise events the
      // notifier performs *after* the notify compare ordered-before the
      // waiter's post-wake events and genuinely concurrent critical
      // sections get discharged as hb-ordered.
      CondNotifyClock[E.B] = ThreadClock[T];
      vcTick(ThreadClock[T], ThreadId(E.A));
      IndexedEvent Ev;
      Ev.K = IndexedEvent::Notify;
      Threads[T].Evs.push_back(Ev);
      CondLastNotify[E.B] = {T,
                             static_cast<uint32_t>(Threads[T].Evs.size())};
      break;
    }
    case TraceEvent::Kind::CondWake: {
      uint32_t T = thread(E.A);
      Grow(T);
      auto ClockIt = CondNotifyClock.find(E.B);
      if (ClockIt != CondNotifyClock.end())
        vcJoin(ThreadClock[T], ClockIt->second);
      IndexedEvent Ev;
      Ev.K = IndexedEvent::Wake;
      auto SrcIt = CondLastNotify.find(E.B);
      if (SrcIt != CondLastNotify.end()) {
        Ev.HasSrc = true;
        Ev.SrcThread = SrcIt->second.Thread;
        Ev.SrcCount = SrcIt->second.Count;
      }
      Threads[T].Evs.push_back(Ev);
      break;
    }
    case TraceEvent::Kind::TryProbe:
    case TraceEvent::Kind::ObjectNew:
    case TraceEvent::Kind::Read:
    case TraceEvent::Kind::Write:
      break; // no wait-for or ordering contribution
    }
  }
}

/// The sync-preserving closure over one candidate assignment (layer 2).
/// Scratch buffers are reused across assignments of one worker.
class ClosureState {
public:
  explicit ClosureState(const TraceIndex &Ix) : Ix(Ix) {
    End.resize(Ix.Threads.size(), 0);
    Scanned.resize(Ix.Threads.size(), 0);
    Fixed.resize(Ix.Threads.size(), 0);
    InWork.resize(Ix.Threads.size(), 0);
    Sweeps.resize(Ix.Locks.size());
  }

  /// Runs the fixpoint for the cycle occurrences in \p Picks. On success
  /// returns true and sets \p WitnessEvents to the included-event count.
  bool run(const std::vector<const Occurrence *> &Picks,
           uint64_t &WitnessEvents) {
    reset();
    for (const Occurrence *O : Picks) {
      End[O->Thread] = O->Ord;
      Fixed[O->Thread] = 1;
    }
    for (const Occurrence *O : Picks) {
      push(O->Thread);
      requireExists(O->Thread);
    }
    while (!Work.empty() && !Failed) {
      uint32_t U = Work.back();
      Work.pop_back();
      InWork[U] = 0;
      scan(U);
    }
    if (Failed)
      return false;
    WitnessEvents = 0;
    for (uint32_t E : End)
      WitnessEvents += E;
    return true;
  }

private:
  struct Sweep {
    uint64_t MaxAll = 0;  ///< max AcqIdx over included acquires (any mode)
    uint64_t MaxExcl = 0; ///< max AcqIdx over included exclusive acquires
    uint32_t PAll = 0;    ///< sweep cursor under MaxExcl (closes any mode)
    uint32_t PExcl = 0;   ///< sweep cursor under MaxAll (closes exclusives)
    bool HasAll = false;
    bool HasExcl = false;
  };

  void reset() {
    Failed = false;
    for (uint32_t T : Touched) {
      End[T] = 0;
      Scanned[T] = 0;
      Fixed[T] = 0;
      InWork[T] = 0;
    }
    Touched.clear();
    for (uint32_t L : TouchedLocks)
      Sweeps[L] = Sweep();
    TouchedLocks.clear();
    Work.clear();
  }

  void push(uint32_t U) {
    touch(U);
    if (!InWork[U]) {
      InWork[U] = 1;
      Work.push_back(U);
    }
  }

  void touch(uint32_t U) {
    // Touched may hold duplicates; reset() clearing twice is harmless.
    Touched.push_back(U);
  }

  /// Demands that the first \p Count events of thread \p U be included.
  void require(uint32_t U, uint32_t Count) {
    touch(U);
    if (End[U] >= Count)
      return;
    if (Fixed[U]) {
      Failed = true;
      return;
    }
    bool WasEmpty = End[U] == 0;
    End[U] = Count;
    push(U);
    if (WasEmpty)
      requireExists(U);
  }

  /// A thread with included events (or a fixed cycle thread) must exist:
  /// its creating fork must be included in the parent.
  void requireExists(uint32_t U) {
    if (Ix.Threads[U].HasParent)
      require(Ix.Threads[U].Parent, Ix.Threads[U].ParentCount);
  }

  void requireClose(const CritSec &Cs) {
    if (Cs.RelOrd == NoRelease) {
      Failed = true; // never released in the trace: cannot be closed
      return;
    }
    require(Cs.Thread, Cs.RelOrd + 1);
  }

  bool included(const CritSec &Cs) const {
    return Cs.AcqOrd < End[Cs.Thread];
  }

  void scan(uint32_t U) {
    // End[U] can grow while scanning (a rule may require U's own release),
    // so the bound is re-read each step.
    while (Scanned[U] < End[U] && !Failed) {
      const IndexedEvent &Ev = Ix.Threads[U].Evs[Scanned[U]];
      ++Scanned[U];
      switch (Ev.K) {
      case IndexedEvent::Acquire:
        onAcquire(Ev);
        break;
      case IndexedEvent::Wake:
      case IndexedEvent::JoinEdge:
        if (Ev.HasSrc)
          require(Ev.SrcThread, Ev.SrcCount);
        break;
      case IndexedEvent::Release:
      case IndexedEvent::Notify:
      case IndexedEvent::ForkChild:
        break;
      }
    }
  }

  void onAcquire(const IndexedEvent &Ev) {
    const PerLock &PL = Ix.Locks[Ev.Lock];
    if (PL.Irregular) {
      Failed = true; // grant-order invariant broken; stay conservative
      return;
    }
    const CritSec &Cs = PL.CSes[Ev.Cs];
    Sweep &S = Sweeps[Ev.Lock];
    touchLock(Ev.Lock);
    // Rule 2: an already-included conflicting acquire later in the trace
    // means this critical section must close before it (trace order is the
    // witness order), so its release joins the witness.
    bool ConflictLater = Cs.Mode == LockMode::Exclusive
                             ? (S.HasAll && S.MaxAll > Cs.AcqIdx)
                             : (S.HasExcl && S.MaxExcl > Cs.AcqIdx);
    if (ConflictLater)
      requireClose(Cs);
    if (!S.HasAll || Cs.AcqIdx > S.MaxAll) {
      S.MaxAll = Cs.AcqIdx;
      S.HasAll = true;
    }
    if (Cs.Mode == LockMode::Exclusive &&
        (!S.HasExcl || Cs.AcqIdx > S.MaxExcl)) {
      S.MaxExcl = Cs.AcqIdx;
      S.HasExcl = true;
    }
    // Rule 1, as two monotone sweeps over the lock's trace-ordered CS list:
    // an included exclusive acquire closes every earlier included critical
    // section; an included acquire of any mode closes earlier included
    // exclusive ones. Sections not yet included when a cursor passes are
    // caught by rule 2 at their own inclusion.
    const std::vector<CritSec> &CSes = PL.CSes;
    if (S.HasExcl)
      while (S.PAll < CSes.size() && CSes[S.PAll].AcqIdx < S.MaxExcl) {
        if (included(CSes[S.PAll]))
          requireClose(CSes[S.PAll]);
        ++S.PAll;
      }
    while (S.PExcl < CSes.size() && CSes[S.PExcl].AcqIdx < S.MaxAll) {
      if (CSes[S.PExcl].Mode == LockMode::Exclusive &&
          included(CSes[S.PExcl]))
        requireClose(CSes[S.PExcl]);
      ++S.PExcl;
    }
  }

  void touchLock(uint32_t L) { TouchedLocks.push_back(L); }

  const TraceIndex &Ix;
  std::vector<uint32_t> End;
  std::vector<uint32_t> Scanned;
  std::vector<uint8_t> Fixed;
  std::vector<uint8_t> InWork;
  std::vector<uint32_t> Work;
  std::vector<Sweep> Sweeps;
  std::vector<uint32_t> Touched;
  std::vector<uint32_t> TouchedLocks;
  bool Failed = false;
};

bool modesConflict(LockMode Request, LockMode Hold) {
  return Request == LockMode::Exclusive || Hold == LockMode::Exclusive;
}

/// Matches one cycle component to trace occurrences: (thread, lock) pairs,
/// exact context preferred, first MaxOccurrencesPerComponent in trace order
/// (the guard pruner's discipline, so the engines agree on witnesses).
std::vector<uint32_t> matchComponent(const TraceIndex &Ix,
                                     const CycleComponent &Comp,
                                     size_t Cap) {
  std::vector<uint32_t> Exact;
  std::vector<uint32_t> Loose;
  auto It = Ix.OccsByTL.find(TraceIndex::tlKey(Comp.Thread.Raw,
                                               Comp.Lock.Raw));
  if (It == Ix.OccsByTL.end())
    return Exact;
  for (uint32_t OccIdx : It->second) {
    const Occurrence &O = Ix.Occs[OccIdx];
    if (Ix.ThreadRaw[O.Thread] != Comp.Thread.Raw ||
        Ix.LockRaw[O.LockDense] != Comp.Lock.Raw)
      continue; // key collision
    if (O.Context == Comp.Context) {
      if (Exact.size() < Cap)
        Exact.push_back(OccIdx);
    } else if (Loose.size() < Cap) {
      Loose.push_back(OccIdx);
    }
  }
  return Exact.empty() ? Loose : Exact;
}

CyclePrediction unconfirmed(std::string Reason) {
  CyclePrediction P;
  P.Verdict = PredictVerdict::Unconfirmed;
  P.Reason = std::move(Reason);
  return P;
}

/// Verdict for one cycle: a pure function of (index, cycle, options).
CyclePrediction evaluateOne(const TraceIndex &Ix, const AbstractCycle &Cycle,
                            const PredictOptions &Opts, ClosureState &Closure,
                            uint64_t &AssignmentsTried) {
  const std::vector<CycleComponent> &Comps = Cycle.Components;
  const size_t M = Comps.size();
  if (M < 2)
    return unconfirmed("single-thread");
  {
    std::unordered_set<uint64_t> Distinct;
    for (const CycleComponent &C : Comps)
      if (!Distinct.insert(C.Thread.Raw).second)
        return unconfirmed("single-thread");
  }

  std::vector<std::vector<uint32_t>> PerComp;
  PerComp.reserve(M);
  for (const CycleComponent &C : Comps) {
    PerComp.push_back(
        matchComponent(Ix, C, Opts.MaxOccurrencesPerComponent));
    if (PerComp.back().empty())
      return unconfirmed("no-witness");
  }

  // Mixed-radix assignment space, saturated at the cap.
  uint64_t Total = 1;
  bool Capped = false;
  for (const std::vector<uint32_t> &P : PerComp) {
    if (Total > Opts.MaxAssignments / P.size()) {
      Capped = true;
      Total = Opts.MaxAssignments;
      break;
    }
    Total *= P.size();
  }

  bool SawGuard = false;
  std::string GuardName;
  bool SawOrdered = false;
  bool SawSyncViol = false;
  std::vector<const Occurrence *> Picks(M);
  for (uint64_t A = 0; A != Total; ++A) {
    ++AssignmentsTried;
    uint64_t Rest = A;
    for (size_t I = 0; I != M; ++I) {
      Picks[I] = &Ix.Occs[PerComp[I][Rest % PerComp[I].size()]];
      Rest /= PerComp[I].size();
    }

    // Wait-edge check: component i's request must block on the next
    // component's hold of that lock, mode-aware.
    bool EdgesOk = true;
    for (size_t I = 0; I != M && EdgesOk; ++I) {
      const Occurrence &Next = *Picks[(I + 1) % M];
      EdgesOk = false;
      for (const HeldLock &H : Next.Held)
        if (H.RawLock == Comps[I].Lock.Raw &&
            modesConflict(Picks[I]->Mode, H.Mode)) {
          EdgesOk = true;
          break;
        }
    }
    if (!EdgesOk)
      continue;

    // Common guard: a lock in every held set with at least one exclusive
    // holder excludes simultaneous arrival (the pruner's Guarded rule).
    {
      uint64_t Guard = 0;
      bool Found = false;
      for (const HeldLock &H : Picks[0]->Held) {
        bool AnyExcl = H.Mode == LockMode::Exclusive;
        bool All = true;
        for (size_t I = 1; I != M && All; ++I) {
          All = false;
          for (const HeldLock &H2 : Picks[I]->Held)
            if (H2.RawLock == H.RawLock) {
              All = true;
              AnyExcl |= H2.Mode == LockMode::Exclusive;
              break;
            }
        }
        if (All && AnyExcl && (!Found || H.RawLock < Guard)) {
          Guard = H.RawLock;
          Found = true;
        }
      }
      if (Found) {
        SawGuard = true;
        if (GuardName.empty()) {
          auto NameIt = Ix.LockNameByRaw.find(Guard);
          GuardName = NameIt != Ix.LockNameByRaw.end()
                          ? NameIt->second
                          : "lock" + std::to_string(Guard);
        }
        continue;
      }
    }

    // Mutual concurrency of the requests under the full-sync clocks.
    {
      bool Concurrent = true;
      for (size_t I = 0; I != M && Concurrent; ++I)
        for (size_t J = I + 1; J != M && Concurrent; ++J)
          Concurrent = vcConcurrent(Picks[I]->Clock, Picks[J]->Clock);
      if (!Concurrent) {
        SawOrdered = true;
        continue;
      }
    }

    uint64_t WitnessEvents = 0;
    if (Closure.run(Picks, WitnessEvents)) {
      CyclePrediction P;
      P.Verdict = PredictVerdict::Sound;
      P.WitnessEvents = WitnessEvents;
      return P;
    }
    SawSyncViol = true;
  }

  if (SawGuard)
    return unconfirmed("guarded (guard lock: " + GuardName + ")");
  if (SawOrdered)
    return unconfirmed("hb-ordered");
  if (SawSyncViol)
    return unconfirmed("sync-order");
  if (Capped)
    return unconfirmed("assignment-cap");
  return unconfirmed("no-witness");
}

unsigned resolveJobs(unsigned Jobs, size_t Work) {
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  if (Work != 0 && Jobs > Work)
    Jobs = static_cast<unsigned>(Work);
  return std::max(1u, Jobs);
}

} // namespace

const char *predictVerdictName(PredictVerdict V) {
  return V == PredictVerdict::Sound ? "sound" : "unconfirmed";
}

bool predictVerdictFromName(const std::string &Name, PredictVerdict &Out) {
  if (Name == "sound") {
    Out = PredictVerdict::Sound;
    return true;
  }
  if (Name == "unconfirmed") {
    Out = PredictVerdict::Unconfirmed;
    return true;
  }
  return false;
}

std::string CyclePrediction::label() const {
  if (Verdict == PredictVerdict::Sound)
    return "PREDICTED-SOUND (witness: " + std::to_string(WitnessEvents) +
           " events)";
  return "UNCONFIRMED (" + (Reason.empty() ? "no-witness" : Reason) + ")";
}

std::vector<CyclePrediction>
evaluateCycles(const TraceFile &Trace, const std::vector<AbstractCycle> &Cycles,
               const PredictOptions &Opts, PredictStats *Stats) {
  auto Start = std::chrono::steady_clock::now();
  TraceIndex Ix(Trace);

  std::vector<CyclePrediction> Out(Cycles.size());
  unsigned Jobs = resolveJobs(Opts.Jobs, Cycles.size());
  std::vector<uint64_t> AssignmentsPerWorker(Jobs, 0);
  // Verdicts are a pure function per cycle; round-robin sharding + in-index
  // results make every job count produce identical output.
  auto Worker = [&](unsigned W) {
    ClosureState Closure(Ix);
    for (size_t I = W; I < Cycles.size(); I += Jobs)
      Out[I] = evaluateOne(Ix, Cycles[I], Opts, Closure,
                           AssignmentsPerWorker[W]);
  };
  if (Jobs == 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Jobs);
    for (unsigned W = 0; W != Jobs; ++W)
      Threads.emplace_back(Worker, W);
    for (std::thread &T : Threads)
      T.join();
  }

  uint64_t Assignments = 0;
  for (uint64_t N : AssignmentsPerWorker)
    Assignments += N;
  if (Stats) {
    Stats->EventsSeen = Trace.Events.size();
    Stats->AcquiresIndexed = Ix.AcquireEvents;
    Stats->AssignmentsTried = Assignments;
    Stats->JobsUsed = Jobs;
    Stats->ElapsedMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }
  if (telemetry::enabled()) {
    telemetry::Registry &R = telemetry::Registry::global();
    size_t Sound = 0;
    for (const CyclePrediction &P : Out)
      Sound += P.sound();
    R.counter("dlf_predict_cycles_total").inc(Out.size());
    R.counter("dlf_predict_sound_total").inc(Sound);
    R.counter("dlf_predict_unconfirmed_total").inc(Out.size() - Sound);
    R.counter("dlf_predict_assignments_total").inc(Assignments);
    R.counter("dlf_predict_trace_events_total").inc(Trace.Events.size());
  }
  return Out;
}

size_t PredictAnalysis::soundCount() const {
  size_t N = 0;
  for (const CyclePrediction &P : Predictions)
    N += P.sound();
  return N;
}

PredictAnalysis predictDeadlocks(const TraceFile &Trace,
                                 const IGoodlockOptions &Closure,
                                 const PredictOptions &Opts) {
  PredictAnalysis R;
  IncrementalLogBuilder Builder(nullptr);
  Builder.feed(Trace.Events);
  IGoodlockOptions ClosureOpts = Closure;
  // Keep guarded cycles: --predict grades every candidate, and UNCONFIRMED
  // (guarded) is exactly the pruner's discharge made visible.
  ClosureOpts.KeepGuardedCycles = true;
  R.Cycles = runIGoodlock(Builder.log(), ClosureOpts, &R.ClosureStats);
  R.DependencyEntries = Builder.log().entries().size();
  R.AcquireEvents = Builder.log().acquireEvents();
  PredictOptions EvalOpts = Opts;
  if (EvalOpts.Jobs == 1 && ClosureOpts.AnalysisJobs != 1)
    EvalOpts.Jobs = ClosureOpts.AnalysisJobs;
  R.Predictions = evaluateCycles(Trace, R.Cycles, EvalOpts, &R.Stats);
  return R;
}

void printPredictReport(std::ostream &OS, const char *Tool,
                        const PredictAnalysis &R) {
  size_t Sound = R.soundCount();
  OS << Tool << ": " << R.DependencyEntries << " dependency entries, "
     << R.AcquireEvents << " acquire events, " << R.Cycles.size()
     << " potential deadlock cycle(s)\n";
  OS << "predict: " << Sound << " sound, "
     << (R.Cycles.size() - Sound) << " unconfirmed\n\n";
  for (size_t I = 0; I != R.Cycles.size(); ++I) {
    const AbstractCycle &Cycle = R.Cycles[I];
    OS << "#" << I << " " << Cycle.toString();
    OS << "prediction: " << R.Predictions[I].label() << "\n";
    OS << "cycle-spec: ";
    for (size_t C = 0; C != Cycle.Components.size(); ++C) {
      const CycleComponent &Comp = Cycle.Components[C];
      if (C)
        OS << ';';
      OS << Comp.ThreadName << '|' << Comp.LockName << '|';
      for (size_t S = 0; S != Comp.Context.size(); ++S) {
        if (S)
          OS << ',';
        OS << Comp.Context[S].text();
      }
    }
    OS << "\n\n";
  }
}

} // namespace analysis
} // namespace dlf
