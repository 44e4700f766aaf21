//===- analysis/LogBuilder.cpp - Trace events to dependency log -------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LogBuilder.h"

#include <ostream>

namespace dlf {
namespace analysis {

namespace {

/// Builds an Abstraction whose single element is the interned label of the
/// preload abstraction string ("site#n"): equality of strings is equality
/// of abstractions, which is all the closure needs.
AbstractionSet absFromLabel(Label Name) {
  AbstractionSet Abs;
  uint32_t Raw = Name.raw();
  Abs.Index.Elements = {Raw, 1};
  Abs.KObject.Elements = {Raw};
  return Abs;
}

} // namespace

void IncrementalLogBuilder::feed(const std::vector<TraceEvent> &Events) {
  for (const TraceEvent &E : Events)
    feedOne(E);
}

void IncrementalLogBuilder::feedOne(const TraceEvent &E) {
  ++EventNo;
  switch (E.K) {
  case TraceEvent::Kind::ThreadNew: {
    BuilderThread &T = Threads[E.A];
    T.Record.Id = ThreadId(E.A);
    T.Record.Name = E.Text;
    T.Record.Abs = absFromLabel(E.label());
    vcTick(T.Record.Clock, T.Record.Id);
    Log.onThreadCreated(T.Record);
    break;
  }
  case TraceEvent::Kind::LockNew: {
    LockRecord &L = Locks[E.A];
    L.Id = LockId(E.A);
    L.Name = E.Text;
    L.Abs = absFromLabel(E.label());
    Log.onLockCreated(L);
    break;
  }
  case TraceEvent::Kind::Fork: {
    auto Parent = Threads.find(E.A);
    auto Child = Threads.find(E.B);
    if (Parent == Threads.end() || Child == Threads.end()) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": fork references unknown thread\n";
      break;
    }
    vcJoin(Child->second.Record.Clock, Parent->second.Record.Clock);
    vcTick(Child->second.Record.Clock, Child->second.Record.Id);
    vcTick(Parent->second.Record.Clock, Parent->second.Record.Id);
    break;
  }
  case TraceEvent::Kind::Acquire:
  case TraceEvent::Kind::SharedAcquire: {
    auto ThreadIt = Threads.find(E.A);
    auto LockIt = Locks.find(E.B);
    if (ThreadIt == Threads.end() || LockIt == Locks.end()) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": acquire references unknown thread/lock\n";
      break;
    }
    LockMode Mode = E.K == TraceEvent::Kind::SharedAcquire
                        ? LockMode::Shared
                        : LockMode::Exclusive;
    BuilderThread &T = ThreadIt->second;
    const Label Site = E.label();
    Log.onAcquireExecuted(T.Record, LockIt->second, T.Stack, Site, Mode);
    T.Stack.push_back({LockId(E.B), Site, Mode});
    break;
  }
  case TraceEvent::Kind::Release:
  case TraceEvent::Kind::SharedRelease: {
    auto ThreadIt = Threads.find(E.A);
    if (ThreadIt == Threads.end())
      break;
    auto &Stack = ThreadIt->second.Stack;
    for (size_t I = Stack.size(); I-- > 0;) {
      if (Stack[I].Lock == LockId(E.B)) {
        Stack.erase(Stack.begin() + static_cast<long>(I));
        break;
      }
    }
    break;
  }
  case TraceEvent::Kind::Join: {
    auto Joiner = Threads.find(E.A);
    auto Target = Threads.find(E.B);
    if (Joiner == Threads.end() || Target == Threads.end()) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": join references unknown thread\n";
      break;
    }
    // Join is a must-order edge: the whole joined thread happens-before
    // the joiner's next step (strengthens the pruner's HBOrdered check).
    vcJoin(Joiner->second.Record.Clock, Target->second.Record.Clock);
    break;
  }
  case TraceEvent::Kind::CondNotify: {
    auto ThreadIt = Threads.find(E.A);
    if (ThreadIt == Threads.end()) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": cond-notify references unknown thread\n";
      break;
    }
    BuilderThread &T = ThreadIt->second;
    // Store-then-tick: the clock a waiter inherits must exclude the
    // notifier's post-notify tick, or acquires the notifier performs after
    // the notify would falsely order before the waiter's post-wake acquires
    // and the hb filter could discharge a real cycle.
    CondNotify[E.B] = T.Record.Clock;
    vcTick(T.Record.Clock, T.Record.Id);
    break;
  }
  case TraceEvent::Kind::CondWake: {
    auto ThreadIt = Threads.find(E.A);
    if (ThreadIt == Threads.end()) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": cond-wake references unknown thread\n";
      break;
    }
    auto NotifyIt = CondNotify.find(E.B);
    if (NotifyIt != CondNotify.end())
      vcJoin(ThreadIt->second.Record.Clock, NotifyIt->second);
    break;
  }
  case TraceEvent::Kind::TryProbe:
    // A failed probe never blocks, so it contributes no wait-for edge;
    // the preload records it for visibility only.
    break;
  case TraceEvent::Kind::ObjectNew:
  case TraceEvent::Kind::Read:
  case TraceEvent::Kind::Write:
    break; // race-detector events; inert for the deadlock passes
  }
}

void printCycleReport(std::ostream &OS, const char *Tool,
                      const LockDependencyLog &Log,
                      const std::vector<AbstractCycle> &Cycles,
                      const std::vector<CycleClassification> &Classes,
                      const IGoodlockStats &Stats) {
  size_t Schedulable = 0;
  for (const CycleClassification &C : Classes)
    Schedulable += C.schedulable();

  OS << Tool << ": " << Log.entries().size() << " dependency entries, "
     << Log.acquireEvents() << " acquire events, " << Cycles.size()
     << " potential deadlock cycle(s)\n";
  OS << "pruner: " << Schedulable << " schedulable, "
     << (Cycles.size() - Schedulable) << " statically discharged\n";
  OS << "closure: " << Stats.ChainsExplored << " chains, "
     << Stats.ElapsedMicros << " us, "
     << static_cast<uint64_t>(Stats.entriesPerSecond()) << " entries/s, "
     << static_cast<uint64_t>(Stats.chainsPerSecond()) << " chains/s, jobs "
     << Stats.JobsUsed << "\n\n";
  for (size_t I = 0; I != Cycles.size(); ++I) {
    const AbstractCycle &Cycle = Cycles[I];
    OS << "#" << I << " " << Cycle.toString();
    OS << "classification: " << Classes[I].label() << "\n";
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

void printRaceReport(std::ostream &OS, const char *Tool,
                     const RaceAnalysis &Result) {
  OS << Tool << ": " << Result.ObjectsSeen << " shared object(s), "
     << Result.AccessesSeen << " access event(s), " << Result.RacyPairs
     << " racy pair(s)\n";
  if (Result.RacyPairs == 0 && Result.AccessesSeen == 0)
    OS << "note: trace has no access events; record them with "
          "DLF_TRACE_ACCESSES=1 and dlf_trace_read/dlf_trace_write\n";
  if (Result.RacyPairs > Result.Races.size())
    OS << "note: showing first " << Result.Races.size() << " of "
       << Result.RacyPairs << " racy pairs\n";
  OS << "\n";
  for (size_t I = 0; I != Result.Races.size(); ++I)
    OS << "#" << I << " " << Result.Races[I].toString() << "\n";
}

} // namespace analysis
} // namespace dlf
