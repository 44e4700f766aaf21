//===- analysis/LogBuilder.cpp - Trace events to dependency log -------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LogBuilder.h"

#include "interpose/CycleSpecText.h"

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

IncrementalLogBuilder::BuilderThread *
IncrementalLogBuilder::thread(uint64_t Id) {
  uint32_t I = ThreadIndex.find(Id);
  return I == IdIndex::None ? nullptr : &Threads[I];
}

LockRecord *IncrementalLogBuilder::lock(uint64_t Id) {
  uint32_t I = LockIndex.find(Id);
  return I == IdIndex::None ? nullptr : &Locks[I];
}

void IncrementalLogBuilder::feed(const std::vector<TraceEvent> &Events) {
  for (const TraceEvent &E : Events)
    feedOne(E);
}

void IncrementalLogBuilder::feedOne(const TraceEvent &E) {
  ++EventNo;
  switch (E.K) {
  case TraceEvent::Kind::ThreadNew: {
    bool Added = false;
    uint32_t I = ThreadIndex.findOrAdd(E.A, Added);
    if (Added)
      Threads.emplace_back();
    BuilderThread &T = Threads[I];
    T.ClockSlot = ThreadId(I + 1);
    T.Record.Id = ThreadId(E.A);
    T.Record.Name = E.Text;
    T.Record.Abs = absFromLabel(E.label());
    vcTick(T.Record.Clock, T.ClockSlot);
    Log.onThreadCreated(T.Record);
    break;
  }
  case TraceEvent::Kind::LockNew: {
    bool Added = false;
    uint32_t I = LockIndex.findOrAdd(E.A, Added);
    if (Added)
      Locks.emplace_back();
    LockRecord &L = Locks[I];
    L.Id = LockId(E.A);
    L.Name = E.Text;
    L.Abs = absFromLabel(E.label());
    Log.onLockCreated(L);
    break;
  }
  case TraceEvent::Kind::Fork: {
    BuilderThread *Parent = thread(E.A);
    BuilderThread *Child = thread(E.B);
    if (!Parent || !Child) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": fork references unknown thread\n";
      break;
    }
    vcJoin(Child->Record.Clock, Parent->Record.Clock);
    vcTick(Child->Record.Clock, Child->ClockSlot);
    vcTick(Parent->Record.Clock, Parent->ClockSlot);
    break;
  }
  case TraceEvent::Kind::Acquire:
  case TraceEvent::Kind::SharedAcquire: {
    BuilderThread *T = thread(E.A);
    LockRecord *L = lock(E.B);
    if (!T || !L) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": acquire references unknown thread/lock\n";
      break;
    }
    LockMode Mode = E.K == TraceEvent::Kind::SharedAcquire
                        ? LockMode::Shared
                        : LockMode::Exclusive;
    const Label Site = E.label();
    Log.onAcquireExecuted(T->Record, *L, T->Stack, Site, Mode);
    T->Stack.push_back({LockId(E.B), Site, Mode});
    break;
  }
  case TraceEvent::Kind::Release:
  case TraceEvent::Kind::SharedRelease: {
    BuilderThread *T = thread(E.A);
    if (!T)
      break;
    std::vector<LockStackEntry> &Stack = T->Stack;
    for (size_t I = Stack.size(); I-- > 0;) {
      if (Stack[I].Lock == LockId(E.B)) {
        Stack.erase(Stack.begin() + static_cast<long>(I));
        break;
      }
    }
    break;
  }
  case TraceEvent::Kind::Join: {
    BuilderThread *Joiner = thread(E.A);
    BuilderThread *Target = thread(E.B);
    if (!Joiner || !Target) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": join references unknown thread\n";
      break;
    }
    // Join is a must-order edge: the whole joined thread happens-before
    // the joiner's next step (strengthens the pruner's HBOrdered check).
    vcJoin(Joiner->Record.Clock, Target->Record.Clock);
    break;
  }
  case TraceEvent::Kind::CondNotify: {
    BuilderThread *T = thread(E.A);
    if (!T) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": cond-notify references unknown thread\n";
      break;
    }
    // Store-then-tick: the clock a waiter inherits must exclude the
    // notifier's post-notify tick, or acquires the notifier performs after
    // the notify would falsely order before the waiter's post-wake acquires
    // and the hb filter could discharge a real cycle.
    CondNotify[E.B] = T->Record.Clock;
    vcTick(T->Record.Clock, T->ClockSlot);
    break;
  }
  case TraceEvent::Kind::CondWake: {
    BuilderThread *T = thread(E.A);
    if (!T) {
      if (Warn)
        *Warn << "warning: event " << EventNo
              << ": cond-wake references unknown thread\n";
      break;
    }
    auto NotifyIt = CondNotify.find(E.B);
    if (NotifyIt != CondNotify.end())
      vcJoin(T->Record.Clock, NotifyIt->second);
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

std::string cycleSpecText(const AbstractCycle &Cycle) {
  std::vector<interpose::CycleSpecComponent> Spec;
  for (const CycleComponent &Comp : Cycle.Components) {
    interpose::CycleSpecComponent &Out = Spec.emplace_back();
    Out.ThreadAbs = Comp.ThreadName;
    Out.LockAbs = Comp.LockName;
    for (Label Site : Comp.Context)
      Out.Context.push_back(Site.text());
  }
  return interpose::formatCycleSpec(Spec);
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
    OS << "cycle-spec: " << cycleSpecText(Cycle) << "\n\n";
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
