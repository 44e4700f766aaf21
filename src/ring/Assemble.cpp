//===- ring/Assemble.cpp - Ring records to trace events ---------------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ring/Assemble.h"

#include <utility>

namespace dlf {
namespace ring {

namespace {

void push(std::vector<analysis::TraceEvent> &Out, analysis::TraceEvent::Kind K,
          uint64_t A, uint64_t B = 0, std::string Text = std::string(),
          Label Interned = Label()) {
  analysis::TraceEvent &E = Out.emplace_back();
  E.K = K;
  E.A = A;
  E.B = B;
  E.Text = std::move(Text);
  E.Interned = Interned;
}

/// A ThreadNew/LockNew event: the abstraction text plus its label,
/// interned here — at push time, in stream order — so the labels get the
/// raw ids the log builder would have given them.
void pushNamed(std::vector<analysis::TraceEvent> &Out,
               analysis::TraceEvent::Kind K, uint64_t A, std::string Name) {
  Label Interned = Label::intern(Name);
  push(Out, K, A, 0, std::move(Name), Interned);
}

} // namespace

const std::string &Assembler::siteText(uint32_t Id) {
  const uint32_t Slot = siteSlot(Id);
  if (Slot >= SiteTexts.size())
    SiteTexts.resize(Slot + 1);
  std::string &Text = SiteTexts[Slot];
  if (Text.empty()) {
    Text = Reader.siteName(Slot);
    if (Text.empty())
      Text = "unknown"; // id 0: the writer's string table overflowed
  }
  return Text;
}

Label Assembler::siteLabel(uint32_t Id) {
  const uint32_t Slot = siteSlot(Id);
  if (Slot >= SiteLabels.size())
    SiteLabels.resize(Slot + 1);
  if (!SiteLabels[Slot].isValid())
    SiteLabels[Slot] = Label::intern(siteText(Id));
  return SiteLabels[Slot];
}

void Assembler::pushAcquire(std::vector<analysis::TraceEvent> &Out,
                            analysis::TraceEvent::Kind K, const Record &R,
                            uint64_t LockId) {
  // The log builder skips (and never interns the site of) an acquire by a
  // thread no ThreadNew announced — after a dropped fork record, say. Such
  // an event keeps its site text, so the interning order stays the
  // builder's.
  if (!Announced[R.Tid]) {
    push(Out, K, R.Tid, LockId, siteText(R.Site));
    return;
  }
  push(Out, K, R.Tid, LockId, std::string(), siteLabel(R.Site));
}

void Assembler::announce(std::vector<analysis::TraceEvent> &Out, uint64_t Tid,
                         uint32_t Site) {
  // Record tids are 16 bits wide, so a larger one never acquires anything.
  if (Tid < Announced.size())
    Announced[Tid] = true;
  pushNamed(Out, analysis::TraceEvent::Kind::ThreadNew, Tid,
            bumpSite(siteText(Site)));
}

std::string Assembler::bumpSite(const std::string &Site) {
  // Same scheme as the preload's bumpSite: occurrences of one static site
  // count up, so distinct dynamic instances get distinct abstractions.
  uint64_t N = ++SiteCounts[Site];
  return Site + "#" + std::to_string(N);
}

Assembler::LockState &Assembler::lockAt(uint64_t Addr, uint32_t Site,
                                        std::vector<analysis::TraceEvent> &Out) {
  auto It = Locks.find(Addr);
  if (It != Locks.end())
    return It->second;
  LockState L;
  L.Id = NextLockId++;
  It = Locks.emplace(Addr, std::move(L)).first;
  pushNamed(Out, analysis::TraceEvent::Kind::LockNew, It->second.Id,
            bumpSite(siteText(Site)));
  return It->second;
}

uint64_t Assembler::condId(uint64_t Addr) {
  bool Added = false;
  return Conds.findOrAdd(Addr, Added) + 1;
}

void Assembler::feed(const std::vector<Record> &Records,
                     std::vector<analysis::TraceEvent> &Out) {
  using K = analysis::TraceEvent::Kind;
  for (const Record &R : Records) {
    switch (static_cast<RecordKind>(R.Kind)) {
    case RecordKind::ThreadSelf:
      announce(Out, R.Tid, R.Site);
      break;

    case RecordKind::ThreadFork:
      // Addr carries the child tid; the T line precedes the F line.
      announce(Out, R.Addr, R.Site);
      push(Out, K::Fork, R.Tid, R.Addr);
      break;

    case RecordKind::LockSeen:
      (void)lockAt(R.Addr, R.Site, Out);
      break;

    case RecordKind::Acquire: {
      LockState &L = lockAt(R.Addr, R.Site, Out);
      if (L.OwnerTid == R.Tid) {
        // Ring-only mode carries every acquire; collapse recursion the way
        // the in-process model does (footnote 2). Combined mode pre-filters
        // reentrant acquires, so this branch never fires there.
        ++L.Recursion;
        break;
      }
      L.OwnerTid = R.Tid;
      L.Recursion = 1;
      pushAcquire(Out, K::Acquire, R, L.Id);
      break;
    }

    case RecordKind::Release: {
      auto It = Locks.find(R.Addr);
      if (It == Locks.end() || It->second.OwnerTid != R.Tid)
        break; // acquire never observed — the text path's passthrough
      LockState &L = It->second;
      if (L.Recursion > 1) {
        --L.Recursion;
        break;
      }
      L.OwnerTid = 0;
      L.Recursion = 0;
      push(Out, K::Release, R.Tid, L.Id);
      break;
    }

    case RecordKind::SharedAcquire: {
      LockState &L = lockAt(R.Addr, R.Site, Out);
      L.ReaderTids.push_back(R.Tid);
      pushAcquire(Out, K::SharedAcquire, R, L.Id);
      break;
    }

    case RecordKind::RwUnlock: {
      // pthread_rwlock_unlock does not say which side it releases; resolve
      // from the reconstructed owner/reader registry, exactly like the
      // in-process model does.
      auto It = Locks.find(R.Addr);
      if (It == Locks.end())
        break;
      LockState &L = It->second;
      if (L.OwnerTid == R.Tid) {
        L.OwnerTid = 0;
        L.Recursion = 0;
        push(Out, K::Release, R.Tid, L.Id);
        break;
      }
      for (size_t I = 0; I != L.ReaderTids.size(); ++I) {
        if (L.ReaderTids[I] == R.Tid) {
          L.ReaderTids.erase(L.ReaderTids.begin() + static_cast<long>(I));
          push(Out, K::SharedRelease, R.Tid, L.Id);
          break;
        }
      }
      break;
    }

    case RecordKind::TryProbe: {
      LockState &L = lockAt(R.Addr, R.Site, Out);
      push(Out, K::TryProbe, R.Tid, L.Id, siteText(R.Site));
      break;
    }

    case RecordKind::CondSeen:
      (void)condId(R.Addr);
      break;

    case RecordKind::CondNotify:
      push(Out, K::CondNotify, R.Tid, condId(R.Addr));
      break;

    case RecordKind::CondWake:
      push(Out, K::CondWake, R.Tid, condId(R.Addr));
      break;

    case RecordKind::LockDestroy:
      // The address binding ends; a later lock at the same address is a new
      // lock with a new id.
      Locks.erase(R.Addr);
      break;

    case RecordKind::AccessRead:
    case RecordKind::AccessWrite: {
      bool Added = false;
      const uint64_t Id = Objects.findOrAdd(R.Addr, Added) + 1;
      if (Added)
        push(Out, K::ObjectNew, Id, 0, bumpSite(siteText(R.Site)));
      push(Out,
           static_cast<RecordKind>(R.Kind) == RecordKind::AccessWrite
               ? K::Write
               : K::Read,
           R.Tid, Id, siteText(R.Site));
      break;
    }

    case RecordKind::Join:
      // Addr carries the joined (child) tid, mirroring ThreadFork.
      push(Out, K::Join, R.Tid, R.Addr);
      break;

    case RecordKind::Invalid:
    default:
      ++UnknownKinds; // version skew: count, never crash the observer
      break;
    }
  }
}

} // namespace ring
} // namespace dlf
