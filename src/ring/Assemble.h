//===- ring/Assemble.h - Ring records to trace events -----------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observer-side model rebuilder: turns the raw, sequence-merged ring
/// records (ring/Ring.h) into the same analysis::TraceEvent stream the
/// in-process text writer would have produced for the same execution.
///
/// The ring writer deliberately keeps no model — it emits one record per
/// interposed call, carrying only raw identities (pthread object address,
/// interned call-site id, thread id). Everything the text path computes
/// inline under its state lock is reconstructed here instead:
///
///  * dense lock / condvar / object ids, assigned at first sight;
///  * "site#n" abstractions via the same shared per-site occurrence
///    counter the preload's bumpSite uses;
///  * interned labels (analysis::TraceEvent::Interned) for thread and lock
///    names and for acquire sites, interned at push time in the order the
///    log builder would intern them, so label raw ids are the same as for
///    the text path; acquire events carry the label instead of a copy of
///    the site string (except those of threads no ThreadNew introduced,
///    which the builder skips uninterned);
///  * mutex recursion collapse (footnote 2: only 0->1 acquires and 1->0
///    releases are events);
///  * rwlock unlock side resolution (pthread_rwlock_unlock does not say
///    which side it releases — the owner/reader registry does);
///  * releases of locks whose acquire was never observed are dropped, the
///    text path's pre-init passthrough behavior.
///
/// In combined mode (DLF_RING alongside DLF_PRELOAD_TRACE) the writer
/// mirrors records inside the same critical sections that write the text
/// lines, including the LockSeen/CondSeen first-sight markers, so this
/// reconstruction yields an event stream identical to parsing the text
/// trace — the equivalence the CI tier asserts.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RING_ASSEMBLE_H
#define DLF_RING_ASSEMBLE_H

#include "analysis/Trace.h"
#include "ring/Ring.h"
#include "support/IdIndex.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace dlf {
namespace ring {

class Assembler {
public:
  /// \p Reader resolves interned site ids; it must outlive the assembler.
  explicit Assembler(const RingReader &Reader) : Reader(Reader) {}

  /// Feeds records (already merged in ascending sequence order) and appends
  /// the reconstructed events to \p Out. Stateful: feed each record once,
  /// in order, across calls.
  void feed(const std::vector<Record> &Records,
            std::vector<analysis::TraceEvent> &Out);

  /// Records skipped because their kind was unknown (version skew).
  uint64_t unknownKindRecords() const { return UnknownKinds; }

private:
  struct LockState {
    uint64_t Id = 0;
    uint64_t OwnerTid = 0;
    unsigned Recursion = 0;
    std::vector<uint64_t> ReaderTids;
  };

  /// The cache slot of site \p Id: the id itself, or 0 (whose text is
  /// also "unknown") for ids past the string table.
  static uint32_t siteSlot(uint32_t Id) { return Id <= MaxSites ? Id : 0; }
  const std::string &siteText(uint32_t Id);
  Label siteLabel(uint32_t Id);
  /// Emits a ThreadNew event (the builder then knows \p Tid).
  void announce(std::vector<analysis::TraceEvent> &Out, uint64_t Tid,
                uint32_t Site);
  void pushAcquire(std::vector<analysis::TraceEvent> &Out,
                   analysis::TraceEvent::Kind K, const Record &R,
                   uint64_t LockId);
  std::string bumpSite(const std::string &Site);
  /// First-sight lock registration (emits the LockNew event).
  LockState &lockAt(uint64_t Addr, uint32_t Site,
                    std::vector<analysis::TraceEvent> &Out);
  uint64_t condId(uint64_t Addr);

  const RingReader &Reader;
  /// Site texts and labels by siteSlot, filled at first use (an empty
  /// text or an invalid label is a slot not yet filled).
  std::vector<std::string> SiteTexts;
  std::vector<Label> SiteLabels;
  /// Tids a ThreadNew event has introduced, indexed by record tid.
  std::vector<bool> Announced = std::vector<bool>(1u << 16);
  std::unordered_map<uint64_t, LockState> Locks;
  /// Condvar and object addresses; an id is the first-seen index + 1.
  IdIndex Conds;
  IdIndex Objects;
  std::unordered_map<std::string, uint64_t> SiteCounts;
  uint64_t NextLockId = 1;
  uint64_t UnknownKinds = 0;
};

} // namespace ring
} // namespace dlf

#endif // DLF_RING_ASSEMBLE_H
