//===- analysis/Trace.h - Recorded-trace reader -----------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader for the preload trace format (interpose/TraceFormat.h), shared by
/// dlf-analyze and the offline analysis passes. Unlike the original ad-hoc
/// parse loop, reading distinguishes three outcomes a caller must treat
/// differently:
///
///   * Ok          — events parsed (there is something to analyze)
///   * NoEvents    — the file opened but carries no events (empty file,
///                   comments only): analyzing it is vacuous, not an error
///                   in the trace, but silently reporting "0 cycles" hides
///                   a misconfigured DLF_PRELOAD_TRACE run
///   * Unreadable  — the file cannot be opened, or a line is malformed
///                   (truncated write, unknown event kind, non-numeric id):
///                   the trace is corrupt and any analysis of it is suspect
///
/// dlf-analyze maps these to distinct exit codes (0 / 3 / 2) so scripts can
/// tell "program under test never synchronized" from "trace got truncated".
///
//===----------------------------------------------------------------------===//

#ifndef DLF_ANALYSIS_TRACE_H
#define DLF_ANALYSIS_TRACE_H

#include "event/Label.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dlf {
namespace analysis {

/// One parsed trace event. Field use per kind:
///   ThreadNew:     A = tid, Text = abstraction
///   LockNew:       A = lid, Text = abstraction
///   Acquire:       A = tid, B = lid, Text = acquire site (exclusive)
///   Release:       A = tid, B = lid (exclusive)
///   SharedAcquire: A = tid, B = lid, Text = acquire site (rwlock read side)
///   SharedRelease: A = tid, B = lid (rwlock read side)
///   TryProbe:      A = tid, B = lid, Text = site (failed trylock; inert
///                  for the wait-for analysis, recorded for visibility)
///   CondNotify:    A = tid, B = cid (signal/broadcast; happens-before
///                  source for subsequent wakeups)
///   CondWake:      A = tid, B = cid (waiter resumed after a notify;
///                  happens-before sink)
///   Fork:          A = parent tid, B = child tid
///   Join:          A = joiner tid, B = joined tid (pthread_join returned:
///                  everything the joined thread did happens-before the
///                  joiner's next step)
///   ObjectNew:     A = oid, Text = abstraction
///   Read/Write:    A = tid, B = oid, Text = access site
///
/// Interned is the label of Text (abstraction or acquire site) for the
/// ThreadNew, LockNew, Acquire and SharedAcquire events when the producer
/// already interned it — the ring assembler does, and then leaves acquire
/// events' Text empty. It is invalid for events parsed from a text trace;
/// consumers intern Text then.
struct TraceEvent {
  enum class Kind {
    ThreadNew,
    LockNew,
    Acquire,
    Release,
    SharedAcquire,
    SharedRelease,
    TryProbe,
    CondNotify,
    CondWake,
    Fork,
    Join,
    ObjectNew,
    Read,
    Write
  };
  Kind K = Kind::ThreadNew;
  uint64_t A = 0;
  uint64_t B = 0;
  std::string Text;
  Label Interned;

  /// The label of Text: Interned when set, else Text interned now.
  Label label() const {
    return Interned.isValid() ? Interned : Label::intern(Text);
  }
};

/// Outcome of reading a trace file (see file comment).
enum class TraceReadStatus { Ok, NoEvents, Unreadable };

/// A fully parsed trace.
struct TraceFile {
  std::vector<TraceEvent> Events;
  /// Non-fatal oddities (e.g. an acquire referencing a thread the trace
  /// never introduced) — semantic warnings, not corruption.
  std::vector<std::string> Warnings;
};

/// Reads and parses \p Path. On Unreadable, \p Error describes the failure
/// (including the offending line number for malformed lines).
TraceReadStatus readTrace(const std::string &Path, TraceFile &Out,
                          std::string *Error);

} // namespace analysis
} // namespace dlf

#endif // DLF_ANALYSIS_TRACE_H
