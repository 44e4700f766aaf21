//===- telemetry/Timeline.cpp - Chrome trace-event timeline ----------------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Timeline.h"

#include "support/JsonEscape.h"
#include "telemetry/Metrics.h"

#include <chrono>
#include <cstdio>

namespace dlf {
namespace telemetry {

namespace {

/// A capped trace used to be visible only as a too-small output file;
/// counting drops in the registry makes it visible at scrape time. The
/// handle is interned once — the drop path is rare, but there is no
/// reason to hammer the registry mutex from it either.
void countDroppedEvent() {
  static Counter DroppedTotal =
      Registry::global().counter("dlf_timeline_dropped_total");
  DroppedTotal.inc();
}

uint64_t monotonicNowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

void appendMeta(std::string &Out, bool &First, const char *MetaName,
                const char *ArgKey, uint32_t Pid, uint32_t Tid,
                const std::string &Value) {
  if (!First)
    Out += ",\n";
  First = false;
  Out += "{\"ph\":\"M\",\"name\":\"";
  Out += MetaName;
  Out += "\",\"pid\":";
  Out += std::to_string(Pid);
  Out += ",\"tid\":";
  Out += std::to_string(Tid);
  Out += ",\"args\":{\"";
  Out += ArgKey;
  Out += "\":\"";
  jsonEscapeTo(Out, Value);
  Out += "\"}}";
}

} // namespace

Timeline::Timeline() : EpochNs(monotonicNowNs()) {}

Timeline &Timeline::global() {
  // Deliberately leaked: instant() may run from detached threads during
  // process teardown.
  static Timeline *G = new Timeline();
  return *G;
}

uint64_t Timeline::nowUs() const {
  uint64_t Now = monotonicNowNs();
  return Now > EpochNs ? (Now - EpochNs) / 1000 : 0;
}

void Timeline::instant(const std::string &Name, uint32_t Tid) {
  if (!enabled())
    return;
  uint64_t Ts = nowUs();
  std::lock_guard<std::mutex> Lk(Mu);
  if (Events.size() >= MaxEvents) {
    ++Dropped;
    countDroppedEvent();
    return;
  }
  Events.push_back(TraceEvent{'i', 0, Tid, Ts, 0, Name});
}

void Timeline::complete(const std::string &Name, uint32_t Tid,
                        uint64_t StartUs, uint64_t EndUs) {
  if (!enabled())
    return;
  if (EndUs < StartUs)
    EndUs = StartUs;
  std::lock_guard<std::mutex> Lk(Mu);
  if (Events.size() >= MaxEvents) {
    ++Dropped;
    countDroppedEvent();
    return;
  }
  Events.push_back(TraceEvent{'X', 0, Tid, StartUs, EndUs - StartUs, Name});
}

void Timeline::nameThread(uint32_t Tid, const std::string &Name) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lk(Mu);
  ThreadNames[Tid] = Name;
}

uint64_t Timeline::dropped() const {
  std::lock_guard<std::mutex> Lk(Mu);
  return Dropped;
}

void Timeline::setMaxEvents(size_t Cap) {
  std::lock_guard<std::mutex> Lk(Mu);
  MaxEvents = Cap;
}

void Timeline::reset() {
  std::lock_guard<std::mutex> Lk(Mu);
  Events.clear();
  ThreadNames.clear();
  Dropped = 0;
  EpochNs = monotonicNowNs();
}

void Timeline::take(std::vector<TraceEvent> &OutEvents,
                    std::map<uint32_t, std::string> &OutThreadNames) {
  std::lock_guard<std::mutex> Lk(Mu);
  OutEvents = std::move(Events);
  OutThreadNames = std::move(ThreadNames);
  Events.clear();
  ThreadNames.clear();
}

std::string Timeline::renderChromeTrace(
    const std::vector<TraceEvent> &Events,
    const std::map<uint32_t, std::string> &ProcessNames,
    const std::map<uint64_t, std::string> &ThreadNames) {
  std::string Out;
  Out.reserve(Events.size() * 96 + 256);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  for (const auto &KV : ProcessNames)
    appendMeta(Out, First, "process_name", "name", KV.first, 0, KV.second);
  for (const auto &KV : ThreadNames)
    appendMeta(Out, First, "thread_name", "name",
               uint32_t(KV.first >> 32), uint32_t(KV.first & 0xffffffffu),
               KV.second);
  for (const TraceEvent &E : Events) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "{\"ph\":\"";
    Out += E.Ph;
    Out += "\",\"name\":\"";
    jsonEscapeTo(Out, E.Name);
    Out += "\",\"pid\":";
    Out += std::to_string(E.Pid);
    Out += ",\"tid\":";
    Out += std::to_string(E.Tid);
    Out += ",\"ts\":";
    Out += std::to_string(E.TsUs);
    if (E.Ph == 'X') {
      Out += ",\"dur\":";
      Out += std::to_string(E.DurUs);
    } else if (E.Ph == 'i') {
      // Thread-scoped instants render as small arrows in the lane.
      Out += ",\"s\":\"t\"";
    }
    Out += "}";
  }
  Out += "\n]}\n";
  return Out;
}

bool Timeline::writeChromeTrace(
    const std::string &Path, const std::vector<TraceEvent> &Events,
    const std::map<uint32_t, std::string> &ProcessNames,
    const std::map<uint64_t, std::string> &ThreadNames, std::string &Err) {
  std::string Body = renderChromeTrace(Events, ProcessNames, ThreadNames);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Err = "cannot open timeline output '" + Path + "'";
    return false;
  }
  bool Ok = std::fwrite(Body.data(), 1, Body.size(), F) == Body.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok)
    Err = "short write to timeline output '" + Path + "'";
  return Ok;
}

} // namespace telemetry
} // namespace dlf
