//===- telemetry/Metrics.cpp - Low-overhead metrics registry ----------------===//

#include "telemetry/Metrics.h"

#include "support/JsonEscape.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <sstream>

using namespace dlf;
using namespace dlf::telemetry;

std::atomic<bool> detail::GEnabled{false};

void dlf::telemetry::setEnabled(bool On) {
  detail::GEnabled.store(On, std::memory_order_relaxed);
}

unsigned dlf::telemetry::histBucketFor(uint64_t V) {
  if (V == 0)
    return 0;
  unsigned B = static_cast<unsigned>(std::bit_width(V));
  return std::min(B, HistBucketCount - 1);
}

uint64_t dlf::telemetry::histBucketUpperBound(unsigned B) {
  if (B == 0)
    return 0;
  if (B >= HistBucketCount - 1)
    return UINT64_MAX;
  return (uint64_t(1) << B) - 1;
}

// -- Core / shards -----------------------------------------------------------

namespace dlf {
namespace telemetry {
namespace detail {

/// One thread's private value arrays. Atomics with relaxed ordering: the
/// owning thread is the only writer, snapshot() the only other reader, so
/// there is no contention — the atomics exist to make the cross-thread
/// reads well-defined, not to synchronize.
struct Shard {
  std::array<std::atomic<uint64_t>, Registry::MaxCounters> Counters;
  struct Hist {
    std::array<std::atomic<uint64_t>, HistBucketCount> Buckets;
    std::atomic<uint64_t> Count;
    std::atomic<uint64_t> Sum;
  };
  std::array<Hist, Registry::MaxHistograms> Hists;

  Shard() { zero(); }
  void zero() {
    for (auto &C : Counters)
      C.store(0, std::memory_order_relaxed);
    for (Hist &H : Hists) {
      for (auto &B : H.Buckets)
        B.store(0, std::memory_order_relaxed);
      H.Count.store(0, std::memory_order_relaxed);
      H.Sum.store(0, std::memory_order_relaxed);
    }
  }
};

/// The registry lock is deliberately NOT a std::mutex. The LD_PRELOAD
/// interposer calls into telemetry both from interposed entry points and
/// from thread-exit TLS destructors (ThreadShards below retires under this
/// lock). A std::mutex would route through the interposed
/// pthread_mutex_lock; in contexts where the interposer's reentrancy flag
/// is not set (TLS destruction runs outside any interposed call), the
/// instrumented path acquires the real mutex and then re-enters the
/// registry to count the event — a guaranteed self-deadlock on this very
/// lock. A raw spinlock never touches pthread, so the interposer never
/// sees it. Contention is registration/snapshot/retire only (writers go to
/// lock-free shards), so spinning is also the right perf trade.
struct SpinMutex {
  std::atomic_flag F = ATOMIC_FLAG_INIT;
  void lock() {
    while (F.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() { F.clear(std::memory_order_release); }
};

/// Shared state of one Registry. Held by shared_ptr from the Registry and
/// from every thread-local shard entry, so a shard outliving its Registry
/// (a thread that exits later) still has somewhere safe to retire into.
struct Core {
  mutable SpinMutex Mu;
  std::vector<std::string> CounterNames;
  std::vector<std::string> GaugeNames;
  std::vector<std::string> HistNames;
  std::array<std::atomic<int64_t>, Registry::MaxGauges> Gauges;
  /// Totals folded in by exited threads.
  std::array<uint64_t, Registry::MaxCounters> RetiredCounters{};
  std::array<HistogramData, Registry::MaxHistograms> RetiredHists{};
  std::vector<Shard *> Shards; ///< live thread shards
  /// Alias of the owning shared_ptr, so handles (which carry a raw Core*)
  /// can hand new threads a strong reference for their shard entry. Reset
  /// by ~Registry to break the cycle; global() never resets it.
  std::shared_ptr<Core> SelfRef;

  Core() {
    for (auto &G : Gauges)
      G.store(0, std::memory_order_relaxed);
  }

  Shard &localShard(const std::shared_ptr<Core> &Self);
  void retire(Shard *S);
};

namespace {

/// Everything one thread owns across all registries it ever touched.
/// Destroyed at thread exit: each shard's values are folded into its
/// core's retired totals.
struct ThreadShards {
  struct Entry {
    std::shared_ptr<Core> C;
    std::unique_ptr<Shard> S;
  };
  std::vector<Entry> Entries;

  ~ThreadShards() {
    for (Entry &E : Entries)
      E.C->retire(E.S.get());
  }
};

thread_local ThreadShards TLShards;
/// One-element cache so the hot path (always the same registry) skips the
/// vector search.
thread_local Core *TLCachedCore = nullptr;
thread_local Shard *TLCachedShard = nullptr;

} // namespace

Shard &Core::localShard(const std::shared_ptr<Core> &Self) {
  if (TLCachedCore == this)
    return *TLCachedShard;
  for (ThreadShards::Entry &E : TLShards.Entries) {
    if (E.C.get() == this) {
      TLCachedCore = this;
      TLCachedShard = E.S.get();
      return *E.S;
    }
  }
  auto S = std::make_unique<Shard>();
  Shard *Raw = S.get();
  {
    std::lock_guard<detail::SpinMutex> Lock(Mu);
    Shards.push_back(Raw);
  }
  TLShards.Entries.push_back({Self, std::move(S)});
  TLCachedCore = this;
  TLCachedShard = Raw;
  return *Raw;
}

void Core::retire(Shard *S) {
  std::lock_guard<detail::SpinMutex> Lock(Mu);
  for (size_t I = 0; I != CounterNames.size(); ++I)
    RetiredCounters[I] += S->Counters[I].load(std::memory_order_relaxed);
  for (size_t I = 0; I != HistNames.size(); ++I) {
    HistogramData &D = RetiredHists[I];
    const Shard::Hist &H = S->Hists[I];
    for (unsigned B = 0; B != HistBucketCount; ++B)
      D.Buckets[B] += H.Buckets[B].load(std::memory_order_relaxed);
    D.Count += H.Count.load(std::memory_order_relaxed);
    D.Sum += H.Sum.load(std::memory_order_relaxed);
  }
  Shards.erase(std::remove(Shards.begin(), Shards.end(), S), Shards.end());
  if (TLCachedCore == this) {
    TLCachedCore = nullptr;
    TLCachedShard = nullptr;
  }
}

} // namespace detail
} // namespace telemetry
} // namespace dlf

using detail::Core;
using detail::Shard;

// -- Handles -----------------------------------------------------------------

void Counter::inc(uint64_t N) const {
  if (!enabled() || !C)
    return;
  // The shared_ptr self-reference lives in the Registry; handles carry the
  // raw pointer. Finding the shard needs the owning shared_ptr only on the
  // first touch per thread, so reconstruct it from the registry-side alias
  // stored in the core (see Registry ctor).
  Shard &S = C->localShard(C->SelfRef);
  S.Counters[Idx].fetch_add(N, std::memory_order_relaxed);
}

void Gauge::set(int64_t V) const {
  if (!enabled() || !C)
    return;
  C->Gauges[Idx].store(V, std::memory_order_relaxed);
}

void Gauge::add(int64_t Delta) const {
  if (!enabled() || !C)
    return;
  C->Gauges[Idx].fetch_add(Delta, std::memory_order_relaxed);
}

void Histogram::observe(uint64_t V) const {
  if (!enabled() || !C)
    return;
  Shard &S = C->localShard(C->SelfRef);
  Shard::Hist &H = S.Hists[Idx];
  H.Buckets[histBucketFor(V)].fetch_add(1, std::memory_order_relaxed);
  H.Count.fetch_add(1, std::memory_order_relaxed);
  H.Sum.fetch_add(V, std::memory_order_relaxed);
}

// -- Registry ----------------------------------------------------------------

Registry::Registry() : C(std::make_shared<Core>()) { C->SelfRef = C; }

Registry::~Registry() {
  // Break the self-reference cycle; the core stays alive through any
  // thread-local shard entries until those threads exit.
  C->SelfRef.reset();
}

Registry &Registry::global() {
  // Leaked singleton: handles and shards may be used during static
  // destruction (thread exit order is unspecified).
  static Registry *G = new Registry();
  return *G;
}

Counter Registry::counter(const std::string &Name) {
  std::lock_guard<detail::SpinMutex> Lock(C->Mu);
  auto It = std::find(C->CounterNames.begin(), C->CounterNames.end(), Name);
  if (It != C->CounterNames.end())
    return Counter(C.get(),
                   static_cast<uint32_t>(It - C->CounterNames.begin()));
  if (C->CounterNames.size() >= MaxCounters)
    return Counter(); // full: no-op handle rather than racy growth
  C->CounterNames.push_back(Name);
  return Counter(C.get(), static_cast<uint32_t>(C->CounterNames.size() - 1));
}

Gauge Registry::gauge(const std::string &Name) {
  std::lock_guard<detail::SpinMutex> Lock(C->Mu);
  auto It = std::find(C->GaugeNames.begin(), C->GaugeNames.end(), Name);
  if (It != C->GaugeNames.end())
    return Gauge(C.get(), static_cast<uint32_t>(It - C->GaugeNames.begin()));
  if (C->GaugeNames.size() >= MaxGauges)
    return Gauge();
  C->GaugeNames.push_back(Name);
  return Gauge(C.get(), static_cast<uint32_t>(C->GaugeNames.size() - 1));
}

Histogram Registry::histogram(const std::string &Name) {
  std::lock_guard<detail::SpinMutex> Lock(C->Mu);
  auto It = std::find(C->HistNames.begin(), C->HistNames.end(), Name);
  if (It != C->HistNames.end())
    return Histogram(C.get(),
                     static_cast<uint32_t>(It - C->HistNames.begin()));
  if (C->HistNames.size() >= MaxHistograms)
    return Histogram();
  C->HistNames.push_back(Name);
  return Histogram(C.get(),
                   static_cast<uint32_t>(C->HistNames.size() - 1));
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot Out;
  std::lock_guard<detail::SpinMutex> Lock(C->Mu);
  for (size_t I = 0; I != C->CounterNames.size(); ++I) {
    uint64_t Total = C->RetiredCounters[I];
    for (Shard *S : C->Shards)
      Total += S->Counters[I].load(std::memory_order_relaxed);
    Out.Counters[C->CounterNames[I]] = Total;
  }
  for (size_t I = 0; I != C->GaugeNames.size(); ++I)
    Out.Gauges[C->GaugeNames[I]] =
        C->Gauges[I].load(std::memory_order_relaxed);
  for (size_t I = 0; I != C->HistNames.size(); ++I) {
    HistogramData D = C->RetiredHists[I];
    for (Shard *S : C->Shards) {
      const Shard::Hist &H = S->Hists[I];
      for (unsigned B = 0; B != HistBucketCount; ++B)
        D.Buckets[B] += H.Buckets[B].load(std::memory_order_relaxed);
      D.Count += H.Count.load(std::memory_order_relaxed);
      D.Sum += H.Sum.load(std::memory_order_relaxed);
    }
    Out.Histograms[C->HistNames[I]] = D;
  }
  return Out;
}

void Registry::reset() {
  std::lock_guard<detail::SpinMutex> Lock(C->Mu);
  C->RetiredCounters.fill(0);
  C->RetiredHists.fill(HistogramData{});
  for (auto &G : C->Gauges)
    G.store(0, std::memory_order_relaxed);
  for (Shard *S : C->Shards)
    S->zero();
}

// -- Snapshot merge / serialization ------------------------------------------

void HistogramData::observe(uint64_t V) {
  ++Buckets[histBucketFor(V)];
  ++Count;
  Sum += V;
}

void MetricsSnapshot::merge(const MetricsSnapshot &Other) {
  for (const auto &KV : Other.Counters)
    Counters[KV.first] += KV.second;
  for (const auto &KV : Other.Gauges) {
    auto [It, New] = Gauges.try_emplace(KV.first, KV.second);
    if (!New)
      It->second = std::max(It->second, KV.second);
  }
  for (const auto &KV : Other.Histograms) {
    HistogramData &D = Histograms[KV.first];
    for (unsigned B = 0; B != HistBucketCount; ++B)
      D.Buckets[B] += KV.second.Buckets[B];
    D.Count += KV.second.Count;
    D.Sum += KV.second.Sum;
  }
}

std::string MetricsSnapshot::toJson() const {
  std::ostringstream OS;
  OS << "{\"dlf_metrics\":1,\"counters\":{";
  bool First = true;
  for (const auto &KV : Counters) {
    if (!First)
      OS << ',';
    First = false;
    OS << '"' << jsonEscape(KV.first) << '"';
    OS << ':' << KV.second;
  }
  OS << "},\"gauges\":{";
  First = true;
  for (const auto &KV : Gauges) {
    if (!First)
      OS << ',';
    First = false;
    OS << '"' << jsonEscape(KV.first) << '"';
    OS << ':' << KV.second;
  }
  OS << "},\"histograms\":{";
  First = true;
  for (const auto &KV : Histograms) {
    if (!First)
      OS << ',';
    First = false;
    OS << '"' << jsonEscape(KV.first) << '"';
    OS << ":{\"count\":" << KV.second.Count << ",\"sum\":" << KV.second.Sum
       << ",\"buckets\":{";
    bool FirstB = true;
    for (unsigned B = 0; B != HistBucketCount; ++B) {
      if (!KV.second.Buckets[B])
        continue;
      if (!FirstB)
        OS << ',';
      FirstB = false;
      OS << '"' << B << "\":" << KV.second.Buckets[B];
    }
    OS << "}}";
  }
  OS << "}}\n";
  return OS.str();
}

std::string MetricsSnapshot::toPrometheus() const {
  std::ostringstream OS;
  for (const auto &KV : Counters) {
    OS << "# TYPE " << KV.first << " counter\n"
       << KV.first << ' ' << KV.second << '\n';
  }
  for (const auto &KV : Gauges) {
    OS << "# TYPE " << KV.first << " gauge\n"
       << KV.first << ' ' << KV.second << '\n';
  }
  for (const auto &KV : Histograms) {
    OS << "# TYPE " << KV.first << " histogram\n";
    // Cumulative le-buckets; the last bucket is always the explicit +Inf
    // one so scrapers see a complete histogram even when empty.
    uint64_t Cum = 0;
    for (unsigned B = 0; B != HistBucketCount - 1; ++B) {
      if (!KV.second.Buckets[B])
        continue;
      Cum += KV.second.Buckets[B];
      OS << KV.first << "_bucket{le=\"" << histBucketUpperBound(B) << "\"} "
         << Cum << '\n';
    }
    OS << KV.first << "_bucket{le=\"+Inf\"} " << KV.second.Count << '\n';
    OS << KV.first << "_sum " << KV.second.Sum << '\n'
       << KV.first << "_count " << KV.second.Count << '\n';
  }
  return OS.str();
}
