//===- perfbench/target/Target.cpp - Paced observe-stream target ----------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The program dlf-observe watches in the observe-stream workload: a plain
// pthreads target (no libdlf) that executes a generated plan as an open
// loop. Operation k is due at T0 + k / rate and runs on thread k % threads
// (the main thread is thread 0), whether or not earlier operations were
// late, so a slow observer cannot slow the load down.
//
//   perfbench-target <plan-file> <start-file>
//
// Before T0 the main thread takes every lock once, in index order, from a
// single call site — so under the preload lock i is "<site>#<i+1>" — then
// writes "<T0 ns> <ops> <late-max ns> <cpu ns>" to <start-file> when the run
// ends (T0 in CLOCK_MONOTONIC nanoseconds, comparable with the benchmark's
// clock; cpu the target's own user + sys time, so the benchmark can tell the
// observer's CPU from the target's).
// A planted operation with an "after" index first waits for that operation
// to finish (an atomic flag the analysis cannot see), so the planted
// inversions never deadlock for real.
//
//===----------------------------------------------------------------------===//

#include "../src/Generate.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

namespace {

using perfbench::ObservePlan;

ObservePlan Plan;
std::vector<pthread_mutex_t> Locks;
std::unique_ptr<std::atomic<bool>[]> Done;
uint64_t T0 = 0;
std::atomic<uint64_t> LateMaxNs{0};

uint64_t monoNs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

void sleepUntil(uint64_t Ns) {
  struct timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Ns / 1000000000ull);
  Ts.tv_nsec = static_cast<long>(Ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &Ts, nullptr) != 0) {
  }
}

__attribute__((noinline)) void touchLock(unsigned L) {
  pthread_mutex_lock(&Locks[L]);
  pthread_mutex_unlock(&Locks[L]);
}

__attribute__((noinline)) void runOp(const ObservePlan::Op &O) {
  pthread_mutex_lock(&Locks[O.Outer]);
  pthread_mutex_lock(&Locks[O.Inner]);
  pthread_mutex_unlock(&Locks[O.Inner]);
  pthread_mutex_unlock(&Locks[O.Outer]);
}

void *worker(void *Arg) {
  const size_t Self = reinterpret_cast<uintptr_t>(Arg);
  const double NsPerOp = 1e9 / Plan.OpsPerSecond;
  uint64_t LateMax = 0;
  for (size_t K = Self; K < Plan.Ops.size(); K += Plan.Threads) {
    uint64_t Due = T0 + static_cast<uint64_t>(static_cast<double>(K) * NsPerOp);
    uint64_t Now = monoNs();
    if (Now < Due)
      sleepUntil(Due);
    else if (Now - Due > LateMax)
      LateMax = Now - Due;
    const ObservePlan::Op &O = Plan.Ops[K];
    if (O.After >= 0)
      while (!Done[O.After].load(std::memory_order_acquire))
        sleepUntil(monoNs() + 100000);
    runOp(O);
    Done[K].store(true, std::memory_order_release);
  }
  uint64_t Prev = LateMaxNs.load();
  while (LateMax > Prev && !LateMaxNs.compare_exchange_weak(Prev, LateMax)) {
  }
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3) {
    std::fprintf(stderr, "usage: perfbench-target <plan-file> <start-file>\n");
    return 1;
  }
  std::ifstream In(Argv[1], std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  if (!In || !ObservePlan::parse(Buf.str(), Plan, &Error)) {
    std::fprintf(stderr, "perfbench-target: %s: %s\n", Argv[1], Error.c_str());
    return 1;
  }
  Locks.resize(Plan.Locks);
  for (pthread_mutex_t &M : Locks)
    pthread_mutex_init(&M, nullptr);
  Done.reset(new std::atomic<bool>[Plan.Ops.size()]);
  for (size_t I = 0; I != Plan.Ops.size(); ++I)
    Done[I].store(false);

  for (unsigned L = 0; L != Plan.Locks; ++L)
    touchLock(L);
  T0 = monoNs() + static_cast<uint64_t>(Plan.LeadMs) * 1000000ull;

  std::vector<pthread_t> Threads(Plan.Threads);
  for (unsigned T = 1; T < Plan.Threads; ++T)
    if (pthread_create(&Threads[T], nullptr, worker,
                       reinterpret_cast<void *>(uintptr_t(T))) != 0) {
      std::fprintf(stderr, "perfbench-target: pthread_create failed\n");
      return 1;
    }
  worker(nullptr);
  for (unsigned T = 1; T < Plan.Threads; ++T)
    pthread_join(Threads[T], nullptr);

  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  auto Ns = [](const timeval &T) {
    return static_cast<unsigned long long>(T.tv_sec) * 1000000000ull +
           static_cast<unsigned long long>(T.tv_usec) * 1000ull;
  };
  std::FILE *F = std::fopen(Argv[2], "w");
  if (!F)
    return 1;
  std::fprintf(F, "%llu %zu %llu %llu\n", static_cast<unsigned long long>(T0),
               Plan.Ops.size(),
               static_cast<unsigned long long>(LateMaxNs.load()),
               Ns(Usage.ru_utime) + Ns(Usage.ru_stime));
  return std::fclose(F) == 0 ? 0 : 1;
}
