//===- perfbench/src/Observe.cpp - observe-stream, observe-dense ----------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Live observation sessions: `dlf-observe --preload libdlf_preload.so
// --status-addr 127.0.0.1:0 -- perfbench-target <plan>`, the preload in
// ring-only mode. The target runs the generated plan as an open loop at a
// fixed rate. In every third session the benchmark polls the observer's
// GET /status every few milliseconds and compares its EventsSeen with the
// target's emission schedule, which gives the observer's lag behind the
// writer. The sessions in between are left unscraped and give the
// observer's own CPU per record: a poll costs the observer a loopback
// connection and a JSON render, which would otherwise dominate it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Generate.h"

#include "campaign/Json.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

using namespace dlf;

namespace {

constexpr double SessionSeconds = 2.0;
constexpr unsigned PollMs = 5;
constexpr unsigned SessionTimeoutS = 60;

/// GET \p Path from 127.0.0.1:\p Port; the body, or empty on any failure.
std::string httpGet(unsigned Port, const char *Path) {
  int Fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return "";
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(static_cast<uint16_t>(Port));
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string Resp;
  if (connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0) {
    std::string Req = std::string("GET ") + Path +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (write(Fd, Req.data(), Req.size()) == static_cast<ssize_t>(Req.size())) {
      char Buf[4096];
      ssize_t N;
      while ((N = read(Fd, Buf, sizeof(Buf))) > 0)
        Resp.append(Buf, static_cast<size_t>(N));
    }
  }
  close(Fd);
  size_t Body = Resp.find("\r\n\r\n");
  return Body == std::string::npos ? "" : Resp.substr(Body + 4);
}

/// The ephemeral port dlf-observe echoes on stderr (its --status-addr
/// contract), or 0 when the line is not there yet.
unsigned echoedPort(const std::string &StderrPath) {
  std::string Text;
  if (!readFile(StderrPath, Text))
    return 0;
  const std::string Tag = "status server listening on http://127.0.0.1:";
  size_t At = Text.find(Tag);
  return At == std::string::npos
             ? 0
             : static_cast<unsigned>(std::strtoul(Text.c_str() + At + Tag.size(),
                                                  nullptr, 10));
}

struct Poll {
  uint64_t Ns = 0;
  uint64_t EventsSeen = 0;
};

struct Session {
  int ExitCode = -1;
  uint64_t LaunchNs = 0, FirstRecordsNs = 0, FirstCycleNs = 0, EndNs = 0;
  std::vector<Poll> Polls;
  double CpuMs = 0; ///< dlf-observe and the target together
  double PeakRssMb = 0;
  uint64_t Drained = 0, Dropped = 0;
  uint64_t T0 = 0, Ops = 0, GeneratorLateNs = 0, TargetCpuNs = 0;
  std::string Report;
};

Session runSession(const RunOptions &O, const std::string &Plan, unsigned I,
                   bool Scrape) {
  const std::string Base = O.WorkDir + "/observe-" + std::to_string(I);
  const std::string Out = Base + ".out", Err = Base + ".err",
                    Metrics = Base + ".metrics.json", Start = Base + ".start";
  std::remove(Start.c_str());
  std::remove(Err.c_str());
  const std::vector<std::string> Argv = {
      O.BinDir + "/dlf/dlf-observe", "--preload",
      O.BinDir + "/dlf/libdlf_preload.so", "--status-addr", "127.0.0.1:0",
      "--metrics-out", Metrics, "--", O.BinDir + "/perfbench-target", Plan,
      Start};

  Session S;
  Tracer::Scope Span("observe.session");
  S.LaunchNs = nowNs();
  pid_t Pid = fork();
  if (Pid == 0) {
    setpgid(0, 0); // one group: a stuck session is killed whole
    int OutFd = open(Out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int ErrFd = open(Err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    dup2(OutFd, 1);
    dup2(ErrFd, 2);
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    execv(Args[0], Args.data());
    _exit(127);
  }
  if (Pid < 0)
    return S;

  unsigned Port = 0;
  int Status = 0;
  struct rusage Usage {};
  const uint64_t Deadline = S.LaunchNs + SessionTimeoutS * 1000000000ull;
  while (true) {
    uint64_t Tick = nowNs();
    pid_t W = wait4(Pid, &Status, WNOHANG, &Usage);
    if (W == Pid)
      break;
    if (Tick > Deadline) {
      kill(-Pid, SIGKILL);
      kill(Pid, SIGKILL);
      wait4(Pid, &Status, 0, &Usage);
      break;
    }
    if (!Port && Scrape)
      Port = echoedPort(Err);
    if (Port) {
      std::string Body;
      {
        Tracer::Scope PollSpan("observe.poll");
        Body = httpGet(Port, "/status");
      }
      campaign::JsonValue Doc;
      if (!Body.empty() && campaign::parseJson(Body, Doc)) {
        Poll P{nowNs(), Doc["observer"]["events_seen"].asUInt()};
        S.Polls.push_back(P);
        if (P.EventsSeen && !S.FirstRecordsNs) {
          S.FirstRecordsNs = P.Ns;
          Tracer::get().record("observe.setup", S.LaunchNs, P.Ns);
        }
        if (Doc["progress"]["cycles_found"].asUInt() && !S.FirstCycleNs)
          S.FirstCycleNs = P.Ns;
      }
    }
    uint64_t Next = Tick + PollMs * 1000000ull;
    uint64_t Now = nowNs();
    if (Next > Now)
      usleep(static_cast<useconds_t>((Next - Now) / 1000));
  }
  S.EndNs = nowNs();
  // The observer is reaped; the target (its child) went with it unless
  // something went wrong — sweep the group either way.
  kill(-Pid, SIGKILL);
  S.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 + static_cast<double>(T.tv_usec) / 1e3;
  };
  S.CpuMs = Ms(Usage.ru_utime) + Ms(Usage.ru_stime);
  S.PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;

  readFile(Out, S.Report);
  std::string Text;
  campaign::JsonValue Doc;
  if (readFile(Metrics, Text) && campaign::parseJson(Text, Doc)) {
    S.Drained = Doc["counters"]["dlf_ring_drained_total"].asUInt();
    S.Dropped = Doc["counters"]["dlf_ring_dropped_total"].asUInt();
  }
  if (readFile(Start, Text)) {
    std::istringstream IS(Text);
    IS >> S.T0 >> S.Ops >> S.GeneratorLateNs >> S.TargetCpuNs;
  }
  return S;
}

/// Lag samples of one session: at each poll during the paced stream, how
/// long the oldest event the observer had not yet seen had been due.
/// Events before T0 (prologue, thread starts) are the count the observer
/// reported at the last poll before T0.
std::vector<double> lagMs(const Session &S, double OpsPerS, bool *HaveBase) {
  std::vector<double> Lag;
  uint64_t Base = 0;
  *HaveBase = false;
  for (const Poll &P : S.Polls)
    if (P.Ns < S.T0 && P.EventsSeen) {
      Base = P.EventsSeen;
      *HaveBase = true;
    }
  if (!*HaveBase || !S.Ops)
    return Lag;
  const double NsPerOp = 1e9 / OpsPerS;
  const uint64_t LastDue = S.T0 + static_cast<uint64_t>((S.Ops - 1) * NsPerOp);
  for (const Poll &P : S.Polls) {
    if (P.Ns < S.T0 || P.Ns > LastDue)
      continue;
    uint64_t Seen = P.EventsSeen > Base ? P.EventsSeen - Base : 0;
    uint64_t NextOp = Seen / ObservePlan::EventsPerOp;
    if (NextOp >= S.Ops) {
      Lag.push_back(0);
      continue;
    }
    uint64_t Due = S.T0 + static_cast<uint64_t>(static_cast<double>(NextOp) * NsPerOp);
    Lag.push_back(P.Ns > Due ? nsToMs(P.Ns - Due) : 0);
  }
  return Lag;
}

} // namespace

std::string observePlanText(uint64_t Seed, const std::string &Workload) {
  // observe-stream: 8000 ops/s (32k events/s) over 8 locks per tier.
  // observe-dense: 20000 ops/s (80k events/s, still a third of what one
  // 50 ms epoch can hold in 4096-slot shards) over 16 locks per tier, so
  // the accumulated log and each epoch's re-closure are several times
  // larger.
  const bool Dense = Workload == "observe-dense";
  return generateObservePlan(Seed, SessionSeconds, Dense ? 20000 : 8000,
                             Dense ? 16 : 8)
      .serialize();
}

std::string observePlanPath(const RunOptions &O) {
  makeDirs(O.WorkDir);
  std::string Path =
      O.WorkDir + "/" + O.Workload + "-" + std::to_string(O.Seed) + ".plan";
  writeFile(Path, observePlanText(O.Seed, O.Workload));
  return Path;
}

WorkloadOutcome runObserveWorkload(const RunOptions &O, double Seconds,
                                   Result &R) {
  WorkloadOutcome Out;
  const std::string PlanPath = observePlanPath(O);
  ObservePlan Plan;
  std::string Text, Err;
  if (!readFile(PlanPath, Text) || !ObservePlan::parse(Text, Plan, &Err)) {
    R.fail(O.Workload, {"plan: " + Err});
    return Out;
  }

  std::vector<double> Setup, EventsPerS, Lag, FirstCycle, CpuUsPerEvent,
      TargetCpuUsPerEvent, PeakRss;
  double LateMaxMs = 0;
  unsigned Sessions = 0;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  while (Sessions < 2 || nowNs() < Deadline) {
    const bool Scrape = Sessions % 3 == 0;
    Session S = runSession(O, PlanPath, Sessions, Scrape);
    ++Sessions;
    std::string Where = O.Workload + " session " + std::to_string(Sessions);
    Errors E;
    if (S.ExitCode != 0)
      E.push_back("dlf-observe exited " + std::to_string(S.ExitCode));
    if (S.Ops != Plan.Ops.size())
      E.push_back("target finished " + std::to_string(S.Ops) + " of " +
                  std::to_string(Plan.Ops.size()) + " operations");
    Errors C = checkObservedCycles(S.Report, Plan.Planted);
    E.insert(E.end(), C.begin(), C.end());
    const double TargetCpuMs = static_cast<double>(S.TargetCpuNs) / 1e6;
    if (!S.TargetCpuNs || TargetCpuMs > S.CpuMs)
      E.push_back("target CPU " + std::to_string(TargetCpuMs) +
                  " ms is missing or above the session's " +
                  std::to_string(S.CpuMs) + " ms");
    bool HaveBase = false;
    std::vector<double> L = lagMs(S, Plan.OpsPerSecond, &HaveBase);
    if (Scrape && !HaveBase)
      E.push_back("no /status poll saw the prologue before T0");
    R.fail(Where, E);
    R.Attempted += S.Drained + S.Dropped;
    R.Failed += S.Dropped;
    if (!E.empty() || !S.Drained || (Scrape && !S.FirstRecordsNs))
      continue;
    EventsPerS.push_back(static_cast<double>(S.Drained) /
                         (nsToMs(S.EndNs - S.LaunchNs) / 1e3));
    if (Scrape) {
      Lag.insert(Lag.end(), L.begin(), L.end());
      Setup.push_back(nsToMs(S.FirstRecordsNs - S.LaunchNs) / 1e3);
      if (S.FirstCycleNs)
        FirstCycle.push_back(nsToMs(S.FirstCycleNs - S.LaunchNs) / 1e3);
    } else {
      // The observer's share only: the target's CPU is mostly the kernel
      // waking its threads for each paced operation, which measures the
      // host, not the program.
      CpuUsPerEvent.push_back((S.CpuMs - TargetCpuMs) * 1e3 /
                              static_cast<double>(S.Drained));
      TargetCpuUsPerEvent.push_back(TargetCpuMs * 1e3 /
                                    static_cast<double>(S.Drained));
    }
    PeakRss.push_back(S.PeakRssMb);
    std::cerr << Where << (Scrape ? " (scraped)" : "") << ": dlf-observe "
              << (S.CpuMs - TargetCpuMs) << " ms CPU, target " << TargetCpuMs
              << " ms, " << S.Drained << " records\n";
    LateMaxMs = std::max(LateMaxMs, nsToMs(S.GeneratorLateNs));
  }
  if (R.Attempted == 0)
    R.Attempted = 1;

  Out.Throughput = median(EventsPerS);
  const std::string N = " (n=" + std::to_string(Sessions) + " sessions)";
  const std::string Ns =
      " (n=" + std::to_string(Setup.size()) + " scraped sessions)";
  const std::string Nu =
      " (n=" + std::to_string(CpuUsPerEvent.size()) + " unscraped sessions)";
  const std::string Ln = " (n=" + std::to_string(Lag.size()) + " polls)";
  std::cout << O.Workload << ": " << Plan.Ops.size() << " paced operations ("
            << Plan.Ops.size() * ObservePlan::EventsPerOp << " events) at "
            << Plan.OpsPerSecond << " ops/s on " << Plan.Threads
            << " threads, " << Plan.Planted.size()
            << " planted inversions; generator ran at most " << LateMaxMs
            << " ms late; target CPU " << median(TargetCpuUsPerEvent)
            << " us per record; lag p90 " << percentile(Lag, 90) << " p95 "
            << percentile(Lag, 95) << " ms\n";
  auto Put = [&](const char *Name, double V, const char *Unit,
                 const std::string &Note) {
    R.set(Name, V, Unit);
    report(Name, V, Unit, Note);
  };
  Put("setup_s", median(Setup), "s",
      "median launch -> first /status with records" + Ns);
  Put("throughput_per_s", Out.Throughput, "1/s",
      "events_per_s: ring records analyzed / session wall" + N);
  Put("latency_ms_p50", percentile(Lag, 50), "ms",
      "lag_ms_p50: oldest unseen event's wait, from /status" + Ln);
  Put("latency_ms_tail", percentile(Lag, 99), "ms", "lag_ms_p99" + Ln);
  Put("first_deadlock_s", median(FirstCycle), "s",
      "median launch -> first /status reporting a cycle" + Ns);
  Put("cpu_us_per_item", median(CpuUsPerEvent), "us",
      "cpu_us_per_event: dlf-observe CPU per record" + Nu);
  Put("peak_rss_mb", median(PeakRss), "MB",
      "median over sessions of the larger of dlf-observe and the target" + N);
  Put("ok_frac", 1.0 - static_cast<double>(R.Failed) / R.Attempted, "1",
      "1 - fail_frac: dropped / written ring records (" +
          std::to_string(R.Attempted) + " written)");
  return Out;
}

} // namespace perfbench
