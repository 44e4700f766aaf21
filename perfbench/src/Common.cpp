//===- perfbench/src/Common.cpp - Clocks, stats, tracer, results ----------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

namespace perfbench {

uint64_t nowNs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

namespace {

double cpuMs(int Who) {
  struct rusage U;
  getrusage(Who, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double peakRssMb(int Who) {
  struct rusage U;
  getrusage(Who, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace

double selfCpuMs() { return cpuMs(RUSAGE_SELF); }
double childrenCpuMs() { return cpuMs(RUSAGE_CHILDREN); }
double selfPeakRssMb() { return peakRssMb(RUSAGE_SELF); }
double childrenPeakRssMb() { return peakRssMb(RUSAGE_CHILDREN); }

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = P / 100.0 * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

// -- Tracer -------------------------------------------------------------------

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int64_t Tracer::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.StartNs = nowNs();
  S.Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back(std::move(S));
  int64_t Index = static_cast<int64_t>(Spans.size() - 1);
  Open.push_back(Index);
  return Index;
}

void Tracer::close(int64_t Index) {
  Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

void Tracer::record(const char *Name, uint64_t StartNs, uint64_t EndNs) {
  if (!On)
    return;
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  S.Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back(std::move(S));
}

std::vector<double> Tracer::selfMs() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = nsToMs(Spans[I].EndNs - Spans[I].StartNs);
  // Children of one parent run one after another on the main thread, so
  // their durations are disjoint parts of the parent's interval.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= nsToMs(S.EndNs - S.StartNs);
  return Self;
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  std::map<std::string, double> Out;
  std::vector<double> Self = selfMs();
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name.substr(0, Spans[I].Name.find('.'))] += Self[I];
  return Out;
}

std::map<std::string, std::pair<double, uint64_t>>
Tracer::selfMsByName() const {
  std::map<std::string, std::pair<double, uint64_t>> Out;
  std::vector<double> Self = selfMs();
  for (size_t I = 0; I != Spans.size(); ++I) {
    auto &E = Out[Spans[I].Name];
    E.first += Self[I];
    ++E.second;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ostringstream OS;
  OS << "[\n";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << "{\"id\":" << I << ",\"name\":\"" << S.Name
       << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
       << ",\"parent\":" << S.Parent << "}" << (I + 1 == Spans.size() ? "" : ",")
       << "\n";
  }
  OS << "]\n";
  return writeFile(Path, OS.str());
}

// -- Results ------------------------------------------------------------------

void Result::fail(const std::string &Where,
                  const std::vector<std::string> &Errors) {
  for (const std::string &E : Errors)
    CheckErrors.push_back(Where + ": " + E);
}

std::string Result::json() const {
  std::ostringstream OS;
  OS << std::setprecision(17);
  OS << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const auto &KV : Metrics) {
    double V = std::isfinite(KV.second.Value) ? KV.second.Value : 0.0;
    OS << (First ? "" : ", ") << "\"" << KV.first << "\": {\"value\": " << V
       << ", \"unit\": \"" << KV.second.Unit << "\"}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

void report(const std::string &Name, double Value, const std::string &Unit,
            const std::string &Note) {
  std::ostringstream OS;
  OS << "  " << std::left << std::setw(34) << Name << std::right
     << std::setw(14) << std::setprecision(6) << Value << " " << std::left
     << std::setw(6) << Unit << "  " << Note << "\n";
  std::cout << OS.str();
}

// -- Files and processes -------------------------------------------------------

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream OS;
  OS << In.rdbuf();
  Out = OS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
  Out.flush();
  return static_cast<bool>(Out);
}

bool makeDirs(const std::string &Path) {
  for (size_t Pos = 1; Pos <= Path.size(); ++Pos) {
    if (Pos != Path.size() && Path[Pos] != '/')
      continue;
    std::string Prefix = Path.substr(0, Pos);
    if (mkdir(Prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
  }
  return true;
}

int runProcess(const std::vector<std::string> &Argv, const std::string &Stdout,
               const std::string &Stderr, unsigned TimeoutS) {
  pid_t Pid = fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    auto Redirect = [](const std::string &Path, int Fd) {
      int F = open(Path.empty() ? "/dev/null" : Path.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (F >= 0) {
        dup2(F, Fd);
        close(F);
      }
    };
    Redirect(Stdout, 1);
    Redirect(Stderr, 2);
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    execv(Args[0], Args.data());
    _exit(127);
  }
  const uint64_t Deadline = nowNs() + uint64_t(TimeoutS) * 1000000000ull;
  int Status = 0;
  while (true) {
    pid_t W = waitpid(Pid, &Status, WNOHANG);
    if (W == Pid)
      break;
    if (W < 0 && errno != EINTR)
      return -1;
    if (nowNs() > Deadline) {
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
      break;
    }
    usleep(2000);
  }
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  return 128 + (WIFSIGNALED(Status) ? WTERMSIG(Status) : 0);
}

} // namespace perfbench
