//===- perfbench/src/Bench.h - End-to-end benchmark -------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the end-to-end benchmark: run options,
/// the in-memory span tracer, sample statistics, the metric sink that
/// renders the final result line, and the entry points of the four
/// workloads and the layer probes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// -- Clocks and resource usage ------------------------------------------------

/// Monotonic nanoseconds (CLOCK_MONOTONIC, comparable across processes on
/// one host — the observe-stream target reports its schedule origin in it).
uint64_t nowNs();

inline double nsToMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// User + system CPU of this process (all threads), in milliseconds.
double selfCpuMs();
/// User + system CPU of every reaped descendant, in milliseconds.
double childrenCpuMs();
/// Largest resident set of this process / of any reaped descendant, in MB.
double selfPeakRssMb();
double childrenPeakRssMb();

// -- Statistics ---------------------------------------------------------------

/// The \p P-th percentile (0..100) by linear interpolation; 0 when empty.
double percentile(std::vector<double> Values, double P);
inline double median(const std::vector<double> &Values) {
  return percentile(Values, 50);
}

// -- Tracing ------------------------------------------------------------------

/// One span: a named interval with the index of the span that caused it
/// (-1 for a root). Names are "<layer>.<call>".
struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1;
};

/// In-memory span recorder. Single-threaded: every span is opened and
/// closed on the main thread (campaign status callbacks run there too).
/// Off by default; when off, a Scope costs one branch.
class Tracer {
public:
  static Tracer &get();

  bool on() const { return On; }
  void setOn(bool V) { On = V; }

  /// Opens a span under the innermost open span; returns its index.
  int64_t open(const char *Name);
  void close(int64_t Index);
  /// Records a finished span under the innermost open span (intervals
  /// learned after the fact, e.g. from campaign commit timestamps).
  void record(const char *Name, uint64_t StartNs, uint64_t EndNs);

  /// RAII span; no-op when tracing is off.
  class Scope {
  public:
    explicit Scope(const char *Name)
        : Index(Tracer::get().on() ? Tracer::get().open(Name) : -1) {}
    ~Scope() {
      if (Index >= 0)
        Tracer::get().close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int64_t Index;
  };

  /// Self time (duration minus the part covered by child spans) summed
  /// per layer, the part of the name before the first '.', in ms.
  std::map<std::string, double> selfMsByLayer() const;
  /// Same, per full span name, with the span count.
  std::map<std::string, std::pair<double, uint64_t>> selfMsByName() const;
  /// Writes every span as a JSON array to \p Path.
  bool write(const std::string &Path) const;

private:
  std::vector<double> selfMs() const;

  bool On = false;
  std::vector<Span> Spans;
  std::vector<int64_t> Open;
};

// -- Results ------------------------------------------------------------------

/// Collects the metrics of one run and renders the final JSON line.
struct Result {
  struct Metric {
    double Value = 0;
    std::string Unit;
  };
  std::map<std::string, Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> CheckErrors;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Adds \p Errors, prefixed with \p Where, to CheckErrors.
  void fail(const std::string &Where, const std::vector<std::string> &Errors);
  bool correct() const { return CheckErrors.empty(); }
  std::string json() const;
};

/// Prints one human-readable metric line: name, value, unit, and a note
/// (what the value means on this workload, sample count).
void report(const std::string &Name, double Value, const std::string &Unit,
            const std::string &Note);

// -- Run context --------------------------------------------------------------

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Build directory holding the tools, the preload library and the target.
  std::string BinDir = ".bench_build";
  /// Work directory for journals, generated inputs and outputs.
  std::string WorkDir = ".bench_build/work";
};

/// Phase I seed of every campaign and probe: the observation (and so the
/// cycle set) is fixed per program; --seed varies the Phase II schedules.
constexpr uint64_t PhaseOneSeed = 1;

/// What a workload measured with tracing off or on; the traced run uses
/// both halves to report the tracing overhead.
struct WorkloadOutcome {
  /// The workload's main rate (reps/s or events/s), for the overhead.
  double Throughput = 0;
  /// Program the layer probes use for the runtime / campaign layers.
  std::string ProbeProgram = "dbcp";
  /// Commit gap p50 of a --jobs 1 campaign on ProbeProgram, ms (0: none
  /// measured by the workload; the probes then run a small one).
  double SerialCommitGapMs = 0;
};

/// The end-to-end workloads. Each measures for \p Seconds, fills the
/// end-to-end metrics and runs its output checks into \p R.
WorkloadOutcome runCampaignWorkload(const RunOptions &O, double Seconds,
                                    Result &R);
WorkloadOutcome runPredictWorkload(const RunOptions &O, double Seconds,
                                   Result &R);
WorkloadOutcome runObserveWorkload(const RunOptions &O, double Seconds,
                                   Result &R);

/// Median commit gap, in ms, of one --jobs 1 campaign on \p Program
/// ("dbcp" or "jigsaw") with the workload's repetition count.
double serialCommitGapMs(const RunOptions &O, const std::string &Program);

/// Writes the seed's predict-offline trace into the work directory and
/// returns its path.
std::string predictTracePath(const RunOptions &O);
/// The seed's plan for \p Workload (observe-dense, else observe-stream),
/// serialized; observePlanPath writes it into the work directory and
/// returns its path.
std::string observePlanText(uint64_t Seed, const std::string &Workload);
std::string observePlanPath(const RunOptions &O);

/// The traced run's layer probes: times each public call named in the
/// README's layer table and sets every per-layer metric in \p R.
void runLayerProbes(const RunOptions &O, const WorkloadOutcome &W,
                    Result &R);

/// Benchmark self-tests (generator determinism, metric names, checks).
/// Returns the process exit code.
int runSelfTests(const RunOptions &O);

/// Every workload name, and every end-to-end / per-layer metric name with
/// its unit — the names BENCHMARK.json declares.
const std::vector<std::string> &workloadNames();
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

// -- Small utilities ----------------------------------------------------------

bool readFile(const std::string &Path, std::string &Out);
bool writeFile(const std::string &Path, const std::string &Data);
/// mkdir -p.
bool makeDirs(const std::string &Path);

/// Runs \p Argv to completion with stdout/stderr redirected to files (empty
/// path: /dev/null). Returns the exit status (128 + signal when killed,
/// -1 when it could not start). Kills the child after \p TimeoutS.
int runProcess(const std::vector<std::string> &Argv, const std::string &Stdout,
               const std::string &Stderr, unsigned TimeoutS);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
