// Shared plumbing for the rootless benchmark program: clocks (wall, thread
// and per-thread-id CPU), exact percentiles, the in-memory span recorder used
// by traced runs, and the result record that main.cc prints as JSON.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rootbench {

using Clock = std::chrono::steady_clock;

// Monotonic wall clock in nanoseconds (steady_clock epoch).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// CPU time consumed so far by the calling thread / the whole process.
std::uint64_t ThreadCpuNs();
std::uint64_t ProcessCpuNs();
// CPU time of another thread of this process, by kernel thread id.
std::uint64_t TidCpuNs(pid_t tid);
// Kernel thread ids of every live thread of this process.
std::vector<pid_t> ListTids();
// Peak resident set size of the process, in MiB.
double PeakRssMb();

// Exact order statistics (sorts `v` in place). `p` in [0, 100]; nearest-rank
// on the sorted samples, so a percentile is always one measured value.
double Percentile(std::vector<double>& v, double p);
double Median(std::vector<double> v);

// In-memory spans (name, start, end, parent), recorded only in traced runs
// and written out with the result. Thread-safe; ids are indices.
class Tracer {
 public:
  static constexpr int kNoParent = -1;

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  // Returns the span id (kNoParent when tracing is off).
  int Begin(std::string name, int parent = kNoParent);
  void End(int id);
  // Records an already-timed interval (start/end from NowNs()).
  int Record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
             int parent = kNoParent);
  // JSON array of spans, times in microseconds since the first span.
  std::string ToJson() const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNoParent;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent = Tracer::kNoParent)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// Everything one benchmark invocation reports.
struct Result {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  // One row of the layer-closure table: CPU ns per end-to-end query.
  struct LayerRow {
    std::string name;
    double ns_per_query = 0;
    std::string source;  // how the row was measured
  };

  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  // Conditions that make the run's numbers suspect without any output being
  // wrong (loss past the limit, a generator behind its schedule).
  std::vector<std::string> warnings;
  std::vector<Metric> metrics;
  std::vector<LayerRow> layers;
  double layers_total_ns = 0;  // the end-to-end CPU per query they close on
  std::vector<std::pair<std::string, std::string>> info;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // A failed correctness check covering `operations` failed operations.
  void Fail(std::string what, std::uint64_t operations = 1) {
    failed += operations;
    failures.push_back(std::move(what));
  }
  std::string ToJson(const Tracer& tracer) const;
};

}  // namespace rootbench
