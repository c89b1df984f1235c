#include "bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace rootbench {

namespace {

std::uint64_t ClockNs(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Shortest round-trip representation; JSON has no NaN/Inf, so those become
// null (and the Python side treats a null metric as missing).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t TidCpuNs(pid_t tid) {
  // Linux encodes "scheduler CPU clock of thread `tid`" as a negative
  // clockid: (~tid << 3) | CPUCLOCK_PERTHREAD_MASK | CPUCLOCK_SCHED.
  const clockid_t id = static_cast<clockid_t>((~static_cast<unsigned>(tid)) << 3) | 6;
  return ClockNs(id);
}

std::vector<pid_t> ListTids() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10)));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[index];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int Tracer::Begin(std::string name, int parent) {
  if (!enabled_) return kNoParent;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now, now, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

int Tracer::Record(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, int parent) {
  if (!enabled_) return kNoParent;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size() - 1);
}

std::string Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out += ",";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + Escape(s.name) +
           "\",\"start_us\":" + Num((s.start_ns - origin) / 1e3) +
           ",\"end_us\":" + Num((s.end_ns - origin) / 1e3) +
           ",\"parent\":" + std::to_string(s.parent) + "}";
  }
  return out + "]";
}

std::string Result::ToJson(const Tracer& tracer) const {
  std::string out = "{\"workload\":\"" + Escape(workload) +
                    "\",\"seed\":" + std::to_string(seed) +
                    ",\"trace\":" + (trace ? "1" : "0") +
                    ",\"correct\":" + (failed == 0 ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i ? ",\"" : "\"") + Escape(failures[i]) + "\"";
  }
  out += "],\"valid\":" + std::string(warnings.empty() ? "true" : "false") +
         ",\"warnings\":[";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    out += (i ? ",\"" : "\"") + Escape(warnings[i]) + "\"";
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ",\"" : "\"") + Escape(m.name) + "\":{\"value\":" +
           Num(m.value) + ",\"unit\":\"" + Escape(m.unit) + "\"}";
  }
  out += "},\"layers\":{\"total_ns_per_query\":" + Num(layers_total_ns) +
         ",\"rows\":[";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerRow& r = layers[i];
    out += (i ? ",{" : "{") + std::string("\"name\":\"") + Escape(r.name) +
           "\",\"ns_per_query\":" + Num(r.ns_per_query) + ",\"source\":\"" +
           Escape(r.source) + "\"}";
  }
  out += "]},\"info\":{";
  for (std::size_t i = 0; i < info.size(); ++i) {
    out += (i ? ",\"" : "\"") + Escape(info[i].first) + "\":\"" +
           Escape(info[i].second) + "\"";
  }
  out += "},\"spans\":" + tracer.ToJson() + "}";
  return out;
}

}  // namespace rootbench
