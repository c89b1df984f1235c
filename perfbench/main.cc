// rootbench: the benchmark program that perfbench/run.py builds and runs.
//
//   rootbench --workload NAME --seed N --seconds S --trace 0|1
//             [--corrupt-reference]
//
// Prints one JSON object on stdout: correctness counts, every metric with
// its unit, the layer-closure rows and, with --trace 1, the recorded spans.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload hot_referrals|junk_storm|refresh_under_load|"
               "ditl_replay --seed N --seconds S --trace 0|1 [--corrupt-reference]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rootbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = next() == "1";
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else {
      return Usage(argv[0]);
    }
  }
  const bool serving = options.workload == "hot_referrals" ||
                       options.workload == "junk_storm" ||
                       options.workload == "refresh_under_load";
  if (!(serving || options.workload == "ditl_replay") || options.seconds <= 0) {
    return Usage(argv[0]);
  }

  rootbench::Tracer tracer;
  tracer.Enable(options.trace);
  rootbench::Result result;
  result.workload = options.workload;
  result.seed = options.seed;
  result.trace = options.trace;
  result.info.emplace_back("compiler", kCompiler);
  result.info.emplace_back("build_type", ROOTBENCH_BUILD_TYPE);
  if (serving) {
    rootbench::RunServing(options, result, tracer);
  } else {
    rootbench::RunReplay(options, result, tracer);
  }
  if (options.trace && result.layers_total_ns > 0) {
    // Layer closure: the measured rows plus an explicit unattributed row sum
    // to the end-to-end CPU per query.
    double attributed = 0;
    for (const auto& row : result.layers) attributed += row.ns_per_query;
    const double unattributed = result.layers_total_ns - attributed;
    result.layers.push_back({"unattributed", unattributed,
                             "end-to-end CPU per query minus the rows above"});
    result.Add("bench.unattributed_ratio",
               std::abs(unattributed) / result.layers_total_ns, "ratio");
  }
  std::printf("%s\n", result.ToJson(tracer).c_str());
  return 0;
}
