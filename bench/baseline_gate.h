// The drift gate of the benches whose output lines are pinned in a committed
// bench/*_baseline.txt: `--out <file>` writes this run's lines, and
// `--check <file>` compares them with the committed file and fails on any
// difference, printing each differing committed/this-run pair. Each bench
// keeps its own structural gates and in-process determinism rerun.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace rootless::bench {

struct BaselineGate {
  std::string check_path;
  std::string out_path;

  // Reads `--check <file>` and `--out <file>`; other arguments are ignored.
  static BaselineGate FromArgs(int argc, char** argv) {
    BaselineGate gate;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
        gate.check_path = argv[++i];
      } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        gate.out_path = argv[++i];
      }
    }
    return gate;
  }

  // Writes `lines` to the --out file and compares them with the --check
  // file, whichever was given. `what` names the lines in the messages
  // ("curve", "region grid"). Returns false on drift or an unreadable
  // baseline.
  bool Run(const std::vector<std::string>& lines, const char* what) const {
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      for (const auto& line : lines) out << line << "\n";
      std::printf("wrote %s baseline: %s\n", what, out_path.c_str());
    }
    if (check_path.empty()) return true;
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot open baseline %s\n",
                   check_path.c_str());
      return false;
    }
    std::vector<std::string> committed;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) committed.push_back(line);
    }
    if (committed != lines) {
      std::fprintf(stderr, "FAIL: %s drifted from committed baseline %s\n",
                   what, check_path.c_str());
      const std::size_t n = std::max(committed.size(), lines.size());
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& want = i < committed.size() ? committed[i] : "";
        const std::string& got = i < lines.size() ? lines[i] : "";
        if (want != got) {
          std::fprintf(stderr, "  committed: %s\n  this run : %s\n",
                       want.c_str(), got.c_str());
        }
      }
      return false;
    }
    std::printf("%s matches committed baseline: %s\n", what,
                check_path.c_str());
    return true;
  }
};

}  // namespace rootless::bench
