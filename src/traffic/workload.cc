#include "traffic/workload.h"

#include <iterator>

namespace rootless::traffic {

std::string GarbageLabel(util::Rng& rng) {
  std::string label;
  const std::size_t len = 6 + rng.Below(10);
  for (std::size_t i = 0; i < len; ++i) {
    label.push_back(static_cast<char>('a' + rng.Below(26)));
  }
  return label;
}

std::string SampleBogusTld(util::Rng& rng) {
  if (rng.Chance(0.7)) {
    return kCommonJunk[rng.Below(std::size(kCommonJunk))];
  }
  return GarbageLabel(rng);
}

}  // namespace rootless::traffic
