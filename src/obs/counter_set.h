// Declare-once counter sets. A module lists its counters once, as an X-macro
// with one name per (backslash-continued) line — ROOTLESS_NETWORK_COUNTERS in
// sim/network.h, for one — and
//
//   ROOTLESS_COUNTER_SET(NetworkStats, NetworkCounters,
//                        ROOTLESS_NETWORK_COUNTERS);
//
// derives both structs from that one list:
//   * the snapshot (NetworkStats): one std::uint64_t per name, in list
//     order, with operator+= (instance and shard aggregates) and operator==;
//   * the handles (NetworkCounters): one obs::Counter per name, in list
//     order, so a bump stays one add through a pointer resolved at
//     registration. Register(registry, module) registers each handle as
//     "<module>.<name>" under the instance label NextInstance(module) and
//     returns those labels for the module's histograms and gauges; Read()
//     assembles the snapshot and Reset() zeroes every counter.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace rootless::obs {

// The registry a component registers into: `registry`, or the process-wide
// default when the component's options leave it unset.
inline Registry& RegistryOrDefault(Registry* registry) {
  return registry != nullptr ? *registry : Registry::Default();
}

}  // namespace rootless::obs

// `this->` keeps a counter's name from resolving to a local of the same
// name in the generated member functions.
#define ROOTLESS_COUNTER_SET_FIELD_(name) std::uint64_t name = 0;
#define ROOTLESS_COUNTER_SET_ADD_(name) this->name += o.name;
#define ROOTLESS_COUNTER_SET_HANDLE_(name) ::rootless::obs::Counter name;
#define ROOTLESS_COUNTER_SET_REGISTER_(name) \
  this->name = reg.counter(prefix + #name, labels);
#define ROOTLESS_COUNTER_SET_READ_(name) s.name = this->name.value();
#define ROOTLESS_COUNTER_SET_RESET_(name) this->name.Reset();

#define ROOTLESS_COUNTER_SET(Stats, Counters, LIST)                       \
  struct Stats {                                                           \
    LIST(ROOTLESS_COUNTER_SET_FIELD_)                                      \
    Stats& operator+=(const Stats& o) {                                    \
      LIST(ROOTLESS_COUNTER_SET_ADD_)                                      \
      return *this;                                                        \
    }                                                                      \
    bool operator==(const Stats&) const = default;                         \
  };                                                                       \
  struct Counters {                                                        \
    LIST(ROOTLESS_COUNTER_SET_HANDLE_)                                     \
    ::rootless::obs::Labels Register(::rootless::obs::Registry* registry,  \
                                     std::string_view module) {            \
      ::rootless::obs::Registry& reg =                                     \
          ::rootless::obs::RegistryOrDefault(registry);                    \
      const ::rootless::obs::Labels labels{                                \
          reg.NextInstance(module), "", ""};                               \
      const std::string prefix = std::string(module) + '.';                \
      LIST(ROOTLESS_COUNTER_SET_REGISTER_)                                 \
      return labels;                                                       \
    }                                                                      \
    Stats Read() const {                                                   \
      Stats s;                                                             \
      LIST(ROOTLESS_COUNTER_SET_READ_)                                     \
      return s;                                                            \
    }                                                                      \
    void Reset() { LIST(ROOTLESS_COUNTER_SET_RESET_) }                     \
  }
