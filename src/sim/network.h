// Simulated datagram network over the discrete-event engine.
//
// Nodes register a receive handler and get a NodeId. Send() delivers the
// payload after a latency chosen by the installed latency function, or drops
// it with the configured loss probability — modelling the UDP transport DNS
// mostly runs over (the paper: 96.2% of root queries were UDP).
//
// Network is one implementation of the net::Transport seam; the socket
// servers in src/net/ are the other. Servers written against the seam
// (rootsrv::AuthServer, the AXFR channel) run unchanged on either side.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/transport.h"
#include "obs/counter_set.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace rootless::sim {

// Simulated node ids / datagrams are the transport seam's endpoint ids /
// packets: the historical names remain as aliases.
using NodeId = net::EndpointId;
using Datagram = net::Packet;

// On-path interceptor verdict: pass the datagram unchanged, drop it, or
// substitute a different datagram (e.g. a spoofed response) — the model for
// the §4 "root manipulation" man-in-the-middle the paper cites.
struct InterceptVerdict {
  enum class Action { kPass, kDrop, kReplace } action = Action::kPass;
  Datagram replacement;

  static InterceptVerdict Pass() { return {}; }
  static InterceptVerdict Drop() {
    return InterceptVerdict{Action::kDrop, {}};
  }
  static InterceptVerdict Replace(Datagram d) {
    return InterceptVerdict{Action::kReplace, std::move(d)};
  }
};

// Traffic counters (module "sim.network", one instance label per Network):
// NetworkStats is the snapshot stats() reads, NetworkCounters the handles.
#define ROOTLESS_NETWORK_COUNTERS(X) \
  X(datagrams_sent)                  \
  X(datagrams_dropped)               \
  X(datagrams_intercepted)           \
  X(bytes_sent)
ROOTLESS_COUNTER_SET(NetworkStats, NetworkCounters, ROOTLESS_NETWORK_COUNTERS);

// `final` so calls through a concrete Network& (the sim hot path)
// devirtualize; only callers holding the net::Transport& seam pay dispatch.
class Network final : public net::Transport {
 public:
  using ReceiveHandler = net::Transport::ReceiveHandler;
  // Returns the one-way latency between two nodes.
  using LatencyFn = std::function<SimTime(NodeId, NodeId)>;

  // Traffic counters live in the metrics registry (module "sim.network",
  // one instance label per Network) so benches export them uniformly;
  // stats() reads the registry slots.
  Network(Simulator& sim, std::uint64_t seed,
          obs::Registry* registry = nullptr)
      : sim_(sim), rng_(seed) {
    c_.Register(registry, "sim.network");
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Installs the latency model. Default: uniform 20ms one-way.
  void set_latency_fn(LatencyFn fn) { latency_fn_ = std::move(fn); }
  void set_loss_rate(double rate) { loss_rate_ = rate; }

  // Installs an on-path interceptor consulted for every datagram before
  // delivery. Cleartext UDP has no integrity protection, so the interceptor
  // can observe, drop, or forge traffic at will.
  using InterceptFn = std::function<InterceptVerdict(const Datagram&)>;
  void set_interceptor(InterceptFn fn) { interceptor_ = std::move(fn); }

  // Installs a fault injector (sim/faults.h) consulted for every datagram:
  // it can drop (loss, outages, crashes, partitions), delay (jitter), or
  // corrupt traffic per its FaultPlan, all from its own seeded RNG stream.
  // The injector must outlive the network. nullptr uninstalls.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  FaultInjector* fault_injector() const { return faults_; }

  NodeId AddNode(ReceiveHandler handler) override {
    handlers_.push_back(std::move(handler));
    return static_cast<NodeId>(handlers_.size() - 1);
  }

  // Replaces a node's handler (used when wiring objects constructed after
  // their node id is needed).
  void SetHandler(NodeId node, ReceiveHandler handler) override {
    handlers_.at(node) = std::move(handler);
  }

  std::size_t node_count() const { return handlers_.size(); }
  // Snapshot of the traffic counters.
  NetworkStats stats() const { return c_.Read(); }

  SimTime LatencyBetween(NodeId a, NodeId b) const {
    return latency_fn_ ? latency_fn_(a, b) : 20 * kMillisecond;
  }

  // Sends a datagram; delivery is scheduled after the one-way latency.
  void Send(NodeId src, NodeId dst, util::Bytes payload) override {
    c_.datagrams_sent.Inc();
    c_.bytes_sent.Inc(payload.size());
    if (loss_rate_ > 0 && rng_.Chance(loss_rate_)) {
      c_.datagrams_dropped.Inc();
      return;
    }
    Datagram datagram{.src = src, .dst = dst, .payload = std::move(payload)};
    if (interceptor_) {
      InterceptVerdict verdict = interceptor_(datagram);
      switch (verdict.action) {
        case InterceptVerdict::Action::kPass:
          break;
        case InterceptVerdict::Action::kDrop:
          c_.datagrams_intercepted.Inc();
          return;
        case InterceptVerdict::Action::kReplace:
          c_.datagrams_intercepted.Inc();
          datagram = std::move(verdict.replacement);
          break;
      }
    }
    SimTime extra_latency = 0;
    if (faults_ != nullptr) {
      const FaultInjector::Verdict verdict =
          faults_->OnSend(datagram.src, datagram.dst, sim_.now(),
                          datagram.payload);
      if (verdict.drop) {
        c_.datagrams_dropped.Inc();
        return;
      }
      extra_latency = verdict.extra_latency;
    }
    const SimTime latency =
        LatencyBetween(datagram.src, datagram.dst) + extra_latency;
    sim_.Schedule(latency, [this, datagram = std::move(datagram)]() {
      Deliver(datagram);
    });
  }

 private:
  void Deliver(const Datagram& datagram) {
    const auto& handler = handlers_.at(datagram.dst);
    if (handler) handler(datagram);
  }

  Simulator& sim_;
  util::Rng rng_;
  LatencyFn latency_fn_;
  InterceptFn interceptor_;
  FaultInjector* faults_ = nullptr;
  double loss_rate_ = 0;
  std::vector<ReceiveHandler> handlers_;
  NetworkCounters c_;
};

}  // namespace rootless::sim
