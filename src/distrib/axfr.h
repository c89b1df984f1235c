// Zone transfer over the simulated datagram network (§3: "a public
// recursive server may provide the root zone via DNS' own zone transfer
// mechanism"). A deliberately simple chunked protocol in the TFTP family:
//
//   client -> REQ  (serial the client already holds)
//   server -> META (serial, chunk size, chunk count)   | UPTODATE
//   client -> GET  (chunk index)   [sliding window, retransmit on timeout]
//   server -> DATA (index, bytes)
//
// The payload is the binary zone snapshot (zone/snapshot.h); the client
// reassembles and deserializes it. Loss is handled by per-chunk timeouts,
// so transfers complete exactly even on lossy paths — the property the
// tests drive at 10% loss.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "net/transport.h"
#include "obs/counter_set.h"
#include "sim/network.h"
#include "sim/retry.h"
#include "sim/simulator.h"
#include "util/result.h"
#include "util/rng.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {

// The server's counters (module "distrib.axfr.server"): AxfrServerStats is
// the snapshot stats() reads, AxfrServerCounters the registry handles.
#define ROOTLESS_AXFR_SERVER_COUNTERS(X) \
  X(requests)                            \
  X(uptodate)                            \
  X(chunks_sent)                         \
  X(bytes_sent)
ROOTLESS_COUNTER_SET(AxfrServerStats, AxfrServerCounters,
                     ROOTLESS_AXFR_SERVER_COUNTERS);

class AxfrServer {
 public:
  using ZoneProvider = std::function<zone::SnapshotPtr()>;

  // Works over any transport implementation: the simulated network in
  // replays, or (wrapped by the socket front-end) a real UDP server.
  AxfrServer(net::Transport& network, ZoneProvider provider,
             std::size_t chunk_size = 1200, obs::Registry* registry = nullptr);

  sim::NodeId node() const { return node_; }
  // Snapshot of the registry-backed counters.
  AxfrServerStats stats() const { return c_.Read(); }

 private:
  void HandleDatagram(const sim::Datagram& datagram);

  net::Transport& network_;
  ZoneProvider provider_;
  std::size_t chunk_size_;
  sim::NodeId node_;
  // Serialized snapshot cache, keyed by serial (rebuilt when it changes).
  std::uint32_t cached_serial_ = 0;
  util::Bytes cached_snapshot_;
  AxfrServerCounters c_;
};

// The client's counters (module "distrib.axfr.client"): AxfrClientStats is
// the snapshot stats() reads, AxfrClientCounters the registry handles.
#define ROOTLESS_AXFR_CLIENT_COUNTERS(X) \
  X(transfers)                           \
  X(uptodate)                            \
  X(chunks_received)                     \
  X(retransmits)                         \
  X(failures)
ROOTLESS_COUNTER_SET(AxfrClientStats, AxfrClientCounters,
                     ROOTLESS_AXFR_CLIENT_COUNTERS);

class AxfrClient {
 public:
  // On success delivers the transferred zone snapshot; an up-to-date
  // exchange delivers nullptr (the caller keeps its copy).
  using TransferCallback =
      std::function<void(util::Result<zone::SnapshotPtr>)>;

  // Aggregate options (designated-initializer friendly). The retry policy
  // governs per-chunk (and META) retransmits: attempt_timeout is the
  // per-chunk response deadline, max_attempts bounds sends of the same
  // chunk, and the backoff fields space retransmits out (the default of 0
  // retransmits immediately, the historical behavior).
  struct Options {
    int window = 8;
    sim::RetryPolicy retry{.max_attempts = 6,
                           .attempt_timeout = 2 * sim::kSecond,
                           .initial_backoff = 0};
    std::uint64_t seed = 0xA3F2;  // jitter stream for retransmit backoff
    obs::Registry* registry = nullptr;
  };

  // Timers (per-chunk timeouts) come from the simulator; the datagrams
  // travel over any transport implementation.
  AxfrClient(sim::Simulator& sim, net::Transport& network, Options options);

  sim::NodeId node() const { return node_; }
  // Snapshot of the registry-backed counters.
  AxfrClientStats stats() const { return c_.Read(); }

  // Starts a transfer; one at a time per client.
  void Fetch(sim::NodeId server, std::uint32_t have_serial,
             TransferCallback callback);

 private:
  struct Transfer {
    sim::NodeId server = 0;
    TransferCallback callback;
    std::uint32_t serial = 0;
    std::size_t chunk_size = 0;
    std::uint32_t chunk_count = 0;
    std::map<std::uint32_t, util::Bytes> chunks;
    std::uint32_t next_to_request = 0;
    std::uint64_t generation = 0;
    bool meta_received = false;
    int meta_retries = 0;
    std::map<std::uint32_t, int> retries;  // per outstanding chunk
  };

  void HandleDatagram(const sim::Datagram& datagram);
  void SendRequest(std::uint32_t have_serial);
  void RequestMoreChunks();
  void RequestChunk(std::uint32_t index);
  void SendGet(std::uint32_t index);
  void ArmChunkTimeout(std::uint32_t index, std::uint64_t generation);
  void ArmMetaTimeout(std::uint32_t have_serial, std::uint64_t generation);
  void RetransmitChunk(std::uint32_t index, std::uint64_t generation);
  void FinishSuccess();
  void FinishError(ErrorCode code, const std::string& message);

  sim::Simulator& sim_;
  net::Transport& network_;
  int window_;
  sim::RetryPolicy retry_;
  util::Rng rng_;
  sim::NodeId node_;
  std::unique_ptr<Transfer> transfer_;
  AxfrClientCounters c_;
};

}  // namespace rootless::distrib
