// The DNS serving front-end: worker threads, each owning an EventLoop + a
// batched UDP socket + an AuthServer over the shared zone snapshot; worker 0
// additionally runs the TCP listener (large answers + AXFR transfer). This
// is the process shape of the paper's "local root copy": the same AnswerWire
// hot path the replay benches measure, behind real sockets.
//
// Snapshot-swap safety: SnapshotSource is the one cross-thread hand-off
// point. Publish() stores the new SnapshotPtr under a mutex and bumps an
// atomic generation; each worker polls the generation between epoll batches
// and, on change, Get()s the pointer and SetZone()s its own AuthServer —
// so the swap happens on the serving thread, between requests, never mid-
// answer. The old snapshot stays alive (refcounted) until the last worker
// has moved on; in-flight borrowed views therefore never dangle. No lock is
// ever taken on the per-query path.
//
// Worker isolation mirrors the parallel replay engine: each worker owns a
// private obs::Registry (no serving-path synchronization); Stop() joins the
// workers and merges the registries in worker order into the target
// registry, keeping merged output deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/tcp_server.h"
#include "net/transport.h"
#include "net/udp_server.h"
#include "obs/metrics.h"
#include "rootsrv/auth_server.h"
#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::net {

// Shared, versioned snapshot slot: the refresh side Publishes, the serving
// workers poll generation() and Get() on change.
class SnapshotSource {
 public:
  explicit SnapshotSource(zone::SnapshotPtr initial = nullptr) {
    if (initial) Publish(std::move(initial));
  }

  void Publish(zone::SnapshotPtr snapshot) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      snapshot_ = std::move(snapshot);
    }
    generation_.fetch_add(1, std::memory_order_release);
  }

  zone::SnapshotPtr Get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mu_;
  zone::SnapshotPtr snapshot_;
  std::atomic<std::uint64_t> generation_{0};
};

struct FrontendOptions {
  std::string bind_address = "127.0.0.1";
  // UDP port (0 = ephemeral). With `enable_tcp`, TCP listens on the same
  // number when it is fixed, or on its own ephemeral port otherwise.
  std::uint16_t port = 0;
  // SO_REUSEPORT worker fleet size; each worker is a thread with its own
  // event loop, socket, and AuthServer over the shared snapshot.
  int udp_workers = 1;
  bool enable_tcp = true;
  bool include_dnssec = true;
  // Wire-facing EDNS defaults: RFC 1035's 512-byte limit for plain queries
  // (the simulator's AuthServer default stays 1232 — see EdnsConfig).
  rootsrv::EdnsConfig edns{.default_udp_payload = 512};
  std::size_t batch = 64;  // recvmmsg/sendmmsg batch size
  // Response rate limiting: when enabled, the frontend owns ONE limiter
  // shared by every SO_REUSEPORT UDP worker (per-client budgets hold across
  // workers — the kernel hashes a flooding source onto one worker, but a
  // multi-homed attacker must not get per-worker budgets). TCP is exempt by
  // design: slipped clients retry there.
  rootsrv::RrlConfig rrl;
  // Zero-copy UDP fast lane (AuthServer::TryFastLane wired into each
  // worker's UdpServer): answer-cache hits are served straight from the
  // receive ring into the transmit ring, misses fall back to the full
  // pipeline byte-identically. On by default; off = the pipeline serves
  // everything (the parity baseline).
  bool fast_lane = true;
  // UDP GSO/GRO on the worker sockets (see UdpServer::Options). Off forces
  // plain per-datagram syscalls AND strict FIFO response order — the fuzz
  // parity tests rely on that ordering to pair responses with probes.
  bool segmentation_offload = true;
  obs::Registry* registry = nullptr;  // merge target at Stop (default: global)
};

class DnsFrontend {
 public:
  // The source must hold a snapshot before Start() and outlive the frontend.
  DnsFrontend(SnapshotSource& source, FrontendOptions options);
  ~DnsFrontend();

  // Binds all sockets (so ports are known on return), then starts the
  // worker threads.
  util::Status Start();
  // Stops and joins workers, then merges their metric registries into the
  // target. Idempotent.
  void Stop();

  bool running() const { return !stop_.load(std::memory_order_relaxed); }
  std::uint16_t udp_port() const { return udp_port_; }
  std::uint16_t tcp_port() const { return tcp_port_; }

  // Aggregated server-side stats (sums the workers' AuthServers; callable
  // only after Stop()).
  rootsrv::AuthServerStats stats() const;
  // Aggregated per-stage pipeline stats (same caveat as stats()).
  rootsrv::PipelineStats pipeline_stats() const;
  // The shared rate limiter, nullptr when RRL is off. Its decision totals
  // are safe to read while serving (atomics).
  const rootsrv::ResponseRateLimiter* rrl() const { return rrl_.get(); }
  // Aggregated fast-lane stats (sums the UDP workers; same caveat as
  // stats()). All zero when the fast lane is disabled.
  rootsrv::FastLaneStats fast_lane_stats() const;

 private:
  struct Worker {
    std::unique_ptr<obs::Registry> registry;
    std::unique_ptr<EventLoop> loop;
    std::unique_ptr<UdpServer> udp;
    std::unique_ptr<rootsrv::AuthServer> auth;
    // Worker 0 only: TCP listener plus its own AuthServer (separate scratch
    // buffers — both live on the same thread but interleave per-message).
    std::unique_ptr<TcpServer> tcp;
    std::unique_ptr<rootsrv::AuthServer> tcp_auth;
    std::uint64_t seen_generation = 0;
    std::thread thread;
  };

  void RunWorker(Worker& worker);
  void HandleTcpPacket(Worker& worker, const Packet& packet);

  SnapshotSource& source_;
  FrontendOptions options_;
  // One limiter across all UDP workers (see FrontendOptions::rrl).
  std::unique_ptr<rootsrv::ResponseRateLimiter> rrl_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{true};
  bool merged_ = false;
  std::uint16_t udp_port_ = 0;
  std::uint16_t tcp_port_ = 0;
  obs::Counter axfr_transfers_;  // worker-0 registry, module "net.frontend"
};

}  // namespace rootless::net
