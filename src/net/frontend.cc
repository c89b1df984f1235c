#include "net/frontend.h"

#include <utility>

#include "distrib/axfr_stream.h"
#include "dns/message.h"
#include "obs/counter_set.h"

namespace rootless::net {

DnsFrontend::DnsFrontend(SnapshotSource& source, FrontendOptions options)
    : source_(source), options_(std::move(options)) {}

DnsFrontend::~DnsFrontend() { Stop(); }

util::Status DnsFrontend::Start() {
  if (!workers_.empty()) {
    return util::Error(ErrorCode::kProtocol, "frontend: already started");
  }
  zone::SnapshotPtr snapshot = source_.Get();
  if (!snapshot) {
    return util::Error(ErrorCode::kUnavailable,
                       "frontend: snapshot source is empty");
  }
  const std::uint64_t generation = source_.generation();
  const int worker_count = options_.udp_workers < 1 ? 1 : options_.udp_workers;

  rootsrv::AuthServer::Options auth_options;
  auth_options.include_dnssec = options_.include_dnssec;
  auth_options.edns = options_.edns;
  // Real wire: answer garbage with FORMERR (the sim default stays drop).
  auth_options.respond_formerr_to_garbage = true;
  if (options_.rrl.enabled) {
    rrl_ = std::make_unique<rootsrv::ResponseRateLimiter>(options_.rrl);
    // Shared across workers; the pipeline's rate-limit stage only charges
    // UDP queries, so handing it to the TCP AuthServer too is harmless.
    auth_options.shared_rrl = rrl_.get();
  }

  // Bind everything up front (ports are known before any thread runs), then
  // start the threads.
  for (int i = 0; i < worker_count; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->registry = std::make_unique<obs::Registry>();
    worker->registry->set_instance_namespace("w" + std::to_string(i) + ".");
    worker->loop = EventLoop::Create();
    if (!worker->loop->ok()) {
      return util::Error(ErrorCode::kUnavailable,
                         "frontend: event loop setup failed");
    }

    UdpServer::Options udp_options;
    udp_options.bind_address = options_.bind_address;
    // Worker 0 establishes the port; the rest join it via SO_REUSEPORT.
    udp_options.port = i == 0 ? options_.port : udp_port_;
    udp_options.reuse_port = worker_count > 1;
    udp_options.batch = options_.batch;
    udp_options.segmentation_offload = options_.segmentation_offload;
    udp_options.registry = worker->registry.get();
    auto udp = UdpServer::Bind(*worker->loop, udp_options);
    if (!udp.ok()) return udp.error();
    worker->udp = std::move(*udp);
    if (i == 0) udp_port_ = worker->udp->port();

    auth_options.registry = worker->registry.get();
    worker->auth = std::make_unique<rootsrv::AuthServer>(
        worker->udp.get(), snapshot, auth_options);
    if (options_.fast_lane) {
      // The zero-copy lane: the UdpServer offers each raw datagram to the
      // AuthServer before paying the Packet copy; only misses take the
      // handler registered above.
      rootsrv::AuthServer* auth = worker->auth.get();
      worker->udp->SetFastLane(
          [auth](std::span<const std::uint8_t> datagram, std::uint64_t client,
                 std::uint8_t* out, std::size_t capacity,
                 std::size_t& out_size) {
            return auth->TryFastLane(datagram, client, out, capacity, out_size);
          });
    }

    if (i == 0 && options_.enable_tcp) {
      TcpServer::Options tcp_options;
      tcp_options.bind_address = options_.bind_address;
      tcp_options.port = options_.port;  // 0 = its own ephemeral port
      tcp_options.registry = worker->registry.get();
      auto tcp = TcpServer::Listen(*worker->loop, tcp_options);
      if (!tcp.ok()) return tcp.error();
      worker->tcp = std::move(*tcp);
      tcp_port_ = worker->tcp->port();

      worker->tcp_auth = std::make_unique<rootsrv::AuthServer>(
          worker->tcp.get(), snapshot, auth_options);
      // Interpose on the TCP message path: AXFR queries answer with a
      // message stream; everything else goes to the AuthServer in kTcp mode
      // (64KB limit, no TC truncation).
      Worker* w = worker.get();
      worker->tcp->SetHandler(worker->tcp_auth->node(),
                              [this, w](const Packet& packet) {
                                HandleTcpPacket(*w, packet);
                              });
      const obs::Labels labels{
          worker->registry->NextInstance("net.frontend"), "", ""};
      axfr_transfers_ = worker->registry->counter(
          "net.frontend.axfr_transfers", labels);
    }

    worker->seen_generation = generation;
    workers_.push_back(std::move(worker));
  }

  stop_.store(false, std::memory_order_relaxed);
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { RunWorker(*w); });
  }
  return util::Status::Ok();
}

void DnsFrontend::RunWorker(Worker& worker) {
  while (!stop_.load(std::memory_order_relaxed)) {
    worker.loop->PollOnce(20);
    // Zone refresh: swap between epoll batches, on this thread, so no query
    // ever sees a half-switched zone and old snapshots drain by refcount.
    const std::uint64_t generation = source_.generation();
    if (generation != worker.seen_generation) {
      worker.seen_generation = generation;
      zone::SnapshotPtr snapshot = source_.Get();
      if (snapshot) {
        worker.auth->SetZone(snapshot);
        if (worker.tcp_auth) worker.tcp_auth->SetZone(std::move(snapshot));
      }
    }
  }
}

void DnsFrontend::HandleTcpPacket(Worker& worker, const Packet& packet) {
  auto query = dns::DecodeMessage(packet.payload);
  if (!query.ok() || query->header.qr || query->questions.size() != 1 ||
      query->questions.front().type != dns::RRType::kAXFR) {
    worker.tcp_auth->HandleDatagram(packet, rootsrv::Channel::kTcp);
    return;
  }
  // Only the served zone transfers, and only to a standard query of class
  // IN. Any other AXFR draws REFUSED, the rcode Screen gives AXFR over UDP.
  const zone::ZoneSnapshot& snapshot = *worker.tcp_auth->snapshot();
  const dns::Question& q = query->questions.front();
  const bool servable = query->header.opcode == dns::Opcode::kQuery &&
                        q.rrclass == dns::RRClass::kIN &&
                        q.name == snapshot.apex();
  std::vector<util::Bytes> stream;
  if (servable) stream = distrib::BuildAxfrStream(snapshot, *query);
  if (stream.empty()) {
    worker.tcp->Send(
        0, packet.src,
        dns::EncodeMessage(dns::MakeResponse(
            *query, servable ? dns::RCode::kServFail : dns::RCode::kRefused)));
    return;
  }
  axfr_transfers_.Inc();
  for (auto& message : stream) {
    worker.tcp->Send(0, packet.src, std::move(message));
  }
}

void DnsFrontend::Stop() {
  if (!stop_.exchange(true, std::memory_order_relaxed)) {
    for (auto& worker : workers_) worker->loop->Stop();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
  if (!merged_ && !workers_.empty()) {
    merged_ = true;
    obs::Registry& target = obs::RegistryOrDefault(options_.registry);
    // Worker order keeps merged dumps deterministic (same rule as the
    // parallel replay engine's shard merge).
    for (auto& worker : workers_) worker->registry->MergeInto(target);
  }
}

rootsrv::AuthServerStats DnsFrontend::stats() const {
  rootsrv::AuthServerStats total;
  for (const auto& worker : workers_) {
    total += worker->auth->stats();
    if (worker->tcp_auth) total += worker->tcp_auth->stats();
  }
  return total;
}

rootsrv::FastLaneStats DnsFrontend::fast_lane_stats() const {
  rootsrv::FastLaneStats total;
  for (const auto& worker : workers_) total += worker->auth->fast_lane_stats();
  return total;
}

rootsrv::PipelineStats DnsFrontend::pipeline_stats() const {
  rootsrv::PipelineStats total;
  for (const auto& worker : workers_) {
    total += worker->auth->pipeline_stats();
    if (worker->tcp_auth) total += worker->tcp_auth->pipeline_stats();
  }
  return total;
}

}  // namespace rootless::net
