#include "distrib/axfr.h"

#include "zone/snapshot.h"

namespace rootless::distrib {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

namespace {

// Message tags.
constexpr std::uint8_t kReq = 0x01;
constexpr std::uint8_t kMeta = 0x02;
constexpr std::uint8_t kGet = 0x03;
constexpr std::uint8_t kData = 0x04;
constexpr std::uint8_t kUpToDate = 0x05;

constexpr std::uint32_t kMagic = 0x41584652;  // "AXFR"

void WriteHeader(std::uint8_t tag, ByteWriter& w) {
  w.WriteU32(kMagic);
  w.WriteU8(tag);
}

bool ReadHeader(ByteReader& r, std::uint8_t& tag) {
  std::uint32_t magic = 0;
  return r.ReadU32(magic) && magic == kMagic && r.ReadU8(tag);
}

}  // namespace

// ------------------------------------------------------------------ server

AxfrServer::AxfrServer(net::Transport& network, ZoneProvider provider,
                       std::size_t chunk_size, obs::Registry* registry)
    : network_(network), provider_(std::move(provider)),
      chunk_size_(chunk_size) {
  node_ = network_.AddNode(
      [this](const sim::Datagram& d) { HandleDatagram(d); });
  c_.Register(registry, "distrib.axfr.server");
}

void AxfrServer::HandleDatagram(const sim::Datagram& datagram) {
  ByteReader r(datagram.payload);
  std::uint8_t tag = 0;
  if (!ReadHeader(r, tag)) return;

  if (tag == kReq) {
    c_.requests.Inc();
    std::uint32_t have_serial = 0;
    if (!r.ReadU32(have_serial)) return;
    zone::SnapshotPtr current = provider_();
    if (current->Serial() == have_serial) {
      c_.uptodate.Inc();
      ByteWriter w;
      WriteHeader(kUpToDate, w);
      w.WriteU32(have_serial);
      network_.Send(node_, datagram.src, w.TakeData());
      return;
    }
    if (current->Serial() != cached_serial_) {
      cached_snapshot_ = zone::SerializeSnapshot(*current);
      cached_serial_ = current->Serial();
    }
    const std::uint32_t chunk_count = static_cast<std::uint32_t>(
        (cached_snapshot_.size() + chunk_size_ - 1) / chunk_size_);
    ByteWriter w;
    WriteHeader(kMeta, w);
    w.WriteU32(cached_serial_);
    w.WriteVarint(chunk_size_);
    w.WriteU32(chunk_count);
    w.WriteVarint(cached_snapshot_.size());
    network_.Send(node_, datagram.src, w.TakeData());
    return;
  }

  if (tag == kGet) {
    std::uint32_t serial = 0, index = 0;
    if (!r.ReadU32(serial) || !r.ReadU32(index)) return;
    if (serial != cached_serial_) return;  // stale request; client restarts
    const std::size_t offset = static_cast<std::size_t>(index) * chunk_size_;
    if (offset >= cached_snapshot_.size()) return;
    const std::size_t len =
        std::min(chunk_size_, cached_snapshot_.size() - offset);
    ByteWriter w;
    WriteHeader(kData, w);
    w.WriteU32(serial);
    w.WriteU32(index);
    w.WriteVarint(len);
    w.WriteBytes(std::span(cached_snapshot_).subspan(offset, len));
    c_.chunks_sent.Inc();
    c_.bytes_sent.Inc(len);
    network_.Send(node_, datagram.src, w.TakeData());
  }
}

// ------------------------------------------------------------------ client

AxfrClient::AxfrClient(sim::Simulator& sim, net::Transport& network,
                       Options options)
    : sim_(sim),
      network_(network),
      window_(options.window),
      retry_(options.retry),
      rng_(options.seed) {
  node_ = network_.AddNode(
      [this](const sim::Datagram& d) { HandleDatagram(d); });
  c_.Register(options.registry, "distrib.axfr.client");
}

void AxfrClient::Fetch(sim::NodeId server, std::uint32_t have_serial,
                       TransferCallback callback) {
  transfer_ = std::make_unique<Transfer>();
  transfer_->server = server;
  transfer_->callback = std::move(callback);
  SendRequest(have_serial);

  // META timeout: retry the request a few times.
  const std::uint64_t generation = ++transfer_->generation;
  ArmMetaTimeout(have_serial, generation);
}

void AxfrClient::ArmMetaTimeout(std::uint32_t have_serial,
                                std::uint64_t generation) {
  sim_.Schedule(retry_.attempt_timeout, [this, have_serial, generation]() {
    if (transfer_ == nullptr || transfer_->meta_received ||
        transfer_->generation != generation)
      return;
    if (++transfer_->meta_retries >= retry_.max_attempts) {
      FinishError(ErrorCode::kTimeout, "axfr: no response to transfer request");
      return;
    }
    c_.retransmits.Inc();
    const sim::SimTime backoff =
        sim::JitteredBackoff(retry_, transfer_->meta_retries + 1, rng_);
    if (backoff == 0) {
      SendRequest(have_serial);
      ArmMetaTimeout(have_serial, generation);
      return;
    }
    sim_.Schedule(backoff, [this, have_serial, generation]() {
      if (transfer_ == nullptr || transfer_->meta_received ||
          transfer_->generation != generation)
        return;
      SendRequest(have_serial);
      ArmMetaTimeout(have_serial, generation);
    });
  });
}

void AxfrClient::SendRequest(std::uint32_t have_serial) {
  ByteWriter w;
  WriteHeader(kReq, w);
  w.WriteU32(have_serial);
  network_.Send(node_, transfer_->server, w.TakeData());
}

void AxfrClient::RequestMoreChunks() {
  Transfer& t = *transfer_;
  const std::uint32_t outstanding_limit = static_cast<std::uint32_t>(window_);
  std::uint32_t outstanding = static_cast<std::uint32_t>(t.retries.size());
  while (outstanding < outstanding_limit && t.next_to_request < t.chunk_count) {
    RequestChunk(t.next_to_request++);
    ++outstanding;
  }
}

void AxfrClient::RequestChunk(std::uint32_t index) {
  Transfer& t = *transfer_;
  t.retries.try_emplace(index, 0);
  SendGet(index);
  ArmChunkTimeout(index, t.generation);
}

void AxfrClient::SendGet(std::uint32_t index) {
  Transfer& t = *transfer_;
  ByteWriter w;
  WriteHeader(kGet, w);
  w.WriteU32(t.serial);
  w.WriteU32(index);
  network_.Send(node_, t.server, w.TakeData());
}

void AxfrClient::ArmChunkTimeout(std::uint32_t index,
                                 std::uint64_t generation) {
  sim_.Schedule(retry_.attempt_timeout, [this, index, generation]() {
    if (transfer_ == nullptr || transfer_->generation != generation) return;
    Transfer& t = *transfer_;
    auto it = t.retries.find(index);
    if (it == t.retries.end()) return;  // already received
    if (++it->second >= retry_.max_attempts) {
      FinishError(ErrorCode::kTimeout,
                  "axfr: chunk " + std::to_string(index) + " lost");
      return;
    }
    c_.retransmits.Inc();
    const sim::SimTime backoff =
        sim::JitteredBackoff(retry_, it->second + 1, rng_);
    if (backoff == 0) {
      RetransmitChunk(index, generation);
      return;
    }
    sim_.Schedule(backoff, [this, index, generation]() {
      RetransmitChunk(index, generation);
    });
  });
}

void AxfrClient::RetransmitChunk(std::uint32_t index,
                                 std::uint64_t generation) {
  if (transfer_ == nullptr || transfer_->generation != generation) return;
  if (transfer_->retries.find(index) == transfer_->retries.end())
    return;  // received while backing off
  SendGet(index);
  ArmChunkTimeout(index, generation);
}

void AxfrClient::HandleDatagram(const sim::Datagram& datagram) {
  if (transfer_ == nullptr) return;
  ByteReader r(datagram.payload);
  std::uint8_t tag = 0;
  if (!ReadHeader(r, tag)) return;
  Transfer& t = *transfer_;

  if (tag == kUpToDate) {
    c_.uptodate.Inc();
    auto callback = std::move(t.callback);
    transfer_.reset();
    callback(zone::SnapshotPtr(nullptr));
    return;
  }

  if (tag == kMeta) {
    if (t.meta_received) return;  // duplicate
    std::uint64_t chunk_size = 0, total = 0;
    if (!r.ReadU32(t.serial) || !r.ReadVarint(chunk_size) ||
        !r.ReadU32(t.chunk_count) || !r.ReadVarint(total))
      return;
    t.chunk_size = chunk_size;
    t.meta_received = true;
    if (t.chunk_count == 0) {
      FinishError(ErrorCode::kProtocol, "axfr: empty transfer");
      return;
    }
    RequestMoreChunks();
    return;
  }

  if (tag == kData) {
    std::uint32_t serial = 0, index = 0;
    std::uint64_t len = 0;
    if (!r.ReadU32(serial) || !r.ReadU32(index) || !r.ReadVarint(len)) return;
    if (!t.meta_received || serial != t.serial || index >= t.chunk_count)
      return;
    Bytes bytes;
    if (!r.ReadBytes(len, bytes)) return;
    if (t.chunks.emplace(index, std::move(bytes)).second) {
      c_.chunks_received.Inc();
    }
    t.retries.erase(index);
    if (t.chunks.size() == t.chunk_count) {
      FinishSuccess();
      return;
    }
    RequestMoreChunks();
  }
}

void AxfrClient::FinishSuccess() {
  Transfer& t = *transfer_;
  Bytes snapshot;
  for (auto& [index, bytes] : t.chunks) {
    snapshot.insert(snapshot.end(), bytes.begin(), bytes.end());
  }
  auto callback = std::move(t.callback);
  transfer_.reset();
  c_.transfers.Inc();
  auto zone = zone::DeserializeSnapshot(snapshot);
  if (!zone.ok()) {
    c_.failures.Inc();
    callback(util::Error(ErrorCode::kCorrupted,
                         "axfr: snapshot decode failed: " +
                             zone.error().message()));
    return;
  }
  callback(std::move(*zone));
}

void AxfrClient::FinishError(ErrorCode code, const std::string& message) {
  c_.failures.Inc();
  auto callback = std::move(transfer_->callback);
  transfer_.reset();
  callback(util::Error(code, message));
}

}  // namespace rootless::distrib
