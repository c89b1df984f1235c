#include "distrib/rsync.h"

#include <cstring>
#include <unordered_map>

#include "crypto/sha256.h"
#include "util/check.h"

namespace rootless::distrib {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;
using util::Error;

namespace {

std::uint64_t StrongHash(std::span<const std::uint8_t> block) {
  const crypto::Digest256 digest = crypto::Sha256::Hash(block);
  std::uint64_t v = 0;
  std::memcpy(&v, digest.data(), sizeof(v));
  return v;
}

}  // namespace

std::uint32_t RollingChecksum::Compute(std::span<const std::uint8_t> block) {
  RollingChecksum c;
  c.Init(block);
  return c.value();
}

void RollingChecksum::Init(std::span<const std::uint8_t> block) {
  a_ = 0;
  b_ = 0;
  const std::size_t n = block.size();
  for (std::size_t i = 0; i < n; ++i) {
    a_ += block[i];
    b_ += static_cast<std::uint32_t>(n - i) * block[i];
  }
  a_ &= 0xFFFF;
  b_ &= 0xFFFF;
}

void RollingChecksum::Roll(std::uint8_t out, std::uint8_t in,
                           std::size_t window) {
  a_ = (a_ - out + in) & 0xFFFF;
  b_ = (b_ - static_cast<std::uint32_t>(window) * out + a_) & 0xFFFF;
}

std::size_t FileSignature::WireSize() const {
  // block_size + file_size + count + 12 bytes per block.
  return 8 + 8 + 8 + blocks.size() * 12;
}

std::size_t Delta::literal_bytes() const {
  std::size_t n = 0;
  for (const auto& op : ops) {
    if (const auto* lit = std::get_if<LiteralOp>(&op)) n += lit->bytes.size();
  }
  return n;
}

std::size_t Delta::copied_bytes() const {
  std::size_t n = 0;
  for (const auto& op : ops) {
    if (const auto* copy = std::get_if<CopyOp>(&op)) {
      n += static_cast<std::size_t>(copy->count) * block_size;
    }
  }
  // The final block of the old file may be short; this over-counts by at
  // most block_size - 1, which is fine for accounting.
  return n;
}

std::size_t Delta::WireSize() const { return SerializeDelta(*this).size(); }

FileSignature ComputeSignature(std::span<const std::uint8_t> old_file,
                               std::size_t block_size) {
  ROOTLESS_CHECK(block_size > 0);
  FileSignature sig;
  sig.block_size = block_size;
  sig.file_size = old_file.size();
  for (std::size_t offset = 0; offset < old_file.size();
       offset += block_size) {
    const std::size_t len = std::min(block_size, old_file.size() - offset);
    const auto block = old_file.subspan(offset, len);
    sig.blocks.push_back(
        BlockSignature{RollingChecksum::Compute(block), StrongHash(block)});
  }
  return sig;
}

Delta ComputeDelta(const FileSignature& signature,
                   std::span<const std::uint8_t> new_file) {
  Delta delta;
  delta.block_size = signature.block_size;
  delta.old_file_size = signature.file_size;
  const std::size_t block_size = signature.block_size;

  // Index old blocks by rolling checksum.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> index;
  for (std::uint32_t i = 0; i < signature.blocks.size(); ++i) {
    index[signature.blocks[i].rolling].push_back(i);
  }

  Bytes pending_literals;
  auto flush_literals = [&]() {
    if (!pending_literals.empty()) {
      delta.ops.push_back(LiteralOp{std::move(pending_literals)});
      pending_literals = Bytes{};
    }
  };
  auto emit_copy = [&](std::uint32_t block) {
    if (!delta.ops.empty()) {
      if (auto* last = std::get_if<CopyOp>(&delta.ops.back())) {
        if (last->block_index + last->count == block) {
          ++last->count;
          return;
        }
      }
    }
    delta.ops.push_back(CopyOp{block, 1});
  };

  const std::size_t n = new_file.size();
  std::size_t i = 0;
  RollingChecksum rolling;
  bool rolling_valid = false;

  while (i < n) {
    const std::size_t window = std::min(block_size, n - i);
    if (window < block_size) {
      // Tail shorter than a block: only a final short block could match.
      bool matched = false;
      if (!signature.blocks.empty() &&
          signature.file_size % block_size == window) {
        const auto tail = new_file.subspan(i, window);
        const auto& last = signature.blocks.back();
        if (RollingChecksum::Compute(tail) == last.rolling &&
            StrongHash(tail) == last.strong) {
          flush_literals();
          emit_copy(static_cast<std::uint32_t>(signature.blocks.size() - 1));
          i += window;
          matched = true;
        }
      }
      if (!matched) {
        pending_literals.insert(pending_literals.end(), new_file.begin() + i,
                                new_file.end());
        i = n;
      }
      break;
    }

    if (!rolling_valid) {
      rolling.Init(new_file.subspan(i, block_size));
      rolling_valid = true;
    }

    bool matched = false;
    auto it = index.find(rolling.value());
    if (it != index.end()) {
      const auto block = new_file.subspan(i, block_size);
      const std::uint64_t strong = StrongHash(block);
      for (std::uint32_t candidate : it->second) {
        const auto& b = signature.blocks[candidate];
        // Short final blocks never match a full window.
        const bool is_final_short =
            candidate + 1 == signature.blocks.size() &&
            signature.file_size % block_size != 0;
        if (!is_final_short && b.rolling == rolling.value() &&
            b.strong == strong) {
          flush_literals();
          emit_copy(candidate);
          i += block_size;
          rolling_valid = false;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      pending_literals.push_back(new_file[i]);
      if (i + block_size < n) {
        rolling.Roll(new_file[i], new_file[i + block_size], block_size);
      } else {
        rolling_valid = false;
      }
      ++i;
    }
  }
  flush_literals();
  return delta;
}

util::Result<Bytes> ApplyDelta(std::span<const std::uint8_t> old_file,
                               const Delta& delta) {
  if (old_file.size() != delta.old_file_size)
    return Error(ErrorCode::kCorrupted, "rsync: old file size mismatch");
  if (delta.block_size == 0)
    return Error(ErrorCode::kCorrupted, "rsync: zero block size");
  const std::uint64_t size = old_file.size();
  const std::uint64_t block_size = delta.block_size;
  const std::uint64_t old_blocks =
      size / block_size + (size % block_size != 0 ? 1 : 0);
  Bytes out;
  for (const auto& op : delta.ops) {
    if (const auto* copy = std::get_if<CopyOp>(&op)) {
      if (copy->count == 0) continue;
      // Both fields are 32-bit, so their sum cannot wrap in 64 bits.
      const std::uint64_t end = std::uint64_t{copy->block_index} + copy->count;
      if (end > old_blocks)
        return Error(ErrorCode::kCorrupted, "rsync: block out of range");
      // Only the file's last block can be short, so the run is one span.
      const std::uint64_t from = copy->block_index * block_size;
      const std::uint64_t to = end == old_blocks ? size : end * block_size;
      out.insert(out.end(),
                 old_file.begin() + static_cast<std::ptrdiff_t>(from),
                 old_file.begin() + static_cast<std::ptrdiff_t>(to));
    } else {
      const auto& lit = std::get<LiteralOp>(op);
      out.insert(out.end(), lit.bytes.begin(), lit.bytes.end());
    }
  }
  return out;
}

util::Bytes SerializeDelta(const Delta& delta) {
  ByteWriter w;
  w.WriteU32(0x52445357);  // "RDSW"
  w.WriteVarint(delta.block_size);
  w.WriteVarint(delta.old_file_size);
  w.WriteVarint(delta.ops.size());
  for (const auto& op : delta.ops) {
    if (const auto* copy = std::get_if<CopyOp>(&op)) {
      w.WriteU8(0x01);
      w.WriteVarint(copy->block_index);
      w.WriteVarint(copy->count);
    } else {
      const auto& lit = std::get<LiteralOp>(op);
      w.WriteU8(0x00);
      w.WriteVarint(lit.bytes.size());
      w.WriteBytes(lit.bytes);
    }
  }
  return w.TakeData();
}

util::Result<Delta> DeserializeDelta(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  std::uint32_t magic = 0;
  if (!r.ReadU32(magic))
    return Error(ErrorCode::kTruncated, "rsync: truncated delta magic");
  if (magic != 0x52445357)
    return Error(ErrorCode::kCorrupted, "rsync: bad delta magic");
  Delta delta;
  std::uint64_t block_size = 0, old_size = 0, op_count = 0;
  if (!r.ReadVarint(block_size) || !r.ReadVarint(old_size) ||
      !r.ReadVarint(op_count))
    return Error(ErrorCode::kTruncated, "rsync: truncated delta header");
  if (block_size == 0 || block_size > 0xFFFFFFFFULL)
    return Error(ErrorCode::kCorrupted, "rsync: block size out of range");
  delta.block_size = block_size;
  delta.old_file_size = old_size;
  for (std::uint64_t i = 0; i < op_count; ++i) {
    std::uint8_t kind = 0;
    if (!r.ReadU8(kind))
      return Error(ErrorCode::kTruncated, "rsync: truncated op");
    if (kind == 0x01) {
      std::uint64_t block = 0, count = 0;
      if (!r.ReadVarint(block) || !r.ReadVarint(count))
        return Error(ErrorCode::kTruncated, "rsync: truncated copy op");
      if (block > 0xFFFFFFFFULL || count > 0xFFFFFFFFULL)
        return Error(ErrorCode::kCorrupted, "rsync: copy op out of range");
      delta.ops.push_back(CopyOp{static_cast<std::uint32_t>(block),
                                 static_cast<std::uint32_t>(count)});
    } else if (kind == 0x00) {
      std::uint64_t len = 0;
      if (!r.ReadVarint(len))
        return Error(ErrorCode::kTruncated, "rsync: truncated literal op");
      LiteralOp lit;
      if (!r.ReadBytes(len, lit.bytes))
        return Error(ErrorCode::kTruncated, "rsync: truncated literal");
      delta.ops.push_back(std::move(lit));
    } else {
      return Error(ErrorCode::kCorrupted, "rsync: unknown op kind");
    }
  }
  if (!r.at_end()) return Error(ErrorCode::kCorrupted, "rsync: trailing bytes");
  return delta;
}

}  // namespace rootless::distrib
