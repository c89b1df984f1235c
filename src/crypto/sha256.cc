#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace rootless::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t Rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::ProcessBlock(const std::uint8_t* p) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(p[4 * i]) << 24 |
           static_cast<std::uint32_t>(p[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(p[4 * i + 2]) << 8 | p[4 * i + 3];
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

Sha256& Sha256::Update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t i = 0;
  if (buffer_len_ > 0) {
    while (buffer_len_ < 64 && i < data.size()) {
      buffer_[buffer_len_++] = data[i++];
    }
    if (buffer_len_ == 64) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (i + 64 <= data.size()) {
    ProcessBlock(data.data() + i);
    i += 64;
  }
  while (i < data.size()) buffer_[buffer_len_++] = data[i++];
  return *this;
}

Sha256& Sha256::Update(std::string_view data) {
  return Update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest256 Sha256::Finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  const std::uint8_t pad = 0x80;
  Update(std::span<const std::uint8_t>(&pad, 1));
  const std::uint8_t zero = 0;
  while (buffer_len_ != 56) Update(std::span<const std::uint8_t>(&zero, 1));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(std::span<const std::uint8_t>(len_bytes, 8));

  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest256 Sha256::Hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Digest256 Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

HmacSha256Key::HmacSha256Key(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest256 kh = Sha256::Hash(key);
    std::memcpy(k.data(), kh.data(), kh.size());
  } else {
    // std::copy, not memcpy: an empty key's data() may be null.
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(ipad);
  outer_.Update(opad);
}

Digest256 HmacSha256Key::Mac(std::span<const std::uint8_t> message) const {
  Sha256 inner = inner_;
  inner.Update(message);
  const Digest256 inner_digest = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(inner_digest);
  return outer.Finish();
}

Digest256 HmacSha256(std::span<const std::uint8_t> key,
                     std::span<const std::uint8_t> message) {
  return HmacSha256Key(key).Mac(message);
}

}  // namespace rootless::crypto
