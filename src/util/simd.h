// SIMD kernels for the DNS hot path: ASCII case folding, case-folded
// equality, and a case-folded 64-bit hash over short byte runs (domain
// names are <= 254 bytes; the common case is well under 40).
//
// Three backends share one contract:
//   * SSE2  (x86-64 baseline — no dispatch needed)
//   * NEON  (aarch64 baseline)
//   * scalar fallback (SWAR where it pays, plain loops otherwise)
//
// Every backend produces bit-identical results: folding is defined bytewise
// (ASCII 'A'..'Z' | 0x20, nothing else touched — DNS is ASCII-case-
// insensitive per RFC 1034 §3.1 and label bytes outside the letters must
// pass through untouched, including 0x00 and 0x80..0xFF), and the hash is
// defined over the *folded* byte stream by the scalar recurrence below, so a
// replay executed by a ROOTLESS_SIMD=OFF build is byte-identical to the
// vectorized one. The CMake option ROOTLESS_SIMD=OFF (compile definition
// ROOTLESS_SIMD=0) forces the scalar backend on any architecture; that
// configuration is built in CI to keep the fallback honest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(ROOTLESS_SIMD)
#define ROOTLESS_SIMD 1
#endif

#if ROOTLESS_SIMD && defined(__SSE2__)
#define ROOTLESS_SIMD_SSE2 1
#include <emmintrin.h>
#elif ROOTLESS_SIMD && defined(__ARM_NEON)
#define ROOTLESS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace rootless::util::simd {

// ---------------------------------------------------------------- folding
//
// Fold one byte: 'A'..'Z' -> 'a'..'z', everything else unchanged. This is
// the reference semantics the vector paths reproduce lane-wise.
inline std::uint8_t FoldByte(std::uint8_t c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c | 0x20) : c;
}

namespace internal {

#if defined(ROOTLESS_SIMD_SSE2)
// Lane-wise fold of 16 bytes. The unsigned range test c - 'A' <= 25 is done
// in the signed domain by biasing both sides with 0x80.
inline __m128i Fold16(__m128i v) {
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  const __m128i biased = _mm_add_epi8(v, _mm_set1_epi8(static_cast<char>(0x80 - 'A')));
  const __m128i is_upper =
      _mm_cmplt_epi8(biased, _mm_add_epi8(_mm_set1_epi8(26), bias));
  return _mm_or_si128(v, _mm_and_si128(is_upper, _mm_set1_epi8(0x20)));
}
#elif defined(ROOTLESS_SIMD_NEON)
inline uint8x16_t Fold16(uint8x16_t v) {
  const uint8x16_t is_upper =
      vcltq_u8(vsubq_u8(v, vdupq_n_u8('A')), vdupq_n_u8(26));
  return vorrq_u8(v, vandq_u8(is_upper, vdupq_n_u8(0x20)));
}
#else
// SWAR fold of 8 bytes at once: per-byte test 'A' <= c <= 'Z' without
// crossing lane boundaries (the classic bit-twiddling range check).
inline std::uint64_t Fold8(std::uint64_t w) {
  const std::uint64_t kOnes = 0x0101010101010101ULL;
  const std::uint64_t kHigh = 0x8080808080808080ULL;
  // ge_a: byte >= 'A'  <=>  (byte + (0x80 - 'A')) has high bit set, for
  // bytes with the high bit clear; high-bit-set bytes are excluded below.
  const std::uint64_t low7 = w & ~kHigh;
  const std::uint64_t ge_a = (low7 + (0x80 - 'A') * kOnes) & kHigh;
  const std::uint64_t le_z = (low7 + (0x80 - 'Z' - 1) * kOnes) & kHigh;
  const std::uint64_t is_upper = ge_a & ~le_z & ~w;  // ~w: high bit clear
  return w | (is_upper >> 2);  // high bit (0x80) down to the case bit (0x20)
}
#endif

// Unaligned little-endian 64-bit load (both targets are little-endian; a
// big-endian port would need a byteswap here to keep hash values portable).
inline std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

inline std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  // 128-bit multiply-fold (wyhash-style): full avalanche in one multiply.
  const unsigned __int128 r =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

}  // namespace internal

// Copies `n` bytes from `src` to `dst`, case-folded. Regions must not
// overlap. Used by Name::CanonicalWire and the hash below.
inline void FoldCopy(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n) {
  std::size_t i = 0;
#if defined(ROOTLESS_SIMD_SSE2)
  for (; i + 16 <= n; i += 16) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        internal::Fold16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i))));
  }
#elif defined(ROOTLESS_SIMD_NEON)
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, internal::Fold16(vld1q_u8(src + i)));
  }
#else
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, src + i, 8);
    w = internal::Fold8(w);
    std::memcpy(dst + i, &w, 8);
  }
#endif
  for (; i < n; ++i) dst[i] = FoldByte(src[i]);
}

// Case-folded equality of two byte runs of length n.
inline bool EqualFold(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t n) {
  std::size_t i = 0;
#if defined(ROOTLESS_SIMD_SSE2)
  for (; i + 16 <= n; i += 16) {
    const __m128i va = internal::Fold16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m128i vb = internal::Fold16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) != 0xFFFF) return false;
  }
#elif defined(ROOTLESS_SIMD_NEON)
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t eq =
        vceqq_u8(internal::Fold16(vld1q_u8(a + i)),
                 internal::Fold16(vld1q_u8(b + i)));
    if (vminvq_u8(eq) != 0xFF) return false;
  }
#else
  for (; i + 8 <= n; i += 8) {
    if (internal::Fold8(internal::Load64(a + i)) !=
        internal::Fold8(internal::Load64(b + i))) {
      return false;
    }
  }
#endif
  for (; i < n; ++i) {
    if (FoldByte(a[i]) != FoldByte(b[i])) return false;
  }
  return true;
}

// Case-folded 64-bit hash. Definition (what every backend computes): fold
// the input bytewise, then
//
//   h = seed ^ Mix(n + k0, k1)
//   for each 8-byte little-endian word w:   h = Mix(h ^ w, k2)
//   trailing t in [1,7] bytes, zero-padded: h = Mix(h ^ w_t, k3)
//   return Mix(h, k4)
//
// The vector paths only accelerate the fold; the word recurrence is shared,
// so hash values are identical across backends (and across the inline/heap
// Name representations, which is what lets the cached-hash slot be filled by
// whichever thread computes it first).
inline std::uint64_t HashFold(const std::uint8_t* p, std::size_t n,
                              std::uint64_t seed = 0) {
  constexpr std::uint64_t k0 = 0x2D358DCCAA6C78A5ULL;
  constexpr std::uint64_t k1 = 0x8BB84B93962EACC9ULL;
  constexpr std::uint64_t k2 = 0x4B33A62ED433D4A3ULL;
  constexpr std::uint64_t k3 = 0x4D5A2DA51DE1AA47ULL;
  constexpr std::uint64_t k4 = 0xA0761D6478BD642FULL;

  std::uint64_t h = seed ^ internal::Mix(static_cast<std::uint64_t>(n) + k0, k1);
  // Fold into a stack buffer first, one block at a time: names are <= 254
  // bytes (one block), and one pass of 16-byte folds plus 8-byte mixes beats
  // interleaving fold/extract per word. The block size is a multiple of 8 so
  // word boundaries line up with block boundaries.
  std::uint8_t folded[256];
  std::size_t done = 0;
  while (n - done >= sizeof(folded)) {
    FoldCopy(folded, p + done, sizeof(folded));
    for (std::size_t i = 0; i < sizeof(folded); i += 8) {
      h = internal::Mix(h ^ internal::Load64(folded + i), k2);
    }
    done += sizeof(folded);
  }
  const std::size_t rest = n - done;
  FoldCopy(folded, p + done, rest);
  std::size_t i = 0;
  for (; i + 8 <= rest; i += 8) {
    h = internal::Mix(h ^ internal::Load64(folded + i), k2);
  }
  if (i < rest) {
    std::uint64_t w = 0;
    std::memcpy(&w, folded + i, rest - i);  // little-endian zero-padded tail
    h = internal::Mix(h ^ w, k3);
  }
  return internal::Mix(h, k4);
}

// THE name hash: HashFold over a name's flat (length,label)* bytes with the
// cache-sentinel remap (a computed 0 becomes 1, because 0 means "not yet
// computed" in dns::Name's cached-hash slot). Name::Hash(), NameView::Hash()
// and the UDP wire fast lane (dns/wire_probe.h) all funnel through this one
// definition, which is the contract that lets a probe hash computed straight
// from raw datagram bytes land on the same cache bucket as the owning Name.
inline std::uint64_t NameHash(const std::uint8_t* p, std::size_t n) {
  const std::uint64_t h = HashFold(p, n);
  return h == 0 ? 1 : h;
}

}  // namespace rootless::util::simd
