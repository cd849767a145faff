// Byte-range checksums.  Neither is cryptographic: they guard against
// truncation, torn writes, and bit rot, not adversaries.
//
//   * fnv1a — byte-serial FNV-1a, the checksum of the persisted user format:
//     stat-snapshot rank chunks (--save-stats files, EXPORT payloads, and
//     the sparse codec that ships those chunks verbatim).  Frozen with that
//     format's version.
//   * checksum64 — a word-at-a-time four-lane multiply/rotate checksum with a
//     length-mixing finalizer, for the same-build transport and journal
//     formats (net frames, framed log records, checkpoint trailers, publish
//     manifests), where the checksum pass is on the per-tell hot path.  It
//     loads native-endian words, so its values are only meaningful between
//     builds for the same byte order — which every format it guards
//     already assumes.  Every step is a bijection in the word it absorbs,
//     so a single changed word (in particular any single-byte flip) always
//     changes the result; a length change feeds the finalizer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace critter::util {

inline std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace checksum_detail {

inline constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
inline constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
inline constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
inline constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;

inline std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Absorb one word into a lane (odd multipliers: bijective in both).
inline std::uint64_t round(std::uint64_t acc, std::uint64_t w) {
  return rotl(acc + w * kP2, 31) * kP1;
}

/// Fold one word into the running hash (bijective in both).
inline std::uint64_t fold(std::uint64_t h, std::uint64_t w) {
  return rotl(h ^ round(0, w), 27) * kP1 + kP4;
}

}  // namespace checksum_detail

inline std::uint64_t checksum64(const void* data, std::size_t n) {
  using namespace checksum_detail;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  std::uint64_t h = kP3;
  if (n >= 32) {
    // Four independent lanes keep the multiplier pipeline full.
    std::uint64_t v0 = kP1 + kP2, v1 = kP2, v2 = 0, v3 = 0 - kP1;
    for (; i + 32 <= n; i += 32) {
      v0 = round(v0, load64(p + i));
      v1 = round(v1, load64(p + i + 8));
      v2 = round(v2, load64(p + i + 16));
      v3 = round(v3, load64(p + i + 24));
    }
    h = fold(fold(fold(fold(h, v0), v1), v2), v3);
  }
  for (; i + 8 <= n; i += 8) h = fold(h, load64(p + i));
  if (i < n) {
    std::uint64_t w = 0;  // zero-padded tail word; the length tells them apart
    std::memcpy(&w, p + i, n - i);
    h = fold(h, w);
  }
  h += static_cast<std::uint64_t>(n) * kP2;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace critter::util
