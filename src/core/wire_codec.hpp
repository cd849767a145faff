// The little string-backed binary writer/reader every byte-exact wire
// format in the tree shares: the statistics snapshot and its sparse
// transport (core/stat_store.cc), the dist layer's shard-result and
// checkpoint payloads, and the net layer's frame payloads (which must
// serialize outcomes identically to the file formats — a told batch
// journaled by the daemon replays bit-equal to one a run directory would
// carry).
//
// Fixed-width little-endian-as-memcpy fields; strings are [i32 length] +
// bytes with a plausibility bound so a corrupt length cannot allocate the
// universe.  The reader borrows its input as a view (an in-memory payload
// or an mmap'ed file alike), and every read — fixed-width fields, strings,
// and the length-prefixed blobs callers take through bytes() — passes the
// one bounds check in bytes() before anything is copied or allocated, so a
// truncated payload CRITTER_CHECK-fails instead of returning partial state.
// A writer's `out` may be backpatched in place (the snapshot codec fills in
// chunk lengths and checksums once a chunk's extent is known).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace critter::core {

struct WireWriter {
  std::string out;
  void raw(const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void i32(std::int32_t v) { raw(&v, 4); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void str(const std::string& s) {
    i32(static_cast<std::int32_t>(s.size()));
    raw(s.data(), s.size());
  }
};

struct WireReader {
  /// Borrowed: the payload must outlive the reader.
  std::string_view in;
  std::size_t pos = 0;
  /// Names the format in the truncation error ("<what>: truncated payload").
  const char* what = "wire";

  std::size_t remaining() const { return in.size() - pos; }
  /// The next `n` bytes as a view into `in`.  The one bounds check: it runs
  /// before the caller copies or allocates anything, so a length field
  /// claiming more bytes than the payload holds costs nothing.
  std::string_view bytes(std::size_t n) {
    CRITTER_CHECK(n <= remaining(), std::string(what) + ": truncated payload");
    const std::string_view v = in.substr(pos, n);
    pos += n;
    return v;
  }
  void raw(void* p, std::size_t n) { std::memcpy(p, bytes(n).data(), n); }
  std::uint8_t u8() { std::uint8_t v; raw(&v, 1); return v; }
  std::int32_t i32() { std::int32_t v; raw(&v, 4); return v; }
  std::uint32_t u32() { std::uint32_t v; raw(&v, 4); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, 8); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, 8); return v; }
  double f64() { double v; raw(&v, 8); return v; }
  std::string str() {
    const std::int32_t n = i32();
    CRITTER_CHECK(n >= 0 && n <= (1 << 20), "wire: implausible string");
    return std::string(bytes(static_cast<std::size_t>(n)));
  }
  bool done() const { return pos == in.size(); }
};

}  // namespace critter::core
