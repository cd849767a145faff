#include "net/frame.hpp"

#include <cstring>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace critter::net {

namespace {

struct Header {
  std::uint32_t magic = 0;
  std::uint32_t verb = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

void pack_header(const Header& h, char* out) {
  std::memcpy(out + 0, &h.magic, 4);
  std::memcpy(out + 4, &h.verb, 4);
  std::memcpy(out + 8, &h.length, 8);
  std::memcpy(out + 16, &h.checksum, 8);
}

Header unpack_header(const char* in) {
  Header h;
  std::memcpy(&h.magic, in + 0, 4);
  std::memcpy(&h.verb, in + 4, 4);
  std::memcpy(&h.length, in + 8, 8);
  std::memcpy(&h.checksum, in + 16, 8);
  return h;
}

/// Header-only validation — everything checkable before touching (or
/// allocating for) the payload.
void check_header(const Header& h, std::uint64_t max_payload) {
  CRITTER_CHECK(h.magic != kFrameMagicV1,
                "net: peer speaks frame version 1 (CRF1, FNV-1a checksums) — "
                "mixed-build client and daemon; upgrade both to CRF2");
  CRITTER_CHECK(h.magic == kFrameMagic,
                "net: bad frame magic — not a critter frame stream");
  CRITTER_CHECK(known_verb(h.verb),
                "net: unknown frame verb " + std::to_string(h.verb));
  CRITTER_CHECK(h.length <= max_payload,
                "net: frame payload of " + std::to_string(h.length) +
                    " bytes exceeds the " + std::to_string(max_payload) +
                    "-byte bound");
}

void check_payload(const Header& h, const std::string& payload) {
  CRITTER_CHECK(util::checksum64(payload.data(), payload.size()) == h.checksum,
                "net: frame payload checksum mismatch (torn or corrupted "
                "frame)");
}

}  // namespace

bool known_verb(std::uint32_t verb) {
  switch (verb) {
    case kHello:
    case kOk:
    case kErr:
    case kBlobPut:
    case kBlobGet:
    case kBlobExists:
    case kBlobAppend:
    case kBlobRemove:
    case kBlobPublish:
    case kBlobPublished:
    case kBlobReadPublished:
    case kTuneOpen:
    case kTuneAsk:
    case kTuneTell:
    case kTuneExport:
    case kTuneImport:
    case kTuneStatus:
    case kTuneShutdown:
      return true;
    default:
      return false;
  }
}

std::string encode_frame(std::uint32_t verb, const std::string& payload) {
  Header h;
  h.magic = kFrameMagic;
  h.verb = verb;
  h.length = payload.size();
  h.checksum = util::checksum64(payload.data(), payload.size());
  std::string out(kFrameHeaderBytes, '\0');
  pack_header(h, out.data());
  out += payload;
  return out;
}

std::size_t decode_frame(const std::string& bytes, Frame& out,
                         std::uint64_t max_payload) {
  CRITTER_CHECK(bytes.size() >= kFrameHeaderBytes,
                "net: truncated frame header (" +
                    std::to_string(bytes.size()) + " of " +
                    std::to_string(kFrameHeaderBytes) + " bytes)");
  const Header h = unpack_header(bytes.data());
  check_header(h, max_payload);
  CRITTER_CHECK(bytes.size() - kFrameHeaderBytes >= h.length,
                "net: truncated frame payload (" +
                    std::to_string(bytes.size() - kFrameHeaderBytes) +
                    " of " + std::to_string(h.length) + " bytes)");
  out.verb = h.verb;
  out.payload = bytes.substr(kFrameHeaderBytes,
                             static_cast<std::size_t>(h.length));
  check_payload(h, out.payload);
  return kFrameHeaderBytes + static_cast<std::size_t>(h.length);
}

void send_frame(Connection& conn, std::uint32_t verb,
                const std::string& payload, double deadline_s) {
  const std::string bytes = encode_frame(verb, payload);
  conn.send_all(bytes.data(), bytes.size(), deadline_s);
  note_frame_sent();
}

bool recv_frame_opt(Connection& conn, Frame& out, double deadline_s,
                    std::uint64_t max_payload) {
  char raw[kFrameHeaderBytes];
  if (!conn.recv_all_opt(raw, sizeof raw, deadline_s)) return false;
  const Header h = unpack_header(raw);
  check_header(h, max_payload);
  out.verb = h.verb;
  out.payload.resize(static_cast<std::size_t>(h.length));
  if (h.length > 0)
    conn.recv_all(out.payload.data(), out.payload.size(), deadline_s);
  check_payload(h, out.payload);
  note_frame_received();
  return true;
}

Frame recv_frame(Connection& conn, double deadline_s,
                 std::uint64_t max_payload) {
  Frame f;
  CRITTER_CHECK(recv_frame_opt(conn, f, deadline_s, max_payload),
                "net: peer closed connection before a frame");
  return f;
}

}  // namespace critter::net
