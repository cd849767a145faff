// Length-prefixed, checksummed frames — the one message shape every
// critter network service speaks (DESIGN.md §12.1):
//
//   [u32 magic "CRF2"][u32 verb][u64 payload length]
//   [u64 payload util::checksum64][payload bytes]
//
// The header is validated before the payload is read: wrong magic,
// unknown verb, or a length above the caller's bound rejects the frame
// without allocating, and a checksum mismatch after the body arrives
// rejects a torn or corrupted payload — the same stamp-then-verify
// discipline as the run-directory publish manifests (core/fsio.hpp), just
// inline in the stream.  Payload contents use core::WireWriter/WireReader,
// so outcomes and snapshots serialize bit-identically to the file formats.
//
// encode_frame/decode_frame are pure string transforms (what the fuzz
// tests chew on); send_frame/recv_frame bind them to a Connection with a
// per-operation deadline.
#pragma once

#include <cstdint>
#include <string>

#include "net/socket.hpp"

namespace critter::net {

/// Version 2 switched the payload checksum from FNV-1a to util::checksum64;
/// a peer of the other version fails the magic check by name.
inline constexpr std::uint32_t kFrameMagic = 0x32465243u;  // "CRF2"
inline constexpr std::uint32_t kFrameMagicV1 = 0x31465243u;  // "CRF1"
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Hard upper bound on a payload; services pass tighter bounds where the
/// verb implies one.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// Every verb any critter service speaks, in one table so the decode
/// whitelist is the closed set (values are wire-stable; never renumber).
enum Verb : std::uint32_t {
  // Handshake + generic replies, shared by all services.
  kHello = 0x01,
  kOk = 0x02,
  kErr = 0x03,
  // Blob-store service (net/blob.hpp): the run-directory artifact surface.
  kBlobPut = 0x10,
  kBlobGet = 0x11,
  kBlobExists = 0x12,
  kBlobAppend = 0x13,
  kBlobRemove = 0x14,
  kBlobPublish = 0x15,
  kBlobPublished = 0x16,
  kBlobReadPublished = 0x17,
  // Tuner service (serve/protocol.hpp): ask/tell over the wire.
  kTuneOpen = 0x20,
  kTuneAsk = 0x21,
  kTuneTell = 0x22,
  kTuneExport = 0x23,
  kTuneImport = 0x24,
  kTuneStatus = 0x25,
  kTuneShutdown = 0x26,
};

struct Frame {
  std::uint32_t verb = 0;
  std::string payload;
};

/// True iff `verb` is one this build knows — the whitelist every decode
/// checks so a stray stream desyncs loudly instead of being interpreted.
bool known_verb(std::uint32_t verb);

std::string encode_frame(std::uint32_t verb, const std::string& payload);

/// Decode one frame from the front of `bytes`; returns the number of bytes
/// consumed.  CRITTER_CHECK-fails on truncation at any point, bad magic,
/// unknown verb, a declared length above `max_payload`, or a payload
/// checksum mismatch.
std::size_t decode_frame(const std::string& bytes, Frame& out,
                         std::uint64_t max_payload = kMaxFramePayload);

void send_frame(Connection& conn, std::uint32_t verb,
                const std::string& payload, double deadline_s);

/// Receive one frame; throws on timeout, mid-frame close, or any of the
/// decode_frame rejections.
Frame recv_frame(Connection& conn, double deadline_s,
                 std::uint64_t max_payload = kMaxFramePayload);

/// Like recv_frame, but an orderly peer close at a frame boundary returns
/// false (end of session) instead of throwing.
bool recv_frame_opt(Connection& conn, Frame& out, double deadline_s,
                    std::uint64_t max_payload = kMaxFramePayload);

}  // namespace critter::net
