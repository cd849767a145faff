// Network subsystem: the frame codec (fuzzed the same way as the binary
// snapshot format in test_stat_store.cc — every truncation point, every
// flipped byte), the blob Store implementations (directory, in-memory, and
// the framed client/server pair, which must agree on semantics and error
// wording), and the socket layer's deadline behavior (a dead or silent
// peer throws, never hangs).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fsio.hpp"
#include "net/blob.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/hash.hpp"

namespace core = critter::core;
namespace net = critter::net;

namespace {

/// Deterministic payload with NULs, high bytes, and enough length that a
/// byte flip in the frame's length field can both shrink and grow it.
std::string fuzz_payload(std::size_t n = 200) {
  std::string p(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<char>((i * 37 + 11) & 0xFF);
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Transport checksum (util::checksum64)
// ---------------------------------------------------------------------------

TEST(Checksum64, EveryFlipTruncationAndZeroAppendChangesIt) {
  // The frame, log-record, checkpoint, and manifest checksum.  Each word it
  // absorbs passes through a bijection, so any single-byte change must
  // move it; the length feeds the finalizer, so truncations and appended
  // zero bytes (which a zero-padded tail word alone could not see) must
  // move it too.
  const std::string buf = fuzz_payload(1024);
  const auto sum = [](const std::string& s) {
    return critter::util::checksum64(s.data(), s.size());
  };
  const std::uint64_t ref = sum(buf);
  for (std::size_t at = 0; at < buf.size(); ++at) {
    for (unsigned char x : {0x01, 0x80, 0xFF}) {
      std::string flipped = buf;
      flipped[at] = static_cast<char>(flipped[at] ^ x);
      EXPECT_NE(sum(flipped), ref) << "flip 0x" << std::hex << int(x)
                                   << std::dec << " at byte " << at;
    }
  }
  for (std::size_t len = 0; len < buf.size(); ++len)
    EXPECT_NE(sum(buf.substr(0, len)), ref) << "truncation to " << len;
  for (std::size_t extra = 1; extra <= 64; ++extra)
    EXPECT_NE(sum(buf + std::string(extra, '\0')), ref)
        << extra << " zero bytes appended";
  // Deterministic: the same bytes always checksum the same.
  EXPECT_EQ(sum(std::string(buf)), ref);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(Frame, RoundTripEveryVerbAndPayloadShape) {
  const std::vector<std::uint32_t> verbs = {
      net::kHello,       net::kOk,           net::kErr,
      net::kBlobPut,     net::kBlobGet,      net::kBlobExists,
      net::kBlobAppend,  net::kBlobRemove,   net::kBlobPublish,
      net::kBlobPublished, net::kBlobReadPublished,
      net::kTuneOpen,    net::kTuneAsk,      net::kTuneTell,
      net::kTuneExport,  net::kTuneImport,   net::kTuneStatus,
      net::kTuneShutdown};
  for (std::uint32_t verb : verbs) {
    EXPECT_TRUE(net::known_verb(verb));
    for (const std::string& payload :
         {std::string(), std::string("x"), fuzz_payload(100 * 1000)}) {
      const std::string bytes = net::encode_frame(verb, payload);
      ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + payload.size());
      net::Frame f;
      const std::size_t consumed = net::decode_frame(bytes, f);
      EXPECT_EQ(consumed, bytes.size());
      EXPECT_EQ(f.verb, verb);
      EXPECT_EQ(f.payload, payload);
    }
  }
  EXPECT_FALSE(net::known_verb(0));
  EXPECT_FALSE(net::known_verb(0x7F));
}

TEST(Frame, ConcatenatedFramesDecodeInSequence) {
  // decode_frame reports its consumption so a stream of frames parses
  // without any out-of-band delimiters.
  const std::string a = net::encode_frame(net::kHello, "first");
  const std::string b = net::encode_frame(net::kOk, fuzz_payload());
  const std::string stream = a + b;
  net::Frame f;
  const std::size_t n1 = net::decode_frame(stream, f);
  EXPECT_EQ(n1, a.size());
  EXPECT_EQ(f.payload, "first");
  const std::size_t n2 = net::decode_frame(stream.substr(n1), f);
  EXPECT_EQ(n2, b.size());
  EXPECT_EQ(f.verb, net::kOk);
}

TEST(Frame, EveryTruncationIsRejected) {
  // A short read anywhere — mid-header or mid-payload — must surface as a
  // clear net error, never a silent partial frame (the stream analogue of
  // the snapshot loader's truncation sweep).
  const std::string bytes = net::encode_frame(net::kTuneTell, fuzz_payload());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::Frame f;
    try {
      net::decode_frame(bytes.substr(0, len), f);
      FAIL() << "truncation at byte " << len << " decoded successfully";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("net:"), std::string::npos)
          << "at byte " << len << ": " << e.what();
    }
  }
}

TEST(Frame, EveryByteCorruptionIsRejected) {
  // Flip every byte in turn (XOR 0xFF).  Magic flips fail the stream
  // check, verb flips fall off the whitelist, length flips either overrun
  // the buffer/bound or shrink the payload out from under its checksum,
  // and checksum/payload flips fail FNV verification.
  const std::string bytes = net::encode_frame(net::kTuneTell, fuzz_payload());
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0xFF);
    net::Frame f;
    EXPECT_THROW(net::decode_frame(bad, f), std::runtime_error)
        << "flipped byte " << at;
  }
}

TEST(Frame, PreviousFrameVersionIsRejectedByName) {
  // A CRF1 peer (FNV-1a frame checksums) is a mixed build, named as such
  // rather than reported as a checksum mismatch or a foreign stream.
  std::string bytes = net::encode_frame(net::kHello, "hello");
  std::memcpy(bytes.data(), &net::kFrameMagicV1, 4);
  net::Frame f;
  try {
    net::decode_frame(bytes, f);
    FAIL() << "version-1 frame decoded successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("frame version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(Frame, UnknownVerbIsRejectedBeforeThePayload) {
  // encode_frame is a pure transform (servers echo caller verbs), so the
  // whitelist lives in decode: a verb this build does not know desyncs
  // loudly even when length and checksum are self-consistent.
  const std::string bytes = net::encode_frame(0x7F, "payload");
  net::Frame f;
  try {
    net::decode_frame(bytes, f);
    FAIL() << "unknown verb decoded successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown frame verb"),
              std::string::npos)
        << e.what();
  }
}

TEST(Frame, DeclaredLengthAboveTheBoundIsRejectedWithoutWaiting) {
  // A tighter caller bound rejects a bigger (valid) frame up front...
  const std::string bytes = net::encode_frame(net::kOk, fuzz_payload(64));
  net::Frame f;
  try {
    net::decode_frame(bytes, f, /*max_payload=*/16);
    FAIL() << "oversized frame decoded successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  }
  // ...and a forged header declaring a huge payload fails the header
  // check, not an allocation or a wait for bytes that will never come.
  std::string forged = net::encode_frame(net::kOk, "");
  const std::uint64_t huge = net::kMaxFramePayload + 1;
  std::memcpy(forged.data() + 8, &huge, 8);
  EXPECT_THROW(net::decode_frame(forged, f), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Socket layer
// ---------------------------------------------------------------------------

TEST(Socket, ParseAddress) {
  const net::Address a = net::parse_address("127.0.0.1:8080");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);
  EXPECT_THROW(net::parse_address("nocolon"), std::runtime_error);
  EXPECT_THROW(net::parse_address(":80"), std::runtime_error);
  EXPECT_THROW(net::parse_address("host:"), std::runtime_error);
  EXPECT_THROW(net::parse_address("host:notaport"), std::runtime_error);
  EXPECT_THROW(net::parse_address("host:70000"), std::runtime_error);
}

TEST(Socket, FramesOverLoopbackAndOrderlyCloseAtABoundary) {
  net::Listener listener(0);
  ASSERT_GT(listener.port(), 0);
  std::thread server([&listener] {
    net::Connection c = listener.accept(5.0);
    ASSERT_TRUE(c.valid());
    net::Frame rq;
    while (net::recv_frame_opt(c, rq, 5.0)) {
      std::string reversed(rq.payload.rbegin(), rq.payload.rend());
      net::send_frame(c, net::kOk, reversed, 5.0);
    }
    // recv_frame_opt returned false: the client closed at a frame
    // boundary — the orderly end-of-session signal, not an error.
  });
  net::Connection conn = net::Connection::connect("127.0.0.1",
                                                  listener.port(), 5.0);
  // Nothing sent yet: readable() times out instead of blocking.
  EXPECT_FALSE(conn.readable(0.05));
  for (const std::string& msg : {std::string("abc"), fuzz_payload()}) {
    net::send_frame(conn, net::kHello, msg, 5.0);
    const net::Frame rp = net::recv_frame(conn, 5.0);
    EXPECT_EQ(rp.verb, net::kOk);
    EXPECT_EQ(rp.payload, std::string(msg.rbegin(), msg.rend()));
  }
  conn.close();
  server.join();
}

TEST(Socket, SilentPeerThrowsAtTheDeadlineInsteadOfHanging) {
  net::Listener listener(0);
  std::thread server([&listener] {
    net::Connection c = listener.accept(5.0);
    // Say nothing; just hold the connection until the peer gives up.
    net::Frame f;
    try {
      net::recv_frame(c, 5.0, net::kMaxFramePayload);
    } catch (const std::exception&) {
    }
  });
  net::Connection conn = net::Connection::connect("127.0.0.1",
                                                  listener.port(), 5.0);
  const double t0 = core::monotonic_s();
  EXPECT_THROW(net::recv_frame(conn, 0.2), std::runtime_error);
  EXPECT_LT(core::monotonic_s() - t0, 3.0);
  conn.close();
  server.join();
}

// ---------------------------------------------------------------------------
// Blob stores
// ---------------------------------------------------------------------------

namespace {

/// The Store contract, checked identically against every implementation:
/// plain blobs, the two-step publish, and the failure wording.
void exercise_store(net::Store& store, const std::string& what) {
  EXPECT_FALSE(store.exists("run.txt")) << what;
  EXPECT_THROW(store.get("run.txt"), std::runtime_error) << what;
  store.put("run.txt", "hello");
  EXPECT_TRUE(store.exists("run.txt")) << what;
  EXPECT_EQ(store.get("run.txt"), "hello") << what;
  store.put("run.txt", "rewritten");
  EXPECT_EQ(store.get("run.txt"), "rewritten") << what;

  const std::string payload = fuzz_payload();
  EXPECT_FALSE(store.published("exchange/s0_r1.snap")) << what;
  EXPECT_THROW(store.read_published("exchange/s0_r1.snap"),
               std::runtime_error)
      << what;
  store.publish("exchange/s0_r1.snap", payload);
  EXPECT_TRUE(store.published("exchange/s0_r1.snap")) << what;
  EXPECT_EQ(store.read_published("exchange/s0_r1.snap"), payload) << what;
  // An empty publish is legal (isolated shards exchange empty deltas).
  store.publish("exchange/s1_r1.snap", "");
  EXPECT_EQ(store.read_published("exchange/s1_r1.snap"), "") << what;

  // remove retires published artifacts (manifest and payload) and plain
  // blobs alike; removing an absent key is the idempotent no-op the
  // exchange-mailbox GC leans on.
  store.remove("exchange/s0_r1.snap");
  EXPECT_FALSE(store.published("exchange/s0_r1.snap")) << what;
  EXPECT_FALSE(store.exists("exchange/s0_r1.snap")) << what;
  EXPECT_THROW(store.read_published("exchange/s0_r1.snap"),
               std::runtime_error)
      << what;
  store.remove("exchange/s0_r1.snap");  // second remove: no-op, no throw
  store.remove("never/was/there");
  store.remove("run.txt");
  EXPECT_FALSE(store.exists("run.txt")) << what;
  // The key is reusable after removal — GC'd rounds do not poison names.
  store.publish("exchange/s0_r1.snap", "again");
  EXPECT_EQ(store.read_published("exchange/s0_r1.snap"), "again") << what;
  store.put("run.txt", "rewritten");
}

}  // namespace

TEST(Blob, DirMemAndSocketStoresShareOneContract) {
  const std::string root = core::make_temp_dir("critter_blob_test");
  net::DirStore dir(root);
  exercise_store(dir, "DirStore");

  net::MemStore mem;
  exercise_store(mem, "MemStore");

  net::MemStore backing;
  net::BlobServer server(backing, 0);
  net::BlobClient client("127.0.0.1", server.port(), 5.0, 5.0);
  exercise_store(client, "BlobClient");
  // The client and its backing store see one namespace.
  EXPECT_EQ(backing.get("run.txt"), "rewritten");
  backing.publish("from_server.snap", "xyz");
  EXPECT_EQ(client.read_published("from_server.snap"), "xyz");
  server.stop();
  core::remove_dir_tree(root);
}

TEST(Blob, WireCountersMeterCompletedTransfers) {
  // The process-wide wire accounting (DESIGN.md §13): both endpoints of
  // this loopback conversation live in this process, so every sent frame
  // is also received here and the counters must mirror exactly.
  net::reset_wire_counters();
  net::MemStore backing;
  net::BlobServer server(backing, 0);
  {
    net::BlobClient client("127.0.0.1", server.port(), 5.0, 5.0);
    client.put("metered", std::string(1000, 'x'));
    EXPECT_EQ(client.get("metered"), std::string(1000, 'x'));
  }
  server.stop();
  const net::WireCounters wc = net::wire_counters();
  // Handshake + put + get = three request/reply pairs minimum.
  EXPECT_GE(wc.frames_sent, 6u);
  EXPECT_EQ(wc.frames_sent, wc.frames_received);
  EXPECT_EQ(wc.bytes_sent, wc.bytes_received);
  EXPECT_GT(wc.bytes_sent, 2000u);  // the kilobyte payload went both ways
  net::reset_wire_counters();
  EXPECT_EQ(net::wire_counters().bytes_sent, 0u);
  EXPECT_EQ(net::wire_counters().frames_received, 0u);
}

TEST(Blob, PreviousManifestKeyIsAStaleManifestFromAnOlderBuild) {
  // Publish manifests renamed their checksum key with the checksum change
  // (fnv= -> sum64=); a leftover old-build manifest is named as such.
  const std::string payload = fuzz_payload();
  EXPECT_NO_THROW(core::check_publish_manifest(
      core::publish_manifest(payload), payload, "fresh.snap.ok"));
  try {
    core::check_publish_manifest(
        "bytes=" + std::to_string(payload.size()) + "\nfnv=1234abcd\n",
        payload, "old.snap.ok");
    FAIL() << "old-build manifest accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale manifest"), std::string::npos) << what;
    EXPECT_NE(what.find("older build"), std::string::npos) << what;
  }
}

TEST(Blob, CorruptedPublishedPayloadIsAStaleManifest) {
  // Overwrite a published payload behind the manifest's back: the reader
  // must report a stale manifest (size/checksum mismatch), exactly like the
  // run-directory protocol — never return the corrupted bytes.
  const std::string root = core::make_temp_dir("critter_blob_stale");
  net::DirStore dir(root);
  dir.publish("delta.snap", fuzz_payload());
  core::write_file(root + "/delta.snap", "corrupted body");
  try {
    dir.read_published("delta.snap");
    FAIL() << "stale payload read successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stale manifest"),
              std::string::npos)
        << e.what();
  }
  core::remove_dir_tree(root);
}

TEST(Blob, RemoteErrorsCarryTheStoreWordingAcrossTheWire) {
  // A remote failure must read like the local one — the dist layer keys
  // retry/degrade decisions off these messages.
  net::MemStore backing;
  net::BlobServer server(backing, 0);
  net::BlobClient client("127.0.0.1", server.port(), 5.0, 5.0);
  try {
    client.get("absent.txt");
    FAIL() << "missing blob read successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open absent.txt"),
              std::string::npos)
        << e.what();
  }
  backing.publish("torn.snap", "payload");
  backing.put("torn.snap", "other bytes");  // invalidates the manifest
  try {
    client.read_published("torn.snap");
    FAIL() << "stale remote publish read successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stale manifest"),
              std::string::npos)
        << e.what();
  }
  server.stop();
}

TEST(Blob, WrongServiceHandshakeIsRefused) {
  // A tuner (or any non-blob) stream pointed at a blob server must be
  // turned away at hello, before any verb is interpreted.
  net::MemStore backing;
  net::BlobServer server(backing, 0);
  net::Connection conn =
      net::Connection::connect("127.0.0.1", server.port(), 5.0);
  net::send_frame(conn, net::kHello, "critter-tune/1", 5.0);
  const net::Frame rp = net::recv_frame(conn, 5.0);
  EXPECT_EQ(rp.verb, net::kErr);
  EXPECT_NE(rp.payload.find("bad handshake"), std::string::npos);
  conn.close();
  server.stop();
}
