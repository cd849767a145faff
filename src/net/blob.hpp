// The blob store: the shared-artifact surface of a distributed sweep,
// abstracted from the filesystem (DESIGN.md §12.2).
//
// A run directory is, to the protocol, just a keyed blob namespace with
// two write disciplines: plain puts (run.txt, heartbeats) and two-step
// publishes (deltas, results, abort markers) whose manifest stamps size +
// checksum so a reader never consumes a torn artifact.  `Store` captures
// exactly that surface; the dist executors are written against it, so the
// same worker loop runs over a local directory (DirStore), in-memory
// (MemStore, which also backs the TCP server), or across machines
// (BlobClient speaking frames to a BlobServer).  Keys are relative paths
// ("exchange/s0_r1.snap", "shard0/result.bin") — same layout everywhere.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace critter::net {

class Store {
 public:
  virtual ~Store() = default;
  /// Plain overwrite (atomic where the backend has a notion of tearing).
  virtual void put(const std::string& key, const std::string& content) = 0;
  /// Read a plain blob; throws if absent.
  virtual std::string get(const std::string& key) = 0;
  virtual bool exists(const std::string& key) = 0;
  /// Two-step publish: payload, then size/checksum manifest.
  virtual void publish(const std::string& key, const std::string& payload) = 0;
  /// True once `key`'s publish manifest is visible.
  virtual bool published(const std::string& key) = 0;
  /// Read a published payload, verifying the manifest; throws "stale
  /// manifest ..." on any mismatch, exactly like the run-directory reader.
  virtual std::string read_published(const std::string& key) = 0;
  /// Delete a blob and (if published) its manifest.  Removing an absent
  /// key is a no-op — the garbage-collection primitive (DESIGN.md §13):
  /// workers retire exchange-round deltas every peer has folded, so a
  /// long sweep's mailbox stays bounded by the live window, not its
  /// history.  Manifest goes first (mirror-image of publish): a reader
  /// that still sees one never finds a half-deleted payload "published".
  virtual void remove(const std::string& key) = 0;
};

/// A run directory as a Store — the historical layout, byte-for-byte.
class DirStore final : public Store {
 public:
  explicit DirStore(std::string root) : root_(std::move(root)) {}
  void put(const std::string& key, const std::string& content) override;
  std::string get(const std::string& key) override;
  bool exists(const std::string& key) override;
  void publish(const std::string& key, const std::string& payload) override;
  bool published(const std::string& key) override;
  std::string read_published(const std::string& key) override;
  void remove(const std::string& key) override;

 private:
  std::string root_;
};

/// Thread-safe in-memory Store; manifests are stored alongside payloads
/// and verified on read with the same core/fsio checks as on disk.
class MemStore final : public Store {
 public:
  void put(const std::string& key, const std::string& content) override;
  std::string get(const std::string& key) override;
  bool exists(const std::string& key) override;
  void publish(const std::string& key, const std::string& payload) override;
  bool published(const std::string& key) override;
  std::string read_published(const std::string& key) override;
  void remove(const std::string& key) override;

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::string> blobs_;
  std::unordered_map<std::string, std::string> manifests_;
};

/// Serves a Store over frames: one thread per connection, request/reply
/// (kBlob* in, kOk/kErr out).  Store exceptions travel back as kErr with
/// the original message, so a remote "stale manifest" reads identically
/// to a local one.
class BlobServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  /// accept loop.  The store must outlive the server.
  BlobServer(Store& store, int port = 0);
  ~BlobServer();
  int port() const { return port_; }
  /// Stop accepting, wake every connection thread, join all.  Idempotent.
  void stop();

 private:
  void accept_loop();
  void serve_connection(Connection conn);

  Store& store_;
  std::unique_ptr<Listener> listener_;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex threads_mu_;
  std::vector<std::thread> conn_threads_;
};

/// A Store whose backend is a BlobServer across a socket.  Thread-safe
/// (one in-flight request at a time).  `op_deadline_s` bounds every
/// request/reply pair; callers map it from the owning FaultPolicy phase.
class BlobClient final : public Store {
 public:
  BlobClient(const std::string& host, int port, double connect_deadline_s,
             double op_deadline_s);
  void put(const std::string& key, const std::string& content) override;
  std::string get(const std::string& key) override;
  bool exists(const std::string& key) override;
  void publish(const std::string& key, const std::string& payload) override;
  bool published(const std::string& key) override;
  std::string read_published(const std::string& key) override;
  void remove(const std::string& key) override;

 private:
  std::string request(std::uint32_t verb, const std::string& payload);

  std::mutex mu_;
  Connection conn_;
  double op_deadline_s_;
};

/// The service name BlobClient offers in its kHello (and BlobServer
/// requires) so a blob stream never cross-wires into another service.
inline constexpr const char* kBlobService = "critter-blob/1";

}  // namespace critter::net
