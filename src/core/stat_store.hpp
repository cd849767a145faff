// Statistics-lifecycle subsystem: the persistent kernel-statistics state of
// one profiled rank as a first-class value type.
//
// The paper's accelerator is the *reuse* of kernel statistics — across
// samples, configurations (persistent-stats sweeps), grid channels (eager
// propagation), and input sizes (§VIII extrapolation).  This layer owns
// that state so it can move independently of the profiler that grows it:
//
//   * KernelTable   — one rank's persistent statistics (K, the hash->key
//     registry, pending eager stats, the channel registry, the cross-size
//     model, and the tuning epoch) with a deterministic merge() and an
//     exact diff() (merge inverse) for extracting a sweep worker's batch
//     contribution;
//   * StatSnapshot  — all ranks' tables, the unit of snapshot/restore on a
//     profiler Store and of warm-start persistence: one chunked binary
//     serialization (save()/load(), on the shared core/wire_codec.hpp byte
//     codec) lets a sweep resume in another process with bit-identical
//     statistics.
//
// Determinism contract: merge() is a pure function of its two operands —
// per-key operations are independent and channel/bucket iteration happens
// in sorted-hash order — so folding a fixed sequence of deltas produces
// identical tables regardless of how many threads produced them
// (tune/sweep.cc relies on this for batch-synchronous shared-stat sweeps).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/channel.hpp"
#include "core/extrapolate.hpp"
#include "core/kernel_arena.hpp"
#include "core/signature.hpp"
#include "core/stats.hpp"

namespace critter::core {

/// One rank's persistent kernel-statistics state (survives engine runs and,
/// unless cleared, tuning configurations).
struct KernelTable {
  /// Arena-backed: contiguous block storage, dense-index addressing, stable
  /// references, insertion-order iteration (see core/kernel_arena.hpp).
  KernelArena K;
  /// Kernel-hash -> key registry (kernels referenced by hash on the wire).
  std::unordered_map<std::uint64_t, KernelKey> key_of_hash;
  /// Eager propagation: statistics received for kernels not yet seen
  /// locally, absorbed into K on first local sighting.
  std::unordered_map<std::uint64_t, KernelStats> pending_eager;
  /// Delta-only bookkeeping (produced by diff(), consumed by merge();
  /// serialized since snapshot version 2 so file-borne deltas — the
  /// distributed executors' mid-sweep exchange — stay exact): hashes of
  /// base pending-eager entries this table absorbed into K.  diff() subtracts the absorbed moments from the K delta and
  /// records the tombstone; merge() then absorbs the *target's* copy of the
  /// pending entry exactly once — the first tombstone erases it — so
  /// sibling deltas of one batch cannot double-count the absorbed samples.
  /// Sorted ascending; empty outside deltas.
  std::vector<std::uint64_t> pending_tombstones;
  ChannelRegistry channels;
  SizeModel size_model;  ///< cross-size extrapolation (§VIII)
  std::int64_t epoch = 0;
  /// Dirty-tracking version counter (DESIGN.md §13): bumped by every
  /// mutation path that can change the table's serialized bytes — merge,
  /// epoch advance, statistics reset, wholesale restore.  Profiler writes
  /// during a run are covered because every evaluation window opens with
  /// new_epoch().  NOT serialized and NOT part of any equality: it is a
  /// change *pre-filter* (an unchanged version means the chunk bytes are
  /// unchanged; a changed version means "re-compare"), never the decider —
  /// transport correctness always rests on byte comparison.
  std::uint64_t version = 0;

  /// Record a mutation for the dirty-tracking pre-filter.
  void touch() { ++version; }

  /// Register the world communicator's channel (required before use).
  void init_world(int nranks) { channels.init_world(nranks); }

  /// Advance the tuning epoch: non-eager policies re-execute every kernel
  /// at least once per epoch, enforced through the per-epoch counters.
  void new_epoch();

  /// Drop kernel statistics (K, hash registry, pending eager stats).  The
  /// channel registry, size model, and epoch survive — matching the
  /// paper's per-configuration reset, which the extrapolation extension
  /// deliberately outlives.
  void clear_statistics();

  /// Deterministic union/moment merge: Welford moments via Chan's parallel
  /// merge, execution counters summed, channel registries unioned, size
  /// model refit from summed moments, epoch max-merged.  Eager coverage
  /// hashes that conflict restart at zero (re-aggregation is always safe).
  /// Pending-eager entries whose kernel is registered in K on either side
  /// are absorbed into that K entry (moments only, mirroring the
  /// profiler's first-sighting absorption) rather than dropped, and a
  /// delta's pending tombstones absorb the target's copy exactly once —
  /// so same-batch siblings that each consumed the base's pending entry
  /// count its samples once, and pending growth merged after a sibling
  /// registered the kernel is not lost.
  void merge(const KernelTable& other);

  /// Exact merge inverse: reduce *this* (which evolved on top of `base`)
  /// to the delta such that base.merge(delta) reproduces it.  Per-epoch
  /// counters are zeroed in the delta — they are dead state across the
  /// batch barrier because every evaluation starts with new_epoch().
  KernelTable diff(const KernelTable& base) const;

  /// Exact statistical equality (bitwise on moments), used by tests and by
  /// the warm-start resume check.  Ignores per-epoch counters.
  bool same_statistics(const KernelTable& other) const;
};

/// All ranks' tables: the unit of Store snapshot/restore and of warm-start
/// persistence across processes.
struct StatSnapshot {
  std::vector<KernelTable> ranks;

  int nranks() const { return static_cast<int>(ranks.size()); }
  bool empty() const { return ranks.empty(); }

  /// Per-rank table merge, `delta.ranks.size()` must match.
  void merge(const StatSnapshot& delta);

  /// Per-rank exact merge inverse (see KernelTable::diff): *this* must have
  /// evolved on top of `base`; base.merge(diff) reproduces it.  The delta
  /// carries pending tombstones, so it round-trips through save()/load()
  /// without losing exactness — the unit of the distributed executors'
  /// incremental publishes.
  StatSnapshot diff(const StatSnapshot& base) const;

  bool same_statistics(const StatSnapshot& other) const;

  /// The serialization version save() writes and load() accepts.
  static std::uint32_t current_version();

  /// The binary snapshot: magic, version, rank count, then each rank table
  /// as a length-prefixed, FNV-checksummed chunk, so truncation and
  /// corruption are detected before any record is decoded.  Doubles travel
  /// as their raw bits, so statistics round-trip bit-exactly.
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;

  /// Serialize to an in-memory payload.  The encoder writes straight into
  /// the returned buffer — the hot path for the distributed executors'
  /// delta publishes, which frame the payload themselves and never want a
  /// stream in between.
  std::string to_string() const;

  /// Load a snapshot (or a mode-1 sparse delta, expanded on the fly).
  /// Throws std::runtime_error on truncated, corrupt, or unsupported-
  /// version input — the version named in the message — always before
  /// returning partial state.
  /// from_string decodes a borrowed payload in place (rank chunks are
  /// checksummed and parsed without copying); load_file prefers an mmap of
  /// the file for the same zero-copy decode, falling back to a stream read.
  static StatSnapshot load(std::istream& is);
  static StatSnapshot from_string(std::string_view bytes);
  static StatSnapshot load_file(const std::string& path);
};

/// The full binary payload of `tables` (rank order), byte-identical to
/// StatSnapshot::to_string() of a snapshot holding copies of them — the
/// live-store serializer (profiler Store, tune::SweepDriver) that writes
/// the tables where they are instead of deep-copying them first.
std::string serialize_tables(std::span<const KernelTable* const> tables);

/// One kernel's pooled runtime moments, extracted read-only from a
/// snapshot: the per-rank Welford accumulators of the same key merged
/// across ranks (Chan), so `n`/`mean`/`variance` describe every timing
/// sample any rank holds for that kernel.  The surrogate-model subsystem
/// consumes this as its transfer prior (DESIGN.md §9).
struct KernelMoments {
  KernelKey key;
  std::int64_t n = 0;
  double mean = 0.0;
  double variance = 0.0;
};

/// Deterministic read-only moment extraction: every registered kernel's
/// pooled moments, ranks folded in rank order and the result sorted by
/// ascending key hash.  Does not modify the snapshot; kernels with no
/// timing samples (n == 0) are omitted.
std::vector<KernelMoments> extract_moments(const StatSnapshot& snap);

/// KernelMoments <-> KernelStats conversion (m2 = variance * (n - 1)), so
/// pooled-moment records merge through the one Welford/Chan implementation
/// instead of re-deriving the moment algebra at every call site.
KernelStats moments_to_stats(const KernelMoments& m);
KernelMoments stats_to_moments(const KernelKey& key, const KernelStats& ks);

// ---------------------------------------------------------------------------
// Dirty-rank sparse transport (DESIGN.md §13)
// ---------------------------------------------------------------------------
//
// The v2 binary snapshot frames every rank table as a length-prefixed,
// FNV-checksummed chunk.  The sparse codec rides that framing: a sparse
// payload names only the *dirty* ranks and carries their chunks verbatim,
// plus the authoritative per-rank epoch array (the epoch is the first 8
// bytes of every chunk body, so a rank whose bytes changed only in its
// epoch ships 8 bytes instead of its whole table).  Application is byte
// splicing — chunk substitution plus an in-place epoch overwrite with a
// checksum refresh — so sparse transport is *byte-equivalent* to shipping
// the full snapshot: no float algebra, no ulp drift, bit-identity by
// construction.  Two modes:
//
//   * mode 0 (patch): relative to a full v2 base payload the receiver
//     already holds — the tuner daemon's TELL and journal records;
//   * mode 1 (standalone delta): self-contained — a rank absent from the
//     dirty list reconstructs as the canonical "clean" delta chunk (its
//     epoch, zero records) — the exchange mailbox and checkpoint blobs.
//     from_string() auto-detects mode-1 payloads and expands them, so
//     every existing snapshot reader accepts sparse deltas unchanged.
//
// Every decoder is fuzz-hardened like the full codec: magic/version/mode
// checked first, rank indices strictly ascending and bounded (duplicates
// and overlaps rejected), every chunk length bounded by the bytes
// remaining, every chunk checksum verified before use, trailing bytes
// rejected.

/// True when `bytes` lead with the sparse-payload magic ("CRSPRS1\n").
bool is_sparse_payload(std::string_view bytes);

/// Header summary of a sparse payload (validates magic/version/mode/nranks
/// and the dirty count's bound, not the chunks).
struct SparsePayloadInfo {
  int mode = 0;               ///< 0 = patch-onto-base, 1 = standalone delta
  std::uint32_t nranks = 0;   ///< rank count of the (base) snapshot
  std::uint32_t ndirty = 0;   ///< ranks shipping a full chunk
};
SparsePayloadInfo sparse_payload_info(std::string_view bytes);

/// Encode the mode-0 patch turning full v2 payload `base_full` into
/// `new_full` (same rank count required).  A rank whose chunk bytes are
/// unchanged — or differ only in the leading epoch field — ships no chunk;
/// the decision is a byte comparison, never a version-counter shortcut.
std::string encode_sparse_patch(std::string_view base_full,
                                std::string_view new_full);

/// Apply a mode-0 patch to a full v2 payload, returning the new full
/// payload: exactly the `new_full` bytes encode_sparse_patch() saw.  Each
/// shipped chunk is checksum-verified and its record structure walked
/// without building a table (every count bounded by the bytes left, the
/// chunk consumed exactly), so a malformed chunk is rejected even though
/// the byte-only consumers — the tuner daemon's TELL, its journal replay,
/// shard resume — never decode it.
std::string apply_sparse_patch(std::string_view base_full,
                               std::string_view patch);

/// Encode a snapshot as a mode-1 standalone sparse delta: ranks whose
/// chunk equals the canonical clean chunk (epoch + zero records — what
/// diff() produces for an untouched rank) are carried by the epoch array
/// alone.  expand_sparse_delta(encode_sparse_delta(s)) == s.to_string().
std::string encode_sparse_delta(const StatSnapshot& delta);

/// Expand a mode-1 sparse delta to the exact full v2 payload it encodes.
/// Rejects mode-0 patches (those need a base only their producer holds).
std::string expand_sparse_delta(std::string_view sparse);

}  // namespace critter::core
