#include "core/stat_store.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/wire_codec.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace critter::core {

// ---------------------------------------------------------------------------
// KernelTable lifecycle
// ---------------------------------------------------------------------------

void KernelTable::new_epoch() {
  touch();
  ++epoch;
  for (auto& [key, ks] : K) ks.reset_epoch_counters();
}

void KernelTable::clear_statistics() {
  touch();
  K.clear();
  key_of_hash.clear();
  pending_eager.clear();
  pending_tombstones.clear();
}

namespace {

/// Table-level merge of one kernel's statistics: moments via Chan, counters
/// summed, flags OR-ed, coverage hash resolved deterministically.
void merge_kernel_stats(KernelStats& a, const KernelStats& b) {
  a.merge(b);  // n, mean, m2
  a.invocations_this_epoch += b.invocations_this_epoch;
  a.executions_this_epoch += b.executions_this_epoch;
  a.total_invocations += b.total_invocations;
  a.total_executions += b.total_executions;
  const bool steady = a.global_steady || b.global_steady;
  if (a.agg_hash == 0) {
    a.agg_hash = b.agg_hash;
  } else if (b.agg_hash != 0 && b.agg_hash != a.agg_hash && !a.global_steady) {
    // Conflicting partial coverage from independent evaluations: the two
    // hash chains cannot be combined, so coverage restarts and the kernel
    // re-aggregates from scratch — the conservative direction.
    a.agg_hash = 0;
  }
  a.global_steady = steady;
  a.extrapolation_observed = a.extrapolation_observed || b.extrapolation_observed;
  a.registered = a.registered || b.registered;
}

/// Delta of one kernel's statistics on top of `base` (exact merge inverse).
KernelStats diff_kernel_stats(const KernelStats& after, const KernelStats& base) {
  KernelStats d = after;
  d.unmerge(base);  // n, mean, m2
  // Per-epoch counters are dead across the barrier (every evaluation calls
  // new_epoch() first); zeroing them keeps merge sums meaningless-but-stable.
  d.invocations_this_epoch = 0;
  d.executions_this_epoch = 0;
  d.total_invocations = after.total_invocations - base.total_invocations;
  d.total_executions = after.total_executions - base.total_executions;
  // agg_hash/flags carry the after-state; merge_kernel_stats resolves them.
  return d;
}

bool stats_equal(const KernelStats& a, const KernelStats& b) {
  return a.n == b.n && a.mean == b.mean && a.m2 == b.m2 &&
         a.total_invocations == b.total_invocations &&
         a.total_executions == b.total_executions &&
         a.agg_hash == b.agg_hash && a.global_steady == b.global_steady &&
         a.extrapolation_observed == b.extrapolation_observed &&
         a.registered == b.registered;
}

bool bucket_equal(const SizeModelBucket& a, const SizeModelBucket& b) {
  return a.n == b.n && a.sx == b.sx && a.sy == b.sy && a.sxx == b.sxx &&
         a.sxy == b.sxy && a.syy == b.syy && a.min_x == b.min_x &&
         a.max_x == b.max_x;
}

bool size_model_equal(const SizeModel& a, const SizeModel& b) {
  if (a.bucket_count() != b.bucket_count()) return false;
  bool eq = true;
  std::unordered_map<std::uint64_t, SizeModelBucket> bb;
  b.for_each([&](std::uint64_t id, const SizeModelBucket& bk) { bb[id] = bk; });
  a.for_each([&](std::uint64_t id, const SizeModelBucket& ak) {
    auto it = bb.find(id);
    if (it == bb.end() || !bucket_equal(ak, it->second)) eq = false;
  });
  return eq;
}

}  // namespace

void KernelTable::merge(const KernelTable& other) {
  touch();  // covers kernel-moment, channel-registry-union, and refit growth
  for (const auto& [key, ks] : other.K) {
    auto [it, inserted] = K.try_emplace(key, ks);
    if (!inserted) merge_kernel_stats(it->second, ks);
  }
  for (const auto& [h, key] : other.key_of_hash) key_of_hash.try_emplace(h, key);
  // Tombstones first: the delta's evaluation absorbed our pending entry at
  // first sighting (its K contribution arrives with the absorbed moments
  // shed — see diff()), so re-absorb *our* copy into the now-registered K
  // entry and erase it.  The first sibling's tombstone consumes the entry;
  // later siblings find it gone — the absorbed samples count exactly once.
  for (std::uint64_t h : other.pending_tombstones) {
    const auto pit = pending_eager.find(h);
    if (pit == pending_eager.end()) continue;
    const auto kit = key_of_hash.find(h);
    if (kit != key_of_hash.end()) {
      const auto kk = K.find(kit->second);
      if (kk != K.end() && kk->second.registered)
        kk->second.merge(pit->second);  // moments only, like the profiler's
                                        // first-sighting absorption
    }
    pending_eager.erase(pit);
  }
  for (const auto& [h, ks] : other.pending_eager) {
    // Kernel already registered here (e.g. by an earlier sibling delta of
    // the same batch): pending growth feeds the K entry directly instead
    // of being created only to be purged below.
    const auto kit = key_of_hash.find(h);
    if (kit != key_of_hash.end()) {
      const auto kk = K.find(kit->second);
      if (kk != K.end() && kk->second.registered) {
        kk->second.merge(ks);
        continue;
      }
    }
    auto [it, inserted] = pending_eager.try_emplace(h, ks);
    if (!inserted) merge_kernel_stats(it->second, ks);
  }
  // A pending entry is dead once its kernel is registered in K on either
  // side: absorb its samples there (they were collected for that kernel,
  // only ahead of its local sighting) and erase it.  Within one batch the
  // tombstone pass above already consumed the delta-absorbed entries; this
  // sweep handles independent-table merges (merge_shards), where the two
  // sides' pending samples are disjoint by construction.
  for (auto it = pending_eager.begin(); it != pending_eager.end();) {
    const auto kit = key_of_hash.find(it->first);
    const auto kk = kit != key_of_hash.end() ? K.find(kit->second) : K.end();
    if (kk != K.end() && kk->second.registered) {
      kk->second.merge(it->second);
      it = pending_eager.erase(it);
    } else {
      ++it;
    }
  }
  channels.merge_from(other.channels);
  size_model.merge_from(other.size_model);
  epoch = std::max(epoch, other.epoch);
}

KernelTable KernelTable::diff(const KernelTable& base) const {
  KernelTable d;
  // Base pending-eager entries we no longer carry were absorbed into K at
  // first sighting.  Tombstone them and shed the absorbed moments from the
  // K delta: the merge target re-absorbs its own copy of the entry via the
  // tombstone, exactly once even when several same-batch siblings absorbed
  // the same entry.
  std::unordered_map<KernelKey, const KernelStats*, KernelKeyHash> absorbed;
  for (const auto& [h, ks] : base.pending_eager) {
    if (pending_eager.count(h) != 0) continue;
    d.pending_tombstones.push_back(h);
    const auto kit = key_of_hash.find(h);
    if (kit != key_of_hash.end()) absorbed.emplace(kit->second, &ks);
  }
  std::sort(d.pending_tombstones.begin(), d.pending_tombstones.end());

  for (const auto& [key, ks] : K) {
    const auto bit = base.K.find(key);
    const auto ab = absorbed.find(key);
    if (bit == base.K.end()) {
      if (ab == absorbed.end()) {
        d.K.emplace(key, ks);
      } else {
        KernelStats dk = ks;
        dk.unmerge(*ab->second);  // moments only: first-sighting absorption
                                  // merged moments only
        d.K.emplace(key, dk);
      }
      continue;
    }
    const KernelStats& bs = bit->second;
    if (ab == absorbed.end() && stats_equal(ks, bs)) continue;
    KernelStats dk = diff_kernel_stats(ks, bs);
    if (ab != absorbed.end()) dk.unmerge(*ab->second);
    d.K.emplace(key, dk);
  }
  for (const auto& [h, key] : key_of_hash)
    if (base.key_of_hash.count(h) == 0) d.key_of_hash.emplace(h, key);
  for (const auto& [h, ks] : pending_eager) {
    const auto bit = base.pending_eager.find(h);
    if (bit == base.pending_eager.end()) {
      d.pending_eager.emplace(h, ks);
    } else if (!stats_equal(ks, bit->second)) {
      d.pending_eager.emplace(h, diff_kernel_stats(ks, bit->second));
    }
  }
  channels.for_each([&](std::uint64_t h, const Channel& ch) {
    if (!base.channels.known(h)) d.channels.insert_raw(ch);
  });
  d.size_model = size_model;
  d.size_model.unmerge_from(base.size_model);
  d.epoch = epoch;
  return d;
}

bool KernelTable::same_statistics(const KernelTable& other) const {
  if (K.size() != other.K.size() ||
      key_of_hash.size() != other.key_of_hash.size() ||
      pending_eager.size() != other.pending_eager.size() ||
      epoch != other.epoch)
    return false;
  for (const auto& [key, ks] : K) {
    const auto it = other.K.find(key);
    if (it == other.K.end() || !stats_equal(ks, it->second)) return false;
  }
  for (const auto& [h, key] : key_of_hash) {
    const auto it = other.key_of_hash.find(h);
    if (it == other.key_of_hash.end() || !(it->second == key)) return false;
  }
  for (const auto& [h, ks] : pending_eager) {
    const auto it = other.pending_eager.find(h);
    if (it == other.pending_eager.end() || !stats_equal(ks, it->second))
      return false;
  }
  return channels.same_channels(other.channels) &&
         size_model_equal(size_model, other.size_model);
}

// ---------------------------------------------------------------------------
// StatSnapshot
// ---------------------------------------------------------------------------

void StatSnapshot::merge(const StatSnapshot& delta) {
  CRITTER_CHECK(delta.ranks.size() == ranks.size(),
                "snapshot merge rank-count mismatch");
  for (std::size_t r = 0; r < ranks.size(); ++r) ranks[r].merge(delta.ranks[r]);
}

StatSnapshot StatSnapshot::diff(const StatSnapshot& base) const {
  CRITTER_CHECK(base.ranks.size() == ranks.size(),
                "snapshot diff rank-count mismatch");
  StatSnapshot d;
  d.ranks.reserve(ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r)
    d.ranks.push_back(ranks[r].diff(base.ranks[r]));
  return d;
}

bool StatSnapshot::same_statistics(const StatSnapshot& other) const {
  if (ranks.size() != other.ranks.size()) return false;
  for (std::size_t r = 0; r < ranks.size(); ++r)
    if (!ranks[r].same_statistics(other.ranks[r])) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Serialization
//
// One binary format on the shared byte codec (core/wire_codec.hpp): records
// in a deterministic order (kernels sorted by key hash, registries in
// ascending-hash order), each rank table a length-prefixed, checksummed
// chunk.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'C', 'R', 'S', 'T', 'A', 'T', '0', '\n'};
// Version 2: per-rank length-prefixed + FNV-checksummed chunks, and the
// delta pending-tombstone list is serialized (file-borne exchange deltas).
// Every other version — including the unchunked version 1 — is rejected by
// name.
constexpr std::uint32_t kVersion = 2;

using util::fnv1a;  // the rank-chunk checksum

constexpr std::uint8_t kFlagGlobalSteady = 1;
constexpr std::uint8_t kFlagExtrapObserved = 2;
constexpr std::uint8_t kFlagRegistered = 4;

std::uint8_t pack_flags(const KernelStats& ks) {
  return (ks.global_steady ? kFlagGlobalSteady : 0) |
         (ks.extrapolation_observed ? kFlagExtrapObserved : 0) |
         (ks.registered ? kFlagRegistered : 0);
}

void unpack_flags(KernelStats& ks, std::uint8_t f) {
  ks.global_steady = (f & kFlagGlobalSteady) != 0;
  ks.extrapolation_observed = (f & kFlagExtrapObserved) != 0;
  ks.registered = (f & kFlagRegistered) != 0;
}

template <class Map>
std::vector<typename Map::const_pointer> sorted_by_key(const Map& m) {
  std::vector<typename Map::const_pointer> out;
  out.reserve(m.size());
  for (const auto& kv : m) out.push_back(&kv);
  std::sort(out.begin(), out.end(),
            [](auto* a, auto* b) { return a->first < b->first; });
  return out;
}

std::vector<const KernelArena::value_type*> sorted_kernels(
    const KernelTable& t) {
  std::vector<const KernelArena::value_type*> out;
  out.reserve(t.K.size());
  for (const auto& kv : t.K) out.push_back(&kv);
  std::sort(out.begin(), out.end(), [](auto* a, auto* b) {
    return a->first.hash() < b->first.hash();
  });
  return out;
}

// --- binary records ---------------------------------------------------------

void write_key_binary(WireWriter& w, const KernelKey& key) {
  w.u8(static_cast<std::uint8_t>(key.cls));
  for (auto dim : key.dims) w.i64(dim);
  w.u64(key.chan);
}

KernelKey read_key_binary(WireReader& r) {
  const auto cls = static_cast<KernelClass>(r.u8());
  std::array<std::int64_t, 4> dims{};
  for (auto& dim : dims) dim = r.i64();
  const std::uint64_t chan = r.u64();
  return KernelKey{cls, dims, chan};
}

void write_stats_binary(WireWriter& w, const KernelStats& ks) {
  w.i64(ks.n);
  w.f64(ks.mean);
  w.f64(ks.m2);
  w.i64(ks.invocations_this_epoch);
  w.i64(ks.executions_this_epoch);
  w.i64(ks.total_invocations);
  w.i64(ks.total_executions);
  w.u64(ks.agg_hash);
  w.u8(pack_flags(ks));
}

KernelStats read_stats_binary(WireReader& r) {
  KernelStats ks;
  ks.n = r.i64();
  ks.mean = r.f64();
  ks.m2 = r.f64();
  ks.invocations_this_epoch = r.i64();
  ks.executions_this_epoch = r.i64();
  ks.total_invocations = r.i64();
  ks.total_executions = r.i64();
  ks.agg_hash = r.u64();
  unpack_flags(ks, r.u8());
  return ks;
}

/// Record-count sanity bounds: a truncated or corrupt count must fail fast
/// with a clear error instead of driving a near-endless read loop or an
/// allocation far beyond any plausible snapshot.
constexpr std::uint64_t kMaxRanks = 1u << 16;
constexpr std::uint64_t kMaxRecords = 1ull << 32;
constexpr std::uint64_t kMaxChunkBytes = 1ull << 33;

/// One rank table's records, without framing (the chunk body).
void write_rank_binary(WireWriter& w, const KernelTable& t) {
  w.i64(t.epoch);
  w.u64(t.K.size());
  for (const auto* kv : sorted_kernels(t)) {
    write_key_binary(w, kv->first);
    write_stats_binary(w, kv->second);
  }
  w.u64(t.key_of_hash.size());
  for (const auto* kv : sorted_by_key(t.key_of_hash)) {
    w.u64(kv->first);
    write_key_binary(w, kv->second);
  }
  w.u64(t.pending_eager.size());
  for (const auto* kv : sorted_by_key(t.pending_eager)) {
    w.u64(kv->first);
    write_stats_binary(w, kv->second);
  }
  w.u64(t.pending_tombstones.size());
  for (std::uint64_t h : t.pending_tombstones) w.u64(h);
  w.u64(t.channels.size());
  t.channels.for_each([&](std::uint64_t, const Channel& ch) {
    w.i64(ch.offset);
    w.u8(ch.lattice ? 1 : 0);
    w.u64(ch.dims.size());
    for (const ChannelDim& d : ch.dims) {
      w.i64(d.stride);
      w.i64(d.size);
    }
  });
  w.u64(t.size_model.bucket_count());
  t.size_model.for_each([&](std::uint64_t id, const SizeModelBucket& b) {
    w.u64(id);
    w.i64(b.n);
    w.f64(b.sx);
    w.f64(b.sy);
    w.f64(b.sxx);
    w.f64(b.sxy);
    w.f64(b.syy);
    w.f64(b.min_x);
    w.f64(b.max_x);
  });
}

void read_rank_binary(WireReader& r, KernelTable& t, std::uint32_t nranks) {
  t.init_world(static_cast<int>(nranks));
  t.epoch = r.i64();
  const std::uint64_t nk = r.u64();
  CRITTER_CHECK(nk <= kMaxRecords, "stat snapshot: implausible kernel count");
  for (std::uint64_t i = 0; i < nk; ++i) {
    KernelKey key = read_key_binary(r);
    t.K.emplace(key, read_stats_binary(r));
  }
  const std::uint64_t nh = r.u64();
  CRITTER_CHECK(nh <= kMaxRecords, "stat snapshot: implausible key count");
  for (std::uint64_t i = 0; i < nh; ++i) {
    const std::uint64_t h = r.u64();
    t.key_of_hash.emplace(h, read_key_binary(r));
  }
  const std::uint64_t np = r.u64();
  CRITTER_CHECK(np <= kMaxRecords, "stat snapshot: implausible pending count");
  for (std::uint64_t i = 0; i < np; ++i) {
    const std::uint64_t h = r.u64();
    t.pending_eager.emplace(h, read_stats_binary(r));
  }
  const std::uint64_t nt = r.u64();
  CRITTER_CHECK(nt <= kMaxRecords,
                "stat snapshot: implausible tombstone count");
  t.pending_tombstones.reserve(static_cast<std::size_t>(nt));
  for (std::uint64_t i = 0; i < nt; ++i)
    t.pending_tombstones.push_back(r.u64());
  const std::uint64_t nc = r.u64();
  CRITTER_CHECK(nc <= kMaxRecords, "stat snapshot: implausible channel count");
  for (std::uint64_t i = 0; i < nc; ++i) {
    Channel ch;
    ch.offset = r.i64();
    ch.lattice = r.u8() != 0;
    const std::uint64_t nd = r.u64();
    CRITTER_CHECK(nd <= (1u << 20), "stat snapshot: implausible channel");
    ch.dims.resize(nd);
    for (ChannelDim& d : ch.dims) {
      d.stride = r.i64();
      d.size = r.i64();
    }
    t.channels.insert_raw(ch);
  }
  const std::uint64_t nb = r.u64();
  CRITTER_CHECK(nb <= kMaxRecords, "stat snapshot: implausible bucket count");
  for (std::uint64_t i = 0; i < nb; ++i) {
    const std::uint64_t id = r.u64();
    SizeModelBucket b;
    b.n = r.i64();
    b.sx = r.f64();
    b.sy = r.f64();
    b.sxx = r.f64();
    b.sxy = r.f64();
    b.syy = r.f64();
    b.min_x = r.f64();
    b.max_x = r.f64();
    t.size_model.set_bucket(id, b);
  }
}

/// Walk one v2 rank-chunk body's record structure without building any
/// table: every count must fit in the bytes left (fixed-size records are
/// skipped in one step), and the records must consume the chunk exactly.
/// The byte-only consumers of shipped chunks (sparse patches spliced by the
/// tuner daemon, its journal replay, and shard resume) get the structural
/// rejection a full decode would give, at the cost of reading the counts.
/// The record sizes mirror write_key_binary / write_stats_binary /
/// write_rank_binary above.
void check_chunk_structure(std::string_view body) {
  constexpr std::uint64_t kKeyBytes = 1 + 4 * 8 + 8;
  constexpr std::uint64_t kStatsBytes = 7 * 8 + 8 + 1;
  constexpr std::uint64_t kBucketBytes = 8 + 8 + 7 * 8;
  constexpr std::uint64_t kChannelHeadBytes = 8 + 1 + 8;  // + 16 per dim
  WireReader r{body, 0, "stat snapshot"};
  const auto skip = [&r](std::uint64_t count, std::uint64_t record,
                         const char* what) {
    CRITTER_CHECK(count <= r.remaining() / record,
                  std::string("sparse snapshot: rank chunk declares more ") +
                      what + " records than it holds");
    r.bytes(count * record);
  };
  r.i64();  // epoch
  skip(r.u64(), kKeyBytes + kStatsBytes, "kernel");
  skip(r.u64(), 8 + kKeyBytes, "key");
  skip(r.u64(), 8 + kStatsBytes, "pending-eager");
  skip(r.u64(), 8, "tombstone");
  const std::uint64_t nc = r.u64();
  CRITTER_CHECK(nc <= r.remaining() / kChannelHeadBytes,
                "sparse snapshot: rank chunk declares more channel records "
                "than it holds");
  for (std::uint64_t i = 0; i < nc; ++i) {
    r.i64();  // offset
    r.u8();   // lattice flag
    const std::uint64_t nd = r.u64();
    CRITTER_CHECK(nd <= (1u << 20), "stat snapshot: implausible channel");
    skip(nd, 16, "channel-dimension");
  }
  skip(r.u64(), kBucketBytes, "size-model bucket");
  CRITTER_CHECK(r.done(), "sparse snapshot: trailing content in rank chunk");
}

/// The binary payload of `tables` in rank order — shared by
/// StatSnapshot::to_string and the in-place serialization of live stores.
std::string save_binary_string(std::span<const KernelTable* const> tables) {
  WireWriter w;
  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(tables.size()));
  for (const KernelTable* t : tables) {
    // Each rank chunk is framed with its byte length and FNV checksum so a
    // reader rejects truncation and corruption before decoding a single
    // record.  The records are serialized straight into the output buffer;
    // the frame header is backpatched once the chunk's extent is known — no
    // scratch stream, no chunk copy.
    const std::size_t frame = w.out.size();
    w.u64(0);  // length placeholder
    w.u64(0);  // checksum placeholder
    const std::size_t body = w.out.size();
    write_rank_binary(w, *t);
    const std::uint64_t len = w.out.size() - body;
    const std::uint64_t sum = fnv1a(w.out.data() + body, len);
    std::memcpy(w.out.data() + frame, &len, 8);
    std::memcpy(w.out.data() + frame + 8, &sum, 8);
  }
  return std::move(w.out);
}

StatSnapshot load_binary(std::string_view bytes) {
  WireReader r{bytes, 0, "stat snapshot"};
  const std::string_view magic = r.bytes(sizeof kMagic);
  CRITTER_CHECK(std::memcmp(magic.data(), kMagic, sizeof kMagic) == 0,
                "stat snapshot: bad binary magic");
  const std::uint32_t version = r.u32();
  CRITTER_CHECK(version == kVersion,
                "stat snapshot: unsupported version " +
                    std::to_string(version) + " (current " +
                    std::to_string(kVersion) + ")");
  const std::uint32_t nranks = r.u32();
  CRITTER_CHECK(nranks >= 1 && nranks <= kMaxRanks,
                "stat snapshot: implausible rank count");
  StatSnapshot snap;
  snap.ranks.resize(nranks);
  for (KernelTable& t : snap.ranks) {
    const std::uint64_t len = r.u64();
    CRITTER_CHECK(len <= kMaxChunkBytes,
                  "stat snapshot: implausible rank-chunk size");
    const std::uint64_t sum = r.u64();
    // The length field sits outside the checksummed region; bytes() bounds
    // it by the bytes actually present, so a corrupt value hits the
    // truncation error without driving any allocation — the chunk is
    // checksummed and decoded in place, never copied.
    const std::string_view body = r.bytes(len);
    CRITTER_CHECK(fnv1a(body.data(), body.size()) == sum,
                  "stat snapshot: rank-chunk checksum mismatch (corrupt or "
                  "truncated file)");
    WireReader cr{body, 0, "stat snapshot"};
    read_rank_binary(cr, t, nranks);
    CRITTER_CHECK(cr.done(), "stat snapshot: trailing bytes in rank chunk");
  }
  CRITTER_CHECK(r.done(), "stat snapshot: trailing content after final rank");
  return snap;
}

// --- dirty-rank sparse transport (DESIGN.md §13) ---------------------------

constexpr char kSparseMagic[8] = {'C', 'R', 'S', 'P', 'R', 'S', '1', '\n'};

/// One rank chunk of a full v2 binary payload, located in place.
struct ChunkExtent {
  const char* frame;   ///< start of the [len][sum] header
  const char* body;    ///< start of the chunk records (epoch first)
  std::uint64_t len;   ///< body byte count
  std::uint64_t sum;   ///< recorded FNV-1a of the body
};

/// Walk a full v2 payload's frame structure without decoding any record
/// (and without re-checksumming: the caller holds the payload as trusted —
/// it was produced or checksum-verified locally).  Validates everything
/// structural: magic, version (sparse transport requires the chunked v2
/// layout), rank count, chunk lengths against the bytes present, and that
/// no trailing bytes follow the final chunk.
std::vector<ChunkExtent> chunk_extents(std::string_view full,
                                       const char* what) {
  WireReader r{full, 0, what};
  const std::string_view magic = r.bytes(sizeof kMagic);
  CRITTER_CHECK(std::memcmp(magic.data(), kMagic, sizeof kMagic) == 0,
                std::string(what) + ": not a binary stat snapshot");
  const std::uint32_t version = r.u32();
  CRITTER_CHECK(version == kVersion,
                std::string(what) +
                    ": sparse transport requires the chunked version-" +
                    std::to_string(kVersion) + " layout (got version " +
                    std::to_string(version) + ")");
  const std::uint32_t nranks = r.u32();
  CRITTER_CHECK(nranks >= 1 && nranks <= kMaxRanks,
                std::string(what) + ": implausible rank count");
  std::vector<ChunkExtent> out;
  out.reserve(nranks);
  for (std::uint32_t i = 0; i < nranks; ++i) {
    ChunkExtent e{};
    e.frame = full.data() + r.pos;
    e.len = r.u64();
    CRITTER_CHECK(e.len <= kMaxChunkBytes,
                  std::string(what) + ": implausible rank-chunk size");
    e.sum = r.u64();
    e.body = r.bytes(e.len).data();
    // Every chunk body leads with the i64 epoch — the field the sparse
    // codec patches in place.
    CRITTER_CHECK(e.len >= 8,
                  std::string(what) + ": rank chunk shorter than its epoch");
    out.push_back(e);
  }
  CRITTER_CHECK(r.done(),
                std::string(what) + ": trailing content after final rank");
  return out;
}

std::int64_t chunk_epoch(const ChunkExtent& e) {
  std::int64_t epoch;
  std::memcpy(&epoch, e.body, 8);
  return epoch;
}

/// The canonical "clean" delta chunk body: what write_rank_binary emits for
/// a default-constructed table at `epoch` — the epoch followed by six zero
/// record counts (kernels, keys, pending, tombstones, channels, buckets).
constexpr std::size_t kCleanChunkBytes = 8 + 6 * 8;

std::string clean_chunk_body(std::int64_t epoch) {
  std::string out(kCleanChunkBytes, '\0');
  std::memcpy(out.data(), &epoch, 8);
  return out;
}

/// True when the chunk's bytes beyond the epoch are exactly the clean
/// chunk's (six zero counts) — byte comparison, never table semantics.
bool chunk_is_clean(const ChunkExtent& e) {
  static constexpr char kZeros[kCleanChunkBytes - 8] = {};
  return e.len == kCleanChunkBytes &&
         std::memcmp(e.body + 8, kZeros, sizeof kZeros) == 0;
}

/// A sparse payload parsed and fully validated in place: header bounds,
/// strictly ascending rank indices (rejects duplicates and overlaps),
/// per-chunk length and checksum, no trailing bytes.
struct SparseEntry {
  std::uint32_t rank;
  std::uint64_t len;
  std::uint64_t sum;
  const char* body;
};
struct ParsedSparse {
  std::uint32_t nranks = 0;
  std::uint8_t mode = 0;
  std::vector<std::int64_t> epochs;
  std::vector<SparseEntry> entries;
};

ParsedSparse parse_sparse(std::string_view payload) {
  WireReader r{payload, 0, "sparse snapshot"};
  const std::string_view magic = r.bytes(sizeof kSparseMagic);
  CRITTER_CHECK(
      std::memcmp(magic.data(), kSparseMagic, sizeof kSparseMagic) == 0,
      "sparse snapshot: bad magic");
  const std::uint32_t version = r.u32();
  CRITTER_CHECK(version == kVersion,
                "sparse snapshot: unsupported chunk version " +
                    std::to_string(version) + " (current " +
                    std::to_string(kVersion) + ")");
  ParsedSparse out;
  out.nranks = r.u32();
  CRITTER_CHECK(out.nranks >= 1 && out.nranks <= kMaxRanks,
                "sparse snapshot: implausible rank count");
  out.mode = r.u8();
  CRITTER_CHECK(out.mode <= 1, "sparse snapshot: unknown mode " +
                                   std::to_string(out.mode));
  out.epochs.resize(out.nranks);
  for (std::int64_t& e : out.epochs) e = r.i64();
  const std::uint32_t ndirty = r.u32();
  CRITTER_CHECK(ndirty <= out.nranks,
                "sparse snapshot: more dirty ranks than ranks");
  out.entries.reserve(ndirty);
  std::int64_t prev = -1;
  for (std::uint32_t i = 0; i < ndirty; ++i) {
    SparseEntry e{};
    e.rank = r.u32();
    CRITTER_CHECK(e.rank < out.nranks,
                  "sparse snapshot: dirty rank index out of range");
    CRITTER_CHECK(static_cast<std::int64_t>(e.rank) > prev,
                  "sparse snapshot: dirty ranks must be strictly ascending "
                  "(duplicate or overlapping rank)");
    prev = e.rank;
    e.len = r.u64();
    CRITTER_CHECK(e.len <= kMaxChunkBytes,
                  "sparse snapshot: implausible rank-chunk size");
    e.sum = r.u64();
    e.body = r.bytes(e.len).data();
    CRITTER_CHECK(e.len >= 8,
                  "sparse snapshot: rank chunk shorter than its epoch");
    CRITTER_CHECK(fnv1a(e.body, static_cast<std::size_t>(e.len)) == e.sum,
                  "sparse snapshot: rank-chunk checksum mismatch (corrupt "
                  "or truncated payload)");
    out.entries.push_back(e);
  }
  CRITTER_CHECK(r.done(),
                "sparse snapshot: trailing content after final chunk");
  return out;
}

void write_sparse_header(WireWriter& w, std::uint32_t nranks,
                         std::uint8_t mode,
                         const std::vector<std::int64_t>& epochs) {
  w.raw(kSparseMagic, sizeof kSparseMagic);
  w.u32(kVersion);
  w.u32(nranks);
  w.u8(mode);
  for (std::int64_t e : epochs) w.i64(e);
}

void write_sparse_entry(WireWriter& w, std::uint32_t rank,
                        const ChunkExtent& e) {
  w.u32(rank);
  w.u64(e.len);
  w.u64(e.sum);
  w.raw(e.body, static_cast<std::size_t>(e.len));
}

/// Splice a parsed mode-0 patch onto a base payload's extents: dirty ranks
/// substitute their shipped chunk, epoch-only ranks get the 8-byte epoch
/// overwritten in place with the chunk checksum recomputed, clean ranks
/// copy through verbatim.
std::string splice_sparse_patch(std::string_view base_full,
                                const std::vector<ChunkExtent>& base,
                                const ParsedSparse& patch) {
  CRITTER_CHECK(base.size() == patch.nranks,
                "sparse snapshot: patch rank count does not match the base "
                "payload");
  WireWriter w;
  w.out.reserve(base_full.size() + (kCleanChunkBytes + 24) * 4);
  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);
  w.u32(patch.nranks);
  std::size_t next = 0;
  for (std::uint32_t rank = 0; rank < patch.nranks; ++rank) {
    if (next < patch.entries.size() && patch.entries[next].rank == rank) {
      const SparseEntry& e = patch.entries[next++];
      w.u64(e.len);
      w.u64(e.sum);
      w.raw(e.body, static_cast<std::size_t>(e.len));
      continue;
    }
    const ChunkExtent& b = base[rank];
    if (chunk_epoch(b) == patch.epochs[rank]) {
      // Unchanged rank: the base frame (header + body) copies through.
      w.raw(b.frame, static_cast<std::size_t>(16 + b.len));
      continue;
    }
    // Epoch-only change: patch the leading 8 bytes of the body and refresh
    // the chunk checksum — still pure byte surgery.
    w.u64(b.len);
    const std::size_t sum_at = w.out.size();
    w.u64(0);  // checksum backpatched below
    const std::size_t body = w.out.size();
    w.raw(b.body, static_cast<std::size_t>(b.len));
    std::memcpy(w.out.data() + body, &patch.epochs[rank], 8);
    const std::uint64_t sum = fnv1a(w.out.data() + body, b.len);
    std::memcpy(w.out.data() + sum_at, &sum, 8);
  }
  return std::move(w.out);
}

}  // namespace

std::uint32_t StatSnapshot::current_version() { return kVersion; }

void StatSnapshot::save(std::ostream& os) const {
  const std::string bytes = to_string();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CRITTER_CHECK(os.good(), "stat snapshot: write failed");
}

std::string serialize_tables(std::span<const KernelTable* const> tables) {
  return save_binary_string(tables);
}

std::string StatSnapshot::to_string() const {
  std::vector<const KernelTable*> tables;
  tables.reserve(ranks.size());
  for (const KernelTable& t : ranks) tables.push_back(&t);
  return save_binary_string(tables);
}

StatSnapshot StatSnapshot::from_string(std::string_view bytes) {
  // Auto-detect: a mode-1 sparse delta expands to the full payload it
  // encodes; anything else must be the full binary format.
  CRITTER_CHECK(!bytes.empty(), "stat snapshot: empty input");
  if (is_sparse_payload(bytes))
    return from_string(expand_sparse_delta(bytes));
  return load_binary(bytes);
}

// --- dirty-rank sparse transport: public API (DESIGN.md §13) ----------------

bool is_sparse_payload(std::string_view bytes) {
  return bytes.size() >= sizeof kSparseMagic &&
         std::memcmp(bytes.data(), kSparseMagic, sizeof kSparseMagic) == 0;
}

SparsePayloadInfo sparse_payload_info(std::string_view bytes) {
  const ParsedSparse p = parse_sparse(bytes);
  return SparsePayloadInfo{p.mode, p.nranks,
                           static_cast<std::uint32_t>(p.entries.size())};
}

std::string encode_sparse_patch(std::string_view base_full,
                                std::string_view new_full) {
  const std::vector<ChunkExtent> base =
      chunk_extents(base_full, "sparse patch base");
  const std::vector<ChunkExtent> cur =
      chunk_extents(new_full, "sparse patch target");
  CRITTER_CHECK(base.size() == cur.size(),
                "sparse patch: base and target disagree on rank count");
  WireWriter w;
  std::vector<std::int64_t> epochs;
  epochs.reserve(cur.size());
  for (const ChunkExtent& e : cur) epochs.push_back(chunk_epoch(e));
  write_sparse_header(w, static_cast<std::uint32_t>(cur.size()),
                      /*mode=*/0, epochs);
  const std::size_t ndirty_at = w.out.size();
  w.u32(0);  // dirty count backpatched below
  std::uint32_t ndirty = 0;
  for (std::uint32_t rank = 0; rank < cur.size(); ++rank) {
    const ChunkExtent& b = base[rank];
    const ChunkExtent& c = cur[rank];
    // Byte comparison is the sole decider (§13): identical chunks are
    // omitted outright; chunks whose only difference is the leading epoch
    // are covered by the header's epoch array; anything else ships whole.
    if (b.len == c.len) {
      if (std::memcmp(b.body, c.body, static_cast<std::size_t>(c.len)) == 0)
        continue;
      if (std::memcmp(b.body + 8, c.body + 8,
                      static_cast<std::size_t>(c.len) - 8) == 0)
        continue;  // epoch-only change, carried by the epoch array
    }
    write_sparse_entry(w, rank, c);
    ++ndirty;
  }
  std::memcpy(w.out.data() + ndirty_at, &ndirty, 4);
  return std::move(w.out);
}

std::string apply_sparse_patch(std::string_view base_full,
                               std::string_view patch) {
  const ParsedSparse p = parse_sparse(patch);
  CRITTER_CHECK(p.mode == 0,
                "sparse snapshot: expected a patch (mode 0), got a "
                "standalone delta");
  for (const SparseEntry& e : p.entries)
    check_chunk_structure(std::string_view(e.body, e.len));
  const std::vector<ChunkExtent> base =
      chunk_extents(base_full, "sparse patch base");
  return splice_sparse_patch(base_full, base, p);
}

std::string encode_sparse_delta(const StatSnapshot& delta) {
  const std::string full = delta.to_string();
  const std::vector<ChunkExtent> chunks =
      chunk_extents(full, "sparse delta source");
  WireWriter w;
  std::vector<std::int64_t> epochs;
  epochs.reserve(chunks.size());
  for (const ChunkExtent& e : chunks) epochs.push_back(chunk_epoch(e));
  write_sparse_header(w, static_cast<std::uint32_t>(chunks.size()),
                      /*mode=*/1, epochs);
  const std::size_t ndirty_at = w.out.size();
  w.u32(0);
  std::uint32_t ndirty = 0;
  for (std::uint32_t rank = 0; rank < chunks.size(); ++rank) {
    // A rank a diff left untouched serializes as the clean chunk (epoch +
    // six empty sections); everything else ships byte-for-byte.
    if (chunk_is_clean(chunks[rank])) continue;
    write_sparse_entry(w, rank, chunks[rank]);
    ++ndirty;
  }
  std::memcpy(w.out.data() + ndirty_at, &ndirty, 4);
  return std::move(w.out);
}

std::string expand_sparse_delta(std::string_view sparse) {
  const ParsedSparse p = parse_sparse(sparse);
  CRITTER_CHECK(p.mode == 1,
                "sparse snapshot: expected a standalone delta (mode 1), got "
                "a patch that needs its base");
  WireWriter w;
  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);
  w.u32(p.nranks);
  std::size_t next = 0;
  for (std::uint32_t rank = 0; rank < p.nranks; ++rank) {
    if (next < p.entries.size() && p.entries[next].rank == rank) {
      const SparseEntry& e = p.entries[next++];
      w.u64(e.len);
      w.u64(e.sum);
      w.raw(e.body, static_cast<std::size_t>(e.len));
      continue;
    }
    const std::string body = clean_chunk_body(p.epochs[rank]);
    w.u64(body.size());
    w.u64(fnv1a(body.data(), body.size()));
    w.raw(body.data(), body.size());
  }
  return std::move(w.out);
}

void StatSnapshot::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  CRITTER_CHECK(os.is_open(), "stat snapshot: cannot open " + path);
  save(os);
}

StatSnapshot StatSnapshot::load(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return from_string(buf.view());
}

KernelStats moments_to_stats(const KernelMoments& m) {
  KernelStats ks;
  ks.n = m.n;
  ks.mean = m.mean;
  ks.m2 = m.n > 1 ? m.variance * static_cast<double>(m.n - 1) : 0.0;
  return ks;
}

KernelMoments stats_to_moments(const KernelKey& key, const KernelStats& ks) {
  KernelMoments m;
  m.key = key;
  m.n = ks.n;
  m.mean = ks.mean;
  m.variance = ks.n > 1 ? ks.m2 / static_cast<double>(ks.n - 1) : 0.0;
  return m;
}

std::vector<KernelMoments> extract_moments(const StatSnapshot& snap) {
  // Fold rank tables in rank order; per-key the fold is a Chan moment
  // merge, so the pooled moments are a pure function of the snapshot.
  std::unordered_map<std::uint64_t, std::pair<KernelKey, KernelStats>> pooled;
  for (const KernelTable& t : snap.ranks) {
    for (const auto* kv : sorted_kernels(t)) {
      if (kv->second.n == 0) continue;
      auto [it, inserted] =
          pooled.try_emplace(kv->first.hash(), kv->first, KernelStats{});
      it->second.second.merge(kv->second);
    }
  }
  std::vector<KernelMoments> out;
  out.reserve(pooled.size());
  for (const auto& [hash, entry] : pooled)
    out.push_back(stats_to_moments(entry.first, entry.second));
  std::sort(out.begin(), out.end(),
            [](const KernelMoments& a, const KernelMoments& b) {
              return a.key.hash() < b.key.hash();
            });
  return out;
}

StatSnapshot StatSnapshot::load_file(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  // Map the file and decode in place: the span-based reader never copies a
  // rank chunk, so an mmap'ed load touches each byte exactly twice (checksum,
  // decode) with zero intermediate buffers.  Irregular or empty files — and
  // any mmap failure — fall back to the stream path below.
  struct FdGuard {
    int fd;
    ~FdGuard() { if (fd >= 0) ::close(fd); }
  } fg{::open(path.c_str(), O_RDONLY)};
  CRITTER_CHECK(fg.fd >= 0, "stat snapshot: cannot open " + path);
  struct stat st{};
  if (::fstat(fg.fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fg.fd, 0);
    if (map != MAP_FAILED) {
      struct MapGuard {
        void* p;
        std::size_t n;
        ~MapGuard() { ::munmap(p, n); }
      } mg{map, size};
      try {
        return from_string(
            std::string_view(static_cast<const char*>(map), size));
      } catch (const std::exception& e) {
        // Re-anchor deep parse failures to the file: "which snapshot file
        // was bad" is the actionable part when a sweep folds many of them.
        throw std::runtime_error("stat snapshot: failed to load '" + path +
                                 "': " + e.what());
      }
    }
  }
#endif
  std::ifstream is(path, std::ios::binary);
  CRITTER_CHECK(is.is_open(), "stat snapshot: cannot open " + path);
  try {
    return load(is);
  } catch (const std::exception& e) {
    throw std::runtime_error("stat snapshot: failed to load '" + path +
                             "': " + e.what());
  }
}

}  // namespace critter::core
