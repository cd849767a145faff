// Statistics-lifecycle subsystem (core/stat_store): deterministic merge,
// exact merge inverse (diff), snapshot/restore round-trips on a profiler
// Store, binary serialization round-trips including SizeModel state, and
// the serialized bytes pinned across codec changes.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/stat_store.hpp"
#include "tune/tuner.hpp"

namespace core = critter::core;
namespace tune = critter::tune;
using critter::Policy;

namespace {

core::KernelKey key_of(int cls, std::int64_t m, std::int64_t n) {
  return core::KernelKey{static_cast<core::KernelClass>(cls), {m, n, 0, 0}, 0};
}

core::KernelStats samples(std::initializer_list<double> xs) {
  core::KernelStats ks;
  for (double x : xs) {
    ks.add_sample(x);
    ++ks.total_invocations;
    ++ks.total_executions;
  }
  ks.registered = true;
  return ks;
}

/// A populated table: a few kernels, a sub-channel, a size-model bucket.
core::KernelTable make_table(int nranks, int salt) {
  core::KernelTable t;
  t.init_world(nranks);
  for (int k = 0; k < 3; ++k) {
    const core::KernelKey key = key_of(k, 64 + salt, 32);
    t.K.emplace(key, samples({1.0 + salt, 2.0 + salt, 3.0 + k}));
    t.key_of_hash.emplace(key.hash(), key);
  }
  std::vector<int> row;
  for (int r = 0; r < nranks / 2; ++r) row.push_back(r);
  t.channels.add_channel(row);
  t.size_model.observe(key_of(0, 64, 32), 1e6 * (1 + salt), 1e-3);
  t.size_model.observe(key_of(0, 128, 64), 2e6 * (1 + salt), 2e-3);
  t.epoch = salt;
  return t;
}

/// A real statistics snapshot grown by an actual sweep (exercises every
/// field the serializer must carry, including eager/extrapolate state).
core::StatSnapshot sweep_snapshot(Policy policy, bool extrapolate) {
  auto study = tune::slate_cholesky_study(false);
  study.configs.resize(4);
  tune::TuneOptions opt;
  opt.policy = policy;
  opt.samples = 2;
  opt.tolerance = 0.5;
  opt.extrapolate = extrapolate;
  const tune::TuneResult r = tune::run_study(study, opt);
  EXPECT_FALSE(r.stats.empty());
  return r.stats;
}

}  // namespace

TEST(KernelStats, UnmergeIsExactInverseOfMerge) {
  const core::KernelStats a = samples({1.0, 2.0, 3.5, 0.25});
  const core::KernelStats b = samples({4.0, 5.5});
  core::KernelStats c = a;
  c.merge(b);
  c.unmerge(a);
  ASSERT_EQ(c.n, b.n);
  EXPECT_NEAR(c.mean, b.mean, 1e-12);
  EXPECT_NEAR(c.m2, b.m2, 1e-12);
  // unmerging everything leaves an empty estimator
  core::KernelStats d = a;
  d.unmerge(a);
  EXPECT_EQ(d.n, 0);
  EXPECT_EQ(d.mean, 0.0);
  EXPECT_EQ(d.m2, 0.0);
}

TEST(KernelTable, MergeIsDeterministic) {
  const core::KernelTable a = make_table(8, 1);
  const core::KernelTable b = make_table(8, 2);
  core::KernelTable m1 = a;
  m1.merge(b);
  core::KernelTable m2 = a;
  m2.merge(b);
  EXPECT_TRUE(m1.same_statistics(m2));
  EXPECT_FALSE(m1.same_statistics(a));
}

TEST(KernelTable, MergeOrderPermutationsAgree) {
  // Integer state (counts, registries, channels) must agree exactly across
  // merge orders; floating moments to tight tolerance (Chan's merge is
  // order-insensitive only in exact arithmetic).
  const core::KernelTable a = make_table(8, 1);
  const core::KernelTable b = make_table(8, 2);
  const core::KernelTable c = make_table(8, 5);

  core::KernelTable ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  core::KernelTable ac_b = a;
  ac_b.merge(c);
  ac_b.merge(b);

  ASSERT_EQ(ab_c.K.size(), ac_b.K.size());
  for (const auto& [key, ks] : ab_c.K) {
    const auto it = ac_b.K.find(key);
    ASSERT_NE(it, ac_b.K.end());
    EXPECT_EQ(ks.n, it->second.n);
    EXPECT_EQ(ks.total_invocations, it->second.total_invocations);
    EXPECT_EQ(ks.total_executions, it->second.total_executions);
    EXPECT_NEAR(ks.mean, it->second.mean, 1e-12);
    EXPECT_NEAR(ks.m2, it->second.m2, 1e-12);
  }
  EXPECT_TRUE(ab_c.channels.same_channels(ac_b.channels));
  EXPECT_EQ(ab_c.epoch, ac_b.epoch);
}

TEST(KernelTable, DiffIsMergeInverse) {
  const core::KernelTable base = make_table(8, 1);
  core::KernelTable after = base;
  after.merge(make_table(8, 3));  // evolve on top of base
  after.new_epoch();

  const core::KernelTable delta = after.diff(base);
  core::KernelTable rebuilt = base;
  rebuilt.merge(delta);

  ASSERT_EQ(rebuilt.K.size(), after.K.size());
  for (const auto& [key, ks] : after.K) {
    const auto it = rebuilt.K.find(key);
    ASSERT_NE(it, rebuilt.K.end());
    EXPECT_EQ(ks.n, it->second.n);
    EXPECT_NEAR(ks.mean, it->second.mean, 1e-12);
    EXPECT_NEAR(ks.m2, it->second.m2, 1e-12);
  }
  EXPECT_TRUE(rebuilt.channels.same_channels(after.channels));
  EXPECT_EQ(rebuilt.epoch, after.epoch);

  // An untouched table diffs to an empty delta.
  const core::KernelTable none = base.diff(base);
  EXPECT_TRUE(none.K.empty());
  EXPECT_TRUE(none.key_of_hash.empty());
  EXPECT_TRUE(none.pending_eager.empty());
}

namespace {

core::KernelStats moments(std::initializer_list<double> xs) {
  core::KernelStats ks;
  for (double x : xs) ks.add_sample(x);
  return ks;
}

/// A worker table that absorbed `base`'s pending-eager entry for `key` at
/// first sighting (mirroring detail::note_invocation: moments merged, hash
/// registered, pending erased) and then collected `own` local samples.
core::KernelTable absorb_and_sample(const core::KernelTable& base,
                                    const core::KernelKey& key,
                                    std::initializer_list<double> own) {
  core::KernelTable w = base;
  core::KernelStats ks;
  ks.registered = true;
  const auto pend = w.pending_eager.find(key.hash());
  EXPECT_NE(pend, w.pending_eager.end());
  ks.merge(pend->second);
  ks.agg_hash = pend->second.agg_hash;
  w.pending_eager.erase(pend);
  w.key_of_hash.emplace(key.hash(), key);
  for (double x : own) {
    ks.add_sample(x);
    ++ks.total_invocations;
    ++ks.total_executions;
  }
  w.K.emplace(key, ks);
  return w;
}

}  // namespace

TEST(KernelTable, PendingAbsorbedByTwoSiblingsCountsOnce) {
  // Regression: two same-batch configurations each absorb the shared
  // snapshot's pending-eager entry at first sighting.  Without tombstones
  // the entry's samples arrived once per absorbing delta.
  core::KernelTable base = make_table(8, 1);
  const core::KernelKey key = key_of(3, 256, 128);
  base.pending_eager.emplace(key.hash(), moments({1.0, 2.0, 3.0}));

  const core::KernelTable w1 = absorb_and_sample(base, key, {4.0});
  const core::KernelTable w2 = absorb_and_sample(base, key, {5.0, 6.0});
  const core::KernelTable d1 = w1.diff(base);
  const core::KernelTable d2 = w2.diff(base);
  EXPECT_EQ(d1.pending_tombstones.size(), 1u);
  EXPECT_EQ(d2.pending_tombstones.size(), 1u);
  ASSERT_EQ(d1.K.count(key), 1u);
  EXPECT_EQ(d1.K.at(key).n, 1);  // absorbed moments shed from the delta

  core::KernelTable merged = base;
  merged.merge(d1);
  merged.merge(d2);
  ASSERT_EQ(merged.K.count(key), 1u);
  // 3 pending samples counted once, plus 1 + 2 own samples.
  EXPECT_EQ(merged.K.at(key).n, 6);
  EXPECT_EQ(merged.pending_eager.count(key.hash()), 0u);
}

TEST(KernelTable, SiblingRegisteredPendingGrowthIsNotDropped) {
  // Regression: one sibling registers the kernel (absorbing the base
  // entry) while another only grows the pending entry with more eager
  // statistics.  The growth used to be erased by the registered-kernel
  // purge; now it feeds the K entry, in either merge order.
  core::KernelTable base = make_table(8, 1);
  const core::KernelKey key = key_of(3, 256, 128);
  base.pending_eager.emplace(key.hash(), moments({1.0, 2.0}));

  const core::KernelTable w1 = absorb_and_sample(base, key, {3.0});
  core::KernelTable w2 = base;
  w2.pending_eager.at(key.hash()).merge(moments({7.0, 8.0, 9.0}));
  const core::KernelTable d1 = w1.diff(base);
  const core::KernelTable d2 = w2.diff(base);
  EXPECT_TRUE(d1.pending_tombstones.size() == 1 && d2.pending_tombstones.empty());
  ASSERT_EQ(d2.pending_eager.count(key.hash()), 1u);
  EXPECT_EQ(d2.pending_eager.at(key.hash()).n, 3);

  for (int order = 0; order < 2; ++order) {
    core::KernelTable merged = base;
    merged.merge(order == 0 ? d1 : d2);
    merged.merge(order == 0 ? d2 : d1);
    ASSERT_EQ(merged.K.count(key), 1u) << "order " << order;
    // 2 base pending + 1 own + 3 grown = 6 samples either way.
    EXPECT_EQ(merged.K.at(key).n, 6) << "order " << order;
    EXPECT_EQ(merged.pending_eager.count(key.hash()), 0u) << "order " << order;
  }
}

TEST(StatSnapshot, StoreSnapshotRestoreRoundTrips) {
  const core::StatSnapshot snap = sweep_snapshot(Policy::OnlinePropagation, false);
  critter::Config pc;
  pc.mode = critter::ExecMode::Model;
  critter::Store store(snap.nranks(), pc);
  EXPECT_FALSE(store.snapshot().same_statistics(snap));
  store.restore(snap);
  EXPECT_TRUE(store.snapshot().same_statistics(snap));
  // diff against the restored base is empty until the store evolves
  const core::StatSnapshot delta = store.diff(snap);
  for (const core::KernelTable& t : delta.ranks) EXPECT_TRUE(t.K.empty());
}

TEST(StatSnapshot, InPlaceSerializationMatchesTheSnapshotBytes) {
  // Store::snapshot_bytes / serialize_tables write the live tables where
  // they are; the bytes must be exactly snapshot().to_string()'s.
  for (bool extrapolate : {false, true}) {
    const core::StatSnapshot snap =
        sweep_snapshot(Policy::EagerPropagation, extrapolate);
    critter::Config pc;
    pc.mode = critter::ExecMode::Model;
    critter::Store store(snap.nranks(), pc);
    EXPECT_EQ(store.snapshot_bytes(), store.snapshot().to_string());
    store.restore(snap);
    EXPECT_EQ(store.snapshot_bytes(), snap.to_string());
    std::vector<const core::KernelTable*> tables;
    for (const core::KernelTable& t : snap.ranks) tables.push_back(&t);
    EXPECT_EQ(core::serialize_tables(tables), snap.to_string());
  }
}

TEST(StatSnapshot, BinarySerializationRoundTrips) {
  for (bool extrapolate : {false, true}) {
    const core::StatSnapshot snap =
        sweep_snapshot(Policy::ConditionalExecution, extrapolate);
    std::stringstream buf;
    snap.save(buf);
    const core::StatSnapshot loaded = core::StatSnapshot::load(buf);
    EXPECT_TRUE(loaded.same_statistics(snap)) << "extrapolate=" << extrapolate;
  }
}

TEST(StatSnapshot, FileRoundTripAutoDetectsFormat) {
  const core::StatSnapshot snap = sweep_snapshot(Policy::OnlinePropagation, true);
  const char* bin_path = "test_stat_store_snapshot.bin";
  snap.save_file(bin_path);
  EXPECT_TRUE(core::StatSnapshot::load_file(bin_path).same_statistics(snap));
  std::remove(bin_path);
}

TEST(StatSnapshot, LoadRejectsGarbage) {
  std::stringstream bad("this is not a snapshot");
  EXPECT_THROW(core::StatSnapshot::load(bad), std::runtime_error);
  std::stringstream empty("");
  EXPECT_THROW(core::StatSnapshot::load(empty), std::runtime_error);
  std::stringstream wrong_json("{\"format\":\"something-else\",\"version\":1}");
  EXPECT_THROW(core::StatSnapshot::load(wrong_json), std::runtime_error);
}

namespace {

/// A compact two-rank snapshot for the byte-level fuzz sweeps (every
/// truncation point / every flipped byte), where a full sweep snapshot
/// would make the quadratic sweep take minutes.
core::StatSnapshot small_snapshot() {
  core::StatSnapshot s;
  s.ranks.push_back(make_table(2, 1));
  s.ranks.push_back(make_table(2, 2));
  s.ranks[1].pending_eager.emplace(key_of(5, 16, 16).hash(),
                                   samples({0.25, 0.5}));
  return s;
}

}  // namespace

TEST(StatSnapshot, EveryBinaryTruncationIsRejected) {
  // Fuzz-ish truncation sweep: a short read anywhere in the file must
  // surface as a clear snapshot error (never a deep CHECK on garbage
  // records, an allocation blow-up, or silently partial state).
  const core::StatSnapshot snap = small_snapshot();
  std::ostringstream buf;
  snap.save(buf);
  const std::string bytes = buf.str();
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream is(bytes.substr(0, len));
    try {
      core::StatSnapshot::load(is);
      FAIL() << "truncation at byte " << len << " loaded successfully";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("stat snapshot"),
                std::string::npos)
          << "at byte " << len << ": " << e.what();
    }
  }
}

TEST(StatSnapshot, EveryBinaryByteCorruptionIsRejected) {
  // Flip every byte in turn (XOR 0xFF).  Header corruption trips the
  // magic/version/rank-count checks; anything inside a rank chunk trips
  // its FNV checksum before a single record is decoded.
  const core::StatSnapshot snap = small_snapshot();
  std::ostringstream buf;
  snap.save(buf);
  const std::string bytes = buf.str();
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
    std::istringstream is(corrupt);
    EXPECT_THROW(core::StatSnapshot::load(is), std::runtime_error)
        << "at byte " << at;
  }
}

TEST(StatSnapshot, UnknownVersionsAreRejected) {
  const core::StatSnapshot snap = sweep_snapshot(Policy::OnlinePropagation, false);
  // Reading any version but the current one fails with the version named —
  // including version 1, the unchunked layout of earlier releases.
  std::ostringstream buf;
  snap.save(buf);
  for (const char version : {99, 1}) {
    std::string bytes = buf.str();
    bytes[8] = version;  // bytes [8,12) hold the little-endian version u32
    std::istringstream is(bytes);
    try {
      core::StatSnapshot::load(is);
      FAIL() << "binary version " << int{version} << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

namespace {

/// The kernel whose pending-eager entry tombstone_pair() absorbs.
core::KernelKey tombstone_key() { return key_of(7, 256, 128); }

/// base -> evolved pair where rank 0 absorbed a pending-eager entry at the
/// kernel's first local sighting, so evolved.diff(base) tombstones it.
std::pair<core::StatSnapshot, core::StatSnapshot> tombstone_pair() {
  core::StatSnapshot base;
  base.ranks.push_back(make_table(2, 1));
  base.ranks.push_back(make_table(2, 2));
  const core::KernelKey pending_key = tombstone_key();
  base.ranks[0].pending_eager.emplace(pending_key.hash(),
                                      samples({0.5, 0.75}));

  core::StatSnapshot evolved = base;
  // First local sighting: the profiler registers the kernel and absorbs
  // the pending moments into K.
  core::KernelStats grown = samples({2.0});
  grown.merge(base.ranks[0].pending_eager.at(pending_key.hash()));
  evolved.ranks[0].K.emplace(pending_key, grown);
  evolved.ranks[0].key_of_hash.emplace(pending_key.hash(), pending_key);
  evolved.ranks[0].pending_eager.erase(pending_key.hash());
  return {base, evolved};
}

}  // namespace

TEST(StatSnapshot, DeltaTombstonesSurviveSerialization) {
  // A diff()-produced delta that tombstoned a pending entry must carry the
  // tombstone through save/load — the file-borne exchange path depends on
  // merge() seeing it on the far side.
  const auto [base, evolved] = tombstone_pair();
  const core::StatSnapshot delta = evolved.diff(base);
  ASSERT_EQ(delta.ranks[0].pending_tombstones.size(), 1u);

  // The fold a peer performs on the in-memory delta — the reference the
  // file transport must add nothing to.
  core::StatSnapshot replay_mem = base;
  replay_mem.merge(delta);
  EXPECT_TRUE(replay_mem.ranks[0].pending_eager.empty());
  EXPECT_EQ(replay_mem.ranks[0].K.at(tombstone_key()).n, 3);

  std::stringstream buf;
  delta.save(buf);
  const core::StatSnapshot loaded = core::StatSnapshot::load(buf);
  EXPECT_EQ(loaded.ranks[0].pending_tombstones,
            delta.ranks[0].pending_tombstones);
  // load() (re-)registers the world channel in every table; a delta
  // carries only new channels, so compare against that normal form.
  core::StatSnapshot expect = delta;
  for (core::KernelTable& t : expect.ranks) t.init_world(expect.nranks());
  EXPECT_TRUE(loaded.same_statistics(expect));
  // Folding the round-tripped delta is bit-identical to folding the
  // in-memory one — including the absorb-once pending accounting, which
  // only works if the tombstone survived the file.
  core::StatSnapshot replay = base;
  replay.merge(loaded);
  EXPECT_TRUE(replay.same_statistics(replay_mem));
}

TEST(StatSnapshot, SnapshotDiffIsMergeInverse) {
  core::StatSnapshot base;
  base.ranks.push_back(make_table(4, 1));
  base.ranks.push_back(make_table(4, 2));
  core::StatSnapshot delta_in;
  delta_in.ranks.push_back(make_table(4, 3));
  delta_in.ranks.push_back(make_table(4, 5));
  core::StatSnapshot evolved = base;
  evolved.merge(delta_in);
  const core::StatSnapshot delta = evolved.diff(base);
  core::StatSnapshot replay = base;
  replay.merge(delta);
  EXPECT_TRUE(replay.same_statistics(evolved));
  core::StatSnapshot mismatched;
  mismatched.ranks.push_back(make_table(4, 1));
  EXPECT_THROW(evolved.diff(mismatched), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Golden bit-identity: serialization must preserve the fixture statistics
// ---------------------------------------------------------------------------

#include <fstream>

#include "golden_digest.hpp"

TEST(StatSnapshot, GoldenSweepStatisticsSurviveSerializationBitIdentical) {
  // The fixture is digest_result + digest_snapshot of the online golden
  // sweep; the snapshot section pins every statistic's exact bits.
  const std::string path =
      std::string(CRITTER_GOLDEN_DIR) + "/sweep_online.digest";
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open()) << "missing golden fixture " << path
                            << " (regenerate with tools/gen_golden)";
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string fixture = buf.str();
  const std::size_t at = fixture.find("snapshot nranks=");
  ASSERT_NE(at, std::string::npos) << "fixture has no snapshot section";
  const std::string expected = fixture.substr(at);

  const tune::TuneResult r = critter::testing::golden_sweep("online");
  EXPECT_EQ(critter::testing::digest_snapshot(r.stats), expected)
      << "live sweep statistics diverge from the fixture";

  // In-memory binary round-trip: string-backed serialize, span-based parse.
  const core::StatSnapshot parsed =
      core::StatSnapshot::from_string(r.stats.to_string());
  EXPECT_EQ(critter::testing::digest_snapshot(parsed), expected)
      << "to_string/from_string round-trip bent a statistic";

  // File round-trip through the mmap-backed loader.
  const std::string tmp = "golden_roundtrip.snap";
  r.stats.save_file(tmp);
  const core::StatSnapshot loaded = core::StatSnapshot::load_file(tmp);
  std::remove(tmp.c_str());
  EXPECT_EQ(critter::testing::digest_snapshot(loaded), expected)
      << "save_file/load_file round-trip bent a statistic";
}

// ---------------------------------------------------------------------------
// Dirty-rank sparse transport (DESIGN.md §13)
// ---------------------------------------------------------------------------

#include <cstring>

#include "util/hash.hpp"

namespace {

/// base -> evolved pair where only rank 1's chunk bytes change: the shape
/// every sparse-transport test pivots on (rank 0 must be omitted).
std::pair<core::StatSnapshot, core::StatSnapshot> patch_pair() {
  const core::StatSnapshot base = small_snapshot();
  core::StatSnapshot evolved = base;
  evolved.ranks[1].merge(make_table(2, 7));
  return {base, evolved};
}

void put_u32(std::string& s, std::uint32_t v) {
  s.append(reinterpret_cast<const char*>(&v), 4);
}
void put_u64(std::string& s, std::uint64_t v) {
  s.append(reinterpret_cast<const char*>(&v), 8);
}
void put_i64(std::string& s, std::int64_t v) {
  s.append(reinterpret_cast<const char*>(&v), 8);
}

/// The canonical clean chunk body: epoch 5 + six zero record counts.
std::string clean_chunk_body() {
  std::string body(8 + 6 * 8, '\0');
  const std::int64_t epoch = 5;
  std::memcpy(body.data(), &epoch, 8);
  return body;
}

/// Hand-craft a sparse payload with attacker-chosen rank indices; every
/// chunk is `body` (by default the clean body) under a *correct* checksum,
/// so only the index structure — or the body's record structure — is
/// under test.
std::string craft_sparse(std::uint32_t nranks, std::uint8_t mode,
                         const std::vector<std::uint32_t>& dirty_ranks,
                         const std::string& body = clean_chunk_body()) {
  std::string s;
  s.append("CRSPRS1\n");
  put_u32(s, core::StatSnapshot::current_version());
  put_u32(s, nranks);
  s.push_back(static_cast<char>(mode));
  for (std::uint32_t r = 0; r < nranks; ++r) put_i64(s, 5);
  put_u32(s, static_cast<std::uint32_t>(dirty_ranks.size()));
  for (std::uint32_t rank : dirty_ranks) {
    put_u32(s, rank);
    put_u64(s, body.size());
    put_u64(s, critter::util::fnv1a(body.data(), body.size()));
    s += body;
  }
  return s;
}

}  // namespace

TEST(SparseTransport, PatchRoundTripIsByteIdentical) {
  const auto [base, evolved] = patch_pair();
  const std::string base_full = base.to_string();
  const std::string new_full = evolved.to_string();
  const std::string patch = core::encode_sparse_patch(base_full, new_full);

  EXPECT_TRUE(core::is_sparse_payload(patch));
  EXPECT_FALSE(core::is_sparse_payload(new_full));
  const core::SparsePayloadInfo info = core::sparse_payload_info(patch);
  EXPECT_EQ(info.mode, 0);
  EXPECT_EQ(info.nranks, 2u);
  EXPECT_EQ(info.ndirty, 1u);  // rank 0 untouched, omitted outright
  EXPECT_LT(patch.size(), new_full.size());

  // The transport contract: splicing reproduces the target bytes exactly.
  EXPECT_EQ(core::apply_sparse_patch(base_full, patch), new_full);

  // Identical payloads collapse to a header-only patch that round-trips.
  const std::string none = core::encode_sparse_patch(base_full, base_full);
  EXPECT_EQ(core::sparse_payload_info(none).ndirty, 0u);
  EXPECT_EQ(core::apply_sparse_patch(base_full, none), base_full);
}

TEST(SparseTransport, EpochOnlyChangeShipsNoChunk) {
  const core::StatSnapshot base = small_snapshot();
  core::StatSnapshot evolved = base;
  evolved.ranks[0].epoch += 7;  // only the leading 8 bytes of the chunk move
  const std::string base_full = base.to_string();
  const std::string new_full = evolved.to_string();
  const std::string patch = core::encode_sparse_patch(base_full, new_full);
  EXPECT_EQ(core::sparse_payload_info(patch).ndirty, 0u);
  // Header + 2 epochs + dirty count: nowhere near a table chunk.
  EXPECT_LE(patch.size(), 64u);
  EXPECT_EQ(core::apply_sparse_patch(base_full, patch), new_full);
}

TEST(SparseTransport, ChainedPatchesTrackBytesAndSnapshotTogether) {
  // A holder of serialized state (the tuner daemon) splices patch after
  // patch and never decodes; the bytes it ends up with must decode to the
  // producer's statistics at every step.
  const auto [base, evolved] = patch_pair();
  std::string bytes = base.to_string();

  const std::string new_full = evolved.to_string();
  bytes = core::apply_sparse_patch(bytes,
                                   core::encode_sparse_patch(bytes, new_full));
  EXPECT_EQ(bytes, new_full);
  EXPECT_TRUE(core::StatSnapshot::from_string(bytes).same_statistics(
      core::StatSnapshot::from_string(new_full)));

  // Chain a second patch (epoch-only this time) onto the spliced bytes.
  core::StatSnapshot further = evolved;
  further.ranks[0].epoch += 3;
  const std::string next_full = further.to_string();
  bytes = core::apply_sparse_patch(bytes,
                                   core::encode_sparse_patch(bytes, next_full));
  EXPECT_EQ(bytes, next_full);
  const core::StatSnapshot decoded = core::StatSnapshot::from_string(bytes);
  EXPECT_EQ(decoded.ranks[0].epoch, further.ranks[0].epoch);
  EXPECT_TRUE(decoded.same_statistics(
      core::StatSnapshot::from_string(next_full)));
}

TEST(SparseTransport, StandaloneDeltaExpandsBitIdentical) {
  const auto [base, evolved] = patch_pair();
  const core::StatSnapshot delta = evolved.diff(base);
  const std::string full = delta.to_string();
  const std::string sparse = core::encode_sparse_delta(delta);

  const core::SparsePayloadInfo info = core::sparse_payload_info(sparse);
  EXPECT_EQ(info.mode, 1);
  EXPECT_EQ(info.ndirty, 1u);  // rank 0's clean chunk folds into the epochs
  EXPECT_LT(sparse.size(), full.size());
  EXPECT_EQ(core::expand_sparse_delta(sparse), full);

  // Every snapshot reader accepts mode-1 payloads via auto-expansion.
  EXPECT_TRUE(core::StatSnapshot::from_string(sparse).same_statistics(
      core::StatSnapshot::from_string(full)));

  // The modes do not cross: a delta is not a patch and vice versa.
  const std::string patch =
      core::encode_sparse_patch(base.to_string(), evolved.to_string());
  EXPECT_THROW(core::expand_sparse_delta(patch), std::runtime_error);
  EXPECT_THROW(core::apply_sparse_patch(base.to_string(), sparse),
               std::runtime_error);
}

TEST(SparseTransport, EveryPatchTruncationIsRejected) {
  const auto [base, evolved] = patch_pair();
  const std::string base_full = base.to_string();
  const std::string patch =
      core::encode_sparse_patch(base_full, evolved.to_string());
  for (std::size_t len = 0; len < patch.size(); ++len) {
    EXPECT_THROW(core::apply_sparse_patch(
                     base_full, std::string_view(patch).substr(0, len)),
                 std::runtime_error)
        << "truncation at byte " << len << " applied successfully";
  }
  const std::string sparse =
      core::encode_sparse_delta(evolved.diff(base));
  for (std::size_t len = 0; len < sparse.size(); ++len) {
    EXPECT_THROW(core::expand_sparse_delta(
                     std::string_view(sparse).substr(0, len)),
                 std::runtime_error)
        << "truncation at byte " << len << " expanded successfully";
  }
}

TEST(SparseTransport, EveryPatchByteFlipIsRejectedOrStructurallySound) {
  // Flip every byte in turn.  Flips in the magic, version, mode, counts,
  // lengths, checksums, or chunk bodies must be rejected outright.  Flips
  // inside the epoch array are data, not structure — they cannot be told
  // from a legitimate epoch, so the *soundness* contract is that the splice
  // still yields a payload the full decoder accepts (never an out-of-bounds
  // splice, a torn chunk, or partial state).
  const auto [base, evolved] = patch_pair();
  const std::string base_full = base.to_string();
  const std::string patch =
      core::encode_sparse_patch(base_full, evolved.to_string());
  int accepted = 0;
  for (std::size_t at = 0; at < patch.size(); ++at) {
    std::string corrupt = patch;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
    try {
      const std::string spliced = core::apply_sparse_patch(base_full, corrupt);
      ++accepted;
      EXPECT_NO_THROW(core::StatSnapshot::from_string(spliced))
          << "flip at byte " << at << " produced a torn full payload";
    } catch (const std::runtime_error&) {
      // rejected — the common case
    }
  }
  // Only epoch-array flips (2 ranks x 8 bytes) can possibly be accepted.
  EXPECT_LE(accepted, 16);
}

TEST(SparseTransport, ForgedRankIndicesAreRejected) {
  // Duplicate, descending, and out-of-range dirty indices — each with a
  // perfectly valid chunk behind it, so only the index check can object.
  EXPECT_THROW(core::expand_sparse_delta(craft_sparse(2, 1, {1, 1})),
               std::runtime_error);
  EXPECT_THROW(core::expand_sparse_delta(craft_sparse(2, 1, {1, 0})),
               std::runtime_error);
  EXPECT_THROW(core::expand_sparse_delta(craft_sparse(2, 1, {2})),
               std::runtime_error);
  // An unknown mode byte is refused before any chunk is looked at.
  EXPECT_THROW(core::sparse_payload_info(craft_sparse(2, 2, {0})),
               std::runtime_error);
  // Trailing bytes after the final chunk are refused.
  std::string trailing = craft_sparse(2, 1, {0});
  trailing.push_back('\0');
  EXPECT_THROW(core::expand_sparse_delta(trailing), std::runtime_error);
  // The well-formed craft itself expands (the forgeries above failed for
  // their indices, not for the scaffolding).
  EXPECT_NO_THROW(core::expand_sparse_delta(craft_sparse(2, 1, {0, 1})));
  // A patch against a base with a different rank count is refused.
  const std::string base_full = small_snapshot().to_string();
  EXPECT_THROW(core::apply_sparse_patch(base_full, craft_sparse(3, 0, {})),
               std::runtime_error);
}

TEST(SparseTransport, StructurallyMalformedChunksAreRejected) {
  // Chunks with a *correct* checksum but a body whose record structure does
  // not add up: apply_sparse_patch walks the counts (without decoding) and
  // must refuse every one of them, as a full decode would.
  const std::string base_full = small_snapshot().to_string();
  const std::string clean = clean_chunk_body();
  EXPECT_NO_THROW(core::apply_sparse_patch(base_full,
                                           craft_sparse(2, 0, {1}, clean)));
  const auto with_count = [&](std::size_t section, std::uint64_t count) {
    std::string body = clean;
    std::memcpy(body.data() + 8 + 8 * section, &count, 8);
    return body;
  };
  std::vector<std::pair<std::string, std::string>> bad = {
      {"kernel count larger than the chunk", with_count(0, 1)},
      {"key count larger than the chunk", with_count(1, 1)},
      {"pending count larger than the chunk", with_count(2, 1)},
      {"tombstone count larger than the chunk", with_count(3, 1)},
      {"channel count larger than the chunk", with_count(4, 1)},
      {"bucket count larger than the chunk", with_count(5, 1)},
      {"count overflowing the byte bound", with_count(0, ~0ull / 2)},
      {"trailing bytes", clean + std::string(8, '\0')},
      {"chunk shorter than its counts", clean.substr(0, clean.size() - 8)},
  };
  for (const auto& [what, body] : bad) {
    try {
      core::apply_sparse_patch(base_full, craft_sparse(2, 0, {1}, body));
      ADD_FAILURE() << what << ": malformed chunk accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot"), std::string::npos)
          << what << ": " << e.what();
    }
  }
}

TEST(DirtyTracking, EveryMutationPathBumpsTheVersion) {
  core::KernelTable t = make_table(4, 1);
  std::uint64_t v = t.version;
  t.merge(make_table(4, 2));
  EXPECT_GT(t.version, v);
  v = t.version;
  t.new_epoch();
  EXPECT_GT(t.version, v);
  v = t.version;
  t.clear_statistics();
  EXPECT_GT(t.version, v);
  v = t.version;
  t.touch();
  EXPECT_EQ(t.version, v + 1);
  // Channel-registry-union growth travels through merge and therefore
  // bumps: a peer that learned a new channel dirties the absorbing table.
  core::KernelTable lhs = make_table(8, 1);
  core::KernelTable rhs = make_table(8, 1);
  rhs.channels.add_channel({0, 2, 4, 6});
  v = lhs.version;
  lhs.merge(rhs);
  EXPECT_GT(lhs.version, v);
  EXPECT_FALSE(lhs.channels.same_channels(make_table(8, 1).channels));
}

TEST(DirtyTracking, VersionIsTransportInvisible) {
  // The counter is a local pre-filter, not state: it never serializes, and
  // equality ignores it.
  core::KernelTable t = make_table(2, 1);
  t.touch();
  t.touch();
  core::StatSnapshot s;
  s.ranks.push_back(t);
  s.ranks.push_back(make_table(2, 2));
  const core::StatSnapshot reloaded =
      core::StatSnapshot::from_string(s.to_string());
  EXPECT_TRUE(reloaded.same_statistics(s));
  // Same bytes regardless of how often the source was touched.
  core::StatSnapshot untouched;
  untouched.ranks.push_back(make_table(2, 1));
  untouched.ranks.push_back(make_table(2, 2));
  EXPECT_EQ(untouched.to_string(), s.to_string());
}

// ---------------------------------------------------------------------------
// Serialized bytes pinned across codec changes
// ---------------------------------------------------------------------------

TEST(StatSnapshot, SerializedBytesArePinned) {
  // Warm starts, checkpoints, exchange mailboxes and the daemon journal all
  // persist these bytes, so a codec change must not move one of them.  The
  // (checksum64, length) pairs were recorded from the serializer before the
  // snapshot codec moved onto core::WireWriter/WireReader; the golden
  // digests pin statistics, this pins the bytes that carry them.
  struct Pin {
    const char* what;
    std::string bytes;
    std::uint64_t sum;
    std::size_t size;
  };
  const auto [base, evolved] = patch_pair();
  const auto [tomb_base, tomb_evolved] = tombstone_pair();
  const Pin pins[] = {
      {"small snapshot", small_snapshot().to_string(), 0x0c27dbb43092e05aull,
       1407},
      {"golden online sweep",
       critter::testing::golden_sweep("online").stats.to_string(),
       0x0945c1af7ce6fd84ull, 442636},
      {"tombstone sparse delta",
       core::encode_sparse_delta(tomb_evolved.diff(tomb_base)),
       0xe342c7767b056fe7ull, 276},
      {"sparse patch",
       core::encode_sparse_patch(base.to_string(), evolved.to_string()),
       0x19f312dff5d88d78ull, 1238},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(p.bytes.size(), p.size) << p.what;
    EXPECT_EQ(critter::util::checksum64(p.bytes.data(), p.bytes.size()), p.sum)
        << p.what;
  }
}
