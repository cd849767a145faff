// Statistics-pipeline microbenchmark: the cost of moving snapshot state —
// merge, exact-inverse diff, binary serialization, in-memory parse, and
// file load through both paths (mmap-backed vs stream read).  These are
// the operations the distributed executors pay per exchange round and per
// checkpoint, isolated from any simulation work.  The net layer's share
// rides along: checksum throughput (FNV-1a, the rank-chunk checksum, vs
// util::checksum64, the frame/journal checksum) and frame encode+verify,
// both over the serialized snapshot — reported, not gated.
//
// Emits the BENCH_*.json perf-trajectory shape (see bench_json.hpp) to
// BENCH_stat_store.json.  CRITTER_BENCH_RANKS (default 16) and
// CRITTER_BENCH_KERNELS (default 512) size the synthetic snapshot;
// CRITTER_BENCH_REPS scales the iteration counts.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_json.hpp"
#include "core/stat_store.hpp"
#include "net/frame.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"

namespace core = critter::core;
namespace util = critter::util;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bench::BenchJson g_json;

/// A populated snapshot: `nkernels` distinct keys per rank with a few
/// Welford samples each, plus the key-of-hash side table — the shape the
/// exchange/checkpoint paths actually move.
core::StatSnapshot make_snapshot(int nranks, int nkernels, int salt) {
  core::StatSnapshot s;
  s.ranks.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    core::KernelTable& t = s.ranks[static_cast<std::size_t>(r)];
    t.init_world(nranks);
    for (int k = 0; k < nkernels; ++k) {
      const core::KernelKey key{static_cast<core::KernelClass>(k % 3),
                                {64 + k, 32 + k % 7, 0, 0},
                                0};
      core::KernelStats ks;
      for (int i = 0; i < 4; ++i)
        ks.add_sample(1.0 + salt + 0.25 * i + 0.01 * k);
      ks.total_invocations = 4;
      ks.total_executions = 4;
      ks.registered = true;
      t.K.emplace(key, ks);
      t.key_of_hash.emplace(key.hash(), key);
    }
    t.epoch = salt;
  }
  return s;
}

void report(util::Table& t, const std::string& name, double ops, double secs,
            const char* unit) {
  const double rate = ops / secs;
  t.row({name, util::Table::num(ops, 0), util::Table::num(secs, 3),
         util::Table::sci(rate)});
  g_json.add(name + "_per_sec", rate, unit);
}

}  // namespace

int main() {
  const int reps = static_cast<int>(util::env_int("CRITTER_BENCH_REPS", 1));
  const int nranks =
      static_cast<int>(util::env_int("CRITTER_BENCH_RANKS", 16));
  const int nkernels =
      static_cast<int>(util::env_int("CRITTER_BENCH_KERNELS", 512));

  const core::StatSnapshot base = make_snapshot(nranks, nkernels, 0);
  const core::StatSnapshot delta = make_snapshot(nranks, nkernels, 1);
  core::StatSnapshot evolved = base;
  evolved.merge(delta);

  util::Table t("Statistics pipeline: " + std::to_string(nranks) +
                " ranks x " + std::to_string(nkernels) + " kernels");
  t.header({"operation", "ops", "wall(s)", "ops/s"});

  // Merge: fold a same-shape delta into an accumulator, the per-exchange-
  // round operation.  The accumulator is folded repeatedly — each fold does
  // the same find + Chan-combine work.
  {
    const int iters = 200 * reps;
    core::StatSnapshot acc = base;
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) acc.merge(delta);
    report(t, "merge", static_cast<double>(iters), now_s() - t0, "merges/s");
  }

  // Diff: the exact merge inverse computed per incremental checkpoint.
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i) sink += evolved.diff(base).ranks.size();
    report(t, "diff", static_cast<double>(iters), now_s() - t0, "diffs/s");
    if (sink < 0) std::printf("%f", sink);  // defeat dead-code elimination
  }

  // Serialize: snapshot -> in-memory binary payload (delta publish path).
  std::string payload;
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) payload = evolved.to_string();
    report(t, "serialize", static_cast<double>(iters), now_s() - t0,
           "snapshots/s");
    g_json.add("snapshot_bytes", static_cast<double>(payload.size()),
               "bytes");
  }

  // Parse: payload -> snapshot, decoded in place from the borrowed buffer.
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i)
      sink += core::StatSnapshot::from_string(payload).ranks.size();
    report(t, "parse", static_cast<double>(iters), now_s() - t0,
           "snapshots/s");
    if (sink < 0) std::printf("%f", sink);
  }

  // Checksums and frames over the serialized snapshot, in GB/s: every
  // daemon tell pays a frame encode (client) and verify (daemon), and a
  // framed journal record; the rank chunks inside keep FNV-1a.
  {
    const int iters = 100 * reps;
    const double gb = static_cast<double>(payload.size()) * iters / 1e9;
    std::uint64_t sink = 0;
    double t0 = now_s();
    for (int i = 0; i < iters; ++i)
      sink += util::fnv1a(payload.data(), payload.size());
    const double fnv_s = now_s() - t0;
    t0 = now_s();
    for (int i = 0; i < iters; ++i)
      sink += util::checksum64(payload.data(), payload.size());
    const double sum64_s = now_s() - t0;
    t0 = now_s();
    for (int i = 0; i < iters; ++i) {
      critter::net::Frame f;
      sink += critter::net::decode_frame(
          critter::net::encode_frame(critter::net::kTuneTell, payload), f);
    }
    const double frame_s = now_s() - t0;
    t.row({"checksum_fnv1a", util::Table::num(iters, 0),
           util::Table::num(fnv_s, 3), util::Table::sci(iters / fnv_s)});
    t.row({"checksum64", util::Table::num(iters, 0),
           util::Table::num(sum64_s, 3), util::Table::sci(iters / sum64_s)});
    t.row({"frame_encode_verify", util::Table::num(iters, 0),
           util::Table::num(frame_s, 3), util::Table::sci(iters / frame_s)});
    g_json.add("checksum_GBps.fnv1a", gb / fnv_s, "GB/s");
    g_json.add("checksum_GBps.checksum64", gb / sum64_s, "GB/s");
    g_json.add("frame_encode_verify_GBps", gb / frame_s, "GB/s");
    if (sink == 42) std::printf(" ");  // defeat dead-code elimination
  }

  // Sparse transport (DESIGN.md §13), one dirty rank out of nranks — the
  // tell/exchange shape the dirty-rank codec exists for.  Encode is a
  // chunk-granular byte comparison against the base payload; apply is a
  // byte splice.  The size entries record what the wire actually carries
  // versus shipping the full snapshot.
  core::StatSnapshot dirtied = evolved;
  dirtied.ranks[0].merge(make_snapshot(nranks, nkernels, 2).ranks[0]);
  const std::string dirtied_payload = dirtied.to_string();
  std::string patch;
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i)
      patch = core::encode_sparse_patch(payload, dirtied_payload);
    report(t, "sparse_encode", static_cast<double>(iters), now_s() - t0,
           "patches/s");
    g_json.add("sparse_patch_bytes", static_cast<double>(patch.size()),
               "bytes");
  }
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i)
      sink += static_cast<double>(core::apply_sparse_patch(payload, patch)
                                      .size());
    report(t, "sparse_apply", static_cast<double>(iters), now_s() - t0,
           "patches/s");
    if (sink < 0) std::printf("%f", sink);
  }

  // Standalone mode-1 delta: the exchange-round publish when one rank
  // progressed since the last round (diff() leaves every other rank as a
  // clean chunk, which the sparse delta carries in the epoch array alone).
  const core::StatSnapshot round_delta = dirtied.diff(evolved);
  std::string sparse_delta;
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i)
      sparse_delta = core::encode_sparse_delta(round_delta);
    report(t, "sparse_delta_encode", static_cast<double>(iters),
           now_s() - t0, "deltas/s");
    g_json.add("sparse_delta_bytes",
               static_cast<double>(sparse_delta.size()), "bytes");
  }
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i)
      sink += static_cast<double>(
          core::expand_sparse_delta(sparse_delta).size());
    report(t, "sparse_delta_expand", static_cast<double>(iters),
           now_s() - t0, "deltas/s");
    if (sink < 0) std::printf("%f", sink);
  }

  // File load, both paths: load_file prefers an mmap of the file and
  // decodes in place; the stream path slurps through an istream first.
  const std::string path = "/tmp/critter_bench_snapshot.bin";
  evolved.save_file(path);
  {
    const int iters = 100 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i)
      sink += core::StatSnapshot::load_file(path).ranks.size();
    report(t, "load_mmap", static_cast<double>(iters), now_s() - t0,
           "loads/s");
    if (sink < 0) std::printf("%f", sink);
  }
  {
    const int iters = 100 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i) {
      std::ifstream is(path, std::ios::binary);
      sink += core::StatSnapshot::load(is).ranks.size();
    }
    report(t, "load_read", static_cast<double>(iters), now_s() - t0,
           "loads/s");
    if (sink < 0) std::printf("%f", sink);
  }
  std::remove(path.c_str());

  t.print();
  g_json.ratio("load_mmap_vs_read", "load_mmap_per_sec", "load_read_per_sec");
  // Lower is better: the fraction of the full payload the sparse wire
  // formats actually move (one dirty rank of nranks, so ~1/nranks).
  g_json.ratio("sparse_patch_vs_full_bytes", "sparse_patch_bytes",
               "snapshot_bytes");
  g_json.ratio("sparse_delta_vs_full_bytes", "sparse_delta_bytes",
               "snapshot_bytes");
  g_json.ratio("checksum64_vs_fnv1a", "checksum_GBps.checksum64",
               "checksum_GBps.fnv1a");
  g_json.write("stat_store", "BENCH_stat_store.json");
  return 0;
}
