// Distributed sweep executors: the in-process/subprocess ShardExecutors,
// the run-directory publish protocol, periodic mid-sweep snapshot
// exchange, and the failure paths (worker crash, stale manifest, missing
// result) — which must surface as actionable errors, never hangs.
//
// This binary is its own shard worker: the subprocess executor re-execs it
// with --shard-worker, so main() routes that entry point before gtest.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/executor.hpp"
#include "dist/protocol.hpp"
#include "dist/shard_session.hpp"
#include "tune/tuner.hpp"

namespace core = critter::core;
namespace dist = critter::dist;
namespace tune = critter::tune;
using critter::Policy;

namespace {

tune::Study subset(tune::Study study, int nconfigs) {
  if (nconfigs < static_cast<int>(study.configs.size()))
    study.configs.resize(nconfigs);
  return study;
}

/// Bitwise equality of everything the fold produces (the determinism and
/// bit-identity contracts are exact, so no tolerances anywhere).
void expect_equal_results(const tune::TuneResult& a, const tune::TuneResult& b,
                          const std::string& what, bool compare_stats = true) {
  ASSERT_EQ(a.per_config.size(), b.per_config.size()) << what;
  for (std::size_t i = 0; i < a.per_config.size(); ++i) {
    EXPECT_EQ(a.per_config[i].evaluated, b.per_config[i].evaluated)
        << what << " config " << i;
    EXPECT_EQ(a.per_config[i].true_time, b.per_config[i].true_time)
        << what << " config " << i;
    EXPECT_EQ(a.per_config[i].pred_time, b.per_config[i].pred_time)
        << what << " config " << i;
    EXPECT_EQ(a.per_config[i].err, b.per_config[i].err) << what;
    EXPECT_EQ(a.per_config[i].executed, b.per_config[i].executed) << what;
    EXPECT_EQ(a.per_config[i].skipped, b.per_config[i].skipped) << what;
    EXPECT_EQ(a.per_config[i].samples_used, b.per_config[i].samples_used)
        << what;
  }
  EXPECT_EQ(a.tuning_time, b.tuning_time) << what;
  EXPECT_EQ(a.full_time, b.full_time) << what;
  EXPECT_EQ(a.kernel_time, b.kernel_time) << what;
  EXPECT_EQ(a.evaluated_configs, b.evaluated_configs) << what;
  EXPECT_EQ(a.best_predicted(), b.best_predicted()) << what;
  if (compare_stats)
    EXPECT_TRUE(a.stats.same_statistics(b.stats)) << what << " stats";
}

tune::TuneOptions isolated_options() {
  tune::TuneOptions opt;
  opt.policy = Policy::ConditionalExecution;
  opt.samples = 1;
  opt.reset_per_config = true;
  return opt;
}

tune::TuneOptions shared_options() {
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 1;
  return opt;
}

/// RAII fault injection for the worker fleet (see dist/subprocess.cc).
struct ScopedShardFault {
  explicit ScopedShardFault(const std::string& spec) {
    ::setenv("CRITTER_SHARD_FAULT", spec.c_str(), 1);
  }
  ~ScopedShardFault() { ::unsetenv("CRITTER_SHARD_FAULT"); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Partition + in-process executor vs the legacy fold
// ---------------------------------------------------------------------------

TEST(Partition, ContiguousBalancedCoverWithEmptyShardsDropped) {
  const std::vector<dist::ShardRange> r = dist::partition_range(2, 10, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].begin, 2);
  EXPECT_EQ(r[2].end, 10);
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_EQ(r[i].begin, r[i - 1].end);
    EXPECT_EQ(r[i].index, static_cast<int>(i));
  }
  // Over-sharded: empty slices vanish, indices stay dense.
  const std::vector<dist::ShardRange> o = dist::partition_range(0, 2, 5);
  ASSERT_EQ(o.size(), 2u);
  EXPECT_EQ(o[0].index, 0);
  EXPECT_EQ(o[1].index, 1);
  EXPECT_THROW(dist::partition_range(0, 4, 0), std::runtime_error);
}

TEST(InProcess, ExchangeOffMatchesLegacyMergeShardsAndUnsharded) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const tune::TuneOptions opt = isolated_options();
  const tune::TuneResult whole = tune::run_study(study, opt);
  for (int shards : {1, 2, 4}) {
    const tune::TuneResult legacy = tune::merge_shards(study, opt, shards);
    dist::InProcessExecutor exec;
    const tune::TuneResult r = dist::run_sharded(study, opt, shards, exec);
    EXPECT_EQ(r.shards, shards);
    EXPECT_EQ(r.executor, "in-process");
    EXPECT_EQ(r.exchange_rounds, 0);
    // Outcomes are bit-identical to the unsharded sweep; the merged
    // statistics are compared against the legacy fold only (per-shard
    // stores advance fewer epochs than one store sweeping everything).
    expect_equal_results(whole, r,
                         "vs unsharded, shards=" + std::to_string(shards),
                         /*compare_stats=*/false);
    expect_equal_results(legacy, r, "vs legacy fold, shards=" +
                                        std::to_string(shards));
  }
}

TEST(InProcess, ParallelShardsMatchSequentialShards) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  const tune::TuneOptions opt = shared_options();
  dist::InProcessExecutor seq(false);
  dist::InProcessExecutor par(true);
  // Exchange off: shards are independent sweeps, so thread-parallel
  // execution cannot change anything.
  expect_equal_results(dist::run_sharded(study, opt, 3, seq),
                       dist::run_sharded(study, opt, 3, par),
                       "parallel shards, exchange off");
  // Exchange on: all merging happens at the lockstep round barrier in
  // shard order, so scheduling still cannot leak into the result.
  const dist::ExchangePolicy every2{2};
  const tune::TuneResult a = dist::run_sharded(study, opt, 3, seq, every2);
  const tune::TuneResult b = dist::run_sharded(study, opt, 3, par, every2);
  EXPECT_GT(a.exchange_rounds, 0);
  EXPECT_EQ(a.exchange_every, 2);
  expect_equal_results(a, b, "parallel shards, exchange every 2");
}

TEST(InProcess, SingleShardIgnoresExchange) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 4);
  const tune::TuneOptions opt = shared_options();
  dist::InProcessExecutor exec;
  const tune::TuneResult plain = tune::run_study(study, opt);
  const tune::TuneResult r =
      dist::run_sharded(study, opt, 1, exec, dist::ExchangePolicy{1});
  EXPECT_EQ(r.exchange_every, 0);
  EXPECT_EQ(r.exchange_rounds, 0);
  expect_equal_results(plain, r, "one shard");
}

// ---------------------------------------------------------------------------
// Subprocess executor: bit-identity, exchange determinism
// ---------------------------------------------------------------------------

TEST(Subprocess, ExchangeOffBitIdenticalToInProcessFoldFor124Shards) {
  // The acceptance contract: one worker process per shard, snapshots
  // through files, must reproduce the in-process fold bit-exactly when no
  // mid-sweep exchange happens — for isolated and shared statistics both.
  const tune::Study iso_study = subset(tune::capital_cholesky_study(false), 8);
  const tune::Study shr_study = subset(tune::slate_cholesky_study(false), 6);
  for (int shards : {1, 2, 4}) {
    dist::SubprocessExecutor sub;
    const tune::TuneResult iso =
        dist::run_sharded(iso_study, isolated_options(), shards, sub);
    EXPECT_EQ(iso.executor, "subprocess");
    expect_equal_results(
        tune::merge_shards(iso_study, isolated_options(), shards), iso,
        "isolated, shards=" + std::to_string(shards));

    dist::SubprocessExecutor sub2;
    const tune::TuneResult shr =
        dist::run_sharded(shr_study, shared_options(), shards, sub2);
    expect_equal_results(
        tune::merge_shards(shr_study, shared_options(), shards), shr,
        "shared stats, shards=" + std::to_string(shards));
  }
}

TEST(Subprocess, PeriodicExchangeIsDeterministicAndMatchesInProcess) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  const tune::TuneOptions opt = shared_options();
  const dist::ExchangePolicy every1{1};
  dist::SubprocessExecutor sub_a, sub_b;
  const tune::TuneResult a = dist::run_sharded(study, opt, 2, sub_a, every1);
  const tune::TuneResult b = dist::run_sharded(study, opt, 2, sub_b, every1);
  EXPECT_GT(a.exchange_rounds, 0);
  expect_equal_results(a, b, "subprocess exchange repeat");
  // The in-process lockstep rounds realize the identical protocol: the
  // exchange schedule is a pure function of (seed, shard count, interval),
  // not of the transport.
  dist::InProcessExecutor inproc;
  const tune::TuneResult c = dist::run_sharded(study, opt, 2, inproc, every1);
  EXPECT_EQ(a.exchange_rounds, c.exchange_rounds);
  expect_equal_results(a, c, "subprocess vs in-process exchange");
}

TEST(Subprocess, SocketTransportBitIdenticalToDirTransport) {
  // Same worker loop, different shared store: coordinating the fleet
  // through a TCP blob server instead of the run directory must not be
  // observable in the result — mid-sweep exchange included.
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  const tune::TuneOptions opt = shared_options();
  const dist::ExchangePolicy every1{1};
  dist::SubprocessOptions dopts;
  dopts.transport = "dir";
  dist::SubprocessOptions sopts;
  sopts.transport = "socket";
  dist::SubprocessExecutor dir_exec(dopts);
  dist::SubprocessExecutor sock_exec(sopts);
  const tune::TuneResult a = dist::run_sharded(study, opt, 2, dir_exec, every1);
  const tune::TuneResult b =
      dist::run_sharded(study, opt, 2, sock_exec, every1);
  EXPECT_GT(b.exchange_rounds, 0);
  expect_equal_results(a, b, "dir vs socket transport");
}

TEST(Subprocess, ExchangeMailboxIsGarbageCollectedAfterTheRun) {
  // With the default fault policy (no retries, no checkpoints) resume
  // replay is impossible, so the manifest authorizes in-run delta GC and
  // the launcher sweeps the mailbox when the fleet finishes: a surviving
  // run directory keeps only the done markers — no round deltas, no
  // progress markers — and the collected run still folds bit-identical
  // to the in-process exchange.
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  const tune::TuneOptions opt = shared_options();
  dist::SubprocessOptions gopts;
  gopts.run_dir = dist::make_temp_dir("critter-gc-test-");
  gopts.transport = "dir";
  dist::SubprocessExecutor sub(gopts);
  const tune::TuneResult a =
      dist::run_sharded(study, opt, 2, sub, dist::ExchangePolicy{1});
  EXPECT_GT(a.exchange_rounds, 0);

  const std::string manifest = core::read_file(gopts.run_dir + "/run.txt");
  EXPECT_NE(manifest.find("gc_exchange=1"), std::string::npos)
      << "default fault policy must authorize exchange GC";
  int deltas = 0, progress = 0, done = 0;
  for (const std::string& name : core::list_dir(gopts.run_dir + "/exchange")) {
    if (name.find(".snap") != std::string::npos) ++deltas;
    if (name.find(".progress") != std::string::npos) ++progress;
    if (name.find(".done") != std::string::npos) ++done;
  }
  EXPECT_EQ(deltas, 0) << "round deltas survived the end-of-run sweep";
  EXPECT_EQ(progress, 0) << "progress markers survived the end-of-run sweep";
  EXPECT_GT(done, 0) << "done markers are the fleet's record and must stay";

  dist::InProcessExecutor inproc;
  const tune::TuneResult b =
      dist::run_sharded(study, opt, 2, inproc, dist::ExchangePolicy{1});
  expect_equal_results(a, b, "collected subprocess vs in-process exchange");
  dist::remove_dir_tree(gopts.run_dir);
}

TEST(Subprocess, IsolatedModeExchangePublishesEmptyDeltasSafely) {
  // Isolated-parallel sessions export no shared statistics; with exchange
  // on, their rounds publish empty payloads that peers must skip
  // (regression: the peer once fed the 0-rank payload to
  // StatSnapshot::load and the whole fleet aborted).
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  tune::TuneOptions opt = isolated_options();
  opt.workers = 2;  // ParallelIsolated mode
  dist::SubprocessExecutor sub;
  const tune::TuneResult a =
      dist::run_sharded(study, opt, 2, sub, dist::ExchangePolicy{1});
  EXPECT_GT(a.exchange_rounds, 0);
  dist::InProcessExecutor inproc;
  const tune::TuneResult b =
      dist::run_sharded(study, opt, 2, inproc, dist::ExchangePolicy{1});
  expect_equal_results(a, b, "isolated exchange across executors");
  expect_equal_results(tune::run_study(study, opt), a, "vs unsharded",
                       /*compare_stats=*/false);
}

TEST(Subprocess, WarmStartTravelsThroughRunDirectory) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 4);
  const tune::TuneOptions opt = shared_options();
  const tune::TuneResult prev = tune::run_study(study, opt);
  ASSERT_FALSE(prev.stats.empty());
  tune::TuneOptions warmed = opt;
  warmed.warm_start = &prev.stats;
  const tune::TuneResult legacy = tune::merge_shards(study, warmed, 2);
  dist::SubprocessExecutor sub;
  warmed.warm_start = &prev.stats;  // merge_shards copies consume it per run
  const tune::TuneResult r = dist::run_sharded(study, warmed, 2, sub);
  expect_equal_results(legacy, r, "warm-started subprocess shards");
}

// ---------------------------------------------------------------------------
// Model-based strategies across executors (DESIGN.md §9)
// ---------------------------------------------------------------------------

TEST(ModelStrategies, SurrogateEiWithExchangeIdenticalAcrossExecutors) {
  // The §9 determinism contract, end to end: a model-guided sweep's
  // proposals depend on its told outcomes and on the exchange deltas it
  // ingests, and both are scheduled identically by the in-process lockstep
  // rounds and the subprocess file protocol — so the whole run must be
  // bit-identical across executors and across repeats.
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  tune::TuneOptions opt = shared_options();
  opt.strategy = "surrogate-ei";
  opt.strategy_options["init"] = "3";
  const dist::ExchangePolicy every1{1};
  dist::InProcessExecutor inproc;
  const tune::TuneResult a = dist::run_sharded(study, opt, 2, inproc, every1);
  EXPECT_GT(a.exchange_rounds, 0);
  EXPECT_EQ(a.strategy, "surrogate-ei");
  const tune::TuneResult b = dist::run_sharded(study, opt, 2, inproc, every1);
  expect_equal_results(a, b, "surrogate-ei exchange repeat");
  dist::SubprocessExecutor sub;
  const tune::TuneResult c = dist::run_sharded(study, opt, 2, sub, every1);
  EXPECT_EQ(a.exchange_rounds, c.exchange_rounds);
  expect_equal_results(a, c, "surrogate-ei in-process vs subprocess");
}

TEST(ModelStrategies, CopulaPriorTravelsThroughRunDirectory) {
  // Both prior transports — an in-memory snapshot (published as
  // prior.snap) and a prior file path in the run manifest — must reach the
  // shard workers and produce the identical copula-transfer sweep the
  // in-process executor runs.
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  const tune::TuneResult donor = tune::run_study(study, shared_options());
  ASSERT_FALSE(donor.stats.empty());

  tune::TuneOptions opt = shared_options();
  opt.strategy = "copula-transfer";
  opt.prior = &donor.stats;
  dist::InProcessExecutor inproc;
  const tune::TuneResult a =
      dist::run_sharded(study, opt, 2, inproc, dist::ExchangePolicy{1});
  EXPECT_EQ(a.strategy, "copula-transfer");  // the prior arrived
  opt.prior = &donor.stats;
  dist::SubprocessExecutor sub;
  const tune::TuneResult b =
      dist::run_sharded(study, opt, 2, sub, dist::ExchangePolicy{1});
  expect_equal_results(a, b, "copula prior snapshot across executors");

  const std::string path = ::testing::TempDir() + "dist_prior.snap";
  donor.stats.save_file(path);
  tune::TuneOptions by_file = shared_options();
  by_file.strategy = "copula-transfer";
  by_file.prior_file = path;
  dist::SubprocessExecutor sub2;
  const tune::TuneResult c =
      dist::run_sharded(study, by_file, 2, sub2, dist::ExchangePolicy{1});
  expect_equal_results(a, c, "copula prior file across executors");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Failure paths: crash, missing result, stale manifest — errors, not hangs
// ---------------------------------------------------------------------------

TEST(SubprocessFailure, WorkerCrashMidSweepAbortsFleetWithDiagnosis) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  ScopedShardFault fault("1:crash-after-batch");
  dist::SubprocessExecutor sub;
  try {
    // Exchange every batch, so the surviving shard is blocked waiting on
    // the crashed peer — the abort marker must unblock it.
    dist::run_sharded(study, shared_options(), 2, sub,
                      dist::ExchangePolicy{1});
    FAIL() << "crashed worker did not surface";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find("42"), std::string::npos) << what;
    EXPECT_NE(what.find("run directory kept"), std::string::npos) << what;
  }
}

TEST(SubprocessFailure, CleanExitWithoutResultIsAMissingSnapshotError) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 4);
  ScopedShardFault fault("0:skip-result");
  dist::SubprocessExecutor sub;
  try {
    dist::run_sharded(study, isolated_options(), 2, sub);
    FAIL() << "missing result did not surface";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard worker 0"), std::string::npos) << what;
    EXPECT_NE(what.find("result"), std::string::npos) << what;
  }
}

TEST(SubprocessFailure, AdHocStudyIsRejectedUpFront) {
  tune::Study study = subset(tune::capital_cholesky_study(false), 4);
  study.workload.clear();  // ad hoc: workers could not rebuild it
  dist::SubprocessExecutor sub;
  try {
    dist::run_sharded(study, isolated_options(), 2, sub);
    FAIL() << "ad-hoc study accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("registry workload"),
              std::string::npos)
        << e.what();
  }
}

TEST(Protocol, StaleAndMissingManifestsAreDetected) {
  const std::string dir = dist::make_temp_dir("critter-proto-test-");
  // Unpublished artifact: "missing", immediately.
  EXPECT_THROW(dist::read_published(dir, "nothing.bin"), std::runtime_error);

  // Healthy publish round-trips.
  dist::publish_file(dir, "a.bin", "payload-bytes");
  EXPECT_TRUE(dist::published(dir, "a.bin"));
  EXPECT_EQ(dist::read_published(dir, "a.bin"), "payload-bytes");

  // Manifest without its payload: stale.
  dist::publish_file(dir, "b.bin", "gone");
  ASSERT_EQ(std::remove((dir + "/b.bin").c_str()), 0);
  try {
    dist::read_published(dir, "b.bin");
    FAIL() << "stale manifest accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stale manifest"), std::string::npos)
        << e.what();
  }

  // Payload shorter than the manifest declares: stale.
  dist::publish_file(dir, "c.bin", "full-length-payload");
  dist::write_file(dir + "/c.bin", "short");
  EXPECT_THROW(dist::read_published(dir, "c.bin"), std::runtime_error);

  // Same length, corrupt bytes: checksum mismatch.
  dist::publish_file(dir, "d.bin", "payload-bytes");
  dist::write_file(dir + "/d.bin", "payload-bytez");
  EXPECT_THROW(dist::read_published(dir, "d.bin"), std::runtime_error);

  dist::remove_dir_tree(dir);
}

// ---------------------------------------------------------------------------
// merge_state: the session-level exchange hook
// ---------------------------------------------------------------------------

TEST(MergeState, FoldsBetweenBatchesAndRejectsMidBatch) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 4);
  const tune::TuneOptions opt = shared_options();
  const tune::TuneResult donor = tune::run_study(study, opt);
  ASSERT_FALSE(donor.stats.empty());

  tune::Tuner session(study, opt);
  const std::vector<int> batch = session.ask();
  ASSERT_FALSE(batch.empty());
  EXPECT_THROW(session.merge_state(donor.stats), std::runtime_error);
  session.tell(session.evaluate(batch));
  session.merge_state(donor.stats);  // between batches: legal
  while (session.step()) {
  }
  // The fold reached the shared statistics (deterministically): folding
  // the same donor twice must agree with itself.
  tune::Tuner repeat(study, opt);
  const std::vector<int> rb = repeat.ask();
  repeat.tell(repeat.evaluate(rb));
  repeat.merge_state(donor.stats);
  while (repeat.step()) {
  }
  EXPECT_TRUE(
      session.export_state().same_statistics(repeat.export_state()));
  EXPECT_FALSE(session.export_state().same_statistics(donor.stats));
}

// ---------------------------------------------------------------------------
// ShardSession: in-place delta and absorption match the copy-based algebra
// ---------------------------------------------------------------------------

namespace {

/// Two shard sessions over halves of `study`, traded for three lockstep
/// rounds of `every` batches.  Each round checks, on both sessions, that
/// a step clears mark_is_live() and refresh_mark() sets it, that
/// take_delta() equals export_state().diff(mark) and that absorbing the
/// peer's delta in place leaves exactly the bytes of the copy-based
/// export -> merge -> to_string path.  Returns the total pending-eager
/// entries and tombstones the deltas carried (so a caller can confirm the
/// eager bookkeeping was exercised).
std::pair<std::size_t, std::size_t> check_in_place_exchange(
    const tune::Study& study, const tune::TuneOptions& base_opt, int every) {
  const std::vector<dist::ShardRange> ranges = dist::partition_range(
      0, static_cast<int>(study.configs.size()), 2);
  std::vector<std::unique_ptr<dist::ShardSession>> ss;
  for (const dist::ShardRange& r : ranges) {
    tune::TuneOptions opt = base_opt;
    opt.config_begin = r.begin;
    opt.config_end = r.end;
    ss.push_back(std::make_unique<dist::ShardSession>(study, opt));
  }
  // Payloads compare with EXPECT_TRUE: a mismatch would otherwise print
  // megabytes of snapshot bytes.
  std::size_t pending = 0, tombstones = 0;
  for (int round = 0; round < 3; ++round) {
    const std::string what = "round " + std::to_string(round);
    std::vector<core::StatSnapshot> deltas(2);
    for (int s = 0; s < 2; ++s) {
      // Shard 0 steps through run_segment, shard 1 through step_logged
      // (the subprocess worker's path); each step leaves the mark stale.
      if (s == 0) {
        EXPECT_EQ(ss[s]->run_segment(every), every) << what;
      } else {
        std::vector<int> batch;
        std::vector<tune::ConfigOutcome> outcomes;
        for (int b = 0; b < every; ++b)
          EXPECT_TRUE(ss[s]->step_logged(&batch, &outcomes)) << what;
      }
      EXPECT_FALSE(ss[s]->mark_is_live()) << what;
      const std::string expect =
          ss[s]->session().export_state().diff(ss[s]->mark()).to_string();
      deltas[s] = ss[s]->take_delta();
      EXPECT_TRUE(deltas[s].to_string() == expect) << what << " shard " << s;
      for (const core::KernelTable& t : deltas[s].ranks) {
        pending += t.pending_eager.size();
        tombstones += t.pending_tombstones.size();
      }
    }
    for (int s = 0; s < 2; ++s) {
      core::StatSnapshot copy = ss[s]->session().export_state();
      copy.merge(deltas[1 - s]);
      ss[s]->absorb(deltas[1 - s]);
      const std::string live = ss[s]->session().state_bytes();
      EXPECT_TRUE(live == copy.to_string()) << what << " shard " << s;
      EXPECT_TRUE(live == ss[s]->session().export_state().to_string())
          << what;
      ss[s]->refresh_mark();
      EXPECT_TRUE(ss[s]->mark_is_live()) << what;
      EXPECT_TRUE(ss[s]->mark().to_string() == live) << what;
    }
  }
  return {pending, tombstones};
}

}  // namespace

TEST(ShardSessionInPlace, CapitalEagerDeltaAndAbsorbMatchCopyAlgebra) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 12);
  tune::TuneOptions opt;
  opt.policy = Policy::EagerPropagation;
  opt.samples = 1;
  opt.tolerance = 0.25;
  const auto [pending, tombstones] = check_in_place_exchange(study, opt, 2);
  // The eager policy's bookkeeping rode the deltas: pending entries for
  // kernels a shard has not seen, and tombstones for absorbed ones.
  EXPECT_GT(pending, 0u);
  EXPECT_GT(tombstones, 0u);
}

TEST(ShardSessionInPlace, SlateOnlineDeltaAndAbsorbMatchCopyAlgebra) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 12);
  tune::TuneOptions opt = shared_options();
  opt.tolerance = 0.25;
  check_in_place_exchange(study, opt, 2);
}

int main(int argc, char** argv) {
  if (dist::is_shard_worker(argc, argv))
    return dist::shard_worker_main(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
