// The generic tuning API: ParamSpace/Configuration, the workload registry,
// the strategy registry, the ask/tell Tuner session (bit-identical to
// run_study across all sweep modes and studies), merge_shards, and
// registry-defined workloads round-tripping through save -> load -> resume.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/kernels.hpp"
#include "core/mpi.hpp"
#include "sim/api.hpp"
#include "tune/evaluator.hpp"
#include "tune/strategy.hpp"
#include "tune/tuner.hpp"

namespace core = critter::core;
namespace tune = critter::tune;
using critter::Policy;

// ---------------------------------------------------------------------------
// ParamSpace / Configuration
// ---------------------------------------------------------------------------

TEST(ParamSpace, CartesianEnumerationOrderAndLabels) {
  const auto sp = tune::ParamSpace::cartesian({{"a", {1, 2, 3}}, {"b", {10, 20}}});
  EXPECT_EQ(sp.size(), 6);
  ASSERT_EQ(sp.names().size(), 2u);
  // The first dimension varies fastest: index 4 -> a = values[4 % 3],
  // b = values[4 / 3].
  const tune::Configuration c = sp.at(4);
  EXPECT_EQ(c.index, 4);
  EXPECT_EQ(c.at("a"), 2);
  EXPECT_EQ(c.at("b"), 20);
  EXPECT_EQ(c.label(), "a=2,b=20");
  EXPECT_TRUE(c.has("a"));
  EXPECT_FALSE(c.has("z"));
  EXPECT_EQ(c.get("z", -7), -7);
  EXPECT_THROW(c.at("z"), std::runtime_error);
  EXPECT_THROW(sp.at(6), std::runtime_error);
  EXPECT_THROW(tune::ParamSpace::cartesian({{"x", {}}}), std::runtime_error);
  EXPECT_THROW(tune::ParamSpace::cartesian({{"x", {1}}, {"x", {2}}}),
               std::runtime_error);
}

TEST(ParamSpace, EnumeratedPointsRoundTrip) {
  const auto sp =
      tune::ParamSpace::enumerated({"x", "y"}, {{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(sp.size(), 3);
  const std::vector<tune::Configuration> all = sp.enumerate();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].index, 1);
  EXPECT_EQ(all[2].at("y"), 6);
  EXPECT_THROW(tune::ParamSpace::enumerated({"x"}, {{1, 2}}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------------

TEST(WorkloadRegistry, PaperStudiesAreRegistered) {
  const std::vector<std::string> names =
      tune::WorkloadRegistry::instance().names();
  for (const char* expected :
       {"candmc-qr", "capital-cholesky", "slate-cholesky", "slate-qr"}) {
    bool found = false;
    for (const std::string& n : names) found = found || n == expected;
    EXPECT_TRUE(found) << expected;
  }
  EXPECT_THROW(tune::workload_study("no-such-workload", false),
               std::runtime_error);
  // The legacy facades resolve through the registry with runners bound.
  const tune::Study s = tune::workload_study("slate-qr", false);
  EXPECT_EQ(s.configs.size(), 63u);
  EXPECT_EQ(s.workload, "slate-qr");
  EXPECT_TRUE(static_cast<bool>(s.runner));
}

// ---------------------------------------------------------------------------
// Strategy registry
// ---------------------------------------------------------------------------

TEST(StrategyRegistry, ListsBuiltinsAndRejectsUnknown) {
  const std::vector<std::string> names = tune::strategy_names();
  for (const char* expected :
       {"ci-discard", "exhaustive", "halving", "random-subset",
        "surrogate-ei", "copula-transfer"}) {
    bool found = false;
    for (const std::string& n : names) found = found || n == expected;
    EXPECT_TRUE(found) << expected;
  }
  EXPECT_FALSE(tune::strategy_summary("halving").empty());

  auto study = tune::capital_cholesky_study(false);
  study.configs.resize(2);
  tune::TuneOptions opt;
  opt.samples = 1;
  opt.strategy = "no-such-strategy";
  EXPECT_THROW(tune::run_study(study, opt), std::runtime_error);
  opt.strategy = "exhaustive";
  opt.strategy_options["bogus"] = "1";  // typos fail fast
  EXPECT_THROW(tune::run_study(study, opt), std::runtime_error);
}

TEST(StrategyRegistry, ParseSpec) {
  const auto [name, opts] =
      tune::parse_strategy_spec("halving,eta=3,min-samples=2");
  EXPECT_EQ(name, "halving");
  EXPECT_EQ(opts.at("eta"), "3");
  EXPECT_EQ(opts.at("min-samples"), "2");
  const auto [bare, none] = tune::parse_strategy_spec("exhaustive");
  EXPECT_EQ(bare, "exhaustive");
  EXPECT_TRUE(none.empty());
  EXPECT_THROW(tune::parse_strategy_spec("x,notkeyval"), std::runtime_error);
}

TEST(StrategyRegistry, DuplicateOptionKeysAreRejected) {
  // The option map would silently keep one of the two values — the §7
  // fail-fast contract requires the spec to be rejected instead.
  try {
    tune::parse_strategy_spec("halving,eta=3,eta=4");
    FAIL() << "duplicate key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'eta'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("more than once"),
              std::string::npos)
        << e.what();
  }
  // Distinct keys with the same value are of course fine.
  const auto [name, opts] =
      tune::parse_strategy_spec("halving,eta=3,min-samples=3");
  EXPECT_EQ(opts.size(), 2u);
  (void)name;
}

TEST(StrategyRegistry, AllUnknownOptionKeysReportedInOneError) {
  // A spec with several typos surfaces every one of them at once — not
  // one failure per run.
  tune::StrategyOptions opts;
  opts["bogus-a"] = "1";
  opts["bogus-b"] = "2";
  opts["margin"] = "0.1";  // the one valid key
  try {
    tune::check_strategy_options("ci-discard", opts, {"margin"});
    FAIL() << "unknown keys accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus-a'"), std::string::npos) << what;
    EXPECT_NE(what.find("'bogus-b'"), std::string::npos) << what;
    EXPECT_EQ(what.find("'margin'"), std::string::npos) << what;
  }
  // The same behavior through a real factory.
  auto study = tune::capital_cholesky_study(false);
  study.configs.resize(2);
  tune::TuneOptions opt;
  opt.samples = 1;
  opt.strategy = "ci-discard";
  opt.strategy_options["oops1"] = "1";
  opt.strategy_options["oops2"] = "2";
  try {
    tune::run_study(study, opt);
    FAIL() << "unknown keys accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'oops1'"), std::string::npos) << what;
    EXPECT_NE(what.find("'oops2'"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Ask/tell session == run_study, across studies and sweep modes
// ---------------------------------------------------------------------------

namespace {

tune::TuneResult run_via_session(const tune::Study& study,
                                 const tune::TuneOptions& opt) {
  tune::Tuner session(study, opt);
  while (!session.done()) {
    const std::vector<int> batch = session.ask();
    if (batch.empty()) break;
    session.tell(session.evaluate(batch));
  }
  return session.result();
}

void expect_equal_results(const tune::TuneResult& a, const tune::TuneResult& b,
                          const char* what) {
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
}

tune::Study subset(tune::Study study, int nconfigs) {
  if (nconfigs < static_cast<int>(study.configs.size()))
    study.configs.resize(nconfigs);
  return study;
}

}  // namespace

TEST(AskTell, SessionReproducesRunStudyAcrossStudiesAndModes) {
  struct ModeCase {
    const char* what;
    void (*apply)(tune::TuneOptions&);
  };
  const ModeCase modes[] = {
      {"serial", [](tune::TuneOptions&) {}},
      {"isolated",
       [](tune::TuneOptions& o) {
         o.reset_per_config = true;
         o.workers = 4;
       }},
      {"batch-shared",
       [](tune::TuneOptions& o) {
         o.workers = 2;
         o.batch = 2;
       }},
  };
  const tune::Study studies[] = {
      subset(tune::capital_cholesky_study(false), 4),
      subset(tune::slate_cholesky_study(false), 4),
      subset(tune::candmc_qr_study(false), 3),
      subset(tune::slate_qr_study(false), 3),
  };
  const tune::SweepMode expected[] = {tune::SweepMode::Serial,
                                      tune::SweepMode::ParallelIsolated,
                                      tune::SweepMode::BatchShared};
  for (const tune::Study& study : studies) {
    int m = 0;
    for (const ModeCase& mode : modes) {
      tune::TuneOptions opt;
      opt.policy = Policy::OnlinePropagation;
      opt.tolerance = 0.25;
      opt.samples = 1;
      mode.apply(opt);
      const tune::TuneResult direct = tune::run_study(study, opt);
      const tune::TuneResult via = run_via_session(study, opt);
      EXPECT_EQ(direct.mode, expected[m])
          << study.name << " " << mode.what;
      expect_equal_results(direct, via,
                           (study.name + " " + mode.what).c_str());
      EXPECT_TRUE(direct.stats.same_statistics(via.stats))
          << study.name << " " << mode.what;
      ++m;
    }
  }
}

TEST(AskTell, SerialFacadeMatchesHandRolledPaperProtocol) {
  // Independent reimplementation of the paper's serial exhaustive sweep
  // straight on the Evaluator: guards that the session/facade layering
  // added nothing to the protocol.
  auto study = subset(tune::capital_cholesky_study(false), 5);
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.tolerance = 0.25;
  opt.samples = 2;

  critter::Config pc;
  pc.mode = critter::ExecMode::Model;
  pc.policy = opt.policy;
  pc.tolerance = opt.tolerance;
  pc.tilde_capacity = opt.tilde_capacity;
  critter::Store store(study.nranks, pc);
  const tune::Evaluator ev(study, opt);
  std::vector<tune::ConfigOutcome> by_hand;
  double tuning_time = 0.0;
  for (int i = 0; i < 5; ++i) {
    tune::ConfigTotals tot;
    by_hand.push_back(ev.evaluate(store, i, &tot));
    tuning_time += tot.tuning_time;
  }

  const tune::TuneResult r = tune::run_study(study, opt);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(r.per_config[i].pred_time, by_hand[i].pred_time) << i;
    EXPECT_EQ(r.per_config[i].true_time, by_hand[i].true_time) << i;
    EXPECT_EQ(r.per_config[i].skipped, by_hand[i].skipped) << i;
  }
  EXPECT_EQ(r.tuning_time, tuning_time);
}

TEST(AskTell, ProtocolMisuseIsRejected) {
  auto study = subset(tune::capital_cholesky_study(false), 3);
  tune::TuneOptions opt;
  opt.samples = 1;
  tune::Tuner session(study, opt);
  EXPECT_THROW(session.tell({}), std::runtime_error);  // nothing claimed
  const std::vector<int> batch = session.ask();
  ASSERT_FALSE(batch.empty());
  EXPECT_THROW(session.ask(), std::runtime_error);  // must tell first
  EXPECT_THROW(session.import_state(core::StatSnapshot{}),
               std::runtime_error);  // only before the first ask
  EXPECT_THROW(session.evaluate({99}), std::runtime_error);  // not the batch
  const std::vector<tune::ConfigOutcome> outcomes = session.evaluate(batch);
  // Re-evaluating the claimed batch would re-merge its statistics.
  EXPECT_THROW(session.evaluate(batch), std::runtime_error);
  session.tell(outcomes);
}

TEST(AskTell, IsolatedSweepIgnoresWarmStart) {
  // The documented warm_start contract: isolated-parallel sweeps reset
  // statistics per configuration and ignore the snapshot — the same
  // options must succeed at any worker count, not fail at workers > 1.
  auto study = subset(tune::capital_cholesky_study(false), 4);
  tune::TuneOptions persist;
  persist.policy = Policy::OnlinePropagation;
  persist.samples = 1;
  const tune::TuneResult prev = tune::run_study(study, persist);
  ASSERT_FALSE(prev.stats.empty());

  tune::TuneOptions iso;
  iso.policy = Policy::ConditionalExecution;
  iso.samples = 1;
  iso.reset_per_config = true;
  iso.workers = 4;
  tune::TuneOptions warmed = iso;
  warmed.warm_start = &prev.stats;
  const tune::TuneResult plain = tune::run_study(study, iso);
  const tune::TuneResult r = tune::run_study(study, warmed);
  EXPECT_EQ(r.mode, tune::SweepMode::ParallelIsolated);
  expect_equal_results(plain, r, "isolated warm-start ignored");
}

TEST(AskTell, ExternalOutcomesFlowThroughTell) {
  // tell() accepts outcomes produced outside evaluate() — the classic
  // ask/tell pattern where measurements come from a real machine.
  auto study = subset(tune::capital_cholesky_study(false), 4);
  tune::TuneOptions opt;
  tune::Tuner session(study, opt);
  while (!session.done()) {
    const std::vector<int> batch = session.ask();
    if (batch.empty()) break;
    std::vector<tune::ConfigOutcome> outcomes;
    for (int idx : batch) {
      tune::ConfigOutcome oc;
      oc.config = study.configs[idx];
      oc.evaluated = true;
      oc.pred_time = 100.0 - idx;  // external "measurement"
      oc.true_time = 1.0;
      oc.samples_used = 1;
      outcomes.push_back(oc);
    }
    session.tell(outcomes);
  }
  const tune::TuneResult r = session.result();
  EXPECT_EQ(r.evaluated_configs, 4);
  EXPECT_EQ(r.best_predicted(), 3);
  EXPECT_EQ(r.tuning_time, 0.0);  // nothing was simulated
}

// ---------------------------------------------------------------------------
// merge_shards
// ---------------------------------------------------------------------------

TEST(MergeShards, IsolatedSweepMatchesUnshardedFor124Shards) {
  auto study = subset(tune::capital_cholesky_study(false), 8);
  tune::TuneOptions opt;
  opt.policy = Policy::ConditionalExecution;
  opt.samples = 1;
  opt.reset_per_config = true;  // statistically isolated configurations
  const tune::TuneResult whole = tune::run_study(study, opt);
  for (int shards : {1, 2, 4}) {
    const tune::TuneResult r = tune::merge_shards(study, opt, shards);
    EXPECT_EQ(r.shards, shards);
    expect_equal_results(whole, r,
                         ("shards=" + std::to_string(shards)).c_str());
  }
}

TEST(MergeShards, SharedStatsShardingIsDeterministicAndMergesSnapshots) {
  auto study = subset(tune::slate_cholesky_study(false), 6);
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 1;  // persistent statistics: shards grow independent state
  const tune::TuneResult a = tune::merge_shards(study, opt, 3);
  const tune::TuneResult b = tune::merge_shards(study, opt, 3);
  expect_equal_results(a, b, "repeat");
  ASSERT_FALSE(a.stats.empty());
  EXPECT_EQ(a.stats.nranks(), study.nranks);
  EXPECT_TRUE(a.stats.same_statistics(b.stats));
  EXPECT_EQ(a.evaluated_configs, 6);
}

// ---------------------------------------------------------------------------
// A registry-defined toy workload: save -> load -> resume
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kToyKernel = 0x70F;

/// Defined and registered entirely from test (i.e. user) code.
class ToyRingWorkload final : public tune::Workload {
 public:
  std::string name() const override { return "toy-ring"; }

  void run(const tune::Study& study,
           const tune::Configuration& cfg) const override {
    const std::int64_t w = cfg.at("w");
    for (int it = 0; it < 12; ++it) {
      for (std::int64_t k = 0; k < study.n / w; ++k)
        critter::user_kernel(kToyKernel, w, w,
                             1.5 * static_cast<double>(w) * w, nullptr);
      critter::mpi::barrier(critter::sim::world());
    }
  }

 protected:
  tune::Study define(bool) const override {
    tune::Study s;
    s.name = "toy ring";
    s.nranks = 8;
    s.n = 64;
    s.m = s.n;
    s.gamma = 1.0e-8;
    s.space = tune::ParamSpace::cartesian({{"w", {2, 4, 8, 16}}});
    return s;
  }
};

const tune::Study& toy_study() {
  static const tune::Study s = [] {
    tune::register_workload(std::make_unique<ToyRingWorkload>());
    return tune::workload_study("toy-ring", false);
  }();
  return s;
}

}  // namespace

TEST(ToyWorkload, RegistersAndTunesWithoutTouchingTuneSources) {
  const tune::Study& study = toy_study();
  EXPECT_EQ(study.configs.size(), 4u);
  tune::TuneOptions opt;
  opt.policy = Policy::LocalPropagation;
  opt.samples = 2;
  const tune::TuneResult r = tune::run_study(study, opt);
  EXPECT_EQ(r.evaluated_configs, 4);
  for (const tune::ConfigOutcome& oc : r.per_config) {
    EXPECT_GT(oc.true_time, 0.0);
    EXPECT_GT(oc.pred_time, 0.0);
  }
  std::int64_t skipped = 0;
  for (const auto& oc : r.per_config) skipped += oc.skipped;
  EXPECT_GT(skipped, 0) << "selective execution should engage on user kernels";
}

TEST(ToyWorkload, SessionStateRoundTripsThroughSaveLoadResume) {
  const tune::Study& study = toy_study();
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 2;
  const tune::TuneResult full = tune::run_study(study, opt);

  // First half of the sweep in one session...
  tune::TuneOptions first = opt;
  first.config_end = 2;
  tune::Tuner s1(study, first);
  while (s1.step()) {
  }
  std::stringstream buf;
  s1.export_state().save(buf);

  // ...then a fresh session (fresh process, morally) resumes the rest from
  // the serialized state and reproduces the uninterrupted sweep exactly.
  const core::StatSnapshot loaded = core::StatSnapshot::load(buf);
  tune::TuneOptions second = opt;
  second.config_begin = 2;
  tune::Tuner s2(study, second);
  s2.import_state(loaded);
  while (s2.step()) {
  }
  const tune::TuneResult resumed = s2.result();
  for (int i = 2; i < 4; ++i) {
    EXPECT_EQ(full.per_config[i].pred_time, resumed.per_config[i].pred_time)
        << i;
    EXPECT_EQ(full.per_config[i].true_time, resumed.per_config[i].true_time);
    EXPECT_EQ(full.per_config[i].skipped, resumed.per_config[i].skipped);
  }
  EXPECT_TRUE(full.stats.same_statistics(s2.export_state()));
}

// ---------------------------------------------------------------------------
// Successive halving
// ---------------------------------------------------------------------------

TEST(Halving, PrunesConfirmsWinnerAndStaysDeterministic) {
  auto study = subset(tune::slate_cholesky_study(false), 8);
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 4;
  opt.strategy = "halving";
  const tune::TuneResult r1 = tune::run_study(study, opt);
  const tune::TuneResult r2 = tune::run_study(study, opt);
  expect_equal_results(r1, r2, "halving repeat");

  int at_full = 0, pruned_early = 0;
  for (const tune::ConfigOutcome& oc : r1.per_config) {
    EXPECT_TRUE(oc.evaluated);
    EXPECT_GE(oc.samples_used, 1);
    if (oc.samples_used == opt.samples) ++at_full;
    if (oc.samples_used < opt.samples) ++pruned_early;
  }
  EXPECT_GT(pruned_early, 0) << "halving should prune the weak rungs";
  EXPECT_GT(at_full, 0);
  EXPECT_EQ(r1.per_config[r1.best_predicted()].samples_used, opt.samples)
      << "the winner is confirmed at the full budget";
  EXPECT_EQ(r1.strategy, "halving");
}

TEST(Halving, BatchSharedIdenticalAcrossWorkerCounts) {
  auto study = subset(tune::slate_cholesky_study(false), 8);
  tune::TuneOptions base;
  base.policy = Policy::OnlinePropagation;
  base.samples = 4;
  base.strategy = "halving";
  base.batch = 2;
  base.workers = 1;
  const tune::TuneResult r1 = tune::run_study(study, base);
  EXPECT_EQ(r1.mode, tune::SweepMode::BatchShared);
  for (int workers : {2, 4}) {
    tune::TuneOptions opt = base;
    opt.workers = workers;
    const tune::TuneResult rw = tune::run_study(study, opt);
    expect_equal_results(r1, rw, "halving workers");
    EXPECT_TRUE(r1.stats.same_statistics(rw.stats));
  }
}
