// critbench: the end-to-end and per-layer benchmark program.
//
//   critbench --workload W --seed N --seconds S --work-dir DIR
//             [--trace-out FILE] [--smoke]
//
// Runs one workload (sweep-local, sweep-parallel, sweep-daemon,
// sweep-sharded; README.md says why each exists) as a closed loop of
// passes for S seconds through the public entry points a user calls, checks
// every pass against its reference, and prints one JSON report as the last
// line of stdout.  run.py builds this binary, runs it, and turns the report
// (plus, with --trace-out, the Chrome trace it writes) into the benchmark's
// result line.
//
// The seed is the only input: it becomes TuneOptions::seed_salt of every
// sweep.  With --trace-out the run records trace spans around every call
// the benchmark makes into a layer (category "bench") and, after each pass,
// probes the layers the passes bypass on the states the pass produced
// (measure_config, the statistics codec, daemon status round trips).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fsio.hpp"
#include "core/stat_store.hpp"
#include "dist/checkpoint.hpp"
#include "dist/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "tune/tuner.hpp"

namespace core = critter::core;
namespace dist = critter::dist;
namespace obs = critter::obs;
namespace serve = critter::serve;
namespace tune = critter::tune;
using critter::Policy;

namespace {

double now_s() { return core::monotonic_s(); }

// --- options ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string work_dir;
  std::string trace_out;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "critbench: %s\nusage: critbench --workload W --seed N "
               "--seconds S --work-dir DIR [--trace-out FILE] [--smoke]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty() || a.work_dir.empty())
    usage("--workload and --work-dir are required");
  return a;
}

// --- the sweeps a workload runs -------------------------------------------

struct Sweep {
  std::string label;
  tune::Study study;
  tune::TuneOptions opt;
  core::StatSnapshot base;  ///< state after the warm-up's first half
};

struct SweepSpec {
  const char* workload;
  Policy policy;
  bool reset;
  double tolerance;
};

enum class Kind { Local, Parallel, Daemon, Sharded };

Kind kind_of(const std::string& name) {
  if (name == "sweep-local") return Kind::Local;
  if (name == "sweep-parallel") return Kind::Parallel;
  if (name == "sweep-daemon") return Kind::Daemon;
  if (name == "sweep-sharded") return Kind::Sharded;
  usage(("unknown workload " + name).c_str());
}

constexpr int kWorkers = 2;       // sweep-parallel pool size
constexpr int kBatch = 4;         // sweep-parallel batch size
constexpr int kShards = 2;        // sweep-sharded fleet size
constexpr int kExchangeEvery = 2; // sweep-sharded exchange interval
constexpr int kSamples = 2;       // selective samples per configuration

std::vector<SweepSpec> specs_of(Kind k) {
  // The paper's per-study settings: Capital keeps statistics across
  // configurations and gains most from eager propagation; SLATE and CANDMC
  // reset statistics per configuration under online propagation.
  if (k == Kind::Local) {
    std::vector<SweepSpec> out;
    for (double tol : {0.25, 1.0 / 64.0}) {
      out.push_back({"capital-cholesky", Policy::EagerPropagation, false, tol});
      out.push_back({"slate-cholesky", Policy::OnlinePropagation, true, tol});
      out.push_back({"candmc-qr", Policy::OnlinePropagation, true, tol});
      out.push_back({"slate-qr", Policy::OnlinePropagation, true, tol});
    }
    return out;
  }
  // The shared-statistics paths: both Cholesky studies with persistent
  // statistics, so every layer between sessions carries real state.
  return {{"capital-cholesky", Policy::EagerPropagation, false, 0.25},
          {"slate-cholesky", Policy::OnlinePropagation, false, 0.25}};
}

std::vector<Sweep> build_sweeps(Kind k, std::uint64_t seed, bool smoke) {
  std::vector<Sweep> out;
  for (const SweepSpec& s : specs_of(k)) {
    Sweep sw;
    sw.study = tune::workload_study(s.workload, false);
    if (smoke && sw.study.configs.size() > 8) sw.study.configs.resize(8);
    sw.opt.policy = s.policy;
    sw.opt.tolerance = s.tolerance;
    sw.opt.reset_per_config = s.reset;
    sw.opt.samples = kSamples;
    sw.opt.seed_salt = seed;
    if (k == Kind::Parallel) {
      sw.opt.workers = kWorkers;
      sw.opt.batch = kBatch;
    }
    sw.label = std::string(s.workload) + " " + critter::policy_name(s.policy) +
               " log2(eps)=" +
               std::to_string(static_cast<int>(std::log2(s.tolerance)));
    out.push_back(std::move(sw));
  }
  return out;
}

// --- bitwise result comparison --------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_outcome(const tune::ConfigOutcome& a, const tune::ConfigOutcome& b) {
  return a.config.index == b.config.index && same_bits(a.true_time, b.true_time) &&
         same_bits(a.pred_time, b.pred_time) && same_bits(a.err, b.err) &&
         same_bits(a.true_comp_time, b.true_comp_time) &&
         same_bits(a.pred_comp_time, b.pred_comp_time) &&
         same_bits(a.comp_err, b.comp_err) && same_bits(a.sel_wall, b.sel_wall) &&
         same_bits(a.sel_kernel_time, b.sel_kernel_time) &&
         a.executed == b.executed && a.skipped == b.skipped &&
         a.evaluated == b.evaluated && a.pruned == b.pruned &&
         a.samples_used == b.samples_used;
}

bool same_totals(const tune::ConfigTotals& a, const tune::ConfigTotals& b) {
  return same_bits(a.tuning_time, b.tuning_time) &&
         same_bits(a.full_time, b.full_time) &&
         same_bits(a.kernel_time, b.kernel_time) &&
         same_bits(a.full_kernel_time, b.full_kernel_time);
}

/// Empty when `got` equals `want` bit for bit (outcomes, totals,
/// aggregates, statistics); otherwise what differs.
std::string diff_results(const tune::TuneResult& got,
                         const tune::TuneResult& want) {
  if (got.per_config.size() != want.per_config.size())
    return "configuration count differs";
  for (std::size_t i = 0; i < got.per_config.size(); ++i)
    if (!same_outcome(got.per_config[i], want.per_config[i]))
      return "outcome of configuration " + std::to_string(i) + " differs";
  if (got.per_config_totals.size() != want.per_config_totals.size())
    return "totals count differs";
  for (std::size_t i = 0; i < got.per_config_totals.size(); ++i)
    if (!same_totals(got.per_config_totals[i], want.per_config_totals[i]))
      return "totals of configuration " + std::to_string(i) + " differ";
  if (!same_bits(got.tuning_time, want.tuning_time) ||
      !same_bits(got.full_time, want.full_time) ||
      !same_bits(got.kernel_time, want.kernel_time) ||
      !same_bits(got.full_kernel_time, want.full_kernel_time))
    return "aggregate modeled times differ";
  if (!got.stats.same_statistics(want.stats)) return "statistics differ";
  return "";
}

// --- measurement state ----------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Tally {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  std::vector<double> batch_ms;      ///< per batch round, as the caller waits
  std::vector<double> pass_sweep_s;  ///< per pass: mean per-study sweep wall
  std::vector<double> pass_wall_s;   ///< per pass: wall of its sweep phase
  std::vector<double> pass_rate;     ///< per pass: configurations per second
  std::int64_t configs = 0;          ///< configurations evaluated
  /// Per-layer values read from results and counters (README.md).
  std::map<std::string, double> layer;
  /// Denominators for the span-derived per-layer figures.
  std::map<std::string, double> counts;
  std::map<std::string, std::int64_t> spans;  ///< bench spans emitted

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
    std::fprintf(stderr, "critbench: FAILED %s\n", what.c_str());
  }
  void add(const char* name, double v) { layer[name] += v; }
  void count(const char* name, double v) { counts[name] += v; }
  void span(const char* name, std::int64_t n = 1) { spans[name] += n; }
};

void print_modeled_rows(const std::vector<Sweep>& sweeps,
                        const std::vector<tune::TuneResult>& modeled) {
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const tune::TuneResult& r = modeled[i];
    if (r.per_config.empty()) continue;
    std::printf("  %-48s speedup %.2fx  kernel-time-reduction %.2fx  "
                "accuracy %.2f%%  selection %.2f%%  (%d configs)\n",
                sweeps[i].label.c_str(),
                r.full_time / std::max(r.tuning_time, 1e-300),
                r.full_kernel_time / std::max(r.kernel_time, 1e-300),
                100.0 * (1.0 - r.mean_err()), 100.0 * r.selection_quality(),
                r.evaluated_configs);
  }
}

// --- per-pass layer accounting -------------------------------------------

void add_profiler_layer(Tally& t, const tune::TuneResult& r) {
  for (const tune::ConfigOutcome& oc : r.per_config) {
    if (!oc.evaluated) continue;
    t.count("profiler.executed", static_cast<double>(oc.executed));
    t.count("profiler.skipped", static_cast<double>(oc.skipped));
    t.count("profiler.samples", oc.samples_used);
    t.count("profiler.configs", 1);
  }
}

/// Layer probes on the states a pass produced (traced runs only): one full
/// instrumented execution per probed configuration, and the statistics
/// codec on the sweep's final state against its half-sweep base.
void probe_layers(Tally& t, const std::vector<Sweep>& sweeps,
                  const std::vector<core::StatSnapshot>& finals) {
  std::vector<std::string> probed;
  for (const Sweep& sw : sweeps) {
    if (std::find(probed.begin(), probed.end(), sw.study.workload) !=
        probed.end())
      continue;
    probed.push_back(sw.study.workload);
    const std::size_t n = sw.study.configs.size();
    for (std::size_t pos : {std::size_t{0}, n / 3, 2 * n / 3}) {
      const std::uint64_t ev0 = obs::counter("sim.p2p_msgs").value() +
                                obs::counter("sim.coll_ops").value();
      {
        obs::ScopedSpan span("bench.sim.measure_config", "bench");
        tune::measure_config(sw.study, sw.study.configs[pos], sw.opt.seed_salt);
      }
      const std::uint64_t ev1 = obs::counter("sim.p2p_msgs").value() +
                                obs::counter("sim.coll_ops").value();
      t.count("sim.events", static_cast<double>(ev1 - ev0));
      t.span("bench.sim.measure_config");
    }
  }
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const core::StatSnapshot& fin = finals[i];
    const core::StatSnapshot& base = sweeps[i].base;
    if (fin.empty() || base.empty() || fin.nranks() != base.nranks()) continue;
    std::string full;
    {
      obs::ScopedSpan span("bench.stat_store.encode", "bench");
      full = fin.to_string();
    }
    core::StatSnapshot back;
    {
      obs::ScopedSpan span("bench.stat_store.parse", "bench");
      back = core::StatSnapshot::from_string(full);
    }
    if (!back.same_statistics(fin)) t.fail("statistics codec round trip");
    const std::string base_full = base.to_string();
    core::StatSnapshot merged = fin;
    std::string patch;
    {
      obs::ScopedSpan span("bench.stat_store.patch_encode", "bench");
      patch = core::encode_sparse_patch(base_full, full);
    }
    {
      obs::ScopedSpan span("bench.stat_store.merge", "bench");
      merged.merge(base);
    }
    t.count("stat_store.bytes", static_cast<double>(full.size()));
    t.count("stat_store.patch_bytes", static_cast<double>(patch.size()));
    t.count("stat_store.probes", 1);
    for (const char* s : {"bench.stat_store.encode", "bench.stat_store.parse",
                          "bench.stat_store.patch_encode",
                          "bench.stat_store.merge"})
      t.span(s);
  }
}

// --- workload passes ------------------------------------------------------

/// One ask/evaluate/tell session per sweep, timed per batch round.
tune::TuneResult tuner_sweep(const Sweep& sw, Tally& t) {
  tune::Tuner session(sw.study, sw.opt);
  while (true) {
    const double b0 = now_s();
    std::vector<int> batch;
    {
      obs::ScopedSpan span("bench.tune.ask", "bench");
      batch = session.ask();
    }
    t.span("bench.tune.ask");
    if (batch.empty()) break;
    std::vector<tune::ConfigOutcome> out;
    {
      obs::ScopedSpan span("bench.tune.evaluate", "bench");
      out = session.evaluate(batch);
    }
    {
      obs::ScopedSpan span("bench.tune.tell", "bench");
      session.tell(out);
    }
    t.span("bench.tune.evaluate");
    t.span("bench.tune.tell");
    t.batch_ms.push_back(1e3 * (now_s() - b0));
    t.count("tune.batches", 1);
    t.count("tune.configs", static_cast<double>(batch.size()));
  }
  obs::ScopedSpan span("bench.tune.result", "bench");
  t.span("bench.tune.result");
  return session.result();
}

struct Workload {
  Kind kind;
  Args args;
  std::vector<Sweep> sweeps;
  std::vector<tune::TuneResult> refs;  ///< per sweep; empty for Local
  /// Per sweep, what the modeled metrics read: the first pass's results
  /// (sweep-local also checks every later pass against them), or the
  /// reference the daemon is checked against.  Empty until measured.
  std::vector<tune::TuneResult> modeled;
  bool tracing = false;
  int pass_no = 0;

  std::string dir(const std::string& name) const {
    return args.work_dir + "/" + name;
  }

  // ---- set-up ------------------------------------------------------------

  /// Build the studies, start the daemon or fleet once, and run the untimed
  /// warm-up: every sweep over the first half of its configurations, whose
  /// final state is the base of the statistics probes.
  void setup(int rep) {
    sweeps = build_sweeps(kind, args.seed, args.smoke);
    for (Sweep& sw : sweeps) {
      const int n = static_cast<int>(sw.study.configs.size());
      int half = n / 2;
      if (kind == Kind::Parallel) half -= half % kBatch;
      tune::TuneOptions o = sw.opt;
      o.config_end = std::max(half, 1);
      sw.base = tune::run_study(sw.study, o).stats;
    }
    if (kind == Kind::Daemon) {
      const std::string sd = dir("setup-daemon-" + std::to_string(rep));
      {
        serve::TunerDaemon daemon({sd});
        for (std::size_t i = 0; i < sweeps.size(); ++i) {
          serve::ClientOptions copt;
          copt.port = daemon.port();
          serve::TunerClient client(sweeps[i].study, sweeps[i].opt,
                                    "s" + std::to_string(i), copt);
          client.status();
        }
        daemon.stop();
      }
      core::remove_dir_tree(sd);
    } else if (kind == Kind::Sharded) {
      dist::SubprocessExecutor exec(subprocess_options());
      tune::TuneOptions o = sweeps[0].opt;
      o.config_end = 2 * kShards;
      dist::run_sharded(sweeps[0].study, o, kShards, exec,
                        dist::ExchangePolicy{kExchangeEvery});
    }
  }

  static dist::SubprocessOptions subprocess_options() {
    dist::SubprocessOptions so;
    so.fault.checkpoint_every = 1;
    return so;
  }

  /// What each pass is checked against (not timed): the same sweep at one
  /// worker (parallel), in process (daemon), or on in-process shards
  /// (sharded).  sweep-local checks later passes against its first.
  void build_references() {
    for (const Sweep& sw : sweeps) {
      if (kind == Kind::Parallel) {
        tune::TuneOptions o = sw.opt;
        o.workers = 1;
        refs.push_back(tune::run_study(sw.study, o));
      } else if (kind == Kind::Daemon) {
        refs.push_back(tune::run_study(sw.study, sw.opt));
      } else if (kind == Kind::Sharded) {
        dist::InProcessExecutor inproc;
        refs.push_back(dist::run_sharded(sw.study, sw.opt, kShards, inproc,
                                         dist::ExchangePolicy{kExchangeEvery}));
      }
    }
    if (kind == Kind::Daemon) modeled = refs;
    else modeled.resize(sweeps.size());
  }

  // ---- passes ------------------------------------------------------------

  void pass(Tally& t) {
    ++pass_no;
    obs::ScopedSpan span("bench.pass", "bench", "pass",
                         static_cast<std::uint64_t>(pass_no));
    t.span("bench.pass");
    switch (kind) {
      case Kind::Local:
      case Kind::Parallel: return tuner_pass(t);
      case Kind::Daemon: return daemon_pass(t);
      case Kind::Sharded: return sharded_pass(t);
    }
  }

  void check_result(Tally& t, std::size_t i, const tune::TuneResult& r) {
    obs::ScopedSpan span("bench.check", "bench");
    t.span("bench.check");
    const tune::TuneResult& want =
        kind == Kind::Local ? modeled[i] : refs[i];
    const std::string d = diff_results(r, want);
    if (!d.empty()) t.fail(sweeps[i].label + ": " + d);
  }

  void tuner_pass(Tally& t) {
    std::vector<core::StatSnapshot> finals;
    std::vector<double> walls;
    const std::int64_t configs0 = t.configs;
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      ++t.attempted;
      try {
        const double t0 = now_s();
        tune::TuneResult r;
        {
          obs::ScopedSpan span("bench.sweep", "bench");
          t.span("bench.sweep");
          r = tuner_sweep(sweeps[i], t);
        }
        walls.push_back(now_s() - t0);
        t.configs += r.evaluated_configs;
        if (modeled[i].per_config.empty()) modeled[i] = r;
        check_result(t, i, r);
        add_profiler_layer(t, r);
        finals.push_back(std::move(r.stats));
      } catch (const std::exception& e) {
        t.fail(sweeps[i].label + ": " + e.what());
        finals.emplace_back();
      }
    }
    record_pass(t, walls, sum(walls), configs0);
    if (tracing) probe_layers(t, sweeps, finals);
  }

  static double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  }

  /// `configs0` is t.configs before the pass.
  void record_pass(Tally& t, const std::vector<double>& walls,
                   double phase_wall, std::int64_t configs0) {
    if (walls.empty()) return;
    t.pass_sweep_s.push_back(sum(walls) / static_cast<double>(walls.size()));
    t.pass_wall_s.push_back(phase_wall);
    t.pass_rate.push_back(static_cast<double>(t.configs - configs0) /
                          phase_wall);
  }

  void sharded_pass(Tally& t) {
    std::vector<core::StatSnapshot> finals;
    std::vector<double> walls;
    const std::int64_t configs0 = t.configs;
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      ++t.attempted;
      try {
        const Sweep& sw = sweeps[i];
        dist::SubprocessExecutor exec(subprocess_options());
        const double t0 = now_s();
        tune::TuneResult r;
        {
          obs::ScopedSpan span("bench.dist.run_sharded", "bench");
          r = dist::run_sharded(sw.study, sw.opt, kShards, exec,
                                dist::ExchangePolicy{kExchangeEvery});
        }
        const double wall = now_s() - t0;
        t.span("bench.dist.run_sharded");
        walls.push_back(wall);
        // The launcher never sees single batches: a batch round is the
        // sweep wall over the batches of the largest shard.
        const int n = static_cast<int>(sw.study.configs.size());
        const int per_shard = (n + kShards - 1) / kShards;
        const int bsize = std::max(r.batch, 1);
        const int rounds = (per_shard + bsize - 1) / bsize;
        t.batch_ms.push_back(1e3 * wall / rounds);
        t.configs += r.evaluated_configs;
        if (modeled[i].per_config.empty()) modeled[i] = r;
        check_result(t, i, r);
        add_profiler_layer(t, r);
        t.add("dist.exchange_s", r.phases.exchange);
        t.add("dist.checkpoint_s", r.phases.checkpoint);
        t.add("dist.evaluate_s", r.phases.evaluate);
        t.add("tune.ask_s", r.phases.ask);
        t.add("tune.evaluate_s", r.phases.evaluate);
        t.add("tune.tell_s", r.phases.tell);
        t.count("dist.sweeps", 1);
        t.count("dist.exchange_bytes", static_cast<double>(r.exchange_bytes));
        t.count("dist.exchange_rounds", r.exchange_rounds);
        t.count("tune.batches", static_cast<double>(n) / bsize);
        t.count("tune.configs", r.evaluated_configs);
        finals.push_back(std::move(r.stats));
      } catch (const std::exception& e) {
        t.fail(sweeps[i].label + ": " + e.what());
        finals.emplace_back();
      }
    }
    record_pass(t, walls, sum(walls), configs0);
    if (tracing) probe_layers(t, sweeps, finals);
  }

  // ---- daemon ------------------------------------------------------------

  struct ClientRun {
    std::vector<double> batch_ms;
    double wall = 0.0;
    double rpc_s = 0.0;
    std::int64_t tells = 0;
    std::string error;
  };

  /// One client thread: its own session, one batch per run() call.
  static void client_loop(serve::TunerClient& client, ClientRun& out) {
    try {
      obs::ScopedSpan span("bench.sweep", "bench");
      const double t0 = now_s();
      while (true) {
        const double b0 = now_s();
        serve::ClientReport rep;
        {
          obs::ScopedSpan run_span("bench.serve.client_run", "bench");
          rep = client.run();
        }
        out.rpc_s += rep.ask_tell_wall_s;
        if (rep.tells > 0) {
          out.batch_ms.push_back(1e3 * (now_s() - b0));
          out.tells += rep.tells;
        }
        if (rep.done) break;
        if (rep.tells == 0) throw std::runtime_error("client made no progress");
      }
      out.wall = now_s() - t0;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  }

  static double dir_bytes(const std::string& path) {
    double total = 0.0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(path))
      if (e.is_regular_file()) total += static_cast<double>(e.file_size());
    return total;
  }

  void daemon_pass(Tally& t) {
    const std::string sd = dir("daemon-" + std::to_string(pass_no));
    const std::size_t ns = sweeps.size();
    std::vector<std::unique_ptr<serve::TunerClient>> clients;
    std::vector<ClientRun> runs(ns);
    std::unique_ptr<serve::TunerDaemon> daemon;
    {
      obs::ScopedSpan span("bench.serve.start", "bench");
      t.span("bench.serve.start");
      daemon = std::make_unique<serve::TunerDaemon>(serve::DaemonOptions{sd});
      for (std::size_t i = 0; i < ns; ++i) {
        serve::ClientOptions copt;
        copt.port = daemon->port();
        copt.max_batches = 1;
        clients.push_back(std::make_unique<serve::TunerClient>(
            sweeps[i].study, sweeps[i].opt, "s" + std::to_string(i), copt));
      }
    }
    obs::Histogram& h_ask = obs::histogram("serve.ask_seconds");
    obs::Histogram& h_tell = obs::histogram("serve.tell_seconds");
    obs::Histogram& h_flush = obs::histogram("serve.journal_flush_seconds");
    const double ask0 = h_ask.sum(), tell0 = h_tell.sum(), flush0 = h_flush.sum();
    const double nask0 = static_cast<double>(h_ask.count());
    const double ntell0 = static_cast<double>(h_tell.count());
    const double nflush0 = static_cast<double>(h_flush.count());

    const double t0 = now_s();
    {
      obs::ScopedSpan span("bench.serve.wait_clients", "bench");
      std::vector<std::thread> threads;
      for (std::size_t i = 0; i < ns; ++i)
        threads.emplace_back(client_loop, std::ref(*clients[i]),
                             std::ref(runs[i]));
      for (std::thread& th : threads) th.join();
    }
    const double phase = now_s() - t0;
    t.span("bench.serve.wait_clients");
    t.add("serve.ask_s", h_ask.sum() - ask0);
    t.add("serve.tell_s", h_tell.sum() - tell0);
    t.add("serve.flush_s", h_flush.sum() - flush0);
    t.count("serve.asks", static_cast<double>(h_ask.count()) - nask0);
    t.count("serve.tells", static_cast<double>(h_tell.count()) - ntell0);
    t.count("serve.flushes", static_cast<double>(h_flush.count()) - nflush0);

    std::vector<double> walls;
    const std::int64_t configs0 = t.configs;
    {
      obs::ScopedSpan span("bench.check", "bench");
      t.span("bench.check");
      for (std::size_t i = 0; i < ns; ++i) {
        ++t.attempted;
        const ClientRun& cr = runs[i];
        const std::string& label = sweeps[i].label;
        if (!cr.error.empty()) {
          t.fail(label + ": " + cr.error);
          continue;
        }
        t.span("bench.serve.client_run",
               static_cast<std::int64_t>(cr.batch_ms.size()) + 1);
        t.span("bench.sweep");
        walls.push_back(cr.wall);
        t.batch_ms.insert(t.batch_ms.end(), cr.batch_ms.begin(),
                          cr.batch_ms.end());
        t.add("net.rpc_s", cr.rpc_s);
        t.count("net.batches", static_cast<double>(cr.tells));
        t.count("tune.batches", static_cast<double>(cr.tells));
        t.add("tune.evaluate_s", 1e-3 * Workload::sum(cr.batch_ms) - cr.rpc_s);
        try {
          const serve::StatusReply st = clients[i]->status();
          const tune::TuneResult& ref = refs[i];
          // The journal check below proves the daemon's outcomes equal
          // run_study's bit for bit, so the profiler counts read from it.
          add_profiler_layer(t, ref);
          t.configs += st.evaluated;
          t.count("tune.configs", st.evaluated);
          t.add("net.bytes", static_cast<double>(st.bytes_in + st.bytes_out));
          t.add("serve.journal_bytes", dir_bytes(sd + "/sessions/s" +
                                                 std::to_string(i)));
          if (!st.done || st.best_predicted != ref.best_predicted() ||
              st.evaluated != ref.evaluated_configs)
            t.fail(label + ": daemon status disagrees with run_study: " +
                   st.text);
          const core::StatSnapshot stats =
              core::StatSnapshot::from_string(clients[i]->export_stats());
          if (!stats.same_statistics(ref.stats))
            t.fail(label + ": daemon statistics differ from run_study");
        } catch (const std::exception& e) {
          t.fail(label + ": " + e.what());
        }
      }
    }
    record_pass(t, walls, phase, configs0);

    std::vector<core::StatSnapshot> finals(ns);
    if (tracing) {
      for (std::size_t i = 0; i < ns; ++i) {
        finals[i] = core::StatSnapshot::from_string(clients[i]->export_stats());
        for (int k = 0; k < 10; ++k) {
          obs::ScopedSpan s("bench.serve.status", "bench");
          clients[i]->status();
        }
        t.span("bench.serve.status", 10);
      }
    }
    {
      // stop() journals a final full checkpoint per session; every told
      // outcome and total must match run_study bit for bit.
      obs::ScopedSpan span("bench.serve.stop_check", "bench");
      t.span("bench.serve.stop_check");
      clients.clear();
      daemon->stop();
      daemon.reset();
      for (std::size_t i = 0; i < ns; ++i) {
        if (!runs[i].error.empty()) continue;
        check_journal(t, sd + "/sessions/s" + std::to_string(i), i);
      }
      core::remove_dir_tree(sd);
    }
    if (tracing) probe_layers(t, sweeps, finals);
  }

  void check_journal(Tally& t, const std::string& session_dir, std::size_t i) {
    const Sweep& sw = sweeps[i];
    const tune::TuneResult& ref = refs[i];
    const int n = static_cast<int>(sw.study.configs.size());
    dist::ShardCheckpoint ck;
    std::int64_t seq = 0;
    std::string slot;
    try {
      if (!dist::load_latest_checkpoint(session_dir, sw.study, {0, 0, n}, &ck,
                                        &seq, &slot)) {
        t.fail(sw.label + ": daemon journal has no checkpoint");
        return;
      }
    } catch (const std::exception& e) {
      t.fail(sw.label + ": daemon journal unreadable: " + e.what());
      return;
    }
    int told = 0;
    for (const dist::ShardCheckpoint::ToldBatch& tb : ck.told) {
      for (std::size_t k = 0; k < tb.positions.size(); ++k) {
        const int pos = tb.positions[k];
        ++told;
        if (!same_outcome(tb.outcomes[k], ref.per_config[pos])) {
          t.fail(sw.label + ": daemon outcome of configuration " +
                 std::to_string(pos) + " differs from run_study");
          return;
        }
      }
    }
    if (told != n) t.fail(sw.label + ": daemon journal covers " +
                          std::to_string(told) + " of " + std::to_string(n) +
                          " configurations");
    for (int k = 0; k < n && k < static_cast<int>(ck.totals.size()); ++k)
      if (!same_totals(ck.totals[k], ref.per_config_totals[k])) {
        t.fail(sw.label + ": daemon totals differ from run_study");
        return;
      }
  }
};

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const Workload& w, const Tally& t,
                               double setup_s, double rss_mb) {
  const std::vector<tune::TuneResult>& rs = w.modeled;
  double full = 0, tuning = 0, fk = 0, k = 0, err = 0, sel = 0;
  int nerr = 0, nsel = 0;
  for (const tune::TuneResult& r : rs) {
    if (r.per_config.empty()) continue;
    full += r.full_time;
    tuning += r.tuning_time;
    fk += r.full_kernel_time;
    k += r.kernel_time;
    for (const tune::ConfigOutcome& oc : r.per_config)
      if (oc.evaluated) {
        err += oc.err;
        ++nerr;
      }
    sel += r.selection_quality();
    ++nsel;
  }
  return {
      {"configs_per_s", median(t.pass_rate), "configs/s"},
      {"sweep_s_p50", median(t.pass_sweep_s), "s"},
      {"batch_ms_p50", quantile(t.batch_ms, 0.50), "ms"},
      {"batch_ms_p95", quantile(t.batch_ms, 0.95), "ms"},
      {"tuning_speedup", full / std::max(tuning, 1e-300), "x"},
      {"kernel_time_reduction", fk / std::max(k, 1e-300), "x"},
      {"prediction_accuracy", 100.0 * (1.0 - err / std::max(nerr, 1)), "%"},
      {"selection_quality", 100.0 * sel / std::max(nsel, 1), "%"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

double peak_rss_mb(Kind kind) {
  rusage self{}, kids{};
  ::getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (kind == Kind::Sharded) {
    ::getrusage(RUSAGE_CHILDREN, &kids);  // the largest shard process
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb / 1024.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename F>
std::string json_map(const Map& m, F value) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_str(k) + ":" + value(v);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  // SubprocessExecutor re-execs this binary once per shard.
  if (dist::is_shard_worker(argc, argv))
    return dist::shard_worker_main(argc, argv);

  const Args args = parse_args(argc, argv);
  const std::string build_type = CRITBENCH_BUILD_TYPE;
  if (build_type != "Release" && !args.smoke) {
    std::fprintf(stderr,
                 "critbench: refusing to record from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.empty() ? "(no build type)" : build_type.c_str());
    return 2;
  }
  core::make_dir(args.work_dir);
  // Shard run directories and every other temporary stay in the work dir.
  ::setenv("TMPDIR", args.work_dir.c_str(), 1);

  Workload w;
  w.kind = kind_of(args.workload);
  w.args = args;
  w.tracing = !args.trace_out.empty();
  if (w.tracing) {
    obs::trace_set_capacity(std::size_t{1} << 16);
    obs::trace_force(true);
  }
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("critbench: workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, w.tracing ? 1 : 0, args.smoke ? 1 : 0);
  std::printf("critbench: host cores_online=%ld compiler=%s build_type=%s\n",
              cores, CRITBENCH_COMPILER, build_type.c_str());

  Tally t;
  std::vector<double> setups;
  double loop_wall = 0.0;
  try {
    const int reps = args.smoke ? 1 : 3;
    for (int rep = 0; rep < reps; ++rep) {
      const double t0 = now_s();
      {
        obs::ScopedSpan span("bench.setup", "bench");
        w.setup(rep);
      }
      setups.push_back(now_s() - t0);
      t.span("bench.setup");
    }
    {
      obs::ScopedSpan span("bench.reference", "bench");
      w.build_references();
    }
    t.span("bench.reference");

    // The measured loop: whole passes until the time is up.
    const int min_passes = args.smoke ? 1 : 2;
    const double t0 = now_s();
    int passes = 0;
    while (passes < min_passes || now_s() - t0 < args.seconds) {
      w.pass(t);
      ++passes;
      if (args.smoke) break;
    }
    loop_wall = now_s() - t0;
  } catch (const std::exception& e) {
    t.fail(std::string("workload aborted: ") + e.what());
  }
  if (t.attempted == 0) t.attempted = 1;

  // Layer values read from results and counters; run.py divides the span
  // self times by the counts.
  const double rss = peak_rss_mb(w.kind);
  if (!w.modeled.empty()) {
    std::printf("critbench: modeled results (seed %llu)\n",
                static_cast<unsigned long long>(args.seed));
    print_modeled_rows(w.sweeps, w.modeled);
  }
  std::vector<Metric> e2e;
  if (!t.pass_sweep_s.empty())
    e2e = end_to_end(w, t, median(setups), rss);

  std::uint64_t dropped = 0;
  if (w.tracing) {
    dropped = obs::trace_dropped();
    if (!obs::trace_write_chrome(args.trace_out))
      t.fail("could not write " + args.trace_out);
  }
  if (dropped > 0) t.fail("trace rings dropped " + std::to_string(dropped) +
                          " events");

  std::string out = "{";
  out += "\"workload\":" + json_str(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"host\":{\"cores_online\":" + std::to_string(cores) +
         ",\"compiler\":" + json_str(CRITBENCH_COMPILER) +
         ",\"build_type\":" + json_str(build_type) + "}";
  out += ",\"attempted\":" + std::to_string(t.attempted);
  out += ",\"failed\":" + std::to_string(t.failed);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < t.errors.size(); ++i)
    out += (i ? "," : "") + json_str(t.errors[i]);
  out += "]";
  out += ",\"end_to_end\":{";
  for (std::size_t i = 0; i < e2e.size(); ++i)
    out += (i ? "," : "") + json_str(e2e[i].name) + ":{\"value\":" +
           json_num(e2e[i].value) + ",\"unit\":" + json_str(e2e[i].unit) + "}";
  out += "}";
  out += ",\"setup_s\":[";
  for (std::size_t i = 0; i < setups.size(); ++i)
    out += (i ? "," : "") + json_num(setups[i]);
  out += "]";
  out += ",\"pass_wall_s\":[";
  for (std::size_t i = 0; i < t.pass_wall_s.size(); ++i)
    out += (i ? "," : "") + json_num(t.pass_wall_s[i]);
  out += "]";
  out += ",\"loop_wall_s\":" + json_num(loop_wall);
  out += ",\"batch_samples\":" + std::to_string(t.batch_ms.size());
  out += ",\"layer\":" + json_map(t.layer, json_num);
  out += ",\"counts\":" + json_map(t.counts, json_num);
  out += ",\"spans\":" +
         json_map(t.spans, [](std::int64_t v) { return std::to_string(v); });
  out += ",\"trace_dropped\":" + std::to_string(dropped);
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return t.failed == 0 ? 0 : 1;
}
