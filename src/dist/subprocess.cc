// SubprocessExecutor and the --shard-worker entry point: one OS process
// per shard, coordinated exclusively through run-directory files
// (dist/protocol.hpp).  Layout:
//
//   <run_dir>/run.txt            run manifest: study identity (workload,
//                                scale, configuration indices), tuning
//                                options, shard ranges, exchange interval,
//                                fault-injection spec
//   <run_dir>/warm.snap[.ok]     optional warm-start snapshot
//   <run_dir>/shard<k>/          per-shard: result.bin[.ok] (published
//                                ShardResult), ckpt_a.bin/ckpt_b.bin[.ok]
//                                (alternating recovery checkpoints),
//                                heartbeat (atomically rewritten liveness
//                                counter), error.txt, log.txt
//   <run_dir>/exchange/          mailbox: s<k>_r<j>.snap[.ok] round deltas,
//                                s<k>.done final round-count markers
//   <run_dir>/abort[.ok]         published by the launcher on fleet
//                                failure; waiting workers poll it and bail
//
// Fault tolerance (DESIGN.md §10): the launcher classifies worker faults —
// nonzero exit, stalled heartbeat, unusable result — and relaunches with
// exponential backoff per FaultPolicy instead of aborting on first fault.
// A relaunched worker resumes from its last valid checkpoint and replays
// the recorded session prefix, so recovery is bit-identical to an
// uninterrupted run.  Terminal faults either abort the fleet (the strict
// default, with the shard and kept run directory named in the error) or
// degrade: the launcher completes the shard's range in-process.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/checkpoint.hpp"
#include "dist/executor.hpp"
#include "dist/manifest.hpp"
#include "dist/protocol.hpp"
#include "dist/shard_session.hpp"
#include "dist/wire.hpp"
#include "net/blob.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace critter::dist {

namespace {

// ---------------------------------------------------------------------------
// ShardResult wire format (framing helpers in dist/wire.hpp)
// ---------------------------------------------------------------------------

// Version 4: appends the per-phase wall-time breakdown (tune::PhaseTimes)
// after the fault counters — timing metadata the fold sums into
// TuneResult::phases; never part of any bit-identity comparison.
constexpr char kResultMagic[8] = {'C', 'R', 'S', 'H', 'R', 'E', 'S', '4'};

std::string serialize_result(const ShardResult& r) {
  WireWriter w;
  w.raw(kResultMagic, sizeof kResultMagic);
  w.i32(r.range.index);
  w.i32(r.range.begin);
  w.i32(r.range.end);
  w.u8(static_cast<std::uint8_t>(r.mode));
  w.str(r.strategy);
  w.i32(r.effective_workers);
  w.i32(r.batch);
  w.str(r.fallback_reason);
  w.i32(r.evaluated);
  w.i32(r.exchange_rounds);
  w.i32(r.exchange_skips);
  w.i32(r.checkpoints);
  w.i32(r.resumed_batches);
  w.i64(r.exchange_bytes);
  w.f64(r.phases.ask);
  w.f64(r.phases.evaluate);
  w.f64(r.phases.tell);
  w.f64(r.phases.exchange);
  w.f64(r.phases.checkpoint);
  for (std::size_t j = 0; j < r.outcomes.size(); ++j) {
    write_outcome(w, r.outcomes[j]);
    write_totals(w, r.totals[j]);
  }
  w.u8(r.stats.empty() ? 0 : 1);
  if (!r.stats.empty()) {
    const std::string blob = r.stats.to_string();
    w.raw(blob.data(), blob.size());
  }
  return w.out;
}

/// Parse a published result; `study` rebinds the configurations (the wire
/// carries only their absolute indices, which must match the launcher's
/// view of the study).
ShardResult parse_result(const std::string& payload, const tune::Study& study,
                         const ShardRange& expect) {
  WireReader r{payload};
  char magic[sizeof kResultMagic];
  r.raw(magic, sizeof magic);
  CRITTER_CHECK(std::memcmp(magic, kResultMagic, sizeof kResultMagic) == 0,
                "shard result: bad magic");
  ShardResult out;
  out.range.index = r.i32();
  out.range.begin = r.i32();
  out.range.end = r.i32();
  CRITTER_CHECK(out.range.index == expect.index &&
                    out.range.begin == expect.begin &&
                    out.range.end == expect.end,
                "shard result: range does not match the launcher's shard "
                "plan (stale run directory?)");
  out.mode = static_cast<tune::SweepMode>(r.u8());
  out.strategy = r.str();
  out.effective_workers = r.i32();
  out.batch = r.i32();
  out.fallback_reason = r.str();
  out.evaluated = r.i32();
  out.exchange_rounds = r.i32();
  out.exchange_skips = r.i32();
  out.checkpoints = r.i32();
  out.resumed_batches = r.i32();
  out.exchange_bytes = r.i64();
  out.phases.ask = r.f64();
  out.phases.evaluate = r.f64();
  out.phases.tell = r.f64();
  out.phases.exchange = r.f64();
  out.phases.checkpoint = r.f64();
  const int n = expect.end - expect.begin;
  out.outcomes.resize(n);
  out.totals.resize(n);
  for (int j = 0; j < n; ++j) {
    out.outcomes[j].config = study.configs[expect.begin + j];
    read_outcome(r, out.outcomes[j], "shard result");
    read_totals(r, out.totals[j]);
  }
  if (r.u8() != 0) {
    out.stats = core::StatSnapshot::from_string(r.bytes(r.remaining()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exchange mailbox naming
// ---------------------------------------------------------------------------

std::string delta_name(int shard, int round) {
  std::string n = "s";
  n += std::to_string(shard);
  n += "_r";
  n += std::to_string(round);
  n += ".snap";
  return n;
}
std::string done_name(int shard) {
  std::string n = "s";
  n += std::to_string(shard);
  n += ".done";
  return n;
}
/// Fold-progress marker for mailbox GC: "rounds=<n>" = this shard has
/// completed n full fold rounds, i.e. consumed every peer's round-(n-1)
/// delta.  Plain put (monotonic counter; readers tolerate absence).
std::string progress_name(int shard) {
  std::string n = "s";
  n += std::to_string(shard);
  n += ".progress";
  return n;
}

// ---------------------------------------------------------------------------
// Fault injection (test-only)
// ---------------------------------------------------------------------------

/// "<index>:<mode>[:<arg>[:<times>]]" from the CRITTER_SHARD_FAULT
/// environment variable (overrides) or the run manifest's `fault=` key.
/// Modes and their `arg`:
///   crash-after-batch   _exit(42) after `arg` batches of the attempt (1)
///   crash-on-start      _exit(41) before doing anything
///   hang-after-batch    stop beating and sleep forever after `arg` batches
///   corrupt-delta       corrupt the published round-`arg` delta (0)
///   corrupt-checkpoint  corrupt checkpoint #`arg` (2), then _exit(43)
///   kill-mid-checkpoint SIGKILL between checkpoint #`arg` (2)'s payload
///                       rename and its manifest write (the kill-9 torn
///                       point)
///   slow-exchange       delay the round-0 delta publish by `arg` ms (1000)
///   skip-result         finish but never publish the result (always fires)
/// `times` bounds how many worker attempts fire the fault (default 1), via
/// a counter file in the shard directory — a relaunch runs clean, which is
/// what makes recovery testable.
struct FaultSpec {
  std::string mode;
  long arg = 0;
  long times = 1;
};

FaultSpec shard_fault(int index, const Manifest& m) {
  std::string s;
  if (const char* env = std::getenv("CRITTER_SHARD_FAULT"); env != nullptr)
    s = env;
  else if (const auto it = m.find("fault"); it != m.end())
    s = it->second;
  if (s.empty()) return {};
  std::vector<std::string> tok;
  std::istringstream is(s);
  std::string t;
  while (std::getline(is, t, ':')) tok.push_back(t);
  if (tok.size() < 2) return {};
  if (std::atoi(tok[0].c_str()) != index) return {};
  FaultSpec f;
  f.mode = tok[1];
  if (tok.size() > 2 && !tok[2].empty()) f.arg = std::atol(tok[2].c_str());
  if (tok.size() > 3 && !tok[3].empty()) f.times = std::atol(tok[3].c_str());
  return f;
}

/// Consume one firing of the fault; false once `times` attempts fired.
bool fault_fires(const std::string& shard_dir, const FaultSpec& f) {
  const std::string marker = shard_dir + "/fault_" + f.mode + ".count";
  long fired = 0;
  if (file_exists(marker)) {
    try {
      fired = std::atol(read_file(marker).c_str());
    } catch (...) {
    }
  }
  if (fired >= f.times) return false;
  write_file(marker, std::to_string(fired + 1));
  return true;
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

struct WorkerArgs {
  std::string run_dir;
  int shard = -1;
  /// "host:port" of the launcher's blob server; empty = the run directory
  /// itself is the shared store (the historical file transport).
  std::string connect;
  /// Per-op deadlines for the socket transport, mapped from the launcher's
  /// FaultPolicy phases (connect/handshake from startup_deadline_s, every
  /// steady-state request from progress_deadline_s).
  double connect_deadline_s = 60.0;
  double op_deadline_s = 300.0;
};

WorkerArgs parse_worker_args(int argc, char** argv) {
  WorkerArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shard-dir=", 0) == 0) a.run_dir = arg.substr(12);
    if (arg.rfind("--shard-index=", 0) == 0)
      a.shard = std::atoi(arg.c_str() + 14);
    if (arg.rfind("--connect=", 0) == 0) a.connect = arg.substr(10);
    if (arg.rfind("--connect-deadline=", 0) == 0)
      a.connect_deadline_s = std::strtod(arg.c_str() + 19, nullptr);
    if (arg.rfind("--op-deadline=", 0) == 0)
      a.op_deadline_s = std::strtod(arg.c_str() + 14, nullptr);
  }
  CRITTER_CHECK(!a.run_dir.empty() && a.shard >= 0,
                "--shard-worker needs --shard-dir=DIR and --shard-index=N");
  return a;
}

/// Graceful-shutdown flag: SIGTERM/SIGINT ask the worker to flush a final
/// full checkpoint (plus its statistics snapshots, which the checkpoint
/// carries) at the next batch boundary and exit; a relaunch resumes
/// exactly where the flush left off.
volatile std::sig_atomic_t g_worker_terminate = 0;

void worker_signal_handler(int) { g_worker_terminate = 1; }

/// The exit code of a signal-flushed worker: a classified fault (so the
/// launcher relaunches and resumes per its FaultPolicy), distinguishable
/// in diagnostics from a crash.
constexpr int kTerminatedExit = 40;

void check_not_aborted(net::Store& store) {
  // The abort marker goes through the same atomic publish protocol as
  // every other run artifact, so a poll never observes a half-written
  // reason.
  if (!store.published("abort")) return;
  std::string why;
  try {
    why = store.read_published("abort");
  } catch (...) {
  }
  CRITTER_CHECK(false, "run aborted by launcher: " + why);
}

/// Per-shard liveness blob: an atomically rewritten monotone counter.  The
/// launcher's stall detector only reads whether the content *changed*, so
/// pid + counter make every write (and every relaunch) distinct.  Beats are
/// best-effort — a worker must never die because its heartbeat write
/// failed.
struct Heartbeat {
  /// Cadence of beats from wait loops (beat_if_due); far below any stall
  /// deadline, so a waiting worker always reads as live.
  static constexpr double kInterval_s = 0.1;

  net::Store* store = nullptr;
  std::string key;
  std::uint64_t n = 0;
  double last_at = 0.0;  ///< monotonic time of the last beat

  void beat_if_due(int batches) {
    if (monotonic_s() - last_at >= kInterval_s) beat(batches);
  }
  void beat(int batches) {
    last_at = monotonic_s();
    // Line 1 is the liveness counter plus the current execution phase (the
    // stall report quotes phase= and batches=); line 2 is a compact metrics
    // snapshot so the monitor can say *why* a shard is slow, not just that
    // it is.
    std::string s = "pid=" + std::to_string(static_cast<long>(::getpid())) +
                    " beat=" + std::to_string(n++) +
                    " batches=" + std::to_string(batches) +
                    " phase=" + obs::current_phase() + "\n" +
                    "metrics: " + obs::metrics_compact() + "\n";
    try {
      store->put(key, s);
    } catch (...) {
    }
  }
};

/// A peer's round delta as read from the mailbox.
struct PeerDelta {
  bool skipped = false;  ///< non-strict: unreadable or late, left out
  core::StatSnapshot snap;
  std::int64_t bytes = 0;  ///< mailbox payload size (wire accounting)
};

/// Per-rank dirty-tracking versions of a snapshot (DESIGN.md §13).  Equal
/// vectors mean "no table was reassigned or mutated since the last capture"
/// — every mutation path bumps, and the profiler store's counters only
/// grow, so equality is a sound pre-filter for skipping re-serialization.
std::vector<std::uint64_t> version_vector(const core::StatSnapshot& s) {
  std::vector<std::uint64_t> v;
  v.reserve(s.ranks.size());
  for (const core::KernelTable& t : s.ranks) v.push_back(t.version);
  return v;
}

/// One checkpoint-increment patch field: "" when the serialized state is
/// byte-identical, a wholesale payload when the previous record had none,
/// otherwise a mode-0 sparse patch shipping only dirty rank chunks.  Throws
/// when the transition cannot be patched (state reset to empty, rank-count
/// change); the caller falls back to a full checkpoint slot.
std::string make_patch(const std::string& base, const std::string& cur) {
  if (base == cur) return {};
  if (base.empty()) return cur;
  CRITTER_CHECK(!cur.empty(),
                "checkpoint increment: statistics state reset to empty");
  return core::encode_sparse_patch(base, cur);
}

/// Where a peer's round delta stands once the wait ends.
enum class PeerState {
  Published,  ///< the delta is in the mailbox
  Absent,     ///< the peer finished with fewer rounds: none is coming
  TimedOut,   ///< non-strict deadline passed (strict throws instead)
};

/// Block until peer `p`'s round-`round` delta is published or provably
/// absent (the peer finished earlier).  Strict mode fails past the
/// deadline (today's abort semantics); non-strict returns TimedOut
/// instead.  Beats `hb` while waiting so a legitimately-waiting worker is
/// never stall-killed.  Polls back off exponentially from tens of
/// microseconds to kMaxPoll_us: a peer a few microseconds behind is seen
/// at once, a long wait costs at most ~1000 mailbox probes a second.
PeerState await_peer_delta(net::Store& store, int p, int round,
                           double deadline_s, bool strict, Heartbeat& hb,
                           int batches) {
  constexpr int kMaxPoll_us = 1000;
  const double deadline = monotonic_s() + deadline_s;
  int poll_us = 20;
  while (true) {
    if (store.published("exchange/" + delta_name(p, round)))
      return PeerState::Published;
    if (store.published("exchange/" + done_name(p))) {
      const std::string marker =
          store.read_published("exchange/" + done_name(p));
      int rounds = -1;
      if (std::sscanf(marker.c_str(), "rounds=%d", &rounds) != 1) rounds = -1;
      CRITTER_CHECK(rounds >= 0,
                    "stale done marker from shard " + std::to_string(p));
      // The peer publishes every delta before its done marker, so a
      // visible marker with rounds <= round proves no delta is coming.
      if (rounds <= round) return PeerState::Absent;
    }
    check_not_aborted(store);
    if (monotonic_s() >= deadline) {
      CRITTER_CHECK(!strict, "timed out waiting for shard " +
                                 std::to_string(p) + "'s round-" +
                                 std::to_string(round) + " exchange delta");
      return PeerState::TimedOut;
    }
    hb.beat_if_due(batches);
    sleep_us(poll_us);
    poll_us = std::min(2 * poll_us, kMaxPoll_us);
  }
}

/// Read and decode peer `p`'s published round-`round` delta.  Strict mode
/// fails on a corrupt delta; non-strict returns skipped=true instead — a
/// corrupt publish is permanent (the rename is atomic), so it skips at
/// once rather than waiting out the deadline.
PeerDelta read_peer_delta(net::Store& store, int p, int round, bool strict) {
  try {
    const std::string payload =
        store.read_published("exchange/" + delta_name(p, round));
    // Empty payload: the peer session has no shared statistics to trade
    // (isolated mode) — a published, verifiable nothing.
    if (payload.empty()) return {};
    return {false, core::StatSnapshot::from_string(payload),
            static_cast<std::int64_t>(payload.size())};
  } catch (...) {
    if (strict) throw;
    return {true, {}};
  }
}

/// Non-blocking mailbox read for checkpoint replay: everything the
/// original session absorbed is still published (deltas are never
/// retracted), so an unreadable entry means the run directory is
/// inconsistent with the checkpoint — the caller falls back to a clean
/// restart.
core::StatSnapshot read_peer_now(net::Store& store, int p, int round) {
  if (store.published("exchange/" + delta_name(p, round)))
    return read_peer_delta(store, p, round, /*strict=*/true).snap;
  if (store.published("exchange/" + done_name(p))) {
    const std::string marker = store.read_published("exchange/" + done_name(p));
    int rounds = -1;
    if (std::sscanf(marker.c_str(), "rounds=%d", &rounds) == 1 &&
        rounds >= 0 && rounds <= round)
      return {};
  }
  CRITTER_CHECK(false, "checkpoint replay: peer " + std::to_string(p) +
                           "'s round-" + std::to_string(round) +
                           " delta vanished from the mailbox");
  return {};
}

/// Rebuild a session at the checkpoint's cursor: import the statistics
/// wholesale, then re-ask/re-tell every recorded batch (asks are a pure
/// function of strategy state; tells grow no statistics) with historical
/// exchange deltas re-read from the mailbox and fed to the strategy only —
/// merge_state would double-count what the imported snapshot already
/// contains.  Throws if anything diverges; the caller then restarts clean.
std::unique_ptr<ShardSession> resume_session(
    const tune::Study& study, const tune::TuneOptions& opt,
    const ShardRange& range, const ShardCheckpoint& ck, bool exchanging,
    int every, int nshards, net::Store& store, Heartbeat& hb) {
  auto ss = std::make_unique<ShardSession>(study, opt);
  ss->session().import_state(ck.full);
  const auto skipped_at = [&ck](int round, int peer) {
    for (const auto& [r, p] : ck.skipped)
      if (r == round && p == peer) return true;
    return false;
  };
  int round = 0, in_round = 0, batches = 0;
  for (const ShardCheckpoint::ToldBatch& tb : ck.told) {
    ss->replay_tell(tb.positions, tb.outcomes);
    hb.beat(++batches);
    ++in_round;
    if (exchanging && in_round == every) {
      for (int p = 0; p < nshards; ++p) {
        if (p == range.index || skipped_at(round, p)) continue;
        const core::StatSnapshot peer = read_peer_now(store, p, round);
        if (!peer.empty()) ss->replay_exchange(peer);
      }
      ++round;
      in_round = 0;
    }
  }
  CRITTER_CHECK(round == ck.rounds && in_round == ck.in_round,
                "checkpoint replay diverged: round cursors do not match");
  std::vector<tune::ConfigTotals> totals(study.configs.size());
  for (int i = range.begin; i < range.end; ++i)
    totals[i] = ck.totals[i - range.begin];
  ss->session().restore_totals(std::move(totals));
  if (ck.has_exchange_state)
    ss->restore_exchange_state(ck.mark, ck.own, ck.rounds);
  return ss;
}

int worker_body(const WorkerArgs& args) {
  // Export trace events under the shard index, not the OS pid: the merged
  // fleet timeline then has one stable process row per shard no matter how
  // many relaunches the shard took.
  obs::trace_set_pid(args.shard);
  // The shared store: every cross-process artifact (manifest, snapshots,
  // exchange mailbox, abort marker, heartbeats, results) goes through it.
  // Worker-local state — checkpoints, logs, fault counters — stays on
  // local disk either way.
  std::unique_ptr<net::Store> store_owner;
  if (args.connect.empty()) {
    store_owner = std::make_unique<net::DirStore>(args.run_dir);
  } else {
    const net::Address addr = net::parse_address(args.connect);
    store_owner = std::make_unique<net::BlobClient>(
        addr.host, addr.port, args.connect_deadline_s, args.op_deadline_s);
  }
  net::Store& store = *store_owner;

  const Manifest m = parse_manifest(store.get("run.txt"));
  const tune::Study study = rebuild_study(m);
  tune::TuneOptions opt = rebuild_options(m);
  const ShardRange range = shard_range_of(m, args.shard);
  opt.config_begin = range.begin;
  opt.config_end = range.end;
  core::StatSnapshot warm;
  if (manifest_int(m, "warm_start") != 0) {
    const std::string payload = store.read_published("warm.snap");
    warm = core::StatSnapshot::from_string(payload);
    opt.warm_start = &warm;
  }
  core::StatSnapshot prior;
  if (manifest_int(m, "prior_snap") != 0) {
    const std::string payload = store.read_published("prior.snap");
    prior = core::StatSnapshot::from_string(payload);
    opt.prior = &prior;
  }
  const int nshards = static_cast<int>(manifest_int(m, "nshards"));
  const int every = static_cast<int>(manifest_int(m, "exchange_every"));
  const bool strict = manifest_int(m, "exchange_strict") != 0;
  const int ckpt_every = static_cast<int>(manifest_int(m, "checkpoint_every"));
  const double exchange_deadline_s = manifest_double(m, "exchange_deadline_s");
  const std::string shard_dir =
      args.run_dir + "/shard" + std::to_string(args.shard);
  const std::string shard_key = "shard" + std::to_string(args.shard);
  const FaultSpec fault = shard_fault(args.shard, m);
  const bool exchanging = every > 0 && nshards > 1;
  // Mailbox GC (DESIGN.md §13): the launcher grants it only for runs that
  // can never resume-and-replay (no checkpoints, no retries) — a replaying
  // worker re-reads historical deltas, so GC would tear its history out
  // from under it.  Absent key (older manifest) means off.
  const auto git = m.find("gc_exchange");
  const bool gc = exchanging && git != m.end() && git->second == "1";

  Heartbeat hb{&store, shard_key + "/heartbeat"};
  if (fault.mode == "crash-on-start" && fault_fires(shard_dir, fault))
    ::_exit(41);
  obs::set_phase("resume");
  hb.beat(0);

  // --- resume from the last valid checkpoint, if any ---
  std::unique_ptr<ShardSession> ss;
  std::vector<ShardCheckpoint::ToldBatch> told;
  std::vector<std::pair<int, int>> skipped;
  int batches = 0, round = 0, in_round = 0, skips = 0, resumed_batches = 0;
  std::int64_t ckpt_seq = 0;
  // Mailbox traffic this attempt moved: published delta payloads plus live
  // peer reads (replay re-reads during resume are history, not new wire).
  std::int64_t exchange_bytes = 0;
  // Wall seconds this attempt spent in exchange rounds and checkpoint
  // writes — the worker's share of TuneResult::phases (ask/evaluate/tell
  // come from the Tuner itself).
  double exchange_s = 0.0, checkpoint_s = 0.0;
  int gc_next = 0;  ///< first own-delta round not yet retired by GC
  // Incremental-checkpoint bookkeeping: the base full checkpoint the log
  // extends, the slot the *next* full should use (always the one not
  // holding the current base), and the state as of the previous record so
  // increments can carry byte patches (serialized payloads) and suffixes
  // (told, skipped).  The version vectors pre-filter mark/own work: those
  // snapshots only move at exchange rounds, so most checkpoints skip their
  // serialization outright.
  std::int64_t ckpt_base_seq = 0;
  std::string next_full_slot = "ckpt_a.bin";
  std::string prev_full_bytes, prev_mark_bytes, prev_own_bytes;
  std::vector<std::uint64_t> prev_mark_vers, prev_own_vers;
  std::size_t prev_told = 0, prev_skipped = 0;
  const std::string ckpt_log = shard_dir + "/ckpt_log.bin";
  // Probe for resumable checkpoints regardless of ckpt_every: a signal-
  // flushed worker leaves a final checkpoint behind even when periodic
  // checkpointing is off, and its relaunch must pick it up.
  {
    ShardCheckpoint ck;
    std::string base_slot;
    if (load_latest_checkpoint(shard_dir, study, range, &ck, &ckpt_base_seq,
                               &base_slot)) {
      try {
        ss = resume_session(study, opt, range, ck, exchanging, every, nshards,
                            store, hb);
        batches = ck.batches;
        round = ck.rounds;
        in_round = ck.in_round;
        skips = ck.exchange_skips;
        skipped = ck.skipped;
        resumed_batches = ck.batches;
        ckpt_seq = ck.seq;
        next_full_slot =
            base_slot == "ckpt_a.bin" ? "ckpt_b.bin" : "ckpt_a.bin";
        prev_full_bytes = std::move(ck.full_bytes);
        prev_mark_bytes = std::move(ck.mark_bytes);
        prev_own_bytes = std::move(ck.own_bytes);
        prev_mark_vers = version_vector(ss->mark());
        prev_own_vers = version_vector(ss->own_stats());
        told = std::move(ck.told);
        prev_told = told.size();
        prev_skipped = skipped.size();
      } catch (const std::exception& e) {
        obs::log_warn("shard %d: checkpoint resume failed (%s) — restarting "
                      "clean",
                      args.shard, e.what());
        ss.reset();
        told.clear();
        skipped.clear();
        batches = round = in_round = skips = resumed_batches = 0;
        ckpt_seq = 0;
        ckpt_base_seq = 0;
        next_full_slot = "ckpt_a.bin";
        prev_full_bytes.clear();
        prev_mark_bytes.clear();
        prev_own_bytes.clear();
        prev_mark_vers.clear();
        prev_own_vers.clear();
        prev_told = prev_skipped = 0;
      }
    }
  }
  if (!ss) {
    discard_checkpoints(shard_dir);
    ss = std::make_unique<ShardSession>(study, opt);
  }

  const auto publish_delta = [&](int round_no) {
    const core::StatSnapshot delta = ss->take_delta();
    std::string payload;
    // Mode-1 sparse encoding: ranks the round left untouched collapse to an
    // entry in the epoch array.  Readers auto-expand via from_string to the
    // exact full payload, so the fold stays bit-identical.
    if (!delta.empty()) payload = core::encode_sparse_delta(delta);
    if (fault.mode == "slow-exchange" && round_no == 0 &&
        fault_fires(shard_dir, fault)) {
      // A slow peer, not a dead one: keep beating while stalling so the
      // launcher sees a live worker — peers decide via their own exchange
      // deadline.
      const double until = monotonic_s() + (fault.arg > 0 ? fault.arg : 1000) /
                                               1000.0;
      while (monotonic_s() < until) {
        hb.beat(batches);
        sleep_ms(10);
      }
    }
    const int corrupt_round = fault.arg > 0 ? static_cast<int>(fault.arg) : 0;
    if (fault.mode == "corrupt-delta" && round_no == corrupt_round &&
        fault_fires(shard_dir, fault)) {
      // Corrupt the mailbox copy only (own_ already folded the real delta):
      // the publish itself is well-formed but the snapshot bytes inside are
      // flipped, so every reader deterministically rejects the blob —
      // corruption at the source, which the manifest cannot catch.
      std::string bad = payload.empty() ? std::string("x") : payload;
      bad[0] = static_cast<char>(bad[0] ^ 0x5a);
      store.publish("exchange/" + delta_name(range.index, round_no), bad);
      exchange_bytes += static_cast<std::int64_t>(bad.size());
      return;
    }
    store.publish("exchange/" + delta_name(range.index, round_no), payload);
    exchange_bytes += static_cast<std::int64_t>(payload.size());
  };

  // A full checkpoint every kIncrementsPerFull records bounds both the log
  // length a resume replays and the window a lost log can cost; in between,
  // each checkpoint appends one constant-sized increment.
  constexpr std::int64_t kIncrementsPerFull = 16;
  int checkpoints_taken = 0;
  const auto take_checkpoint_body = [&](bool force_full) {
    ++ckpt_seq;
    ++checkpoints_taken;
    const int ordinal = fault.arg > 0 ? static_cast<int>(fault.arg) : 2;
    const bool fault_here = checkpoints_taken == ordinal;
    // Encode: the framed increment record, or — when the log cannot extend
    // (no base yet, a forced or periodic full, an unpatchable transition) —
    // the full checkpoint payload.
    std::string record;
    std::string payload;
    ShardCheckpoint c;
    std::vector<std::uint64_t> cur_mark_vers, cur_own_vers;
    {
      obs::ScopedSpan span("dist.checkpoint.encode", "dist");
      // Serialize the live session state in place, once; what ships is
      // decided by byte comparison against the previous record's payload
      // (DESIGN.md §13).
      c.full_bytes = ss->session().state_bytes();
      // mark/own only move at exchange rounds: when their per-rank version
      // vectors are unchanged the bytes provably are too, and both the
      // serialization and the patch are skipped.  Right after a round the
      // mark *is* the live state, whose bytes were just produced.
      bool mark_same = false, own_same = false;
      if (exchanging) {
        c.has_exchange_state = true;
        cur_mark_vers = version_vector(ss->mark());
        cur_own_vers = version_vector(ss->own_stats());
        mark_same = !prev_mark_vers.empty() && cur_mark_vers == prev_mark_vers;
        own_same = !prev_own_vers.empty() && cur_own_vers == prev_own_vers;
        // prev_* are reassigned from c below on every path (a throw ends
        // the worker), so an unchanged payload moves instead of copying.
        if (mark_same)
          c.mark_bytes = std::move(prev_mark_bytes);
        else if (ss->mark_is_live())
          c.mark_bytes = c.full_bytes;
        else if (!ss->mark().empty())
          c.mark_bytes = ss->mark().to_string();
        if (own_same)
          c.own_bytes = std::move(prev_own_bytes);
        else if (!ss->own_stats().empty())
          c.own_bytes = ss->own_stats().to_string();
      }
      if (!force_full && ckpt_base_seq > 0 &&
          ckpt_seq - ckpt_base_seq <= kIncrementsPerFull) {
        CheckpointIncrement inc;
        bool delta_ok = true;
        try {
          // Byte patches against the previous record's payloads.
          // make_patch throws if the state did not evolve patchably (e.g. a
          // reset); the record then falls back to a full checkpoint.
          inc.full_patch = make_patch(prev_full_bytes, c.full_bytes);
          if (exchanging) {
            if (!mark_same)
              inc.mark_patch = make_patch(prev_mark_bytes, c.mark_bytes);
            if (!own_same)
              inc.own_patch = make_patch(prev_own_bytes, c.own_bytes);
          }
        } catch (const std::exception&) {
          delta_ok = false;
        }
        if (delta_ok) {
          inc.base_seq = ckpt_base_seq;
          inc.seq = ckpt_seq;
          inc.batches = batches;
          inc.rounds = round;
          inc.in_round = in_round;
          inc.exchange_skips = skips;
          inc.new_skipped.assign(skipped.begin() + prev_skipped,
                                 skipped.end());
          inc.new_told.assign(told.begin() + prev_told, told.end());
          std::vector<int> dirty;
          for (const ShardCheckpoint::ToldBatch& tb : inc.new_told)
            for (int pos : tb.positions) dirty.push_back(pos - range.begin);
          std::sort(dirty.begin(), dirty.end());
          dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
          for (int idx : dirty)
            inc.dirty_totals.emplace_back(
                idx, ss->session().totals()[range.begin + idx]);
          inc.has_exchange_state = exchanging;
          record = increment_log_record(inc);
        }
      }
      if (record.empty()) {
        c.seq = ckpt_seq;
        c.batches = batches;
        c.rounds = round;
        c.in_round = in_round;
        c.exchange_skips = skips;
        c.skipped = skipped;
        c.told = told;
        c.totals.assign(ss->session().totals().begin() + range.begin,
                        ss->session().totals().begin() + range.end);
        // The byte payloads alone feed serialize_checkpoint (written
        // verbatim); the decoded snapshots are not needed here.
        payload = serialize_checkpoint(c);
      }
    }

    obs::ScopedSpan span("dist.checkpoint.write", "dist");
    if (!record.empty()) {
      if (fault.mode == "kill-mid-checkpoint" && fault_here &&
          fault_fires(shard_dir, fault)) {
        // The kill-9 torn point for an increment: half the framed record
        // reaches the log — the scan rejects the tail, the prefix and the
        // base slot stay good.
        append_file(ckpt_log, record.substr(0, record.size() / 2));
        ::kill(::getpid(), SIGKILL);
      }
      if (fault.mode == "corrupt-checkpoint" && fault_here &&
          fault_fires(shard_dir, fault)) {
        record[record.size() / 2] =
            static_cast<char>(record[record.size() / 2] ^ 0x5a);
        append_file(ckpt_log, record);
        ::_exit(43);
      }
      append_file(ckpt_log, record);
    } else {
      const std::string slot = next_full_slot;
      if (fault.mode == "kill-mid-checkpoint" && fault_here &&
          fault_fires(shard_dir, fault)) {
        // The kill-9 torn point: payload renamed into place, manifest never
        // written — the slot's previous manifest (if any) now mismatches.
        write_file_atomic(shard_dir + "/" + slot, payload);
        ::kill(::getpid(), SIGKILL);
      }
      publish_file(shard_dir, slot, payload);
      if (fault.mode == "corrupt-checkpoint" && fault_here &&
          fault_fires(shard_dir, fault)) {
        payload[payload.size() / 2] =
            static_cast<char>(payload[payload.size() / 2] ^ 0x5a);
        write_file(shard_dir + "/" + slot, payload);
        ::_exit(43);
      }
      // Only after the new base is fully published: drop the log extending
      // the previous base (a crash in between resumes from whichever base
      // survives, each with a consistent log view).
      ::remove(ckpt_log.c_str());
      ckpt_base_seq = ckpt_seq;
      next_full_slot =
          slot == "ckpt_a.bin" ? std::string("ckpt_b.bin") : "ckpt_a.bin";
    }
    prev_full_bytes = std::move(c.full_bytes);
    if (exchanging) {
      prev_mark_bytes = std::move(c.mark_bytes);
      prev_own_bytes = std::move(c.own_bytes);
      prev_mark_vers = std::move(cur_mark_vers);
      prev_own_vers = std::move(cur_own_vers);
    }
    prev_told = told.size();
    prev_skipped = skipped.size();
  };
  const auto take_checkpoint = [&](bool force_full = false) {
    obs::set_phase("checkpoint");
    const double t0 = monotonic_s();
    {
      obs::ScopedSpan span("dist.checkpoint", "dist", "seq",
                           static_cast<std::uint64_t>(ckpt_seq + 1));
      take_checkpoint_body(force_full);
    }
    const double dt = monotonic_s() - t0;
    checkpoint_s += dt;
    obs::histogram("dist.checkpoint.write_seconds").observe(dt);
    obs::set_phase("evaluate");
  };

  const long fault_batch = fault.arg > 0 ? fault.arg : 1;
  int attempt_batches = 0;
  obs::set_phase("evaluate");
  while (true) {
    if (g_worker_terminate) {
      // Graceful shutdown: flush a final full checkpoint (state snapshot
      // included) so a relaunch resumes exactly here, then exit with the
      // classified termination code.
      take_checkpoint(/*force_full=*/true);
      try {
        write_file(shard_dir + "/error.txt",
                   "terminated by signal after " + std::to_string(batches) +
                       " batches — final checkpoint flushed\n");
      } catch (...) {
      }
      return kTerminatedExit;
    }
    check_not_aborted(store);
    std::vector<int> batch;
    std::vector<tune::ConfigOutcome> outcomes;
    bool stepped;
    {
      const double t0 = monotonic_s();
      obs::ScopedSpan span("dist.batch", "dist", "batch",
                           static_cast<std::uint64_t>(batches));
      stepped = ss->step_logged(&batch, &outcomes);
      if (stepped) {
        obs::counter("dist.batches").add();
        obs::histogram("dist.batch_seconds").observe(monotonic_s() - t0);
      }
    }
    if (!stepped) break;
    told.push_back({batch, std::move(outcomes)});
    ++batches;
    ++attempt_batches;
    ++in_round;
    hb.beat(batches);
    if (fault.mode == "crash-after-batch" && attempt_batches == fault_batch &&
        fault_fires(shard_dir, fault))
      ::_exit(42);
    if (fault.mode == "hang-after-batch" && attempt_batches == fault_batch &&
        fault_fires(shard_dir, fault))
      while (true) sleep_ms(1000);  // a genuine hang: no beats, no exit
    if (exchanging && in_round == every) {
      obs::set_phase("exchange");
      const double round_t0 = monotonic_s();
      const std::int64_t round_bytes0 = exchange_bytes;
      obs::ScopedSpan round_span("dist.exchange_round", "dist", "round",
                                 static_cast<std::uint64_t>(round));
      // Publish this shard's round delta, then fold in every peer's, in
      // ascending shard order (the determinism contract).
      {
        obs::ScopedSpan span("dist.exchange.publish", "dist");
        publish_delta(round);
        // Flow id (shard << 16) | round: the publish starts the flow, every
        // peer that absorbs this round's delta finishes it — the merged
        // fleet timeline draws the exchange as arrows between process rows.
        obs::trace_flow(
            's', "exchange", "dist",
            (static_cast<std::uint64_t>(range.index) << 16) |
                static_cast<std::uint64_t>(round));
      }
      for (int p = 0; p < nshards; ++p) {
        if (p == range.index) continue;
        PeerState state;
        {
          obs::ScopedSpan span("dist.exchange.wait", "dist", "peer",
                               static_cast<std::uint64_t>(p));
          const double wait_t0 = monotonic_s();
          state = await_peer_delta(store, p, round, exchange_deadline_s,
                                   strict, hb, batches);
          obs::histogram("dist.exchange.wait_seconds")
              .observe(monotonic_s() - wait_t0);
        }
        PeerDelta peer;  // Absent: nothing to absorb
        if (state == PeerState::TimedOut) {
          peer.skipped = true;
        } else if (state == PeerState::Published) {
          obs::ScopedSpan span("dist.exchange.absorb", "dist", "peer",
                               static_cast<std::uint64_t>(p));
          peer = read_peer_delta(store, p, round, strict);
          if (!peer.snap.empty()) {
            obs::trace_flow('f', "exchange", "dist",
                            (static_cast<std::uint64_t>(p) << 16) |
                                static_cast<std::uint64_t>(round));
            ss->absorb(peer.snap);
          }
        }
        if (peer.skipped) {
          skipped.emplace_back(round, p);
          ++skips;
          obs::counter("dist.exchange.skips").add();
        }
        exchange_bytes += peer.bytes;
      }
      ss->refresh_mark();
      obs::counter("dist.exchange.bytes")
          .add(static_cast<std::uint64_t>(exchange_bytes - round_bytes0));
      const double round_dt = monotonic_s() - round_t0;
      exchange_s += round_dt;
      obs::histogram("dist.exchange.round_seconds").observe(round_dt);
      obs::set_phase("evaluate");
      ++round;
      in_round = 0;
      if (gc) {
        // Advertise the fold we just completed, then retire own deltas
        // every peer has provably consumed (their progress counters are
        // past that round).  An unreadable or absent peer marker counts
        // as zero — GC waits rather than guesses.
        store.put("exchange/" + progress_name(range.index),
                  "rounds=" + std::to_string(round) + "\n");
        int min_rounds = round;
        for (int p = 0; p < nshards && min_rounds > gc_next; ++p) {
          if (p == range.index) continue;
          int rounds = 0;
          try {
            const std::string marker =
                store.get("exchange/" + progress_name(p));
            if (std::sscanf(marker.c_str(), "rounds=%d", &rounds) != 1)
              rounds = 0;
          } catch (...) {
            rounds = 0;
          }
          min_rounds = std::min(min_rounds, rounds);
        }
        for (; gc_next < min_rounds; ++gc_next)
          store.remove("exchange/" + delta_name(range.index, gc_next));
      }
    }
    if (ckpt_every > 0 && batches % ckpt_every == 0) take_checkpoint();
  }
  if (exchanging) {
    if (in_round > 0) {
      // Trailing partial round: publish so peers still sweeping see it;
      // a finished shard reads no more peers.
      publish_delta(round);
      obs::trace_flow(
          's', "exchange", "dist",
          (static_cast<std::uint64_t>(range.index) << 16) |
              static_cast<std::uint64_t>(round));
      ++round;
    }
    store.publish("exchange/" + done_name(range.index),
                  "rounds=" + std::to_string(round) + "\n");
  }

  // Exchange-off results slice the plain session result (stats = the
  // session's final snapshot, the legacy run_study semantics); exchange-on
  // results carry the own-contribution snapshot so the fold counts every
  // sample once.
  ShardResult result = exchanging
                           ? ss->result(range)
                           : shard_result_from(ss->session().result(), range);
  result.exchange_skips = skips;
  result.checkpoints = checkpoints_taken;
  result.resumed_batches = resumed_batches;
  result.exchange_bytes = exchange_bytes;
  // ask/evaluate/tell arrived via the Tuner's own phase clock; the worker
  // loop owns the exchange and checkpoint time.
  result.phases.exchange = exchange_s;
  result.phases.checkpoint = checkpoint_s;

  obs::set_phase("publish");
  if (fault.mode == "skip-result") return 0;
  // Flush the per-shard trace file *before* publishing the result: the
  // launcher merges shard traces as soon as every result is in hand, so
  // the publish is the ordering barrier that makes the file visible.
  obs::trace_flush_env();
  store.publish(shard_key + "/result.bin", serialize_result(result));
  return 0;
}

// ---------------------------------------------------------------------------
// Launcher side
// ---------------------------------------------------------------------------

std::string self_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  CRITTER_CHECK(n > 0, "cannot resolve /proc/self/exe for worker re-exec");
  return std::string(buf, static_cast<std::size_t>(n));
}

pid_t spawn_worker(const std::string& binary, const std::string& run_dir,
                   int shard, const std::string& connect,
                   const FaultPolicy& fault) {
  // Re-point the worker's tracing at a per-shard file; the launcher merges
  // them into one fleet timeline after the run.  The env assignment is
  // built before fork so the child only calls putenv — no allocation
  // between fork and execv (the launcher may be running server threads).
  std::string trace_env;
  if (obs::trace_enabled())
    trace_env = "CRITTER_TRACE=" + run_dir + "/shard" +
                std::to_string(shard) + "/trace.json";
  const pid_t pid = ::fork();
  CRITTER_CHECK(pid >= 0, "fork failed for shard worker");
  if (pid > 0) return pid;
  if (!trace_env.empty()) ::putenv(const_cast<char*>(trace_env.data()));
  // Child: capture output, then become the worker.
  const std::string log =
      run_dir + "/shard" + std::to_string(shard) + "/log.txt";
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  const std::string dir_arg = "--shard-dir=" + run_dir;
  const std::string idx_arg = "--shard-index=" + std::to_string(shard);
  std::vector<const char*> argv = {binary.c_str(), "--shard-worker",
                                   dir_arg.c_str(), idx_arg.c_str()};
  // Socket transport: point the worker at the launcher's blob server, with
  // per-op deadlines mapped from the FaultPolicy phases.
  std::string conn_arg, cdl_arg, odl_arg;
  if (!connect.empty()) {
    conn_arg = "--connect=" + connect;
    cdl_arg = "--connect-deadline=" + hex_double(fault.startup_deadline_s);
    odl_arg = "--op-deadline=" + hex_double(fault.progress_deadline_s);
    argv.push_back(conn_arg.c_str());
    argv.push_back(cdl_arg.c_str());
    argv.push_back(odl_arg.c_str());
  }
  argv.push_back(nullptr);
  ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
  obs::log_error("execv %s failed: %s", binary.c_str(), std::strerror(errno));
  ::_exit(127);
}

std::string describe_exit(int status) {
  if (WIFEXITED(status))
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  return "ended abnormally";
}

std::string shard_diagnosis(const std::string& run_dir, int shard) {
  const std::string base = run_dir + "/shard" + std::to_string(shard);
  for (const char* name : {"/error.txt", "/log.txt"}) {
    if (!file_exists(base + name)) continue;
    std::string text;
    try {
      text = read_file(base + name);
    } catch (...) {
      continue;
    }
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
      text.pop_back();
    if (!text.empty()) return text;
  }
  return "(no diagnostics recorded)";
}

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", s);
  return buf;
}

/// " (last phase=evaluate, batch 12)" recovered from a shard's final
/// heartbeat content, so a stall report says what the worker was doing
/// when it went quiet; empty when no heartbeat was ever observed (or it
/// predates the phase field).
std::string describe_last_beat(const std::string& beat) {
  const char* batches_at = std::strstr(beat.c_str(), "batches=");
  const char* phase_at = std::strstr(beat.c_str(), "phase=");
  if (batches_at == nullptr && phase_at == nullptr) return "";
  char phase[64] = {0};
  if (phase_at != nullptr) std::sscanf(phase_at + 6, "%63s", phase);
  const int batches = batches_at != nullptr ? std::atoi(batches_at + 8) : 0;
  std::string out = " (last phase=";
  out += phase[0] != '\0' ? phase : "?";
  out += ", batch " + std::to_string(batches) + ")";
  return out;
}

struct Child {
  ShardRange range;
  pid_t pid = -1;
  bool running = false;
  int attempts = 0;           ///< launches so far
  double launched_at = 0.0;
  std::string beat;           ///< last heartbeat content observed
  double beat_at = 0.0;
  bool beat_seen = false;
  double relaunch_at = -1.0;  ///< >= 0: waiting out a backoff
  bool done = false;          ///< usable result parsed
  bool degraded = false;      ///< abandoned to the launcher's fallback
  std::string last_failure;
  ShardResult result;
};

/// Spawn, supervise, and collect the whole fleet: classify every fault
/// (exit code vs. stalled heartbeat vs. unusable result), relaunch with
/// exponential backoff while retries remain, and on exhaustion either
/// abort the fleet (publishing the abort marker so waiting peers bail) or
/// degrade the shard to an in-launcher completion.
std::vector<ShardResult> run_fleet(const tune::Study& study,
                                   const tune::TuneOptions& opt,
                                   const std::vector<ShardRange>& shards,
                                   const ExchangePolicy& exchange,
                                   const FaultPolicy& fault,
                                   const std::string& binary,
                                   const std::string& run_dir,
                                   net::Store& store,
                                   const std::string& connect) {
  const bool exchanging = exchange.every > 0 && shards.size() > 1;
  std::vector<Child> fleet(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) fleet[i].range = shards[i];

  const auto shard_dir_of = [&](const Child& c) {
    return run_dir + "/shard" + std::to_string(c.range.index);
  };
  const auto shard_key_of = [&](const Child& c) {
    return "shard" + std::to_string(c.range.index);
  };
  const auto spawn = [&](Child& c) {
    // A stale error file from a previous attempt must not masquerade as
    // this attempt's diagnosis.
    ::remove((shard_dir_of(c) + "/error.txt").c_str());
    c.pid = spawn_worker(binary, run_dir, c.range.index, connect, fault);
    c.running = true;
    ++c.attempts;
    c.launched_at = monotonic_s();
    c.beat_seen = false;
    c.relaunch_at = -1.0;
  };
  const auto poll_exits = [&]() {
    for (Child& c : fleet) {
      if (!c.running) continue;
      int status = 0;
      if (::waitpid(c.pid, &status, WNOHANG) == c.pid) c.running = false;
    }
  };
  const auto any_running = [&]() {
    for (const Child& c : fleet)
      if (c.running) return true;
    return false;
  };
  const auto abort_fleet = [&](const std::string& failure) {
    store.publish("abort", failure + "\n");
    const double grace_deadline = monotonic_s() + 10.0;
    while (any_running() && monotonic_s() < grace_deadline) {
      poll_exits();
      sleep_ms(10);
    }
    for (Child& c : fleet)
      if (c.running) ::kill(c.pid, SIGKILL);
    while (any_running()) {
      poll_exits();
      sleep_ms(5);
    }
    CRITTER_CHECK(false, failure + " — run directory kept at " + run_dir);
  };
  const auto try_finish = [&](Child& c) {
    if (!store.published(shard_key_of(c) + "/result.bin")) return false;
    try {
      c.result =
          parse_result(store.read_published(shard_key_of(c) + "/result.bin"),
                       study, c.range);
    } catch (const std::exception&) {
      return false;
    }
    c.done = true;
    return true;
  };
  const auto fault_out = [&](Child& c, const std::string& reason) {
    c.last_failure = reason;
    if (c.attempts <= fault.max_retries) {
      double backoff = fault.backoff_initial_s;
      for (int i = 1; i < c.attempts; ++i) backoff *= 2.0;
      const double wait = std::min(backoff, fault.backoff_max_s);
      c.relaunch_at = monotonic_s() + wait;
      obs::counter("dist.retries").add();
      obs::histogram("dist.backoff_wait_seconds").observe(wait);
      obs::log_info("shard %d faulted (%s) — relaunch in %gs",
                    c.range.index, reason.c_str(), wait);
      return;
    }
    if (fault.on_exhausted == FaultPolicy::OnExhausted::Degrade) {
      c.degraded = true;
      // Tell waiting peers no more deltas are coming from this shard, so
      // non-strict rounds skip it immediately instead of waiting out the
      // exchange deadline every round.
      if (exchanging &&
          !store.published("exchange/" + done_name(c.range.index)))
        store.publish("exchange/" + done_name(c.range.index), "rounds=0\n");
      return;
    }
    std::string failure = "shard worker " + std::to_string(c.range.index) +
                          " (pid " + std::to_string(c.pid) + ") " + reason;
    if (c.attempts > 1)
      failure += " (after " + std::to_string(c.attempts - 1) + " relaunch" +
                 (c.attempts == 2 ? "" : "es") + ")";
    abort_fleet(failure);
  };

  const auto all_settled = [&]() {
    for (const Child& c : fleet)
      if (!c.done && !c.degraded) return false;
    return true;
  };
  // Supervision loop: a reaped exit or a due relaunch is noticed within
  // one kPoll_ms poll, and the loop leaves as soon as the last shard
  // settles — no trailing sleep.  Heartbeats are read every kBeatRead_s:
  // stall deadlines are seconds, so reading them faster buys nothing but
  // file reads.
  constexpr int kPoll_ms = 1;
  constexpr double kBeatRead_s = 0.005;
  double next_beat_read = 0.0;
  for (Child& c : fleet) spawn(c);
  while (!all_settled()) {
    const bool read_beats = monotonic_s() >= next_beat_read;
    if (read_beats) next_beat_read = monotonic_s() + kBeatRead_s;
    for (Child& c : fleet) {
      if (c.done || c.degraded) continue;
      if (!c.running) {
        if (c.relaunch_at >= 0.0 && monotonic_s() >= c.relaunch_at) spawn(c);
        continue;
      }
      int status = 0;
      if (::waitpid(c.pid, &status, WNOHANG) == c.pid) {
        c.running = false;
        // A published, parseable result settles the shard no matter how
        // the process went out (it may have crashed after publishing).
        if (try_finish(c)) continue;
        if (status == 0)
          fault_out(c,
                    "exited cleanly without publishing a usable shard "
                    "result");
        else
          fault_out(c, describe_exit(status) + ": " +
                           shard_diagnosis(run_dir, c.range.index));
        continue;
      }
      if (!read_beats) continue;
      // Progress-based stall detection: the startup deadline bounds launch
      // → first heartbeat, the progress deadline bounds the gap between
      // heartbeat advances.
      std::string beat;
      try {
        if (store.exists(shard_key_of(c) + "/heartbeat"))
          beat = store.get(shard_key_of(c) + "/heartbeat");
      } catch (...) {
      }
      if (!beat.empty() && beat != c.beat) {
        c.beat = beat;
        c.beat_at = monotonic_s();
        c.beat_seen = true;
        continue;
      }
      const double ref = c.beat_seen ? c.beat_at : c.launched_at;
      const double limit =
          c.beat_seen ? fault.progress_deadline_s : fault.startup_deadline_s;
      if (monotonic_s() - ref <= limit) continue;
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, &status, 0);
      c.running = false;
      if (try_finish(c)) continue;  // hung after publishing: still usable
      fault_out(c, "stalled: no heartbeat progress within " +
                       format_seconds(limit) + "s" +
                       describe_last_beat(c.beat));
    }
    if (!all_settled()) sleep_ms(kPoll_ms);
  }

  // Degraded completion: the launcher sweeps the abandoned ranges itself,
  // in shard order.  Bit-identical with exchange off; with exchange on the
  // fallback session exchanges nothing (the documented §10 relaxation).
  for (Child& c : fleet) {
    if (!c.degraded) continue;
    tune::TuneOptions sopt = opt;
    sopt.config_begin = c.range.begin;
    sopt.config_end = c.range.end;
    c.result = shard_result_from(tune::run_study(study, sopt), c.range);
  }

  std::vector<ShardResult> results;
  results.reserve(fleet.size());
  for (Child& c : fleet) {
    c.result.retries = c.attempts - 1;
    c.result.recovered = c.done && c.attempts > 1;
    c.result.degraded = c.degraded;
    c.result.failure = c.last_failure;
    results.push_back(std::move(c.result));
  }
  return results;
}

}  // namespace

std::vector<ShardResult> SubprocessExecutor::run(
    const tune::Study& study, const tune::TuneOptions& opt,
    const std::vector<ShardRange>& shards, const ExchangePolicy& exchange) {
  CRITTER_CHECK(!study.workload.empty(),
                "subprocess executor requires a registry workload "
                "(Study::workload) so shard workers can rebuild the study; "
                "ad-hoc studies can only run in-process");
  CRITTER_CHECK(
      !(opts_.fault.on_exhausted == FaultPolicy::OnExhausted::Degrade &&
        exchange.every > 0 && shards.size() > 1 && exchange.strict),
      "degraded shard completion with mid-sweep exchange requires "
      "non-strict mode (ExchangePolicy::strict = false) — a degraded "
      "shard stops exchanging, which strict peers treat as a fault");
  const bool paper_scale = detect_paper_scale(study);
  const std::string binary =
      opts_.worker_binary.empty() ? self_binary() : opts_.worker_binary;

  const bool temp_dir = opts_.run_dir.empty();
  const std::string run_dir =
      temp_dir ? make_temp_dir("critter-run-") : opts_.run_dir;
  if (!temp_dir) {
    make_dir(run_dir);
    CRITTER_CHECK(!file_exists(run_dir + "/run.txt"),
                  "run directory " + run_dir +
                      " already holds a run manifest (stale run "
                      "directory?) — point --run-dir at a fresh one");
  }
  make_dir(run_dir + "/exchange");
  for (const ShardRange& s : shards)
    make_dir(run_dir + "/shard" + std::to_string(s.index));

  // The shared store the fleet coordinates through.  File transport: the
  // run directory itself (byte-identical to the historical layout).
  // Socket transport: an in-memory store served over TCP from this
  // process; workers get --connect and never touch the shared files (the
  // run directory still holds their local checkpoints and logs).
  std::unique_ptr<net::Store> store;
  std::unique_ptr<net::BlobServer> server;
  std::string connect;
  if (opts_.transport == "socket") {
    store = std::make_unique<net::MemStore>();
    server = std::make_unique<net::BlobServer>(*store);
    connect = "127.0.0.1:" + std::to_string(server->port());
  } else {
    CRITTER_CHECK(opts_.transport.empty() || opts_.transport == "dir",
                  "unknown subprocess transport '" + opts_.transport +
                      "' (known: dir, socket)");
    store = std::make_unique<net::DirStore>(run_dir);
  }

  if (opt.warm_start != nullptr && !opt.warm_start->empty())
    store->publish("warm.snap", opt.warm_start->to_string());
  if (opt.prior != nullptr && !opt.prior->empty())
    store->publish("prior.snap", opt.prior->to_string());
  const bool warm = opt.warm_start != nullptr && !opt.warm_start->empty();
  store->put("run.txt",
             build_run_manifest(study, paper_scale, opt, shards, exchange,
                                opts_.fault, opts_.fault_injection, warm));

  const std::vector<ShardResult> results =
      run_fleet(study, opt, shards, exchange, opts_.fault, binary, run_dir,
                *store, connect);

  // Fleet timeline (DESIGN.md §14): each worker wrote a per-shard trace
  // (pid = shard index) before publishing its result; the launcher adopts
  // them, so its CRITTER_TRACE file is their merge with its own events —
  // rewritten at exit with whatever it recorded after this fleet.
  // Best-effort — shards that died before flushing simply have no rows.
  if (const std::string trace_path = obs::trace_env_path();
      !trace_path.empty()) {
    std::vector<std::string> docs;
    std::vector<std::pair<int, std::string>> names;
    for (const ShardRange& s : shards) {
      const std::string p =
          run_dir + "/shard" + std::to_string(s.index) + "/trace.json";
      if (!file_exists(p)) continue;
      try {
        docs.push_back(read_file(p));
        names.emplace_back(s.index, "shard " + std::to_string(s.index));
      } catch (...) {
      }
    }
    names.emplace_back(static_cast<int>(::getpid()), "launcher");
    obs::trace_adopt_docs(std::move(docs), std::move(names));
  }

  // End-of-run mailbox sweep: every result is in hand, so no worker will
  // read another delta — retire whatever the in-run GC couldn't (trailing
  // rounds, early-finisher tails) plus the progress markers.  Idempotent;
  // done markers stay (they are the mailbox's historical record).
  if (exchange.every > 0 && shards.size() > 1) {
    for (const ShardResult& r : results) {
      for (int j = 0; j < r.exchange_rounds; ++j)
        store->remove("exchange/" + delta_name(r.range.index, j));
      store->remove("exchange/" + progress_name(r.range.index));
    }
  }

  if (server) server->stop();
  if (temp_dir && !opts_.keep_run_dir) remove_dir_tree(run_dir);
  return results;
}

bool is_shard_worker(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--shard-worker") == 0) return true;
  return false;
}

int shard_worker_main(int argc, char** argv) {
  // Graceful shutdown: SIGTERM/SIGINT set a flag the sweep loop checks at
  // each batch boundary — the worker flushes a final full checkpoint and
  // exits instead of dying mid-batch.
  struct sigaction sa {};
  sa.sa_handler = worker_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  WorkerArgs args;
  try {
    args = parse_worker_args(argc, argv);
  } catch (const std::exception& e) {
    obs::log_error("%s", e.what());
    return 2;
  }
  try {
    return worker_body(args);
  } catch (const std::exception& e) {
    try {
      write_file(args.run_dir + "/shard" + std::to_string(args.shard) +
                     "/error.txt",
                 std::string(e.what()) + "\n");
    } catch (...) {
    }
    obs::log_error("shard worker %d failed: %s", args.shard, e.what());
    return 1;
  }
}

}  // namespace critter::dist
