// TunerDaemon: ask/tell tuning as a long-lived multi-client service
// (DESIGN.md §12.3-§12.5).
//
// The daemon owns the authoritative session per (session name): a Tuner
// for the strategy, outcomes, and totals, and the shared statistics as
// serialized bytes only.  Any number of clients connect over TCP
// (net/socket.hpp, net/frame.hpp) and speak the serve/protocol.hpp verbs.
// Evaluation happens *client-side*: an ASK hands out the claimed batch, the
// evaluation hints, and the session's statistics bytes; the client mirrors
// evaluate() with its own SweepDriver and TELLs back outcomes, totals
// contributions, and its post-evaluation statistics as a byte patch.  The
// daemon splices the patch into the session bytes — never decoding them —
// and Tuner::tell_evaluated takes the outcomes and totals.  Replacing the
// session bytes is sound because the mirror started from exactly what ASK
// shipped and only one claim is ever outstanding, so the state after every
// tell is bit-identical to having evaluated locally, and N concurrent
// clients produce exactly the single-process run_study() result.
//
// Determinism across concurrent clients: a session has at most ONE
// outstanding claim.  The first asker claims the next strategy batch;
// later askers block until the claim is told.  A client that disconnects
// mid-batch orphans its claim — the daemon re-issues the *same* batch (same
// hints, same statistics — nothing can change while the claim is open) to
// the next asker, the §10 degrade/skip analogue: churn costs wall-clock,
// never a different answer.
//
// Durability: every TELL journals through the dist/checkpoint.hpp
// machinery — a FULL checkpoint (alternating ckpt_a.bin/ckpt_b.bin slots,
// atomic publish) every kTellsPerFull tells, and a constant-sized CRJTELL1
// record appended to ckpt_log.bin in between.  A journal record carries the
// told batch, its totals, and the TELL's state blob *verbatim* ("" =
// unchanged, sparse patch, or full payload); resume byte-splices the blobs
// onto the base slot's serialized statistics (DESIGN.md §13), so the
// reconstructed state is the exact byte string the live daemon held — the
// bitwise contract the original full-checkpoint-per-tell scheme bought with
// O(tells²) journal bytes, now at O(tells).  A daemon killed outright
// (kill -9 included) and restarted on the same state directory replays
// each session — best full slot, longest valid log prefix, re-ask/re-tell
// strategy-only — into the exact state it held at its last journaled tell;
// a torn append costs at most that one tell.  SIGTERM/SIGINT flush a final
// full checkpoint per session before exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/protocol.hpp"

namespace critter::serve {

struct DaemonOptions {
  /// Session journals, the port file, and the resume state live here.
  /// Created if missing; a restart on the same directory resumes every
  /// journaled session.
  std::string state_dir;
  /// TCP port to listen on; 0 binds an ephemeral port.  Either way the
  /// bound port is published atomically to <state_dir>/port.
  int port = 0;
  /// Per-operation socket deadline for client connections (a stuck client
  /// cannot wedge its serving thread past this).
  double op_deadline_s = 30.0;
};

class TunerDaemon {
 public:
  /// Binds, resumes journaled sessions, publishes the port file, and starts
  /// serving.  Throws on a bad state directory or an unusable port.
  explicit TunerDaemon(DaemonOptions opt);
  ~TunerDaemon();

  int port() const;

  /// Graceful shutdown: stop accepting, drain connection threads, flush a
  /// final full checkpoint per session.  Idempotent; the destructor calls
  /// it.  kTuneShutdown triggers the same path.
  void stop();

  /// True once stop() ran or a client sent kTuneShutdown.
  bool stopping() const;

  /// Block until stopping() (polling; signal handlers just set a flag and
  /// let the owner call stop()).
  void wait();

  TunerDaemon(const TunerDaemon&) = delete;
  TunerDaemon& operator=(const TunerDaemon&) = delete;

 private:
  struct Session;

  void accept_loop();
  void serve_connection(net::Connection conn, std::uint64_t conn_id);
  net::Frame handle_request(const net::Frame& rq, std::uint64_t conn_id);
  void release_claims(std::uint64_t conn_id);

  Session& resolve_session(const std::string& name);
  Session& open_session(const OpenRequest& rq);
  void resume_sessions();
  std::unique_ptr<Session> load_session(const std::string& name);
  /// Journal one completed tell: a CRJTELL1 log record carrying
  /// `state_blob` (the TELL's state field verbatim) between full slots, a
  /// full checkpoint every kTellsPerFull tells (and whenever
  /// `s.force_full_slot` demands one — an out-of-band import desyncs the
  /// log's patch bases).
  void journal_tell(Session& s, const std::string& state_blob);
  void flush_session(Session& s);

  DaemonOptions opt_;
  std::unique_ptr<net::Listener> listener_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::mutex sessions_mu_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
};

/// Poll <state_dir>/port until the daemon publishes it (or the deadline
/// passes — then throws).  The launcher-side rendezvous.
int read_daemon_port(const std::string& state_dir, double deadline_s = 10.0);

/// True when argv carries --tuner-daemon: main() must then hand the process
/// to tuner_daemon_main() (and exit with its return value) before any other
/// argument handling, with custom workloads registered first — resumed
/// sessions rebuild their studies from the registry.
bool is_tuner_daemon(int argc, char** argv);

/// The --tuner-daemon entry point: --state-dir=DIR [--port=N].  Serves
/// until SIGTERM/SIGINT (flushing every session) or a client's
/// kTuneShutdown.  Returns 0 on a clean exit.
int tuner_daemon_main(int argc, char** argv);

}  // namespace critter::serve
