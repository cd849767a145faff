// The tuner-daemon wire protocol (DESIGN.md §12.3): payload codecs for the
// ask/tell verbs net/frame.hpp reserves in the 0x2x range.  Shared by the
// daemon (serve/daemon.hpp) and the client (serve/client.hpp) so both sides
// serialize sessions, batches, and outcomes through the same functions —
// outcome bytes on this wire are identical to the dist layer's file formats
// (dist/wire.hpp), which is what lets the daemon journal a remote tell and
// replay it bit-equal after a restart.
//
// Every request is one frame; every reply is one frame (kOk with the
// verb-specific payload below, or kErr carrying a human-readable reason).
// A connection speaks the protocol after a hello exchange: the client sends
// kHello with kTuneService, the daemon answers kOk.
#pragma once

#include <string>
#include <vector>

#include "core/wire_codec.hpp"
#include "dist/wire.hpp"
#include "tune/evaluator.hpp"
#include "tune/tuner.hpp"
#include "util/check.hpp"

namespace critter::serve {

/// Hello payload naming the protocol; bumped on incompatible change.
/// Version 2: dirty-rank statistics transport (DESIGN.md §13) — ASK carries
/// a generation token so an unchanged session state ships zero snapshot
/// bytes, TELL may carry a sparse patch against the state the claim was
/// issued on, and the TELL reply returns the session's new state
/// generation.
/// Version 3: STATUS replies carry the daemon's process-wide metrics
/// snapshot (obs::metrics_json(), DESIGN.md §14) after the per-session
/// wire accounting — `tunectl status --json` and `tunectl watch` read it.
inline constexpr const char* kTuneService = "critter-tune/3";

/// Session names become journal directory names: a restrictive charset
/// keeps them shell- and path-safe (no separators, no leading dot).
inline bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || name[0] == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

/// One [i32 length][bytes] blob — the framing every snapshot/state field of
/// this protocol uses (snapshots can exceed WireReader::str's string bound).
/// The length is bounds-checked by WireReader::bytes before anything is
/// allocated, so a forged length costs nothing.
inline std::string read_blob(core::WireReader& r, const char* what) {
  const std::int32_t n = r.i32();
  CRITTER_CHECK(n >= 0, std::string(what) + ": negative length");
  return std::string(r.bytes(static_cast<std::size_t>(n)));
}

// --- kTuneOpen -------------------------------------------------------------

/// Open (or join) a session: the manifest is the study/options identity in
/// the run-manifest codec (dist/manifest.hpp) plus warm_start=/prior_snap=
/// flags; the snapshots travel inline since the daemon cannot see the
/// client's memory.  Joining an existing session requires a byte-identical
/// manifest — concurrent clients must agree on what they are tuning.
struct OpenRequest {
  std::string session;
  std::string manifest;
  std::string warm;   ///< serialized StatSnapshot, empty = none
  std::string prior;  ///< serialized StatSnapshot, empty = none
};

inline std::string encode_open(const OpenRequest& rq) {
  core::WireWriter w;
  w.str(rq.session);
  w.str(rq.manifest);
  w.str(rq.warm);
  w.str(rq.prior);
  return w.out;
}

inline OpenRequest decode_open(const std::string& payload) {
  core::WireReader r{payload};
  OpenRequest rq;
  rq.session = r.str();
  rq.manifest = r.str();
  rq.warm = read_blob(r, "tune open: warm snapshot");
  rq.prior = read_blob(r, "tune open: prior snapshot");
  CRITTER_CHECK(r.done(), "tune open: trailing bytes");
  return rq;
}

/// Open reply: the daemon's view of the session — configuration count (the
/// client cross-checks its study) and how many batches are already told
/// (resumed or tuned by earlier clients).
struct OpenReply {
  std::int32_t nconfigs = 0;
  std::int32_t tells = 0;
  bool done = false;
};

inline std::string encode_open_reply(const OpenReply& rp) {
  core::WireWriter w;
  w.i32(rp.nconfigs);
  w.i32(rp.tells);
  w.u8(rp.done ? 1 : 0);
  return w.out;
}

inline OpenReply decode_open_reply(const std::string& payload) {
  core::WireReader r{payload};
  OpenReply rp;
  rp.nconfigs = r.i32();
  rp.tells = r.i32();
  rp.done = r.u8() != 0;
  CRITTER_CHECK(r.done(), "tune open reply: trailing bytes");
  return rp;
}

// --- kTuneAsk --------------------------------------------------------------

/// [Export/Status/Shutdown requests]: just the session name.
inline std::string encode_session_ref(const std::string& session) {
  core::WireWriter w;
  w.str(session);
  return w.out;
}

inline std::string decode_session_ref(const std::string& payload) {
  core::WireReader r{payload};
  std::string s = r.str();
  CRITTER_CHECK(r.done(), "tune request: trailing bytes");
  return s;
}

/// Ask request: the session name plus the state generation the client
/// already holds (0 = none).  When it matches the daemon's, the reply
/// ships no snapshot bytes at all — the steady-state single-evaluator
/// loop, where the client's mirror already holds the exact session state
/// its own last tell produced.
struct AskRequest {
  std::string session;
  std::uint64_t have_gen = 0;
};

inline std::string encode_ask_request(const AskRequest& rq) {
  core::WireWriter w;
  w.str(rq.session);
  w.u64(rq.have_gen);
  return w.out;
}

inline AskRequest decode_ask_request(const std::string& payload) {
  core::WireReader r{payload};
  AskRequest rq;
  rq.session = r.str();
  rq.have_gen = r.u64();
  CRITTER_CHECK(r.done(), "tune ask: trailing bytes");
  return rq;
}

/// What a remote evaluator needs to mirror evaluate() exactly: the claimed
/// batch, the evaluation hints ask() snapshotted, and the session's shared
/// statistics at claim time (imported wholesale by the mirror driver).
/// `state_gen` names the daemon's state; `state_mode` says how the reply
/// carries it: 0 = unchanged from the client's have_gen (no bytes shipped),
/// 1 = the full serialized snapshot follows.
struct AskReply {
  bool done = false;
  std::vector<int> batch;
  tune::EvalControl control;
  std::uint64_t state_gen = 0;
  std::uint8_t state_mode = 1;
  std::string state;  ///< serialized StatSnapshot (state_mode == 1)
};

inline std::string encode_ask_reply(const AskReply& rp) {
  core::WireWriter w;
  w.u8(rp.done ? 1 : 0);
  if (rp.done) return w.out;
  w.i32(static_cast<std::int32_t>(rp.batch.size()));
  for (int pos : rp.batch) w.i32(pos);
  w.u8(rp.control.early_discard ? 1 : 0);
  w.f64(rp.control.incumbent_pred);
  w.f64(rp.control.margin);
  w.i32(rp.control.samples_override);
  w.u64(rp.state_gen);
  w.u8(rp.state_mode);
  if (rp.state_mode == 1) {
    w.i32(static_cast<std::int32_t>(rp.state.size()));
    w.raw(rp.state.data(), rp.state.size());
  }
  return w.out;
}

inline AskReply decode_ask_reply(const std::string& payload) {
  core::WireReader r{payload};
  AskReply rp;
  rp.done = r.u8() != 0;
  if (rp.done) {
    CRITTER_CHECK(r.done(), "tune ask reply: trailing bytes");
    return rp;
  }
  const std::int32_t n = r.i32();
  // Each position takes 4 bytes: a count the payload cannot hold is refused
  // before anything is sized from it.
  CRITTER_CHECK(n > 0 && n <= (1 << 20) &&
                    static_cast<std::size_t>(n) <= r.remaining() / 4,
                "tune ask reply: implausible batch");
  rp.batch.resize(static_cast<std::size_t>(n));
  for (int& pos : rp.batch) pos = r.i32();
  rp.control.early_discard = r.u8() != 0;
  rp.control.incumbent_pred = r.f64();
  rp.control.margin = r.f64();
  rp.control.samples_override = r.i32();
  rp.state_gen = r.u64();
  rp.state_mode = r.u8();
  CRITTER_CHECK(rp.state_mode <= 1, "tune ask reply: unknown state mode");
  if (rp.state_mode == 1) rp.state = read_blob(r, "tune ask reply: state");
  CRITTER_CHECK(r.done(), "tune ask reply: trailing bytes");
  return rp;
}

// --- kTuneTell -------------------------------------------------------------

/// The remote evaluation's products, in batch order: outcomes (serialized
/// exactly as the dist file formats do), the totals contributions the batch
/// accumulated, and the mirror's post-evaluation statistics.  `state` is
/// one of:
///
///   * "" — the evaluation changed no statistics bytes;
///   * a mode-0 sparse patch (core::encode_sparse_patch) against the state
///     the claim was issued on — `base_gen` MUST name that state's
///     generation, and the daemon rejects a stale base outright (the client
///     then re-asks and resends full);
///   * a full serialized StatSnapshot — wholesale replacement, the v1
///     behavior, used on the first tell after a (re)connect.
///
/// Replacement-by-bytes rather than merge-of-deltas is what keeps the
/// daemon bitwise-exact: the mirror started from exactly what ASK shipped
/// and one batch is ever outstanding, so the spliced state is the mirror's
/// state to the last bit, where a diff/merge round trip is only
/// float-algebraically exact.
struct TellRequest {
  std::string session;
  std::uint64_t base_gen = 0;  ///< generation `state` patches (sparse only)
  std::vector<int> batch;
  std::vector<tune::ConfigOutcome> outcomes;
  std::vector<tune::ConfigTotals> totals;
  std::string state;  ///< "" | sparse patch | full serialized StatSnapshot
};

inline std::string encode_tell(const TellRequest& rq) {
  core::WireWriter w;
  w.str(rq.session);
  w.u64(rq.base_gen);
  w.i32(static_cast<std::int32_t>(rq.batch.size()));
  for (std::size_t k = 0; k < rq.batch.size(); ++k) {
    w.i32(rq.batch[k]);
    dist::write_outcome(w, rq.outcomes[k]);
    dist::write_totals(w, rq.totals[k]);
  }
  w.i32(static_cast<std::int32_t>(rq.state.size()));
  w.raw(rq.state.data(), rq.state.size());
  return w.out;
}

/// Decoding needs the study to rebind each outcome's configuration, and the
/// study hangs off the session — so the session name is read first and the
/// body second, once the daemon has resolved it.
inline std::string decode_tell_session(core::WireReader& r) { return r.str(); }

inline void decode_tell_body(core::WireReader& r, const tune::Study& study,
                             TellRequest* rq) {
  rq->base_gen = r.u64();
  const std::int32_t n = r.i32();
  CRITTER_CHECK(n > 0 && n <= (1 << 20) &&
                    static_cast<std::size_t>(n) <= r.remaining() / 4,
                "tune tell: implausible batch");
  rq->batch.resize(static_cast<std::size_t>(n));
  rq->outcomes.resize(static_cast<std::size_t>(n));
  rq->totals.resize(static_cast<std::size_t>(n));
  const int nconf = static_cast<int>(study.configs.size());
  for (std::int32_t k = 0; k < n; ++k) {
    const std::int32_t pos = r.i32();
    CRITTER_CHECK(pos >= 0 && pos < nconf,
                  "tune tell: batch position outside the study");
    rq->batch[static_cast<std::size_t>(k)] = pos;
    rq->outcomes[static_cast<std::size_t>(k)].config =
        study.configs[static_cast<std::size_t>(pos)];
    dist::read_outcome(r, rq->outcomes[static_cast<std::size_t>(k)],
                       "tune tell");
    dist::read_totals(r, rq->totals[static_cast<std::size_t>(k)]);
  }
  rq->state = read_blob(r, "tune tell: state");
  CRITTER_CHECK(r.done(), "tune tell: trailing bytes");
}

/// Tell reply: the session's state generation after this tell — the token
/// the client hands back on its next ask to skip the state payload.
inline std::string encode_tell_reply(std::uint64_t state_gen) {
  core::WireWriter w;
  w.u64(state_gen);
  return w.out;
}

inline std::uint64_t decode_tell_reply(const std::string& payload) {
  core::WireReader r{payload};
  const std::uint64_t gen = r.u64();
  CRITTER_CHECK(r.done(), "tune tell reply: trailing bytes");
  return gen;
}

// --- kTuneImport -----------------------------------------------------------

/// Seed a fresh session's statistics (legal only before its first batch is
/// claimed, the rule of Tuner::import_state).  kTuneExport's reply payload is the
/// raw serialized snapshot, no codec needed.
inline std::string encode_import(const std::string& session,
                                 const std::string& snapshot) {
  core::WireWriter w;
  w.str(session);
  w.i32(static_cast<std::int32_t>(snapshot.size()));
  w.raw(snapshot.data(), snapshot.size());
  return w.out;
}

inline void decode_import(const std::string& payload, std::string* session,
                          std::string* snapshot) {
  core::WireReader r{payload};
  *session = r.str();
  *snapshot = read_blob(r, "tune import: snapshot");
  CRITTER_CHECK(r.done(), "tune import: trailing bytes");
}

// --- kTuneStatus -----------------------------------------------------------

struct StatusReply {
  bool done = false;
  std::int32_t tells = 0;
  std::int32_t evaluated = 0;
  std::int32_t best_predicted = -1;  ///< -1 until anything evaluated
  /// Wire accounting for the session (request + reply payload bytes the
  /// daemon handled on its behalf): sparse transport made the payloads
  /// measurable, not vibes.
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t sparse_tells = 0;  ///< tells whose state arrived as a patch
  std::string text;               ///< one human-readable summary line
  /// The daemon's process-wide metrics snapshot (obs::metrics_json()):
  /// ask/tell latency histograms, journal flush cost, per-session wire
  /// counters in aggregate.  Process-wide by design — a daemon is one
  /// tuning fleet's shared brain, and `tunectl watch` polls this field.
  std::string metrics;
};

inline std::string encode_status_reply(const StatusReply& rp) {
  core::WireWriter w;
  w.u8(rp.done ? 1 : 0);
  w.i32(rp.tells);
  w.i32(rp.evaluated);
  w.i32(rp.best_predicted);
  w.i64(rp.bytes_in);
  w.i64(rp.bytes_out);
  w.i64(rp.sparse_tells);
  w.str(rp.text);
  w.str(rp.metrics);
  return w.out;
}

inline StatusReply decode_status_reply(const std::string& payload) {
  core::WireReader r{payload};
  StatusReply rp;
  rp.done = r.u8() != 0;
  rp.tells = r.i32();
  rp.evaluated = r.i32();
  rp.best_predicted = r.i32();
  rp.bytes_in = r.i64();
  rp.bytes_out = r.i64();
  rp.sparse_tells = r.i64();
  rp.text = r.str();
  rp.metrics = r.str();
  CRITTER_CHECK(r.done(), "tune status reply: trailing bytes");
  return rp;
}

}  // namespace critter::serve
