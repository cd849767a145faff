#include "serve/client.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fsio.hpp"
#include "core/stat_store.hpp"
#include "dist/manifest.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "tune/evaluator.hpp"
#include "tune/sweep.hpp"
#include "util/check.hpp"

namespace critter::serve {

using core::StatSnapshot;

TunerClient::TunerClient(const tune::Study& study,
                         const tune::TuneOptions& opt, std::string session,
                         ClientOptions copt)
    : study_(study),
      opt_(opt),
      session_(std::move(session)),
      copt_(std::move(copt)) {
  CRITTER_CHECK(valid_session_name(session_),
                "invalid tuning session name '" + session_ + "'");
  // The session identity every participant must agree on, in the run-
  // manifest codec — generated from (study, options) so cooperating
  // clients produce it byte-identically.
  std::string manifest;
  dist::write_study_identity(manifest, study_,
                             dist::detect_paper_scale(study_));
  dist::write_tune_options(manifest, opt_);
  const bool warm = opt_.warm_start != nullptr && !opt_.warm_start->empty();
  const bool prior = opt_.prior != nullptr && !opt_.prior->empty();
  manifest += "warm_start=" + std::string(warm ? "1" : "0") + "\n";
  manifest += "prior_snap=" + std::string(prior ? "1" : "0") + "\n";
  OpenRequest orq;
  orq.session = session_;
  orq.manifest = std::move(manifest);
  if (warm) orq.warm = opt_.warm_start->to_string();
  if (prior) orq.prior = opt_.prior->to_string();
  open_payload_ = encode_open(orq);
  // The daemon owns the snapshots and the strategy from here on; the
  // mirror evaluates whole-study batches with state imported per ask, so
  // it runs the daemon's full range regardless of the caller's slicing.
  opt_.warm_start = nullptr;
  opt_.prior = nullptr;
  opt_.config_begin = 0;
  opt_.config_end = -1;
  mirror_ = std::make_unique<tune::SweepDriver>(study_, opt_);
}

TunerClient::~TunerClient() = default;

net::Frame TunerClient::request(std::uint32_t verb,
                                const std::string& payload) {
  net::send_frame(*conn_, verb, payload, copt_.op_deadline_s);
  net::Frame reply = net::recv_frame(*conn_, copt_.op_deadline_s);
  if (reply.verb == net::kErr)
    throw std::runtime_error("tuner daemon error: " + reply.payload);
  CRITTER_CHECK(reply.verb == net::kOk, "tuner client: unexpected reply verb");
  return reply;
}

void TunerClient::ensure_open() {
  if (opened_ && conn_ != nullptr && conn_->valid()) return;
  opened_ = false;
  // A (re)connect invalidates the generation cache: tokens are only
  // comparable within one daemon lifetime, and a restarted daemon restarts
  // them — the first ask after any reconnect must fetch full state.
  held_state_.clear();
  held_gen_ = 0;
  conn_ = std::make_unique<net::Connection>(net::Connection::connect(
      copt_.host, copt_.port, copt_.connect_deadline_s));
  net::send_frame(*conn_, net::kHello, kTuneService, copt_.op_deadline_s);
  const net::Frame hello = net::recv_frame(*conn_, copt_.op_deadline_s);
  CRITTER_CHECK(hello.verb == net::kOk,
                "tuner daemon rejected the handshake: " + hello.payload);
  const net::Frame orp = request(net::kTuneOpen, open_payload_);
  const OpenReply rp = decode_open_reply(orp.payload);
  CRITTER_CHECK(rp.nconfigs == static_cast<std::int32_t>(study_.configs.size()),
                "tuner daemon session disagrees about the study size");
  opened_ = true;
}

ClientReport TunerClient::run() {
  ClientReport rep;
  const int nconf = static_cast<int>(study_.configs.size());
  double backoff = copt_.backoff_initial_s;
  int consecutive_failures = 0;
  while (true) {
    if (copt_.max_batches > 0 && rep.tells >= copt_.max_batches) break;
    try {
      ensure_open();
      double t0 = core::monotonic_s();
      AskRequest arq;
      arq.session = session_;
      arq.have_gen = held_gen_;
      const net::Frame arf = request(net::kTuneAsk, encode_ask_request(arq));
      rep.ask_tell_wall_s += core::monotonic_s() - t0;
      ++rep.asks;
      ++lifetime_asks_;
      if (copt_.drop_after_asks > 0 &&
          lifetime_asks_ >= copt_.drop_after_asks) {
        // Injected churn: walk away with the claim open; the daemon must
        // re-issue it unchanged.
        conn_->close();
        opened_ = false;
        rep.dropped = true;
        break;
      }
      const AskReply ar = decode_ask_reply(arf.payload);
      if (ar.done) {
        rep.done = true;
        break;
      }
      // Mirror Tuner::evaluate(): import the session statistics the claim
      // was issued against, run the batch under the issued hints, and
      // extract exactly what the evaluation grew/accumulated.  Mode 0
      // means the daemon verified our generation token: the mirror already
      // holds these exact bytes from the previous iteration — no payload,
      // no parse, no import (the steady-state single-client fast path).
      if (ar.state_mode != 0) {
        if (!ar.state.empty()) {
          const StatSnapshot state = StatSnapshot::from_string(ar.state);
          if (!state.empty()) mirror_->import_stats(state);
        }
        held_state_ = ar.state;
        held_gen_ = ar.state_gen;
      }
      std::vector<tune::ConfigOutcome> out(
          static_cast<std::size_t>(nconf));
      for (int i = 0; i < nconf; ++i)
        out[static_cast<std::size_t>(i)].config =
            study_.configs[static_cast<std::size_t>(i)];
      std::vector<tune::ConfigTotals> tot(static_cast<std::size_t>(nconf));
      mirror_->run_batch(ar.batch, ar.control, out, tot);
      TellRequest trq;
      trq.session = session_;
      trq.batch = ar.batch;
      for (int pos : ar.batch) {
        trq.outcomes.push_back(out[static_cast<std::size_t>(pos)]);
        trq.totals.push_back(tot[static_cast<std::size_t>(pos)]);
      }
      // Ship the post-evaluation state relative to the base the daemon
      // issued the claim against: nothing when the bytes are unchanged, a
      // mode-0 sparse patch when we hold the base (byte splicing, so the
      // daemon's state stays bitwise what a full ship would make it —
      // never a stats diff, whose merge round trip drifts by ulps), a full
      // payload when we hold no base.  base_gen names the base; the
      // daemon rejects a patch against a generation it no longer has.
      std::string after_bytes = mirror_->stats_bytes();
      trq.base_gen = held_gen_;
      if (after_bytes == held_state_) {
        // unchanged: trq.state stays "" and the daemon's bytes stand
      } else if (held_state_.empty()) {
        trq.state = after_bytes;
      } else {
        try {
          trq.state = core::encode_sparse_patch(held_state_, after_bytes);
        } catch (const std::exception&) {
          trq.state = after_bytes;  // e.g. rank count changed: ship full
        }
      }
      t0 = core::monotonic_s();
      const net::Frame trf = request(net::kTuneTell, encode_tell(trq));
      rep.ask_tell_wall_s += core::monotonic_s() - t0;
      held_gen_ = decode_tell_reply(trf.payload);
      if (!trq.state.empty()) held_state_ = std::move(after_bytes);
      ++rep.tells;
      consecutive_failures = 0;
      backoff = copt_.backoff_initial_s;
    } catch (const std::exception& e) {
      // Abandon the in-flight operation and restart from ASK: if the tell
      // landed, the re-ask claims the next batch; if not, the orphaned one
      // re-issues and re-evaluates to the identical result.
      if (conn_) conn_->close();
      opened_ = false;
      ++rep.reconnects;
      if (++consecutive_failures > copt_.max_reconnects)
        throw std::runtime_error(
            "tuner client: giving up after " +
            std::to_string(consecutive_failures) +
            " consecutive failures — last: " + e.what());
      core::sleep_ms(static_cast<int>(backoff * 1000));
      backoff = std::min(backoff * 2, copt_.backoff_max_s);
    }
  }
  return rep;
}

std::string TunerClient::export_stats() {
  ensure_open();
  return request(net::kTuneExport, encode_session_ref(session_)).payload;
}

StatusReply TunerClient::status() {
  ensure_open();
  return decode_status_reply(
      request(net::kTuneStatus, encode_session_ref(session_)).payload);
}

void TunerClient::shutdown_daemon() {
  ensure_open();
  request(net::kTuneShutdown, "");
}

}  // namespace critter::serve
