// Internal: one shard's sweep session with exchange-delta bookkeeping,
// shared by the in-process executor's lockstep rounds and the subprocess
// worker loop so both realize the identical exchange semantics (the
// cross-executor determinism contract, DESIGN.md §8).
#pragma once

#include <memory>

#include "core/stat_store.hpp"
#include "dist/executor.hpp"
#include "tune/tuner.hpp"
#include "util/check.hpp"

namespace critter::dist {

/// The shard product of a plain (exchange-off) sweep result — the
/// executors' and the worker's shared slicing of a TuneResult.
ShardResult shard_result_from(const tune::TuneResult& r,
                              const ShardRange& range);

/// A Tuner session plus the delta-tracking state of the exchange protocol:
/// `mark` is the statistics baseline of the next delta (the session state
/// right after the previous round's peer absorption), `own` accumulates the
/// shard's own contribution (initial state + own deltas, never peers') —
/// the snapshot the final fold consumes.  Deltas are diffed from and peer
/// deltas merged into the session's live tables in place; refresh_mark()
/// is the round's one deep copy.
class ShardSession {
 public:
  ShardSession(const tune::Study& study, const tune::TuneOptions& opt)
      : session_(study, opt) {
    mark_ = session_.export_state();
    own_ = mark_;
  }

  /// Run up to `max_batches` ask/evaluate/tell rounds; returns how many
  /// ran (fewer means the strategy is exhausted — done() from then on).
  int run_segment(int max_batches) {
    int ran = 0;
    mark_is_live_ = false;
    while (ran < max_batches) {
      if (!session_.step()) {
        done_ = true;
        break;
      }
      ++ran;
    }
    return ran;
  }

  /// One ask/evaluate/tell round, reporting the batch positions and their
  /// outcomes (the subprocess worker's checkpoint log); false when the
  /// strategy is exhausted.  Bit-identical to run_segment(1).
  bool step_logged(std::vector<int>* batch,
                   std::vector<tune::ConfigOutcome>* outcomes) {
    mark_is_live_ = false;
    *batch = session_.ask();
    if (batch->empty()) {
      done_ = true;
      return false;
    }
    *outcomes = session_.evaluate(*batch);
    session_.tell(*outcomes);
    return true;
  }

  /// Checkpoint replay: re-ask the strategy and feed it the recorded
  /// outcomes without evaluating (tell() contributes no kernel statistics
  /// — the resumed session's statistics were restored wholesale).  The
  /// strategy must propose the recorded batch exactly; anything else means
  /// the checkpoint belongs to a different run.
  void replay_tell(const std::vector<int>& batch,
                   const std::vector<tune::ConfigOutcome>& outcomes) {
    const std::vector<int> asked = session_.ask();
    CRITTER_CHECK(asked == batch,
                  "checkpoint replay diverged: the strategy proposed a "
                  "different batch than the checkpoint recorded");
    session_.tell(outcomes);
  }

  /// Checkpoint replay of one peer's historical round delta: strategy
  /// ingestion only (see Tuner::replay_exchange).
  void replay_exchange(const core::StatSnapshot& peer_delta) {
    session_.replay_exchange(peer_delta);
  }

  /// Restore the exchange bookkeeping a checkpoint recorded (after the
  /// told-batch replay): the delta baseline, the own-contribution
  /// accumulator, and the completed-round count.
  void restore_exchange_state(core::StatSnapshot mark, core::StatSnapshot own,
                              int rounds) {
    mark_ = std::move(mark);
    own_ = std::move(own);
    rounds_ = rounds;
    mark_is_live_ = false;
  }

  /// The statistics delta grown since the last publish point (the live
  /// tables diffed against `mark`); folds it into the shard's own
  /// contribution.  A round's take_delta() is followed by its absorb()s
  /// and refresh_mark() — or by nothing, when the shard is finished.
  core::StatSnapshot take_delta() {
    core::StatSnapshot delta = session_.diff_state(mark_);
    if (!own_.empty())
      own_.merge(delta);
    else
      own_ = delta;
    ++rounds_;
    return delta;
  }

  /// Fold one peer's round delta into the live session (call in ascending
  /// peer order); finish the round with refresh_mark() so the next delta
  /// diffs against the post-absorption state.
  void absorb(const core::StatSnapshot& peer_delta) {
    mark_is_live_ = false;
    session_.merge_state(peer_delta);
  }
  void refresh_mark() {
    mark_ = session_.export_state();
    mark_is_live_ = true;
  }

  /// True while the live statistics are unchanged since refresh_mark():
  /// `mark` then serializes to exactly session().state_bytes(), so a
  /// checkpoint that already holds those bytes reuses them for `mark`.
  /// Cleared by every step (run_segment, step_logged), by absorb() and by
  /// restore_exchange_state().
  bool mark_is_live() const { return mark_is_live_; }

  bool done() const { return done_; }
  int rounds() const { return rounds_; }
  tune::Tuner& session() { return session_; }
  const core::StatSnapshot& own_stats() const { return own_; }
  const core::StatSnapshot& mark() const { return mark_; }

  /// The shard product for the fold: session outcomes restricted to the
  /// range, with `stats` replaced by the shard's own contribution.
  ShardResult result(const ShardRange& range) const {
    ShardResult out = shard_result_from(session_.result(), range);
    out.exchange_rounds = rounds_;
    out.stats = own_;
    return out;
  }

 private:
  tune::Tuner session_;
  core::StatSnapshot mark_;
  core::StatSnapshot own_;
  int rounds_ = 0;
  bool done_ = false;
  bool mark_is_live_ = false;
};

}  // namespace critter::dist
