// Shard checkpoint format: the durable record a subprocess worker
// periodically publishes so a relaunched worker can resume its sweep
// bit-identically (DESIGN.md §10).
//
// A checkpoint is the full replay recipe of a session prefix:
//
//   * the progress cursor (completed batches, completed exchange rounds,
//     batches into the current round);
//   * every batch told so far — positions plus raw outcome bits — so the
//     resumed session can re-ask/re-tell the strategy into the exact state
//     the crashed worker had (asks are a pure function of told outcomes and
//     ingested priors, and tell() contributes no kernel statistics);
//   * the accumulated per-configuration totals, which tell() does not
//     carry;
//   * the session's statistics snapshots: the full state (wholesale
//     import on resume), and with mid-sweep exchange on, the delta
//     baseline `mark` and the shard's own-contribution `own`;
//   * the non-strict exchange skips taken so far, so replay skips the
//     same (round, peer) pairs the live run skipped.
//
// The payload ends in a util::checksum64 trailer over everything before it,
// so any truncation or byte flip is rejected by parse_checkpoint() even when
// the publish manifest happens to match (e.g. corruption at the source).
// Workers alternate between two slots (ckpt_a.bin / ckpt_b.bin): a torn or
// corrupt latest checkpoint falls back to the previous one, and a worker
// with no valid checkpoint restarts cleanly — which is still bit-identical,
// since round deltas persist in the exchange mailbox and re-publishing is
// idempotent.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/stat_store.hpp"
#include "dist/executor.hpp"
#include "tune/tuner.hpp"

namespace critter::dist {

struct ShardCheckpoint {
  std::int64_t seq = 0;     ///< monotonically increasing per shard
  int batches = 0;          ///< completed (told) batches — the cursor
  int rounds = 0;           ///< completed exchange rounds
  int in_round = 0;         ///< batches into the current round
  int exchange_skips = 0;   ///< non-strict rounds skipped so far
  /// (round, peer) pairs skipped in non-strict mode, in occurrence order.
  std::vector<std::pair<int, int>> skipped;
  struct ToldBatch {
    std::vector<int> positions;  ///< study.configs positions, ascending
    std::vector<tune::ConfigOutcome> outcomes;
  };
  std::vector<ToldBatch> told;  ///< one entry per completed batch
  /// Accumulated totals for the shard's range, indexed range-relative.
  std::vector<tune::ConfigTotals> totals;
  core::StatSnapshot full;  ///< session statistics at the checkpoint
  bool has_exchange_state = false;
  core::StatSnapshot mark;  ///< delta baseline (exchange on)
  core::StatSnapshot own;   ///< own-contribution accumulator (exchange on)
  /// Serialized v2 payloads of the three snapshots ("" = empty snapshot).
  /// parse_checkpoint fills them alongside the decoded snapshots; they are
  /// the splice bases for the log's byte patches (apply_increment), and
  /// serialize_checkpoint reuses them verbatim when set — sparing a
  /// re-serialization and guaranteeing the written blob is the exact byte
  /// string the patches were computed against.
  std::string full_bytes;
  std::string mark_bytes;
  std::string own_bytes;
};

/// Incremental checkpoint record.  Between two full checkpoints a worker
/// appends one framed increment per checkpoint to the shard's append-only
/// ckpt_log.bin instead of rewriting the whole replay recipe — the full
/// snapshot, the complete told history, and the totals grow with the sweep,
/// while what a single checkpoint actually adds stays constant-sized.  An
/// increment carries only the change since the previous record (full or
/// increment): the advanced cursors, the newly told batches and skips, the
/// totals of the configurations those batches touched, and *byte patches*
/// for the session statistics and — with exchange on — the mark/own
/// snapshots.  Each patch field is one of:
///
///   * "" — the snapshot's serialized bytes are unchanged;
///   * a mode-0 sparse payload (core::encode_sparse_patch, DESIGN.md §13)
///     that splices dirty rank chunks onto the previous record's bytes;
///   * a full CRSTAT payload — wholesale replacement, used when the
///     previous record had no snapshot to patch (empty -> non-empty).
///
/// Byte patches replace the StatSnapshot::diff deltas of the original
/// CRCKINC1 scheme: a spliced payload is the *exact* byte string the worker
/// held, where diff + merge reconstruction — though exact by the merge
/// algebra — still paid a full semantic walk on both ends.  Resume loads
/// the best full slot and replays the longest valid prefix of the log on
/// top of it (apply_increment), so a torn append costs at most one
/// checkpoint of progress, never the base.
struct CheckpointIncrement {
  std::int64_t base_seq = 0;  ///< seq of the full checkpoint the log extends
  std::int64_t seq = 0;       ///< overall checkpoint sequence number
  // Absolute cursor values as of this record.
  int batches = 0;
  int rounds = 0;
  int in_round = 0;
  int exchange_skips = 0;
  std::vector<std::pair<int, int>> new_skipped;
  std::vector<ShardCheckpoint::ToldBatch> new_told;
  /// Rewritten totals, as (range-relative index, value), ascending — the
  /// dirty subset named by the new batches' positions.
  std::vector<std::pair<int, tune::ConfigTotals>> dirty_totals;
  std::string full_patch;  ///< session-stats byte patch since previous record
  bool has_exchange_state = false;
  std::string mark_patch;  ///< delta-baseline byte patch (exchange on)
  std::string own_patch;   ///< own-contribution byte patch (exchange on)
};

std::string serialize_checkpoint(const ShardCheckpoint& c);
std::string serialize_increment(const CheckpointIncrement& inc);

/// Parse and validate one increment payload (unframed).  Shape checks
/// mirror parse_checkpoint: positions inside the shard range and ordered,
/// plausible counts, no trailing bytes.  Continuity against the base is
/// apply_increment's job.
CheckpointIncrement parse_increment(const std::string& payload,
                                    const tune::Study& study,
                                    const ShardRange& range);

/// Extend `ck` — a full checkpoint, possibly already extended — by one
/// increment.  Byte patches splice onto ck's *_bytes fields and the decoded
/// snapshots are refreshed from the spliced payloads (which re-validates
/// every patched chunk).  Throws on any discontinuity: wrong base, sequence
/// gap, cursors that do not add up, or a patch that does not fit its base;
/// `ck` is unchanged on throw.
void apply_increment(ShardCheckpoint& ck, std::int64_t base_seq,
                     CheckpointIncrement&& inc);

/// Log framing: [u64 payload length][u64 util::checksum64 of payload]
/// [payload].  Covers the shards' CRCKINC2 and the daemon's CRJTELL1 logs.
std::string frame_log_record(const std::string& payload);

/// frame_log_record(serialize_increment(inc)) built in one buffer: the
/// frame header is reserved up front, the payload serialized behind it,
/// and length and checksum backpatched — the worker's per-checkpoint log
/// append, without the two intermediate copies.
std::string increment_log_record(const CheckpointIncrement& inc);

/// The longest valid framed-record prefix of a log blob.  Scanning stops at
/// the first truncated frame or checksum mismatch — everything before a
/// torn or corrupt append is still trusted.
std::vector<std::string> scan_log_records(const std::string& blob);

/// Parse and fully validate a checkpoint payload; `study`/`range` rebind
/// the outcome configurations and bound every cursor.  Throws on any
/// corruption — truncation, byte flips (checksum trailer), implausible
/// counters, positions outside the range — before returning partial state.
ShardCheckpoint parse_checkpoint(const std::string& payload,
                                 const tune::Study& study,
                                 const ShardRange& range);

/// The slot a checkpoint of sequence number `seq` publishes to: odd
/// sequences use "ckpt_a.bin", even ones "ckpt_b.bin" (double buffering —
/// the previous checkpoint survives a torn publish of the next).
std::string checkpoint_slot_name(std::int64_t seq);

/// Load the best full checkpoint slot under `dir`, then extend it with the
/// longest valid prefix of the increment log (DESIGN.md §11): records that
/// frame-verify, parse, and apply continuously on top of the base.  A torn
/// or corrupt record ends the prefix — everything before it already
/// reproduced a consistent state.  Reports the base's slot and sequence so
/// the resumed owner keeps alternating slots and appending increments
/// against the right base.  False when neither slot holds a usable
/// checkpoint.  Shared by relaunched shard workers and the resuming tuner
/// daemon (serve/daemon.hpp).
bool load_latest_checkpoint(const std::string& dir, const tune::Study& study,
                            const ShardRange& range, ShardCheckpoint* out,
                            std::int64_t* base_seq, std::string* base_slot);

/// Clean restart must drop any surviving slots: later checkpoints restart
/// the sequence at 1, and a stale higher-seq slot would win the next
/// resume.  The increment log goes with them — its records extend a base
/// that no longer exists.
void discard_checkpoints(const std::string& dir);

}  // namespace critter::dist
