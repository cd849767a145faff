// Low-overhead trace spans (DESIGN.md §14): thread-local fixed-capacity
// ring buffers of binary span records, drop-oldest on overflow, exported
// to Chrome trace-event JSON (load chrome://tracing or https://ui.perfetto.dev).
//
// Tracing is compiled in always and gated at runtime by CRITTER_TRACE:
// unset (or "0") every emitter is a no-op behind one relaxed load — the
// Release events/s headline is gated in CI with tracing in exactly this
// state.  Set CRITTER_TRACE=1 to record, or CRITTER_TRACE=<file>.json to
// record and write the trace at process exit (the fleet launcher
// re-points each worker's environment at a per-shard file and merges them
// into one fleet timeline, exchange rounds linked as flow events).
//
// Records carry string *literals* by pointer (name/category/arg name must
// outlive the process); timestamps are wall-anchored microseconds so
// traces from concurrent processes on one host align when merged.
// Passivity rule: spans observe, they never steer — and the golden
// bit-identity fixtures run with CRITTER_TRACE=1 in CI to prove it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace critter::obs {

/// Runtime gate: CRITTER_TRACE set and not "0", unless forced.
bool trace_enabled();

/// Force the gate on/off regardless of the environment (bench A/B and
/// tests); trace_unforce() returns to the environment's verdict.
void trace_force(bool on);
void trace_unforce();

/// The CRITTER_TRACE value when it names a file ("...json"), else "".
std::string trace_env_path();

/// Capacity (events per thread) for rings created after the call — set
/// before the first emit on a thread (tests use tiny rings to exercise
/// overflow).  Default 16384.
void trace_set_capacity(std::size_t events_per_thread);

/// Drop every recorded event (tests); total drop-oldest casualties.
void trace_reset_for_tests();
std::uint64_t trace_dropped();

/// Bytes held by every thread's ring: a full ring per live thread that
/// has emitted, plus the recorded events of exited threads (tests).
std::size_t trace_ring_bytes();

/// The pid recorded in exported events (fleet workers export under their
/// shard index so the merged timeline has stable process rows); -1 = the
/// real pid.
void trace_set_pid(int pid);

/// RAII complete-span ('X') emitter.  Costs one relaxed load when tracing
/// is disabled.  `arg_name`/`arg` attach one integer argument ("args"
/// in the JSON) when arg_name is non-null.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat,
                      const char* arg_name = nullptr, std::uint64_t arg = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  const char* arg_name_;
  std::uint64_t arg_;
  std::int64_t t0_us_ = -1;  ///< -1: tracing was disabled at entry
};

/// Zero-duration instant event ('i', thread scope).
void trace_instant(const char* name, const char* cat,
                   const char* arg_name = nullptr, std::uint64_t arg = 0);

/// Flow events: 's' starts a flow, 'f' finishes it; both sides must use
/// the same (cat, id).  Emit inside an enclosing span on each side — the
/// viewer binds the arrow to the enclosing slice.
void trace_flow(char ph, const char* name, const char* cat, std::uint64_t id);

/// All threads' events as one Chrome trace-event document
/// {"traceEvents":[...]} in (tid, time) order.  Does not clear the rings.
std::string trace_export_chrome();

/// trace_export_chrome() to a file; false (with a warn log) on I/O error.
bool trace_write_chrome(const std::string& path);

/// Flush this process's events — merged with any adopted documents — to
/// trace_env_path() if tracing is enabled, a path is configured, and no
/// explicit flush already wrote it.  Installed via atexit on first emit;
/// harmless to call directly.
void trace_flush_env();

/// Merge full chrome documents (each as written by trace_write_chrome,
/// with per-document pids already distinct) into one document, prepending
/// process_name metadata from `process_names` (pid, name) pairs.  A pure
/// function.
std::string trace_merge_chrome(
    const std::vector<std::string>& docs,
    const std::vector<std::pair<int, std::string>>& process_names);

/// Adopt other processes' documents into this process's trace file — the
/// fleet launcher's merge of its shards' traces.  `process_names` rows
/// (first name per pid wins, this process's own row included) are kept
/// with them.  The env path is written at once, and every later write of
/// it (trace_flush_env, the exit flush) merges the adopted documents with
/// this process's events *as of that write*, so spans recorded after a
/// fleet run still reach the file.
void trace_adopt_docs(std::vector<std::string> docs,
                      std::vector<std::pair<int, std::string>> process_names);

}  // namespace critter::obs
