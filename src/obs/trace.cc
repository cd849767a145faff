#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "obs/log.hpp"
#include "util/json.hpp"

namespace critter::obs {

namespace {

struct TraceEvent {
  const char* name;
  const char* cat;
  const char* arg_name;  ///< nullptr: no args object
  std::int64_t ts_us;
  std::int64_t dur_us;  ///< 'X' only
  std::uint64_t id;     ///< flow events only
  std::uint64_t arg;
  char ph;  ///< 'X', 'i', 's', 'f'
};

struct Ring {
  std::vector<TraceEvent> slots;
  std::uint64_t next = 0;  ///< monotonic write cursor (mod size = slot)
  int tid = 0;
  /// Set when the owning thread exits before the ring wraps: slots then
  /// hold exactly the `next` recorded events, and later emits append.
  bool trimmed = false;

  std::uint64_t dropped() const {
    return next > slots.size() ? next - slots.size() : 0;
  }
};

struct TraceState {
  std::mutex m;
  /// Owned here and kept after their threads exit (their events are still
  /// exported), but trimmed to those events at thread exit.
  std::vector<std::unique_ptr<Ring>> rings;
  int next_tid = 1;
  std::size_t capacity = 16384;
  bool env_path_written = false;
  bool atexit_installed = false;
  /// Other processes' documents (a fleet launcher's shard traces) and the
  /// process rows naming them, merged into every write of the env path.
  std::vector<std::string> adopted_docs;
  std::vector<std::pair<int, std::string>> adopted_names;
};

/// Leaked: rings must survive static destruction (the atexit flush).
TraceState& state() {
  static TraceState* s = new TraceState();
  return *s;
}

// -1: follow the environment; 0/1: forced.
std::atomic<int> g_force{-1};
std::atomic<int> g_pid_override{-1};

bool env_enabled() {
  static const bool on = [] {
    const char* v = std::getenv("CRITTER_TRACE");
    return v && *v && std::strcmp(v, "0") != 0;
  }();
  return on;
}

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-anchored timestamp: steady intervals, wall alignment — concurrent
/// processes on one host merge onto one coherent timeline.
std::int64_t wall_anchor_us() {
  static const std::int64_t anchor = [] {
    const std::int64_t wall =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    return wall - steady_us();
  }();
  return anchor;
}

std::int64_t now_us() { return steady_us() + wall_anchor_us(); }

thread_local Ring* t_ring = nullptr;

/// At thread exit, shrink the thread's ring to the events it holds, so a
/// process that runs many short-lived threads (the daemon runs one per
/// connection) keeps their events, not a full ring each.  A ring that has
/// not wrapped holds its events in slots [0, next), already in order; a
/// wrapped ring is full of events and stays as it is.
struct RingTrimmer {
  ~RingTrimmer() {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.m);
    Ring& r = *t_ring;
    if (r.next >= r.slots.size()) return;
    r.slots.resize(r.next);
    r.slots.shrink_to_fit();
    r.trimmed = true;
  }
};

Ring& ring() {
  if (t_ring) return *t_ring;
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  s.rings.push_back(std::make_unique<Ring>());
  Ring& r = *s.rings.back();
  r.slots.resize(std::max<std::size_t>(1, s.capacity));
  r.tid = s.next_tid++;
  t_ring = &r;
  thread_local RingTrimmer trimmer;  // registers the thread-exit trim
  if (!s.atexit_installed && !trace_env_path().empty()) {
    s.atexit_installed = true;
    std::atexit(trace_flush_env);
  }
  return r;
}

void emit(const TraceEvent& ev) {
  Ring& r = ring();
  if (r.trimmed) {
    // The thread is exiting (another thread_local's destructor emits):
    // append under the lock, since an export may be reading the ring.
    std::lock_guard<std::mutex> lock(state().m);
    r.slots.push_back(ev);
    ++r.next;
    return;
  }
  r.slots[r.next % r.slots.size()] = ev;
  ++r.next;
}

void append_event_json(std::string& out, const TraceEvent& ev, int pid,
                       int tid) {
  char buf[256];
  out += "{\"name\":" + util::json_quote(ev.name) +
         ",\"cat\":" + util::json_quote(ev.cat) + ",\"ph\":\"";
  out += ev.ph;
  std::snprintf(buf, sizeof buf, "\",\"ts\":%lld,\"pid\":%d,\"tid\":%d",
                static_cast<long long>(ev.ts_us), pid, tid);
  out += buf;
  if (ev.ph == 'X') {
    std::snprintf(buf, sizeof buf, ",\"dur\":%lld",
                  static_cast<long long>(ev.dur_us));
    out += buf;
  }
  if (ev.ph == 'i') out += ",\"s\":\"t\"";
  if (ev.ph == 's' || ev.ph == 'f') {
    std::snprintf(buf, sizeof buf, ",\"id\":%llu",
                  static_cast<unsigned long long>(ev.id));
    out += buf;
    if (ev.ph == 'f') out += ",\"bp\":\"e\"";
  }
  if (ev.arg_name) {
    std::snprintf(buf, sizeof buf, ",\"args\":{\"%s\":%llu}", ev.arg_name,
                  static_cast<unsigned long long>(ev.arg));
    out += buf;
  }
  out += "}";
}

int export_pid() {
  const int o = g_pid_override.load(std::memory_order_relaxed);
  return o >= 0 ? o : static_cast<int>(::getpid());
}

/// The events array body of a chrome document produced by our own
/// exporter: everything between the first '[' and the last ']'.
std::string chrome_body(const std::string& doc) {
  const std::size_t open = doc.find('[');
  const std::size_t close = doc.rfind(']');
  if (open == std::string::npos || close == std::string::npos ||
      close <= open)
    return "";
  return doc.substr(open + 1, close - open - 1);
}

}  // namespace

bool trace_enabled() {
  const int f = g_force.load(std::memory_order_relaxed);
  if (f >= 0) return f != 0;
  return env_enabled();
}

void trace_force(bool on) {
  g_force.store(on ? 1 : 0, std::memory_order_relaxed);
}

void trace_unforce() { g_force.store(-1, std::memory_order_relaxed); }

std::string trace_env_path() {
  const char* v = std::getenv("CRITTER_TRACE");
  if (!v || !*v) return "";
  const std::string s = v;
  if (s.size() > 5 && s.compare(s.size() - 5, 5, ".json") == 0) return s;
  return "";
}

void trace_set_capacity(std::size_t events_per_thread) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  s.capacity = events_per_thread;
}

void trace_reset_for_tests() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  for (std::unique_ptr<Ring>& r : s.rings) {
    r->next = 0;
    if (r->trimmed) {
      r->slots.clear();
      r->slots.shrink_to_fit();
    } else {
      r->slots.assign(std::max<std::size_t>(1, s.capacity), TraceEvent{});
    }
  }
  s.env_path_written = false;
  s.adopted_docs.clear();
  s.adopted_names.clear();
}

std::size_t trace_ring_bytes() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  std::size_t total = 0;
  for (const std::unique_ptr<Ring>& r : s.rings)
    total += r->slots.capacity() * sizeof(TraceEvent);
  return total;
}

std::uint64_t trace_dropped() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  std::uint64_t total = 0;
  for (const std::unique_ptr<Ring>& r : s.rings) total += r->dropped();
  return total;
}

void trace_set_pid(int pid) {
  g_pid_override.store(pid, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, const char* cat,
                       const char* arg_name, std::uint64_t arg)
    : name_(name), cat_(cat), arg_name_(arg_name), arg_(arg) {
  if (!trace_enabled()) return;
  t0_us_ = now_us();
}

ScopedSpan::~ScopedSpan() {
  if (t0_us_ < 0) return;
  TraceEvent ev{};
  ev.name = name_;
  ev.cat = cat_;
  ev.arg_name = arg_name_;
  ev.ts_us = t0_us_;
  ev.dur_us = now_us() - t0_us_;
  ev.arg = arg_;
  ev.ph = 'X';
  emit(ev);
}

void trace_instant(const char* name, const char* cat, const char* arg_name,
                   std::uint64_t arg) {
  if (!trace_enabled()) return;
  TraceEvent ev{};
  ev.name = name;
  ev.cat = cat;
  ev.arg_name = arg_name;
  ev.ts_us = now_us();
  ev.arg = arg;
  ev.ph = 'i';
  emit(ev);
}

void trace_flow(char ph, const char* name, const char* cat,
                std::uint64_t id) {
  if (!trace_enabled()) return;
  TraceEvent ev{};
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = now_us();
  ev.id = id;
  ev.ph = ph;
  emit(ev);
}

std::string trace_export_chrome() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  const int pid = export_pid();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const std::unique_ptr<Ring>& r : s.rings) {
    const std::size_t cap = r->slots.size();
    const std::uint64_t n = std::min<std::uint64_t>(r->next, cap);
    // Oldest-first: the cursor's slot is the oldest once wrapped.
    const std::uint64_t start = r->next > cap ? r->next % cap : 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!first) out += ",\n";
      first = false;
      append_event_json(out, r->slots[(start + i) % cap], pid, r->tid);
    }
  }
  out += "]}";
  return out;
}

namespace {

/// Best-effort by contract: an unwritable trace path must never fail the
/// traced run (passivity), so no fsio CHECK-throwing writers here.
bool write_doc(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    log_warn("trace: cannot write %s", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (!ok) log_warn("trace: short write to %s", path.c_str());
  return ok;
}

/// What this process writes to its env path: its own events, merged with
/// every adopted document when it has any.
std::string env_document() {
  std::vector<std::string> docs;
  std::vector<std::pair<int, std::string>> names;
  {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.m);
    docs = s.adopted_docs;
    names = s.adopted_names;
  }
  if (docs.empty()) return trace_export_chrome();
  docs.push_back(trace_export_chrome());
  return trace_merge_chrome(docs, names);
}

}  // namespace

bool trace_write_chrome(const std::string& path) {
  return write_doc(path, trace_export_chrome());
}

void trace_flush_env() {
  if (!trace_enabled()) return;
  const std::string path = trace_env_path();
  if (path.empty()) return;
  {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.m);
    if (s.env_path_written) return;
    s.env_path_written = true;
  }
  write_doc(path, env_document());
}

void trace_adopt_docs(std::vector<std::string> docs,
                      std::vector<std::pair<int, std::string>> process_names) {
  {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.m);
    for (std::string& d : docs) s.adopted_docs.push_back(std::move(d));
    for (auto& [pid, name] : process_names) {
      const bool known = std::any_of(
          s.adopted_names.begin(), s.adopted_names.end(),
          [pid = pid](const auto& row) { return row.first == pid; });
      if (!known) s.adopted_names.emplace_back(pid, std::move(name));
    }
  }
  // Written now, so the merged timeline exists as soon as the fleet
  // returns; the exit flush rewrites it with everything recorded since.
  if (const std::string path = trace_env_path(); !path.empty())
    write_doc(path, env_document());
}

std::string trace_merge_chrome(
    const std::vector<std::string>& docs,
    const std::vector<std::pair<int, std::string>>& process_names) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, name] : process_names) {
    if (!first) out += ",\n";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "{\"name\":\"process_name\",\"ph\":\"M\","
                                   "\"pid\":%d,\"tid\":0,",
                  pid);
    out += buf;
    out += "\"args\":{\"name\":" + util::json_quote(name) + "}}";
  }
  for (const std::string& doc : docs) {
    const std::string body = chrome_body(doc);
    if (body.find('{') == std::string::npos) continue;  // empty trace
    if (!first) out += ",\n";
    first = false;
    out += body;
  }
  out += "]}";
  return out;
}

}  // namespace critter::obs
