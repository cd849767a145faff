// Observability layer (DESIGN.md §14): the metrics registry, the
// trace-span ring buffers, the Chrome trace-event exporter, and leveled
// logging.  The exporter tests validate real JSON with a small
// recursive-descent parser — a trace no tool can load is a trace that
// does not exist.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fsio.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace obs = critter::obs;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: enough of RFC 8259 to validate exporter output and
// walk the trace-event schema.  Throws std::runtime_error on malformed
// input.
// ---------------------------------------------------------------------------

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON bytes");
    return v;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("JSON parse error at offset ") +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Json v;
      v.kind = Json::kString;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return {};
    }
    return number();
  }
  void literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) expect(*p);
  }
  Json boolean() {
    Json v;
    v.kind = Json::kBool;
    if (peek() == 't') {
      literal("true");
      v.b = true;
    } else {
      literal("false");
    }
    return v;
  }
  Json number() {
    const std::size_t start = pos_;
    consume('-');
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("bad number");
    Json v;
    v.kind = Json::kNumber;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            pos_ += 4;
            out += '?';  // codepoint identity is irrelevant to the schema
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }
  Json array() {
    expect('[');
    Json v;
    v.kind = Json::kArray;
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (consume(']')) return v;
      expect(',');
    }
  }
  Json object() {
    expect('{');
    Json v;
    v.kind = Json::kObject;
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      const std::string key = string();
      skip_ws();
      expect(':');
      v.obj[key] = value();
      skip_ws();
      if (consume('}')) return v;
      expect(',');
    }
  }
};

Json parse_json(const std::string& text) { return JsonParser(text).parse(); }

/// Chrome trace-event schema checks every exported event must satisfy.
void check_trace_event_schema(const Json& ev) {
  ASSERT_EQ(ev.kind, Json::kObject);
  ASSERT_TRUE(ev.has("name"));
  ASSERT_TRUE(ev.has("ph"));
  ASSERT_TRUE(ev.has("ts"));
  ASSERT_TRUE(ev.has("pid"));
  ASSERT_TRUE(ev.has("tid"));
  const std::string ph = ev.at("ph").str;
  if (ph == "X") ASSERT_TRUE(ev.has("dur"));
  if (ph == "s" || ph == "f") ASSERT_TRUE(ev.has("id"));
}

struct TraceGuard {
  TraceGuard() {
    obs::trace_reset_for_tests();
    obs::trace_force(true);
  }
  ~TraceGuard() {
    obs::trace_unforce();
    obs::trace_reset_for_tests();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterGaugeHistogramRoundTrip) {
  obs::metrics_reset_for_tests();
  obs::counter("t.count").add();
  obs::counter("t.count").add(4);
  obs::gauge("t.gauge").set(2.5);
  obs::Histogram& h = obs::histogram("t.hist", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

  EXPECT_EQ(obs::counter("t.count").value(), 5u);
  EXPECT_DOUBLE_EQ(obs::gauge("t.gauge").value(), 2.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);

  const std::string text = obs::metrics_text();
  EXPECT_NE(text.find("t.count 5"), std::string::npos);
  EXPECT_NE(text.find("t.hist.count 3"), std::string::npos);

  const std::string compact = obs::metrics_compact();
  EXPECT_NE(compact.find("t.count=5"), std::string::npos);
  obs::metrics_reset_for_tests();
}

TEST(ObsMetrics, JsonIsValidAndStable) {
  obs::metrics_reset_for_tests();
  obs::counter("j.b").add(2);
  obs::counter("j.a").add(1);
  obs::gauge("j.g").set(1.25);
  obs::histogram("j.h", {0.5}).observe(0.25);

  const std::string a = obs::metrics_json();
  const std::string b = obs::metrics_json();
  EXPECT_EQ(a, b) << "snapshots of unchanged metrics must be byte-stable";

  const Json doc = parse_json(a);
  ASSERT_EQ(doc.kind, Json::kObject);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("j.a").num, 1.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("j.b").num, 2.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("j.g").num, 1.25);
  const Json& h = doc.at("histograms").at("j.h");
  EXPECT_DOUBLE_EQ(h.at("count").num, 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").num, 0.25);
  ASSERT_EQ(h.at("buckets").arr.size(), 2u);
  obs::metrics_reset_for_tests();
}

TEST(ObsMetrics, ConcurrentAddsAreExact) {
  obs::metrics_reset_for_tests();
  obs::Counter& c = obs::counter("c.adds");
  obs::Histogram& h = obs::histogram("c.hist");
  constexpr int kN = 4000;
  critter::util::ThreadPool pool(4);
  pool.parallel_for(kN, [&](int i) {
    c.add();
    h.observe(1e-6 * (1 + (i & 7)));
  });
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kN));
  obs::metrics_reset_for_tests();
}

TEST(ObsMetrics, NameKindMismatchFails) {
  obs::metrics_reset_for_tests();
  obs::counter("k.name");
  EXPECT_THROW(obs::gauge("k.name"), std::runtime_error);
  obs::metrics_reset_for_tests();
}

TEST(ObsMetrics, PhaseLabel) {
  obs::set_phase("exchange");
  EXPECT_STREQ(obs::current_phase(), "exchange");
  obs::set_phase("idle");
}

// ---------------------------------------------------------------------------
// Trace rings + exporter
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledEmittersRecordNothing) {
  obs::trace_reset_for_tests();
  obs::trace_force(false);
  {
    obs::ScopedSpan span("quiet", "test");
    obs::trace_instant("quiet.i", "test");
    obs::trace_flow('s', "quiet.f", "test", 7);
  }
  obs::trace_unforce();
  const Json doc = parse_json(obs::trace_export_chrome());
  EXPECT_TRUE(doc.at("traceEvents").arr.empty());
  obs::trace_reset_for_tests();
}

TEST(ObsTrace, RingOverflowDropsOldest) {
  obs::trace_reset_for_tests();
  obs::trace_set_capacity(8);
  obs::trace_force(true);
  for (int i = 0; i < 20; ++i)
    obs::trace_instant("tick", "test", "i", static_cast<std::uint64_t>(i));
  obs::trace_unforce();

  EXPECT_EQ(obs::trace_dropped(), 12u);
  const Json doc = parse_json(obs::trace_export_chrome());
  const std::vector<Json>& evs = doc.at("traceEvents").arr;
  ASSERT_EQ(evs.size(), 8u);
  // Drop-oldest: exactly ticks 12..19 survive, still in emit order.
  for (std::size_t j = 0; j < evs.size(); ++j) {
    check_trace_event_schema(evs[j]);
    EXPECT_DOUBLE_EQ(evs[j].at("args").at("i").num,
                     static_cast<double>(12 + j));
  }
  obs::trace_set_capacity(16384);
  obs::trace_reset_for_tests();
}

TEST(ObsTrace, ExporterMatchesChromeSchema) {
  TraceGuard guard;
  {
    obs::ScopedSpan outer("outer", "test", "n", 3);
    { obs::ScopedSpan inner("inner", "test"); }
    obs::trace_instant("mark", "test");
    obs::trace_flow('s', "hop", "test", 42);
    obs::trace_flow('f', "hop", "test", 42);
  }
  const Json doc = parse_json(obs::trace_export_chrome());
  const std::vector<Json>& evs = doc.at("traceEvents").arr;
  ASSERT_EQ(evs.size(), 5u);
  int spans = 0, instants = 0, starts = 0, finishes = 0;
  for (const Json& ev : evs) {
    check_trace_event_schema(ev);
    const std::string ph = ev.at("ph").str;
    if (ph == "X") ++spans;
    if (ph == "i") ++instants;
    if (ph == "s") ++starts;
    if (ph == "f") ++finishes;
  }
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(finishes, 1);
}

TEST(ObsTrace, ConcurrentEmitFromThreadPool) {
  TraceGuard guard;
  constexpr int kN = 2000;
  critter::util::ThreadPool pool(4);
  pool.parallel_for(kN, [&](int i) {
    obs::ScopedSpan span("work", "test", "i", static_cast<std::uint64_t>(i));
    obs::trace_instant("step", "test");
  });
  const Json doc = parse_json(obs::trace_export_chrome());
  // Every emit lands in its thread's own ring; nothing dropped below
  // capacity, nothing torn (the parse above would have failed).
  EXPECT_EQ(doc.at("traceEvents").arr.size(),
            static_cast<std::size_t>(2 * kN));
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(ObsTrace, ExitedThreadsKeepOnlyTheirEvents) {
  TraceGuard guard;
  obs::trace_instant("main.tick", "test");  // this live thread's full ring
  const std::size_t live_bytes = obs::trace_ring_bytes();

  // A traced daemon runs one short-lived thread per connection; each must
  // leave behind its events, not a 16384-slot ring.
  constexpr int kThreads = 64;
  for (int i = 0; i < kThreads; ++i)
    std::thread([i] {
      obs::ScopedSpan span("short", "test", "i", static_cast<std::uint64_t>(i));
    }).join();

  const Json doc = parse_json(obs::trace_export_chrome());
  std::vector<int> order;
  for (const Json& ev : doc.at("traceEvents").arr) {
    check_trace_event_schema(ev);
    if (ev.at("name").str == "short")
      order.push_back(static_cast<int>(ev.at("args").at("i").num));
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kThreads));
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(order[i], i);
  // 64 B per recorded event (TraceEvent), nothing more.
  EXPECT_LE(obs::trace_ring_bytes(), live_bytes + kThreads * 64);
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(ObsTrace, MergePreservesProcessRows) {
  obs::trace_reset_for_tests();
  obs::trace_force(true);

  obs::trace_set_pid(0);
  obs::trace_instant("shard0.tick", "test");
  const std::string doc0 = obs::trace_export_chrome();
  obs::trace_reset_for_tests();

  obs::trace_set_pid(1);
  obs::trace_instant("shard1.tick", "test");
  const std::string doc1 = obs::trace_export_chrome();
  obs::trace_unforce();
  obs::trace_reset_for_tests();
  obs::trace_set_pid(-1);

  const std::string merged = obs::trace_merge_chrome(
      {doc0, doc1}, {{0, "shard 0"}, {1, "shard 1"}});
  const Json doc = parse_json(merged);
  const std::vector<Json>& evs = doc.at("traceEvents").arr;
  int meta = 0;
  bool saw0 = false, saw1 = false;
  for (const Json& ev : evs) {
    if (ev.at("ph").str == "M") {
      ++meta;
      continue;
    }
    check_trace_event_schema(ev);
    if (ev.at("name").str == "shard0.tick") {
      saw0 = true;
      EXPECT_DOUBLE_EQ(ev.at("pid").num, 0.0);
    }
    if (ev.at("name").str == "shard1.tick") {
      saw1 = true;
      EXPECT_DOUBLE_EQ(ev.at("pid").num, 1.0);
    }
  }
  EXPECT_EQ(meta, 2) << "one process_name metadata row per shard";
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST(ObsTrace, SpansAfterAFleetMergeReachTheEnvFile) {
  // Regression: a fleet merge used to mark CRITTER_TRACE's file as written,
  // so every span the merging process recorded afterwards was dropped.
  // Emit, merge (adopt a shard's document), emit, flush: the file must
  // carry both own spans and the shard's events.
  const std::string dir = critter::core::make_temp_dir("critter_obs_env");
  const std::string path = dir + "/trace.json";
  ::setenv("CRITTER_TRACE", path.c_str(), 1);
  obs::trace_reset_for_tests();
  obs::trace_force(true);
  { obs::ScopedSpan before("before.merge", "test"); }
  obs::trace_adopt_docs(
      {"{\"traceEvents\":[{\"name\":\"shard.tick\",\"cat\":\"test\","
       "\"ph\":\"i\",\"ts\":1,\"pid\":7,\"tid\":1,\"s\":\"t\"}]}"},
      {{7, "shard 7"}});
  { obs::ScopedSpan after("after.merge", "test"); }
  obs::trace_flush_env();
  const std::string written = critter::core::read_file(path);
  ::unsetenv("CRITTER_TRACE");
  obs::trace_unforce();
  obs::trace_reset_for_tests();
  critter::core::remove_dir_tree(dir);

  const Json doc = parse_json(written);
  std::map<std::string, int> seen;
  for (const Json& ev : doc.at("traceEvents").arr) {
    if (ev.at("ph").str == "M") continue;
    check_trace_event_schema(ev);
    ++seen[ev.at("name").str];
  }
  EXPECT_EQ(seen["before.merge"], 1) << written;
  EXPECT_EQ(seen["after.merge"], 1) << written;
  EXPECT_EQ(seen["shard.tick"], 1) << written;
}

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

TEST(ObsLog, LevelGating) {
  obs::log_force_level(obs::LogLevel::kError);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kError));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kWarn));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kDebug));

  obs::log_force_level(obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kDebug));

  // Filtered emits must be harmless no-ops.
  obs::log_force_level(obs::LogLevel::kError);
  obs::log_debug("never shown %d", 1);
  obs::log_force_level(obs::LogLevel::kWarn);  // the documented default
}
