#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "util/check.hpp"
#include "util/json.hpp"

namespace critter::obs {

namespace {

/// Exactly one of the pointers is set — the kind the name registered as.
struct Entry {
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct Registry {
  std::mutex m;
  // Ordered map: snapshots iterate sorted by name with no extra sort.
  std::map<std::string, Entry> entries;
};

/// Leaked on purpose: metric references outlive every static destructor
/// (atexit trace flushes and worker teardown may still bump counters).
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::atomic<const char*> g_phase{"idle"};

/// Shortest round-trip-safe decimal for doubles; integral values print
/// without a fraction so counters-as-gauges stay readable.
std::string num(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  CRITTER_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must ascend");
}

void Histogram::observe(double v) {
  const std::size_t i = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

std::vector<double> latency_buckets_s() {
  // 1us, 4us, 16us, ... x4 per bucket up to ~68s: 13 bounds.
  std::vector<double> b;
  double v = 1e-6;
  for (int i = 0; i < 13; ++i, v *= 4.0) b.push_back(v);
  return b;
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.m);
  Entry& e = r.entries[name];
  if (!e.counter) {
    CRITTER_CHECK(!e.gauge && !e.histogram,
                  "metric '" + name + "' already registered as another kind");
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.m);
  Entry& e = r.entries[name];
  if (!e.gauge) {
    CRITTER_CHECK(!e.counter && !e.histogram,
                  "metric '" + name + "' already registered as another kind");
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& histogram(const std::string& name,
                     const std::vector<double>& bounds) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.m);
  Entry& e = r.entries[name];
  if (!e.histogram) {
    CRITTER_CHECK(!e.counter && !e.gauge,
                  "metric '" + name + "' already registered as another kind");
    e.histogram = std::make_unique<Histogram>(bounds);
  }
  return *e.histogram;
}

std::string metrics_text() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.m);
  std::string out;
  for (const auto& [name, e] : r.entries) {
    if (e.counter) {
      out += name + " " + num(static_cast<double>(e.counter->value())) + "\n";
    } else if (e.gauge) {
      out += name + " " + num(e.gauge->value()) + "\n";
    } else if (e.histogram) {
      out += name + ".count " +
             num(static_cast<double>(e.histogram->count())) + "\n";
      out += name + ".sum " + num(e.histogram->sum()) + "\n";
    }
  }
  return out;
}

std::string metrics_json() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.m);
  std::string counters, gauges, histograms;
  for (const auto& [name, e] : r.entries) {
    if (e.counter) {
      if (!counters.empty()) counters += ",";
      counters += util::json_quote(name) + ":" +
                  num(static_cast<double>(e.counter->value()));
    } else if (e.gauge) {
      if (!gauges.empty()) gauges += ",";
      gauges += util::json_quote(name) + ":" + num(e.gauge->value());
    } else if (e.histogram) {
      if (!histograms.empty()) histograms += ",";
      std::string buckets;
      const std::vector<double>& bounds = e.histogram->bounds();
      const std::vector<std::uint64_t> counts = e.histogram->bucket_counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (!buckets.empty()) buckets += ",";
        const std::string bound =
            i < bounds.size() ? num(bounds[i]) : std::string("\"inf\"");
        buckets += "[" + bound + "," +
                   num(static_cast<double>(counts[i])) + "]";
      }
      histograms += util::json_quote(name) + ":{\"count\":" +
                    num(static_cast<double>(e.histogram->count())) +
                    ",\"sum\":" + num(e.histogram->sum()) +
                    ",\"buckets\":[" + buckets + "]}";
    }
  }
  return "{\"phase\":" + util::json_quote(current_phase()) + ",\"counters\":{" +
         counters + "},\"gauges\":{" + gauges + "},\"histograms\":{" +
         histograms + "}}";
}

std::string metrics_compact() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.m);
  std::string out;
  for (const auto& [name, e] : r.entries) {
    if (!out.empty()) out += " ";
    if (e.counter) {
      out += name + "=" + num(static_cast<double>(e.counter->value()));
    } else if (e.gauge) {
      out += name + "=" + num(e.gauge->value());
    } else if (e.histogram) {
      out += name + ".count=" + num(static_cast<double>(e.histogram->count()));
      out += " " + name + ".sum=" + num(e.histogram->sum());
    }
  }
  return out;
}

void metrics_reset_for_tests() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.m);
  r.entries.clear();
}

void set_phase(const char* phase) {
  g_phase.store(phase, std::memory_order_relaxed);
}

const char* current_phase() {
  return g_phase.load(std::memory_order_relaxed);
}

}  // namespace critter::obs
