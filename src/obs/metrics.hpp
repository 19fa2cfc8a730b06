// Dependency-free metrics registry shared by every runtime layer.
//
// A MetricsRegistry is a named set of counters, gauges, and log-scale
// histograms. Registration (the name → instrument lookup) takes a mutex and
// is meant to happen once, at component construction; the returned
// references are stable for the registry's lifetime, so hot paths hold a
// `Counter&` and pay one relaxed atomic add per event — cheap enough for
// the serve reactor and the replay scoring loop. Names are hierarchical
// dotted paths ("serve.decide.latency_us", "dist.jobs.requeued"); the
// snapshot renderers sort by name, so output is deterministic.
//
// Histograms reuse util/histogram.hpp's bucket math (16 sub-buckets per
// power-of-two decade, ≤1/16 quantile overstatement) over an array of
// relaxed atomics, so record() is lock-free and a snapshot never blocks a
// recording thread.
//
// Telemetry observes, never perturbs: no instrument value is ever read back
// into a decision, so the serving/sweep/replay bytes are the same whatever
// a registry holds. Each event is counted once, here; components keep no
// shadow copy of a count the registry already carries.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.hpp"

namespace ncb::obs {

/// Snapshot JSON schema version (bump on any field change).
inline constexpr int kMetricsSchemaVersion = 1;

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, live connections); may go negative
/// transiently, hence signed.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Quantile summary of one histogram at snapshot time. Quantiles carry the
/// bucket granularity of util/histogram.hpp (overstated by at most 1/16).
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t max = 0;  ///< Exact largest recorded value.
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

/// Log-scale histogram over LatencyHistogram's fixed bucket layout, with
/// atomic buckets so record() is safe from any thread without a lock.
class Histogram {
 public:
  void record(std::uint64_t value) noexcept {
    buckets_[LatencyHistogram::bucket_index(value)].fetch_add(
        1, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Consistent-enough view for monitoring: buckets are loaded relaxed, so
  /// a snapshot racing a record() may miss the in-flight event.
  [[nodiscard]] HistogramStats stats() const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kNumBuckets>
      buckets_{};
  std::atomic<std::uint64_t> max_{0};
};

/// Flattened scalar view of one snapshot entry — the wire shape of a
/// StatsReply. Histograms expand to five derived scalars
/// (name.count/.max/.p50/.p99/.p999).
struct StatEntry {
  /// 0 = counter (monotonic; rates are meaningful), 1 = gauge (value is an
  /// int64 bit pattern), 2 = histogram-derived scalar.
  std::uint8_t kind = 0;
  std::string name;
  std::uint64_t value = 0;
};

inline constexpr std::uint8_t kStatCounter = 0;
inline constexpr std::uint8_t kStatGauge = 1;
inline constexpr std::uint8_t kStatHistogram = 2;

/// Point-in-time copy of a registry, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;

  /// Schema-versioned JSON document (one metric per line, sorted names —
  /// byte-deterministic for equal values, following exp/emitters style).
  [[nodiscard]] std::string render_json() const;
  /// Scalar entries in render order: counters, gauges, then histogram
  /// derivatives — what a StatsReply carries.
  [[nodiscard]] std::vector<StatEntry> flatten() const;
};

class MetricsRegistry {
 public:
  /// Finds or creates the named instrument. The reference stays valid for
  /// the registry's lifetime; look up once and keep it.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Process-wide default registry. Components take an optional
  /// MetricsRegistry* and fall back to this, so tests can isolate exact
  /// counts by passing their own instance.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ncb::obs
