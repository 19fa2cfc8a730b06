#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace ncb::obs {

HistogramStats Histogram::stats() const noexcept {
  // Copy the atomic buckets once, then derive everything from the copy so
  // count and quantiles describe the same set of events.
  std::array<std::uint64_t, LatencyHistogram::kNumBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  HistogramStats out;
  out.count = total;
  out.max = max_.load(std::memory_order_relaxed);
  if (total == 0) return out;

  const auto quantile = [&](double q) {
    // Nearest-rank over the bucket walk, exactly like
    // LatencyHistogram::quantile (same bucket math, same cap at max).
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5);
    target = std::max<std::uint64_t>(1, std::min(target, total));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      seen += counts[i];
      if (seen >= target) {
        return std::min(LatencyHistogram::bucket_upper(i), out.max);
      }
    }
    return out.max;
  };
  out.p50 = quantile(0.50);
  out.p99 = quantile(0.99);
  out.p999 = quantile(0.999);
  return out;
}

namespace {

/// Metric names are [a-z0-9._-] by convention, but escape anyway so a
/// stray name can never produce an unparsable snapshot.
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string MetricsSnapshot::render_json() const {
  std::string out = "{\n \"schema\": " +
                    std::to_string(kMetricsSchemaVersion) +
                    ",\n \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  " + json_string(name) + ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n },\n";
  out += " \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  " + json_string(name) + ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n },\n";
  out += " \"histograms\": {";
  first = true;
  for (const auto& [name, stats] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  " + json_string(name) + ": {\"count\": " +
           std::to_string(stats.count) + ", \"max\": " +
           std::to_string(stats.max) + ", \"p50\": " +
           std::to_string(stats.p50) + ", \"p99\": " +
           std::to_string(stats.p99) + ", \"p999\": " +
           std::to_string(stats.p999) + "}";
  }
  out += first ? "}\n" : "\n }\n";
  out += "}\n";
  return out;
}

std::vector<StatEntry> MetricsSnapshot::flatten() const {
  std::vector<StatEntry> out;
  out.reserve(counters.size() + gauges.size() + histograms.size() * 5);
  for (const auto& [name, value] : counters) {
    out.push_back({kStatCounter, name, value});
  }
  for (const auto& [name, value] : gauges) {
    out.push_back({kStatGauge, name, static_cast<std::uint64_t>(value)});
  }
  for (const auto& [name, stats] : histograms) {
    out.push_back({kStatHistogram, name + ".count", stats.count});
    out.push_back({kStatHistogram, name + ".max", stats.max});
    out.push_back({kStatHistogram, name + ".p50", stats.p50});
    out.push_back({kStatHistogram, name + ".p99", stats.p99});
    out.push_back({kStatHistogram, name + ".p999", stats.p999});
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace_back(name, histogram->stats());
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace ncb::obs
