// Unit tests for the src/obs/ metrics layer: instrument semantics, stable
// registry references, snapshot rendering (JSON / flattened wire entries),
// agreement between obs::Histogram and the LatencyHistogram bucket math it
// reuses, ScopedTimer, concurrent counter exactness, and the StatsReply
// wire round trip.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/histogram.hpp"

namespace ncb::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAddAndNegativeValues) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.set(10);
  gauge.add(-25);
  EXPECT_EQ(gauge.value(), -15);
}

TEST(Histogram, EmptyStatsAreAllZero) {
  Histogram histogram;
  const HistogramStats stats = histogram.stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.max, 0u);
  EXPECT_EQ(stats.p50, 0u);
  EXPECT_EQ(stats.p99, 0u);
  EXPECT_EQ(stats.p999, 0u);
}

TEST(Histogram, AgreesWithLatencyHistogramQuantiles) {
  // Same stream into both implementations: the obs histogram borrows the
  // LatencyHistogram bucket layout, so the quantiles must match exactly.
  Histogram ours;
  LatencyHistogram reference;
  for (std::uint64_t i = 1; i <= 10000; ++i) {
    const std::uint64_t v = (i * 2654435761ULL) % 1000000;
    ours.record(v);
    reference.record(v);
  }
  const HistogramStats stats = ours.stats();
  EXPECT_EQ(stats.count, reference.count());
  EXPECT_EQ(stats.max, reference.max());
  EXPECT_EQ(stats.p50, reference.p50());
  EXPECT_EQ(stats.p99, reference.p99());
  EXPECT_EQ(stats.p999, reference.p999());
}

TEST(Histogram, MaxIsExactNotBucketRounded) {
  Histogram histogram;
  histogram.record(1000003);  // not a bucket boundary
  EXPECT_EQ(histogram.stats().max, 1000003u);
  EXPECT_EQ(histogram.stats().count, 1u);
}

TEST(MetricsRegistry, ReferencesAreStableAndDeduplicated) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.events");
  Counter& b = registry.counter("x.events");
  EXPECT_EQ(&a, &b);
  // Kind namespaces are independent: a gauge may share a counter's name.
  Gauge& g = registry.gauge("x.events");
  EXPECT_NE(static_cast<void*>(&g), static_cast<void*>(&a));
  Histogram& h1 = registry.histogram("x.lat");
  Histogram& h2 = registry.histogram("x.lat");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.counter("z.last").inc(3);
  registry.counter("a.first").inc(1);
  registry.counter("m.middle").inc(2);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "a.first");
  EXPECT_EQ(snapshot.counters[1].first, "m.middle");
  EXPECT_EQ(snapshot.counters[2].first, "z.last");
  EXPECT_EQ(snapshot.counters[2].second, 3u);
}

TEST(MetricsSnapshot, RenderJsonCarriesSchemaAndValues) {
  MetricsRegistry registry;
  registry.counter("serve.decide.requests").inc(7);
  registry.gauge("serve.connections.active").set(-2);
  registry.histogram("serve.decide.latency_us").record(100);
  const std::string json = registry.snapshot().render_json();
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"serve.decide.requests\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"serve.connections.active\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"serve.decide.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // Byte-determinism: rendering the same state twice is identical.
  EXPECT_EQ(json, registry.snapshot().render_json());
}

TEST(MetricsSnapshot, FlattenKindsAndHistogramSuffixes) {
  MetricsRegistry registry;
  registry.counter("c").inc(1);
  registry.gauge("g").set(-4);
  registry.histogram("h").record(10);
  const std::vector<StatEntry> entries = registry.snapshot().flatten();
  // Counters, then gauges, then 5 derived scalars per histogram.
  ASSERT_EQ(entries.size(), 1u + 1u + 5u);
  EXPECT_EQ(entries[0].kind, kStatCounter);
  EXPECT_EQ(entries[0].name, "c");
  EXPECT_EQ(entries[0].value, 1u);
  EXPECT_EQ(entries[1].kind, kStatGauge);
  EXPECT_EQ(static_cast<std::int64_t>(entries[1].value), -4);
  const char* suffixes[] = {".count", ".max", ".p50", ".p99", ".p999"};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(entries[2 + i].kind, kStatHistogram);
    EXPECT_EQ(entries[2 + i].name, std::string("h") + suffixes[i]);
  }
  EXPECT_EQ(entries[2].value, 1u);  // h.count
}

TEST(MetricsSnapshot, StatsReplyWireRoundTrip) {
  MetricsRegistry registry;
  registry.counter("c").inc(3);
  registry.gauge("g").set(-1);
  registry.histogram("h").record(99);
  dist::StatsReplyMsg msg;
  for (const StatEntry& entry : registry.snapshot().flatten()) {
    msg.entries.push_back({entry.kind, entry.name, entry.value});
  }
  const dist::StatsReplyMsg decoded =
      dist::decode_stats_reply(dist::encode_stats_reply(msg));
  ASSERT_EQ(decoded.entries.size(), msg.entries.size());
  for (std::size_t i = 0; i < msg.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].kind, msg.entries[i].kind);
    EXPECT_EQ(decoded.entries[i].name, msg.entries[i].name);
    EXPECT_EQ(decoded.entries[i].value, msg.entries[i].value);
  }
}

TEST(ScopedTimer, RecordsOneSampleOnDestruction) {
  Histogram histogram;
  {
    const ScopedTimer timer(histogram);
  }
  EXPECT_EQ(histogram.stats().count, 1u);
}

TEST(Counter, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace ncb::obs
