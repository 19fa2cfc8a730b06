// serve/event_log — write/read round trip, flush-by-size and flush-by-age,
// close semantics, and crash tolerance: a log truncated at EVERY byte
// offset must yield exactly its complete-record prefix.
#include "serve/event_log.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "obs/metrics.hpp"

namespace fs = std::filesystem;

namespace ncb::serve {
namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ncb_evlog_XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_bytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Waits (bounded) for a background-flusher predicate to become true.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(EventLog, EmptyLogRoundTrips) {
  TempDir dir;
  const std::string path = dir.file("empty.ncbl");
  {
    EventLog log({path});
    log.close();
  }
  const EventLogScan scan = read_event_log(path);
  EXPECT_EQ(scan.version, kEventLogVersion);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.valid_bytes, 8u);
  EXPECT_EQ(fs::file_size(path), 8u);
}

TEST(EventLog, RoundTripPreservesOrderAndFields) {
  TempDir dir;
  const std::string path = dir.file("log.ncbl");
  {
    obs::MetricsRegistry registry;
    EventLog::Options options{path};
    options.metrics = &registry;
    EventLog log(options);
    log.append_decision(1, "alice", 7, 0.95);
    log.append_decision(2, "bob", 0, 0.05);
    log.append_feedback(1, 0.5);
    log.append_decision(3, "", 42, 1.0);  // empty key is legal
    log.append_feedback(999, 1.0);        // never decided: counts, not joined
    EXPECT_EQ(registry.counter("serve.log.records").value(), 5u);
    log.close();
    EXPECT_FALSE(log.write_failed());
    EXPECT_EQ(log.bytes_written(), fs::file_size(path));
  }

  const EventLogScan scan = read_event_log(path);
  EXPECT_EQ(scan.version, kEventLogVersion);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.decisions, 3u);
  EXPECT_EQ(scan.feedbacks, 2u);
  EXPECT_EQ(scan.joined, 1u);
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.valid_bytes, fs::file_size(path));

  EXPECT_EQ(scan.records[0].type, EventType::kDecision);
  EXPECT_EQ(scan.records[0].decision_id, 1u);
  EXPECT_EQ(scan.records[0].key, "alice");
  EXPECT_EQ(scan.records[0].action, 7);
  EXPECT_DOUBLE_EQ(scan.records[0].propensity, 0.95);

  EXPECT_EQ(scan.records[2].type, EventType::kFeedback);
  EXPECT_EQ(scan.records[2].decision_id, 1u);
  EXPECT_DOUBLE_EQ(scan.records[2].reward, 0.5);

  EXPECT_EQ(scan.records[3].key, "");
  EXPECT_EQ(scan.records[4].decision_id, 999u);
}

TEST(EventLog, FlushBySizeFiresBeforeClose) {
  TempDir dir;
  const std::string path = dir.file("size.ncbl");
  obs::MetricsRegistry registry;
  EventLog::Options options{path};
  options.metrics = &registry;
  options.flush_bytes = 64;        // a couple of records
  options.flush_ms = 60 * 1000;    // the age path must not be the trigger
  EventLog log(options);
  for (int i = 0; i < 50; ++i) {
    log.append_decision(static_cast<std::uint64_t>(i), "key", 1, 0.5);
  }
  EXPECT_TRUE(eventually([&] { return log.bytes_written() > 8; }))
      << "size-triggered flush never fired";
  EXPECT_GE(registry.counter("serve.log.flushes").value(), 1u);
  log.close();
  EXPECT_EQ(read_event_log(path).records.size(), 50u);
}

TEST(EventLog, FlushByAgeFiresWithoutSizePressure) {
  TempDir dir;
  const std::string path = dir.file("age.ncbl");
  EventLog::Options options{path};
  options.flush_bytes = 1 << 30;  // size never triggers
  options.flush_ms = 10;
  EventLog log(options);
  log.append_decision(1, "lonely", 0, 1.0);
  EXPECT_TRUE(eventually([&] { return log.bytes_written() > 8; }))
      << "age-triggered flush never fired";
  // The record is readable while the log is still open.
  EXPECT_EQ(read_event_log(path).records.size(), 1u);
  log.close();
}

TEST(EventLog, ExplicitFlushIsOnDiskOnReturn) {
  TempDir dir;
  const std::string path = dir.file("flush.ncbl");
  EventLog::Options options{path};
  options.flush_bytes = 1 << 30;
  options.flush_ms = 60 * 1000;
  EventLog log(options);
  log.append_decision(1, "a", 0, 1.0);
  log.append_feedback(1, 0.0);
  log.flush();
  EXPECT_EQ(read_event_log(path).records.size(), 2u);
  log.close();
}

TEST(EventLog, CloseIsIdempotentAndAppendAfterCloseThrows) {
  TempDir dir;
  EventLog log({dir.file("closed.ncbl")});
  log.append_decision(1, "k", 0, 1.0);
  log.close();
  log.close();  // no-op
  EXPECT_THROW(log.append_decision(2, "k", 0, 1.0), std::logic_error);
  EXPECT_THROW(log.append_feedback(1, 0.0), std::logic_error);
  EXPECT_THROW(log.flush(), std::logic_error);
}

// The crash-tolerance contract: for ANY truncation point (SIGKILL or power
// loss can stop the file at any byte), the reader recovers exactly the
// complete-record prefix, flags the torn tail, and never throws.
TEST(EventLog, TruncationAtEveryByteOffsetYieldsCompletePrefix) {
  TempDir dir;
  const std::string path = dir.file("full.ncbl");
  {
    EventLog log({path});
    log.append_decision(1, "user-a", 3, 0.9);
    log.append_feedback(1, 1.0);
    log.append_decision(2, "user-with-a-longer-key", 11, 0.1);
    log.append_decision(3, "x", 0, 0.5);
    log.append_feedback(3, 0.0);
    log.close();
  }
  const std::string data = read_bytes(path);
  const EventLogScan full = read_event_log(path);
  ASSERT_EQ(full.records.size(), 5u);
  ASSERT_EQ(full.valid_bytes, data.size());

  // Record boundaries: the header end plus each record's end offset.
  std::vector<std::size_t> boundaries{8};
  {
    std::size_t at = 8;
    while (at < data.size()) {
      std::uint32_t length = 0;
      for (int i = 0; i < 4; ++i) {
        length |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(data[at + i]))
                  << (8 * i);
      }
      at += 5 + length;
      boundaries.push_back(at);
    }
    ASSERT_EQ(at, data.size());
  }

  const std::string cut_path = dir.file("cut.ncbl");
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    write_bytes(cut_path, data.substr(0, cut));
    EventLogScan scan;
    ASSERT_NO_THROW(scan = read_event_log(cut_path)) << "cut=" << cut;

    std::size_t expected_records = 0;
    std::size_t expected_valid = 0;
    bool on_boundary = false;
    for (std::size_t b : boundaries) {
      if (b <= cut) {
        expected_valid = b;
        if (b > 8) ++expected_records;
        if (b == cut) on_boundary = true;
      }
    }
    EXPECT_EQ(scan.records.size(), expected_records) << "cut=" << cut;
    EXPECT_EQ(scan.valid_bytes, expected_valid) << "cut=" << cut;
    EXPECT_EQ(scan.truncated_tail, !on_boundary) << "cut=" << cut;
    if (expected_records > 0) {
      // The surviving prefix is bit-faithful, not just the right length.
      const EventRecord& last = scan.records.back();
      const EventRecord& ref = full.records[expected_records - 1];
      EXPECT_EQ(last.type, ref.type) << "cut=" << cut;
      EXPECT_EQ(last.decision_id, ref.decision_id) << "cut=" << cut;
      EXPECT_EQ(last.key, ref.key) << "cut=" << cut;
      EXPECT_EQ(last.action, ref.action) << "cut=" << cut;
    }
  }
}

TEST(EventLogReader, StructuralCorruptionThrows) {
  TempDir dir;
  const std::string path = dir.file("ok.ncbl");
  {
    EventLog log({path});
    log.append_decision(1, "k", 0, 1.0);
    log.close();
  }
  const std::string good = read_bytes(path);
  const std::string bad_path = dir.file("bad.ncbl");

  {  // Bad magic: not an event log at all.
    std::string bad = good;
    bad[0] = 'X';
    write_bytes(bad_path, bad);
    EXPECT_THROW((void)read_event_log(bad_path), std::invalid_argument);
  }
  {  // Unsupported version.
    std::string bad = good;
    bad[4] = 99;
    write_bytes(bad_path, bad);
    EXPECT_THROW((void)read_event_log(bad_path), std::invalid_argument);
  }
  {  // Unknown record type.
    std::string bad = good;
    bad[8 + 4] = 77;
    write_bytes(bad_path, bad);
    EXPECT_THROW((void)read_event_log(bad_path), std::invalid_argument);
  }
  {  // Oversized record length: corruption, not one huge record.
    std::string bad = good;
    bad[8] = '\xff';
    bad[9] = '\xff';
    bad[10] = '\xff';
    bad[11] = '\x7f';
    write_bytes(bad_path, bad);
    EXPECT_THROW((void)read_event_log(bad_path), std::invalid_argument);
  }
  {  // A complete record whose payload does not decode (short payload with
     // a consistent length header) is corruption, not truncation.
    dist::WireWriter header;
    header.put_u32(kEventLogMagic);
    header.put_u32(kEventLogVersion);
    std::string bad = header.take();
    bad.push_back(2);  // length = 2
    bad.push_back(0);
    bad.push_back(0);
    bad.push_back(0);
    bad.push_back(static_cast<char>(EventType::kDecision));
    bad.push_back('a');
    bad.push_back('b');
    write_bytes(bad_path, bad);
    EXPECT_THROW((void)read_event_log(bad_path), std::invalid_argument);
  }
  {  // Missing file.
    EXPECT_THROW((void)read_event_log(dir.file("nope.ncbl")),
                 std::runtime_error);
  }
}

TEST(EventLog, EmptyPathAndUnwritableDirectoryThrow) {
  EXPECT_THROW(EventLog({std::string()}), std::runtime_error);
  EXPECT_THROW(EventLog({"/nonexistent-dir-ncb/x.ncbl"}), std::runtime_error);
}

}  // namespace
}  // namespace ncb::serve
