// RAII span timer feeding an obs::Histogram in microseconds.
//
// Construct at the top of the measured scope; the destructor records the
// elapsed wall time: two steady_clock reads and one Histogram::record, so
// a timer belongs on a per-request span, not a per-slot inner loop.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace ncb::obs {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) noexcept
      : histogram_(&histogram),
        start_(std::chrono::steady_clock::now()) {}

  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ncb::obs
