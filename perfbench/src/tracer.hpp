/// \file tracer.hpp
/// \brief Benchmark-side spans around calls into the program's layers.
///
/// Spans live in an obs::TraceRecorder ring and are written out with
/// obs::to_chrome_trace when the run ends. Each span carries its own id,
/// its parent's id and a request id as the recorder's three numeric
/// args (see tag()), so a layer's self time (its duration minus the part
/// its child spans cover) can be computed from the dump alone.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/trace.hpp"

namespace perfbench {

using Span = croute::obs::TraceRecorder::Span;

/// Tags \p span with its id, its parent's id and a request id, as args 0,
/// 1 and 2 (the order Tracer::self_time_us reads them in).
inline void tag(Span& span, std::uint64_t id, std::uint64_t parent,
                std::uint64_t req = 0) noexcept {
  span.arg("id", static_cast<double>(id));
  span.arg("parent", static_cast<double>(parent));
  span.arg("req", static_cast<double>(req));
}

class Tracer {
 public:
  /// A disabled tracer records nothing: its recorder() is null, which
  /// makes every Span on it a no-op.
  explicit Tracer(bool enabled);

  bool enabled() const noexcept { return rec_ != nullptr; }
  croute::obs::TraceRecorder* recorder() const noexcept { return rec_.get(); }

  /// Reserves a span id (so children can name their parent before the
  /// parent ends). Thread-safe.
  std::uint64_t next_id() noexcept {
    return last_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Records a span timed elsewhere (steady-clock nanoseconds), tagged
  /// like tag() does.
  void record(const char* name, const char* cat, std::uint64_t id,
              std::uint64_t parent, std::uint64_t req, std::uint64_t t0_ns,
              std::uint64_t t1_ns) noexcept;

  /// Self time per category in microseconds: each span's duration minus
  /// the durations of its direct children.
  std::map<std::string, double> self_time_us() const;

  /// Spans lost to ring wrap-around (0 means the dump is complete).
  std::uint64_t dropped() const noexcept {
    return rec_ != nullptr ? rec_->dropped() : 0;
  }

  /// Writes the Chrome trace-event JSON to \p path.
  void dump(const std::string& path) const;

 private:
  std::unique_ptr<croute::obs::TraceRecorder> rec_;
  std::uint64_t epoch_ns_ = 0;
  std::atomic<std::uint64_t> last_id_{0};
};

}  // namespace perfbench
