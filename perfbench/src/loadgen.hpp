/// \file loadgen.hpp
/// \brief Single-threaded open-loop load generator over net::NetClient.
///
/// One thread owns every connection. Frame i of a window is due at
/// start + i * interval and goes out on connection i % connections; the
/// thread never blocks on a reply. Between sends it polls every
/// connection with NetClient::try_read_reply(reply, 0), so answers are
/// timestamped within one poll of their arrival. A query's sojourn is
/// measured from its frame's *scheduled* send, so a stall of the server
/// (or of the generator) is charged to every frame due during it.
/// How late the generator itself sent is reported per window; a window
/// whose sends ran late is marked invalid rather than slow.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/client.hpp"

namespace perfbench {

using croute::net::NetClient;
using croute::net::WireAnswer;
using croute::net::WireQuery;

/// The expected wire-visible part of one answer.
struct Expected {
  std::uint8_t status = 0;
  std::uint32_t hops = 0;
  std::uint64_t header_bits = 0;

  bool matches(const WireAnswer& a) const noexcept {
    return a.status == status && a.hops == hops &&
           a.header_bits == header_bits;
  }
};

/// Every answer a scheme generation gives to the query pool.
using ExpectedSet = std::vector<Expected>;

/// Decides whether the answers to pool entries [first, first+count) are
/// right. Returns the number of wrong answers.
using AnswerCheck =
    std::function<std::uint64_t(std::uint64_t first,
                                std::span<const WireAnswer> answers)>;

/// A cyclic pool of wire queries; frame f carries pool entries
/// [(f * frame) % size, ... + frame). The pool size is a multiple of the
/// frame size, so a frame never wraps.
struct QueryPool {
  std::vector<WireQuery> queries;
  bool labeled = false;
  std::uint32_t frame = 16;

  std::uint64_t first_of(std::uint64_t frame_index) const noexcept {
    return (frame_index * frame) % queries.size();
  }
  std::span<const WireQuery> slice(std::uint64_t frame_index) const noexcept {
    return {queries.data() + first_of(frame_index), frame};
  }
};

/// Optional per-call span hook (the traced run records spans with it).
/// Arguments: span name, start ns, end ns, frame index.
using SpanHook = std::function<void(const char*, std::uint64_t, std::uint64_t,
                                    std::uint64_t)>;

/// Where one answered frame's sojourn went, as far as it is measured:
/// the generator's send lateness and what the server reports in the
/// answers (wire latency_ns / queue_wait_ns).
struct FrameStages {
  double send_late_us = 0;
  /// Socket coalescing wait plus pool queue wait (the first answer's
  /// queue_wait_ns; queries of one chunk share it).
  double server_wait_us = 0;
  /// The frame's own engine time: the sum of its answers' latency_ns
  /// (each an amortized share of its pipeline generation).
  double server_engine_us = 0;
};

/// What one open-loop window observed.
struct WindowResult {
  double offered_qps = 0;
  double duration_s = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t queries_sent = 0;
  std::uint64_t queries_answered_in_window = 0;  ///< by the window's end
  std::uint64_t error_frames = 0;
  std::uint64_t error_queries = 0;
  std::uint64_t missing_queries = 0;  ///< never answered before the drain
  /// Answers unequal to the expectation (every expected answer is
  /// delivered, so an undelivered answer counts here).
  std::uint64_t wrong_answers = 0;
  bool aborted = false;  ///< sending stopped early: backlog over the cap
  /// Median outstanding queries (sent, not answered) over the window's
  /// second and last quarters. A host stall shorter than half a quarter
  /// moves neither; a server that cannot keep up grows late past early.
  double backlog_early = 0;
  double backlog_late = 0;
  std::vector<double> sojourn_us;    ///< per answered frame
  std::vector<FrameStages> stages;   ///< parallel to sojourn_us
  std::vector<double> send_late_us;  ///< per sent frame
  std::vector<std::uint64_t> frames;  ///< frame indexes sent (ledger replay)

  double achieved_qps() const noexcept {
    return duration_s > 0 ? queries_answered_in_window / duration_s : 0;
  }
  /// Service rate implied by the backlog's drift between the second and
  /// last quarters (offered minus growth per second): the sustained
  /// throughput, insensitive to a stall near the window's end.
  double sustained_qps() const noexcept {
    return offered_qps - (backlog_late - backlog_early) / (duration_s / 2);
  }
  std::uint64_t failed_queries() const noexcept {
    return error_queries + missing_queries + wrong_answers;
  }
};

/// Owns the connections and the running frame counter.
class LoadGen {
 public:
  LoadGen(const std::string& host, std::uint16_t port, unsigned connections,
          const QueryPool& pool);

  NetClient& client(unsigned i) { return *conns_[i]; }

  /// Runs one open-loop window at \p qps for \p seconds. \p backlog_cap
  /// stops sending once that many queries are outstanding (keeps the
  /// server below its admission limit when a ladder rung overloads it).
  WindowResult run(double qps, double seconds, const AnswerCheck& check,
                   std::uint64_t backlog_cap, const SpanHook& hook = {});

 private:
  std::vector<std::unique_ptr<NetClient>> conns_;
  const QueryPool& pool_;
  std::uint64_t next_frame_ = 0;
};

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> sample, double q);


std::uint64_t now_ns() noexcept;

}  // namespace perfbench
