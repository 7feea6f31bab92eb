#include "loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "net/protocol.hpp"

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sample.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sample[std::min(idx, sample.size() - 1)];
}

LoadGen::LoadGen(const std::string& host, std::uint16_t port,
                 unsigned connections, const QueryPool& pool)
    : pool_(pool) {
  for (unsigned i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<NetClient>());
    conns_.back()->connect(host, port);
  }
}

WindowResult LoadGen::run(double qps, double seconds, const AnswerCheck& check,
                          std::uint64_t backlog_cap, const SpanHook& hook) {
  using croute::net::FrameType;
  WindowResult r;
  r.offered_qps = qps;
  r.duration_s = seconds;
  const std::uint32_t q = pool_.frame;
  const auto nconn = static_cast<unsigned>(conns_.size());
  const auto nframes = static_cast<std::uint64_t>(
      std::max(1.0, std::round(qps * seconds / q)));
  const double interval_ns = 1e9 * q / qps;

  // Per window slot: schedule, pool position, settled flag.
  std::vector<std::uint64_t> sched(nframes), sent_at(nframes), first(nframes);
  std::vector<std::uint8_t> settled(nframes, 0);
  // Per connection: req_id -> window slot (req ids are sequential).
  std::vector<std::vector<std::int64_t>> req_slot(nconn);
  r.send_late_us.reserve(nframes);
  r.sojourn_us.reserve(nframes);
  r.stages.reserve(nframes);
  r.frames.reserve(nframes);

  const std::uint64_t start = now_ns() + 200'000;
  const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t drain_deadline = end + 2'000'000'000ULL;
  std::uint64_t sent = 0, outstanding_frames = 0, outstanding_q = 0;
  std::uint64_t answered_q = 0;
  bool end_taken = false;
  // Outstanding-query samples every 100 us, per quarter of the window.
  std::vector<double> backlog[4];
  std::uint64_t next_sample = start;
  croute::net::Reply reply;

  for (;;) {
    const std::uint64_t t = now_ns();
    if (t >= next_sample && t < end) {
      backlog[(t - start) * 4 / (end - start)].push_back(
          static_cast<double>(outstanding_q));
      next_sample = t + 100'000;
    } else if (!end_taken && t >= end) {
      r.queries_answered_in_window = answered_q;
      end_taken = true;
    }
    if (sent < nframes && !r.aborted) {
      const auto due =
          start + static_cast<std::uint64_t>(static_cast<double>(sent) *
                                             interval_ns);
      if (t >= due) {
        if (outstanding_q + q > backlog_cap) {
          r.aborted = true;
        } else {
          const std::uint64_t frame = next_frame_++;
          NetClient& c = *conns_[sent % nconn];
          const std::uint64_t t0 = now_ns();
          const std::uint64_t req = c.send_query(pool_.slice(frame),
                                                 pool_.labeled);
          if (hook) hook("gen.send_query", t0, now_ns(), frame);
          auto& slots = req_slot[sent % nconn];
          if (slots.size() <= req) slots.resize(req + 1, -1);
          slots[req] = static_cast<std::int64_t>(sent);
          sched[sent] = due;
          sent_at[sent] = t0;
          first[sent] = pool_.first_of(frame);
          r.send_late_us.push_back(static_cast<double>(t0 - due) / 1e3);
          r.frames.push_back(frame);
          ++sent;
          ++outstanding_frames;
          outstanding_q += q;
          continue;
        }
      }
    }
    const bool sending_done = sent >= nframes || r.aborted;
    if (sending_done && (outstanding_frames == 0 || t > drain_deadline)) {
      break;
    }
    for (unsigned ci = 0; ci < nconn; ++ci) {
      NetClient& c = *conns_[ci];
      for (;;) {
        const std::uint64_t t0 = now_ns();
        if (!c.try_read_reply(reply, 0)) {
          if (c.eof()) throw std::runtime_error("server closed a connection");
          break;
        }
        const std::uint64_t arrival = now_ns();
        const bool is_answer =
            reply.type == static_cast<std::uint8_t>(FrameType::kAnswer);
        const bool is_error =
            reply.type == static_cast<std::uint8_t>(FrameType::kError);
        if (!is_answer && !is_error) continue;
        const auto& slots = req_slot[ci];
        if (reply.req_id >= slots.size() || slots[reply.req_id] < 0) continue;
        const auto slot = static_cast<std::uint64_t>(slots[reply.req_id]);
        if (settled[slot] != 0) continue;
        settled[slot] = 1;
        --outstanding_frames;
        outstanding_q -= q;
        if (hook) hook("gen.read_reply", t0, arrival, slot);
        if (is_error) {
          ++r.error_frames;
          r.error_queries += q;
          continue;
        }
        answered_q += q;
        r.sojourn_us.push_back(static_cast<double>(arrival - sched[slot]) /
                               1e3);
        if (reply.answers.size() != q) {
          r.wrong_answers += q;
          r.stages.push_back(
              {static_cast<double>(sent_at[slot] - sched[slot]) / 1e3, 0, 0});
          continue;
        }
        std::uint64_t engine_ns = 0;
        for (const WireAnswer& a : reply.answers) engine_ns += a.latency_ns;
        r.stages.push_back(
            {static_cast<double>(sent_at[slot] - sched[slot]) / 1e3,
             static_cast<double>(reply.answers.front().queue_wait_ns) / 1e3,
             static_cast<double>(engine_ns) / 1e3});
        r.wrong_answers += check(first[slot], reply.answers);
      }
    }
  }
  if (!end_taken) r.queries_answered_in_window = answered_q;
  r.backlog_early = percentile(std::move(backlog[1]), 50);
  r.backlog_late = percentile(std::move(backlog[3]), 50);
  r.frames_sent = sent;
  r.queries_sent = sent * q;
  r.missing_queries = outstanding_q;
  return r;
}

}  // namespace perfbench
