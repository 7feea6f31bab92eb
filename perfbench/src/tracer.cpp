#include "tracer.hpp"

#include <unordered_map>

#include "loadgen.hpp"
#include "obs/export.hpp"

namespace perfbench {

namespace {
constexpr std::uint32_t kCapacity = 1u << 17;
}  // namespace

Tracer::Tracer(bool enabled) {
  if (enabled) {
    rec_ = std::make_unique<croute::obs::TraceRecorder>(kCapacity);
    // The recorder's epoch is its construction; timestamps are rebased
    // onto it so benchmark spans line up with the recorder's clock.
    epoch_ns_ = now_ns() -
                static_cast<std::uint64_t>(rec_->now_us() * 1000.0);
  }
}

void Tracer::record(const char* name, const char* cat, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t req,
                    std::uint64_t t0_ns, std::uint64_t t1_ns) noexcept {
  if (rec_ == nullptr) return;
  croute::obs::TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_us = static_cast<double>(t0_ns - epoch_ns_) / 1000.0;
  e.dur_us = static_cast<double>(t1_ns - t0_ns) / 1000.0;
  e.num_args = 3;
  e.arg_name[0] = "id";
  e.arg_value[0] = static_cast<double>(id);
  e.arg_name[1] = "parent";
  e.arg_value[1] = static_cast<double>(parent);
  e.arg_name[2] = "req";
  e.arg_value[2] = static_cast<double>(req);
  rec_->record(e);
}

std::map<std::string, double> Tracer::self_time_us() const {
  std::map<std::string, double> out;
  if (rec_ == nullptr) return out;
  const std::vector<croute::obs::TraceEvent> events = rec_->events();
  std::unordered_map<std::uint64_t, double> child_us;
  for (const auto& e : events) {
    const auto parent = static_cast<std::uint64_t>(e.arg_value[1]);
    if (parent != 0) child_us[parent] += e.dur_us;
  }
  for (const auto& e : events) {
    const auto id = static_cast<std::uint64_t>(e.arg_value[0]);
    const auto it = child_us.find(id);
    out[e.cat] += e.dur_us - (it != child_us.end() ? it->second : 0.0);
  }
  return out;
}

void Tracer::dump(const std::string& path) const {
  if (rec_ == nullptr) return;
  const std::vector<croute::obs::TraceEvent> events = rec_->events();
  croute::obs::write_text_file(path, croute::obs::to_chrome_trace(events));
}

}  // namespace perfbench
