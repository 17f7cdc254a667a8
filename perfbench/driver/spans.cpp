#include "spans.hpp"

#include <fstream>
#include <map>

#include "common/clock.hpp"

namespace perfbench {

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->close(index_);
}

SpanRecorder::Scope SpanRecorder::open(std::string name, int run) {
  if (!enabled_) return Scope(nullptr, -1);
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  span.name = std::move(name);
  span.start_us = dsps::steady_clock_us();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return Scope(this, spans_.back().id);
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = dsps::steady_clock_us();
  // Scopes are stack-allocated on one thread, so they close innermost first.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<SpanTotals> SpanRecorder::totals() const {
  // Children of one parent never overlap (one thread, properly nested), so
  // the covered part of a span is the sum of its direct children.
  std::vector<std::int64_t> child_us(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::vector<SpanTotals> totals;
  std::map<std::string, std::size_t> slot;
  for (const Span& span : spans_) {
    auto [it, inserted] = slot.emplace(span.name, totals.size());
    if (inserted) totals.push_back(SpanTotals{.name = span.name});
    SpanTotals& t = totals[it->second];
    const std::int64_t duration = span.end_us - span.start_us;
    t.count += 1;
    t.total_us += duration;
    t.self_us += duration - child_us[static_cast<std::size_t>(span.id)];
  }
  return totals;
}

dsps::Status SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return dsps::Status::unavailable("cannot open " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  out << "]\n";
  out.close();
  if (!out) return dsps::Status::unavailable("cannot write " + path);
  return dsps::Status::ok();
}

}  // namespace perfbench
