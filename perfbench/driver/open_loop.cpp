#include "open_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/stats.hpp"

namespace perfbench {

namespace {

// Bounds one append so a long stall is caught up in several requests.
constexpr std::int64_t kMaxBatch = 64;
constexpr std::int64_t kBacklogSampleUs = 1'000;

}  // namespace

bool backlog_growing(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& samples,
    std::int64_t window_us, std::int64_t slack) {
  std::int64_t second_quarter = -1;
  std::int64_t last_quarter = -1;
  for (const auto& [at_us, backlog] : samples) {
    if (at_us >= window_us / 4 && at_us < window_us / 2) {
      second_quarter = std::max(second_quarter, backlog);
    } else if (at_us >= window_us - window_us / 4) {
      last_quarter = std::max(last_quarter, backlog);
    }
  }
  if (second_quarter < 0 || last_quarter < 0) return false;
  return last_quarter > second_quarter + slack;
}

OpenLoopDriver::OpenLoopDriver(dsps::kafka::Broker& broker,
                               const std::vector<std::string>& input,
                               double rate, std::string input_topic,
                               std::string output_topic)
    : broker_(broker),
      input_(input),
      period_us_(1e6 / rate),
      input_topic_(std::move(input_topic)),
      output_topic_(std::move(output_topic)) {}

OpenLoopDriver::~OpenLoopDriver() {
  if (thread_.joinable()) thread_.join();
}

void OpenLoopDriver::start() {
  t0_steady_us_ = dsps::steady_clock_us();
  t0_wall_us_ = dsps::wall_clock_now();
  thread_ = std::thread([this] { run(); });
}

OpenLoopReport OpenLoopDriver::finish() {
  if (thread_.joinable()) thread_.join();
  return report_;
}

dsps::Timestamp OpenLoopDriver::due_wall_us(std::int64_t seq) const {
  return t0_wall_us_ +
         std::llround(static_cast<double>(seq) * period_us_);
}

void OpenLoopDriver::run() {
  const auto total = static_cast<std::int64_t>(input_.size());
  const dsps::kafka::TopicPartition in{input_topic_, 0};
  const dsps::kafka::TopicPartition out{output_topic_, 0};
  std::vector<dsps::kafka::ProducerRecord> batch;
  batch.reserve(kMaxBatch);
  std::vector<double> late_us;
  std::vector<std::pair<std::int64_t, std::int64_t>> backlog;
  std::int64_t sent = 0;
  std::int64_t next_sample_us = 0;

  while (sent < total) {
    const std::int64_t due_us =
        t0_steady_us_ +
        std::llround(static_cast<double>(sent) * period_us_);
    std::int64_t now_us = dsps::steady_clock_us();
    if (now_us < due_us) {
      std::this_thread::sleep_for(std::chrono::microseconds(due_us - now_us));
      continue;
    }
    const auto due_count = std::min<std::int64_t>(
        total, static_cast<std::int64_t>(
                   static_cast<double>(now_us - t0_steady_us_) / period_us_) +
                   1);
    const std::int64_t end = std::min(std::max(due_count, sent + 1),
                                      sent + kMaxBatch);
    batch.clear();
    for (std::int64_t i = sent; i < end; ++i) {
      batch.push_back(dsps::kafka::ProducerRecord{
          .value = input_[static_cast<std::size_t>(i)]});
    }
    late_us.push_back(static_cast<double>(now_us - due_us));
    auto appended = broker_.append_batch(in, batch, false);
    if (!appended.is_ok()) {
      report_.error = appended.status().to_string();
      break;
    }
    sent = end;
    now_us = dsps::steady_clock_us();
    if (now_us >= next_sample_us) {
      next_sample_us = now_us + kBacklogSampleUs;
      auto output_end = broker_.end_offset(out);
      const std::int64_t depth =
          sent - (output_end.is_ok() ? output_end.value() : 0);
      backlog.emplace_back(now_us - t0_steady_us_, depth);
      report_.backlog_max = std::max(report_.backlog_max, depth);
    }
  }
  (void)broker_.seal_topic(input_topic_);

  report_.sent = sent;
  report_.duration_s =
      static_cast<double>(dsps::steady_clock_us() - t0_steady_us_) / 1e6;
  if (!late_us.empty()) {
    report_.late_max_ms = dsps::max_of(late_us) / 1e3;
    report_.late_p99_ms = dsps::percentile(late_us, 99.0) / 1e3;
  }
  const auto window_us = static_cast<std::int64_t>(
      static_cast<double>(total) * period_us_);
  // Slack: 100 ms of offered input, wider than one Spark batch interval's
  // sawtooth, narrower than what a rate deficit piles up over the window.
  const auto slack = static_cast<std::int64_t>(1e5 / period_us_);
  report_.backlog_growing = backlog_growing(backlog, window_us, slack);
}

}  // namespace perfbench
