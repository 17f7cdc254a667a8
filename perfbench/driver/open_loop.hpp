// Open-loop load driver: one thread that offers input on a fixed virtual
// schedule, independent of how fast the system under test consumes it.
//
// Record `seq` is due at t0 + seq / rate. The thread appends every record
// that is due through Broker::append_batch (small batches: whatever became
// due since the last append), so a stall in the system under test never
// slows the offered load. Latency is later timed from each record's due time,
// which charges a stall to every record that queued behind it. While
// running, the thread samples the backlog (records offered minus records in
// the output topic) through end_offset; a backlog that keeps growing means
// the offered rate is not sustainable, and the run counts as failed.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "kafka/broker.hpp"

namespace perfbench {

struct OpenLoopReport {
  std::int64_t sent = 0;
  double duration_s = 0.0;
  /// How late the thread appended each batch's first record.
  double late_max_ms = 0.0;
  double late_p99_ms = 0.0;
  std::int64_t backlog_max = 0;
  bool backlog_growing = false;
  std::string error;  // empty unless an append failed
};

/// Backlog samples (steady µs since start, records) decide sustainability:
/// the backlog is growing when the largest sample of the last quarter of the
/// window exceeds the largest of the second quarter by more than `slack`
/// records. The first quarter is start-up and is not compared.
bool backlog_growing(const std::vector<std::pair<std::int64_t, std::int64_t>>&
                         samples,
                     std::int64_t window_us, std::int64_t slack);

class OpenLoopDriver {
 public:
  /// Offers `input` in order at `rate` records/s into `input_topic`
  /// (partition 0), sampling the backlog against `output_topic`. Seals the
  /// input topic once everything is offered, which ends an open-loop job.
  OpenLoopDriver(dsps::kafka::Broker& broker,
                 const std::vector<std::string>& input, double rate,
                 std::string input_topic, std::string output_topic);
  ~OpenLoopDriver();
  OpenLoopDriver(const OpenLoopDriver&) = delete;
  OpenLoopDriver& operator=(const OpenLoopDriver&) = delete;

  /// Starts the schedule now.
  void start();

  /// Waits for the thread and returns what it saw.
  OpenLoopReport finish();

  /// Wall-clock (LogAppendTime clock) due time of record `seq`.
  dsps::Timestamp due_wall_us(std::int64_t seq) const;

 private:
  void run();

  dsps::kafka::Broker& broker_;
  const std::vector<std::string>& input_;
  const double period_us_;
  const std::string input_topic_;
  const std::string output_topic_;
  std::int64_t t0_steady_us_ = 0;
  dsps::Timestamp t0_wall_us_ = 0;
  OpenLoopReport report_;
  std::thread thread_;  // last: it reads the members above
};

}  // namespace perfbench
