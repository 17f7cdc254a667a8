// Output oracle: every run's output topic is checked against a reference
// computed on the benchmark thread from the seeded generator and the shared
// workload:: predicates, so a fast wrong answer never becomes a number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kafka/record.hpp"
#include "workload/streambench.hpp"

namespace perfbench {

/// The input lines a workload offers: AolGenerator records [0, count) for
/// `seed`, as tab-separated lines.
std::vector<std::string> generate_input(std::uint64_t count,
                                        std::uint64_t seed);

/// Expected output of `query` over `input`, in input order: Identity keeps
/// every line, Grep keeps the lines grep_matches() accepts. Only the two
/// queries the benchmark runs are supported.
std::vector<std::string> reference_output(dsps::workload::QueryId query,
                                          const std::vector<std::string>& input);

/// What one output log looked like, and whether it was right.
struct OutputCheck {
  bool ok = false;
  std::string reason;  // empty when ok
  std::int64_t records = 0;
  dsps::Timestamp first_append = 0;
  dsps::Timestamp last_append = 0;
  /// Runs of equal LogAppendTime: a lower bound on sink append requests.
  std::int64_t append_runs = 0;
};

/// Checks `output` (the whole output log, in offset order) against
/// `expected`. Missing records, extra (duplicated) records, a record out of
/// place and a zero append span (the whole output landed in one append) all
/// fail the run.
OutputCheck check_output(const std::vector<dsps::kafka::StoredRecord>& output,
                         const std::vector<std::string>& expected);

}  // namespace perfbench
