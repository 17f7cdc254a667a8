#include "oracle.hpp"

#include "common/status.hpp"
#include "workload/aol_generator.hpp"

namespace perfbench {

using dsps::workload::QueryId;

std::vector<std::string> generate_input(std::uint64_t count,
                                        std::uint64_t seed) {
  return dsps::workload::AolGenerator(
             dsps::workload::AolGeneratorConfig{.record_count = count,
                                                .seed = seed})
      .all_lines();
}

std::vector<std::string> reference_output(
    QueryId query, const std::vector<std::string>& input) {
  dsps::require(query == QueryId::kIdentity || query == QueryId::kGrep,
                "the oracle covers Identity and Grep only");
  std::vector<std::string> expected;
  expected.reserve(query == QueryId::kIdentity ? input.size() : 0);
  for (const std::string& line : input) {
    if (query == QueryId::kIdentity) {
      expected.push_back(dsps::workload::identity_of(line));
    } else if (dsps::workload::grep_matches(line)) {
      expected.push_back(line);
    }
  }
  return expected;
}

OutputCheck check_output(const std::vector<dsps::kafka::StoredRecord>& output,
                         const std::vector<std::string>& expected) {
  OutputCheck check;
  check.records = static_cast<std::int64_t>(output.size());
  dsps::Timestamp previous = 0;
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (i == 0 || output[i].timestamp != previous) ++check.append_runs;
    previous = output[i].timestamp;
  }
  if (!output.empty()) {
    check.first_append = output.front().timestamp;
    check.last_append = output.back().timestamp;
  }

  const std::size_t common = std::min(output.size(), expected.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (output[i].value.view() == expected[i]) continue;
    const bool repeat = i > 0 && output[i].value == output[i - 1].value;
    check.reason = (repeat ? "duplicate record at offset "
                           : "record out of place at offset ") +
                   std::to_string(i);
    return check;
  }
  if (output.size() < expected.size()) {
    check.reason = "missing " + std::to_string(expected.size() - output.size()) +
                   " of " + std::to_string(expected.size()) + " records";
    return check;
  }
  if (output.size() > expected.size()) {
    check.reason = std::to_string(output.size() - expected.size()) +
                   " extra (duplicated) records";
    return check;
  }
  if (check.last_append <= check.first_append) {
    check.reason = "zero append span: the output landed in one append";
    return check;
  }
  check.ok = true;
  return check;
}

}  // namespace perfbench
