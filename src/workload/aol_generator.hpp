// Synthetic AOL-search-log workload.
//
// The paper streams 1,000,001 records of the (now withdrawn) AOL Search
// Query Log: five tab-separated columns — anonymous user id, query text,
// query time, clicked result rank (optional), clicked URL (optional)
// (§III-A1). The dataset is not redistributable, so we synthesize records
// with the same schema and the selectivities the benchmark depends on:
//   * the Grep needle "test" appears in ~0.3003% of queries
//     (3,003 of 1,000,001 in the paper);
//   * rank/URL present for roughly half the records (clicked results).
// Generation is deterministic in the seed: same seed + count => same data.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dsps::workload {

struct AolRecord {
  std::string user_id;
  std::string query;
  std::string query_time;
  std::string item_rank;  // empty when the user did not click
  std::string click_url;  // empty when the user did not click

  /// The tab-separated line as it would appear in the log file.
  std::string to_line() const;

  /// Parses a tab-separated line (inverse of to_line).
  static AolRecord from_line(const std::string& line);
};

struct AolGeneratorConfig {
  std::uint64_t record_count = 1'000'001;
  std::uint64_t seed = 42;
};

class AolGenerator {
 public:
  explicit AolGenerator(AolGeneratorConfig config);

  /// Writes record `index` (0-based) as its tab-separated line into `out`,
  /// replacing its contents; reusing one buffer makes generation
  /// allocation-free. Stateless in `this` apart from config: any index can
  /// be generated independently and deterministically. The one place the
  /// random draws happen.
  void line_at(std::uint64_t index, std::string& out) const;

  /// Record `index` parsed from line_at (a convenience for tests).
  AolRecord record_at(std::uint64_t index) const;

  /// Generates records [0, config.record_count) as lines.
  std::vector<std::string> all_lines() const;

  /// True when record `index` contains the grep needle.
  bool is_grep_match(std::uint64_t index) const;

  /// Exact number of grep matches in [0, record_count).
  std::uint64_t grep_match_count() const;

  const AolGeneratorConfig& config() const noexcept { return config_; }

 private:
  AolGeneratorConfig config_;
};

}  // namespace dsps::workload
