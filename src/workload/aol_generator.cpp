#include "workload/aol_generator.hpp"

#include <array>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "workload/streambench.hpp"

namespace dsps::workload {

namespace {

/// One query in every kNeedleModulus carries the Grep needle: the paper's
/// 3003 matches in 1'000'001 queries, ~0.3003%.
constexpr std::uint64_t kNeedleModulus = 1'000'001 / 3003;
/// Record `index` matches when index % kNeedleModulus == kNeedleResidue.
constexpr std::uint64_t kNeedleResidue = 7;

// Vocabulary for query synthesis. None of these contain "test" as a
// substring ("contest", "protest", "latest" are deliberately absent), so
// needle occurrence is fully controlled by the generator.
constexpr std::array kWords = {
    "weather",  "lyrics",  "recipe",   "movie",   "hotel",   "flight",
    "games",    "news",    "pictures", "school",  "music",   "phone",
    "house",    "jobs",    "car",      "credit",  "dollar",  "health",
    "store",    "beach",   "county",   "city",    "map",     "code",
    "florida",  "texas",   "free",     "online",  "cheap",   "best",
    "york",     "sale",    "book",     "radio",   "tickets", "college",
};

constexpr std::array kDomains = {
    "example.com",   "search.net",   "shopping.org", "travelsite.com",
    "localnews.com", "bigstore.com", "questions.net", "photos.org",
};

void append_decimal(std::string& out, std::uint64_t value) {
  char digits[20];
  std::size_t count = 0;
  do {
    digits[count++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (count > 0) out += digits[--count];
}

/// `value` < 100, zero-padded to two digits.
void append_two_digits(std::string& out, std::uint64_t value) {
  out += static_cast<char>('0' + value / 10);
  out += static_cast<char>('0' + value % 10);
}

}  // namespace

std::string AolRecord::to_line() const {
  std::string line;
  line.reserve(user_id.size() + query.size() + query_time.size() +
               item_rank.size() + click_url.size() + 4);
  line += user_id;
  line += '\t';
  line += query;
  line += '\t';
  line += query_time;
  line += '\t';
  line += item_rank;
  line += '\t';
  line += click_url;
  return line;
}

AolRecord AolRecord::from_line(const std::string& line) {
  const auto fields = split(line, '\t');
  AolRecord record;
  if (fields.size() > 0) record.user_id = fields[0];
  if (fields.size() > 1) record.query = fields[1];
  if (fields.size() > 2) record.query_time = fields[2];
  if (fields.size() > 3) record.item_rank = fields[3];
  if (fields.size() > 4) record.click_url = fields[4];
  return record;
}

AolGenerator::AolGenerator(AolGeneratorConfig config)
    : config_(std::move(config)) {
  require(config_.record_count > 0, "record_count must be positive");
}

bool AolGenerator::is_grep_match(std::uint64_t index) const {
  return index % kNeedleModulus == kNeedleResidue;
}

std::uint64_t AolGenerator::grep_match_count() const {
  const std::uint64_t full_cycles = config_.record_count / kNeedleModulus;
  const std::uint64_t remainder = config_.record_count % kNeedleModulus;
  return full_cycles + (kNeedleResidue < remainder ? 1 : 0);
}

void AolGenerator::line_at(std::uint64_t index, std::string& out) const {
  // A per-record generator keyed on (seed, index) makes records independent
  // of generation order.
  Xoshiro256 rng(config_.seed ^ (index * 0x9E3779B97F4A7C15ULL + 1));
  out.clear();

  append_decimal(out, 100000 + rng.next_below(900000));  // user id
  out += '\t';

  // 1-4 vocabulary words; the needle is injected deterministically.
  const std::uint64_t word_count = 1 + rng.next_below(4);
  for (std::uint64_t w = 0; w < word_count; ++w) {
    if (w > 0) out += ' ';
    out += kWords[rng.next_below(kWords.size())];
  }
  if (is_grep_match(index)) {
    out += ' ';
    out += kGrepNeedle;
  }
  out += '\t';

  // AOL log timeframe: March–May 2006. The fields are drawn second first,
  // one statement each, so the dataset does not depend on the order a
  // compiler evaluates function arguments in (the digest test pins it).
  const std::uint64_t second = rng.next_below(60);
  const std::uint64_t minute = rng.next_below(60);
  const std::uint64_t hour = rng.next_below(24);
  const std::uint64_t day = 1 + rng.next_below(28);
  const std::uint64_t month = 3 + rng.next_below(3);
  out += "2006-";
  append_two_digits(out, month);
  out += '-';
  append_two_digits(out, day);
  out += ' ';
  append_two_digits(out, hour);
  out += ':';
  append_two_digits(out, minute);
  out += ':';
  append_two_digits(out, second);
  out += '\t';

  // Roughly half the records carry a clicked result.
  if (rng.next_below(2) == 0) {
    append_decimal(out, 1 + rng.next_below(10));  // item rank
    out += "\thttp://www.";
    out += kDomains[rng.next_below(kDomains.size())];
  } else {
    out += '\t';
  }
}

AolRecord AolGenerator::record_at(std::uint64_t index) const {
  std::string line;
  line_at(index, line);
  return AolRecord::from_line(line);
}

std::vector<std::string> AolGenerator::all_lines() const {
  std::vector<std::string> lines;
  lines.reserve(config_.record_count);
  std::string line;
  for (std::uint64_t i = 0; i < config_.record_count; ++i) {
    line_at(i, line);
    lines.push_back(line);  // an exact-size copy of the reused buffer
  }
  return lines;
}

}  // namespace dsps::workload
