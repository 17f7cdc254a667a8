#include "workload/aol_generator.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string_view>

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
// needle occurrence is fully controlled by the generator. String views, so
// the kernel below copies each with a length fixed at compile time.
constexpr auto kWords = std::to_array<std::string_view>({
    "weather",  "lyrics",  "recipe",   "movie",   "hotel",   "flight",
    "games",    "news",    "pictures", "school",  "music",   "phone",
    "house",    "jobs",    "car",      "credit",  "dollar",  "health",
    "store",    "beach",   "county",   "city",    "map",     "code",
    "florida",  "texas",   "free",     "online",  "cheap",   "best",
    "york",     "sale",    "book",     "radio",   "tickets", "college",
});

constexpr auto kDomains = std::to_array<std::string_view>({
    "example.com",   "search.net",   "shopping.org", "travelsite.com",
    "localnews.com", "bigstore.com", "questions.net", "photos.org",
});

constexpr std::string_view kNeedle = kGrepNeedle;
constexpr std::uint64_t kMaxQueryWords = 4;
constexpr std::string_view kYear = "2006-";
constexpr std::string_view kUrlPrefix = "\thttp://www.";

template <std::size_t N>
constexpr std::size_t longest(const std::array<std::string_view, N>& texts) {
  std::size_t size = 0;
  for (const std::string_view text : texts) size = std::max(size, text.size());
  return size;
}

/// The longest line line_at can write: six-digit user id, tab; the longest
/// query (kMaxQueryWords of the longest word, space-separated, plus " test"),
/// tab; the query time, tab; rank "10" and the longest URL.
constexpr std::size_t kLongestLine =
    6 + 1 + kMaxQueryWords * longest(kWords) + (kMaxQueryWords - 1) + 1 +
    kNeedle.size() + 1 + std::string_view("2006-MM-DD HH:MM:SS").size() + 1 +
    2 + kUrlPrefix.size() + longest(kDomains);

/// line_at formats into a stack buffer of this size.
constexpr std::size_t kLineBufferBytes = 128;
static_assert(kLineBufferBytes >= kLongestLine,
              "a vocabulary edit made the longest line outgrow line_at's "
              "buffer");

/// "00".."99" back to back: two digits are one two-byte copy.
constexpr auto kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Writes `value` < 100 as two digits at `out`; returns the end.
char* put_two_digits(char* out, std::uint64_t value) {
  std::memcpy(out, &kDigitPairs[2 * value], 2);
  return out + 2;
}

char* put(char* out, std::string_view text) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
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
  // A byte kernel: every field goes into `line` at a known width, and `out`
  // is written once at the end.
  char line[kLineBufferBytes];
  char* end = line;

  const std::uint64_t user_id = 100000 + rng.next_below(900000);  // 6 digits
  end = put_two_digits(end, user_id / 10000);
  end = put_two_digits(end, user_id / 100 % 100);
  end = put_two_digits(end, user_id % 100);
  *end++ = '\t';

  // 1-4 vocabulary words; the needle is injected deterministically.
  const std::uint64_t word_count = 1 + rng.next_below(kMaxQueryWords);
  for (std::uint64_t w = 0; w < word_count; ++w) {
    if (w > 0) *end++ = ' ';
    end = put(end, kWords[rng.next_below(kWords.size())]);
  }
  if (is_grep_match(index)) {
    *end++ = ' ';
    end = put(end, kNeedle);
  }
  *end++ = '\t';

  // AOL log timeframe: March–May 2006. The fields are drawn second first,
  // one statement each, so the dataset does not depend on the order a
  // compiler evaluates function arguments in (the digest test pins it).
  const std::uint64_t second = rng.next_below(60);
  const std::uint64_t minute = rng.next_below(60);
  const std::uint64_t hour = rng.next_below(24);
  const std::uint64_t day = 1 + rng.next_below(28);
  const std::uint64_t month = 3 + rng.next_below(3);
  end = put(end, kYear);
  end = put_two_digits(end, month);
  *end++ = '-';
  end = put_two_digits(end, day);
  *end++ = ' ';
  end = put_two_digits(end, hour);
  *end++ = ':';
  end = put_two_digits(end, minute);
  *end++ = ':';
  end = put_two_digits(end, second);
  *end++ = '\t';

  // Roughly half the records carry a clicked result.
  if (rng.next_below(2) == 0) {
    const std::uint64_t rank = 1 + rng.next_below(10);  // item rank, 1-10
    if (rank == 10) {
      end = put_two_digits(end, rank);
    } else {
      *end++ = static_cast<char>('0' + rank);
    }
    end = put(end, kUrlPrefix);
    end = put(end, kDomains[rng.next_below(kDomains.size())]);
  } else {
    *end++ = '\t';
  }
  out.assign(line, static_cast<std::size_t>(end - line));
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
