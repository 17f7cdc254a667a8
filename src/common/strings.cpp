#include "common/strings.hpp"

#include <cstdio>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace dsps {

std::size_t find_byte(std::string_view haystack, char delimiter,
                      std::size_t from) noexcept {
  const std::size_t n = haystack.size();
  if (from >= n) return std::string_view::npos;
  const char* hay = haystack.data();
  std::size_t pos = from;
#if defined(__SSE2__)
  // 16 candidate positions per compare, same block scheme as the Grep
  // kernel minus the needle verification: a delimiter is a single byte, so
  // the first mask hit is the answer.
  const __m128i target = _mm_set1_epi8(delimiter);
  while (pos + 16 <= n) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hay + pos));
    const unsigned mask = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(block, target)));
    if (mask != 0) return pos + static_cast<unsigned>(__builtin_ctz(mask));
    pos += 16;
  }
#endif
  const void* hit = std::memchr(hay + pos, delimiter, n - pos);
  return hit == nullptr
             ? std::string_view::npos
             : static_cast<std::size_t>(static_cast<const char*>(hit) - hay);
}

std::string_view first_field(std::string_view input, char delimiter) noexcept {
  const std::size_t pos = find_byte(input, delimiter);
  return pos == std::string_view::npos ? input : input.substr(0, pos);
}

std::vector<std::string> split(std::string_view input, char delimiter) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = find_byte(input, delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      return parts;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_views(std::string_view input,
                                          char delimiter) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = find_byte(input, delimiter, start);
    if (pos == std::string_view::npos) {
      parts.push_back(input.substr(start));
      return parts;
    }
    parts.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, char delimiter) {
  std::string out;
  std::size_t total = parts.empty() ? 0 : parts.size() - 1;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(delimiter);
    out += parts[i];
  }
  return out;
}

namespace {

/// memchr-driven scan over candidate positions [from, n - k]: jump to the
/// next first-byte hit, verify with one memcmp. Also the tail path of the
/// vectorized search.
std::size_t find_by_memchr(const char* haystack, std::size_t n,
                           const char* needle, std::size_t k,
                           std::size_t from) noexcept {
  std::size_t pos = from;
  while (pos + k <= n) {
    const void* hit =
        std::memchr(haystack + pos, needle[0], n - k - pos + 1);
    if (hit == nullptr) return std::string_view::npos;
    pos = static_cast<std::size_t>(static_cast<const char*>(hit) - haystack);
    if (std::memcmp(haystack + pos, needle, k) == 0) return pos;
    ++pos;
  }
  return std::string_view::npos;
}

}  // namespace

// Cache-line aligned: the Grep scan's loop is hot enough that its offset
// inside a 64-byte line moved native Flink Grep by 5-8%, so an unrelated
// edit elsewhere in this file could shift the benchmark. Pinned at offset 0.
[[gnu::aligned(64)]] std::size_t find_substring(
    std::string_view haystack, std::string_view needle) noexcept {
  const std::size_t n = haystack.size();
  const std::size_t k = needle.size();
  if (k == 0) return 0;
  if (k > n) return std::string_view::npos;
  const char* hay = haystack.data();
  if (k == 1) {
    const void* hit = std::memchr(hay, needle[0], n);
    return hit == nullptr
               ? std::string_view::npos
               : static_cast<std::size_t>(static_cast<const char*>(hit) -
                                          hay);
  }

  std::size_t pos = 0;
#if defined(__SSE2__)
  // Vectorized first/last-byte filter (the generic SIMD "memmem" scheme):
  // for 16 candidate positions at once, compare the needle's first byte at
  // offset 0 and its last byte at offset k-1; only positions where both
  // match pay a memcmp. Both loads must stay in bounds: the second load
  // reads [pos + k - 1, pos + k + 14], so the block is safe while
  // pos + k + 15 <= n.
  if (n >= k + 15) {
    const __m128i first = _mm_set1_epi8(needle[0]);
    const __m128i last = _mm_set1_epi8(needle[k - 1]);
    while (pos + k + 15 <= n) {
      const __m128i block_first = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(hay + pos));
      const __m128i block_last = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(hay + pos + k - 1));
      unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(
          _mm_and_si128(_mm_cmpeq_epi8(block_first, first),
                        _mm_cmpeq_epi8(block_last, last))));
      while (mask != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
        if (std::memcmp(hay + pos + bit, needle.data(), k) == 0) {
          return pos + bit;
        }
        mask &= mask - 1;
      }
      pos += 16;
    }
  }
#endif
  return find_by_memchr(hay, n, needle.data(), k, pos);
}

bool contains(std::string_view haystack, std::string_view needle) noexcept {
  return find_substring(haystack, needle) != std::string_view::npos;
}

std::string pad_left(std::string_view s, std::size_t width) {
  std::string out;
  if (s.size() < width) out.assign(width - s.size(), ' ');
  out += s;
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out{s};
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string format_double(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  return buffer;
}

}  // namespace dsps
