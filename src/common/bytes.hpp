// Byte buffers and binary serialization.
//
// Inter-container streams in Apex-sim (and the Beam Apex runner's per-hop
// element transfer) serialize through these primitives, so the cost of
// crossing a container boundary is real work, not a sleep.
//
// Two writer modes share one call surface:
//   * growable — appends into a Bytes vector, geometric growth (the vector's
//     own policy) plus an explicit reserve() for coders that can precompute
//     their encoded size;
//   * fixed — writes into a caller-provided span (a PayloadArena slab slice)
//     and never reallocates; overflow trips the failure flag instead of
//     growing, which is the shrink-less contract batch encode relies on.
// Length prefixes are LEB128 varints, so short strings pay one prefix byte
// instead of four.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace dsps {

using Bytes = std::vector<std::uint8_t>;

/// Bytes a value occupies as a LEB128 varint (1..10).
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// ZigZag mapping: small-magnitude signed values stay short as varints.
constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Appends fixed-width little-endian integers, LEB128 varints, and
/// varint-length-prefixed strings.
class BinaryWriter {
 public:
  /// Growable mode: appends to `out` (geometric growth on demand).
  explicit BinaryWriter(Bytes& out) noexcept : out_(&out) {}

  /// Fixed mode: writes into `buffer[0..capacity)` and never reallocates.
  /// The batch-encode path sizes the span by exact precompute, so overflow
  /// means a coder lied about its size — it sets failed() rather than UB.
  BinaryWriter(char* buffer, std::size_t capacity) noexcept
      : fixed_(buffer), capacity_(capacity) {}

  void write_u8(std::uint8_t v) { write_raw(&v, sizeof v); }

  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }

  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }

  void write_i64(std::int64_t v) {
    write_u64(static_cast<std::uint64_t>(v));
  }

  /// LEB128: 7 value bits per byte, high bit = continuation.
  void write_varint(std::uint64_t v) {
    std::uint8_t scratch[10];
    std::size_t n = 0;
    while (v >= 0x80) {
      scratch[n++] = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    scratch[n++] = static_cast<std::uint8_t>(v);
    write_raw(scratch, n);
  }

  void write_varint_i64(std::int64_t v) { write_varint(zigzag_encode(v)); }

  /// Varint length prefix followed by raw bytes.
  void write_string(std::string_view s) {
    write_varint(s.size());
    write_raw(s.data(), s.size());
  }

  void write_bytes(const Bytes& b) {
    write_varint(b.size());
    write_raw(b.data(), b.size());
  }

  /// Growable mode: pre-sizes the vector for `additional` more bytes so a
  /// size-precomputing coder appends with zero reallocations. No-op in
  /// fixed mode (the span is already exact).
  void reserve(std::size_t additional) {
    if (out_ != nullptr) out_->reserve(out_->size() + additional);
  }

  std::size_t bytes_written() const noexcept { return written_; }
  /// Fixed mode only: a write overran the span (size precompute was wrong).
  bool failed() const noexcept { return failed_; }

 private:
  void write_raw(const void* data, std::size_t size) {
    if (out_ != nullptr) {
      const auto* p = static_cast<const std::uint8_t*>(data);
      out_->insert(out_->end(), p, p + size);
    } else {
      if (written_ + size > capacity_) {
        failed_ = true;
        return;
      }
      std::memcpy(fixed_ + written_, data, size);
    }
    written_ += size;
  }

  Bytes* out_ = nullptr;      // growable mode
  char* fixed_ = nullptr;     // fixed mode
  std::size_t capacity_ = 0;  // fixed mode
  std::size_t written_ = 0;
  bool failed_ = false;
};

/// Reads what BinaryWriter wrote. Bounds-checked; sets a failure flag
/// instead of reading out of range.
///
/// A reader over refcounted storage (constructed with an `owner`) can hand
/// out aliased views of the wire bytes — read_view() — that stay valid for
/// as long as the owner's referent lives. Payload-typed coders turn those
/// views into refcounted slices instead of owning copies: the zero-copy
/// decode path.
class BinaryReader {
 public:
  explicit BinaryReader(const Bytes& in) noexcept
      : data_(reinterpret_cast<const char*>(in.data())), size_(in.size()) {}

  /// Non-owning view; read_view() results are valid while `in`'s storage
  /// is, read_payload-style consumers must copy.
  explicit BinaryReader(std::string_view in) noexcept
      : data_(in.data()), size_(in.size()) {}

  /// Refcounted storage: `owner` keeps `data[0..size)` alive, and views
  /// handed out by read_view() may alias it zero-copy.
  BinaryReader(const char* data, std::size_t size,
               std::shared_ptr<const void> owner) noexcept
      : data_(data), size_(size), owner_(std::move(owner)) {}

  std::uint8_t read_u8() {
    std::uint8_t v = 0;
    read_raw(&v, sizeof v);
    return v;
  }

  std::uint32_t read_u32() {
    std::uint32_t v = 0;
    read_raw(&v, sizeof v);
    return v;
  }

  std::uint64_t read_u64() {
    std::uint64_t v = 0;
    read_raw(&v, sizeof v);
    return v;
  }

  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }

  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (failed_ || pos_ >= size_ || shift > 63) {
        failed_ = true;
        return 0;
      }
      const std::uint8_t byte =
          static_cast<std::uint8_t>(data_[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t read_varint_i64() { return zigzag_decode(read_varint()); }

  /// Varint-length-prefixed byte run as a view into the wire buffer — no
  /// copy. Valid while the reader's backing storage lives (see owner()).
  std::string_view read_view() {
    const std::uint64_t size = read_varint();
    if (failed_ || size > size_ - pos_) {
      failed_ = true;
      return {};
    }
    const std::string_view view(data_ + pos_, size);
    pos_ += size;
    return view;
  }

  std::string read_string() { return std::string(read_view()); }

  Bytes read_bytes() {
    const std::string_view view = read_view();
    return Bytes(view.begin(), view.end());
  }

  /// The refcounted keeper of the wire bytes, when the reader has one.
  /// Empty for plain Bytes/string_view readers — consumers must copy then.
  const std::shared_ptr<const void>& owner() const noexcept { return owner_; }

  bool failed() const noexcept { return failed_; }
  bool exhausted() const noexcept { return pos_ == size_; }
  std::size_t position() const noexcept { return pos_; }

 private:
  void read_raw(void* dst, std::size_t size) {
    if (failed_ || pos_ + size > size_) {
      failed_ = true;
      std::memset(dst, 0, size);
      return;
    }
    std::memcpy(dst, data_ + pos_, size);
    pos_ += size;
  }

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::shared_ptr<const void> owner_;
  bool failed_ = false;
};

/// FNV-1a 64-bit hash; used for key partitioning in shuffles and keyed routing.
std::uint64_t fnv1a(std::string_view data) noexcept;

inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

}  // namespace dsps
