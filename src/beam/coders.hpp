// Coders: how Beam-sim materializes elements to bytes at runner-chosen
// boundaries. The Apex runner encodes the *full windowed value* (value +
// timestamp + window + pane) on every inter-container hop, which is real
// serialization work per element per stage.
//
// Fast-path hooks layered on the seed interface:
//   * encoded_size_hint() — exact encoded size when the coder can compute
//     it from the value (all the built-ins can); 0 means unknown. Batch
//     encode uses it to reserve arena spans that never reallocate.
//   * zero-copy decode — Payload-typed coders alias the wire buffer through
//     the reader's refcounted owner instead of materializing a copy.
#pragma once

#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "beam/element.hpp"

namespace dsps::beam {

/// Encodes/decodes the type-erased value payload of an Element.
class Coder {
 public:
  virtual ~Coder() = default;
  virtual void encode(const Value& value, BinaryWriter& out) const = 0;
  virtual Value decode(BinaryReader& in) const = 0;
  virtual std::string name() const = 0;

  /// Exact encoded size of `value`, or 0 when the coder cannot precompute
  /// it. Built-in coders always can; 0 only escapes custom coders.
  virtual std::size_t encoded_size_hint(const Value& value) const {
    (void)value;
    return 0;
  }
};

using CoderPtr = std::shared_ptr<const Coder>;

class StringUtf8Coder final : public Coder {
 public:
  void encode(const Value& value, BinaryWriter& out) const override {
    out.write_string(value.get<std::string>());
  }
  Value decode(BinaryReader& in) const override {
    // Decodes to std::string, so this copy is the representation change
    // itself — zero-copy string handling goes through PayloadCoder.
    return in.read_string();
  }
  std::string name() const override { return "StringUtf8Coder"; }
  std::size_t encoded_size_hint(const Value& value) const override {
    const std::size_t n = value.get<std::string>().size();
    return varint_size(n) + n;
  }
};

/// Coder for runtime::Payload values. Encoding copies the payload's bytes
/// into the wire buffer; decoding hands back a slice aliasing the wire
/// buffer when the reader owns refcounted storage (the zero-copy path),
/// falling back to one owning copy otherwise.
class PayloadCoder final : public Coder {
 public:
  void encode(const Value& value, BinaryWriter& out) const override {
    out.write_string(value.get<runtime::Payload>().view());
  }
  Value decode(BinaryReader& in) const override {
    return runtime::read_payload(in);
  }
  std::string name() const override { return "PayloadCoder"; }
  std::size_t encoded_size_hint(const Value& value) const override {
    const std::size_t n = value.get<runtime::Payload>().size();
    return varint_size(n) + n;
  }
};

class VarIntCoder final : public Coder {
 public:
  void encode(const Value& value, BinaryWriter& out) const override {
    out.write_varint_i64(value.get<std::int64_t>());
  }
  Value decode(BinaryReader& in) const override {
    return in.read_varint_i64();
  }
  std::string name() const override { return "VarIntCoder"; }
  std::size_t encoded_size_hint(const Value& value) const override {
    return varint_size(zigzag_encode(value.get<std::int64_t>()));
  }
};

/// Coder for KV<K, V> given the component coders and the concrete types.
template <typename K, typename V>
class KvCoder final : public Coder {
 public:
  KvCoder(CoderPtr key_coder, CoderPtr value_coder)
      : key_coder_(std::move(key_coder)),
        value_coder_(std::move(value_coder)) {}

  void encode(const Value& value, BinaryWriter& out) const override {
    const auto& kv = value.get<KV<K, V>>();
    key_coder_->encode(Value{kv.key}, out);
    value_coder_->encode(Value{kv.value}, out);
  }
  Value decode(BinaryReader& in) const override {
    KV<K, V> kv;
    kv.key = key_coder_->decode(in).template get<K>();
    kv.value = value_coder_->decode(in).template get<V>();
    return kv;
  }
  std::string name() const override {
    return "KvCoder(" + key_coder_->name() + ", " + value_coder_->name() +
           ")";
  }
  std::size_t encoded_size_hint(const Value& value) const override {
    const auto& kv = value.get<KV<K, V>>();
    const std::size_t key_size =
        key_coder_->encoded_size_hint(Value{kv.key});
    const std::size_t value_size =
        value_coder_->encoded_size_hint(Value{kv.value});
    // Every built-in hint is >= 1, so 0 from a component means unknown.
    if (key_size == 0 || value_size == 0) return 0;
    return key_size + value_size;
  }

 private:
  CoderPtr key_coder_;
  CoderPtr value_coder_;
};

/// Compile-time coder lookup. Specialize for custom element types used with
/// runners that serialize (the Apex runner).
template <typename T>
struct CoderTraits;

template <>
struct CoderTraits<std::string> {
  static CoderPtr of() { return std::make_shared<StringUtf8Coder>(); }
};

template <>
struct CoderTraits<runtime::Payload> {
  static CoderPtr of() { return std::make_shared<PayloadCoder>(); }
};

template <>
struct CoderTraits<std::int64_t> {
  static CoderPtr of() { return std::make_shared<VarIntCoder>(); }
};

template <typename K, typename V>
  requires requires {
    CoderTraits<K>::of();
    CoderTraits<V>::of();
  }
struct CoderTraits<KV<K, V>> {
  static CoderPtr of() {
    return std::make_shared<KvCoder<K, V>>(CoderTraits<K>::of(),
                                           CoderTraits<V>::of());
  }
};

/// Serializes the full windowed value: payload + timestamp + window + pane.
/// The wire format keeps Beam's window list: a count, always 1 here, then
/// the window's bounds.
class WindowedValueCoder {
 public:
  explicit WindowedValueCoder(CoderPtr value_coder)
      : value_coder_(std::move(value_coder)) {}

  /// Exact encoded size of `element`, or 0 when the value coder cannot
  /// report one. The envelope itself is always precomputable.
  std::size_t encoded_size(const Element& element) const {
    const std::size_t value_size =
        value_coder_->encoded_size_hint(element.value);
    if (value_size == 0) return 0;
    return sizeof(std::int64_t)                       // timestamp
           + sizeof(std::uint32_t)                    // window count
           + 2 * sizeof(std::int64_t)                 // window bounds
           + sizeof(std::uint8_t)                     // pane bits
           + sizeof(std::int64_t)                     // pane index
           + value_size;
  }

  void encode(const Element& element, BinaryWriter& writer) const {
    writer.write_i64(element.timestamp);
    writer.write_u32(1);
    writer.write_i64(element.windows.start);
    writer.write_i64(element.windows.end);
    writer.write_u8(static_cast<std::uint8_t>((element.pane.is_first << 1) |
                                              element.pane.is_last));
    writer.write_i64(element.pane.index);
    value_coder_->encode(element.value, writer);
  }

  Bytes encode(const Element& element) const {
    Bytes out;
    BinaryWriter writer(out);
    writer.reserve(encoded_size(element));
    encode(element, writer);
    return out;
  }

  /// Batch-amortized encode: writes into an arena slab span sized by exact
  /// precompute (no reallocation, shrink-less), so a whole batch of
  /// elements lands in one refcounted chunk. Falls back to a growable
  /// buffer interned afterwards when the size is unknown.
  runtime::Payload encode(const Element& element,
                          runtime::PayloadArena& arena) const {
    const std::size_t size = encoded_size(element);
    if (size > 0) {
      char* span = arena.reserve_span(size);
      BinaryWriter writer(span, size);
      encode(element, writer);
      return arena.commit_span(span, writer.bytes_written());
    }
    Bytes out;
    BinaryWriter writer(out);
    encode(element, writer);
    return arena.intern(std::string_view(
        reinterpret_cast<const char*>(out.data()), out.size()));
  }

  Element decode(BinaryReader& reader) const {
    Element element;
    element.timestamp = reader.read_i64();
    require(reader.read_u32() == 1, "windowed value must carry one window");
    element.windows.start = reader.read_i64();
    element.windows.end = reader.read_i64();
    const std::uint8_t pane_bits = reader.read_u8();
    element.pane.is_first = (pane_bits & 2) != 0;
    element.pane.is_last = (pane_bits & 1) != 0;
    element.pane.index = reader.read_i64();
    element.value = value_coder_->decode(reader);
    return element;
  }

  Element decode(const Bytes& bytes) const {
    BinaryReader reader(bytes);
    return decode(reader);
  }

  /// Zero-copy decode: the reader shares the payload's refcounted storage,
  /// so Payload-typed values inside alias the wire bytes.
  Element decode(const runtime::Payload& payload) const {
    BinaryReader reader = runtime::payload_reader(payload);
    return decode(reader);
  }

  const CoderPtr& value_coder() const noexcept { return value_coder_; }

 private:
  CoderPtr value_coder_;
};

}  // namespace dsps::beam
