// The Beam-sim runtime element: a type-erased value plus the windowing
// metadata (timestamp, window, pane) the Dataflow model attaches to every
// record. Carrying this envelope through every translated transform —
// boxing on entry, unboxing per stage, copying the window and pane — is the
// structural per-element cost of the abstraction layer the paper measures.
//
// The envelope itself is kept lean so the measured overhead is the *model's*
// (the extra translated operators, the coder hops, the per-record writer),
// not accidental allocator traffic: every payload type the translated
// queries move — KafkaIO's KafkaRecord and ProducerRecordStub included —
// lives inline in a variant instead of a heap-boxed std::any. The paper's
// queries never reassign windows, so every element sits in exactly one
// window (the global one) and the envelope stores it inline.
// Moving an Element of these types never allocates; whether the box around
// it does is the runner's business (the Flink runner reuses solely owned
// boxes, beam/runners/flink_runner.cpp).
#pragma once

#include <any>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/clock.hpp"
#include "runtime/payload.hpp"

namespace dsps::beam {

/// Event-time window [start, end). The global window spans all time.
struct BoundedWindow {
  Timestamp start = std::numeric_limits<Timestamp>::min();
  Timestamp end = std::numeric_limits<Timestamp>::max();

  friend bool operator==(const BoundedWindow&,
                         const BoundedWindow&) = default;
};

inline BoundedWindow global_window() { return {}; }

/// Which firing of a trigger produced this element.
struct PaneInfo {
  bool is_first = true;
  bool is_last = true;
  std::int64_t index = 0;
};

/// Key/value pair, the input of a stateful ParDo.
template <typename K, typename V>
struct KV {
  using key_t = K;
  using value_t = V;

  K key;
  V value;

  friend bool operator==(const KV&, const KV&) = default;
};

template <typename T>
concept KvElement = requires {
  typename T::key_t;
  typename T::value_t;
};

/// A consumed record with its metadata (KafkaIO.read()'s element type).
/// Key and value are refcounted payload slices of the broker's storage —
/// the envelope and coder hops stay (the measured abstraction cost), but
/// the record bytes themselves are not copied until a coder materializes
/// them at a serialized boundary.
struct KafkaRecord {
  std::string topic;
  int partition = 0;
  std::int64_t offset = 0;
  Timestamp timestamp = 0;
  runtime::Payload key;
  runtime::Payload value;

  friend bool operator==(const KafkaRecord&, const KafkaRecord&) = default;
};

/// What KafkaIO's ToProducerRecord emits and its KafkaWriter consumes.
struct ProducerRecordStub {
  runtime::Payload key;
  runtime::Payload value;

  friend bool operator==(const ProducerRecordStub&,
                         const ProducerRecordStub&) = default;
};

/// Type-erased element payload. The payload types the translated queries
/// move in bulk — refcounted Payload slices, strings, KV pairs, KafkaIO's
/// record types and int64 counts — are stored inline in a variant;
/// any other type falls back to std::any, paying the heap boxing every
/// payload used to pay.
class Value {
 public:
  Value() = default;

  template <typename T>
    requires(!std::is_same_v<std::remove_cvref_t<T>, Value>)
  Value(T&& value)  // NOLINT(google-explicit-constructor)
      : storage_(make_storage(std::forward<T>(value))) {}

  template <typename T>
    requires(!std::is_same_v<std::remove_cvref_t<T>, Value>)
  Value& operator=(T&& value) {
    assign(std::forward<T>(value));
    return *this;
  }

  bool has_value() const noexcept {
    return !std::holds_alternative<std::monostate>(storage_);
  }

  template <typename T>
  const T& get() const {
    if constexpr (kInline<T>) {
      if (const T* inline_value = std::get_if<T>(&storage_)) {
        return *inline_value;
      }
    }
    return std::any_cast<const T&>(std::get<std::any>(storage_));
  }

  /// Bytes of a string-like value (std::string or refcounted Payload)
  /// without materializing a copy or caring which alternative is held —
  /// the read path ParDo chains use for field extraction. Empty optional
  /// for every other alternative. The view aliases this Value's storage.
  std::optional<std::string_view> try_view() const noexcept {
    if (const auto* s = std::get_if<std::string>(&storage_)) {
      return std::string_view(*s);
    }
    if (const auto* p = std::get_if<runtime::Payload>(&storage_)) {
      return p->view();
    }
    return std::nullopt;
  }

 private:
  template <typename T>
  static constexpr bool kInline =
      std::is_same_v<T, std::string> ||
      std::is_same_v<T, KV<std::string, std::string>> ||
      std::is_same_v<T, runtime::Payload> ||
      std::is_same_v<T, KV<runtime::Payload, runtime::Payload>> ||
      std::is_same_v<T, KafkaRecord> ||
      std::is_same_v<T, ProducerRecordStub> ||
      std::is_same_v<T, std::int64_t>;

  using Storage =
      std::variant<std::monostate, std::string, KV<std::string, std::string>,
                   runtime::Payload, KV<runtime::Payload, runtime::Payload>,
                   KafkaRecord, ProducerRecordStub, std::int64_t, std::any>;

  /// Constructs the alternative in place (no default-then-assign).
  template <typename T>
  static Storage make_storage(T&& value) {
    using Decayed = std::remove_cvref_t<T>;
    if constexpr (kInline<Decayed>) {
      return Storage(std::in_place_type<Decayed>, std::forward<T>(value));
    } else {
      return Storage(std::in_place_type<std::any>, std::forward<T>(value));
    }
  }

  template <typename T>
  void assign(T&& value) {
    using Decayed = std::remove_cvref_t<T>;
    if constexpr (kInline<Decayed>) {
      storage_ = std::forward<T>(value);
    } else {
      storage_ = std::any{std::forward<T>(value)};
    }
  }

  Storage storage_;
};

/// One windowed value.
struct Element {
  Value value;
  Timestamp timestamp = std::numeric_limits<Timestamp>::min();
  /// The element's one window; the name follows Beam's
  /// WindowedValue.getWindows().
  BoundedWindow windows = global_window();
  PaneInfo pane{};
};

// The inline KafkaRecord sets the size. Keep it bounded: every translated
// stage moves Elements by value, and Spark-sim's source repartition at
// P > 1 and its open-loop batch claims hold a whole micro-batch of them at
// once, so every byte here is multiplied by the batch size.
static_assert(sizeof(Element) <= 168);

template <typename T>
Element make_element(T value,
                     Timestamp timestamp =
                         std::numeric_limits<Timestamp>::min()) {
  Element element;
  element.value = std::move(value);
  element.timestamp = timestamp;
  return element;
}

template <typename T>
const T& element_value(const Element& element) {
  return element.value.get<T>();
}

}  // namespace dsps::beam
