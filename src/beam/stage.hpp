// Stage executors: the runner-facing, type-erased execution form of each
// transform. Runners instantiate one executor per translated operator
// instance and pump windowed Elements through it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/bytes.hpp"
#include "beam/dofn.hpp"
#include "beam/element.hpp"

namespace dsps::beam {

using Emit = std::function<void(Element&&)>;

class StageExecutor {
 public:
  virtual ~StageExecutor() = default;
  virtual void start() {}
  virtual void process(const Element& element, const Emit& emit) = 0;
  /// Bundle boundary: the runner decides how often bundles end. A DoFn that
  /// buffers (e.g. the Kafka writer) flushes here — so a runner with tiny
  /// bundles pays per-element flush costs (the Apex runner, §III-C3).
  virtual void bundle_boundary(const Emit& /*emit*/) {}
  /// Called once after the last element (finish bundles).
  virtual void finish(const Emit& emit) = 0;
};

using StageFactory = std::function<std::unique_ptr<StageExecutor>()>;

/// Outcome of a non-blocking read attempt (advance_now).
enum class ReadNow {
  kRecord,  ///< `out` was filled
  kIdle,    ///< nothing available right now; more may arrive later
  kDone,    ///< terminal end of input
};

/// Bounded source reader; runners pull until advance() returns false.
class SourceReader {
 public:
  virtual ~SourceReader() = default;
  virtual void open() {}
  /// Fills `out` and returns true, or returns false at end of input.
  /// Blocks while the source is merely idle (unbounded sources wait for
  /// more input until the topic seals).
  virtual bool advance(Element& out) = 0;
  /// Non-blocking variant for micro-batch runners over unbounded sources:
  /// kIdle lets the runner end the current batch instead of blocking
  /// inside it. The default delegates to advance(), which is exact for
  /// bounded readers (they are never idle short of end-of-input).
  virtual ReadNow advance_now(Element& out) {
    return advance(out) ? ReadNow::kRecord : ReadNow::kDone;
  }
  virtual void close() {}
};

/// shard / num_shards support parallel sources.
using ReaderFactory =
    std::function<std::unique_ptr<SourceReader>(int shard, int num_shards)>;

// ---------------------------------------------------------------------------

template <typename In, typename Out>
class ParDoExecutor final : public StageExecutor {
 public:
  explicit ParDoExecutor(DoFnPtr<In, Out> fn) : fn_(std::move(fn)) {
    // Resource-owning DoFns hand every executor instance its own copy.
    if (auto cloned = fn_->clone()) fn_ = std::move(cloned);
  }

  void start() override {
    fn_->setup();
    fn_->start_bundle();
  }

  void process(const Element& element, const Emit& emit) override {
    // The abstraction's per-element envelope: unbox the value, then rebox
    // each output together with a copy of the windowing metadata.
    const In& value = element_value<In>(element);
    typename DoFn<In, Out>::ProcessContext context(
        value, element, [&element, &emit](Out out, Timestamp timestamp) {
          emit(Element{.value = std::move(out),
                       .timestamp = timestamp,
                       .windows = element.windows,
                       .pane = element.pane});
        });
    fn_->process(context);
  }

  void bundle_boundary(const Emit& emit) override {
    fn_->finish_bundle(
        [&emit](Out out) { emit(Element{.value = std::move(out)}); });
    fn_->start_bundle();
  }

  void finish(const Emit& emit) override {
    fn_->finish_bundle(
        [&emit](Out out) { emit(Element{.value = std::move(out)}); });
    fn_->teardown();
  }

  const DoFnPtr<In, Out>& fn() const noexcept { return fn_; }

 private:
  DoFnPtr<In, Out> fn_;
};

/// Hash of the key of a KV element, for a stateful ParDo's keyed routing.
template <typename K, typename V>
std::uint64_t kv_key_hash(const Element& element) {
  const auto& kv = element_value<KV<K, V>>(element);
  if constexpr (std::is_integral_v<K>) {
    return static_cast<std::uint64_t>(kv.key) * 0x9E3779B97F4A7C15ULL;
  } else {
    return fnv1a(std::string_view{kv.key});
  }
}

}  // namespace dsps::beam
