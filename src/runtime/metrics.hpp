// Unified metrics: one registry, one snapshot schema, for all three engines.
//
// Before this substrate existed each engine kept its own ad-hoc stats struct
// (Flink `VertexMetrics`, Apex `ApplicationStats`, Spark `BatchStats`) and
// every consumer — the harness report, the perf smoke bench, the Beam
// runners — had to speak three dialects. A MetricsRegistry owns named
// counters, gauges and time histograms; engines update them from their hot
// loops and publish a MetricsSnapshot when a job finishes.
//
// Hot-path design: a counter is a set of cache-line-padded shards indexed by
// a hash of the calling thread's id. add() is a single relaxed fetch_add on
// the caller's shard — no locks, no false sharing between worker threads.
// Registration (name -> instrument lookup) takes a mutex but happens once
// per operator at setup time, never per record.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dsps::runtime {

namespace detail {

inline constexpr std::size_t kCounterShards = 16;  // power of two

// HDR-style histogram geometry: each power-of-two magnitude splits into
// 2^kHdrSubBucketBits linear sub-buckets, so any recorded value lands in a
// bucket whose width is at most value / 2^kHdrSubBucketBits — percentile
// queries are exact to ~6% relative error (and exact below 32us, where the
// buckets are 1us wide). 576 buckets cover values up to 2^39 us (~6.4
// days), far beyond any scope or batch this repo times.
inline constexpr std::size_t kHdrSubBucketBits = 4;
inline constexpr std::size_t kHdrSubBuckets = 1u << kHdrSubBucketBits;
inline constexpr std::size_t kHistogramBuckets =
    (39 - kHdrSubBucketBits - 1) * kHdrSubBuckets + 2 * kHdrSubBuckets;

struct alignas(64) PaddedAtomic {
  std::atomic<std::uint64_t> value{0};
};

/// Shard index for the calling thread (stable per thread, cheap).
std::size_t shard_for_this_thread() noexcept;

struct CounterCell {
  PaddedAtomic shards[kCounterShards];

  void add(std::uint64_t delta) noexcept {
    shards[shard_for_this_thread()].value.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& shard : shards)
      sum += shard.value.load(std::memory_order_relaxed);
    return sum;
  }
};

struct GaugeCell {
  std::atomic<double> value{0.0};
};

/// HDR-style microsecond buckets (see the geometry constants above). Count
/// and sum are sharded like counters (they are touched on every record);
/// bucket counts are plain atomics — histogram samples are per-batch or
/// per-window, not per-record, so bucket contention is
/// negligible and padding 576 buckets would cost 36KB per histogram.
struct HistogramCell {
  std::atomic<std::uint64_t> buckets[kHistogramBuckets];
  PaddedAtomic sum_shards[kCounterShards];
  PaddedAtomic count_shards[kCounterShards];

  void record(std::uint64_t value_us) noexcept;
};

}  // namespace detail

/// Monotonic event counter handle. Trivially copyable; valid as long as the
/// registry that produced it lives.
class Counter {
 public:
  Counter() noexcept = default;
  void add(std::uint64_t delta = 1) noexcept {
    if (cell_ != nullptr) cell_->add(delta);
  }
  std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->total();
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) noexcept : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-write-wins instantaneous value (e.g. duration, queue depth).
class Gauge {
 public:
  Gauge() noexcept = default;
  void set(double value) noexcept {
    if (cell_ != nullptr)
      cell_->value.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return cell_ == nullptr ? 0.0
                            : cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) noexcept : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Time histogram handle (microsecond samples).
class TimeHistogram {
 public:
  TimeHistogram() noexcept = default;
  void record_us(std::uint64_t value_us) noexcept {
    if (cell_ != nullptr) cell_->record(value_us);
  }

 private:
  friend class MetricsRegistry;
  explicit TimeHistogram(detail::HistogramCell* cell) noexcept : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Point-in-time histogram readout carried by MetricsSnapshot.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::vector<std::uint64_t> buckets;  // HDR-style microsecond buckets

  double mean_us() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_us) /
                            static_cast<double>(count);
  }
  /// Upper bound (us) of the HDR bucket containing the p-th percentile
  /// sample, p in [0, 1] — exact to the sub-bucket resolution (~6%
  /// relative, exact below 32us). 0 when empty.
  std::uint64_t percentile_us(double p) const noexcept;
  std::uint64_t p50_us() const noexcept { return percentile_us(0.50); }
  std::uint64_t p99_us() const noexcept { return percentile_us(0.99); }
  std::uint64_t p999_us() const noexcept { return percentile_us(0.999); }
};

/// Metric naming: `engine.component.metric` (engine = flink / spark / apex /
/// kafka / runtime / yarn; further dots subdivide the metric, e.g.
/// per-partition or per-subtask instances).
/// The one cross-engine schema: plain name -> value maps, consumed by the
/// harness report, the Beam runners, and the perf smoke bench alike.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  std::uint64_t counter(std::string_view name,
                        std::uint64_t fallback = 0) const;
  double gauge(std::string_view name, double fallback = 0.0) const;
  /// All counters whose name starts with `prefix`, in name order.
  std::vector<std::pair<std::string, std::uint64_t>> counters_with_prefix(
      std::string_view prefix) const;

  /// Compact JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {"name":{"count":..,"sum_us":..,"p50_us":..,"p99_us":..,"p999_us":..},
  /// ..}}. Existing fields are stable; p999_us rides along (additive, so
  /// older consumers of the schema keep working).
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Handles stay valid for the registry's lifetime.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  TimeHistogram histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Folds a finished job's snapshot into this registry, prefixing every
  /// name (e.g. "flink."). Counter values add; gauges overwrite; histogram
  /// buckets add. Lets the process-wide registry aggregate across engines.
  void merge(const MetricsSnapshot& snapshot, const std::string& prefix = "");

  /// Process-wide registry: engines publish per-job snapshots here so the
  /// bench/report layer can read every engine through one lens.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

}  // namespace dsps::runtime
