#include "runtime/metrics.hpp"

#include <bit>
#include <cmath>
#include <sstream>
#include <thread>

namespace dsps::runtime {

namespace detail {

std::size_t shard_for_this_thread() noexcept {
  // One hash per thread, computed on first use. thread_local keeps the hot
  // path to a single TLS load.
  static thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (kCounterShards - 1);
  return shard;
}

namespace {

/// HDR indexing: values below 2*kHdrSubBuckets map one-to-one (exact
/// buckets); above that, the top kHdrSubBucketBits+1 significant bits pick
/// the bucket, so bucket width grows with magnitude at a fixed relative
/// resolution.
std::size_t bucket_for(std::uint64_t value_us) noexcept {
  std::size_t shift = 0;
  if (value_us >= kHdrSubBuckets) {
    shift = static_cast<std::size_t>(std::bit_width(value_us)) -
            kHdrSubBucketBits - 1;
  }
  const std::size_t index =
      shift * kHdrSubBuckets + static_cast<std::size_t>(value_us >> shift);
  return index < kHistogramBuckets ? index : kHistogramBuckets - 1;
}

/// Upper bound (us) of bucket i (inclusive). Buckets below 2*kHdrSubBuckets
/// hold exactly one value each.
std::uint64_t bucket_upper_us(std::size_t bucket) noexcept {
  const std::size_t shift =
      bucket < 2 * kHdrSubBuckets ? 0 : bucket / kHdrSubBuckets - 1;
  const std::uint64_t base = bucket - shift * kHdrSubBuckets;
  return ((base + 1) << shift) - 1;
}

}  // namespace

void HistogramCell::record(std::uint64_t value_us) noexcept {
  const std::size_t shard = shard_for_this_thread();
  count_shards[shard].value.fetch_add(1, std::memory_order_relaxed);
  sum_shards[shard].value.fetch_add(value_us, std::memory_order_relaxed);
  buckets[bucket_for(value_us)].fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

std::uint64_t HistogramSummary::percentile_us(double p) const noexcept {
  if (count == 0 || buckets.empty()) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return detail::bucket_upper_us(i);
  }
  return detail::bucket_upper_us(buckets.size() - 1);
}

std::uint64_t MetricsSnapshot::counter(std::string_view name,
                                       std::uint64_t fallback) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

double MetricsSnapshot::gauge(std::string_view name, double fallback) const {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? fallback : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsSnapshot::counters_with_prefix(std::string_view prefix) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (auto it = counters.lower_bound(std::string(prefix));
       it != counters.end() && std::string_view(it->first).substr(
                                   0, prefix.size()) == prefix;
       ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  const auto quote = [](const std::string& s) { return "\"" + s + "\""; };
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ",";
    first = false;
    out << quote(name) << ":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out << ",";
    first = false;
    out << quote(name) << ":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, summary] : histograms) {
    if (!first) out << ",";
    first = false;
    out << quote(name) << ":{\"count\":" << summary.count
        << ",\"sum_us\":" << summary.sum_us
        << ",\"mean_us\":" << summary.mean_us()
        << ",\"p50_us\":" << summary.p50_us()
        << ",\"p99_us\":" << summary.p99_us()
        << ",\"p999_us\":" << summary.p999_us() << "}";
  }
  out << "}}";
  return out.str();
}

Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& cell = counters_[name];
  if (cell == nullptr) cell = std::make_unique<detail::CounterCell>();
  return Counter(cell.get());
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& cell = gauges_[name];
  if (cell == nullptr) cell = std::make_unique<detail::GaugeCell>();
  return Gauge(cell.get());
}

TimeHistogram MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& cell = histograms_[name];
  if (cell == nullptr) cell = std::make_unique<detail::HistogramCell>();
  return TimeHistogram(cell.get());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, cell] : counters_) {
    snap.counters[name] = cell->total();
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges[name] = cell->value.load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : histograms_) {
    HistogramSummary summary;
    summary.buckets.resize(detail::kHistogramBuckets);
    for (std::size_t i = 0; i < detail::kHistogramBuckets; ++i) {
      summary.buckets[i] = cell->buckets[i].load(std::memory_order_relaxed);
    }
    for (const auto& shard : cell->count_shards) {
      summary.count += shard.value.load(std::memory_order_relaxed);
    }
    for (const auto& shard : cell->sum_shards) {
      summary.sum_us += shard.value.load(std::memory_order_relaxed);
    }
    snap.histograms[name] = std::move(summary);
  }
  return snap;
}

void MetricsRegistry::merge(const MetricsSnapshot& snapshot,
                            const std::string& prefix) {
  for (const auto& [name, value] : snapshot.counters) {
    counter(prefix + name).add(value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    gauge(prefix + name).set(value);
  }
  for (const auto& [name, summary] : snapshot.histograms) {
    std::lock_guard lock(mutex_);
    auto& cell = histograms_[prefix + name];
    if (cell == nullptr) cell = std::make_unique<detail::HistogramCell>();
    for (std::size_t i = 0;
         i < summary.buckets.size() && i < detail::kHistogramBuckets; ++i) {
      cell->buckets[i].fetch_add(summary.buckets[i],
                                 std::memory_order_relaxed);
    }
    cell->count_shards[0].value.fetch_add(summary.count,
                                          std::memory_order_relaxed);
    cell->sum_shards[0].value.fetch_add(summary.sum_us,
                                        std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace dsps::runtime
