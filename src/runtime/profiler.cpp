#include "runtime/profiler.hpp"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace dsps::runtime {

namespace detail {

std::atomic<bool> g_profiler_armed{false};

namespace {
// Trivially-constructible so thread creation pays nothing; countdown = 1
// makes the first top-level scope of every thread a sample.
constinit thread_local ProfilerTls t_profiler_tls{{0}, {0}, nullptr, 1, 0, 0};
}  // namespace

ProfilerTls& profiler_tls() noexcept { return t_profiler_tls; }

}  // namespace detail

namespace {

constexpr const char* kStageNames[kStageCount] = {
    "queue_wait", "decode", "user_fn", "encode",
    "broker_rtt", "checkpoint", "other"};

/// Flush a thread slab after this many samples: bounds the residue a live
/// thread can hold while keeping flushes (sharded fetch_adds) rare.
constexpr std::uint32_t kFlushPending = 32;

constexpr std::size_t kMaxOperators = 512;

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Unsharded per-operator cell: writes happen only at sampled rate.
struct OpCell {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> samples{0};
};

}  // namespace

std::string_view stage_name(Stage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

std::uint64_t ProfileSnapshot::attributed_us() const noexcept {
  std::uint64_t total = 0;
  for (const auto& stage : stages) total += stage.total_us;
  return total;
}

double ProfileSnapshot::share(Stage stage) const noexcept {
  const std::uint64_t total = attributed_us();
  if (total == 0) return 0.0;
  return static_cast<double>(stages[static_cast<std::size_t>(stage)].total_us) /
         static_cast<double>(total);
}

ProfileSnapshot ProfileSnapshot::since(const ProfileSnapshot& earlier) const {
  const auto minus = [](const StageCost& a, const StageCost& b) {
    StageCost d;
    d.total_us = a.total_us >= b.total_us ? a.total_us - b.total_us : 0;
    d.calls = a.calls >= b.calls ? a.calls - b.calls : 0;
    d.samples = a.samples >= b.samples ? a.samples - b.samples : 0;
    return d;
  };
  ProfileSnapshot delta;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    delta.stages[i] = minus(stages[i], earlier.stages[i]);
  }
  for (const auto& [name, cost] : operators) {
    const auto it = earlier.operators.find(name);
    const StageCost d =
        it == earlier.operators.end() ? cost : minus(cost, it->second);
    if (d.total_us > 0 || d.calls > 0) delta.operators[name] = d;
  }
  return delta;
}

struct Profiler::Impl {
  // Global sharded accumulators the thread slabs flush into.
  detail::CounterCell stage_ns[kStageCount];
  detail::CounterCell stage_calls[kStageCount];
  detail::CounterCell stage_samples[kStageCount];

  // Per-operator user_fn attribution. Fixed capacity so reads by id are
  // lock-free; registration takes the mutex once per operator at open time.
  OpCell op_cells[kMaxOperators];
  std::mutex op_mutex;
  std::vector<std::string> op_names;             // index = id
  std::atomic<std::uint32_t> op_count{0};

  // arm() generation: a slab stamped with an older epoch is stale and is
  // zeroed instead of flushed (its costs belong to a previous arming).
  std::atomic<std::uint64_t> epoch{1};

  // Scope-duration histograms in the process-wide registry, one per stage.
  TimeHistogram stage_hist[kStageCount];
  Gauge live_total_us[kStageCount];
  Gauge live_share[kStageCount];

  // Sampler thread lifecycle.
  std::thread sampler;
  std::mutex sampler_mutex;
  std::condition_variable sampler_cv;
  bool sampler_stop = false;
};

Profiler::Profiler() : impl_(new Impl) {
  auto& registry = MetricsRegistry::global();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::string base =
        std::string("runtime.profile.") + kStageNames[i];
    impl_->stage_hist[i] = registry.histogram(base + ".scope_us");
    impl_->live_total_us[i] = registry.gauge(base + ".total_us");
    impl_->live_share[i] = registry.gauge(base + ".share");
  }
}

Profiler::~Profiler() { disarm(); }

Profiler& Profiler::instance() {
  static Profiler* profiler = new Profiler;  // leaked: outlives worker threads
  return *profiler;
}

void Profiler::arm(ProfilerConfig config) {
  disarm();
  config_ = config;
  if (config_.sample_stride == 0) config_.sample_stride = 1;
  reset();
  {
    std::lock_guard lock(impl_->sampler_mutex);
    impl_->sampler_stop = false;
  }
  detail::g_profiler_armed.store(true, std::memory_order_relaxed);
  if (config_.start_sampler) {
    impl_->sampler = std::thread([this] { sampler_loop(); });
  }
}

void Profiler::disarm() {
  detail::g_profiler_armed.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(impl_->sampler_mutex);
    impl_->sampler_stop = true;
  }
  impl_->sampler_cv.notify_all();
  if (impl_->sampler.joinable()) impl_->sampler.join();
  flush_this_thread();
}

std::uint32_t Profiler::operator_id(std::string_view name) {
  std::lock_guard lock(impl_->op_mutex);
  for (std::uint32_t i = 0; i < impl_->op_names.size(); ++i) {
    if (impl_->op_names[i] == name) return i;
  }
  if (impl_->op_names.size() >= kMaxOperators) return kNoOperator;
  impl_->op_names.emplace_back(name);
  const auto id = static_cast<std::uint32_t>(impl_->op_names.size() - 1);
  impl_->op_count.store(id + 1, std::memory_order_release);
  return id;
}

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot snap;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    snap.stages[i].total_us = impl_->stage_ns[i].total() / 1000;
    snap.stages[i].calls = impl_->stage_calls[i].total();
    snap.stages[i].samples = impl_->stage_samples[i].total();
  }
  const std::uint32_t ops = impl_->op_count.load(std::memory_order_acquire);
  std::lock_guard lock(impl_->op_mutex);
  for (std::uint32_t i = 0; i < ops; ++i) {
    StageCost cost;
    cost.total_us =
        impl_->op_cells[i].ns.load(std::memory_order_relaxed) / 1000;
    cost.calls = impl_->op_cells[i].calls.load(std::memory_order_relaxed);
    cost.samples = impl_->op_cells[i].samples.load(std::memory_order_relaxed);
    if (cost.calls > 0) snap.operators[impl_->op_names[i]] = cost;
  }
  return snap;
}

void Profiler::reset() {
  // Bump the epoch first: slabs stamped with the old epoch zero themselves
  // instead of flushing stale costs into the fresh cells.
  impl_->epoch.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    for (auto& shard : impl_->stage_ns[i].shards)
      shard.value.store(0, std::memory_order_relaxed);
    for (auto& shard : impl_->stage_calls[i].shards)
      shard.value.store(0, std::memory_order_relaxed);
    for (auto& shard : impl_->stage_samples[i].shards)
      shard.value.store(0, std::memory_order_relaxed);
  }
  const std::uint32_t ops = impl_->op_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < ops; ++i) {
    impl_->op_cells[i].ns.store(0, std::memory_order_relaxed);
    impl_->op_cells[i].calls.store(0, std::memory_order_relaxed);
    impl_->op_cells[i].samples.store(0, std::memory_order_relaxed);
  }
}

void Profiler::flush_this_thread() noexcept {
  auto& tls = detail::profiler_tls();
  const std::uint64_t epoch = impl_->epoch.load(std::memory_order_relaxed);
  if (tls.epoch == epoch) {
    for (std::size_t i = 0; i < kStageCount; ++i) {
      if (tls.stage_ns[i] > 0) impl_->stage_ns[i].add(tls.stage_ns[i]);
      if (tls.stage_calls[i] > 0)
        impl_->stage_calls[i].add(tls.stage_calls[i]);
    }
  } else {
    tls.epoch = epoch;
  }
  std::memset(tls.stage_ns, 0, sizeof(tls.stage_ns));
  std::memset(tls.stage_calls, 0, sizeof(tls.stage_calls));
  tls.pending = 0;
}

void Profiler::record_sample(Stage stage, std::uint32_t op,
                             std::uint64_t self_ns,
                             std::uint32_t weight) noexcept {
  const auto index = static_cast<std::size_t>(stage);
  const std::uint64_t weighted_ns = self_ns * weight;
  auto& tls = detail::profiler_tls();
  const std::uint64_t epoch = impl_->epoch.load(std::memory_order_relaxed);
  if (tls.epoch != epoch) {
    // First sample since (re-)arming: drop stale local costs.
    std::memset(tls.stage_ns, 0, sizeof(tls.stage_ns));
    std::memset(tls.stage_calls, 0, sizeof(tls.stage_calls));
    tls.pending = 0;
    tls.epoch = epoch;
  }
  tls.stage_ns[index] += weighted_ns;
  tls.stage_calls[index] += weight;
  impl_->stage_samples[index].add(1);
  impl_->stage_hist[index].record_us(self_ns / 1000);
  if (op != kNoOperator && op < kMaxOperators) {
    impl_->op_cells[op].ns.fetch_add(weighted_ns, std::memory_order_relaxed);
    impl_->op_cells[op].calls.fetch_add(weight, std::memory_order_relaxed);
    impl_->op_cells[op].samples.fetch_add(1, std::memory_order_relaxed);
  }
  if (++tls.pending >= kFlushPending) flush_this_thread();
}

void Profiler::sampler_loop() {
  for (;;) {
    {
      std::unique_lock lock(impl_->sampler_mutex);
      impl_->sampler_cv.wait_for(
          lock, std::chrono::milliseconds(config_.sampler_interval_ms),
          [this] { return impl_->sampler_stop; });
      if (impl_->sampler_stop) return;
    }
    publish_live(snapshot());
  }
}

void Profiler::publish_live(const ProfileSnapshot& snap) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    impl_->live_total_us[i].set(
        static_cast<double>(snap.stages[i].total_us));
    impl_->live_share[i].set(snap.share(static_cast<Stage>(i)));
  }
}

// --- ScopedStage -----------------------------------------------------------

void ScopedStage::enter(Stage stage, Mode mode, std::uint32_t op) noexcept {
  auto& tls = detail::profiler_tls();
  std::uint32_t weight = 1;
  if (tls.top != nullptr) {
    // Nested under a timed scope: always time, inherit the root's weight so
    // self-times decompose the sampled trace exactly.
    weight = static_cast<ScopedStage*>(tls.top)->weight_;
  } else if (mode == Mode::kSampled) {
    if (--tls.countdown != 0) return;  // not this trace's turn
    const std::uint32_t stride = Profiler::instance().config().sample_stride;
    tls.countdown = stride;
    weight = stride;
  }
  stage_ = stage;
  op_ = op;
  weight_ = weight;
  parent_ = static_cast<ScopedStage*>(tls.top);
  tls.top = this;
  active_ = true;
  start_ns_ = steady_ns();
}

void ScopedStage::leave() noexcept {
  const std::int64_t elapsed =
      steady_ns() - start_ns_;
  const std::uint64_t elapsed_ns =
      elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0;
  const std::uint64_t self_ns =
      elapsed_ns > child_ns_ ? elapsed_ns - child_ns_ : 0;
  auto& tls = detail::profiler_tls();
  tls.top = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += elapsed_ns;
  Profiler::instance().record_sample(stage_, op_, self_ns, weight_);
}

}  // namespace dsps::runtime
