#include "runtime/profiler.hpp"

#include <chrono>
#include <cstring>
#include <mutex>
#include <vector>

#include "runtime/metrics.hpp"

namespace dsps::runtime {

namespace detail {

std::atomic<bool> g_profiler_armed{false};

}  // namespace detail

namespace {

/// Thread-local profiling state. Plain fields: only the owning thread
/// touches them; flushes move the totals into sharded atomics.
struct ProfilerTls {
  std::uint64_t stage_ns[kStageCount];
  std::uint64_t stage_calls[kStageCount];
  std::uint64_t busy_ns;    // wall time covered by this thread's root scopes
  ScopedStage* top;         // innermost active ScopedStage
  std::uint32_t pending;    // scopes recorded since the last flush
  std::uint64_t epoch;      // arm() generation the slab belongs to
};

// Trivially-constructible so thread creation pays nothing.
constinit thread_local ProfilerTls t_tls{{0}, {0}, 0, nullptr, 0, 0};

constexpr const char* kStageNames[kStageCount] = {"queue_wait", "user_fn",
                                                  "broker_rtt", "checkpoint"};

/// Flush a thread slab after this many scopes: bounds the residue a live
/// thread can hold while keeping flushes (sharded fetch_adds) rare.
constexpr std::uint32_t kFlushPending = 32;

constexpr std::size_t kMaxOperators = 512;

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Unsharded per-operator cell: scopes are per batch, so writes are rare.
struct OpCell {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
};

void clear_slab(ProfilerTls& tls) noexcept {
  std::memset(tls.stage_ns, 0, sizeof(tls.stage_ns));
  std::memset(tls.stage_calls, 0, sizeof(tls.stage_calls));
  tls.busy_ns = 0;
  tls.pending = 0;
}

void zero(detail::CounterCell& cell) noexcept {
  for (auto& shard : cell.shards) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

}  // namespace

std::string_view stage_name(Stage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

std::uint64_t ProfileSnapshot::attributed_us() const noexcept {
  std::uint64_t total_ns = 0;
  for (const auto& stage : stages) total_ns += stage.total_ns;
  return total_ns / 1000;
}

double ProfileSnapshot::share(Stage stage) const noexcept {
  std::uint64_t total_ns = 0;
  for (const auto& cost : stages) total_ns += cost.total_ns;
  if (total_ns == 0) return 0.0;
  return static_cast<double>(stages[static_cast<std::size_t>(stage)].total_ns) /
         static_cast<double>(total_ns);
}

ProfileSnapshot ProfileSnapshot::since(const ProfileSnapshot& earlier) const {
  const auto minus = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : 0;
  };
  const auto minus_cost = [&](const StageCost& a, const StageCost& b) {
    return StageCost{.total_ns = minus(a.total_ns, b.total_ns),
                     .calls = minus(a.calls, b.calls)};
  };
  ProfileSnapshot delta;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    delta.stages[i] = minus_cost(stages[i], earlier.stages[i]);
  }
  for (const auto& [name, cost] : operators) {
    const auto it = earlier.operators.find(name);
    const StageCost d =
        it == earlier.operators.end() ? cost : minus_cost(cost, it->second);
    if (d.total_ns > 0 || d.calls > 0) delta.operators[name] = d;
  }
  delta.busy_ns = minus(busy_ns, earlier.busy_ns);
  return delta;
}

struct Profiler::Impl {
  // Global sharded accumulators the thread slabs flush into.
  detail::CounterCell stage_ns[kStageCount];
  detail::CounterCell stage_calls[kStageCount];
  detail::CounterCell busy_ns;

  // Per-operator attribution. Fixed capacity so reads by id are lock-free;
  // registration takes the mutex once per operator at open time.
  OpCell op_cells[kMaxOperators];
  std::mutex op_mutex;
  std::vector<std::string> op_names;             // index = id
  std::atomic<std::uint32_t> op_count{0};

  // arm() generation: a slab stamped with an older epoch is stale and is
  // zeroed instead of flushed (its costs belong to a previous arming).
  std::atomic<std::uint64_t> epoch{1};
};

Profiler::Profiler() : impl_(new Impl) {}

Profiler& Profiler::instance() {
  static Profiler* profiler = new Profiler;  // leaked: outlives worker threads
  return *profiler;
}

void Profiler::arm() {
  // Bump the epoch first: slabs stamped with the old epoch zero themselves
  // instead of flushing stale costs into the fresh cells.
  impl_->epoch.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    zero(impl_->stage_ns[i]);
    zero(impl_->stage_calls[i]);
  }
  zero(impl_->busy_ns);
  const std::uint32_t ops = impl_->op_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < ops; ++i) {
    impl_->op_cells[i].ns.store(0, std::memory_order_relaxed);
    impl_->op_cells[i].calls.store(0, std::memory_order_relaxed);
  }
  detail::g_profiler_armed.store(true, std::memory_order_relaxed);
}

void Profiler::disarm() {
  detail::g_profiler_armed.store(false, std::memory_order_relaxed);
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
    snap.stages[i].total_ns = impl_->stage_ns[i].total();
    snap.stages[i].calls = impl_->stage_calls[i].total();
  }
  snap.busy_ns = impl_->busy_ns.total();
  const std::uint32_t ops = impl_->op_count.load(std::memory_order_acquire);
  std::lock_guard lock(impl_->op_mutex);
  for (std::uint32_t i = 0; i < ops; ++i) {
    StageCost cost;
    cost.total_ns = impl_->op_cells[i].ns.load(std::memory_order_relaxed);
    cost.calls = impl_->op_cells[i].calls.load(std::memory_order_relaxed);
    if (cost.calls > 0) snap.operators[impl_->op_names[i]] = cost;
  }
  return snap;
}

void Profiler::flush_this_thread() noexcept {
  auto& tls = t_tls;
  const std::uint64_t epoch = impl_->epoch.load(std::memory_order_relaxed);
  if (tls.epoch == epoch) {
    for (std::size_t i = 0; i < kStageCount; ++i) {
      if (tls.stage_ns[i] > 0) impl_->stage_ns[i].add(tls.stage_ns[i]);
      if (tls.stage_calls[i] > 0)
        impl_->stage_calls[i].add(tls.stage_calls[i]);
    }
    if (tls.busy_ns > 0) impl_->busy_ns.add(tls.busy_ns);
  } else {
    tls.epoch = epoch;
  }
  clear_slab(tls);
}

void Profiler::record(Stage stage, std::uint32_t op, std::uint64_t self_ns,
                      std::uint64_t busy_ns) noexcept {
  const auto index = static_cast<std::size_t>(stage);
  auto& tls = t_tls;
  const std::uint64_t epoch = impl_->epoch.load(std::memory_order_relaxed);
  if (tls.epoch != epoch) {
    // First scope since (re-)arming: drop stale local costs.
    clear_slab(tls);
    tls.epoch = epoch;
  }
  tls.stage_ns[index] += self_ns;
  tls.stage_calls[index] += 1;
  tls.busy_ns += busy_ns;
  if (op != kNoOperator && op < kMaxOperators) {
    impl_->op_cells[op].ns.fetch_add(self_ns, std::memory_order_relaxed);
    impl_->op_cells[op].calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (++tls.pending >= kFlushPending) flush_this_thread();
}

// --- ScopedStage -----------------------------------------------------------

void ScopedStage::enter(Stage stage, std::uint32_t op) noexcept {
  auto& tls = t_tls;
  stage_ = stage;
  op_ = op;
  parent_ = tls.top;
  tls.top = this;
  active_ = true;
  start_ns_ = steady_ns();
}

void ScopedStage::leave() noexcept {
  const std::int64_t elapsed = steady_ns() - start_ns_;
  const std::uint64_t elapsed_ns =
      elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0;
  const std::uint64_t self_ns =
      elapsed_ns > child_ns_ ? elapsed_ns - child_ns_ : 0;
  t_tls.top = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += elapsed_ns;
  Profiler::instance().record(stage_, op_, self_ns,
                              parent_ == nullptr ? elapsed_ns : 0);
}

}  // namespace dsps::runtime
