// Exact cost-attribution profiler (DESIGN.md §5g).
//
// The paper can say *that* a setup is slower; this profiler says *where the
// microseconds go*. Engine loops bracket each batch, task or window they
// handle with a ScopedStage timer (mostly through runtime::OperatorInvoker,
// invoker.hpp) over one fixed taxonomy:
//
//   queue_wait  — blocked on a channel/mailbox/pending-queue pop or push
//   user_fn     — operator work on a batch, task or window
//   broker_rtt  — simulated broker network round-trips (produce/fetch)
//   checkpoint  — barrier handling, window commit, offset commit
//
// Scopes sit only where a loop handles a batch, a task or a window, never
// per record, so every scope is timed exactly. Nested scopes record their
// own time and a parent records only its *self* time (elapsed minus
// children), so a thread's costs decompose without double counting; the
// wall time its root scopes cover is its busy time, and the attributed
// total never exceeds it. Per-record costs come from counters times
// unit-cost probes (perfbench `--trace 1`), not from this profiler.
//
// Cost model, mirroring FaultInjector: the profiler is process-global and
// *disarmed* by default. A disarmed ScopedStage is a single relaxed atomic
// load — no clock reads, no TLS writes — so the paper-faithful benchmarks
// pay nothing. STREAMSHIM_PROFILE=1 arms it; the armed overhead stays
// inside the <2% budget that scripts/check_perf_regression.py gates in CI.
//
// Costs accumulate in thread-local slabs (plain, uncontended writes) that
// flush into global sharded cells every kFlushPending scopes and at task
// teardown (OperatorInvoker::close).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace dsps::runtime {

/// The fixed stage taxonomy, in the render order of the breakdown table.
enum class Stage : std::uint8_t {
  kQueueWait = 0,
  kUserFn,
  kBrokerRtt,
  kCheckpoint,
};

inline constexpr std::size_t kStageCount = 4;

std::string_view stage_name(Stage stage) noexcept;

namespace detail {

extern std::atomic<bool> g_profiler_armed;

}  // namespace detail

/// Accumulated cost of one stage (or one named operator).
struct StageCost {
  std::uint64_t total_ns = 0;  // self time spent in the stage
  std::uint64_t calls = 0;     // scope entries

  StageCost& operator+=(const StageCost& other) noexcept {
    total_ns += other.total_ns;
    calls += other.calls;
    return *this;
  }
};

/// Point-in-time readout of every stage, the per-operator attribution and
/// the busy time the attribution must fit inside.
struct ProfileSnapshot {
  StageCost stages[kStageCount];
  std::map<std::string, StageCost> operators;
  /// Summed over threads: the wall time each thread's root scopes covered.
  std::uint64_t busy_ns = 0;

  /// Sum of every stage's self time. Never exceeds busy_us(): the self
  /// times of a thread's scopes add up to the elapsed time of its roots.
  std::uint64_t attributed_us() const noexcept;
  std::uint64_t busy_us() const noexcept { return busy_ns / 1000; }
  /// Fraction of attributed time spent in `stage` (0 when nothing is
  /// attributed yet).
  double share(Stage stage) const noexcept;
  /// Delta of two snapshots of the same profiler (this - earlier).
  ProfileSnapshot since(const ProfileSnapshot& earlier) const;
};

class Profiler {
 public:
  /// The process-global profiler every ScopedStage consults.
  static Profiler& instance();

  /// Arms the profiler. Re-arming resets all accumulated costs and
  /// invalidates stale thread-local slabs.
  void arm();

  /// Disarms and keeps totals readable until the next arm(). Scopes return
  /// to their single-relaxed-load path.
  void disarm();

  bool armed() const noexcept {
    return detail::g_profiler_armed.load(std::memory_order_relaxed);
  }

  /// Registers an operator label for per-operator attribution and returns
  /// its dense id. Idempotent per name; call at operator open, never per
  /// record. Returns kNoOperator when the table is full.
  std::uint32_t operator_id(std::string_view name);
  static constexpr std::uint32_t kNoOperator = ~std::uint32_t{0};

  /// Totals accumulated since the last arm(). Thread slabs flush lazily
  /// (every kFlushPending scopes and at OperatorInvoker::close), so live
  /// threads may hold a small unflushed residue.
  ProfileSnapshot snapshot() const;

  /// Publishes the calling thread's slab into the global cells.
  void flush_this_thread() noexcept;

  // -- internal: ScopedStage/flush plumbing ---------------------------------
  void record(Stage stage, std::uint32_t op, std::uint64_t self_ns,
              std::uint64_t busy_ns) noexcept;

 private:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  struct Impl;
  Impl* impl_;
};

/// RAII stage timer. Near-free when the profiler is disarmed (one relaxed
/// atomic load). When armed it reads the clock at entry and exit and
/// records its self time (elapsed minus nested scopes); a root scope also
/// adds its elapsed time to the thread's busy time.
class ScopedStage {
 public:
  explicit ScopedStage(Stage stage,
                       std::uint32_t op = Profiler::kNoOperator) noexcept {
    // The disarmed fast path: one relaxed load, no clock, no TLS write.
    if (detail::g_profiler_armed.load(std::memory_order_relaxed)) {
      enter(stage, op);
    }
  }
  ~ScopedStage() {
    if (active_) leave();
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  void enter(Stage stage, std::uint32_t op) noexcept;
  void leave() noexcept;

  std::int64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  ScopedStage* parent_ = nullptr;
  std::uint32_t op_ = Profiler::kNoOperator;
  Stage stage_ = Stage::kUserFn;
  bool active_ = false;
};

}  // namespace dsps::runtime
