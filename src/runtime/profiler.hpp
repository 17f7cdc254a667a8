// Always-on-capable cost-attribution profiler (DESIGN.md §5g).
//
// The paper can say *that* a setup is slower; this profiler says *where the
// microseconds go*. Every engine loop routes operator execution through
// runtime::OperatorInvoker (invoker.hpp), which brackets each step with a
// ScopedStage timer over one fixed taxonomy:
//
//   queue_wait  — blocked on a channel/mailbox/pending-queue pop or push
//   decode      — wire bytes -> records (coders, codecs, projection parse)
//   user_fn     — the operator/DoFn body itself
//   encode      — records -> wire bytes (coders, codecs, sink serialization)
//   broker_rtt  — simulated broker network round-trips (produce/fetch)
//   checkpoint  — barrier handling, window commit, offset commit
//   other       — instrumented work that fits no bucket above
//
// Cost model, mirroring FaultInjector: the profiler is process-global and
// *disarmed* by default. A disarmed ScopedStage is a single relaxed atomic
// load — no clock reads, no TLS writes — so the paper-faithful benchmarks
// pay nothing. Armed (STREAMSHIM_PROFILE=1), per-record scopes are
// stride-sampled: one in every `sample_stride` top-level scopes takes real
// timestamps (its weight scales the recorded cost back up), everything
// nested under a sampled scope is timed exactly so self-times decompose
// without double counting. Per-batch scopes (Mode::kAlways) are always
// timed; they fire orders of magnitude less often. This keeps the armed
// overhead inside the hard <2% budget that scripts/check_perf_regression.py
// gates in CI.
//
// Costs accumulate in thread-local slabs (plain, uncontended writes) that
// flush into global sharded cells every kFlushPending samples and at task
// teardown (OperatorInvoker::close). A background sampler thread
// periodically publishes live totals as `runtime.profile.*` gauges in
// MetricsRegistry::global() and records sampled scope durations into
// HDR-style histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "runtime/metrics.hpp"

namespace dsps::runtime {

/// The fixed stage taxonomy. Order is the render order of the breakdown
/// table; kOther stays last.
enum class Stage : std::uint8_t {
  kQueueWait = 0,
  kDecode,
  kUserFn,
  kEncode,
  kBrokerRtt,
  kCheckpoint,
  kOther,
};

inline constexpr std::size_t kStageCount = 7;

std::string_view stage_name(Stage stage) noexcept;

namespace detail {

/// Thread-local profiling state. Plain fields: only the owning thread
/// touches them; flushes move the totals into sharded atomics.
struct ProfilerTls {
  std::uint64_t stage_ns[kStageCount];
  std::uint64_t stage_calls[kStageCount];
  void* top;                // active ScopedStage (trace root/nesting)
  std::uint32_t countdown;  // top-level scopes until the next sample
  std::uint32_t pending;    // samples accumulated since the last flush
  std::uint64_t epoch;      // arm() generation the slab belongs to
};

ProfilerTls& profiler_tls() noexcept;

extern std::atomic<bool> g_profiler_armed;

}  // namespace detail

struct ProfilerConfig {
  /// Time one in every `sample_stride` top-level per-record scopes. 1 =
  /// exact attribution (tests); the default keeps armed overhead <2% even
  /// on the hottest path (Flink native Identity, ~200ns/record wall).
  std::uint32_t sample_stride = 128;
  /// Background sampler period (live gauges).
  std::int64_t sampler_interval_ms = 20;
  /// Tests can run without the background thread.
  bool start_sampler = true;
};

/// Accumulated cost of one stage (or one named operator's user_fn).
struct StageCost {
  std::uint64_t total_us = 0;  // weighted estimate of wall time spent
  std::uint64_t calls = 0;     // weighted estimate of scope entries
  std::uint64_t samples = 0;   // scopes actually timed

  StageCost& operator+=(const StageCost& other) noexcept {
    total_us += other.total_us;
    calls += other.calls;
    samples += other.samples;
    return *this;
  }
};

/// Point-in-time readout of every stage plus the per-operator user_fn
/// attribution (fused composite members appear as their own operators).
struct ProfileSnapshot {
  StageCost stages[kStageCount];
  std::map<std::string, StageCost> operators;

  std::uint64_t attributed_us() const noexcept;
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

  /// Arms the profiler and (by default) starts the background sampler.
  /// Re-arming resets all accumulated costs and invalidates stale
  /// thread-local slabs.
  void arm(ProfilerConfig config = {});

  /// Disarms, joins the sampler thread, and keeps totals readable until the
  /// next arm(). Scopes return to their single-relaxed-load path.
  void disarm();

  bool armed() const noexcept {
    return detail::g_profiler_armed.load(std::memory_order_relaxed);
  }

  const ProfilerConfig& config() const noexcept { return config_; }

  /// Registers an operator label for per-operator user_fn attribution and
  /// returns its dense id. Idempotent per name; call at operator open, never
  /// per record. Returns kNoOperator when the table is full.
  std::uint32_t operator_id(std::string_view name);
  static constexpr std::uint32_t kNoOperator = ~std::uint32_t{0};

  /// Totals accumulated since the last arm(). Thread slabs flush lazily
  /// (every kFlushPending samples and at OperatorInvoker::close), so live
  /// threads may hold a small unflushed residue.
  ProfileSnapshot snapshot() const;

  /// Zeroes all accumulated costs (between benchmark setups) without
  /// disturbing the armed state or registered operators.
  void reset();

  /// Publishes the calling thread's slab into the global cells.
  void flush_this_thread() noexcept;

  // -- internal: ScopedStage/flush plumbing ---------------------------------
  void record_sample(Stage stage, std::uint32_t op, std::uint64_t self_ns,
                     std::uint32_t weight) noexcept;

 private:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void sampler_loop();
  void publish_live(const ProfileSnapshot& snap);

  struct Impl;
  Impl* impl_;
  ProfilerConfig config_;
};

/// RAII stage timer. Near-free when the profiler is disarmed (one relaxed
/// atomic load). When armed:
///   - Mode::kSampled (per-record sites): a top-level scope is timed once
///     every sample_stride entries, and its recorded cost carries
///     weight = sample_stride. Scopes nested under a timed scope are always
///     timed and inherit the root's weight, and a parent records only its
///     *self* time (elapsed minus children), so a trace decomposes exactly.
///   - Mode::kAlways (per-batch sites: queue waits, broker RTTs,
///     checkpoints): always timed at weight 1.
class ScopedStage {
 public:
  enum class Mode : std::uint8_t { kSampled, kAlways };

  explicit ScopedStage(Stage stage, Mode mode = Mode::kSampled,
                       std::uint32_t op = Profiler::kNoOperator) noexcept {
    // The disarmed fast path: one relaxed load, no clock, no TLS write.
    if (detail::g_profiler_armed.load(std::memory_order_relaxed)) {
      enter(stage, mode, op);
    }
  }
  ~ScopedStage() {
    if (active_) leave();
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  bool active() const noexcept { return active_; }

 private:
  void enter(Stage stage, Mode mode, std::uint32_t op) noexcept;
  void leave() noexcept;

  std::int64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  ScopedStage* parent_ = nullptr;
  std::uint32_t op_ = Profiler::kNoOperator;
  std::uint32_t weight_ = 1;
  Stage stage_ = Stage::kOther;
  bool active_ = false;
};

}  // namespace dsps::runtime
