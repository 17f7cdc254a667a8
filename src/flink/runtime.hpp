// Flink-sim runtime: network channels between unchained vertices and
// per-subtask task threads.
//
// Mirrors §II-B: the client submits a JobGraph and every subtask runs as a
// thread; chained operator subtasks share a thread and call each other
// directly, unchained vertices exchange records over channels.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/queue.hpp"
#include "common/status.hpp"
#include "flink/graph.hpp"
#include "runtime/metrics.hpp"

namespace dsps::flink {

/// A record or end-of-stream marker travelling over a channel.
struct Envelope {
  Elem payload;
  bool eos = false;
};

/// Network channel between unchained subtasks. Channels with exactly one
/// writing subtask (e.g. FORWARD edges with matching parallelism) ride the
/// lock-free SPSC ring; fan-in channels fall back to the locked MPMC queue.
/// Both paths move whole envelope batches per hand-off.
class Channel {
 public:
  Channel(std::size_t capacity, bool single_producer) {
    if (single_producer) {
      spsc_ = std::make_unique<SpscRingQueue<Envelope>>(capacity);
    } else {
      mpmc_ = std::make_unique<BoundedQueue<Envelope>>(capacity);
    }
  }

  bool push(Envelope envelope) {
    const bool pushed = spsc_ ? spsc_->push(std::move(envelope))
                              : mpmc_->push(std::move(envelope));
    if (pushed) note_pushed(1);
    return pushed;
  }

  std::size_t push_batch(std::vector<Envelope>&& envelopes) {
    const std::size_t pushed =
        spsc_ ? spsc_->push_batch(std::move(envelopes))
              : mpmc_->push_batch(std::move(envelopes));
    note_pushed(pushed);
    return pushed;
  }

  std::optional<Envelope> pop() {
    auto envelope = spsc_ ? spsc_->pop() : mpmc_->pop();
    if (envelope.has_value()) depth_.fetch_sub(1, std::memory_order_relaxed);
    return envelope;
  }

  std::size_t pop_batch(std::vector<Envelope>& out, std::size_t max_items) {
    const std::size_t popped = spsc_ ? spsc_->pop_batch(out, max_items)
                                     : mpmc_->pop_batch(out, max_items);
    depth_.fetch_sub(popped, std::memory_order_relaxed);
    return popped;
  }

  void close() {
    if (spsc_) {
      spsc_->close();
    } else {
      mpmc_->close();
    }
  }

  bool single_producer() const noexcept { return spsc_ != nullptr; }

  /// Metrics identity (e.g. "v2.s0"), set once at wiring time.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const noexcept { return label_; }

  /// Approximate depth accounting (relaxed atomics — monitoring only, the
  /// exact handoff ordering is the queues' business).
  std::size_t depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }
  std::size_t peak_depth() const noexcept {
    return peak_depth_.load(std::memory_order_relaxed);
  }

 private:
  void note_pushed(std::size_t count) noexcept {
    if (count == 0) return;
    const std::size_t depth =
        depth_.fetch_add(count, std::memory_order_relaxed) + count;
    std::size_t peak = peak_depth_.load(std::memory_order_relaxed);
    while (depth > peak && !peak_depth_.compare_exchange_weak(
                               peak, depth, std::memory_order_relaxed)) {
    }
  }

  std::unique_ptr<SpscRingQueue<Envelope>> spsc_;
  std::unique_ptr<BoundedQueue<Envelope>> mpmc_;
  std::string label_;
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::size_t> peak_depth_{0};
};

/// Outcome of a finished job. Per-vertex record counters live in the
/// unified metrics snapshot as `vertex.<id>.records_in` / `.records_out`
/// (vertex ids index `vertex_names`); the convenience accessors below wrap
/// the lookup.
struct JobResult {
  double duration_ms = 0.0;
  /// Not ok when a task crashed mid-job (the runtime cancels the rest of
  /// the job instead of hanging it).
  Status job_status = Status::ok();
  std::vector<std::string> vertex_names;  // indexed by job vertex id
  runtime::MetricsSnapshot metrics;

  std::uint64_t records_in(int vertex) const {
    return metrics.counter("vertex." + std::to_string(vertex) + ".records_in");
  }
  std::uint64_t records_out(int vertex) const {
    return metrics.counter("vertex." + std::to_string(vertex) +
                           ".records_out");
  }
};

/// Executes a bounded job to completion. Returns metrics, or the failure of
/// a task that crashed.
Result<JobResult> execute_job(const StreamGraph& graph,
                              const JobGraph& job_graph);

/// Running job handle for unbounded sources.
class JobHandle {
 public:
  JobHandle() = default;
  ~JobHandle();

  JobHandle(const JobHandle&) = delete;
  JobHandle& operator=(const JobHandle&) = delete;

  /// Requests source cancellation; sources observe SourceContext::cancelled.
  void cancel();

  /// Blocks until all tasks finished; returns metrics.
  JobResult wait();

  /// Opaque runtime state; public so the launcher in runtime.cpp can attach
  /// it, but not part of the supported API surface.
  struct State;

 private:
  friend std::unique_ptr<JobHandle> execute_job_async(const StreamGraph&,
                                                      const JobGraph&);

  std::shared_ptr<State> state_;
};

std::unique_ptr<JobHandle> execute_job_async(const StreamGraph& graph,
                                             const JobGraph& job_graph);

}  // namespace dsps::flink
