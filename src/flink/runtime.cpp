#include "flink/runtime.hpp"

#include <algorithm>
#include <utility>

#include "common/clock.hpp"
#include "runtime/invoker.hpp"
#include "runtime/task_runtime.hpp"

namespace dsps::flink {

namespace {

/// Routes records of one out-edge to the consumer subtask channels.
///
/// Records are staged in per-channel buffers and shipped with one
/// `push_batch` per `kBatchSize` records, so a channel hand-off costs one
/// lock acquisition (or one atomic publish on the SPSC path) per batch
/// instead of per record. A stage also flushes once its oldest record has
/// been buffered for `kFlushTimeoutUs` (Flink's execution.buffer-timeout):
/// without it, a low-volume edge — e.g. Grep's ~0.3% matches — would hold
/// every record until end-of-stream and collapse the output's append-time
/// span, which is the measured execution time. `send_eos` flushes the stage
/// first, so ordering within a channel is preserved.
///
/// emit() tests the timeout by the BatchDeadline stride rule rather than
/// reading the clock per record:
///  * a stage of fewer than 16 records when its timeout passes ships at the
///    first emit() to that channel after the timeout;
///  * a stage that reached 16 records before its timeout passed ships at
///    most 15 records after it (at 500 us, only at >= 32k records/s).
/// Shipping at `kBatchSize`, `flush_all()` and the pre-EOS flush do not
/// depend on it.
class Router {
 public:
  static constexpr std::size_t kBatchSize = 128;
  static constexpr std::int64_t kFlushTimeoutUs = 500;

  Router(PartitionMode mode, KeyFn key_fn,
         std::vector<std::shared_ptr<Channel>> channels, int producer_subtask)
      : mode_(mode),
        key_fn_(std::move(key_fn)),
        channels_(std::move(channels)),
        pending_(this->channels_.size()),
        staged_at_(this->channels_.size()),
        producer_subtask_(producer_subtask) {}

  void emit(Elem element) {
    std::size_t index = 0;
    switch (mode_) {
      case PartitionMode::kForward:
        index = static_cast<std::size_t>(producer_subtask_) % channels_.size();
        break;
      case PartitionMode::kRebalance:
        index = next_++ % channels_.size();
        break;
      case PartitionMode::kHash:
        index = key_fn_(element) % channels_.size();
        break;
    }
    auto& stage = pending_[index];
    if (stage.empty()) staged_at_[index].start();
    stage.push_back(Envelope{std::move(element), false});
    if (stage.size() >= kBatchSize ||
        staged_at_[index].expired(stage.size(), kFlushTimeoutUs)) {
      flush_channel(index);
    }
  }

  void send_eos() {
    // Flush *every* staging buffer before any EOS goes out: a partial batch
    // stranded at shutdown would truncate the output's append-time span,
    // which is the measured execution time. Forward routers only ever stage
    // to their own index, but flush_all() keeps the invariant structural
    // rather than per-mode.
    flush_all();
    if (mode_ == PartitionMode::kForward) {
      const std::size_t index =
          static_cast<std::size_t>(producer_subtask_) % channels_.size();
      (void)channels_[index]->push(Envelope{{}, true});
      return;
    }
    for (auto& channel : channels_) {
      // A closed channel (failed job) rejects the EOS; nothing to do.
      (void)channel->push(Envelope{{}, true});
    }
  }

  /// Ships every staged batch now (stop/drain path and pre-EOS barrier).
  void flush_all() {
    for (std::size_t i = 0; i < channels_.size(); ++i) flush_channel(i);
  }

 private:
  void flush_channel(std::size_t index) {
    auto& stage = pending_[index];
    if (stage.empty()) return;
    runtime::FaultInjector::instance().maybe_stall(
        runtime::FaultPoint::kQueueStall, "flink.channel");
    // A full channel blocks here: backpressure wait, not operator work.
    runtime::ScopedStage wait(runtime::Stage::kQueueWait);
    const std::size_t staged = stage.size();
    const std::size_t pushed = channels_[index]->push_batch(std::move(stage));
    if (pushed < staged) {
      // Short push: the channel closed mid-batch (job abort path). The tail
      // of the batch is gone by contract — count it so a lost record is
      // attributable rather than silent.
      runtime::MetricsRegistry::global()
          .counter("flink.channel.closed_drops")
          .add(static_cast<std::uint64_t>(staged - pushed));
    }
    stage.clear();
    stage.reserve(kBatchSize);
  }

  PartitionMode mode_;
  KeyFn key_fn_;
  std::vector<std::shared_ptr<Channel>> channels_;
  std::vector<std::vector<Envelope>> pending_;  // staged per channel
  std::vector<BatchDeadline> staged_at_;        // oldest staged, per channel
  int producer_subtask_;
  std::size_t next_ = 0;
};

/// Tail of a chain: counts records out and forwards to all out-routers.
/// Every router but the last gets a shared reference to the element; the
/// last one takes the chain's own, so a single out-edge hands its consumer
/// the box with no other holder.
class ChainTail final : public Collector {
 public:
  ChainTail(std::vector<std::unique_ptr<Router>>* routers,
            runtime::Counter records_out)
      : routers_(routers), records_out_(records_out) {}

  void collect(Elem element) override {
    records_out_.add(1);
    auto& routers = *routers_;
    if (routers.empty()) return;
    for (std::size_t i = 0; i + 1 < routers.size(); ++i) {
      routers[i]->emit(element);
    }
    routers.back()->emit(std::move(element));
  }

 private:
  std::vector<std::unique_ptr<Router>>* routers_;
  runtime::Counter records_out_;
};

/// Middle link: hands elements to the next operator in the chain. Its cost
/// is part of the task loop's per-batch user_fn scope.
class ChainLink final : public Collector {
 public:
  ChainLink(StreamOperator* op, Collector* next) : op_(op), next_(next) {}
  void collect(Elem element) override {
    op_->process(std::move(element), *next_);
  }

 private:
  StreamOperator* op_;
  Collector* next_;
};

/// One subtask: instantiated chain + IO wiring.
struct Task {
  int vertex_id = 0;
  int subtask = 0;
  std::string name;
  // Chain bodies (head first). Empty for a pure source vertex whose chain
  // is only the source function.
  std::vector<std::unique_ptr<StreamOperator>> operators;
  std::unique_ptr<SourceFunction> source;  // head of a source vertex
  std::shared_ptr<Channel> input;          // null for source vertices
  int eos_expected = 0;                    // producers feeding `input`
  std::vector<std::unique_ptr<Router>> routers;

  // Wired collectors, tail first; entry() is the chain entry point.
  std::vector<std::unique_ptr<Collector>> collectors;
  Collector* entry = nullptr;
};

class BoundedSourceContext final : public SourceContext {
 public:
  BoundedSourceContext(Collector& entry, std::atomic<bool>& cancelled,
                       runtime::Counter records_in)
      : entry_(entry), cancelled_(cancelled), records_in_(records_in) {}

  void collect(Elem element) override {
    records_in_.add(1);
    entry_.collect(std::move(element));
  }
  bool cancelled() const override {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  Collector& entry_;
  std::atomic<bool>& cancelled_;
  runtime::Counter records_in_;
};

std::string vertex_counter_name(int vertex, const char* suffix) {
  return "vertex." + std::to_string(vertex) + suffix;
}

}  // namespace

struct JobHandle::State {
  runtime::TaskRuntime tasks{"flink-job"};
  std::atomic<bool> cancelled{false};
  runtime::MetricsRegistry registry;
  std::vector<runtime::Counter> records_in;   // per vertex id
  std::vector<runtime::Counter> records_out;  // per vertex id
  std::vector<std::string> names;
  // Kept so the failure supervisor can close every channel: blocked
  // producers/consumers unwind instead of wedging the job.
  std::vector<std::shared_ptr<Channel>> channels;
  Stopwatch stopwatch;
  std::atomic<bool> joined{false};
  std::mutex join_mutex;
  JobResult result;

  void fail(const Status& status) {
    (void)status;
    cancelled.store(true);
    for (auto& channel : channels) channel->close();
  }

  JobResult join() {
    std::lock_guard lock(join_mutex);
    if (!joined.load()) {
      result.job_status = tasks.join_all();
      result.duration_ms = stopwatch.elapsed_ms();
      result.vertex_names = names;
      // Per-channel backpressure evidence: peak (and final) queue depth of
      // every input channel, labelled by consumer vertex and subtask.
      for (const auto& channel : channels) {
        registry.gauge("channel." + channel->label() + ".peak_depth")
            .set(static_cast<double>(channel->peak_depth()));
        registry.gauge("channel." + channel->label() + ".depth")
            .set(static_cast<double>(channel->depth()));
      }
      result.metrics = registry.snapshot();
      runtime::MetricsRegistry::global().merge(result.metrics, "flink.");
      joined.store(true);
    }
    return result;
  }
};

JobHandle::~JobHandle() {
  if (state_) {
    cancel();
    state_->join();
  }
}

void JobHandle::cancel() {
  if (state_) {
    state_->cancelled.store(true);
    state_->tasks.request_stop();
  }
}

JobResult JobHandle::wait() {
  require(state_ != nullptr, "JobHandle not attached to a job");
  return state_->join();
}

namespace {

/// Envelopes each channel buffers before its writer blocks.
constexpr std::size_t kChannelCapacity = 1024;

/// Spawns all task threads. Shared by the sync and async entry points.
std::shared_ptr<JobHandle::State> launch(const StreamGraph& graph,
                                         const JobGraph& job_graph) {
  // --- channel construction ------------------------------------------------
  // The per-channel producer count (== the EOS count) decides the queue
  // flavor, so it is computed before the channels are built: a channel with
  // exactly one writer takes the lock-free SPSC ring.
  std::map<int, int> eos_expected;  // per consumer vertex, per subtask count
  for (const auto& edge : job_graph.edges) {
    const auto& producer =
        job_graph.vertices[static_cast<std::size_t>(edge.from_vertex)];
    const auto& consumer =
        job_graph.vertices[static_cast<std::size_t>(edge.to_vertex)];
    // Each producer subtask sends exactly one EOS to every channel it feeds.
    // Forward: feeds exactly one channel. Other modes: feeds all channels.
    if (edge.mode == PartitionMode::kForward) {
      require(producer.parallelism == consumer.parallelism ||
                  consumer.parallelism == 1,
              "FORWARD edge requires matching parallelism");
      // With equal parallelism each channel is fed by exactly one producer
      // subtask; with a single consumer every producer subtask feeds it.
      eos_expected[edge.to_vertex] +=
          consumer.parallelism == producer.parallelism ? 1
                                                       : producer.parallelism;
    } else {
      eos_expected[edge.to_vertex] += producer.parallelism;
    }
  }
  // input_channels[vertex][subtask]
  std::map<int, std::vector<std::shared_ptr<Channel>>> input_channels;
  for (const auto& edge : job_graph.edges) {
    const auto& consumer =
        job_graph.vertices[static_cast<std::size_t>(edge.to_vertex)];
    auto& channels = input_channels[edge.to_vertex];
    if (channels.empty()) {
      const bool single_producer = eos_expected.at(edge.to_vertex) == 1;
      for (int s = 0; s < consumer.parallelism; ++s) {
        channels.push_back(std::make_shared<Channel>(kChannelCapacity,
                                                     single_producer));
        channels.back()->set_label("v" + std::to_string(edge.to_vertex) +
                                   ".s" + std::to_string(s));
      }
    }
  }

  auto state = std::make_shared<JobHandle::State>();
  for (const auto& vertex : job_graph.vertices) {
    state->records_in.push_back(
        state->registry.counter(vertex_counter_name(vertex.id, ".records_in")));
    state->records_out.push_back(state->registry.counter(
        vertex_counter_name(vertex.id, ".records_out")));
    state->names.push_back(vertex.display_name);
  }
  for (const auto& [vertex, channels] : input_channels) {
    (void)vertex;
    state->channels.insert(state->channels.end(), channels.begin(),
                           channels.end());
  }
  // A crashing task cancels the job: sources stop, channels close, every
  // other task unwinds, and join_all() surfaces the failure Status.
  state->tasks.set_failure_handler(
      [state_weak = std::weak_ptr<JobHandle::State>(state)](const Status& s) {
        if (auto state = state_weak.lock()) state->fail(s);
      });

  // --- task construction ---------------------------------------------------
  std::vector<std::unique_ptr<Task>> tasks;
  for (const auto& vertex : job_graph.vertices) {
    for (int subtask = 0; subtask < vertex.parallelism; ++subtask) {
      auto task = std::make_unique<Task>();
      task->vertex_id = vertex.id;
      task->subtask = subtask;
      task->name = vertex.display_name;

      const StreamNode& head = graph.node(vertex.chained_nodes.front());
      std::size_t first_operator = 0;
      if (head.kind == NodeKind::kSource) {
        task->source = head.make_source();
        first_operator = 1;
      }
      for (std::size_t i = first_operator; i < vertex.chained_nodes.size();
           ++i) {
        const StreamNode& node = graph.node(vertex.chained_nodes[i]);
        task->operators.push_back(node.make_operator());
      }

      // Output routers for every out-edge of this vertex.
      for (const auto& edge : job_graph.edges) {
        if (edge.from_vertex != vertex.id) continue;
        task->routers.push_back(std::make_unique<Router>(
            edge.mode, edge.key_fn, input_channels.at(edge.to_vertex),
            subtask));
      }

      // Wire collectors tail -> head.
      auto tail = std::make_unique<ChainTail>(
          &task->routers,
          state->records_out[static_cast<std::size_t>(vertex.id)]);
      Collector* next = tail.get();
      task->collectors.push_back(std::move(tail));
      for (std::size_t i = task->operators.size(); i-- > 0;) {
        auto link = std::make_unique<ChainLink>(task->operators[i].get(), next);
        next = link.get();
        task->collectors.push_back(std::move(link));
      }
      task->entry = next;

      if (const auto it = input_channels.find(vertex.id);
          it != input_channels.end()) {
        task->input = it->second[static_cast<std::size_t>(subtask)];
        task->eos_expected = eos_expected.at(vertex.id);
      }
      tasks.push_back(std::move(task));
    }
  }

  // --- thread launch -------------------------------------------------------
  std::map<int, int> vertex_parallelism;
  for (const auto& vertex : job_graph.vertices) {
    vertex_parallelism[vertex.id] = vertex.parallelism;
  }
  state->stopwatch.reset();
  for (auto& task_ptr : tasks) {
    const int parallelism = vertex_parallelism.at(task_ptr->vertex_id);
    const std::string thread_name =
        "fl-" + task_ptr->name.substr(0, 8) + "-" +
        std::to_string(task_ptr->subtask);
    state->tasks.spawn(thread_name, [task = std::shared_ptr<Task>(
                                         std::move(task_ptr)),
                                     state, parallelism]() mutable {
      const auto vertex = static_cast<std::size_t>(task->vertex_id);
      runtime::Counter records_in = state->records_in[vertex];
      RuntimeContext context{.subtask_index = task->subtask,
                             .parallelism = parallelism,
                             .task_name = task->name};
      for (auto& op : task->operators) op->open(context);

      auto close_chain = [&] {
        // Close operators head -> tail so flushed elements traverse the
        // remainder of the chain.
        for (std::size_t i = 0; i < task->operators.size(); ++i) {
          Collector* next = task->collectors.size() >= 2 + i
                                ? task->collectors[task->collectors.size() -
                                                   2 - i]
                                      .get()
                                : task->collectors.front().get();
          task->operators[i]->close(*next);
        }
        for (auto& router : task->routers) router->send_eos();
      };

      // The unified task-loop path: one invoker per subtask carries the
      // vertex's fault site (one probe per batch) and brackets the input
      // wait and each popped batch's trip through the chain.
      runtime::OperatorInvoker invoker(task->name);
      if (task->source != nullptr) {
        task->source->open(context);
        BoundedSourceContext source_context(*task->entry, state->cancelled,
                                            records_in);
        task->source->run(source_context);
        close_chain();
        invoker.close();
        return;
      }

      int eos_seen = 0;
      std::vector<Envelope> batch;
      batch.reserve(Router::kBatchSize);
      while (eos_seen < task->eos_expected) {
        batch.clear();
        invoker.maybe_fault();
        const std::size_t n = invoker.queue_wait(
            [&] { return task->input->pop_batch(batch, batch.capacity()); });
        if (n == 0) break;  // channel closed defensively
        runtime::ScopedStage batch_scope(runtime::Stage::kUserFn,
                                         invoker.operator_id());
        std::uint64_t data_records = 0;
        for (auto& envelope : batch) {
          if (envelope.eos) {
            ++eos_seen;
            continue;
          }
          ++data_records;
          task->entry->collect(std::move(envelope.payload));
        }
        if (data_records > 0) records_in.add(data_records);
      }
      close_chain();
      invoker.close();
    });
  }
  return state;
}

}  // namespace

Result<JobResult> execute_job(const StreamGraph& graph,
                              const JobGraph& job_graph) {
  JobResult result = launch(graph, job_graph)->join();
  if (!result.job_status.is_ok()) return result.job_status;
  return result;
}

std::unique_ptr<JobHandle> execute_job_async(const StreamGraph& graph,
                                             const JobGraph& job_graph) {
  auto handle = std::unique_ptr<JobHandle>(new JobHandle());
  handle->state_ = launch(graph, job_graph);
  return handle;
}

}  // namespace dsps::flink
