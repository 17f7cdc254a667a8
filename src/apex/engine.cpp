#include "apex/engine.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "common/clock.hpp"
#include "common/queue.hpp"
#include "runtime/credit_gate.hpp"
#include "runtime/fault.hpp"
#include "runtime/invoker.hpp"
#include "runtime/task_runtime.hpp"

namespace dsps::apex {

namespace {

// --- physical plan ---------------------------------------------------------

struct Instance {
  int id = 0;
  int node = 0;
  int partition = 0;
  int group = -1;
};

struct PhysicalPlan {
  std::vector<Instance> instances;
  std::vector<std::vector<int>> groups;      // group -> instance ids (topo)
  std::vector<int> group_container;          // group -> container group id
  int container_count = 0;
  std::vector<bool> group_is_input;          // group hosts an input operator
  // instance lookup: (node, partition) -> instance id
  std::map<std::pair<int, int>, int> by_node_partition;
};

/// Union-find.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      x = parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
    }
    return x;
  }
  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

 private:
  std::vector<int> parent_;
};

PhysicalPlan build_physical_plan(const Dag& dag) {
  PhysicalPlan plan;
  for (const auto& node : dag.nodes()) {
    for (int p = 0; p < node.partitions; ++p) {
      const int id = static_cast<int>(plan.instances.size());
      plan.instances.push_back(
          Instance{.id = id, .node = node.id, .partition = p});
      plan.by_node_partition[{node.id, p}] = id;
    }
  }

  // Thread groups: THREAD_LOCAL streams fuse instance i <-> instance i.
  DisjointSet thread_sets(plan.instances.size());
  for (const auto& stream : dag.streams()) {
    if (stream.locality != Locality::kThreadLocal) continue;
    const auto& from = dag.nodes()[static_cast<std::size_t>(stream.from.node)];
    for (int p = 0; p < from.partitions; ++p) {
      thread_sets.unite(plan.by_node_partition.at({stream.from.node, p}),
                        plan.by_node_partition.at({stream.to.node, p}));
    }
  }
  std::map<int, int> root_to_group;
  for (auto& instance : plan.instances) {
    const int root = thread_sets.find(instance.id);
    auto [it, inserted] =
        root_to_group.emplace(root, static_cast<int>(plan.groups.size()));
    if (inserted) plan.groups.emplace_back();
    instance.group = it->second;
    plan.groups[static_cast<std::size_t>(it->second)].push_back(instance.id);
  }
  // Instances were created in node order, which is topological for the
  // builder API, so each group's instance list is already topo-ordered.

  plan.group_is_input.assign(plan.groups.size(), false);
  for (const auto& instance : plan.instances) {
    if (dag.nodes()[static_cast<std::size_t>(instance.node)].is_input) {
      plan.group_is_input[static_cast<std::size_t>(instance.group)] = true;
    }
  }

  // Container groups: CONTAINER_LOCAL streams co-locate thread groups.
  DisjointSet container_sets(plan.groups.size());
  for (const auto& stream : dag.streams()) {
    if (stream.locality != Locality::kContainerLocal) continue;
    const auto& from = dag.nodes()[static_cast<std::size_t>(stream.from.node)];
    const auto& to = dag.nodes()[static_cast<std::size_t>(stream.to.node)];
    for (int pf = 0; pf < from.partitions; ++pf) {
      const int gi =
          plan.instances[static_cast<std::size_t>(
                             plan.by_node_partition.at({stream.from.node, pf}))]
              .group;
      for (int pt = 0; pt < to.partitions; ++pt) {
        const int gj = plan.instances[static_cast<std::size_t>(
                                          plan.by_node_partition.at(
                                              {stream.to.node, pt}))]
                           .group;
        container_sets.unite(gi, gj);
      }
    }
  }
  std::map<int, int> container_ids;
  plan.group_container.assign(plan.groups.size(), 0);
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const int root = container_sets.find(static_cast<int>(g));
    auto [it, inserted] =
        container_ids.emplace(root, plan.container_count);
    if (inserted) ++plan.container_count;
    plan.group_container[g] = it->second;
  }
  return plan;
}

// --- runtime ---------------------------------------------------------------

struct Mail {
  enum class Kind : std::uint8_t {
    kData,
    kBeginWindow,
    kEndWindow,
    kEndStream
  };
  Kind kind = Kind::kData;
  int target_instance = -1;  // data only
  int target_port = 0;       // data only
  WindowId window = 0;
  Tuple tuple;               // same-container data
  /// Cross-container data (serialized): a refcounted slice of the
  /// producer-side encode arena, so a mail batch shares one slab.
  runtime::Payload bytes;
  bool serialized = false;
  int codec_index = -1;      // which stream codec deserializes `bytes`
};

/// Serde accounting into the global registry under runtime.serde.*: one
/// record and its wire bytes per encode or decode. Serde time is priced as
/// count x unit-cost probe, so the hot path reads no clock.
struct SerdeMeter {
  explicit SerdeMeter(const std::string& op)
      : records(runtime::MetricsRegistry::global().counter(
            "runtime.serde." + op + ".records")),
        bytes(runtime::MetricsRegistry::global().counter(
            "runtime.serde." + op + ".bytes")) {}

  void count(std::size_t wire_bytes) {
    records.add();
    bytes.add(wire_bytes);
  }

  runtime::Counter records;
  runtime::Counter bytes;
};

using Mailbox = BoundedQueue<Mail>;

/// Marker fan-out: one entry per (outbound stream, consumer group).
struct MarkerTarget {
  Mailbox* mailbox = nullptr;
};

/// Producer-side staging for one (stream, producer partition) binding:
/// tuples accumulate per target mailbox and ship as one `push_batch` per
/// `kMailBatch` mails. Owned and flushed by the producer's group thread, so
/// no synchronization is needed on the pending vectors. Markers are only
/// sent after a flush, preserving the data-before-end-window ordering the
/// marker protocol depends on.
struct OutputBatcher {
  static constexpr std::size_t kMailBatch = 64;

  struct Target {
    Mailbox* mailbox = nullptr;
    std::vector<Mail> pending;
    // Backpressure source, bound lazily on first flush while the gate is
    // armed: mailbox fill feeds the end-to-end credit signal.
    runtime::CreditGate::Source gate;
    bool gate_bound = false;
  };
  std::vector<Target> targets;

  void stage(std::size_t pick, Mail mail) {
    Target& target = targets[pick];
    target.pending.push_back(std::move(mail));
    if (target.pending.size() >= kMailBatch) flush_target(target);
  }

  void flush() {
    for (Target& target : targets) flush_target(target);
  }

  static void flush_target(Target& target) {
    if (target.pending.empty()) return;
    // A full mailbox blocks here: backpressure wait, not operator work.
    runtime::ScopedStage wait(runtime::Stage::kQueueWait);
    const std::size_t staged = target.pending.size();
    const std::size_t pushed =
        target.mailbox->push_batch(std::move(target.pending));
    if (pushed < staged) {
      // A short push_batch means the abort path closed the mailbox; the job
      // is already failing, but count the dropped tail so it's attributable.
      runtime::MetricsRegistry::global()
          .counter("apex.mailbox.closed_drops")
          .add(static_cast<std::uint64_t>(staged - pushed));
    }
    if (runtime::CreditGate::instance().armed()) {
      if (!target.gate_bound) {
        target.gate =
            runtime::CreditGate::instance().register_source("apex.mailbox");
        target.gate_bound = true;
      }
      target.gate.set_depth(target.mailbox->size(),
                            target.mailbox->capacity());
    }
    target.pending.clear();
    target.pending.reserve(kMailBatch);
  }
};

struct GroupRuntime {
  int id = 0;
  bool is_input = false;
  std::vector<Operator*> operators;        // topo order
  std::vector<OperatorContext> contexts;   // parallel to operators
  InputOperator* input = nullptr;          // when is_input
  std::shared_ptr<Mailbox> mailbox;        // inbound (null for pure input)
  std::vector<MarkerTarget> marker_targets;
  std::vector<OutputBatcher*> batchers;  // outbound staging, flushed pre-marker
  int expected_marker_producers = 0;  // (inbound stream, producer group) pairs
};

}  // namespace

Result<std::string> render_physical_plan(const Dag& dag) {
  if (Status s = dag.validate(); !s.is_ok()) return s;
  const PhysicalPlan plan = build_physical_plan(dag);
  std::string out;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    out += "Container " + std::to_string(plan.group_container[g]) +
           " / Thread Group " + std::to_string(g) + ":\n";
    for (const int instance_id : plan.groups[g]) {
      const auto& instance =
          plan.instances[static_cast<std::size_t>(instance_id)];
      const auto& node = dag.nodes()[static_cast<std::size_t>(instance.node)];
      out += "    " + node.name + "[" + std::to_string(instance.partition) +
             "]" + (node.is_input ? " (input)" : "") + "\n";
    }
  }
  for (const auto& stream : dag.streams()) {
    const char* locality =
        stream.locality == Locality::kThreadLocal      ? "THREAD_LOCAL"
        : stream.locality == Locality::kContainerLocal ? "CONTAINER_LOCAL"
                                                        : "NODE_LOCAL";
    out += "Stream " + stream.name + ": " +
           dag.nodes()[static_cast<std::size_t>(stream.from.node)].name +
           " -> " +
           dag.nodes()[static_cast<std::size_t>(stream.to.node)].name + " [" +
           locality + "]\n";
  }
  return out;
}

namespace {

/// One YARN application attempt: fresh operator instances, mailboxes and
/// per-attempt metrics — exactly what a STRAM relaunch redeploys.
Result<runtime::MetricsSnapshot> run_application_attempt(
    yarn::ResourceManager& rm, const Dag& dag, const EngineConfig& config,
    const PhysicalPlan& plan) {
  // Instantiate operators.
  std::vector<std::unique_ptr<Operator>> operators;
  operators.reserve(plan.instances.size());
  for (const auto& instance : plan.instances) {
    const auto& node = dag.nodes()[static_cast<std::size_t>(instance.node)];
    operators.push_back(node.factory());
  }

  // Per-node delivery counters in the unified registry. Counter handles are
  // sharded internally, so every group thread adds without contention.
  runtime::MetricsRegistry registry;
  std::vector<runtime::Counter> tuples_in;
  for (const auto& node : dag.nodes()) {
    tuples_in.push_back(
        registry.counter("operator." + node.name + ".tuples_in"));
  }
  runtime::Counter windows_emitted = registry.counter("windows.emitted");

  // Group runtimes.
  std::vector<GroupRuntime> groups(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    groups[g].id = static_cast<int>(g);
    groups[g].is_input = plan.group_is_input[g];
    for (const int instance_id : plan.groups[g]) {
      const auto& instance =
          plan.instances[static_cast<std::size_t>(instance_id)];
      const auto& node = dag.nodes()[static_cast<std::size_t>(instance.node)];
      Operator* op = operators[static_cast<std::size_t>(instance_id)].get();
      groups[g].operators.push_back(op);
      groups[g].contexts.push_back(
          OperatorContext{.name = node.name,
                          .partition_index = instance.partition,
                          .partition_count = node.partitions});
      if (node.is_input) {
        groups[g].input = dynamic_cast<InputOperator*>(op);
        if (groups[g].input == nullptr) {
          return Status::invalid_argument(
              "node " + node.name +
              " is marked input but is not an InputOperator");
        }
      }
    }
  }

  // Mailboxes for groups with inbound cross-thread streams. The expected
  // marker count per consumer group is the number of distinct
  // (inbound stream, producer group) pairs feeding it.
  std::map<int, std::set<std::pair<int, int>>> consumer_marker_sources;
  for (std::size_t s = 0; s < dag.streams().size(); ++s) {
    const auto& stream = dag.streams()[s];
    if (stream.locality == Locality::kThreadLocal) continue;
    const auto& from = dag.nodes()[static_cast<std::size_t>(stream.from.node)];
    const auto& to = dag.nodes()[static_cast<std::size_t>(stream.to.node)];
    for (int pt = 0; pt < to.partitions; ++pt) {
      const int consumer_group =
          plan.instances[static_cast<std::size_t>(
                             plan.by_node_partition.at({stream.to.node, pt}))]
              .group;
      auto& group = groups[static_cast<std::size_t>(consumer_group)];
      if (!group.mailbox) {
        group.mailbox = std::make_shared<Mailbox>(config.mailbox_capacity);
      }
      for (int pf = 0; pf < from.partitions; ++pf) {
        const int producer_group =
            plan.instances[static_cast<std::size_t>(plan.by_node_partition.at(
                               {stream.from.node, pf}))]
                .group;
        consumer_marker_sources[consumer_group].insert(
            {static_cast<int>(s), producer_group});
      }
    }
  }
  for (auto& [consumer_group, sources] : consumer_marker_sources) {
    groups[static_cast<std::size_t>(consumer_group)]
        .expected_marker_producers = static_cast<int>(sources.size());
  }

  // Codecs, one per NODE_LOCAL stream (shared by producer & consumer side).
  std::vector<std::unique_ptr<StreamCodec>> codecs(dag.streams().size());
  for (std::size_t s = 0; s < dag.streams().size(); ++s) {
    if (dag.streams()[s].locality == Locality::kNodeLocal) {
      codecs[s] = dag.streams()[s].codec();
    }
  }

  // Bind output ports.
  struct RouterState {
    std::size_t round_robin = 0;
  };
  std::vector<std::unique_ptr<RouterState>> routers;
  std::vector<std::unique_ptr<OutputBatcher>> batchers;
  for (std::size_t s = 0; s < dag.streams().size(); ++s) {
    const auto& stream = dag.streams()[s];
    const auto& from = dag.nodes()[static_cast<std::size_t>(stream.from.node)];
    const auto& to = dag.nodes()[static_cast<std::size_t>(stream.to.node)];
    for (int pf = 0; pf < from.partitions; ++pf) {
      const int producer_instance =
          plan.by_node_partition.at({stream.from.node, pf});
      Operator* producer =
          operators[static_cast<std::size_t>(producer_instance)].get();
      runtime::Counter counter = tuples_in[static_cast<std::size_t>(to.id)];

      if (stream.locality == Locality::kThreadLocal) {
        const int consumer_instance =
            plan.by_node_partition.at({stream.to.node, pf});
        Operator* consumer =
            operators[static_cast<std::size_t>(consumer_instance)].get();
        const int port = stream.to.port;
        producer->bind_output(stream.from.port,
                              [consumer, port, counter](Tuple tuple) mutable {
                                counter.add();
                                consumer->deliver(port, std::move(tuple));
                              });
        continue;
      }

      // Cross-thread: route to a consumer instance's group mailbox. Data
      // mails are staged per target and shipped in batches; the producer's
      // group flushes every batcher before it sends any marker.
      routers.push_back(std::make_unique<RouterState>());
      RouterState* router = routers.back().get();
      batchers.push_back(std::make_unique<OutputBatcher>());
      OutputBatcher* batcher = batchers.back().get();
      std::vector<int> target_instances;
      for (int pt = 0; pt < to.partitions; ++pt) {
        const int consumer_instance =
            plan.by_node_partition.at({stream.to.node, pt});
        const int consumer_group =
            plan.instances[static_cast<std::size_t>(consumer_instance)].group;
        target_instances.push_back(consumer_instance);
        batcher->targets.push_back(OutputBatcher::Target{
            groups[static_cast<std::size_t>(consumer_group)].mailbox.get(),
            {}});
      }
      const int producer_group =
          plan.instances[static_cast<std::size_t>(producer_instance)].group;
      groups[static_cast<std::size_t>(producer_group)].batchers.push_back(
          batcher);
      const bool pairwise = from.partitions == to.partitions;
      const bool serialize = stream.locality == Locality::kNodeLocal;
      StreamCodec* codec = codecs[s].get();
      const int port = stream.to.port;
      const int codec_index = static_cast<int>(s);
      // Encode arena per binding: the lambda runs only on the producer's
      // group thread (single writer), and a whole mail batch packs into the
      // arena's current chunk instead of one heap buffer per element.
      auto arena = serialize ? std::make_shared<runtime::PayloadArena>()
                             : nullptr;
      producer->bind_output(
          stream.from.port,
          [target_instances, router, batcher, pairwise, serialize, codec,
           port, pf, counter, codec_index, arena,
           meter = serialize ? std::make_shared<SerdeMeter>("encode")
                             : nullptr](Tuple tuple) mutable {
            const std::size_t pick =
                pairwise ? static_cast<std::size_t>(pf)
                         : router->round_robin++ % target_instances.size();
            counter.add();
            Mail mail;
            mail.kind = Mail::Kind::kData;
            mail.target_instance = target_instances[pick];
            mail.target_port = port;
            if (serialize) {
              mail.bytes = codec->serialize(tuple, *arena);
              meter->count(mail.bytes.size());
              mail.serialized = true;
              mail.codec_index = codec_index;
            } else {
              mail.tuple = std::move(tuple);
            }
            batcher->stage(pick, std::move(mail));
          });
    }
  }

  // Marker fan-out per group: one target per (outbound stream, consumer grp).
  for (std::size_t s = 0; s < dag.streams().size(); ++s) {
    const auto& stream = dag.streams()[s];
    if (stream.locality == Locality::kThreadLocal) continue;
    const auto& from = dag.nodes()[static_cast<std::size_t>(stream.from.node)];
    const auto& to = dag.nodes()[static_cast<std::size_t>(stream.to.node)];
    for (int pf = 0; pf < from.partitions; ++pf) {
      const int producer_group =
          plan.instances[static_cast<std::size_t>(
                             plan.by_node_partition.at({stream.from.node, pf}))]
              .group;
      std::set<Mailbox*> seen;
      for (int pt = 0; pt < to.partitions; ++pt) {
        const int consumer_group =
            plan.instances[static_cast<std::size_t>(plan.by_node_partition.at(
                               {stream.to.node, pt}))]
                .group;
        Mailbox* mailbox =
            groups[static_cast<std::size_t>(consumer_group)].mailbox.get();
        if (seen.insert(mailbox).second) {
          groups[static_cast<std::size_t>(producer_group)]
              .marker_targets.push_back(MarkerTarget{mailbox});
        }
      }
    }
  }

  // Instance lookup for mail dispatch.
  std::map<int, std::pair<Operator*, int>> instance_ops;  // id -> (op, group)
  for (const auto& instance : plan.instances) {
    instance_ops[instance.id] = {
        operators[static_cast<std::size_t>(instance.id)].get(),
        instance.group};
  }

  // --- group thread bodies --------------------------------------------------
  // Supervised lifecycle: every group thread runs under the application's
  // TaskRuntime. A throwing operator fails the app — the handler trips the
  // abort flag (stops input loops) and closes every mailbox (unwedges
  // blocked producers and consumers) — and join_all() surfaces the Status.
  // Committed-window tracking (STRAM's CheckpointListener protocol): every
  // group publishes the newest window it has fully closed; the input group
  // fires committed(min over all groups), so offsets become durable only
  // once every deployed group has processed the window that produced them.
  std::vector<std::atomic<WindowId>> completed_windows(groups.size());
  for (auto& window : completed_windows) {
    window.store(-1, std::memory_order_relaxed);
  }
  auto min_completed_window = [&completed_windows]() -> WindowId {
    WindowId min_window = std::numeric_limits<WindowId>::max();
    for (const auto& window : completed_windows) {
      min_window = std::min(min_window, window.load(std::memory_order_acquire));
    }
    return min_window;
  };

  runtime::TaskRuntime tasks("apex-app");
  std::atomic<bool> aborted{false};
  tasks.set_failure_handler([&groups, &aborted](const Status& /*failure*/) {
    aborted.store(true, std::memory_order_release);
    for (auto& group : groups) {
      if (group.mailbox) group.mailbox->close();
    }
  });

  auto send_markers = [](GroupRuntime& group, Mail::Kind kind,
                         WindowId window) {
    // Marker fan-out can block on full consumer mailboxes: backpressure
    // time, attributed to the queue_wait stage.
    runtime::ScopedStage stage(runtime::Stage::kQueueWait);
    // Ship staged data first so every consumer sees a window's tuples
    // before that window's end marker.
    for (OutputBatcher* batcher : group.batchers) batcher->flush();
    for (const auto& target : group.marker_targets) {
      Mail mail;
      mail.kind = kind;
      mail.window = window;
      // push() fails only when the abort path closed the mailboxes; the
      // consumers are already unwinding and no marker can matter.
      if (!target.mailbox->push(std::move(mail))) return;
    }
  };

  auto group_body = [&](GroupRuntime& group) {
    for (std::size_t i = 0; i < group.operators.size(); ++i) {
      group.operators[i]->setup(group.contexts[i]);
    }
    if (group.is_input) {
      // The input group's unified path: per-window fault cadence on the
      // "apex.window" site, window bodies attributed as user_fn, and the
      // committed() fan-out (offset durability) as checkpoint time.
      runtime::OperatorInvoker invoker("apex.window");
      WindowId window = 0;
      bool more = true;
      while (more && !aborted.load(std::memory_order_acquire)) {
        invoker.maybe_fault();
        for (auto* op : group.operators) op->begin_window(window);
        send_markers(group, Mail::Kind::kBeginWindow, window);
        more = invoker.invoke_unfaulted([&] {
          return group.input->emit_tuples(config.window_tuple_budget);
        });
        invoker.invoke_unfaulted([&] {
          for (auto* op : group.operators) op->end_window();
        });
        send_markers(group, Mail::Kind::kEndWindow, window);
        completed_windows[static_cast<std::size_t>(group.id)].store(
            window, std::memory_order_release);
        if (const WindowId done = min_completed_window(); done >= 0) {
          invoker.checkpoint([&] {
            for (auto* op : group.operators) op->committed(done);
          });
        }
        windows_emitted.add();
        ++window;
      }
      for (auto* op : group.operators) op->end_stream();
      send_markers(group, Mail::Kind::kEndStream, window);
      for (auto* op : group.operators) op->teardown();
      // teardown() never throws; a failed resource close (e.g. a broker
      // outage that outlived the sink producer's retries) surfaces here as
      // a supervised app failure the caller can retry.
      for (auto* op : group.operators) op->close_status().expect_ok();
      invoker.close();
      return;
    }

    // Processing group: drive lifecycle from received markers. Mails are
    // drained in batches; each batch is processed strictly in arrival order
    // so the marker protocol is unchanged.
    // Processing groups run the same unified path under the "apex.mailbox"
    // site: the mailbox wait is queue_wait and each drained inbox (decodes,
    // deliver calls, markers) is one user_fn scope.
    runtime::OperatorInvoker invoker("apex.mailbox");
    SerdeMeter decode_meter("decode");
    int end_streams_seen = 0;
    int ends_seen = 0;
    bool in_window = false;
    WindowId current_window = 0;
    std::vector<Mail> inbox;
    inbox.reserve(OutputBatcher::kMailBatch * 2);
    while (end_streams_seen < group.expected_marker_producers) {
      inbox.clear();
      const std::size_t drained = invoker.queue_wait(
          [&] { return group.mailbox->pop_batch(inbox, inbox.capacity()); });
      if (drained == 0) break;
      invoker.maybe_fault();
      runtime::ScopedStage inbox_scope(runtime::Stage::kUserFn,
                                       invoker.operator_id());
      for (auto& mail : inbox) {
        switch (mail.kind) {
          case Mail::Kind::kData: {
            Operator* op = instance_ops.at(mail.target_instance).first;
            if (mail.serialized) {
              decode_meter.count(mail.bytes.size());
              op->deliver(mail.target_port,
                          codecs[static_cast<std::size_t>(mail.codec_index)]
                              ->deserialize(mail.bytes));
            } else {
              op->deliver(mail.target_port, std::move(mail.tuple));
            }
            break;
          }
          case Mail::Kind::kBeginWindow:
            if (!in_window) {
              current_window = mail.window;
              for (auto* op : group.operators) {
                op->begin_window(current_window);
              }
              send_markers(group, Mail::Kind::kBeginWindow, current_window);
              in_window = true;
            }
            break;
          case Mail::Kind::kEndWindow:
            if (++ends_seen >= group.expected_marker_producers) {
              ends_seen = 0;
              if (in_window) {
                for (auto* op : group.operators) op->end_window();
                send_markers(group, Mail::Kind::kEndWindow, current_window);
                in_window = false;
                completed_windows[static_cast<std::size_t>(group.id)].store(
                    current_window, std::memory_order_release);
              }
            }
            break;
          case Mail::Kind::kEndStream:
            ++end_streams_seen;
            break;
        }
      }
    }
    if (in_window) {
      for (auto* op : group.operators) op->end_window();
      send_markers(group, Mail::Kind::kEndWindow, current_window);
      completed_windows[static_cast<std::size_t>(group.id)].store(
          current_window, std::memory_order_release);
    }
    for (auto* op : group.operators) op->end_stream();
    send_markers(group, Mail::Kind::kEndStream, current_window);
    for (auto* op : group.operators) op->teardown();
    // Same contract as the input path: closes report their Status after the
    // whole group tore down, instead of throwing mid-teardown.
    for (auto* op : group.operators) op->close_status().expect_ok();
    invoker.close();
  };

  // --- deployment through YARN ----------------------------------------------
  // Group indices per container.
  std::vector<std::vector<int>> container_groups(
      static_cast<std::size_t>(plan.container_count));
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    container_groups[static_cast<std::size_t>(plan.group_container[g])]
        .push_back(static_cast<int>(g));
  }

  Stopwatch watch;
  Status failure = Status::ok();
  auto app_id = rm.submit_application(
      "apex-app", yarn::Resource{1, 256},
      [&](yarn::AppMasterContext& am) {
        // STRAM: allocate one container per container group, launch group
        // threads inside, await, release.
        std::vector<yarn::Container> yarn_containers;
        for (const auto& group_list : container_groups) {
          int instances = 0;
          for (const int g : group_list) {
            instances += static_cast<int>(
                plan.groups[static_cast<std::size_t>(g)].size());
          }
          auto container = am.allocate(yarn::Resource{
              config.vcores_per_instance * std::max(1, instances),
              config.memory_mb_per_instance * std::max(1, instances)});
          if (!container.is_ok()) {
            failure = container.status();
            break;
          }
          yarn_containers.push_back(container.value());
        }
        if (!failure.is_ok()) {
          for (const auto& container : yarn_containers) am.release(container);
          return;
        }
        for (std::size_t c = 0; c < yarn_containers.size(); ++c) {
          const auto& group_list = container_groups[c];
          // The container body spawns its thread groups under the app's
          // TaskRuntime (named, failure-supervised) and waits for them, so
          // am.await() below retains its "container work done" meaning.
          Status launched = am.launch(yarn_containers[c], [&, group_list] {
            std::vector<runtime::TaskRuntime::TaskId> ids;
            ids.reserve(group_list.size());
            for (const int g : group_list) {
              ids.push_back(tasks.spawn(
                  "apx-g" + std::to_string(g),
                  [&, g] { group_body(groups[static_cast<std::size_t>(g)]); }));
            }
            for (const auto id : ids) tasks.wait(id);
          });
          if (!launched.is_ok()) failure = launched;
        }
        for (const auto& container : yarn_containers) {
          am.await(container);
          am.release(container);
        }
      });
  // Tuples the failed attempt had already delivered downstream; the next
  // attempt re-reads everything past the last committed offsets, so this
  // upper-bounds the replay.
  auto note_replayed = [&registry] {
    std::uint64_t replayed = 0;
    for (const auto& [name, value] :
         registry.snapshot().counters_with_prefix("operator.")) {
      (void)name;
      replayed += value;
    }
    runtime::MetricsRegistry::global()
        .counter("apex.recovery.replayed_records")
        .add(replayed);
  };

  if (!app_id.is_ok()) return app_id.status();
  rm.await_application(app_id.value());
  if (Status joined = tasks.join_all(); !joined.is_ok()) {
    note_replayed();
    return joined;
  }
  if (!failure.is_ok()) {
    note_replayed();
    return failure;
  }

  // Clean completion: every group closed the final window, so its offsets
  // are safe to make durable. (Mid-run committed() calls stop at the min
  // completed window; this closes the tail.)
  if (const WindowId done = min_completed_window(); done >= 0) {
    for (auto& group : groups) {
      if (!group.is_input) continue;
      for (auto* op : group.operators) op->committed(done);
    }
  }

  registry.gauge("app.duration_ms").set(watch.elapsed_ms());
  registry.gauge("app.containers").set(plan.container_count);
  registry.gauge("app.thread_groups")
      .set(static_cast<double>(plan.groups.size()));
  runtime::MetricsSnapshot snapshot = registry.snapshot();
  runtime::MetricsRegistry::global().merge(snapshot, "apex.");
  return snapshot;
}

}  // namespace

Result<runtime::MetricsSnapshot> launch_application(yarn::ResourceManager& rm,
                                                    const Dag& dag,
                                                    const EngineConfig& config) {
  if (Status s = dag.validate(); !s.is_ok()) return s;
  const PhysicalPlan plan = build_physical_plan(dag);

  const runtime::RestartPolicy policy{
      .max_attempts = std::max(1, config.max_attempts),
      .backoff = config.restart_backoff};
  Result<runtime::MetricsSnapshot> outcome =
      Status::internal("application never ran");
  Stopwatch recovery_watch;
  bool restarted = false;
  const Status final_status = runtime::run_supervised(
      policy,
      [&](int /*attempt*/) -> Status {
        auto result = run_application_attempt(rm, dag, config, plan);
        if (!result.is_ok()) return result.status();
        outcome = std::move(result);
        return Status::ok();
      },
      [&](int /*attempt*/, const Status& /*error*/) {
        restarted = true;
        runtime::MetricsRegistry::global()
            .counter("apex.recovery.restarts")
            .add(1);
      });
  if (!final_status.is_ok()) return final_status;
  if (restarted) {
    runtime::MetricsRegistry::global()
        .gauge("apex.recovery.time_ms")
        .set(recovery_watch.elapsed_ms());
  }
  return outcome;
}

}  // namespace dsps::apex
