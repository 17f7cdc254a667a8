// Native Flink-sim implementations of the four StreamBench queries:
// Kafka source -> (query operator) -> Kafka sink, exactly the three-element
// plan of Fig. 12. Operator chaining stays enabled (the default), so the
// whole pipeline runs as one task per subtask.
#include "queries/query_factory.hpp"

#include <algorithm>
#include <memory>

#include "common/clock.hpp"
#include "flink/environment.hpp"
#include "flink/kafka_connectors.hpp"
#include "runtime/metrics.hpp"

namespace dsps::queries {

namespace {

using kafka::Payload;

flink::DataStream<Payload> apply_query_operator(
    const flink::DataStream<Payload>& lines, workload::QueryId query,
    const QueryContext& ctx) {
  using workload::QueryId;
  switch (query) {
    case QueryId::kIdentity:
      return lines;  // source feeds the sink directly
    case QueryId::kSample:
      return lines.filter(
          [seed = ctx.seed](const Payload& line) {
            return workload::sample_keep(line.view(), seed);
          },
          "Sample");
    case QueryId::kProjection:
      // Projection slices the payload in place — no bytes are copied on the
      // native path; only the sink's broker append materializes anything.
      return lines.map<Payload>(
          [](const Payload& line) {
            return workload::projection_payload(line);
          },
          "Projection");
    case QueryId::kGrep:
      return lines.filter(
          [](const Payload& line) {
            return workload::grep_matches(line.view());
          },
          "Filter");
  }
  throw std::invalid_argument("unknown query");
}

flink::StreamExecutionEnvironment build_environment(
    workload::QueryId query, const QueryContext& ctx,
    const std::shared_ptr<flink::CheckpointCoordinator>& checkpoint) {
  flink::StreamExecutionEnvironment env;
  env.set_parallelism(ctx.parallelism);
  flink::KafkaSourceConfig source_config{.topic = ctx.input_topic};
  // Open-loop runs poll until the input topic is sealed and drained instead
  // of snapshotting the end offset at job start.
  source_config.bounded = !ctx.open_loop;
  flink::KafkaSinkConfig sink_config{.topic = ctx.output_topic};
  // Scale-out: each parallel sink subtask writes its own output partition
  // (otherwise P subtasks serialize on a single partition-log mutex).
  if (ctx.parallelism > 1) sink_config.partition = -1;
  if (ctx.recovery.enabled) {
    // Barrier checkpointing in both modes — the sink's output is made
    // durable before the source commits the offsets that produced it.
    // `exactly_once` additionally buffers sink epochs, so a crash discards
    // uncommitted output instead of duplicating it on replay.
    source_config.group_id = "flink-source";
    source_config.checkpoint = checkpoint;
    sink_config.checkpoint = checkpoint;
    sink_config.transactional = ctx.recovery.exactly_once;
  }
  auto lines = env.add_source<Payload>(
      flink::kafka_source(*ctx.broker, source_config), "Custom Source");
  apply_query_operator(lines, query, ctx)
      .add_sink(flink::kafka_sink(*ctx.broker, sink_config), "Unnamed");
  return env;
}

}  // namespace

Status run_native_flink(workload::QueryId query, const QueryContext& ctx) {
  if (!ctx.recovery.enabled) {
    auto env = build_environment(query, ctx, nullptr);
    return env.execute(workload::query_info(query).name).status();
  }
  // Restart-from-last-checkpoint: each attempt rebuilds the job with a
  // fresh coordinator (sink callbacks must not dangle across attempts);
  // sources resume from the group's committed offsets.
  const runtime::RestartPolicy policy{
      .max_attempts = 1 + std::max(0, ctx.recovery.max_restarts),
      .backoff = recovery_backoff(ctx.recovery)};
  Stopwatch watch;
  bool restarted = false;
  const Status status = runtime::run_supervised(
      policy,
      [&](int /*attempt*/) -> Status {
        auto checkpoint = std::make_shared<flink::CheckpointCoordinator>();
        auto env = build_environment(query, ctx, checkpoint);
        return env.execute(workload::query_info(query).name).status();
      },
      [&](int /*attempt*/, const Status& /*error*/) {
        restarted = true;
        runtime::MetricsRegistry::global()
            .counter("flink.recovery.restarts")
            .add(1);
      });
  if (restarted) {
    runtime::MetricsRegistry::global()
        .gauge("flink.recovery.time_ms")
        .set(watch.elapsed_ms());
  }
  return status;
}

Result<std::string> native_flink_plan(workload::QueryId query,
                                      const QueryContext& ctx) {
  auto env = build_environment(query, ctx, nullptr);
  return env.execution_plan();
}

}  // namespace dsps::queries
