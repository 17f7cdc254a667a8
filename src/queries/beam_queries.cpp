// The single Beam implementation of each query, runnable on any runner —
// which is precisely the abstraction benefit the paper weighs against the
// measured performance penalty. Pipeline shape mirrors §III-C3:
//   KafkaIO.read -> withoutMetadata -> Values.create -> <query logic>
//   -> KafkaIO.write
#include "queries/query_factory.hpp"

#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/apex_runner.hpp"
#include "beam/runners/flink_runner.hpp"
#include "beam/runners/spark_runner.hpp"
#include "runtime/payload.hpp"

namespace dsps::queries {

namespace {

using runtime::Payload;

beam::PCollection<Payload> apply_query_logic(
    const beam::PCollection<Payload>& values, workload::QueryId query,
    const QueryContext& ctx) {
  using workload::QueryId;
  switch (query) {
    case QueryId::kIdentity:
      // Forwarding the payload is a refcount bump; the translated-operator
      // envelope and coder hops stay — that is the overhead under test.
      return values.apply(beam::MapElements<Payload, Payload>::via(
          [](const Payload& line) { return line; }, "Identity"));
    case QueryId::kSample:
      return values.apply(beam::Filter<Payload>::by(
          [seed = ctx.seed](const Payload& line) {
            return workload::sample_keep(line.view(), seed);
          },
          "Sample"));
    case QueryId::kProjection:
      return values.apply(beam::MapElements<Payload, Payload>::via(
          [](const Payload& line) {
            return workload::projection_payload(line);
          },
          "Projection"));
    case QueryId::kGrep:
      return values.apply(beam::Filter<Payload>::by(
          [](const Payload& line) {
            return workload::grep_matches(line.view());
          },
          "Grep"));
  }
  throw std::invalid_argument("unknown query");
}

void build_pipeline(beam::Pipeline& pipeline, workload::QueryId query,
                    const QueryContext& ctx) {
  // Open-loop runs read unbounded: the reader drains until the input topic
  // is sealed instead of stopping at the end offset seen at job start.
  auto records = pipeline.apply(beam::KafkaIO::read(
      *ctx.broker, beam::KafkaReadConfig{.topic = ctx.input_topic,
                                         .bounded = !ctx.open_loop}));
  auto kvs = records.apply(beam::KafkaIO::without_metadata());
  auto values = kvs.apply(beam::Values<Payload>::create<Payload>());
  auto output = apply_query_logic(values, query, ctx);
  // Scale-out: parallel writer instances spread keyless output round-robin
  // over the output topic's partitions instead of contending on one log.
  output.apply(beam::KafkaIO::write(
      *ctx.broker,
      beam::KafkaWriteConfig{.topic = ctx.output_topic,
                             .partition = ctx.parallelism > 1 ? -1 : 0}));
}

std::unique_ptr<beam::PipelineRunner> make_runner(Engine engine,
                                                  const QueryContext& ctx) {
  // The one portable knob: each runner translates the hint onto its
  // engine's native mechanism (job rerun / batch retry / app reattempt).
  beam::RestartHint restart;
  if (ctx.recovery.enabled) {
    restart.max_restarts = std::max(0, ctx.recovery.max_restarts);
    restart.backoff = recovery_backoff(ctx.recovery);
  }
  switch (engine) {
    case Engine::kFlink:
      return std::make_unique<beam::FlinkRunner>(
          beam::FlinkRunnerOptions{.parallelism = ctx.parallelism,
                                   .fuse_stages = ctx.fuse_stages,
                                   .restart = restart});
    case Engine::kSpark:
      return std::make_unique<beam::SparkRunner>(
          beam::SparkRunnerOptions{.parallelism = ctx.parallelism,
                                   .fuse_stages = ctx.fuse_stages,
                                   .restart = restart});
    case Engine::kApex:
      return std::make_unique<beam::ApexRunner>(
          beam::ApexRunnerOptions{.parallelism = ctx.parallelism,
                                  .restart = restart,
                                  .fuse_stages = ctx.fuse_stages});
  }
  throw std::invalid_argument("unknown engine");
}

}  // namespace

Status run_beam(Engine engine, workload::QueryId query,
                const QueryContext& ctx) {
  beam::Pipeline pipeline;
  build_pipeline(pipeline, query, ctx);
  auto runner = make_runner(engine, ctx);
  return pipeline.run(*runner).status();
}

Result<std::string> beam_plan(Engine engine, workload::QueryId query,
                              const QueryContext& ctx) {
  beam::Pipeline pipeline;
  build_pipeline(pipeline, query, ctx);
  switch (engine) {
    case Engine::kFlink:
      return beam::FlinkRunner(
                 beam::FlinkRunnerOptions{.parallelism = ctx.parallelism,
                                          .fuse_stages = ctx.fuse_stages})
          .translate_plan(pipeline);
    case Engine::kApex:
      return beam::ApexRunner(
                 beam::ApexRunnerOptions{.parallelism = ctx.parallelism,
                                         .fuse_stages = ctx.fuse_stages})
          .translate_plan(pipeline);
    case Engine::kSpark:
      return Status::unsupported(
          "the Spark runner has no static plan rendering");
  }
  return Status::internal("unknown engine");
}

}  // namespace dsps::queries
