// Native Spark-sim implementations: direct Kafka DStream -> query
// transformation -> Kafka output, processed in micro-batches.
#include "queries/query_factory.hpp"

#include "spark/kafka_io.hpp"
#include "spark/streaming_context.hpp"

namespace dsps::queries {

namespace {

using kafka::Payload;

spark::DStream<Payload> apply_query_transform(
    const spark::DStream<Payload>& lines, workload::QueryId query,
    const QueryContext& ctx) {
  using workload::QueryId;
  switch (query) {
    case QueryId::kIdentity:
      return lines;
    case QueryId::kSample:
      return lines.filter([seed = ctx.seed](const Payload& line) {
        return workload::sample_keep(line.view(), seed);
      });
    case QueryId::kProjection:
      // Slices the row in place — RDD rows share the broker's storage.
      return lines.map<Payload>([](const Payload& line) {
        return workload::projection_payload(line);
      });
    case QueryId::kGrep:
      return lines.filter([](const Payload& line) {
        return workload::grep_matches(line.view());
      });
  }
  throw std::invalid_argument("unknown query");
}

}  // namespace

Status run_native_spark(workload::QueryId query, const QueryContext& ctx) {
  spark::SparkConf conf;
  conf.default_parallelism = ctx.parallelism;
  spark::StreamingContext ssc(conf, /*batch_interval_ms=*/50);
  if (ctx.recovery.enabled) {
    // Spark's native mechanism: re-run the failed micro-batch against the
    // same claimed offset range (at-least-once).
    ssc.set_batch_retries(std::max(0, ctx.recovery.max_restarts),
                          recovery_backoff(ctx.recovery));
  }

  // Open-loop runs keep batching until the input topic is sealed; a
  // caught-up position between generator bursts must not end the run.
  auto lines = ssc.kafka_direct_stream(*ctx.broker, ctx.input_topic,
                                       /*until_sealed=*/ctx.open_loop);
  auto output = apply_query_transform(lines, query, ctx);
  // Scale-out: each write task targets its own output partition (split
  // index), instead of all executor cores funneling into partition 0.
  spark::write_to_kafka(
      output, *ctx.broker,
      spark::KafkaWriteConfig{.topic = ctx.output_topic,
                              .partition = ctx.parallelism > 1 ? -1 : 0});
  return ssc.run_bounded();
}

}  // namespace dsps::queries
