// Kafka output helper for DStreams: one producer per partition task,
// batching with the ProducerConfig defaults.
#pragma once

#include <memory>
#include <string>

#include "kafka/broker.hpp"
#include "kafka/producer.hpp"
#include "spark/streaming_context.hpp"

namespace dsps::spark {

struct KafkaWriteConfig {
  std::string topic;
  /// Output partition; -1 = auto (the task's split index modulo the topic's
  /// partition count), so parallel write tasks land on disjoint logs.
  int partition = 0;
};

/// Registers an output op writing every batch element to Kafka.
inline void write_to_kafka(const DStream<kafka::Payload>& stream,
                           kafka::Broker& broker,
                           const KafkaWriteConfig& config) {
  stream.foreach_rdd([&broker, config](SparkContext& sc,
                                       const RDDPtr<kafka::Payload>& rdd) {
    sc.run_job<kafka::Payload>(
        rdd,
        [&broker, config](int split, IterPtr<kafka::Payload> iter) {
          int partition = config.partition;
          if (partition < 0) {
            const auto count = broker.partition_count(config.topic);
            count.status().expect_ok();
            partition = split % count.value();
          }
          // Pulling the iterator drives the whole pipelined stage, so
          // records reach the broker while upstream work is happening.
          kafka::Producer producer(broker, kafka::ProducerConfig{});
          while (auto value = iter->next()) {
            producer
                .send(config.topic, partition,
                      kafka::ProducerRecord{.key = {},
                                            .value = std::move(*value)})
                .expect_ok();
          }
          // Flushes before the batch commits, so the batch is durable by
          // then (Spark's output-op contract). A close failure (broker outage
          // beyond the producer's retries) throws here, which Spark's
          // per-batch retry treats as a failed batch — a retryable Status at
          // the job level, not a crash.
          producer.close().expect_ok();
        });
  });
}

}  // namespace dsps::spark
