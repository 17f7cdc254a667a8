// KafkaIO for Beam-sim, expanding exactly the way the Fig. 13 execution
// plan shows:
//
//   read():  Read source ("PTransformTranslation.UnknownRawPTransform")
//            + a "Flat Map" ParDo unwrapping raw consumer records into
//              KafkaRecord elements
//   without_metadata(): RawParDo KafkaRecord -> KV<key, value>
//   (Values<...>::create() then drops the keys — beam/pipeline.hpp)
//   write(): RawParDo value -> ProducerRecordStub
//            + RawParDo KafkaWriter (produces to the broker; the writer
//              flushes at *bundle* boundaries, so the runner's bundle policy
//              decides how often the producer pays a network round trip)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "beam/coders.hpp"
#include "beam/pipeline.hpp"
#include "kafka/broker.hpp"
#include "kafka/consumer.hpp"
#include "kafka/producer.hpp"
#include "runtime/payload.hpp"

namespace dsps::beam {

// KafkaRecord and ProducerRecordStub are declared in beam/element.hpp, so
// an Element stores them inline instead of in a heap-boxed std::any.
template <>
struct CoderTraits<KafkaRecord> {
  static CoderPtr of();
};

template <>
struct CoderTraits<ProducerRecordStub> {
  static CoderPtr of();
};

struct KafkaReadConfig {
  std::string topic;
  /// true = read the topic as it stood when the reader opened; false =
  /// read until the topic is sealed and drained (open loop).
  bool bounded = true;
};

struct KafkaWriteConfig {
  std::string topic;
  /// Output partition; -1 = partitioner-driven (keyless records round-robin
  /// over the topic's partitions), so parallel writer instances spread their
  /// output instead of contending on one partition log.
  int partition = 0;
};

/// Composite read transform: apply to a Pipeline.
class KafkaReadTransform {
 public:
  KafkaReadTransform(kafka::Broker& broker, KafkaReadConfig config)
      : broker_(&broker), config_(std::move(config)) {}

  PCollection<KafkaRecord> expand(Pipeline& pipeline) const;

 private:
  kafka::Broker* broker_;
  KafkaReadConfig config_;
};

/// KafkaRecord -> KV<key, value>: drops the Kafka metadata (§III-C3).
/// The emitted KV shares the record's payload storage (refcount bumps,
/// no byte copies).
class WithoutMetadataTransform {
 public:
  PCollection<KV<runtime::Payload, runtime::Payload>> expand(
      const PCollection<KafkaRecord>& input) const;
};

/// Composite write transform: apply to a PCollection<runtime::Payload>
/// (the zero-copy path) or a PCollection<std::string> (pipelines that
/// synthesize fresh output lines). Both expansions produce the identical
/// "ToProducerRecord" + "KafkaWriter" node pair.
class KafkaWriteTransform {
 public:
  KafkaWriteTransform(kafka::Broker& broker, KafkaWriteConfig config)
      : broker_(&broker), config_(std::move(config)) {}

  /// Returns the terminal writer PCollection (carries no useful elements).
  PCollection<std::int64_t> expand(
      const PCollection<runtime::Payload>& input) const;
  PCollection<std::int64_t> expand(const PCollection<std::string>& input) const;

 private:
  PCollection<std::int64_t> write_records(
      const PCollection<ProducerRecordStub>& records) const;

  kafka::Broker* broker_;
  KafkaWriteConfig config_;
};

struct KafkaIO {
  static KafkaReadTransform read(kafka::Broker& broker,
                                 KafkaReadConfig config) {
    return KafkaReadTransform(broker, std::move(config));
  }
  static WithoutMetadataTransform without_metadata() { return {}; }
  static KafkaWriteTransform write(kafka::Broker& broker,
                                   KafkaWriteConfig config) {
    return KafkaWriteTransform(broker, std::move(config));
  }
};

}  // namespace dsps::beam
