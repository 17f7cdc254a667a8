#include "beam/kafka_io.hpp"

#include <utility>
#include <vector>

namespace dsps::beam {

namespace {

/// Coder for KafkaRecord (all metadata fields are encoded — the abstraction
/// pays for metadata it will immediately drop, §III-C3).
class KafkaRecordCoder final : public Coder {
 public:
  void encode(const Value& value, BinaryWriter& out) const override {
    const auto& record = value.get<KafkaRecord>();
    out.write_string(record.topic);
    out.write_u32(static_cast<std::uint32_t>(record.partition));
    out.write_i64(record.offset);
    out.write_i64(record.timestamp);
    out.write_string(record.key.view());
    out.write_string(record.value.view());
  }
  Value decode(BinaryReader& in) const override {
    KafkaRecord record;
    record.topic = in.read_string();
    record.partition = static_cast<int>(in.read_u32());
    record.offset = in.read_i64();
    record.timestamp = in.read_i64();
    // Zero-copy: key/value slices alias the wire buffer when the reader
    // owns refcounted storage.
    record.key = runtime::read_payload(in);
    record.value = runtime::read_payload(in);
    return record;
  }
  std::string name() const override { return "KafkaRecordCoder"; }
  std::size_t encoded_size_hint(const Value& value) const override {
    const auto& record = value.get<KafkaRecord>();
    return varint_size(record.topic.size()) + record.topic.size() +
           sizeof(std::uint32_t) + 2 * sizeof(std::int64_t) +
           varint_size(record.key.size()) + record.key.size() +
           varint_size(record.value.size()) + record.value.size();
  }
};

class ProducerRecordStubCoder final : public Coder {
 public:
  void encode(const Value& value, BinaryWriter& out) const override {
    const auto& record = value.get<ProducerRecordStub>();
    out.write_string(record.key.view());
    out.write_string(record.value.view());
  }
  Value decode(BinaryReader& in) const override {
    ProducerRecordStub record;
    record.key = runtime::read_payload(in);
    record.value = runtime::read_payload(in);
    return record;
  }
  std::string name() const override { return "ProducerRecordStubCoder"; }
  std::size_t encoded_size_hint(const Value& value) const override {
    const auto& record = value.get<ProducerRecordStub>();
    return varint_size(record.key.size()) + record.key.size() +
           varint_size(record.value.size()) + record.value.size();
  }
};

/// Reads one shard's partition slice until the consumer reports the end
/// of input (kafka::Consumer::subscribe).
class KafkaSourceReader final : public SourceReader {
 public:
  KafkaSourceReader(kafka::Broker& broker, const KafkaReadConfig& config,
                    int shard, int num_shards)
      : broker_(broker), config_(config),
        shard_{.index = shard, .count = num_shards} {}

  void open() override {
    consumer_ = std::make_unique<kafka::Consumer>(
        broker_, kafka::ConsumerConfig{.max_poll_records = 1000});
    consumer_->subscribe(config_.topic, config_.bounded, shard_).expect_ok();
  }

  bool advance(Element& out) override {
    while (buffer_index_ >= batch_.records.size()) {
      // kClosed comes with the final batch; once that is drained the next
      // poll returns kClosed at once with nothing.
      const kafka::FetchState state = consumer_->poll_batch(5, batch_);
      buffer_index_ = 0;
      if (state == kafka::FetchState::kClosed && batch_.empty()) return false;
    }
    auto& record = batch_.records[buffer_index_++];
    // The raw element: the full record with metadata, stamped with the
    // record's broker timestamp (Beam's event time for KafkaIO). Payload
    // slices move out of the fetch batch still sharing the broker's
    // storage; the metadata wrapping (and its coder) stays — that is the
    // abstraction cost under measurement.
    out.value = KafkaRecord{.topic = batch_.tp.topic,
                            .partition = batch_.tp.partition,
                            .offset = record.offset,
                            .timestamp = record.timestamp,
                            .key = std::move(record.key),
                            .value = std::move(record.value)};
    out.timestamp = record.timestamp;
    out.windows = global_window();
    out.pane = PaneInfo{};
    return true;
  }

  ReadNow advance_now(Element& out) override {
    if (buffer_index_ >= batch_.records.size()) {
      // One non-blocking fetch: a runner calling this must not park inside
      // the micro-batch (Spark) or streaming window (Apex) it is filling.
      const kafka::FetchState state = consumer_->poll_batch(0, batch_);
      buffer_index_ = 0;
      if (batch_.empty()) {
        return state == kafka::FetchState::kClosed ? ReadNow::kDone
                                                   : ReadNow::kIdle;
      }
    }
    return advance(out) ? ReadNow::kRecord : ReadNow::kDone;
  }

 private:
  kafka::Broker& broker_;
  KafkaReadConfig config_;
  kafka::Shard shard_;
  std::unique_ptr<kafka::Consumer> consumer_;
  kafka::FetchBatch batch_;
  std::size_t buffer_index_ = 0;
};

/// The writer DoFn: produces at process() time, flushes at bundle
/// boundaries. Emits one count at finish (terminal; consumers are rare).
class KafkaWriterDoFn final : public DoFn<ProducerRecordStub, std::int64_t> {
 public:
  KafkaWriterDoFn(kafka::Broker& broker, KafkaWriteConfig config)
      : broker_(broker), config_(std::move(config)) {}

  void setup() override {
    producer_ =
        std::make_unique<kafka::Producer>(broker_, kafka::ProducerConfig{});
  }

  void process(ProcessContext& context) override {
    kafka::ProducerRecord record{.key = context.element().key,
                                 .value = context.element().value};
    (config_.partition < 0
         ? producer_->send(config_.topic, std::move(record))
         : producer_->send(config_.topic, config_.partition,
                           std::move(record)))
        .expect_ok();
    ++written_;
  }

  void finish_bundle(
      const std::function<void(std::int64_t)>& /*output*/) override {
    // The writer flushes per bundle — one broker RTT per bundle, which on a
    // one-element-bundle runner is the per-record penalty of §III-C3.
    if (producer_) producer_->flush().expect_ok();
  }

  void teardown() override {
    if (!producer_) return;
    // close() flushes what is left and returns a Status; a broker outage
    // that outlives the producer's retries surfaces as a throw the runner
    // treats as a retryable operator failure — never as a silent drop or a
    // crash during unwind.
    producer_->close().expect_ok();
  }

  std::shared_ptr<DoFn<ProducerRecordStub, std::int64_t>> clone()
      const override {
    // The producer is a per-instance resource: parallel executor instances
    // must not share one writer.
    return std::make_shared<KafkaWriterDoFn>(broker_, config_);
  }

 private:
  kafka::Broker& broker_;
  KafkaWriteConfig config_;
  std::unique_ptr<kafka::Producer> producer_;
  std::int64_t written_ = 0;
};

}  // namespace

CoderPtr CoderTraits<KafkaRecord>::of() {
  return std::make_shared<KafkaRecordCoder>();
}

CoderPtr CoderTraits<ProducerRecordStub>::of() {
  return std::make_shared<ProducerRecordStubCoder>();
}

PCollection<KafkaRecord> KafkaReadTransform::expand(Pipeline& pipeline) const {
  // 1. The raw source node.
  TransformNode source;
  source.kind = TransformKind::kRead;
  source.name = "KafkaIO.Read/" + config_.topic;
  source.urn = urns::kRead;
  source.output_coder = CoderTraits<KafkaRecord>::of();
  source.unbounded_source = !config_.bounded;
  source.reader = [broker = broker_, config = config_](int shard,
                                                       int num_shards) {
    return std::make_unique<KafkaSourceReader>(*broker, config, shard,
                                               num_shards);
  };
  const int source_id = pipeline.graph().add_node(std::move(source));

  // 2. The read-expansion "Flat Map" the runner shows as its own operator
  //    (Fig. 13): nominally unwraps raw messages into typed KafkaRecords.
  PCollection<KafkaRecord> raw(&pipeline, source_id);
  auto expanded = FlatMapElements<KafkaRecord, KafkaRecord>::via(
                      [](const KafkaRecord& record,
                         const std::function<void(KafkaRecord)>& out) {
                        out(record);
                      },
                      "KafkaIO.Read/FlatMap")
                      .expand(raw);
  pipeline.graph().set_urn(expanded.node_id(), urns::kReadExpand);
  return expanded;
}

PCollection<KV<runtime::Payload, runtime::Payload>>
WithoutMetadataTransform::expand(const PCollection<KafkaRecord>& input) const {
  return MapElements<KafkaRecord, KV<runtime::Payload, runtime::Payload>>::via(
             [](const KafkaRecord& record) {
               // Refcount bumps only: key/value still reference the
               // broker's storage.
               return KV<runtime::Payload, runtime::Payload>{record.key,
                                                             record.value};
             },
             "KafkaIO.Read/WithoutMetadata")
      .expand(input);
}

PCollection<std::int64_t> KafkaWriteTransform::write_records(
    const PCollection<ProducerRecordStub>& records) const {
  return ParDo::of<ProducerRecordStub, std::int64_t>(
             std::make_shared<KafkaWriterDoFn>(*broker_, config_),
             "KafkaIO.Write/KafkaWriter")
      .expand(records);
}

PCollection<std::int64_t> KafkaWriteTransform::expand(
    const PCollection<runtime::Payload>& input) const {
  return write_records(
      MapElements<runtime::Payload, ProducerRecordStub>::via(
          [](const runtime::Payload& value) {
            return ProducerRecordStub{.key = {}, .value = value};
          },
          "KafkaIO.Write/ToProducerRecord")
          .expand(input));
}

PCollection<std::int64_t> KafkaWriteTransform::expand(
    const PCollection<std::string>& input) const {
  return write_records(
      MapElements<std::string, ProducerRecordStub>::via(
          [](const std::string& value) {
            // A synthesized line: the payload takes an owning copy here,
            // the single materialization this path pays.
            return ProducerRecordStub{.key = {}, .value = runtime::Payload(value)};
          },
          "KafkaIO.Write/ToProducerRecord")
          .expand(input));
}

}  // namespace dsps::beam
