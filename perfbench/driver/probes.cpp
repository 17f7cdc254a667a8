#include "probes.hpp"

#include <algorithm>
#include <thread>

#include "beam/coders.hpp"
#include "common/clock.hpp"
#include "common/queue.hpp"
#include "common/stats.hpp"
#include "kafka/broker.hpp"
#include "kafka/producer.hpp"

namespace perfbench {

namespace {

using dsps::kafka::ProducerRecord;
using dsps::runtime::Payload;

constexpr int kRepetitions = 5;
constexpr std::size_t kMaxProbeRecords = 100'000;
// The Flink Router's and the Apex mailbox drain's batch size.
constexpr std::size_t kChannelBatch = 128;

std::vector<Payload> probe_payloads(const std::vector<std::string>& lines) {
  const std::size_t n = std::min(lines.size(), kMaxProbeRecords);
  return std::vector<Payload>(lines.begin(),
                              lines.begin() + static_cast<std::ptrdiff_t>(n));
}

/// Median over repetitions of `body()`'s duration, in ns per record.
template <typename Fn>
double median_ns_per_record(std::size_t records, Fn&& body) {
  std::vector<double> samples;
  for (int r = 0; r < kRepetitions; ++r) {
    const std::int64_t start = dsps::steady_clock_us();
    body(r);
    samples.push_back(static_cast<double>(dsps::steady_clock_us() - start) *
                      1e3 / static_cast<double>(std::max<std::size_t>(1, records)));
  }
  return dsps::percentile(samples, 50.0);
}

std::vector<std::vector<ProducerRecord>> chunk_records(
    const std::vector<Payload>& payloads, std::size_t batch) {
  std::vector<std::vector<ProducerRecord>> chunks;
  for (std::size_t i = 0; i < payloads.size(); i += batch) {
    std::vector<ProducerRecord>& chunk = chunks.emplace_back();
    for (std::size_t j = i; j < std::min(payloads.size(), i + batch); ++j) {
      chunk.push_back(ProducerRecord{.value = payloads[j]});
    }
  }
  return chunks;
}

dsps::kafka::TopicConfig probe_topic() {
  return dsps::kafka::TopicConfig{
      .timestamp_type = dsps::kafka::TimestampType::kLogAppendTime};
}

}  // namespace

double probe_append_ns(const std::vector<std::string>& lines,
                       std::size_t batch) {
  const std::vector<Payload> payloads = probe_payloads(lines);
  const auto chunks = chunk_records(payloads, std::max<std::size_t>(1, batch));
  dsps::kafka::Broker broker;
  return median_ns_per_record(payloads.size(), [&](int r) {
    const std::string topic = "append-probe-" + std::to_string(r);
    broker.create_topic(topic, probe_topic()).expect_ok();
    for (const auto& chunk : chunks) {
      broker.append_batch({topic, 0}, chunk, false).status().expect_ok();
    }
  });
}

double probe_rtt_ns(const std::vector<std::string>& lines,
                    std::int64_t rtt_us) {
  constexpr std::size_t kFlushes = 1'000;
  const std::vector<Payload> payloads = probe_payloads(lines);
  const std::size_t n = std::min(kFlushes, payloads.size());
  const auto send_us = [&](std::int64_t rtt) {
    dsps::kafka::Broker broker;
    broker.set_rtt_us(rtt);
    broker.create_topic("rtt-probe", probe_topic()).expect_ok();
    dsps::kafka::Producer producer(broker,
                                   dsps::kafka::ProducerConfig{.batch_size = 1});
    const std::int64_t start = dsps::steady_clock_us();
    for (std::size_t i = 0; i < n; ++i) {
      producer.send("rtt-probe", 0, ProducerRecord{.value = payloads[i]})
          .expect_ok();
    }
    const std::int64_t elapsed = dsps::steady_clock_us() - start;
    producer.close().expect_ok();
    return elapsed;
  };
  std::vector<double> samples;
  for (int r = 0; r < kRepetitions; ++r) {
    const std::int64_t with_rtt = send_us(rtt_us);
    samples.push_back(static_cast<double>(with_rtt - send_us(0)) * 1e3 /
                      static_cast<double>(std::max<std::size_t>(1, n)));
  }
  return dsps::percentile(samples, 50.0);
}

double probe_fetch_ns(const std::vector<std::string>& lines,
                      std::size_t batch) {
  const std::vector<Payload> payloads = probe_payloads(lines);
  dsps::kafka::Broker broker;
  broker.create_topic("fetch-probe", probe_topic()).expect_ok();
  for (const auto& chunk : chunk_records(payloads, 1000)) {
    broker.append_batch({"fetch-probe", 0}, chunk, false).status().expect_ok();
  }
  std::vector<dsps::kafka::StoredRecord> out;
  out.reserve(batch);
  return median_ns_per_record(payloads.size(), [&](int) {
    std::int64_t offset = 0;
    while (offset < static_cast<std::int64_t>(payloads.size())) {
      out.clear();
      auto fetched = broker.fetch({"fetch-probe", 0}, offset, batch, out);
      fetched.status().expect_ok();
      offset += static_cast<std::int64_t>(fetched.value());
    }
  });
}

void probe_coder_ns(const std::vector<std::string>& lines, double& encode_ns,
                    double& decode_ns) {
  const std::vector<Payload> payloads = probe_payloads(lines);
  std::vector<dsps::beam::Element> elements;
  elements.reserve(payloads.size());
  for (const Payload& payload : payloads) {
    dsps::beam::Element element = dsps::beam::make_element(payload);
    element.windows = {dsps::beam::global_window()};
    elements.push_back(std::move(element));
  }
  const dsps::beam::WindowedValueCoder coder(
      dsps::beam::CoderTraits<Payload>::of());
  std::vector<Payload> encoded(elements.size());
  encode_ns = median_ns_per_record(elements.size(), [&](int) {
    dsps::runtime::PayloadArena arena;
    for (std::size_t i = 0; i < elements.size(); ++i) {
      encoded[i] = coder.encode(elements[i], arena);
    }
  });
  std::size_t checksum = 0;
  decode_ns = median_ns_per_record(encoded.size(), [&](int) {
    for (const Payload& bytes : encoded) {
      checksum += coder.decode(bytes).value.get<Payload>().size();
    }
  });
  dsps::require(checksum > 0, "decoded payloads are empty");
}

namespace {

template <typename Queue>
double queue_hop_ns(const std::vector<Payload>& payloads) {
  return median_ns_per_record(payloads.size(), [&](int) {
    Queue queue(1024);  // the engines' default channel capacity
    std::thread producer([&] {
      for (std::size_t i = 0; i < payloads.size(); i += kChannelBatch) {
        std::vector<Payload> batch(
            payloads.begin() + static_cast<std::ptrdiff_t>(i),
            payloads.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(payloads.size(), i + kChannelBatch)));
        if (queue.push_batch(std::move(batch)) == 0) break;
      }
      queue.close();
    });
    std::vector<Payload> out;
    out.reserve(kChannelBatch);
    while (true) {
      out.clear();
      if (queue.pop_batch(out, kChannelBatch) == 0) break;
    }
    producer.join();
  });
}

}  // namespace

double probe_queue_hop_ns(const std::vector<std::string>& lines, bool spsc) {
  const std::vector<Payload> payloads = probe_payloads(lines);
  return spsc ? queue_hop_ns<dsps::SpscRingQueue<Payload>>(payloads)
              : queue_hop_ns<dsps::BoundedQueue<Payload>>(payloads);
}

}  // namespace perfbench
