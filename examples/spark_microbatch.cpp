// Native Spark-sim API tour: a live micro-batch topology — records arrive
// while the batch generator ticks, and per-batch revenue totals, summed
// from each collected batch, flow out continuously. Shows the D-Stream
// model (a stream as a sequence of RDDs) and the batch history.
//
//   $ ./examples/spark_microbatch
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "spark/kafka_io.hpp"
#include "spark/streaming_context.hpp"

using namespace dsps;

int main() {
  kafka::Broker broker;
  broker.create_topic("events", kafka::TopicConfig{.partitions = 1})
      .expect_ok();

  spark::StreamingContext ssc(
      spark::SparkConf{.default_parallelism = 2},
      /*batch_interval_ms=*/25);

  // events "<region>:<amount>" -> per-batch revenue per region.
  auto sales = ssc.kafka_direct_stream(broker, "events")
                   .map<std::pair<std::string, int>>(
                       [](const kafka::Payload& event) {
                         const auto line = event.view();
                         const auto colon = line.find(':');
                         return std::make_pair(
                             std::string(line.substr(0, colon)),
                             std::stoi(std::string(line.substr(colon + 1))));
                       });

  auto print_mutex = std::make_shared<std::mutex>();
  sales.foreach_rdd(
      [print_mutex](spark::SparkContext& sc,
                    const spark::RDDPtr<std::pair<std::string, int>>& rdd) {
        const auto rows = sc.collect(rdd);
        if (rows.empty()) return;
        std::map<std::string, int> totals;
        for (const auto& [region, amount] : rows) totals[region] += amount;
        std::lock_guard lock(*print_mutex);
        std::printf("batch:");
        for (const auto& [region, revenue] : totals) {
          std::printf("  %s=%d", region.c_str(), revenue);
        }
        std::printf("\n");
      });

  ssc.start().expect_ok();

  // Feed events while the generator runs.
  const char* regions[] = {"emea", "apac", "amer"};
  kafka::Producer producer(broker, kafka::ProducerConfig{.batch_size = 1});
  for (int i = 0; i < 60; ++i) {
    producer
        .send("events", 0,
              kafka::ProducerRecord{.value = std::string(regions[i % 3]) +
                                             ":" + std::to_string(10 + i)})
        .expect_ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  producer.close().expect_ok();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ssc.stop();

  const runtime::MetricsSnapshot snapshot = ssc.metrics();
  std::printf("\n=== streaming metrics ===\n");
  std::printf("  batches run:    %llu\n",
              static_cast<unsigned long long>(snapshot.counter("batch.count")));
  std::printf("  input records:  %llu\n",
              static_cast<unsigned long long>(
                  snapshot.counter("input.records")));
  const auto duration = snapshot.histograms.find("batch.duration_us");
  if (duration != snapshot.histograms.end()) {
    std::printf("  batch time:     %.2f ms total\n",
                static_cast<double>(duration->second.sum_us) / 1000.0);
  }
  return 0;
}
