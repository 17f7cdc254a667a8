// Native Apex-sim API tour: a DAG of port-based operators whose containers
// STRAM books from a YARN-sim cluster, with stream localities chosen
// explicitly — the mechanism behind the paper's Apex results (§III-C3).
//
//   $ ./examples/apex_on_yarn
#include <cstdio>

#include "apex/dag.hpp"
#include "apex/engine.hpp"
#include "apex/operators_library.hpp"
#include "yarn/resource_manager.hpp"

using namespace dsps;

int main() {
  // A 2-node YARN cluster like the paper's worker setup.
  yarn::ResourceManager rm;
  rm.add_node("worker-0", yarn::Resource{8, 16384});
  rm.add_node("worker-1", yarn::Resource{8, 16384});

  // Input topic with some click-log-ish records.
  kafka::Broker broker;
  broker.create_topic("clicks", kafka::TopicConfig{.partitions = 1})
      .expect_ok();
  broker.create_topic("alerts", kafka::TopicConfig{.partitions = 1})
      .expect_ok();
  for (int i = 0; i < 5000; ++i) {
    broker
        .append({"clicks", 0},
                kafka::ProducerRecord{.value = "user" + std::to_string(i % 97) +
                                               "\tpage" +
                                               std::to_string(i % 13)},
                false)
        .status()
        .expect_ok();
  }

  // DAG: kafka input -> filter (page0 only) -> enrich -> kafka output.
  apex::Dag dag;
  const int input = dag.add_input_operator(
      "clickReader", apex::kafka_input_factory(broker, "clicks"));
  const int filter = dag.add_operator(
      "landingPageOnly",
      apex::filter_payload_factory([](const runtime::Payload& s) {
        return s.view().ends_with("page0");
      }));
  const int enrich = dag.add_operator(
      "tagAlert", apex::map_payload_factory([](const runtime::Payload& s) {
        return runtime::Payload("ALERT\t" + s.str());
      }));
  const int output = dag.add_operator(
      "alertWriter",
      apex::kafka_output_factory(
          broker, apex::KafkaPayloadOutput::Config{.topic = "alerts"}));

  // Reader+filter fused THREAD_LOCAL; enrich partitioned 2-way in the same
  // container; the writer crosses a container boundary (serialized).
  dag.set_partitions(enrich, 2);
  dag.add_stream("clicks", apex::PortRef{input, 0}, apex::PortRef{filter, 0},
                 apex::Locality::kThreadLocal, {});
  dag.add_stream("filtered", apex::PortRef{filter, 0},
                 apex::PortRef{enrich, 0}, apex::Locality::kContainerLocal,
                 {});
  dag.add_stream("alerts", apex::PortRef{enrich, 0},
                 apex::PortRef{output, 0}, apex::Locality::kNodeLocal,
                 apex::payload_codec());

  auto plan = apex::render_physical_plan(dag);
  plan.status().expect_ok();
  std::printf("=== physical plan ===\n%s\n", plan.value().c_str());

  auto stats = apex::launch_application(rm, dag, apex::EngineConfig{});
  stats.status().expect_ok();
  const runtime::MetricsSnapshot& metrics = stats.value();
  std::printf("=== application finished ===\n");
  std::printf("  duration:        %.2f ms\n", metrics.gauge("app.duration_ms"));
  std::printf("  containers used: %d\n",
              static_cast<int>(metrics.gauge("app.containers")));
  std::printf("  thread groups:   %d\n",
              static_cast<int>(metrics.gauge("app.thread_groups")));
  std::printf("  stream windows:  %lld\n",
              static_cast<long long>(metrics.counter("windows.emitted")));
  for (const auto& [name, tuples] :
       metrics.counters_with_prefix("operator.")) {
    if (!name.ends_with(".tuples_in")) continue;
    const std::string op =
        name.substr(9, name.size() - 9 - 10);  // strip prefix + suffix
    std::printf("  tuples into %-16s %llu\n", (op + ":").c_str(),
                static_cast<unsigned long long>(tuples));
  }
  std::printf("  alerts written:  %lld\n",
              static_cast<long long>(
                  broker.end_offset({"alerts", 0}).value()));
  return 0;
}
