// StreamExecutionEnvironment: the entry point of the Flink-sim native API.
//
//   flink::StreamExecutionEnvironment env;
//   env.set_parallelism(1);
//   auto lines = env.add_source<std::string>(
//       [] { return std::make_unique<KafkaSource>(...); }, "Custom Source");
//   lines.filter([](const std::string& s) { return s.find("test") != ...; },
//                "Filter")
//        .add_sink([] { return std::make_unique<KafkaSink>(...); },
//                  "Unnamed");
//   env.execute("grep");
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "flink/graph.hpp"
#include "flink/runtime.hpp"

namespace dsps::flink {

template <typename T>
class DataStream;

class StreamExecutionEnvironment {
 public:
  StreamExecutionEnvironment() = default;

  /// Default parallelism for operators added afterwards (the `-p` CLI flag).
  void set_parallelism(int parallelism) {
    require(parallelism >= 1, "parallelism must be >= 1");
    default_parallelism_ = parallelism;
  }
  int parallelism() const noexcept { return default_parallelism_; }

  /// Disables operator chaining job-wide (what the Beam runner effectively
  /// gets: one task per translated transform).
  void disable_operator_chaining() { chaining_enabled_ = false; }
  bool chaining_enabled() const noexcept { return chaining_enabled_; }

  /// Adds a source. The factory is invoked once per source subtask.
  template <typename T>
  DataStream<T> add_source(SourceFactory factory,
                           const std::string& name = "Custom Source");

  /// Runs the job to completion (bounded sources) and returns metrics.
  Result<JobResult> execute(const std::string& job_name = "job");

  /// Starts the job and returns a handle (for unbounded sources).
  Result<std::unique_ptr<JobHandle>> execute_async(
      const std::string& job_name = "job");

  /// The post-chaining execution plan, rendered like the Flink plan
  /// visualizer output in Fig. 12/13.
  std::string execution_plan() const;

  // --- erased graph-building API used by DataStream ---
  int add_node(StreamNode node);
  void add_edge(StreamEdge edge);
  const StreamGraph& graph() const noexcept { return graph_; }

 private:
  StreamGraph graph_;
  int default_parallelism_ = 1;
  bool chaining_enabled_ = true;
};

}  // namespace dsps::flink

#include "flink/datastream.hpp"  // IWYU pragma: keep (template definitions)
