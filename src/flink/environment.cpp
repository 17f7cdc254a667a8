#include "flink/environment.hpp"

namespace dsps::flink {

int StreamExecutionEnvironment::add_node(StreamNode node) {
  node.id = static_cast<int>(graph_.nodes.size());
  graph_.nodes.push_back(std::move(node));
  return graph_.nodes.back().id;
}

void StreamExecutionEnvironment::add_edge(StreamEdge edge) {
  require(edge.from >= 0 &&
              edge.from < static_cast<int>(graph_.nodes.size()) &&
              edge.to >= 0 && edge.to < static_cast<int>(graph_.nodes.size()),
          "edge references unknown node");
  graph_.edges.push_back(std::move(edge));
}

Result<JobResult> StreamExecutionEnvironment::execute(
    const std::string& /*job_name*/) {
  if (graph_.nodes.empty()) {
    return Status::failed_precondition("empty job graph");
  }
  const JobGraph job_graph = build_job_graph(graph_, chaining_enabled_);
  return execute_job(graph_, job_graph);
}

Result<std::unique_ptr<JobHandle>> StreamExecutionEnvironment::execute_async(
    const std::string& /*job_name*/) {
  if (graph_.nodes.empty()) {
    return Status::failed_precondition("empty job graph");
  }
  const JobGraph job_graph = build_job_graph(graph_, chaining_enabled_);
  return execute_job_async(graph_, job_graph);
}

std::string StreamExecutionEnvironment::execution_plan() const {
  const JobGraph job_graph = build_job_graph(graph_, chaining_enabled_);
  return render_execution_plan(graph_, job_graph);
}

}  // namespace dsps::flink
