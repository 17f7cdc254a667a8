// Native Apex-sim implementations: Kafka input operator -> (query compute
// operator) -> Kafka output operator on YARN-sim.
//
// Placement mirrors how a tuned native Apex application deploys a linear
// pipeline: THREAD_LOCAL at parallelism 1 (single container, direct calls)
// and CONTAINER_LOCAL around a partitioned compute operator at higher
// parallelism (queues, no serialization) — the VCOREs approach of §III-A2.
#include "queries/query_factory.hpp"

#include "apex/dag.hpp"
#include "apex/engine.hpp"
#include "apex/operators_library.hpp"
#include "yarn/resource_manager.hpp"

namespace dsps::queries {

namespace {

using runtime::Payload;

apex::OperatorFactory query_operator_factory(workload::QueryId query,
                                             const QueryContext& ctx) {
  using workload::QueryId;
  switch (query) {
    case QueryId::kIdentity:
      return {};  // no compute operator
    case QueryId::kSample:
      return apex::filter_payload_factory(
          [seed = ctx.seed](const Payload& line) {
            return workload::sample_keep(line.view(), seed);
          });
    case QueryId::kProjection:
      // Slices the tuple in place — the projected payload shares the
      // broker record's storage.
      return apex::map_payload_factory([](const Payload& line) {
        return workload::projection_payload(line);
      });
    case QueryId::kGrep:
      return apex::filter_payload_factory([](const Payload& line) {
        return workload::grep_matches(line.view());
      });
  }
  throw std::invalid_argument("unknown query");
}

apex::Dag build_dag(workload::QueryId query, const QueryContext& ctx) {
  apex::Dag dag;
  // With recovery on, the input gets a consumer group: offsets commit as
  // windows complete across the DAG, and a YARN reattempt resumes there.
  apex::KafkaPayloadInput::Config input_config{.topic = ctx.input_topic};
  if (ctx.recovery.enabled) input_config.group_id = "apex-input";
  input_config.bounded = !ctx.open_loop;
  const int input = dag.add_input_operator(
      "kafkaInput", apex::kafka_input_factory(*ctx.broker, input_config));
  const int output = dag.add_operator(
      "kafkaOutput",
      apex::kafka_output_factory(
          *ctx.broker,
          apex::KafkaPayloadOutput::Config{.topic = ctx.output_topic}));

  apex::OperatorFactory compute = query_operator_factory(query, ctx);
  if (ctx.parallelism > 1) {
    // Scale-out plan (§III-A2 VCOREs): the input operator partitions too,
    // each physical instance draining its own slice of the topic's
    // partitions; compute instances pair up with them (equal counts =>
    // pairwise routing); a unifier merges the partitioned results back to
    // the single Kafka output, exactly where Apex inserts its unifier when
    // partition counts drop.
    dag.set_partitions(input, ctx.parallelism);
    const int unifier = dag.add_operator(
        "unifier", apex::map_payload_factory(
                       [](const Payload& line) { return line; }));
    int tail = input;
    if (compute) {
      const int op = dag.add_operator("compute", std::move(compute));
      dag.set_partitions(op, ctx.parallelism);
      dag.add_stream("lines", apex::PortRef{input, 0}, apex::PortRef{op, 0},
                     apex::Locality::kContainerLocal, {});
      tail = op;
    }
    dag.add_stream("merged", apex::PortRef{tail, 0},
                   apex::PortRef{unifier, 0},
                   apex::Locality::kContainerLocal, {});
    dag.add_stream("results", apex::PortRef{unifier, 0},
                   apex::PortRef{output, 0}, apex::Locality::kContainerLocal,
                   {});
    return dag;
  }

  if (!compute) {
    // Identity: input feeds the output operator directly.
    dag.add_stream("lines", apex::PortRef{input, 0}, apex::PortRef{output, 0},
                   apex::Locality::kThreadLocal, {});
    return dag;
  }

  const int op = dag.add_operator("compute", std::move(compute));
  dag.add_stream("lines", apex::PortRef{input, 0}, apex::PortRef{op, 0},
                 apex::Locality::kThreadLocal, {});
  dag.add_stream("results", apex::PortRef{op, 0}, apex::PortRef{output, 0},
                 apex::Locality::kThreadLocal, {});
  return dag;
}

}  // namespace

Status run_native_apex(workload::QueryId query, const QueryContext& ctx) {
  apex::Dag dag = build_dag(query, ctx);
  // The paper's cluster: two worker nodes.
  yarn::ResourceManager rm;
  rm.add_node("node-0", yarn::Resource{64, 65536});
  rm.add_node("node-1", yarn::Resource{64, 65536});
  apex::EngineConfig config;
  if (ctx.recovery.enabled) {
    config.max_attempts = 1 + std::max(0, ctx.recovery.max_restarts);
    config.restart_backoff = recovery_backoff(ctx.recovery);
  }
  return apex::launch_application(rm, dag, config).status();
}

Result<std::string> native_apex_plan(workload::QueryId query,
                                     const QueryContext& ctx) {
  apex::Dag dag = build_dag(query, ctx);
  return apex::render_physical_plan(dag);
}

}  // namespace dsps::queries
