// Reproduces every table and figure of the paper's evaluation, in the
// paper's order, from one run of the 48-setup matrix (4 queries x 3 engines
// x 2 SDKs x 2 parallelisms):
//   * Table II's measured selectivities (the Flink native P1 rows), the
//     mean times of Figs. 6-9, the dispersion of Fig. 10 and the slowdown
//     factors of Fig. 11 all read that one MeasurementSet;
//   * Table I (static), Table III (its own seeded-noise Flink runs) and
//     Figs. 12/13 (plan dumps) need no matrix run.
// Scale comes from the environment (bench::config_from_env).
#include <algorithm>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "queries/query_factory.hpp"
#include "workload/data_sender.hpp"

namespace {

using namespace dsps;
using queries::Engine;
using queries::Sdk;
using workload::QueryId;

void print_table1() {
  std::printf(
      "=== Table I — Comparison of Apache Flink, Apache Spark Streaming, "
      "and Apache Apex (as modelled) ===\n\n");
  std::printf("%-28s %-18s %-18s %-18s\n", "Criteria", "Flink(-sim)",
              "Spark Streaming(-sim)", "Apex(-sim)");
  std::printf("%-28s %-18s %-18s %-18s\n", "Data processing",
              "tuple-by-tuple", "micro-batch", "tuple-by-tuple");
  std::printf("%-28s %-18s %-18s %-18s\n", "Execution unit",
              "task slots", "executor tasks", "YARN containers");
  std::printf("%-28s %-18s %-18s %-18s\n", "Operator fusion",
              "operator chains", "stage pipelining", "stream locality");
  std::printf("%-28s %-18s %-18s %-18s\n", "Parallelism knob",
              "-p/--parallelism", "default.parallelism", "VCOREs/partitions");
  std::printf("%-28s %-18s %-18s %-18s\n", "Beam runner translation",
              "unfused operators", "mapPartitions", "container/operator");
  std::printf(
      "\nmechanical checks against the simulators:\n"
      "  * Flink-sim: operator chaining fuses linear pipelines into one\n"
      "    task (see Figs. 12/13 below and the chaining ablation);\n"
      "  * Spark-sim: a record is only processed when its micro-batch\n"
      "    fires, never earlier (StreamingContext batch history);\n"
      "  * Apex-sim: operators deploy into YARN containers whose count the\n"
      "    physical plan reports (unified metrics snapshots).\n"
      "All three engines process each record exactly once in the benchmark\n"
      "configuration; the 24-setup correctness matrix in tests/test_queries\n"
      "pins that property.\n\n");
}

void print_table2(const harness::MeasurementSet& set,
                  const harness::HarnessConfig& config) {
  std::printf("=== Table II — Overview of the Benchmark Queries ===\n\n");
  std::printf("%-12s %-9s %-10s %-10s  %s\n", "Query", "expected",
              "measured", "output", "description");
  for (const auto& info : workload::all_queries()) {
    const auto& runs =
        set.get(harness::SetupKey{Engine::kFlink, Sdk::kNative, info.id, 1})
            .runs;
    const std::int64_t output = runs.front().output_records;
    const double measured =
        static_cast<double>(output) / static_cast<double>(config.records);
    std::printf("%-12s %-9s %-10s %-10lld  %s\n", info.name.c_str(),
                format_double(info.expected_selectivity, 4).c_str(),
                format_double(measured, 4).c_str(),
                static_cast<long long>(output), info.description.c_str());
  }
  std::printf(
      "\npaper reference: identity/projection 100%% of input; sample ~40%%;\n"
      "grep 3,003 of 1,000,001 records (~0.3%%) for the search string "
      "\"test\".\n\n");
}

void print_execution_time_figures(const harness::MeasurementSet& set) {
  const struct {
    QueryId query;
    const char* paper_figure;
  } figures[] = {{QueryId::kIdentity, "Fig. 6"},
                 {QueryId::kSample, "Fig. 7"},
                 {QueryId::kProjection, "Fig. 8"},
                 {QueryId::kGrep, "Fig. 9"}};
  for (const auto& [query, paper_figure] : figures) {
    const auto figure = harness::execution_time_figure(set, query);
    std::printf("=== %s (reproduction of the paper's %s) ===\n",
                figure.title.c_str(), paper_figure);
    std::printf("%s\n", harness::render_figure(figure).c_str());
    std::printf("%s\n",
                harness::render_comparison(
                    figure, harness::paper::execution_times(query),
                    std::string(paper_figure) +
                        " (absolute seconds differ by construction — "
                        "compare the x-min ratio columns)")
                    .c_str());
  }
  // STREAMSHIM_PROFILE=1: where the microseconds of each setup went.
  const std::string breakdown =
      harness::render_profile_breakdown(bench::setup_profiles(set));
  if (!breakdown.empty()) std::printf("%s\n", breakdown.c_str());
  const std::string serde =
      harness::render_serde_table(bench::setup_serde(set));
  if (!serde.empty()) std::printf("%s\n", serde.c_str());
}

void print_stddev_figure(const harness::MeasurementSet& set) {
  std::printf("=== Relative Standard Deviation (reproduction of Fig. 10) "
              "===\n");
  const auto figure = harness::stddev_figure(set);
  std::printf("%s\n", harness::render_figure(figure).c_str());
  std::printf(
      "%s\n",
      harness::render_comparison(
          figure, harness::paper::relative_stddevs(),
          "Fig. 10 (dispersion depends on the host; compare magnitudes)")
          .c_str());
}

// Table III: per-run Identity times on Flink at P1 and P2 with the outlier
// analysis of §III-C2. The paper's outliers came from its co-tenant VMs;
// seeded pauses stand in for them so the analysis is reproducible. Ten runs
// per parallelism (the table's shape), whatever STREAMSHIM_RUNS says.
// Table III's outlier threshold in scaled MADs (common/stats.hpp): at 2.5 the
// paper's own P1 runs flag exactly its three outliers and its P2 runs none.
constexpr double kOutlierMads = 2.5;

void print_table3(harness::HarnessConfig config) {
  config.runs = 10;
  // ~30% of runs stall for a multiple of the typical runtime, the P1
  // pattern of Table III (outliers ~2-6x a typical run; ours is ~12 ms
  // at 20k records).
  config.noise = NoiseConfig{.enabled = true,
                             .pause_probability = 0.3,
                             .min_pause_ms = 15,
                             .max_pause_ms = 70,
                             .seed = config.seed};
  std::printf("=== Identity on Flink, per-run times (reproduction of "
              "Table III) ===\n");

  harness::BenchmarkHarness harness(config);
  harness::SetupMeasurements by_parallelism[2];
  for (const int parallelism : {1, 2}) {
    auto measurements = harness.run_setup(harness::SetupKey{
        Engine::kFlink, Sdk::kNative, QueryId::kIdentity, parallelism});
    measurements.status().expect_ok();
    by_parallelism[parallelism - 1] = measurements.value();
  }

  std::printf("%-14s %-18s %-18s\n", "Number of Run", "Parallelism = 1",
              "Parallelism = 2");
  const auto& p1 = by_parallelism[0].runs;
  const auto& p2 = by_parallelism[1].runs;
  for (std::size_t r = 0; r < p1.size(); ++r) {
    std::printf("%-14zu %-18s %-18s\n", r + 1,
                (format_double(p1[r].execution_seconds, 4) + "s").c_str(),
                (format_double(p2[r].execution_seconds, 4) + "s").c_str());
  }

  bool flags_exactly_injected = true;
  for (const int parallelism : {1, 2}) {
    const auto& measured = by_parallelism[parallelism - 1];
    const auto times = measured.execution_times();
    const auto outliers = outlier_indices(times, kOutlierMads);
    std::printf("\nP%d: mean %.4fs, rel. stddev %.3f, outliers (>%.1f scaled "
                "MADs from the median):",
                parallelism, mean(times), relative_stddev(times),
                kOutlierMads);
    if (outliers.empty()) std::printf(" none");
    for (const auto index : outliers) {
      std::printf(" run %zu (%.4fs, injected pause %lld ms)", index + 1,
                  times[index],
                  static_cast<long long>(
                      measured.runs[index].injected_pause_ms));
    }
    std::printf("\n");
    for (std::size_t r = 0; r < measured.runs.size(); ++r) {
      const bool flagged =
          std::find(outliers.begin(), outliers.end(), r) != outliers.end();
      const bool injected = measured.runs[r].injected_pause_ms > 0;
      flags_exactly_injected = flags_exactly_injected && flagged == injected;
    }
  }

  std::printf("\npaper reference (Table III): P1 mean 6.52s with outliers "
              "21.56s/12.69s/6.25s; P2 homogeneous, mean 3.74s.\n");
  std::printf("The paper attributes its outliers to the virtualized "
              "environment; here they are injected (seed %llu) and the "
              "analysis %s.\n\n",
              static_cast<unsigned long long>(config.seed),
              flags_exactly_injected
                  ? "identifies exactly the injected runs"
                  : "does NOT identify exactly the injected runs");
}

// Fig. 11, the paper's headline: sf(dsps, query) = (1/Np) * sum_p
// mean_beam(p) / mean_native(p), with the shape checks its conclusions
// rest on and the fidelity score against the published factors.
void print_slowdown_figure(const harness::MeasurementSet& set) {
  std::printf("=== Slowdown Factor sf(dsps, query) (reproduction of Fig. 11) "
              "===\n");
  const auto figure = harness::slowdown_figure(set);
  const auto& paper = harness::paper::slowdown_factors();
  std::printf("%s\n", harness::render_figure(figure).c_str());
  std::printf("%s\n", harness::render_comparison(
                          figure, paper, "Fig. 11 (slowdown factors)")
                          .c_str());

  const auto sf = [&](Engine engine, QueryId query) {
    return harness::slowdown_factor(set, engine, query);
  };
  std::printf("shape checks:\n");
  std::printf("  [%s] Apex penalty is output-proportional "
              "(identity > sample > grep)\n",
              sf(Engine::kApex, QueryId::kIdentity) >
                      sf(Engine::kApex, QueryId::kSample) &&
                      sf(Engine::kApex, QueryId::kSample) >
                          sf(Engine::kApex, QueryId::kGrep)
                  ? "ok"
                  : "MISMATCH");
  std::printf("  [%s] Flink pattern inverts (grep penalty > identity "
              "penalty)\n",
              sf(Engine::kFlink, QueryId::kGrep) >
                      sf(Engine::kFlink, QueryId::kIdentity)
                  ? "ok"
                  : "MISMATCH");
  std::printf("  [%s] Apex worst case dominates every Flink/Spark factor\n",
              sf(Engine::kApex, QueryId::kIdentity) >
                      sf(Engine::kFlink, QueryId::kGrep) &&
                      sf(Engine::kApex, QueryId::kIdentity) >
                          sf(Engine::kSpark, QueryId::kGrep)
                  ? "ok"
                  : "MISMATCH");
  std::printf("  [%s] Beam slower than native for every engine on "
              "identity/sample/projection\n",
              [&] {
                for (const auto engine :
                     {Engine::kFlink, Engine::kSpark, Engine::kApex}) {
                  for (const auto query : {QueryId::kIdentity,
                                           QueryId::kSample,
                                           QueryId::kProjection}) {
                    if (sf(engine, query) <= 1.0) return false;
                  }
                }
                return true;
              }()
                  ? "ok"
                  : "MISMATCH");

  const auto fidelity = harness::fidelity_score(figure, paper);
  std::printf("fidelity: mean |ln(measured/paper)| %.2f over %d factors; "
              "%d of %zu within 35%% of the paper; %zu unresolved\n",
              fidelity.mean_abs_log_ratio, fidelity.resolved,
              fidelity.within_35pct, figure.rows.size(),
              fidelity.unresolved.size());
  for (const auto& label : fidelity.unresolved) {
    std::printf("  %s: unresolved (no native time to divide by)\n",
                label.c_str());
  }
  std::printf("\n");
}

// Figs. 12/13: the Flink plans for Grep at P1, native (3 chained elements)
// and via Beam (7 unfused elements, no dedicated sink), plus the Apex
// physical plans behind §III-C3.
void print_plans() {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, "input").expect_ok();
  workload::create_benchmark_topic(broker, "output").expect_ok();
  queries::QueryContext ctx{&broker, "input", "output", /*parallelism=*/1,
                            /*seed=*/42};

  const struct {
    Engine engine;
    Sdk sdk;
    const char* caption;
  } cases[] = {
      {Engine::kFlink, Sdk::kNative,
       "Fig. 12 — Flink execution plan, Grep, native API"},
      {Engine::kFlink, Sdk::kBeam,
       "Fig. 13 — Flink execution plan, Grep, via Apache Beam"},
      {Engine::kApex, Sdk::kNative,
       "(extension) Apex physical plan, Grep, native API"},
      {Engine::kApex, Sdk::kBeam,
       "(extension) Apex physical plan, Grep, via Apache Beam"},
  };
  for (const auto& plan_case : cases) {
    auto plan = queries::execution_plan(plan_case.engine, plan_case.sdk,
                                        QueryId::kGrep, ctx);
    plan.status().expect_ok();
    std::printf("=== %s ===\n%s\n", plan_case.caption, plan.value().c_str());
  }
  std::printf(
      "observations matching §III-C3:\n"
      "  * the native Flink plan has 3 elements fused into one chain;\n"
      "  * the Beam plan has 7 elements (UnknownRawPTransform source, a\n"
      "    Flat Map, five RawParDos) and no dedicated data sink;\n"
      "  * the native Apex plan places the pipeline THREAD_LOCAL in one\n"
      "    container; the Beam Apex plan deploys one container per\n"
      "    operator with serialized NODE_LOCAL hops.\n");
}

}  // namespace

int main() {
  const auto config = bench::config_from_env();
  std::printf("=== Tables I-III and Figs. 6-13 from one run of the "
              "48-setup matrix ===\n");
  bench::print_scale(config);

  harness::BenchmarkHarness harness(config);
  const auto set = bench::run_setups(harness, harness::full_matrix());

  print_table1();
  print_table2(set, config);
  print_execution_time_figures(set);
  print_stddev_figure(set);
  print_table3(config);
  print_slowdown_figure(set);
  print_plans();
  return 0;
}
