// Tests for the benchmark harness: the three-phase process, the result
// calculator, the statistics of Figs. 10/11 (relative stddev, slowdown
// factor), the report rendering, and the transcribed paper data.
#include <gtest/gtest.h>

#include <cmath>

#include "harness/benchmark.hpp"
#include "harness/figures.hpp"
#include "harness/paper_data.hpp"
#include "harness/report.hpp"
#include "harness/result_calculator.hpp"
#include "workload/data_sender.hpp"

namespace dsps::harness {
namespace {

using queries::Engine;
using queries::Sdk;
using workload::QueryId;

HarnessConfig tiny_config() {
  HarnessConfig config;
  config.records = 800;
  config.runs = 2;
  config.seed = 42;
  config.broker_rtt_us = 0;  // keep tests fast
  return config;
}

// --- result calculator ----------------------------------------------------------

TEST(ResultCalculatorTest, ComputesFirstToLastAppendSpan) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, "out").expect_ok();
  broker.append({"out", 0}, kafka::ProducerRecord{.value = "a"}, false)
      .status()
      .expect_ok();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  broker.append({"out", 0}, kafka::ProducerRecord{.value = "b"}, false)
      .status()
      .expect_ok();
  ResultCalculator calculator(broker);
  auto result = calculator.calculate("out");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().output_records, 2);
  EXPECT_GE(result.value().execution_seconds, 0.010);
  EXPECT_LT(result.value().execution_seconds, 1.0);
}

TEST(ResultCalculatorTest, EmptyTopicIsAnError) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, "out").expect_ok();
  ResultCalculator calculator(broker);
  EXPECT_EQ(calculator.calculate("out").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ResultCalculatorTest, UnknownTopicIsAnError) {
  kafka::Broker broker;
  ResultCalculator calculator(broker);
  EXPECT_FALSE(calculator.calculate("missing").is_ok());
}

// --- setup labels ------------------------------------------------------------------

TEST(SetupLabelTest, MatchesPaperAxisLabels) {
  EXPECT_EQ(setup_label({Engine::kApex, Sdk::kBeam, QueryId::kIdentity, 1}),
            "Apex Beam P1");
  EXPECT_EQ(setup_label({Engine::kFlink, Sdk::kNative, QueryId::kGrep, 2}),
            "Flink P2");
  EXPECT_EQ(setup_label({Engine::kSpark, Sdk::kBeam, QueryId::kSample, 2}),
            "Spark Beam P2");
}

TEST(FigureSetupsTest, TwelveSetupsPerFigureInPaperOrder) {
  const auto setups = figure_setups(QueryId::kIdentity);
  ASSERT_EQ(setups.size(), 12u);
  EXPECT_EQ(setup_label(setups[0]), "Apex Beam P1");
  EXPECT_EQ(setup_label(setups[1]), "Apex Beam P2");
  EXPECT_EQ(setup_label(setups[2]), "Apex P1");
  EXPECT_EQ(setup_label(setups[11]), "Spark P2");
}

TEST(FigureSetupsTest, FullMatrixIsFortyEight) {
  EXPECT_EQ(full_matrix().size(), 48u);
}

// --- harness end to end ----------------------------------------------------------------

TEST(BenchmarkHarnessTest, RunOnceMeasuresAndCleansUp) {
  BenchmarkHarness harness(tiny_config());
  const SetupKey key{Engine::kFlink, Sdk::kNative, QueryId::kIdentity, 1};
  auto measurement = harness.run_once(key);
  ASSERT_TRUE(measurement.is_ok()) << measurement.status().to_string();
  EXPECT_EQ(measurement.value().output_records, 800);
  EXPECT_GE(measurement.value().execution_seconds, 0.0);
  EXPECT_GT(measurement.value().wall_seconds, 0.0);
  // Output topics are deleted after measurement; only the input remains.
  EXPECT_EQ(harness.broker().list_topics(),
            (std::vector<std::string>{"benchmark-input"}));
}

TEST(BenchmarkHarnessTest, RunSetupProducesConfiguredRunCount) {
  BenchmarkHarness harness(tiny_config());
  const SetupKey key{Engine::kSpark, Sdk::kNative, QueryId::kGrep, 1};
  auto measurements = harness.run_setup(key);
  ASSERT_TRUE(measurements.is_ok());
  EXPECT_EQ(measurements.value().runs.size(), 2u);
  EXPECT_EQ(measurements.value().execution_times().size(), 2u);
}

TEST(BenchmarkHarnessTest, GrepOutputsMatchGeneratorPrediction) {
  BenchmarkHarness harness(tiny_config());
  const SetupKey key{Engine::kApex, Sdk::kNative, QueryId::kGrep, 1};
  auto measurement = harness.run_once(key);
  ASSERT_TRUE(measurement.is_ok());
  EXPECT_EQ(static_cast<std::uint64_t>(measurement.value().output_records),
            harness.expected_grep_matches());
}

TEST(BenchmarkHarnessTest, IngestIsIdempotent) {
  BenchmarkHarness harness(tiny_config());
  ASSERT_TRUE(harness.ingest().is_ok());
  ASSERT_TRUE(harness.ingest().is_ok());
  EXPECT_EQ(harness.broker().end_offset({"benchmark-input", 0}).value(), 800);
}

TEST(BenchmarkHarnessTest, NoiseInjectionLengthensMeasuredTime) {
  HarnessConfig config = tiny_config();
  config.noise = NoiseConfig{.enabled = true,
                             .pause_probability = 1.0,
                             .min_pause_ms = 40,
                             .max_pause_ms = 40,
                             .seed = 1};
  BenchmarkHarness harness(config);
  const SetupKey key{Engine::kFlink, Sdk::kNative, QueryId::kIdentity, 1};
  auto measurement = harness.run_once(key);
  ASSERT_TRUE(measurement.is_ok());
  EXPECT_EQ(measurement.value().injected_pause_ms, 40);
  EXPECT_GE(measurement.value().execution_seconds, 0.040);
}

// --- figures math -----------------------------------------------------------------------

SetupMeasurements fake(const SetupKey& key, std::vector<double> times) {
  SetupMeasurements m;
  m.key = key;
  for (const double t : times) {
    m.runs.push_back(RunMeasurement{.execution_seconds = t});
  }
  return m;
}

TEST(FiguresTest, SlowdownFactorMatchesPaperFormula) {
  // sf = (1/Np) * sum_p beam_mean(p) / native_mean(p)
  MeasurementSet set;
  set.add(fake({Engine::kFlink, Sdk::kBeam, QueryId::kGrep, 1}, {20.0}));
  set.add(fake({Engine::kFlink, Sdk::kBeam, QueryId::kGrep, 2}, {21.0}));
  set.add(fake({Engine::kFlink, Sdk::kNative, QueryId::kGrep, 1}, {2.0}));
  set.add(fake({Engine::kFlink, Sdk::kNative, QueryId::kGrep, 2}, {3.0}));
  const double sf = slowdown_factor(set, Engine::kFlink, QueryId::kGrep);
  EXPECT_NEAR(sf, 0.5 * (20.0 / 2.0 + 21.0 / 3.0), 1e-12);
}

TEST(FiguresTest, SlowdownUsesRunMeans) {
  MeasurementSet set;
  set.add(fake({Engine::kApex, Sdk::kBeam, QueryId::kIdentity, 1},
               {10.0, 20.0}));
  set.add(fake({Engine::kApex, Sdk::kBeam, QueryId::kIdentity, 2},
               {30.0, 30.0}));
  set.add(fake({Engine::kApex, Sdk::kNative, QueryId::kIdentity, 1},
               {1.0, 2.0}));
  set.add(fake({Engine::kApex, Sdk::kNative, QueryId::kIdentity, 2},
               {3.0, 3.0}));
  EXPECT_NEAR(slowdown_factor(set, Engine::kApex, QueryId::kIdentity),
              0.5 * (15.0 / 1.5 + 30.0 / 3.0), 1e-12);
}

TEST(FiguresTest, FidelityScoreIsMeanAbsLogRatio) {
  const auto& paper = paper::slowdown_factors();
  Figure exact;
  Figure doubled;
  for (const auto& [label, value] : paper) {
    exact.rows.push_back(FigureRow{label, value});
    doubled.rows.push_back(FigureRow{label, 2.0 * value});
  }
  const FidelityScore at_paper = fidelity_score(exact, paper);
  EXPECT_NEAR(at_paper.mean_abs_log_ratio, 0.0, 1e-12);
  EXPECT_EQ(at_paper.resolved, 12);
  EXPECT_EQ(at_paper.within_35pct, 12);
  EXPECT_TRUE(at_paper.unresolved.empty());

  const FidelityScore twice = fidelity_score(doubled, paper);
  EXPECT_NEAR(twice.mean_abs_log_ratio, std::log(2.0), 1e-12);
  EXPECT_EQ(twice.within_35pct, 0);

  // A zero factor (no native time to divide by) is listed, not scored.
  doubled.rows.front().value = 0.0;
  const FidelityScore partial = fidelity_score(doubled, paper);
  EXPECT_NEAR(partial.mean_abs_log_ratio, std::log(2.0), 1e-12);
  EXPECT_EQ(partial.resolved, 11);
  ASSERT_EQ(partial.unresolved.size(), 1u);
  EXPECT_EQ(partial.unresolved.front(), doubled.rows.front().label);
}

TEST(FiguresTest, ExecutionTimeFigureHasTwelveRowsInOrder) {
  MeasurementSet set;
  for (const auto& key : figure_setups(QueryId::kSample)) {
    set.add(fake(key, {1.0}));
  }
  const Figure figure = execution_time_figure(set, QueryId::kSample);
  ASSERT_EQ(figure.rows.size(), 12u);
  EXPECT_EQ(figure.rows.front().label, "Apex Beam P1");
  EXPECT_EQ(figure.rows.back().label, "Spark P2");
}

TEST(FiguresTest, StddevFigureAveragesParallelisms) {
  MeasurementSet set;
  // P1 rel-stddev 0 (constant), P2 rel-stddev of {1,3} = sqrt(2)/2.
  for (const auto& key : full_matrix()) {
    set.add(fake(key, key.parallelism == 1 ? std::vector<double>{2.0, 2.0}
                                           : std::vector<double>{1.0, 3.0}));
  }
  const Figure figure = stddev_figure(set);
  ASSERT_EQ(figure.rows.size(), 24u);
  const double expected = 0.5 * (0.0 + std::sqrt(2.0) / 2.0);
  for (const auto& row : figure.rows) {
    EXPECT_NEAR(row.value, expected, 1e-12) << row.label;
  }
}

TEST(FiguresTest, MeasurementSetLookup) {
  MeasurementSet set;
  const SetupKey key{Engine::kSpark, Sdk::kBeam, QueryId::kProjection, 2};
  EXPECT_FALSE(set.contains(key));
  set.add(fake(key, {4.0}));
  ASSERT_TRUE(set.contains(key));
  EXPECT_EQ(set.get(key).runs.size(), 1u);
}

TEST(FiguresTest, SystemQuerySdkLabels) {
  EXPECT_EQ(system_query_sdk_label(Engine::kApex, Sdk::kBeam, QueryId::kGrep),
            "Apex Beam Grep");
  EXPECT_EQ(
      system_query_sdk_label(Engine::kFlink, Sdk::kNative, QueryId::kSample),
      "Flink Sample");
}

// --- report rendering ----------------------------------------------------------------------

TEST(ReportTest, RenderFigureContainsRowsAndBars) {
  Figure figure;
  figure.title = "Test Figure";
  figure.value_axis = "seconds";
  figure.rows = {{"Long Setup", 10.0}, {"Short", 1.0}};
  const std::string rendered = render_figure(figure);
  EXPECT_NE(rendered.find("Test Figure"), std::string::npos);
  EXPECT_NE(rendered.find("Long Setup"), std::string::npos);
  EXPECT_NE(rendered.find("10.0000"), std::string::npos);
  // The longer bar has more '#'.
  const auto long_pos = rendered.find("Long Setup");
  const auto short_pos = rendered.find("Short");
  const auto count_hashes = [&](std::size_t from) {
    std::size_t count = 0;
    for (std::size_t i = from; i < rendered.size() && rendered[i] != '\n'; ++i) {
      count += rendered[i] == '#';
    }
    return count;
  };
  EXPECT_GT(count_hashes(long_pos), count_hashes(short_pos));
}

TEST(ReportTest, ComparisonAlignsWithPaperColumns) {
  Figure measured;
  measured.title = "t";
  measured.rows = {{"A", 2.0}, {"B", 1.0}};
  const std::map<std::string, double> paper = {{"A", 20.0}, {"B", 10.0}};
  const std::string rendered = render_comparison(measured, paper, "Fig. X");
  EXPECT_NE(rendered.find("Fig. X"), std::string::npos);
  // Both columns should report the same x-min ratio (2.0).
  EXPECT_NE(rendered.find("2.0"), std::string::npos);
}

TEST(ReportTest, ComparisonHandlesMissingPaperRows) {
  Figure measured;
  measured.rows = {{"Unknown Setup", 1.0}};
  const std::string rendered =
      render_comparison(measured, {}, "empty reference");
  EXPECT_NE(rendered.find("-"), std::string::npos);
}

TEST(ReportTest, CsvExportHasOneRowPerRun) {
  MeasurementSet set;
  set.add(fake({Engine::kApex, Sdk::kBeam, QueryId::kGrep, 1}, {1.5, 2.5}));
  const std::string csv = to_csv(set);
  EXPECT_NE(csv.find("engine,sdk,query,parallelism,run,execution_seconds,"
                     "output_records"),
            std::string::npos);
  EXPECT_NE(csv.find("Apex,Beam,Grep,1,1,1.500000,0"), std::string::npos);
  EXPECT_NE(csv.find("Apex,Beam,Grep,1,2,2.500000,0"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2
}

TEST(ReportTest, RecoverySummaryIsEmptyWithoutActivity) {
  EXPECT_EQ(render_recovery_summary(runtime::MetricsSnapshot{}), "");
}

TEST(ReportTest, RecoverySummaryShowsPerEngineRowsAndSubstrateCounters) {
  runtime::MetricsSnapshot snapshot;
  snapshot.counters["flink.recovery.restarts"] = 2;
  snapshot.counters["flink.recovery.replayed_records"] = 4000;
  snapshot.gauges["flink.recovery.time_ms"] = 12.5;
  snapshot.counters["spark.recovery.batch_retries"] = 3;
  snapshot.counters["spark.recovery.replayed_records"] = 9000;
  snapshot.counters["fault.injected"] = 5;
  snapshot.counters["fault.operator_throw"] = 5;
  snapshot.counters["runtime.task_restarts"] = 2;
  const std::string rendered = render_recovery_summary(snapshot);
  EXPECT_NE(rendered.find("Flink"), std::string::npos);
  EXPECT_NE(rendered.find("4000"), std::string::npos);
  EXPECT_NE(rendered.find("12.50"), std::string::npos);
  EXPECT_NE(rendered.find("9000"), std::string::npos);
  EXPECT_NE(rendered.find("faults injected: 5"), std::string::npos);
  EXPECT_NE(rendered.find("operator_throw=5"), std::string::npos);
  EXPECT_NE(rendered.find("task restarts: 2"), std::string::npos);
  // Apex saw no activity but still gets a row (all-engine table shape).
  EXPECT_NE(rendered.find("Apex"), std::string::npos);
}

// --- transcribed paper data ------------------------------------------------------------------

TEST(PaperDataTest, AllFiguresFullyTranscribed) {
  for (const QueryId query : {QueryId::kIdentity, QueryId::kSample,
                              QueryId::kProjection, QueryId::kGrep}) {
    EXPECT_EQ(paper::execution_times(query).size(), 12u);
  }
  EXPECT_EQ(paper::relative_stddevs().size(), 24u);
  EXPECT_EQ(paper::slowdown_factors().size(), 12u);
  EXPECT_EQ(paper::flink_identity_runs().p1.size(), 10u);
  EXPECT_EQ(paper::flink_identity_runs().p2.size(), 10u);
}

TEST(PaperDataTest, HeadlineNumbersPresent) {
  // §V: slowdown of up to a factor of 58 (projection on Apex: 58.46);
  // one scenario faster than native (grep on Apex: 0.91).
  EXPECT_NEAR(paper::slowdown_factors().at("Apex Projection"), 58.46, 1e-9);
  EXPECT_NEAR(paper::slowdown_factors().at("Apex Grep"), 0.91, 1e-9);
  EXPECT_NEAR(paper::execution_times(QueryId::kIdentity).at("Apex Beam P1"),
              237.53, 1e-9);
}

TEST(PaperDataTest, SlowdownFactorsConsistentWithExecutionTimes) {
  // The transcribed Fig. 11 factors should approximate the factors
  // recomputed from the transcribed Figs. 6-9 (the paper derives one from
  // the other). Allow tolerance: the figures are rounded.
  for (const auto& [query, name] :
       std::vector<std::pair<QueryId, std::string>>{
           {QueryId::kIdentity, "Identity"},
           {QueryId::kSample, "Sample"},
           {QueryId::kProjection, "Projection"},
           {QueryId::kGrep, "Grep"}}) {
    const auto& times = paper::execution_times(query);
    for (const std::string engine : {"Apex", "Flink", "Spark"}) {
      const double recomputed =
          0.5 * (times.at(engine + " Beam P1") / times.at(engine + " P1") +
                 times.at(engine + " Beam P2") / times.at(engine + " P2"));
      const double published =
          paper::slowdown_factors().at(engine + " " + name);
      EXPECT_NEAR(recomputed, published, published * 0.05)
          << engine << " " << name;
    }
  }
}

TEST(PaperDataTest, FlinkIdentityOutlierStoryHolds) {
  // §III-C2: P1 has outliers (21.56s vs ~3.5s typical), P2 is homogeneous;
  // the transcribed Table III must reproduce the reported means of Fig. 6.
  const auto& runs = paper::flink_identity_runs();
  double p1_mean = 0.0, p2_mean = 0.0;
  for (const double t : runs.p1) p1_mean += t;
  for (const double t : runs.p2) p2_mean += t;
  p1_mean /= 10.0;
  p2_mean /= 10.0;
  EXPECT_NEAR(p1_mean, 6.52, 0.05);  // Fig. 6 "Flink P1"
  EXPECT_NEAR(p2_mean, 3.74, 0.05);  // Fig. 6 "Flink P2"
}

// --- end-to-end slowdown sanity (coarse, keeps CI fast) ---------------------------------------

TEST(EndToEndShapeTest, BeamIsSlowerThanNativeOnEveryEngineForIdentity) {
  HarnessConfig config;
  config.records = 4000;
  config.runs = 1;
  config.broker_rtt_us = 10;
  BenchmarkHarness harness(config);
  for (const Engine engine : {Engine::kFlink, Engine::kSpark, Engine::kApex}) {
    auto beam = harness.run_once(
        SetupKey{engine, Sdk::kBeam, QueryId::kIdentity, 1});
    auto native = harness.run_once(
        SetupKey{engine, Sdk::kNative, QueryId::kIdentity, 1});
    ASSERT_TRUE(beam.is_ok());
    ASSERT_TRUE(native.is_ok());
    EXPECT_GT(beam.value().execution_seconds,
              native.value().execution_seconds)
        << engine_name(engine);
  }
}

}  // namespace
}  // namespace dsps::harness
