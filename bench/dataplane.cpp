// Data-plane trajectory driver: one binary, one section per invocation.
//
//   dataplane <section> [--parallelism 1,4]
//
//   setups       records/sec and Beam/native slowdown of all 24 setups
//                (4 queries x 3 engines x {native, Beam}), plus the
//                unified metrics snapshot.
//   profile      the same matrix with the cost-attribution profiler armed,
//                plus the armed-vs-disarmed overhead probe CI gates on;
//                fails when a setup's attributed time is 0 or exceeds the
//                busy time of its profiled threads.
//   chaos        one faulted-and-recovered Identity run per engine x SDK.
//   scaling      the P1..P16 scale-out sweep; --parallelism picks a subset.
//   fusion       native vs Beam unfused vs Beam fused.
//   async_sinks  sync vs pipelined sink producers, native and Beam.
//   sustained    open-loop maximum sustainable throughput and event-time
//                latency per setup, plus a 2x-capacity overload probe.
//   soak         CI soak at 1.2x capacity with backpressure and the stall
//                watchdog armed; pass/fail only, writes no file.
//
// Every other section writes exactly one file, BENCH_dataplane/<section>.json,
// so running one section never touches another's numbers;
// scripts/check_perf_regression.py merges the directory before gating. A
// section exits non-zero when its file cannot be written or its own check
// fails.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "harness/loadgen.hpp"
#include "kafka/broker.hpp"
#include "queries/query_factory.hpp"
#include "runtime/credit_gate.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"
#include "runtime/watchdog.hpp"
#include "workload/data_sender.hpp"
#include "workload/streambench.hpp"

namespace {

using namespace dsps;
using queries::Engine;
using queries::Sdk;
using workload::QueryId;

// --- JSON writer ----------------------------------------------------------------

/// One JSON value, held as its rendered text. Arrays put one element per
/// line; an object renders on one line unless a member spans several, so
/// each row of a section file is one line.
class Json {
 public:
  Json(const char* text) : Json(std::string(text)) {}
  Json(const std::string& text) : text_("\"") {
    for (const char c : text) {
      if (c == '"' || c == '\\') text_.push_back('\\');
      text_.push_back(c);
    }
    text_.push_back('"');
  }
  Json(bool value) : text_(value ? "true" : "false") {}
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int> &&
                                        !std::is_same_v<Int, bool>>>
  Json(Int value) : text_(std::to_string(value)) {}

  /// A number printed with a fixed count of decimals.
  static Json fixed(double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return raw(buf);
  }
  /// Text that is already JSON.
  static Json raw(std::string text) {
    Json json;
    json.text_ = std::move(text);
    return json;
  }
  static Json array(const std::vector<Json>& items) {
    if (items.empty()) return raw("[]");
    std::string text = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      text += (i == 0 ? "\n  " : ",\n  ") + indented(items[i].text_);
    }
    return raw(text + "\n]");
  }
  static Json object(const std::vector<std::pair<std::string, Json>>& members) {
    const bool multiline =
        std::any_of(members.begin(), members.end(), [](const auto& member) {
          return member.second.text_.find('\n') != std::string::npos;
        });
    std::string text = "{";
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (multiline) {
        text += i == 0 ? "\n  " : ",\n  ";
      } else if (i > 0) {
        text += ", ";
      }
      text += Json(members[i].first).text_ + ": " +
              indented(members[i].second.text_);
    }
    return raw(text + (multiline ? "\n}" : "}"));
  }

  const std::string& text() const { return text_; }

 private:
  Json() = default;

  static std::string indented(const std::string& text) {
    std::string out;
    for (const char c : text) {
      out.push_back(c);
      if (c == '\n') out += "  ";
    }
    return out;
  }

  std::string text_;
};

constexpr const char* kOutputDir = "BENCH_dataplane";

/// Writes `doc` as BENCH_dataplane/<section>.json; false when it fails.
bool write_section(const std::string& section, const Json& doc) {
  const std::string path = std::string(kOutputDir) + "/" + section + ".json";
  std::error_code error;
  std::filesystem::create_directories(kOutputDir, error);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string text = doc.text() + "\n";
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (std::fclose(out) != 0 || !wrote) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

/// What a section produced: its pass/fail verdict and the document for its
/// file (none for soak).
struct Outcome {
  bool ok = true;
  std::optional<Json> doc;
};

// --- the shared setup matrix --------------------------------------------------

constexpr Engine kEngines[] = {Engine::kFlink, Engine::kSpark, Engine::kApex};
constexpr Sdk kSdks[] = {Sdk::kNative, Sdk::kBeam};

/// All 24 P1 setups: query-major, then engine, then native before Beam.
const std::vector<harness::SetupKey>& setup_matrix() {
  static const std::vector<harness::SetupKey> setups = [] {
    std::vector<harness::SetupKey> keys;
    for (const auto& info : workload::all_queries()) {
      for (const auto engine : kEngines) {
        for (const auto sdk : kSdks) {
          keys.push_back(harness::SetupKey{.engine = engine,
                                           .sdk = sdk,
                                           .query = info.id,
                                           .parallelism = 1});
        }
      }
    }
    return keys;
  }();
  return setups;
}

const std::string& query_name(QueryId query) {
  return workload::query_info(query).name;
}

double min_time(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

// --- setups -------------------------------------------------------------------

Outcome section_setups() {
  const auto config = bench::config_from_env();
  std::printf("=== Data-plane setups (all 4 queries, all setups) ===\n");
  bench::print_scale(config);

  harness::BenchmarkHarness harness(config);
  const auto set = bench::run_setups(harness, setup_matrix());

  std::printf("\n%-18s %-10s %12s %14s\n", "setup", "query", "seconds",
              "records/sec");
  std::vector<Json> rows;
  for (const auto& key : setup_matrix()) {
    const auto times = set.get(key).execution_times();
    // Throughput is computed from the best run: the regression gate compares
    // records_per_sec against a committed baseline, and the minimum time is
    // the robust estimator for that — co-tenant noise only ever adds time.
    const double best = min_time(times);
    const double records_per_sec =
        best > 0.0 ? static_cast<double>(config.records) / best : 0.0;
    std::printf("%-18s %-10s %12.4f %14.0f\n",
                harness::setup_label(key).c_str(),
                query_name(key.query).c_str(), mean(times), records_per_sec);
    rows.push_back(Json::object({{"setup", harness::setup_label(key)},
                                 {"query", query_name(key.query)},
                                 {"seconds", Json::fixed(mean(times), 6)},
                                 {"best_seconds", Json::fixed(best, 6)},
                                 {"records_per_sec",
                                  Json::fixed(records_per_sec, 1)}}));
  }

  std::printf("\nslowdown factors (Beam mean / native mean):\n");
  std::vector<Json> slowdowns;
  for (const auto& info : workload::all_queries()) {
    for (const auto engine : kEngines) {
      const double factor = harness::slowdown_factor(set, engine, info.id);
      std::printf("  %-6s %-10s %.2fx\n", queries::engine_name(engine),
                  info.name.c_str(), factor);
      slowdowns.push_back(
          Json::object({{"engine", queries::engine_name(engine)},
                        {"query", info.name},
                        {"factor", Json::fixed(factor, 4)}}));
    }
  }

  // STREAMSHIM_PROFILE=1: append the per-setup cost breakdown.
  const std::string breakdown =
      harness::render_profile_breakdown(bench::setup_profiles(set));
  if (!breakdown.empty()) std::printf("\n%s", breakdown.c_str());
  const std::string serde = harness::render_serde_table(bench::setup_serde(set));
  if (!serde.empty()) std::printf("\n%s", serde.c_str());

  // Every engine published its per-job snapshot into the process-wide
  // registry (prefixed flink./spark./apex.), so one snapshot covers all
  // setups through one schema.
  return {.doc = Json::object(
              {{"records", config.records},
               {"runs", config.runs},
               {"broker_rtt_us", config.broker_rtt_us},
               {"setups", Json::array(rows)},
               {"slowdown_factors", Json::array(slowdowns)},
               {"metrics",
                Json::raw(runtime::MetricsRegistry::global()
                              .snapshot()
                              .to_json())}})};
}

// --- profile ------------------------------------------------------------------

Outcome section_profile() {
  auto config = bench::config_from_env();
  config.profile = true;  // the point of this section
  std::printf("=== Profile (cost attribution, all setups) ===\n");
  bench::print_scale(config);

  harness::BenchmarkHarness harness(config);
  const auto set = bench::run_setups(harness, setup_matrix());
  std::vector<std::pair<std::string, runtime::ProfileSnapshot>> per_setup;
  for (const auto& key : setup_matrix()) {
    per_setup.emplace_back(
        harness::setup_label(key) + " " + query_name(key.query),
        set.get(key).profile);
  }
  std::printf("\n%s\n",
              harness::render_profile_breakdown(per_setup).c_str());

  // Overhead probe: interleaved armed/disarmed Identity trials on the Flink
  // native setup (the highest record rate, so the per-batch scope cost
  // shows up first). The probe pins its own record count — at the reduced
  // smoke scales a single run is sub-millisecond and scheduler noise would
  // swamp a 2% budget. Best-of-N on both sides: co-tenant noise only ever
  // adds time, so the minimum is the robust estimator.
  auto& profiler = runtime::Profiler::instance();
  profiler.disarm();
  auto probe_config = config;
  probe_config.records = std::max<std::uint64_t>(config.records, 50'000);
  probe_config.profile = false;  // armed manually per trial below
  harness::BenchmarkHarness probe_harness(probe_config);
  const harness::SetupKey probe{.engine = Engine::kFlink,
                                .sdk = Sdk::kNative,
                                .query = QueryId::kIdentity,
                                .parallelism = 1};
  constexpr int kOverheadPairs = 12;
  double best_disarmed = 0.0;
  double best_armed = 0.0;
  std::fprintf(stderr, "  overhead probe (%d interleaved pairs) ...",
               kOverheadPairs);
  for (int i = 0; i < kOverheadPairs; ++i) {
    profiler.disarm();
    auto off = probe_harness.run_once(probe);
    off.status().expect_ok();
    const double off_s = off.value().execution_seconds;
    if (i == 0 || off_s < best_disarmed) best_disarmed = off_s;

    profiler.arm();
    auto on = probe_harness.run_once(probe);
    on.status().expect_ok();
    const double on_s = on.value().execution_seconds;
    if (i == 0 || on_s < best_armed) best_armed = on_s;
  }
  profiler.disarm();
  const double overhead_pct =
      best_disarmed > 0.0 ? (best_armed / best_disarmed - 1.0) * 100.0 : 0.0;
  std::fprintf(stderr, " done\n");
  std::printf(
      "profiler overhead (Identity, Flink native, %llu records, best of %d "
      "interleaved runs per side):\n"
      "  disarmed %.4fs  armed %.4fs  overhead %+.2f%% (budget < 2%%)\n",
      static_cast<unsigned long long>(probe_config.records), kOverheadPairs,
      best_disarmed, best_armed, overhead_pct);

  // A setup that attributed nothing fell off the unified invoker; one that
  // attributed more than its threads' busy time counted something twice.
  bool all_reconciled = true;
  std::vector<Json> rows;
  for (const auto& [label, profile] : per_setup) {
    const std::uint64_t attributed = profile.attributed_us();
    const std::uint64_t busy = profile.busy_us();
    if (attributed == 0 || attributed > busy) {
      std::fprintf(stderr, "%s: attributed %llu us, busy %llu us\n",
                   label.c_str(), static_cast<unsigned long long>(attributed),
                   static_cast<unsigned long long>(busy));
      all_reconciled = false;
    }
    std::vector<std::pair<std::string, Json>> shares;
    for (std::size_t i = 0; i < runtime::kStageCount; ++i) {
      const auto stage = static_cast<runtime::Stage>(i);
      shares.emplace_back(std::string(runtime::stage_name(stage)),
                          Json::fixed(profile.share(stage), 4));
    }
    rows.push_back(Json::object(
        {{"setup", label},
         {"attributed_ms",
          Json::fixed(static_cast<double>(attributed) / 1e3, 3)},
         {"busy_ms", Json::fixed(static_cast<double>(busy) / 1e3, 3)},
         {"shares", Json::object(shares)}}));
  }
  const Json overhead =
      Json::object({{"disarmed_best_seconds", Json::fixed(best_disarmed, 6)},
                    {"armed_best_seconds", Json::fixed(best_armed, 6)},
                    {"overhead_pct", Json::fixed(overhead_pct, 3)}});
  return {.ok = all_reconciled,
          .doc = Json::object({{"profile",
                                Json::object({{"overhead", overhead},
                                              {"setups", Json::array(rows)}})}})};
}

// --- chaos --------------------------------------------------------------------

constexpr const char* kChaosIn = "chaos-in";
constexpr const char* kChaosOut = "chaos-out";
constexpr int kChaosRecords = 9'000;
constexpr std::uint64_t kChaosSeed = 1;

/// One Identity run on a fresh broker; `faulted` arms a seeded kill of one
/// operator. Returns wall milliseconds; `ok` reports the job's status.
double chaos_run(Engine engine, Sdk sdk, bool faulted, bool& ok,
                 std::uint64_t& injected) {
  kafka::Broker broker;
  broker.create_topic(kChaosIn, kafka::TopicConfig{.partitions = 1})
      .expect_ok();
  broker.create_topic(kChaosOut, kafka::TopicConfig{.partitions = 1})
      .expect_ok();
  std::vector<kafka::ProducerRecord> batch;
  batch.reserve(kChaosRecords);
  for (int i = 0; i < kChaosRecords; ++i) {
    batch.push_back(kafka::ProducerRecord{
        .value = "row-" + std::to_string(i) + "\tpayload-" + std::to_string(i)});
  }
  broker.append_batch({kChaosIn, 0}, batch, false).status().expect_ok();

  queries::QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = kChaosIn;
  ctx.output_topic = kChaosOut;
  ctx.recovery.enabled = true;
  ctx.recovery.max_restarts = 4;
  ctx.recovery.backoff_seed = kChaosSeed;

  auto& injector = runtime::FaultInjector::instance();
  if (faulted) {
    runtime::FaultRule kill{.point = runtime::FaultPoint::kOperatorThrow,
                            .times = 1};
    int burn = 0;
    switch (engine) {
      case Engine::kFlink:
        kill.site = sdk == Sdk::kNative ? "flink.source." : "ParDo";
        kill.after_hits = 2;
        break;
      case Engine::kSpark:
        kill.site = "spark.batch";
        kill.after_hits = 1;
        burn = 1;
        break;
      case Engine::kApex:
        kill.site = "apex.";
        kill.after_hits = 2;
        break;
    }
    injector.arm(kChaosSeed, {kill});
    for (int i = 0; i < burn; ++i) {
      try {
        injector.maybe_throw(runtime::FaultPoint::kOperatorThrow,
                             "spark.batch");
      } catch (const runtime::FaultInjectedError&) {
      }
    }
  }
  Stopwatch watch;
  const Status status = queries::run_query(engine, sdk, QueryId::kIdentity, ctx);
  const double ms = watch.elapsed_ms();
  if (faulted) {
    injected = injector.injected_count();
    injector.disarm();
  }
  ok = status.is_ok();
  if (!ok) {
    std::fprintf(stderr, "  %s/%s %s run failed: %s\n",
                 queries::engine_name(engine), queries::sdk_name(sdk),
                 faulted ? "faulted" : "clean", status.to_string().c_str());
  }
  return ms;
}

Outcome section_chaos() {
  std::printf("=== Chaos (Identity under a seeded kill, all setups) ===\n");
  std::printf("scale: %d records, seed %llu, max_restarts 4\n\n",
              kChaosRecords, static_cast<unsigned long long>(kChaosSeed));
  std::printf("%-14s %10s %12s %9s %9s %10s %6s\n", "setup", "clean_ms",
              "faulted_ms", "injected", "restarts", "replayed", "ok");

  auto& global = runtime::MetricsRegistry::global();
  std::vector<Json> rows;
  bool all_ok = true;
  for (const auto engine : kEngines) {
    const std::string restart_counter =
        engine == Engine::kFlink   ? "flink.recovery.restarts"
        : engine == Engine::kSpark ? "spark.recovery.batch_retries"
                                   : "apex.recovery.restarts";
    const std::string replay_counter =
        engine == Engine::kFlink   ? "flink.recovery.replayed_records"
        : engine == Engine::kSpark ? "spark.recovery.replayed_records"
                                   : "apex.recovery.replayed_records";
    for (const auto sdk : kSdks) {
      const std::string setup = std::string(queries::engine_name(engine)) +
                                "-" + queries::sdk_name(sdk);
      bool clean_ok = false;
      bool faulted_ok = false;
      std::uint64_t unused = 0;
      std::uint64_t injected = 0;
      const double clean_ms = chaos_run(engine, sdk, false, clean_ok, unused);
      const auto before = global.snapshot();
      const double faulted_ms =
          chaos_run(engine, sdk, true, faulted_ok, injected);
      const auto after = global.snapshot();
      const std::uint64_t restarts =
          after.counter(restart_counter) - before.counter(restart_counter);
      const std::uint64_t replayed =
          after.counter(replay_counter) - before.counter(replay_counter);
      const bool ok = clean_ok && faulted_ok && injected > 0;
      all_ok = all_ok && ok;

      // Publish the recovery trajectory through the same registry the
      // engines use, so report/figures render chaos runs unchanged.
      const std::string prefix = "chaos." + setup;
      global.gauge(prefix + ".clean_ms").set(clean_ms);
      global.gauge(prefix + ".faulted_ms").set(faulted_ms);
      global.gauge(prefix + ".recovery_overhead_ms")
          .set(faulted_ms - clean_ms);
      global.counter(prefix + ".restarts").add(restarts);
      global.counter(prefix + ".replayed_records").add(replayed);
      global.counter(prefix + ".faults_injected").add(injected);

      std::printf("%-14s %10.2f %12.2f %9llu %9llu %10llu %6s\n",
                  setup.c_str(), clean_ms, faulted_ms,
                  static_cast<unsigned long long>(injected),
                  static_cast<unsigned long long>(restarts),
                  static_cast<unsigned long long>(replayed),
                  ok ? "yes" : "NO");
      rows.push_back(Json::object({{"setup", setup},
                                   {"clean_ms", Json::fixed(clean_ms, 3)},
                                   {"faulted_ms", Json::fixed(faulted_ms, 3)},
                                   {"faults_injected", injected},
                                   {"restarts", restarts},
                                   {"replayed_records", replayed}}));
    }
  }
  std::printf("\n%s",
              harness::render_recovery_summary(global.snapshot()).c_str());
  return {.ok = all_ok,
          .doc = Json::object({{"chaos", Json::array(rows)}})};
}

// --- scaling ------------------------------------------------------------------

/// Parses "1,4,16" into sorted unique points; empty on malformed input.
std::vector<int> parse_points(const std::string& spec) {
  std::vector<int> points;
  std::string token;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (token.empty() || token.size() > 4 ||
          token.find_first_not_of("0123456789") != std::string::npos) {
        return {};
      }
      points.push_back(std::stoi(token));
      token.clear();
    } else {
      token += c;
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

Outcome section_scaling(std::vector<int> points) {
  // Efficiency is defined against P1; sweep it even when not requested.
  if (points.front() != 1) points.insert(points.begin(), 1);

  auto config = bench::config_from_env();
  // One input partition per consumer at the top of the sweep; every P
  // shares the same ingested log so rows are directly comparable.
  config.input_partitions = std::max(config.input_partitions, points.back());
  // Scale-out hides network latency: the sweep defaults to a WAN-ish RTT
  // (vs the other sections' 25us) so producer flush stalls dominate and
  // parallel pipelines visibly overlap them — which also keeps the sweep
  // meaningful on single-core runners, where CPU-parallel speedup is
  // physically unavailable.
  if (env_string("STREAMSHIM_RTT_US", "").empty()) config.broker_rtt_us = 1000;
  // Flush stalls are sleeps, not scheduler noise, so a single run per cell
  // is already stable — and the Beam-on-Apex setups pay one RTT per record
  // (single-element bundles), which makes repeated runs expensive.
  if (env_string("STREAMSHIM_RUNS", "").empty()) config.runs = 1;

  std::printf("=== Scale-out sweep, all queries (extension) ===\n");
  bench::print_scale(config);
  std::printf("parallelism points:");
  for (const int p : points) std::printf(" %d", p);
  std::printf("   input partitions: %d\n\n", config.input_partitions);

  std::vector<harness::SetupKey> keys;
  for (const auto& key : setup_matrix()) {
    for (const int p : points) {
      keys.push_back(harness::SetupKey{key.engine, key.sdk, key.query, p});
    }
  }
  harness::BenchmarkHarness harness(config);
  const auto set = bench::run_setups(harness, keys);

  // Sparse outputs (Grep at tiny scales) can land in one append batch,
  // collapsing the first-to-last-append window to zero; fall back to job
  // wall time rather than dividing by it.
  const auto seconds = [&](const harness::SetupKey& key) {
    const auto& measurements = set.get(key);
    const double best = min_time(measurements.execution_times());
    if (best > 0.0) return best;
    double wall = measurements.runs.front().wall_seconds;
    for (const auto& run : measurements.runs) {
      wall = std::min(wall, run.wall_seconds);
    }
    return wall;
  };
  const auto rate = [&](const harness::SetupKey& key) {
    const double s = seconds(key);
    return s > 0.0 ? static_cast<double>(config.records) / s : 0.0;
  };

  std::vector<harness::ScalingPoint> table;
  std::vector<Json> rows;
  for (const auto& key : keys) {
    harness::SetupKey p1 = key;
    p1.parallelism = 1;
    harness::SetupKey native = key;
    native.sdk = Sdk::kNative;
    harness::ScalingPoint row;
    row.setup = queries::engine_name(key.engine);
    if (key.sdk == Sdk::kBeam) row.setup += " Beam";
    row.query = query_name(key.query);
    row.parallelism = key.parallelism;
    row.records_per_sec = rate(key);
    const double base = rate(p1);
    row.speedup = base > 0.0 ? row.records_per_sec / base : 0.0;
    row.efficiency = row.speedup / static_cast<double>(key.parallelism);
    if (key.sdk == Sdk::kBeam && seconds(native) > 0.0) {
      row.slowdown = seconds(key) / seconds(native);
    }
    table.push_back(row);
    rows.push_back(Json::object(
        {{"setup", row.setup},
         {"query", row.query},
         {"parallelism", row.parallelism},
         {"records_per_sec", Json::fixed(row.records_per_sec, 3)},
         {"speedup", Json::fixed(row.speedup, 4)},
         {"efficiency", Json::fixed(row.efficiency, 4)},
         {"slowdown", Json::fixed(row.slowdown, 4)}}));
  }

  std::printf("\n%s\n", harness::render_scaling_table(table).c_str());
  std::printf("%s", harness::render_partition_gauges(
                        runtime::MetricsRegistry::global().snapshot())
                        .c_str());

  // Headline check: does a native engine actually scale? (>= 2.5x at P4
  // on Identity for at least one engine, when P4 is in the sweep.)
  if (std::find(points.begin(), points.end(), 4) != points.end()) {
    double best_speedup = 0.0;
    const char* best_engine = "";
    for (const auto engine : kEngines) {
      const harness::SetupKey p1{engine, Sdk::kNative, QueryId::kIdentity, 1};
      const harness::SetupKey p4{engine, Sdk::kNative, QueryId::kIdentity, 4};
      const double speedup = rate(p1) > 0.0 ? rate(p4) / rate(p1) : 0.0;
      if (speedup > best_speedup) {
        best_speedup = speedup;
        best_engine = queries::engine_name(engine);
      }
    }
    std::printf("\nbest native Identity P4 speedup: %.2fx (%s) — %s\n",
                best_speedup, best_engine,
                best_speedup >= 2.5 ? "real scale-out"
                                    : "BELOW the 2.5x scale-out bar");
  }
  return {.doc = Json::object({{"scaling", Json::array(rows)}})};
}

// --- fusion and async_sinks: one A/B ablation ---------------------------------

/// Mean execution seconds of one (query, engine) pair with the ablated knob
/// off and on.
struct AbCell {
  Engine engine{};
  QueryId query{};
  double native_off = 0.0;
  double native_on = 0.0;
  double beam_off = 0.0;
  double beam_on = 0.0;
};

/// Runs the setup matrix on two harnesses over identically seeded input that
/// differ only in `knob`. With `rerun_native` unset the native setups run
/// with the knob off only — for knobs that touch the Beam path alone.
std::vector<AbCell> run_ab(const harness::HarnessConfig& base,
                           bool harness::HarnessConfig::*knob,
                           bool rerun_native) {
  harness::HarnessConfig off_config = base;
  off_config.*knob = false;
  harness::HarnessConfig on_config = base;
  on_config.*knob = true;
  std::vector<harness::SetupKey> on_setups;
  for (const auto& key : setup_matrix()) {
    if (rerun_native || key.sdk == Sdk::kBeam) on_setups.push_back(key);
  }

  std::fprintf(stderr, "ablation: knob off\n");
  harness::BenchmarkHarness off_harness(off_config);
  const auto off = bench::run_setups(off_harness, setup_matrix());
  std::fprintf(stderr, "ablation: knob on\n");
  harness::BenchmarkHarness on_harness(on_config);
  const auto on = bench::run_setups(on_harness, on_setups);

  const auto mean_of = [](const harness::MeasurementSet& set,
                          const harness::SetupKey& key) {
    return set.contains(key) ? mean(set.get(key).execution_times()) : 0.0;
  };
  std::vector<AbCell> cells;
  for (const auto& key : setup_matrix()) {
    if (key.sdk != Sdk::kNative) continue;
    harness::SetupKey beam = key;
    beam.sdk = Sdk::kBeam;
    cells.push_back(AbCell{.engine = key.engine,
                           .query = key.query,
                           .native_off = mean_of(off, key),
                           .native_on = mean_of(on, key),
                           .beam_off = mean_of(off, beam),
                           .beam_on = mean_of(on, beam)});
  }
  return cells;
}

/// Fraction of the Beam excess over native that the knob removed:
/// (before - after) / (before - 1), clamped to [0, 1].
double recovered_fraction(double before_factor, double after_factor) {
  if (before_factor <= 1.0) return 0.0;
  return std::clamp(
      (before_factor - after_factor) / (before_factor - 1.0), 0.0, 1.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Outcome section_fusion() {
  const auto config = bench::config_from_env();
  std::printf("=== Fusion ablation (native vs Beam unfused vs fused) ===\n");
  bench::print_scale(config);
  const auto cells = run_ab(config, &harness::HarnessConfig::fuse_stages,
                            /*rerun_native=*/false);

  std::printf("%-6s %-10s %10s %11s %9s %9s %7s %10s\n", "engine", "query",
              "native_s", "unfused_s", "fused_s", "unfused", "fused",
              "recovered");
  std::vector<Json> rows;
  for (const auto& cell : cells) {
    const double unfused_factor = ratio(cell.beam_off, cell.native_off);
    const double fused_factor = ratio(cell.beam_on, cell.native_off);
    // 1.0 would mean fusion makes Beam as fast as native; what remains is
    // the structural cost of the abstraction (boxing, coders at shuffles).
    const double recovered = recovered_fraction(unfused_factor, fused_factor);
    std::printf("%-6s %-10s %10.4f %11.4f %9.4f %8.2fx %6.2fx %9.0f%%\n",
                queries::engine_name(cell.engine),
                query_name(cell.query).c_str(), cell.native_off,
                cell.beam_off, cell.beam_on, unfused_factor, fused_factor,
                recovered * 100.0);
    rows.push_back(Json::object(
        {{"engine", queries::engine_name(cell.engine)},
         {"query", query_name(cell.query)},
         {"native_seconds", Json::fixed(cell.native_off, 6)},
         {"unfused_seconds", Json::fixed(cell.beam_off, 6)},
         {"fused_seconds", Json::fixed(cell.beam_on, 6)},
         {"unfused_factor", Json::fixed(unfused_factor, 4)},
         {"fused_factor", Json::fixed(fused_factor, 4)},
         {"recovered_fraction", Json::fixed(recovered, 4)}}));
  }
  return {.doc = Json::object({{"fusion", Json::array(rows)}})};
}

Outcome section_async_sinks() {
  const auto config = bench::config_from_env();
  std::printf("=== Async-sinks ablation (sync vs pipelined sinks) ===\n");
  bench::print_scale(config);
  const auto cells = run_ab(config, &harness::HarnessConfig::async_sinks,
                            /*rerun_native=*/true);

  std::printf("%-6s %-10s %9s %9s %9s %9s %8s %8s %8s %8s %10s\n", "engine",
              "query", "nat_sync", "nat_asyn", "beam_syn", "beam_asy",
              "syncfac", "asynfac", "nat_spd", "beam_spd", "recovered");
  std::vector<Json> rows;
  for (const auto& cell : cells) {
    // Factors are against *sync native* — the paper's baseline — so the
    // async columns read as "what the abstraction costs once sinks
    // pipeline". A high recovered fraction on Apex confirms the per-record
    // writer flush, not the Beam envelope, dominates that runner's penalty.
    const double sync_factor = ratio(cell.beam_off, cell.native_off);
    const double async_factor = ratio(cell.beam_on, cell.native_off);
    const double native_speedup = ratio(cell.native_off, cell.native_on);
    const double beam_speedup = ratio(cell.beam_off, cell.beam_on);
    const double recovered = recovered_fraction(sync_factor, async_factor);
    std::printf(
        "%-6s %-10s %9.4f %9.4f %9.4f %9.4f %7.2fx %7.2fx %7.2fx %7.2fx "
        "%9.0f%%\n",
        queries::engine_name(cell.engine), query_name(cell.query).c_str(),
        cell.native_off, cell.native_on, cell.beam_off, cell.beam_on,
        sync_factor, async_factor, native_speedup, beam_speedup,
        recovered * 100.0);
    rows.push_back(Json::object(
        {{"engine", queries::engine_name(cell.engine)},
         {"query", query_name(cell.query)},
         {"records", config.records},
         {"native_sync_seconds", Json::fixed(cell.native_off, 6)},
         {"native_async_seconds", Json::fixed(cell.native_on, 6)},
         {"beam_sync_seconds", Json::fixed(cell.beam_off, 6)},
         {"beam_async_seconds", Json::fixed(cell.beam_on, 6)},
         {"beam_sync_factor", Json::fixed(sync_factor, 4)},
         {"beam_async_factor", Json::fixed(async_factor, 4)},
         {"native_speedup", Json::fixed(native_speedup, 4)},
         {"beam_speedup", Json::fixed(beam_speedup, 4)},
         {"recovered_fraction", Json::fixed(recovered, 4)}}));
  }
  const std::string pipeline = harness::render_producer_pipeline(
      runtime::MetricsRegistry::global().snapshot());
  if (!pipeline.empty()) std::printf("\n%s", pipeline.c_str());
  return {.doc = Json::object({{"async_sinks", Json::array(rows)}})};
}

// --- sustained and soak: open-loop load ---------------------------------------
//
// Instead of preloading the input topic and timing the drain (Karimov et
// al. / Henning & Hasselbring methodology, PAPERS.md), a rate-controlled
// generator offers records while the engine runs, and the sweep
// binary-searches each setup's maximum sustainable throughput.
//
// Sustainable means the engine keeps up with the offered rate: after the
// generator seals the input topic, the remaining backlog drains within a
// small fraction of the generation window (bounded consumer lag). Above
// that rate the backlog grows for the whole window and the drain time
// blows up — the knee the binary search brackets.
//
// Event-time latency comes from broker kLogAppendTime timestamps: output
// append time minus the matched input record's append time, matched
// positionally per query (Identity/Projection are 1:1; Sample and Grep
// keep the deterministic subset the shared predicates select — the
// LoadGenerator's cycled pool makes the kept-index list reconstructible).
// Percentiles run through the HDR TimeHistogram.

constexpr const char* kSustainedIn = "sustained-in";
constexpr const char* kSustainedOut = "sustained-out";
constexpr int kBisectProbes = 4;
constexpr double kStartRate = 20'000.0;

struct SweepConfig {
  std::uint64_t seed = 42;
  std::int64_t rtt_us = 25;
  /// Target generation window per probe; records scale with the rate.
  double window_s = 0.30;
  std::uint64_t min_records = 2'000;
  std::uint64_t max_records = 24'000;
};

SweepConfig sweep_config() {
  const auto config = bench::config_from_env();
  SweepConfig sweep;
  sweep.seed = config.seed;
  sweep.rtt_us = config.broker_rtt_us;
  sweep.window_s =
      static_cast<double>(env_i64("STREAMSHIM_SUSTAINED_WINDOW_MS", 300)) /
      1e3;
  sweep.max_records = static_cast<std::uint64_t>(
      env_i64("STREAMSHIM_SUSTAINED_RECORDS",
              static_cast<std::int64_t>(sweep.max_records)));
  sweep.min_records = std::min(sweep.min_records, sweep.max_records);
  return sweep;
}

struct ProbeResult {
  bool ok = false;  // engine run returned OK
  bool sustainable = false;
  double achieved_rate = 0.0;
  double gen_seconds = 0.0;
  double drain_seconds = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t output_records = 0;
};

/// One open-loop run: engine consuming while the generator paces, then the
/// input topic seals and the drain is timed. Retention/backpressure state
/// is whatever the caller armed (disarmed for capacity probes).
ProbeResult run_probe(Engine engine, Sdk sdk, QueryId query,
                      const SweepConfig& sweep, double rate,
                      runtime::MetricsRegistry* latency_into) {
  ProbeResult result;

  kafka::Broker broker;
  broker.set_rtt_us(sweep.rtt_us);
  workload::create_benchmark_topic(broker, kSustainedIn).expect_ok();
  workload::create_benchmark_topic(broker, kSustainedOut).expect_ok();

  harness::LoadGenConfig gen_config;
  gen_config.topic = kSustainedIn;
  gen_config.target_rate = rate;
  gen_config.records = std::clamp(
      static_cast<std::uint64_t>(rate * sweep.window_s), sweep.min_records,
      sweep.max_records);
  gen_config.seed = sweep.seed;
  harness::LoadGenerator generator(broker, gen_config);

  queries::QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = kSustainedIn;
  ctx.output_topic = kSustainedOut;
  ctx.seed = sweep.seed;
  ctx.open_loop = true;

  Status engine_status = Status::ok();
  std::thread engine_thread([&] {
    engine_status = queries::run_query(engine, sdk, query, ctx);
  });

  auto gen_report = generator.run();
  broker.seal_topic(kSustainedIn).expect_ok();
  Stopwatch drain_watch;
  engine_thread.join();
  result.drain_seconds = drain_watch.elapsed_seconds();

  if (!gen_report.is_ok()) {
    std::fprintf(stderr, "  generator failed: %s\n",
                 gen_report.status().message().c_str());
    return result;
  }
  result.ok = engine_status.is_ok();
  if (!result.ok) {
    std::fprintf(stderr, "  engine run failed: %s\n",
                 engine_status.message().c_str());
    return result;
  }
  result.gen_seconds = gen_report.value().duration_seconds;
  result.achieved_rate = gen_report.value().achieved_rate;
  result.admitted = gen_report.value().admitted;

  const auto out_end = broker.end_offset({kSustainedOut, 0});
  result.output_records =
      out_end.is_ok() ? static_cast<std::uint64_t>(out_end.value()) : 0;

  // Sustainable: the post-seal backlog cleared quickly (bounded lag) and
  // the generator was not held below its target (paced appends only).
  const double drain_budget = std::max(0.5, 0.35 * result.gen_seconds);
  result.sustainable = result.drain_seconds <= drain_budget &&
                       result.achieved_rate >= 0.85 * rate;

  if (latency_into != nullptr) {
    // Reconstruct output->input correspondence from the deterministic pool
    // and compute event-time latency per output record.
    std::vector<kafka::StoredRecord> inputs, outputs;
    broker.fetch({kSustainedIn, 0}, 0, result.admitted, inputs)
        .status()
        .expect_ok();
    broker.fetch({kSustainedOut, 0}, 0, result.output_records, outputs)
        .status()
        .expect_ok();
    std::vector<std::size_t> kept;
    kept.reserve(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::string& line = generator.pool()[generator.pool_index(i)];
      bool keep = true;
      if (query == QueryId::kSample) {
        keep = workload::sample_keep(line, sweep.seed);
      } else if (query == QueryId::kGrep) {
        keep = workload::grep_matches(line);
      }
      if (keep) kept.push_back(i);
    }
    auto histogram = latency_into->histogram("latency");
    const std::size_t n = std::min(outputs.size(), kept.size());
    const std::size_t warmup = n / 10;  // settle window: first 10% skipped
    for (std::size_t j = warmup; j < n; ++j) {
      const Timestamp delta = outputs[j].timestamp - inputs[kept[j]].timestamp;
      histogram.record_us(delta > 0 ? static_cast<std::uint64_t>(delta) : 0);
    }
  }
  return result;
}

struct SustainedRow {
  double max_rate = 0.0;
  double achieved_rate = 0.0;
  double drain_seconds = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  bool ok = false;
};

/// Doubling search up (or halving down), then bisection, for the knee rate.
SustainedRow sweep_setup(const harness::SetupKey& key,
                         const SweepConfig& sweep) {
  SustainedRow row;
  const auto probe_at = [&](double rate, runtime::MetricsRegistry* latency) {
    return run_probe(key.engine, key.sdk, key.query, sweep, rate, latency);
  };
  double good = 0.0, bad = 0.0;
  double rate = kStartRate;
  for (int i = 0; i < 10; ++i) {
    const ProbeResult probe = probe_at(rate, nullptr);
    if (!probe.ok) return row;
    if (probe.sustainable) {
      good = rate;
      if (bad > 0.0) break;  // knee already bracketed from a down-search
      rate *= 2.0;
    } else {
      bad = rate;
      if (good > 0.0) break;
      rate /= 2.0;
      if (rate < 500.0) break;  // pathological: nothing sustains
    }
  }
  if (good == 0.0) return row;
  if (bad == 0.0) bad = good * 2.0;
  for (int i = 0; i < kBisectProbes; ++i) {
    const double mid = 0.5 * (good + bad);
    const ProbeResult probe = probe_at(mid, nullptr);
    if (!probe.ok) return row;
    (probe.sustainable ? good : bad) = mid;
  }
  row.max_rate = good;

  // Latency at a comfortably sustainable point (80% of the knee), where
  // queueing delay reflects steady state rather than the overload cliff.
  runtime::MetricsRegistry latency_registry;
  const ProbeResult probe = probe_at(0.8 * good, &latency_registry);
  if (!probe.ok) return row;
  row.achieved_rate = probe.achieved_rate;
  row.drain_seconds = probe.drain_seconds;
  const auto snapshot = latency_registry.snapshot();
  if (auto it = snapshot.histograms.find("latency");
      it != snapshot.histograms.end()) {
    row.p50_us = it->second.p50_us();
    row.p99_us = it->second.p99_us();
    row.p999_us = it->second.p999_us();
  }
  row.ok = true;
  return row;
}

std::int64_t vm_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  char line[256];
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(status);
  return kb;
}

struct OverloadResult {
  double offered_rate = 0.0;
  double achieved_rate = 0.0;
  std::uint64_t throttle_waits = 0;
  std::uint64_t overload_transitions = 0;
  std::uint64_t watchdog_stalls = 0;
  std::int64_t rss_delta_kb = 0;
  std::int64_t retained_bytes = 0;
  bool ok = false;
};

/// A probe at `factor` x the measured knee with the full protection layer
/// armed: CreditGate, log retention, and the stall watchdog. Demonstrates
/// that offered load above capacity yields bounded memory and a throttled
/// admitted stream.
OverloadResult run_overload_probe(Engine engine, Sdk sdk,
                                  const SweepConfig& sweep, double knee_rate,
                                  double factor) {
  OverloadResult result;
  result.offered_rate = factor * knee_rate;

  auto& gate = runtime::CreditGate::instance();
  gate.arm(runtime::CreditGate::Config{});
  auto& watchdog = runtime::Watchdog::instance();
  watchdog.arm(runtime::Watchdog::Config{.deadline_ms = 5'000});
  const std::uint64_t stalls_before = watchdog.stalls_detected();
  const auto metrics_before = runtime::MetricsRegistry::global().snapshot();
  const std::int64_t rss_before = vm_rss_kb();

  {
    kafka::Broker broker;
    broker.set_rtt_us(sweep.rtt_us);
    workload::create_benchmark_topic(broker, kSustainedIn).expect_ok();
    workload::create_benchmark_topic(broker, kSustainedOut).expect_ok();
    // Bounded broker memory: cap the input log well below the offered
    // volume so retention (not the run size) bounds it.
    broker
        .set_retention(kSustainedIn,
                       kafka::RetentionConfig{.max_bytes = 8 << 20})
        .expect_ok();

    harness::LoadGenConfig gen_config;
    gen_config.topic = kSustainedIn;
    gen_config.target_rate = result.offered_rate;
    gen_config.records = std::clamp(
        static_cast<std::uint64_t>(result.offered_rate * 2.0 * sweep.window_s),
        sweep.min_records, 2 * sweep.max_records);
    gen_config.seed = sweep.seed;
    gen_config.burst_factor = 2.0;  // burst on top of steady overload
    gen_config.burst_period_ms = 100;
    gen_config.burst_width_ms = 20;
    harness::LoadGenerator generator(broker, gen_config);

    queries::QueryContext ctx;
    ctx.broker = &broker;
    ctx.input_topic = kSustainedIn;
    ctx.output_topic = kSustainedOut;
    ctx.seed = sweep.seed;
    ctx.open_loop = true;

    Status engine_status = Status::ok();
    std::thread engine_thread([&] {
      engine_status = queries::run_query(engine, sdk, QueryId::kIdentity, ctx);
    });
    auto gen_report = generator.run();
    result.retained_bytes = broker.retained_bytes(kSustainedIn);
    broker.seal_topic(kSustainedIn).expect_ok();
    engine_thread.join();

    result.ok = gen_report.is_ok() && engine_status.is_ok();
    if (gen_report.is_ok()) {
      result.achieved_rate = gen_report.value().achieved_rate;
    }
  }

  const auto metrics_after = runtime::MetricsRegistry::global().snapshot();
  result.throttle_waits =
      metrics_after.counter("backpressure.throttle_waits") -
      metrics_before.counter("backpressure.throttle_waits");
  result.overload_transitions =
      metrics_after.counter("backpressure.overload_transitions") -
      metrics_before.counter("backpressure.overload_transitions");
  result.watchdog_stalls = watchdog.stalls_detected() - stalls_before;
  const std::int64_t rss_after = vm_rss_kb();
  result.rss_delta_kb =
      (rss_before > 0 && rss_after > 0) ? rss_after - rss_before : 0;
  watchdog.disarm();
  gate.disarm();
  return result;
}

Outcome section_sustained() {
  const SweepConfig sweep = sweep_config();
  std::printf(
      "=== Sustained-load sweep: max sustainable throughput, all 24 setups "
      "===\n");
  std::printf(
      "probe window %.0f ms, records <= %llu, %d bisections, RTT %lld us\n\n",
      sweep.window_s * 1e3,
      static_cast<unsigned long long>(sweep.max_records), kBisectProbes,
      static_cast<long long>(sweep.rtt_us));

  std::vector<Json> rows;
  bool all_ok = true;
  double knee = 0.0;
  for (const auto& key : setup_matrix()) {
    const SustainedRow row = sweep_setup(key, sweep);
    if (rows.empty()) knee = row.max_rate;
    std::printf(
        "%-16s %-10s max %9.0f ev/s  p50 %6llu us  p99 %7llu us  "
        "p999 %7llu us%s\n",
        harness::setup_label(key).c_str(), query_name(key.query).c_str(),
        row.max_rate, static_cast<unsigned long long>(row.p50_us),
        static_cast<unsigned long long>(row.p99_us),
        static_cast<unsigned long long>(row.p999_us),
        row.ok ? "" : "  [FAILED]");
    std::fflush(stdout);
    all_ok = all_ok && row.ok;
    rows.push_back(Json::object(
        {{"setup", harness::setup_label(key)},
         {"query", query_name(key.query)},
         {"max_rate", Json::fixed(row.max_rate, 0)},
         {"achieved_rate", Json::fixed(row.achieved_rate, 0)},
         {"drain_s", Json::fixed(row.drain_seconds, 3)},
         {"p50_us", row.p50_us},
         {"p99_us", row.p99_us},
         {"p999_us", row.p999_us}}));
  }

  // Overload demonstration at 2x the measured knee of the first setup
  // (Flink native Identity): gate + retention + watchdog armed, bursty
  // offered load.
  OverloadResult overload;
  if (knee > 0.0) {
    std::printf("\noverload probe: 2.0x knee (Flink P1, Identity), "
                "gate+retention armed\n");
    overload =
        run_overload_probe(Engine::kFlink, Sdk::kNative, sweep, knee, 2.0);
    std::printf(
        "  offered %.0f ev/s -> admitted %.0f ev/s, "
        "throttle_waits %llu, rss +%lld kB, retained %lld B, stalls %llu\n",
        overload.offered_rate, overload.achieved_rate,
        static_cast<unsigned long long>(overload.throttle_waits),
        static_cast<long long>(overload.rss_delta_kb),
        static_cast<long long>(overload.retained_bytes),
        static_cast<unsigned long long>(overload.watchdog_stalls));
    all_ok = all_ok && overload.ok;
  }

  const Json overload_json = Json::object(
      {{"offered_rate", Json::fixed(overload.offered_rate, 0)},
       {"achieved_rate", Json::fixed(overload.achieved_rate, 0)},
       {"throttle_waits", overload.throttle_waits},
       {"transitions", overload.overload_transitions},
       {"watchdog_stalls", overload.watchdog_stalls},
       {"rss_delta_kb", overload.rss_delta_kb},
       {"retained_bytes", overload.retained_bytes},
       {"ok", overload.ok}});
  return {.ok = all_ok,
          .doc = Json::object(
              {{"sustained", Json::object({{"rows", Json::array(rows)},
                                           {"overload", overload_json}})}})};
}

Outcome section_soak() {
  const SweepConfig sweep = sweep_config();
  std::printf("=== Soak: 1.2x capacity, backpressure + watchdog armed ===\n");
  // Keep the soak cheap: a coarse capacity estimate per combo, then one
  // overload run each. TSan slows everything ~10x, so the combos cover
  // each engine once rather than the full matrix.
  const std::pair<Engine, Sdk> combos[] = {{Engine::kFlink, Sdk::kNative},
                                           {Engine::kSpark, Sdk::kBeam},
                                           {Engine::kApex, Sdk::kNative}};
  const std::int64_t rss_budget_kb = env_i64("STREAMSHIM_SOAK_RSS_KB", 786'432);
  bool ok = true;
  for (const auto& [engine, sdk] : combos) {
    double knee = kStartRate;
    for (int i = 0; i < 3; ++i) {
      const ProbeResult probe =
          run_probe(engine, sdk, QueryId::kIdentity, sweep, knee, nullptr);
      if (!probe.ok) {
        std::fprintf(stderr, "soak: capacity probe failed\n");
        return {.ok = false};
      }
      if (!probe.sustainable) {
        knee /= 2.0;
        break;
      }
      knee *= 2.0;
    }
    const OverloadResult overload =
        run_overload_probe(engine, sdk, sweep, knee, 1.2);
    const bool combo_ok = overload.ok && overload.watchdog_stalls == 0 &&
                          (overload.rss_delta_kb < rss_budget_kb);
    std::printf(
        "%-7s %-7s offered %.0f -> %.0f ev/s, stalls %llu, "
        "rss +%lld kB  %s\n",
        queries::engine_name(engine), queries::sdk_name(sdk),
        overload.offered_rate, overload.achieved_rate,
        static_cast<unsigned long long>(overload.watchdog_stalls),
        static_cast<long long>(overload.rss_delta_kb),
        combo_ok ? "ok" : "FAILED");
    ok = ok && combo_ok;
  }
  return {.ok = ok};
}

int usage() {
  std::fprintf(stderr,
               "usage: dataplane <setups|profile|chaos|scaling|fusion|"
               "async_sinks|sustained|soak> [--parallelism 1,4]\n"
               "  --parallelism applies to scaling only\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string section = argv[1];
  std::vector<int> points = {1, 2, 4, 8, 16};
  if (argc > 2) {
    if (section != "scaling" || argc != 4 ||
        std::strcmp(argv[2], "--parallelism") != 0) {
      return usage();
    }
    points = parse_points(argv[3]);
    if (points.empty() || points.front() < 1) {
      std::fprintf(stderr, "bad parallelism points: %s\n", argv[3]);
      return 2;
    }
  }

  const std::map<std::string, std::function<Outcome()>> sections = {
      {"setups", section_setups},
      {"profile", section_profile},
      {"chaos", section_chaos},
      {"scaling", [&] { return section_scaling(points); }},
      {"fusion", section_fusion},
      {"async_sinks", section_async_sinks},
      {"sustained", section_sustained},
      {"soak", section_soak},
  };
  const auto it = sections.find(section);
  if (it == sections.end()) return usage();
  const Outcome outcome = it->second();
  const bool written = !outcome.doc || write_section(section, *outcome.doc);
  return outcome.ok && written ? 0 : 1;
}
