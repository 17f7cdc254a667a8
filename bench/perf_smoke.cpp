// Data-plane perf smoke: all four StreamBench queries (Identity, Sample,
// Projection, Grep) across all 6 engine/SDK setups.
//
// Not a figure reproduction — this target tracks the *substrate* throughput
// (records/sec) over time so that performance PRs have a trajectory to
// compare against. Writes BENCH_dataplane.json next to the working
// directory; check the file in when the numbers move.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/metrics.hpp"

namespace {

using namespace dsps;

struct SetupResult {
  harness::SetupKey key;
  double mean_seconds = 0.0;
  double best_seconds = 0.0;
  double records_per_sec = 0.0;
};

std::string json_escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main() {
  const auto config = bench::config_from_env();
  std::printf("=== Data-plane perf smoke (all 4 queries, all setups) ===\n");
  bench::print_scale(config);

  harness::BenchmarkHarness harness(config);
  std::vector<harness::SetupKey> setups;
  for (const auto query :
       {workload::QueryId::kIdentity, workload::QueryId::kSample,
        workload::QueryId::kProjection, workload::QueryId::kGrep}) {
    for (const auto engine : {queries::Engine::kFlink, queries::Engine::kSpark,
                              queries::Engine::kApex}) {
      for (const auto sdk : {queries::Sdk::kNative, queries::Sdk::kBeam}) {
        setups.push_back(harness::SetupKey{
            .engine = engine, .sdk = sdk, .query = query, .parallelism = 1});
      }
    }
  }

  const auto set = bench::run_setups(harness, setups);
  std::vector<SetupResult> results;
  for (const auto& key : setups) {
    if (!set.contains(key)) continue;
    SetupResult result;
    result.key = key;
    const auto times = set.get(key).execution_times();
    result.mean_seconds = mean(times);
    // Throughput is computed from the best run: the regression gate compares
    // records_per_sec against a committed baseline, and the minimum time is
    // the robust estimator for that — co-tenant noise only ever adds time.
    result.best_seconds =
        times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
    result.records_per_sec =
        result.best_seconds > 0.0
            ? static_cast<double>(config.records) / result.best_seconds
            : 0.0;
    results.push_back(result);
  }

  std::printf("\n%-18s %-10s %12s %14s\n", "setup", "query", "seconds",
              "records/sec");
  for (const auto& r : results) {
    std::printf("%-18s %-10s %12.4f %14.0f\n",
                harness::setup_label(r.key).c_str(),
                workload::query_info(r.key.query).name.c_str(), r.mean_seconds,
                r.records_per_sec);
  }

  // Slowdown factors (Beam / native) for the shape record.
  std::printf("\nslowdown factors (Beam mean / native mean):\n");
  struct Slowdown {
    std::string engine;
    std::string query;
    double factor;
  };
  std::vector<Slowdown> slowdowns;
  for (const auto query :
       {workload::QueryId::kIdentity, workload::QueryId::kSample,
        workload::QueryId::kProjection, workload::QueryId::kGrep}) {
    for (const auto engine : {queries::Engine::kFlink, queries::Engine::kSpark,
                              queries::Engine::kApex}) {
      const double factor = harness::slowdown_factor(set, engine, query);
      slowdowns.push_back(Slowdown{queries::engine_name(engine),
                                   workload::query_info(query).name, factor});
      std::printf("  %-6s %-10s %.2fx\n", queries::engine_name(engine),
                  workload::query_info(query).name.c_str(), factor);
    }
  }

  // STREAMSHIM_PROFILE=1: append the per-setup cost breakdown.
  const std::string breakdown =
      harness::render_profile_breakdown(bench::setup_profiles(set));
  if (!breakdown.empty()) std::printf("\n%s", breakdown.c_str());

  // Always-on serde activity: what the coder layer encoded/decoded per
  // setup.
  const std::string serde = harness::render_serde_table(bench::setup_serde(set));
  if (!serde.empty()) std::printf("\n%s", serde.c_str());

  const char* path = "BENCH_dataplane.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out, "{\n  \"records\": %llu,\n  \"runs\": %d,\n",
               static_cast<unsigned long long>(config.records), config.runs);
  std::fprintf(out, "  \"broker_rtt_us\": %lld,\n",
               static_cast<long long>(config.broker_rtt_us));
  std::fprintf(out, "  \"setups\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"setup\": \"%s\", \"query\": \"%s\", "
                 "\"seconds\": %.6f, \"best_seconds\": %.6f, "
                 "\"records_per_sec\": %.1f}%s\n",
                 json_escape(harness::setup_label(r.key)).c_str(),
                 json_escape(workload::query_info(r.key.query).name).c_str(),
                 r.mean_seconds, r.best_seconds, r.records_per_sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"slowdown_factors\": [\n");
  for (std::size_t i = 0; i < slowdowns.size(); ++i) {
    std::fprintf(out,
                 "    {\"engine\": \"%s\", \"query\": \"%s\", "
                 "\"factor\": %.4f}%s\n",
                 slowdowns[i].engine.c_str(), slowdowns[i].query.c_str(),
                 slowdowns[i].factor,
                 i + 1 < slowdowns.size() ? "," : "");
  }
  // Unified substrate metrics: every engine published its per-job snapshot
  // into the process-wide registry (prefixed flink./spark./apex.), so one
  // snapshot covers all 12 setups through one schema.
  std::fprintf(out, "  ],\n  \"metrics\": %s\n}\n",
               runtime::MetricsRegistry::global().snapshot().to_json().c_str());
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return 0;
}
