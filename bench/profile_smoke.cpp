// Profile smoke: the full setup matrix with the cost-attribution profiler
// armed, plus the armed-vs-disarmed overhead probe that CI gates on.
//
// Companion to perf_smoke (healthy data plane) and chaos_smoke (recovery
// plane): this target tracks *where the microseconds go* — the per-stage
// cost breakdown of every engine x SDK x query setup — and proves the
// profiler itself stays inside its <2% overhead budget. Results merge into
// BENCH_dataplane.json as a "profile" section (appended to perf_smoke's
// output when that file exists, standalone otherwise).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "runtime/profiler.hpp"

namespace {

using namespace dsps;

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
  auto config = bench::config_from_env();
  config.profile = true;  // the point of this bench
  std::printf("=== Profile smoke (cost attribution, all setups) ===\n");
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

  std::vector<std::pair<std::string, runtime::ProfileSnapshot>> per_setup;
  for (const auto& key : setups) {
    const std::string label = harness::setup_label(key) + " " +
                              workload::query_info(key.query).name;
    std::fprintf(stderr, "  profiling %-24s ...", label.c_str());
    auto measurements = harness.run_setup(key);
    measurements.status().expect_ok();
    const auto& profile = measurements.value().profile;
    std::fprintf(stderr, " %.1fms attributed\n",
                 static_cast<double>(profile.attributed_us()) / 1e3);
    per_setup.emplace_back(label, profile);
  }

  std::printf("\n%s\n",
              harness::render_profile_breakdown(per_setup).c_str());

  // Overhead probe: interleaved armed/disarmed Identity trials on the Flink
  // native setup (the highest record rate, so per-record scope cost shows
  // up first). The probe pins its own record count — at the reduced smoke
  // scales a single run is sub-millisecond and scheduler noise would
  // swamp a 2% budget — and each trial sums several back-to-back runs to
  // widen the measurement window. Best-of-N on both sides: co-tenant noise
  // only ever adds time, so the minimum is the robust estimator.
  auto& profiler = runtime::Profiler::instance();
  profiler.disarm();
  auto probe_config = config;
  probe_config.records = std::max<std::uint64_t>(config.records, 50'000);
  probe_config.profile = false;  // armed manually per trial below
  harness::BenchmarkHarness probe_harness(probe_config);
  const harness::SetupKey probe{.engine = queries::Engine::kFlink,
                                .sdk = queries::Sdk::kNative,
                                .query = workload::QueryId::kIdentity,
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

  // Merge into perf_smoke's BENCH_dataplane.json when present (CI runs
  // perf_smoke first); write a standalone document otherwise.
  const char* path = "BENCH_dataplane.json";

  using runtime::Stage;
  constexpr Stage kOrder[] = {Stage::kQueueWait, Stage::kDecode,
                              Stage::kUserFn,    Stage::kEncode,
                              Stage::kBrokerRtt, Stage::kCheckpoint,
                              Stage::kOther};
  std::string section = "  \"profile\": {\n";
  {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    \"overhead\": {\"disarmed_best_seconds\": %.6f, "
                  "\"armed_best_seconds\": %.6f, \"overhead_pct\": %.3f},\n",
                  best_disarmed, best_armed, overhead_pct);
    section += line;
  }
  section += "    \"setups\": [\n";
  for (std::size_t i = 0; i < per_setup.size(); ++i) {
    const auto& [label, profile] = per_setup[i];
    section += "      {\"setup\": \"" + json_escape(label) +
               "\", \"attributed_ms\": ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.3f",
                  static_cast<double>(profile.attributed_us()) / 1e3);
    section += value;
    section += ", \"shares\": {";
    for (std::size_t s = 0; s < std::size(kOrder); ++s) {
      std::snprintf(value, sizeof(value), "\"%s\": %.4f",
                    std::string(runtime::stage_name(kOrder[s])).c_str(),
                    profile.share(kOrder[s]));
      section += value;
      if (s + 1 < std::size(kOrder)) section += ", ";
    }
    section += "}}";
    section += i + 1 < per_setup.size() ? ",\n" : "\n";
  }
  section += "    ]\n  }\n";

  if (!bench::merge_section_into_dataplane("profile", section)) return 1;
  std::printf("\nwrote profile section into %s\n", path);

  // Fail loudly if any setup attributed nothing — that means an engine's
  // execution path fell off the unified invoker.
  bool all_attributed = true;
  for (const auto& [label, profile] : per_setup) {
    if (profile.attributed_us() == 0) {
      std::fprintf(stderr, "no attributed time for %s\n", label.c_str());
      all_attributed = false;
    }
  }
  return all_attributed ? 0 : 1;
}
