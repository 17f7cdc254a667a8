#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <sstream>

#include "common/clock.hpp"
#include "common/stats.hpp"
#include "kafka/broker.hpp"
#include "open_loop.hpp"
#include "oracle.hpp"
#include "probes.hpp"
#include "queries/query_factory.hpp"
#include "runtime/metrics.hpp"
#include "spans.hpp"
#include "workload/aol_generator.hpp"
#include "workload/data_sender.hpp"

namespace perfbench {

namespace {

using dsps::Result;
using dsps::Status;
using dsps::queries::Engine;
using dsps::queries::Sdk;
using dsps::runtime::MetricsSnapshot;
using dsps::workload::QueryId;

/// One broker-RTT model for every workload: the harness default.
constexpr std::int64_t kRttUs = 25;

/// The paper's six P1 setups, with the repo's default knobs (fusion, async
/// sinks and coder elision off: the paper-faithful plans).
struct Setup {
  Engine engine;
  Sdk sdk;
  const char* key;
  const char* engine_key;
};
constexpr Setup kSetups[] = {
    {Engine::kFlink, Sdk::kNative, "flink.native", "flink"},
    {Engine::kFlink, Sdk::kBeam, "flink.beam", "flink"},
    {Engine::kSpark, Sdk::kNative, "spark.native", "spark"},
    {Engine::kSpark, Sdk::kBeam, "spark.beam", "spark"},
    {Engine::kApex, Sdk::kNative, "apex.native", "apex"},
    {Engine::kApex, Sdk::kBeam, "apex.beam", "apex"},
};
constexpr std::size_t kSetupCount = std::size(kSetups);
constexpr const char* kEngines[] = {"flink", "spark", "apex"};

/// Open loop: one fixed offered rate, about a quarter of the slowest setup's
/// capacity (Apex Beam Identity sustains ~40k records/s). At half its
/// capacity Apex Beam's latency swings 3-25 ms with the load of a shared
/// host, because a slower host brings that rate close to its capacity.
constexpr double kStreamRate = 10'000.0;
/// Open loop: latency skips the first tenth of each run (engine start-up).
constexpr double kSettleFraction = 0.1;

struct Workload {
  const char* name;
  QueryId query;
  bool open_loop;
  /// Input records per setup, in kSetups order. Closed loop: sized so each
  /// run's output span lasts tens of milliseconds or more. Apex Beam
  /// Identity pays one RTT per record, so it reads a short prefix. Spark
  /// native Grep reads 100k records, which its receiver pulls within one
  /// micro-batch interval; at 500k the median match lands in one interval or
  /// the next depending on host speed, and its latency jumps by 50 ms. Open
  /// loop: records offered per run, i.e. a run lasts records / kStreamRate.
  std::uint64_t records[kSetupCount];
};

constexpr Workload kWorkloads[] = {
    {"identity_batch", QueryId::kIdentity, false,
     {200'000, 200'000, 200'000, 200'000, 200'000, 8'000}},
    {"grep_batch", QueryId::kGrep, false,
     {500'000, 100'000, 100'000, 100'000, 500'000, 100'000}},
    {"identity_stream", QueryId::kIdentity, true,
     {5'000, 5'000, 5'000, 5'000, 5'000, 5'000}},
};

/// What one setup run measured.
struct Sample {
  bool traced = false;
  std::int64_t in_records = 0;
  std::int64_t out_records = 0;
  double exec_us_per_rec = 0.0;
  double lat_p50_ms = 0.0;
  double lat_p99_ms = 0.0;
  std::int64_t lat_samples = 0;
  double startup_ms = 0.0;
  double drain_ms = 0.0;
  std::int64_t append_runs = 0;
  std::int64_t backlog_max = 0;
  // Registry deltas, traced rounds only.
  double serde_encode = 0.0;
  double serde_decode = 0.0;
  double hops = 0.0;
  double spark_batches = 0.0;
  double spark_records = 0.0;
  double apex_containers = 0.0;
};

struct SetupState {
  std::vector<Sample> samples;
  std::string plan;  // Flink and Apex only
};

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : dsps::percentile(std::move(values), 50.0);
}

/// The end-to-end statistic over a run's rounds: the mean of the middle 80%
/// of the values. Like the median it ignores the odd stalled round, but where
/// a setup's rounds fall into two modes (Spark's first micro-batch races its
/// receiver, so a run spans one batch interval more or less) it moves with
/// the share of each mode instead of jumping from one mode to the other.
double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

template <typename Field>
std::vector<double> values_of(const std::vector<Sample>& samples, Field field,
                              bool traced_only = false) {
  std::vector<double> values;
  for (const Sample& s : samples) {
    if (!traced_only || s.traced) values.push_back(static_cast<double>(s.*field));
  }
  return values;
}

template <typename Field>
double median_of(const std::vector<Sample>& samples, Field field,
                 bool traced_only = false) {
  return median(values_of(samples, field, traced_only));
}

double counter_delta(const MetricsSnapshot& before,
                     const MetricsSnapshot& after, const std::string& name) {
  return static_cast<double>(after.counter(name) - before.counter(name));
}

/// Tasks in a rendered plan: Flink vertices ("[k] ...") or Apex operators
/// (indented under their container).
int plan_tasks(Engine engine, const std::string& plan) {
  std::istringstream lines(plan);
  int tasks = 0;
  for (std::string line; std::getline(lines, line);) {
    if (engine == Engine::kFlink ? line.rfind('[', 0) == 0
                                 : line.rfind("    ", 0) == 0) {
      ++tasks;
    }
  }
  return tasks;
}

/// Registry counters whose deltas count records crossing a queue: the
/// records entering the target of every Flink edge (chained operators
/// share a vertex) and of every Apex stream that is not THREAD_LOCAL.
std::vector<std::string> hop_counters(Engine engine, const std::string& plan) {
  std::vector<std::string> counters;
  std::istringstream lines(plan);
  bool in_edges = false;
  for (std::string line; std::getline(lines, line);) {
    const std::size_t arrow = line.find(" -> ");
    const std::size_t bracket = line.rfind(" [");
    if (engine == Engine::kFlink) {
      if (line == "Edges:") in_edges = true;
      if (!in_edges || arrow == std::string::npos ||
          bracket == std::string::npos || bracket < arrow) {
        continue;
      }
      counters.push_back("flink.vertex." +
                         line.substr(arrow + 4, bracket - arrow - 4) +
                         ".records_in");
    } else if (engine == Engine::kApex && line.rfind("Stream ", 0) == 0 &&
               arrow != std::string::npos && bracket != std::string::npos &&
               line.find("THREAD_LOCAL", bracket) == std::string::npos) {
      counters.push_back("apex.operator." +
                         line.substr(arrow + 4, bracket - arrow - 4) +
                         ".tuples_in");
    }
  }
  return counters;
}

/// What both loops measure the same way, from one checked output log and
/// the latency of each output record.
Sample measure(const OutputCheck& check, const std::vector<double>& latency_ms,
               std::int64_t in_records, dsps::Timestamp call_wall,
               dsps::Timestamp return_wall, bool traced) {
  Sample sample;
  sample.traced = traced;
  sample.in_records = in_records;
  sample.out_records = check.records;
  if (in_records > 0) {
    sample.exec_us_per_rec =
        static_cast<double>(check.last_append - check.first_append) /
        static_cast<double>(in_records);
  }
  if (!latency_ms.empty()) {
    sample.lat_p50_ms = dsps::percentile(latency_ms, 50.0);
    sample.lat_p99_ms = dsps::percentile(latency_ms, 99.0);
  }
  sample.lat_samples = static_cast<std::int64_t>(latency_ms.size());
  sample.startup_ms = static_cast<double>(check.first_append - call_wall) / 1e3;
  sample.drain_ms = static_cast<double>(return_wall - check.last_append) / 1e3;
  sample.append_runs = check.append_runs;
  return sample;
}

std::vector<dsps::kafka::StoredRecord> fetch_all(dsps::kafka::Broker& broker,
                                                 const std::string& topic) {
  std::vector<dsps::kafka::StoredRecord> out;
  const auto end = broker.end_offset({topic, 0});
  if (!end.is_ok()) return out;
  out.reserve(static_cast<std::size_t>(end.value()));
  while (static_cast<std::int64_t>(out.size()) < end.value()) {
    auto fetched = broker.fetch({topic, 0},
                                static_cast<std::int64_t>(out.size()),
                                65'536, out);
    if (!fetched.is_ok() || fetched.value() == 0) break;
  }
  return out;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

class Bench {
 public:
  Bench(const Options& options, const Workload& workload)
      : options_(options), workload_(workload), spans_(options.trace) {}

  Result<Outcome> run();

 private:
  void prepare();
  void round(int index);
  void run_closed(dsps::kafka::Broker& broker, std::size_t setup, int round,
                  bool traced);
  void run_open(dsps::kafka::Broker& broker,
                const std::vector<std::string>& pool, std::size_t setup,
                int round, bool traced);
  /// Snapshot-delta fields of a traced sample.
  void add_registry_deltas(Sample& sample, std::size_t setup,
                           const MetricsSnapshot& before,
                           const MetricsSnapshot& after) const;
  void record(std::size_t setup, Sample sample, const std::string& failure);
  void probes();
  Outcome finish();

  const Options& options_;
  const Workload& workload_;
  SpanRecorder spans_;
  /// The oracle's reference output, by input record count.
  std::map<std::uint64_t, std::vector<std::string>> expected_;
  SetupState setups_[kSetupCount];
  std::vector<double> setup_s_;
  std::vector<double> ingest_s_;
  std::vector<double> late_max_ms_;
  std::vector<double> late_p99_ms_;
  double udf_ns_ = 0.0;
  double cpu_s_ = 0.0;
  int rounds_ = 0;
  double first_round_rss_mb_ = 0.0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  // Unit costs from the probes (traced runs).
  double append_ns_ = 0.0;
  double rtt_ns_ = 0.0;
  double fetch_ns_ = 0.0;
  double encode_ns_ = 0.0;
  double decode_ns_ = 0.0;
  double queue_hop_ns_ = 0.0;
  double spsc_hop_ns_ = 0.0;
};

void Bench::prepare() {
  // The reference is computed on this thread with the shared predicates;
  // its timing is the single-threaded baseline (workload.udf_ns_per_rec).
  std::int64_t udf_us = 0;
  std::int64_t udf_records = 0;
  for (const std::uint64_t records : workload_.records) {
    if (expected_.count(records) != 0) continue;
    const std::vector<std::string> input = generate_input(records, options_.seed);
    auto span = spans_.open("oracle.reference", -1);
    const std::int64_t start = dsps::steady_clock_us();
    expected_[records] = reference_output(workload_.query, input);
    udf_us += dsps::steady_clock_us() - start;
    udf_records += static_cast<std::int64_t>(records);
  }
  udf_ns_ = static_cast<double>(udf_us) * 1e3 / static_cast<double>(udf_records);
}

void Bench::record(std::size_t setup, Sample sample,
                   const std::string& failure) {
  ++attempted_;
  if (!failure.empty()) {
    ++failed_;
    failures_.push_back(std::string(kSetups[setup].key) + ": " + failure);
    return;
  }
  setups_[setup].samples.push_back(sample);
}

void Bench::add_registry_deltas(Sample& sample, std::size_t setup,
                                const MetricsSnapshot& before,
                                const MetricsSnapshot& after) const {
  sample.serde_encode =
      counter_delta(before, after, "runtime.serde.encode.records");
  sample.serde_decode =
      counter_delta(before, after, "runtime.serde.decode.records");
  for (const std::string& counter :
       hop_counters(kSetups[setup].engine, setups_[setup].plan)) {
    sample.hops += counter_delta(before, after, counter);
  }
  sample.spark_batches = counter_delta(before, after, "spark.batch.count");
  sample.spark_records = counter_delta(before, after, "spark.input.records");
  sample.apex_containers = after.gauge("apex.app.containers");
}

void Bench::run_closed(dsps::kafka::Broker& broker, std::size_t setup,
                       int round, bool traced) {
  const Setup& s = kSetups[setup];
  const std::uint64_t records = workload_.records[setup];
  const std::string input_topic = "in-" + std::to_string(records);
  const std::string output_topic =
      std::string("out-") + s.key + "-" + std::to_string(round);
  dsps::workload::create_benchmark_topic(broker, output_topic).expect_ok();

  dsps::queries::QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = input_topic;
  ctx.output_topic = output_topic;
  ctx.seed = options_.seed;

  // Closed loop: the input is offered once this run's topics exist; the
  // offer is late by whatever the benchmark does before launching the job.
  const std::int64_t ready_us = dsps::steady_clock_us();
  MetricsSnapshot before;
  MetricsSnapshot after;
  if (traced) before = dsps::runtime::MetricsRegistry::global().snapshot();
  const double late_ms =
      static_cast<double>(dsps::steady_clock_us() - ready_us) / 1e3;
  late_max_ms_.push_back(late_ms);
  late_p99_ms_.push_back(late_ms);
  const dsps::Timestamp call_wall = dsps::wall_clock_now();
  Status status = Status::ok();
  {
    auto span = spans_.open(std::string("run_query.") + s.key, round);
    status = dsps::queries::run_query(s.engine, s.sdk, workload_.query, ctx);
  }
  const dsps::Timestamp return_wall = dsps::wall_clock_now();
  if (traced) after = dsps::runtime::MetricsRegistry::global().snapshot();

  OutputCheck check;
  std::vector<double> latency_ms;
  {
    auto span = spans_.open("fetch_verify", round);
    const auto output = fetch_all(broker, output_topic);
    check = check_output(output, expected_.at(records));
    latency_ms.reserve(output.size());
    for (const auto& r : output) {
      latency_ms.push_back(static_cast<double>(r.timestamp - call_wall) / 1e3);
    }
  }
  (void)broker.delete_topic(output_topic);

  Sample sample = measure(check, latency_ms, static_cast<std::int64_t>(records),
                          call_wall, return_wall, traced);
  // Closed loop: the whole input is due when the job starts.
  sample.backlog_max = static_cast<std::int64_t>(records);
  if (traced) add_registry_deltas(sample, setup, before, after);
  record(setup, sample,
         !status.is_ok() ? status.to_string() : check.reason);
}

void Bench::run_open(dsps::kafka::Broker& broker,
                     const std::vector<std::string>& pool, std::size_t setup,
                     int round, bool traced) {
  const Setup& s = kSetups[setup];
  const std::string suffix = std::string(s.key) + "-" + std::to_string(round);
  const std::string input_topic = "in-" + suffix;
  const std::string output_topic = "out-" + suffix;
  dsps::workload::create_benchmark_topic(broker, input_topic).expect_ok();
  dsps::workload::create_benchmark_topic(broker, output_topic).expect_ok();

  dsps::queries::QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = input_topic;
  ctx.output_topic = output_topic;
  ctx.seed = options_.seed;
  ctx.open_loop = true;

  MetricsSnapshot before;
  MetricsSnapshot after;
  if (traced) before = dsps::runtime::MetricsRegistry::global().snapshot();
  OpenLoopDriver driver(broker, pool, kStreamRate, input_topic, output_topic);
  Status status = Status::ok();
  OpenLoopReport report;
  dsps::Timestamp call_wall = 0;
  {
    auto span = spans_.open(std::string("run_query.") + s.key, round);
    driver.start();
    call_wall = dsps::wall_clock_now();
    status = dsps::queries::run_query(s.engine, s.sdk, workload_.query, ctx);
    report = driver.finish();
  }
  const dsps::Timestamp return_wall = dsps::wall_clock_now();
  if (traced) after = dsps::runtime::MetricsRegistry::global().snapshot();

  OutputCheck check;
  std::vector<double> latency_ms;
  {
    auto span = spans_.open("fetch_verify", round);
    const auto output = fetch_all(broker, output_topic);
    check = check_output(output, expected_.at(pool.size()));
    const auto settle =
        static_cast<std::size_t>(kSettleFraction * static_cast<double>(output.size()));
    for (std::size_t j = settle; j < output.size(); ++j) {
      latency_ms.push_back(
          static_cast<double>(output[j].timestamp -
                              driver.due_wall_us(static_cast<std::int64_t>(j))) /
          1e3);
    }
  }
  (void)broker.delete_topic(input_topic);
  (void)broker.delete_topic(output_topic);

  late_max_ms_.push_back(report.late_max_ms);
  late_p99_ms_.push_back(report.late_p99_ms);
  Sample sample = measure(check, latency_ms, report.sent, call_wall,
                          return_wall, traced);
  sample.backlog_max = report.backlog_max;
  if (traced) add_registry_deltas(sample, setup, before, after);

  std::string failure;
  if (!status.is_ok()) {
    failure = status.to_string();
  } else if (!report.error.empty()) {
    failure = "generator: " + report.error;
  } else if (!check.ok) {
    failure = check.reason;
  } else if (report.backlog_growing) {
    failure = format("backlog kept growing (max %lld records)",
                     static_cast<long long>(report.backlog_max));
  }
  record(setup, sample, failure);
}

void Bench::round(int index) {
  const bool traced = options_.trace && index % 2 == 0;
  spans_.set_enabled(traced);
  auto round_span = spans_.open("round", index);
  dsps::kafka::Broker broker;
  broker.set_rtt_us(kRttUs);

  // Set-up: topic creation plus ingest (closed loop) or pool generation
  // (open loop), up to the first engine launch.
  const std::int64_t start = dsps::steady_clock_us();
  std::int64_t ingest_us = 0;
  std::vector<std::string> pool;
  {
    auto span = spans_.open("setup", index);
    if (workload_.open_loop) {
      auto generate = spans_.open("ingest", index);
      pool = generate_input(workload_.records[0], options_.seed);
      ingest_us = dsps::steady_clock_us() - start;
    } else {
      for (const auto& [records, expected] : expected_) {
        const std::string topic = "in-" + std::to_string(records);
        dsps::workload::create_benchmark_topic(broker, topic).expect_ok();
        auto ingest = spans_.open("ingest", index);
        const std::int64_t ingest_start = dsps::steady_clock_us();
        dsps::workload::DataSender sender(
            broker, dsps::workload::DataSenderConfig{.topic = topic});
        sender
            .send_generated(dsps::workload::AolGenerator(
                dsps::workload::AolGeneratorConfig{.record_count = records,
                                                   .seed = options_.seed}))
            .status()
            .expect_ok();
        ingest_us += dsps::steady_clock_us() - ingest_start;
      }
    }
  }
  setup_s_.push_back(static_cast<double>(dsps::steady_clock_us() - start) /
                     1e6);
  ingest_s_.push_back(static_cast<double>(ingest_us) / 1e6);

  for (std::size_t i = 0; i < kSetupCount; ++i) {
    if (index == 0 && kSetups[i].engine != Engine::kSpark) {
      dsps::queries::QueryContext ctx;
      ctx.broker = &broker;
      ctx.input_topic = "plan-in";
      ctx.output_topic = "plan-out";
      auto plan = dsps::queries::execution_plan(
          kSetups[i].engine, kSetups[i].sdk, workload_.query, ctx);
      if (plan.is_ok()) setups_[i].plan = plan.value();
    }
    if (workload_.open_loop) {
      run_open(broker, pool, i, index, traced);
    } else {
      run_closed(broker, i, index, traced);
    }
  }
}

void Bench::probes() {
  // Unit costs on the workload's own records (its largest input).
  const std::vector<std::string> lines =
      generate_input(expected_.rbegin()->first, options_.seed);
  std::vector<double> recs_per_append;
  for (const SetupState& state : setups_) {
    for (const Sample& s : state.samples) {
      if (s.append_runs > 0) {
        recs_per_append.push_back(static_cast<double>(s.out_records) /
                                  static_cast<double>(s.append_runs));
      }
    }
  }
  const auto batch = static_cast<std::size_t>(
      std::max(1.0, std::round(median(recs_per_append))));
  {
    auto span = spans_.open("probe.kafka.append", -1);
    append_ns_ = probe_append_ns(lines, batch);
  }
  {
    auto span = spans_.open("probe.kafka.rtt", -1);
    rtt_ns_ = probe_rtt_ns(lines, kRttUs);
  }
  {
    auto span = spans_.open("probe.kafka.fetch", -1);
    // The engines' sources poll up to 1000 records per fetch.
    fetch_ns_ = probe_fetch_ns(lines, 1000);
  }
  {
    auto span = spans_.open("probe.beam.coder", -1);
    probe_coder_ns(lines, encode_ns_, decode_ns_);
  }
  {
    auto span = spans_.open("probe.common.queue", -1);
    queue_hop_ns_ = probe_queue_hop_ns(lines, /*spsc=*/false);
    spsc_hop_ns_ = probe_queue_hop_ns(lines, /*spsc=*/true);
  }
}

Result<Outcome> Bench::run() {
  prepare();
  const std::int64_t start = dsps::steady_clock_us();
  const auto budget_us = static_cast<std::int64_t>(options_.seconds * 1e6);
  const double cpu_start = cpu_seconds();
  std::int64_t longest_round_us = 0;
  for (int index = 0;; ++index) {
    const std::int64_t round_start = dsps::steady_clock_us();
    round(index);
    if (index == 0) first_round_rss_mb_ = peak_rss_mb();
    rounds_ = index + 1;
    const std::int64_t now = dsps::steady_clock_us();
    longest_round_us = std::max(longest_round_us, now - round_start);
    if (now - start + longest_round_us > budget_us) break;
  }
  cpu_s_ = cpu_seconds() - cpu_start;
  if (options_.trace) {
    spans_.set_enabled(true);
    probes();
  }
  if (!options_.spans_path.empty() && options_.trace) {
    if (Status s = spans_.write_json(options_.spans_path); !s.is_ok()) {
      return s;
    }
  }
  return finish();
}

Outcome Bench::finish() {
  Outcome outcome;
  outcome.attempted = attempted_;
  outcome.failed = failed_;
  outcome.correct = failed_ == 0 && attempted_ > 0;
  for (const std::string& failure : failures_) {
    outcome.report.push_back("FAILED " + failure);
  }
  std::map<std::string, double> values;

  double exec[kSetupCount] = {};
  for (std::size_t i = 0; i < kSetupCount; ++i) {
    const auto& samples = setups_[i].samples;
    const std::string key = kSetups[i].key;
    exec[i] = trimmed_mean(values_of(samples, &Sample::exec_us_per_rec));
    values["exec_us_per_rec." + key] = exec[i];
    values["lat_p50_ms." + key] =
        trimmed_mean(values_of(samples, &Sample::lat_p50_ms));
  }
  values["setup_s"] = median(setup_s_);
  // Peak RSS over the first round: one pass over the six setups. Later
  // rounds raise the peak further (Flink Beam's resident set grows run after
  // run), so the whole-run peak would depend on how many rounds fit; that
  // growth is the per-layer proc.rss_growth_mb_per_round.
  values["rss_mb"] = first_round_rss_mb_;
  values["proc.rss_growth_mb_per_round"] =
      rounds_ > 1 ? (peak_rss_mb() - first_round_rss_mb_) / (rounds_ - 1) : 0.0;

  // --- per layer ---
  values["workload.ingest_s"] = median(ingest_s_);
  values["workload.udf_ns_per_rec"] = udf_ns_;
  values["workload.gen_late_max_ms"] = median(late_max_ms_);
  values["workload.gen_late_p99_ms"] = median(late_p99_ms_);
  values["kafka.append_ns_per_rec"] = append_ns_;
  values["kafka.fetch_ns_per_rec"] = fetch_ns_;
  values["kafka.rtt_ns_per_flush"] = rtt_ns_;
  values["beam.encode_ns_per_rec"] = encode_ns_;
  values["beam.decode_ns_per_rec"] = decode_ns_;
  values["common.queue_hop_ns"] = queue_hop_ns_;
  values["common.spsc_hop_ns"] = spsc_hop_ns_;
  values["proc.cpu_s"] = cpu_s_;

  if (options_.trace) {
    outcome.report.push_back(format(
        "%-20s %9s %9s %8s %8s %8s %8s %8s %9s %9s", "accounting (us/rec)",
        "exec", "rtt", "append", "fetch", "serde", "queue", "udf",
        "predicted", "residual"));
  }
  std::vector<double> overhead;
  for (std::size_t i = 0; i < kSetupCount; ++i) {
    const Setup& s = kSetups[i];
    const auto& samples = setups_[i].samples;
    const std::string key = s.key;
    const double in = std::max(1.0, median_of(samples, &Sample::in_records));
    const double out = median_of(samples, &Sample::out_records);
    const double runs = median_of(samples, &Sample::append_runs);
    values["kafka.append_runs." + key] = runs;
    values["kafka.recs_per_append." + key] = runs > 0 ? out / runs : 0.0;
    values["kafka.rtt_s." + key] = runs * rtt_ns_ / 1e9;
    values["kafka.backlog_max_recs." + key] =
        median_of(samples, &Sample::backlog_max);
    values[key + ".startup_ms"] = median_of(samples, &Sample::startup_ms);
    values[key + ".drain_ms"] = median_of(samples, &Sample::drain_ms);
    values["lat_p99_ms." + key] = median_of(samples, &Sample::lat_p99_ms);
    std::int64_t lat_samples = 0;
    for (const Sample& sample : samples) lat_samples += sample.lat_samples;
    values["lat_samples." + key] = static_cast<double>(lat_samples);
    if (s.engine != Engine::kSpark) {
      values[key + ".plan_tasks"] = plan_tasks(s.engine, setups_[i].plan);
    }
    if (s.engine == Engine::kSpark) {
      const double batches =
          median_of(samples, &Sample::spark_batches, /*traced_only=*/true);
      values[key + ".recs_per_batch"] =
          batches > 0 ? median_of(samples, &Sample::spark_records, true) /
                            batches
                      : 0.0;
    }
    if (s.engine == Engine::kApex) {
      values[key + ".containers"] =
          median_of(samples, &Sample::apex_containers, true);
    }

    // Accounting: count x unit cost per layer, in µs per input record.
    const double serde_recs = median_of(samples, &Sample::serde_encode, true);
    const double serde_decodes =
        median_of(samples, &Sample::serde_decode, true);
    const double hops = median_of(samples, &Sample::hops, true);
    const double hop_ns =
        s.engine == Engine::kFlink ? spsc_hop_ns_ : queue_hop_ns_;
    const double rtt = runs * rtt_ns_ / 1e3 / in;
    const double append = out * append_ns_ / 1e3 / in;
    const double fetch = fetch_ns_ / 1e3;
    const double serde =
        (serde_recs * encode_ns_ + serde_decodes * decode_ns_) / 1e3 / in;
    const double queue = hops * hop_ns / 1e3 / in;
    const double udf = udf_ns_ / 1e3;
    const double predicted = rtt + append + fetch + serde + queue + udf;
    const double residual = exec[i] - predicted;
    values["predicted_us_per_rec." + key] = predicted;
    values["residual_frac." + key] = exec[i] > 0 ? residual / exec[i] : 0.0;
    if (s.sdk == Sdk::kBeam) {
      values["beam.serde_recs." + std::string(s.engine_key)] = serde_recs;
    }
    if (options_.trace) {
      outcome.report.push_back(
          format("%-20s %9.3f %9.3f %8.3f %8.3f %8.3f %8.3f %8.3f %9.3f %9.3f",
                 s.key, exec[i], rtt, append, fetch, serde, queue, udf,
                 predicted, residual));
    }

    // Tracing overhead: traced rounds against untraced rounds, same run.
    std::vector<double> traced;
    std::vector<double> untraced;
    for (const Sample& sample : samples) {
      (sample.traced ? traced : untraced).push_back(sample.exec_us_per_rec);
    }
    if (!traced.empty() && !untraced.empty() && trimmed_mean(untraced) > 0) {
      overhead.push_back(trimmed_mean(traced) / trimmed_mean(untraced) - 1.0);
    }
  }
  values["trace.overhead_frac"] = median(overhead);
  for (std::size_t e = 0; e < std::size(kEngines); ++e) {
    const double native = exec[2 * e];
    const double beam = exec[2 * e + 1];
    const std::string engine = kEngines[e];
    values["beam.overhead_us_per_rec." + engine] = beam - native;
    values["beam.slowdown." + engine] = native > 0 ? beam / native : 0.0;
  }

  if (options_.trace) {
    outcome.report.push_back(format("%-28s %6s %12s %12s", "span", "count",
                                    "total_ms", "self_ms"));
    for (const SpanTotals& t : spans_.totals()) {
      outcome.report.push_back(format(
          "%-28s %6lld %12.3f %12.3f", t.name.c_str(),
          static_cast<long long>(t.count), static_cast<double>(t.total_us) / 1e3,
          static_cast<double>(t.self_us) / 1e3));
    }
  }

  for (const MetricSpec& spec :
       options_.trace ? per_layer_specs() : end_to_end_specs()) {
    const auto it = values.find(spec.name);
    dsps::require(it != values.end(),
                  ("metric not computed: " + spec.name).c_str());
    outcome.metrics.push_back(MetricValue{spec.name, spec.unit, it->second});
  }
  return outcome;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

std::vector<MetricSpec> end_to_end_specs() {
  std::vector<MetricSpec> specs = {{"setup_s", "s"}, {"rss_mb", "MB"}};
  for (const Setup& s : kSetups) {
    specs.push_back({std::string("exec_us_per_rec.") + s.key, "us/rec"});
  }
  for (const Setup& s : kSetups) {
    specs.push_back({std::string("lat_p50_ms.") + s.key, "ms"});
  }
  return specs;
}

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs = {
      {"workload.ingest_s", "s"},
      {"workload.udf_ns_per_rec", "ns/rec"},
      {"workload.gen_late_max_ms", "ms"},
      {"workload.gen_late_p99_ms", "ms"},
      {"kafka.append_ns_per_rec", "ns/rec"},
      {"kafka.fetch_ns_per_rec", "ns/rec"},
      {"kafka.rtt_ns_per_flush", "ns"},
  };
  for (const char* metric :
       {"kafka.append_runs.", "kafka.recs_per_append.", "kafka.backlog_max_recs."}) {
    for (const Setup& s : kSetups) specs.push_back({metric + std::string(s.key), "count"});
  }
  for (const Setup& s : kSetups) {
    specs.push_back({std::string("kafka.rtt_s.") + s.key, "s"});
  }
  specs.push_back({"beam.encode_ns_per_rec", "ns/rec"});
  specs.push_back({"beam.decode_ns_per_rec", "ns/rec"});
  for (const char* engine : kEngines) {
    specs.push_back({std::string("beam.serde_recs.") + engine, "count"});
    specs.push_back({std::string("beam.overhead_us_per_rec.") + engine, "us/rec"});
    specs.push_back({std::string("beam.slowdown.") + engine, "x"});
  }
  specs.push_back({"common.queue_hop_ns", "ns/rec"});
  specs.push_back({"common.spsc_hop_ns", "ns/rec"});
  for (const Setup& s : kSetups) {
    const std::string key = s.key;
    specs.push_back({key + ".startup_ms", "ms"});
    specs.push_back({key + ".drain_ms", "ms"});
    if (s.engine != Engine::kSpark) specs.push_back({key + ".plan_tasks", "count"});
    if (s.engine == Engine::kSpark) specs.push_back({key + ".recs_per_batch", "count"});
    if (s.engine == Engine::kApex) specs.push_back({key + ".containers", "count"});
  }
  for (const Setup& s : kSetups) {
    const std::string key = s.key;
    specs.push_back({"predicted_us_per_rec." + key, "us/rec"});
    specs.push_back({"residual_frac." + key, "frac"});
    specs.push_back({"lat_p99_ms." + key, "ms"});
    specs.push_back({"lat_samples." + key, "count"});
  }
  specs.push_back({"proc.cpu_s", "s"});
  specs.push_back({"proc.rss_growth_mb_per_round", "MB"});
  specs.push_back({"trace.overhead_frac", "frac"});
  return specs;
}

Result<Outcome> run_benchmark(const Options& options) {
  for (const Workload& workload : kWorkloads) {
    if (options.workload == workload.name) {
      Bench bench(options, workload);
      return bench.run();
    }
  }
  return Status::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
