// Shared vocabulary for the 24 benchmark setups:
// {Flink, Spark, Apex} x {native API, Beam} x {Identity, Sample,
// Projection, Grep} x parallelism.
#pragma once

#include <cstdint>
#include <string>

#include "kafka/broker.hpp"
#include "runtime/fault.hpp"
#include "workload/streambench.hpp"

namespace dsps::queries {

enum class Engine { kFlink, kSpark, kApex };
enum class Sdk { kNative, kBeam };

inline const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kFlink: return "Flink";
    case Engine::kSpark: return "Spark";
    case Engine::kApex: return "Apex";
  }
  return "?";
}

inline const char* sdk_name(Sdk sdk) {
  return sdk == Sdk::kNative ? "native" : "Beam";
}

/// Per-run recovery knobs, mapped by each path onto the engine's native
/// mechanism (DESIGN.md §5c):
///   Flink native — job restart; with `exactly_once`, barrier checkpointing
///                  of source offsets + transactional sink epochs;
///   Spark native — per-batch retry against the same claimed offset range;
///   Apex native  — YARN application reattempt, inputs resuming from
///                  committed-window offsets;
///   Beam         — one RestartHint, translated per runner (full job rerun
///                  on Flink, batch retry on Spark, app reattempt on Apex).
struct RecoveryConfig {
  bool enabled = false;
  /// Extra attempts beyond the first (restarts / retries / reattempts).
  int max_restarts = 3;
  /// Flink native only: checkpointed source + transactional sink —
  /// exactly-once output. Every other path is at-least-once.
  bool exactly_once = false;
  /// Seeds the retry backoff jitter (deterministic chaos runs).
  std::uint64_t backoff_seed = 42;
};

/// Backoff used by every recovery path; tight so bounded chaos runs stay
/// fast, jittered + seeded so schedules are reproducible.
inline runtime::BackoffPolicy recovery_backoff(const RecoveryConfig& config) {
  return runtime::BackoffPolicy{.initial_us = 500,
                                .multiplier = 2.0,
                                .max_us = 20'000,
                                .jitter = 0.2,
                                .seed = config.backoff_seed};
}

struct QueryContext {
  kafka::Broker* broker = nullptr;
  std::string input_topic;
  std::string output_topic;
  int parallelism = 1;
  /// Seed for the Sample query's randomness.
  std::uint64_t seed = 42;
  RecoveryConfig recovery;
  /// Beam path only: run the fusion optimizer before translation
  /// (the runner options' `fuse_stages`). Off by default so every default
  /// run reproduces the paper's unfused plans and slowdown factors; the
  /// native paths ignore it.
  bool fuse_stages = false;
  /// Open-loop mode (the sustained-load harness): sources treat the input
  /// topic as unbounded — they keep polling past the current end offset and
  /// terminate only when the topic is sealed (Broker::seal_topic) and fully
  /// drained, instead of snapshotting the end offset at job start. Off by
  /// default: every closed-loop benchmark keeps the bounded behaviour.
  bool open_loop = false;
};

}  // namespace dsps::queries
