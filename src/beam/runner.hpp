// PipelineRunner interface and run result (§II-A: engine-specific runners
// translate the Beam program to the target runtime).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "runtime/fault.hpp"

namespace dsps::beam {

class Pipeline;

/// One portable restart hint, translated by each runner onto the engine's
/// native recovery mechanism (the Beam model has no recovery API of its
/// own — resilience is whatever the underlying engine provides):
///  * FlinkRunner — fixed-delay job restart: the whole translated job is
///    re-executed from scratch (full source re-read, at-least-once);
///  * SparkRunner — micro-batch retry: a failed batch re-runs against the
///    same claimed offset range;
///  * ApexRunner  — YARN application reattempt: STRAM redeploys fresh
///    operator instances which re-read the bounded input.
struct RestartHint {
  /// Extra attempts beyond the first (0 = fail fast).
  int max_restarts = 0;
  runtime::BackoffPolicy backoff{};
};

enum class PipelineState { kDone, kFailed };

struct PipelineResult {
  PipelineState state = PipelineState::kDone;
  double duration_ms = 0.0;
  /// Elements that entered each transform, by transform name (best effort).
  std::map<std::string, std::uint64_t> elements_in;
  /// The engine's execution plan for the translated job, when available.
  std::string execution_plan;
};

class PipelineRunner {
 public:
  virtual ~PipelineRunner() = default;
  virtual Result<PipelineResult> run(const Pipeline& pipeline) = 0;
};

}  // namespace dsps::beam
