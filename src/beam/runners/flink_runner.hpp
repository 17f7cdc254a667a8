// FlinkRunner: translates the Beam graph onto Flink-sim.
//
// Translation style (matching the real runner as the paper observed it in
// Fig. 13): every transform becomes its *own* unfused operator (operator
// chaining is disabled), the source renders as
// "PTransformTranslation.UnknownRawPTransform", the read expansion as
// "Flat Map", and every other transform as "ParDoTranslation.RawParDo".
// Elements cross a channel between every pair of stages, boxed in the full
// windowed-value envelope; only the source allocates boxes, and each stage
// reuses the boxes of inputs it solely owns for its outputs.
#pragma once

#include <cstddef>

#include "beam/pipeline.hpp"
#include "beam/runner.hpp"

namespace dsps::beam {

struct FlinkRunnerOptions {
  /// The -p / --parallelism submission flag (§III-A2).
  int parallelism = 1;
  /// Elements per bundle; the writer flushes at bundle boundaries.
  std::size_t bundle_size = 1000;
  /// Run the fusion pass (beam/fusion.hpp) before translation, so chains of
  /// one-to-one ParDos deploy as one operator instead of one each — the
  /// translated plan shrinks toward the native Fig. 12 shape. Off by
  /// default: the unfused plan is what the paper measured (Fig. 13), and
  /// turning it on quantifies how much of the measured penalty is
  /// recoverable plan quality rather than structural cost.
  bool fuse_stages = false;
  /// Translated to Flink's fixed-delay restart strategy: on failure, the
  /// whole job is rebuilt and re-executed from scratch (full source
  /// re-read, at-least-once — the translated job runs without Beam-side
  /// checkpoint state).
  RestartHint restart{};
};

class FlinkRunner final : public PipelineRunner {
 public:
  explicit FlinkRunner(FlinkRunnerOptions options = {}) : options_(options) {}

  Result<PipelineResult> run(const Pipeline& pipeline) override;

  /// The translated execution plan without running (Fig. 13 reproduction).
  Result<std::string> translate_plan(const Pipeline& pipeline) const;

 private:
  FlinkRunnerOptions options_;
};

}  // namespace dsps::beam
