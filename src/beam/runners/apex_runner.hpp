// ApexRunner: translates the Beam graph onto Apex-sim running on YARN-sim.
//
// Translation style (matching the era's runner as the paper measured it):
//  * every transform deploys as its own operator in its own container, so
//    every hop serializes the full windowed value (coder work per element
//    per stage);
//  * bundles are a single element wide: the Kafka writer flushes — and pays
//    a broker round trip — once per output record. That makes the penalty
//    grow with output volume: identity/projection (100% output) are hit
//    hardest, sample (40%) less, grep (0.3%) barely — exactly the pattern
//    of Fig. 11 and the §III-C3 discussion.
#pragma once

#include "beam/pipeline.hpp"
#include "beam/runner.hpp"

namespace dsps::beam {

struct ApexRunnerOptions {
  /// VCORE-style parallelism applied to partitionable ParDo operators
  /// (the paper configures Apex parallelism through YARN VCOREs + a DAG
  /// attribute, §III-A2).
  int parallelism = 1;
  /// Translated to YARN application reattempts: STRAM redeploys fresh
  /// operator instances; Beam readers are one-shot, so a reattempt re-reads
  /// the bounded input from the beginning (at-least-once).
  RestartHint restart{};
  /// Run the fusion pass (beam/fusion.hpp) before translation: a fused
  /// chain deploys as ONE container — interior hops neither serialize nor
  /// cross containers, so the per-hop windowed-value coder cost (the
  /// §III-C3 catastrophe) is paid once per chain instead of once per
  /// transform. Off by default (paper-faithful translation).
  bool fuse_stages = false;
};

class ApexRunner final : public PipelineRunner {
 public:
  explicit ApexRunner(ApexRunnerOptions options = {}) : options_(options) {}

  Result<PipelineResult> run(const Pipeline& pipeline) override;

  /// The translated physical plan without running.
  Result<std::string> translate_plan(const Pipeline& pipeline) const;

 private:
  ApexRunnerOptions options_;
};

}  // namespace dsps::beam
