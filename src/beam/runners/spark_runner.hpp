// SparkRunner: translates the Beam graph onto Spark-sim micro-batches.
//
// Translation style (matching the real runner as of Beam 2.3):
//  * stateful ParDo is rejected — the reason the paper had to exclude the
//    stateful StreamBench queries (§III-B);
//  * at parallelism > 1 the source is followed by a bundle-redistribution
//    repartition, so every batch pays a shuffle that trivial queries cannot
//    amortize — the observed P2-slower-than-P1 anomaly (§III-C1). At
//    parallelism 1 the repartition is skipped: the source already yields
//    exactly one shard, so the degenerate single-partition shuffle would
//    move nothing (pinned by SparkPlanShapeTest);
//  * a bounded source is read inside the first batch's tasks, one reader
//    shard per partition (SourceRDD.Bounded): the first stage pulls each
//    element as the reader yields it, so reading overlaps processing and
//    no shard is buffered before the batch starts;
//  * each transform becomes a mapPartitions stage over boxed elements, one
//    bundle per partition per batch.
#pragma once

#include <cstdint>

#include "beam/pipeline.hpp"
#include "beam/runner.hpp"
#include "kafka/broker.hpp"

namespace dsps::beam {

struct SparkRunnerOptions {
  /// spark.default.parallelism (§III-A2).
  int parallelism = 1;
  std::int64_t batch_interval_ms = 50;
  /// Run the fusion pass (beam/fusion.hpp) before translation: chains of
  /// one-to-one ParDos run as one mapPartitions stage per batch instead of
  /// one per transform. Off by default (paper-faithful translation).
  bool fuse_stages = false;
  /// Translated to Spark's micro-batch retry: a failed batch re-runs
  /// against the same RDD lineage, at-least-once. A bounded source split is
  /// recomputed from a fresh reader over the same input slice; at
  /// parallelism > 1 the retry reads the source repartition's shuffle
  /// output instead.
  RestartHint restart{};
};

class SparkRunner final : public PipelineRunner {
 public:
  explicit SparkRunner(SparkRunnerOptions options = {}) : options_(options) {}

  Result<PipelineResult> run(const Pipeline& pipeline) override;

 private:
  SparkRunnerOptions options_;
};

}  // namespace dsps::beam
