// PipelineOptions: portable knobs a Beam program hands to whichever runner
// executes it (mirroring Beam's PipelineOptions / --experiments flags).
//
// `fuse_stages` opts into the graph-fusion optimizer (beam/fusion.hpp). It
// is OFF by default on purpose: the unfused translation is what the paper
// measured (one operator per transform, Fig. 13), and the figure
// reproductions and slowdown factors must keep reproducing that plan. With
// fusion on, maximal chains of one-to-one ParDos execute as a single stage —
// the mitigation production Beam runners apply — which quantifies how much
// of the measured abstraction penalty is recoverable plan quality rather
// than structural cost.
#pragma once

#include "common/env.hpp"

namespace dsps::beam {

struct PipelineOptions {
  /// Run the fusion pass before translation (--fuse-stages).
  bool fuse_stages = false;

  /// Asynchronous pipelined sinks (--async-sinks): KafkaIO writers hand
  /// batches to a background sender instead of flushing synchronously per
  /// bundle. OFF by default for the same reason as fusion: the paper's
  /// writers produce synchronously, and Fig. 11–13 must keep reproducing
  /// that behaviour; turning it on quantifies how much of the sink-path
  /// penalty pipelining recovers.
  bool async_sinks = false;

  /// Resolves the env overrides: STREAMSHIM_FUSE_STAGES=1 turns fusion on,
  /// STREAMSHIM_ASYNC_SINKS=1 turns async sinks on, for every runner that
  /// reads its options through here.
  static PipelineOptions from_env() {
    return PipelineOptions{
        .fuse_stages = env_flag("STREAMSHIM_FUSE_STAGES"),
        .async_sinks = env_flag("STREAMSHIM_ASYNC_SINKS")};
  }
};

}  // namespace dsps::beam
