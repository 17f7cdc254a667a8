// DirectRunner: in-process, single-threaded reference runner (Beam's
// DirectRunner analogue). Used by tests to pin transform semantics and as
// the ground truth the engine runners are checked against.
#pragma once

#include <cstddef>

#include "beam/pipeline.hpp"
#include "beam/runner.hpp"

namespace dsps::beam {

struct DirectRunnerOptions {
  /// Elements per bundle (finish_bundle cadence).
  std::size_t bundle_size = 1000;
};

class DirectRunner final : public PipelineRunner {
 public:
  explicit DirectRunner(DirectRunnerOptions options = {})
      : options_(options) {}

  Result<PipelineResult> run(const Pipeline& pipeline) override;

 private:
  DirectRunnerOptions options_;
};

}  // namespace dsps::beam
