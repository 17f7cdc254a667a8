// Apex-sim execution engine.
//
// The logical DAG is expanded into a physical plan: each operator becomes
// `partitions` instances; THREAD_LOCAL streams fuse instances into thread
// groups; CONTAINER_LOCAL groups share a container; everything else gets its
// own container. The STRAM (Streaming Application Manager, §II-D) runs
// inline on the caller's thread: it books its own AM container and one
// container per container group from the YARN-sim ledger, starts one
// `apx-g<N>` thread per thread group, waits for them, and releases every
// container whether the attempt succeeded or not.
//
// Data crossing a thread boundary travels through a mailbox queue;
// data crossing a *container* boundary is additionally serialized and
// deserialized by the stream codec — the cost model behind the paper's
// Apex observations.
#pragma once

#include <cstddef>
#include <string>

#include "common/status.hpp"
#include "apex/dag.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "yarn/resource_manager.hpp"

namespace dsps::apex {

/// Tuples an input operator may emit per streaming window.
inline constexpr std::size_t kWindowTupleBudget = 4096;

struct EngineConfig {
  /// Application attempts (STRAM relaunch on failure): a failed attempt
  /// releases every container and redeploys fresh operator instances.
  /// Kafka inputs configured with a consumer group resume from their
  /// committed offsets, so a reattempt replays only windows past the last
  /// committed one — at-least-once end to end.
  int max_attempts = 1;
  runtime::BackoffPolicy restart_backoff{};
};

/// Validates, books containers from the ResourceManager, runs to completion
/// (bounded input operators), releases the containers, and reports through
/// the unified metrics schema:
///   counters   operator.<name>.tuples_in  tuples delivered into each
///                                         logical operator
///              windows.emitted            streaming windows completed
///   gauges     app.duration_ms            wall-clock run time
///              app.containers             containers in the physical plan
///              app.thread_groups          thread groups in the physical plan
/// The snapshot is also merged into MetricsRegistry::global() under the
/// "apex." prefix. A group thread that throws fails the application: the
/// engine aborts the remaining groups and returns the captured Status.
Result<runtime::MetricsSnapshot> launch_application(yarn::ResourceManager& rm,
                                                    const Dag& dag,
                                                    const EngineConfig& config);

/// Renders the physical plan (instances, thread groups, containers) for
/// inspection — the Apex analogue of the Fig. 12/13 plan dumps.
Result<std::string> render_physical_plan(const Dag& dag);

}  // namespace dsps::apex
