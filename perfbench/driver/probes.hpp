// Layer unit-cost probes. Each one times a layer's public functions on the
// workload's own records, single-threaded unless the layer is a cross-thread
// hand-off, and returns nanoseconds per record (the median of a few
// repetitions). Multiplied by the per-setup counts the traced run observes,
// they predict each layer's share of a setup's execution time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Broker::append_batch into a fresh topic (no simulated RTT: that is
/// accounted for separately), `batch` records per call.
double probe_append_ns(const std::vector<std::string>& lines,
                       std::size_t batch);

/// The simulated network round trip a synchronous sink flush waits for:
/// single-record kafka::Producer sends against a broker with `rtt_us` of RTT,
/// minus the same sends against a broker without. Nanoseconds per flush.
double probe_rtt_ns(const std::vector<std::string>& lines,
                    std::int64_t rtt_us);

/// Broker::fetch of a stored topic, `batch` records per call.
double probe_fetch_ns(const std::vector<std::string>& lines,
                      std::size_t batch);

/// beam::WindowedValueCoder over PayloadCoder, as the Apex runner encodes
/// every inter-container hop. Fills both outputs.
void probe_coder_ns(const std::vector<std::string>& lines, double& encode_ns,
                    double& decode_ns);

/// push_batch/pop_batch of records across two threads, in the engines'
/// channel batch size: BoundedQueue (Apex mailboxes) when `spsc` is false,
/// SpscRingQueue (Flink forward channels) when true. Nanoseconds per record.
double probe_queue_hop_ns(const std::vector<std::string>& lines, bool spsc);

}  // namespace perfbench
