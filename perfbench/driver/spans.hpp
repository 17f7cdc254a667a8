// Span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into each
// layer (ingest, run_query, result fetch/verify, unit-cost probes); nothing
// inside the system under test is instrumented. Spans stay in memory and
// are written out once, when the run ends. Recording is single-threaded:
// only the benchmark thread opens spans, so the parent of a new span is the
// innermost span still open.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  int run = 0;      // the round the span belongs to
  std::string name;
  std::int64_t start_us = 0;  // steady clock
  std::int64_t end_us = 0;
};

/// Per-name totals: `total_us` sums span durations, `self_us` subtracts the
/// part of each span its direct children cover.
struct SpanTotals {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_us = 0;
  std::int64_t self_us = 0;
};

class SpanRecorder {
 public:
  /// A disabled recorder hands out inert scopes and records nothing.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class SpanRecorder;
    Scope(SpanRecorder* recorder, int index)
        : recorder_(recorder), index_(index) {}
    SpanRecorder* recorder_;
    int index_;
  };

  [[nodiscard]] Scope open(std::string name, int run);

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Totals per span name, in first-seen order.
  std::vector<SpanTotals> totals() const;

  /// Writes every span as one JSON array.
  dsps::Status write_json(const std::string& path) const;

 private:
  void close(int index);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // indices into spans_, innermost last
};

}  // namespace perfbench
