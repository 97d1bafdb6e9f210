// Spans for the traced run. The benchmark records them from its own code,
// around each call it makes into a layer of the program; nothing inside the
// program is instrumented. Spans live in memory while the workload runs and
// are written out once, at exit, into the run's temporary directory.
//
// A span is (name, start, end, parent, request id). Spans of one request
// share its request id. A span's self time is its duration minus the part
// of its interval that its children cover (the union of the children's
// intervals, so overlapping pipelined requests are not counted twice).
//
// With tracing off, begin() returns 0 and end(0) is a no-op: untraced runs
// read no clock on behalf of the tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;       ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;
  std::uint64_t request_id = 0;
};

/// Per-name totals derived from the spans.
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (0 when tracing is off).
  std::uint32_t begin(std::string name, std::uint32_t parent = 0,
                      std::uint64_t request_id = 0);
  /// Closes span `id` now. No-op for id 0.
  void end(std::uint32_t id);
  /// Records a span whose end points were measured by the caller (client
  /// round trips stamped by the socket callbacks). Returns its id.
  std::uint32_t record(std::string name, Clock::time_point start, Clock::time_point end,
                       std::uint32_t parent = 0, std::uint64_t request_id = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Totals and self times per span name, in first-seen order.
  [[nodiscard]] std::vector<SpanTotals> totals() const;
  /// Writes every span as one JSON array. False on I/O failure.
  bool write_json(const std::string& path) const;

  /// RAII span: begin on construction, end on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint32_t parent = 0,
          std::uint64_t request_id = 0)
        : tracer_(tracer), id_(tracer.begin(std::move(name), parent, request_id)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint32_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint32_t id_;
  };

 private:
  [[nodiscard]] std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of each span in `spans`, indexed like `spans`: its duration
/// minus the union of its direct children's intervals clipped to it.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

}  // namespace perfbench
