// The four workloads. Each sets itself up several times (reporting the
// median set-up time), runs whole rounds of one fixed operation mix until
// `seconds` have passed, checks every output, and fills RunResult::metrics
// with the end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench {

inline constexpr int kSetupReps = 5;

RunResult run_verify_tcp(const Options& opts, Tracer& tracer);
RunResult run_kgc_churn(const Options& opts, Tracer& tracer);
RunResult run_manet_paper(const Options& opts, Tracer& tracer);
RunResult run_manet_scale(const Options& opts, Tracer& tracer);

/// Builds the workload's state `reps` times from scratch (dropping the
/// previous copy first, so only one exists at a time) and keeps the last.
/// `setup_s` receives the median build time.
template <class State, class Make>
std::unique_ptr<State> timed_setups(int reps, double& setup_s, Make&& make) {
  std::unique_ptr<State> state;
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = make(i);
    times.push_back(seconds_since(t0));
  }
  setup_s = median(times);
  return state;
}

/// Prints a per-round rate as median and quartiles over the rounds.
inline void print_rate(const char* name, const char* unit, const std::vector<double>& rates) {
  const double med = median(rates);
  if (rates.size() < 2) {
    std::printf("  %-14s %.1f %s (1 round)\n", name, med, unit);
    return;
  }
  const Quartiles q = quartiles(rates);
  std::printf("  %-14s %.1f %s (median over %zu rounds, quartiles %.1f .. %.1f)\n", name, med,
              unit, rates.size(), q.q1, q.q3);
}

/// Stores the four end-to-end metrics every workload reports.
inline void put_end_to_end(RunResult& r, double setup_s, double rss_mb, double ops_per_s,
                           double op_p50_ms) {
  r.metrics["setup_s"] = setup_s;
  r.metrics["peak_rss_mb"] = rss_mb;
  r.metrics["ops_per_s"] = ops_per_s;
  r.metrics["op_p50_ms"] = op_p50_ms;
}

}  // namespace perfbench
