// Plumbing every workload shares: the run options, the result a workload
// hands back, the run's temporary directory, a seeded generator for inputs,
// Zipf-skewed input assignment, and peak-RSS / wall-clock helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <fstream>
#include <stdexcept>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Request-id window of the closed-loop clients: per-request bookkeeping
/// lives in rings of this many slots, far more than the at most 64 requests
/// a client keeps in flight.
inline constexpr std::size_t kWindow = 4096;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir;  ///< removed at exit; all on-disk state lives here
};

/// What a workload reports. `metrics` holds the end-to-end values in an
/// untraced run and the per-layer values in a traced one; `failures` keeps
/// the first few reasons a check failed, printed on stderr.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;

  /// `count` operations got no usable answer (none at all, an undecodable
  /// one, an error status): counted in `failed`. `correct` speaks of the
  /// answers that did come, so it stays as it is.
  void op_failed(const std::string& why, std::uint64_t count = 1) {
    failed += count;
    note(why);
  }
  /// One operation answered wrongly (a wrong verdict, wrong key bytes,
  /// counters that differ from an independent run): counted in `failed`,
  /// and the run's outputs are not correct.
  void op_wrong(const std::string& why) {
    ++failed;
    correct = false;
    note(why);
  }
  /// A check over the whole run failed (not one operation's answer).
  void fail(const std::string& why) {
    correct = false;
    note(why);
  }
  /// Keeps a reason for the report without counting anything (for a
  /// problem whose operation is counted elsewhere).
  void note(const std::string& why) {
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process image, MiB: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss is no use here: Linux carries
/// the pre-exec high-water mark across exec, so it reports the launching
/// Python process whenever that was larger.)
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Peak RSS of a closed loop, read once: when the answer that completes
/// round `rounds` arrives. What grows per operation (the latency samples,
/// a directory gaining fresh identities) then adds the same bytes to the
/// reading whatever the throughput. The client runs at least that many
/// rounds (`done()`).
class RssAfterRounds {
 public:
  RssAfterRounds(std::size_t round, std::size_t rounds) : at_(round * rounds) {}
  void answered() {
    if (++count_ == at_) mb_ = peak_rss_mb();
  }
  /// Has the reading been taken, i.e. may the client stop?
  [[nodiscard]] bool done(std::size_t issued) const { return issued >= at_; }
  /// The reading (taken now if that round never completed, in a run whose
  /// missing answers already count as failed).
  [[nodiscard]] double mb() const { return count_ >= at_ ? mb_ : peak_rss_mb(); }

 private:
  std::size_t at_;
  std::size_t count_ = 0;
  double mb_ = 0;
};

/// splitmix64: small, fully specified, so inputs depend on the seed alone
/// and not on the standard library's distribution implementations.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(uniform() * n); }

 private:
  std::uint64_t state_;
};

/// `count` ranks in a seeded order, rank k (0 = most popular) appearing in
/// exact Zipf(s) proportion (largest remainder), so the seed picks the order
/// but not how skewed the sample happens to be.
inline std::vector<std::size_t> zipf_assignment(std::size_t n, double s, std::size_t count,
                                                InputRng& rng) {
  std::vector<double> share(n);
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) sum += share[k] = 1.0 / std::pow(k + 1.0, s);
  std::vector<std::size_t> out;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t k = 0; k < n; ++k) {
    const double exact = static_cast<double>(count) * share[k] / sum;
    out.insert(out.end(), static_cast<std::size_t>(exact), k);
    remainders.emplace_back(exact - std::floor(exact), k);
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (std::size_t i = 0; out.size() < count; ++i) out.push_back(remainders[i].second);
  for (std::size_t i = count - 1; i > 0; --i) std::swap(out[i], out[rng.below(i + 1)]);
  return out;
}

/// Throughput of a closed loop measured per round: the rate between the
/// answers that complete consecutive rounds. Its median lets one stall (a
/// slow fsync, a preempted thread) move one sample instead of the run's mean.
class RoundRates {
 public:
  explicit RoundRates(std::size_t round) : round_(round) {}
  /// Marks the start of the first round (the first send).
  void start(Clock::time_point t) { mark_ = t; }
  /// One more answer, received at `t`.
  void answered(Clock::time_point t) {
    if (++count_ % round_ != 0) return;
    rates_.push_back(static_cast<double>(round_) /
                     std::chrono::duration<double>(t - mark_).count());
    mark_ = t;
  }
  [[nodiscard]] const std::vector<double>& rates() const { return rates_; }

 private:
  std::size_t round_;
  std::size_t count_ = 0;
  Clock::time_point mark_{};
  std::vector<double> rates_;
};

}  // namespace perfbench
