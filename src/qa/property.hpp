// mccls_qa — a small QuickCheck-style property-testing harness.
//
// A property is a named predicate over generated values. The harness runs it
// over a stream of seeded random cases; on failure it greedily shrinks the
// counterexample and reports a one-line repro command.
//
// Seed contract (the whole harness is deterministic given one 64-bit seed):
//   root stream       = sim::Rng(seed)
//   property stream   = root.fork(property_name)     (fork-by-name, FNV-1a)
//   case stream i     = property_stream.fork(i)
// A failure in property P at iteration i therefore reproduces with
//   qa_fuzz --prop P --seed <seed>
// regardless of which other properties ran before it, in any order, in any
// binary. The gtest suites (tests/test_qa_*.cpp) and the qa_fuzz tool both
// run the same registry through this contract.
//
// Randomness *inside* a case (e.g. a scheme's signing nonce) must also come
// from the case stream: generators emit a drbg seed as part of the generated
// value and the property constructs its crypto::HmacDrbg from it, so the
// whole case — inputs and nonces — replays from (seed, name, i).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace mccls::qa {

/// Execution budget for one property run. Environment overrides
/// (RunConfig::from_env, used by the gtest suites and qa_fuzz defaults):
///   MCCLS_QA_SEED   root seed (decimal or 0x-hex)
///   MCCLS_QA_ITERS  iteration override for every property (0 = per-property
///                   default, chosen so each stays well under 2 s in tier-1)
///   MCCLS_QA_SOAK   total soak budget in seconds; when set, callers switch
///                   to time-budget mode (keep drawing fresh cases until the
///                   per-property share of the budget is spent)
struct RunConfig {
  static constexpr std::uint64_t kDefaultSeed = 0x6d63636c73ULL;  // "mccls"

  std::uint64_t seed = kDefaultSeed;
  int iterations = 0;        ///< 0 = use the property's default
  double soak_seconds = 0;   ///< > 0 = time-budget mode (overrides iterations)

  static RunConfig from_env();
};

/// Result of running one property.
struct Outcome {
  std::string property;
  std::uint64_t seed = RunConfig::kDefaultSeed;
  bool ok = true;
  int iterations_run = 0;
  int failing_iteration = -1;  ///< case stream index of the original failure
  int shrink_steps = 0;        ///< accepted shrink candidates
  std::string counterexample;  ///< shown form of the (shrunk) failing value

  /// Copy-pasteable repro: `qa_fuzz --prop <name> --seed <seed>`.
  [[nodiscard]] std::string repro() const;
  /// Full human-readable failure report (empty-ish when ok).
  [[nodiscard]] std::string message() const;
};

/// A generator bundle for values of type T: creation from a seeded stream,
/// shrink candidates (most aggressive first; empty = atomic value), and a
/// display form for failure reports.
template <class T>
struct Gen {
  std::function<T(sim::Rng&)> create;
  std::function<std::vector<T>(const T&)> shrink = [](const T&) { return std::vector<T>{}; };
  std::function<std::string(const T&)> show = [](const T&) { return std::string("<value>"); };
};

namespace detail {
/// Upper bound on accepted shrink steps. Sized so a greedy halving chain can
/// walk a full 256-bit scalar down to its minimal failing value (~256 rounds)
/// with headroom; only failing runs ever pay for shrinking.
inline constexpr int kMaxShrinkRounds = 512;
}

/// Runs `holds` over generated values per the seed contract above. On the
/// first failure, greedily shrinks: repeatedly adopt the first shrink
/// candidate that still fails, until a fixpoint (or the round cap).
template <class T>
Outcome for_all(std::string_view name, const RunConfig& cfg, const Gen<T>& gen,
                const std::function<bool(const T&)>& holds) {
  Outcome out;
  out.property = std::string(name);
  out.seed = cfg.seed;

  const sim::Rng prop_stream = sim::Rng(cfg.seed).fork(name);
  const auto start = std::chrono::steady_clock::now();
  const auto budget_spent = [&] {
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    return elapsed.count() >= cfg.soak_seconds;
  };

  for (std::uint64_t i = 0;; ++i) {
    if (cfg.soak_seconds > 0) {
      if (i > 0 && budget_spent()) break;
    } else if (i >= static_cast<std::uint64_t>(cfg.iterations > 0 ? cfg.iterations : 1)) {
      break;
    }
    sim::Rng case_stream = prop_stream.fork(i);
    T value = gen.create(case_stream);
    ++out.iterations_run;
    if (holds(value)) continue;

    out.ok = false;
    out.failing_iteration = static_cast<int>(i);
    T current = std::move(value);
    for (int round = 0; round < detail::kMaxShrinkRounds; ++round) {
      bool advanced = false;
      for (T& candidate : gen.shrink(current)) {
        if (!holds(candidate)) {
          current = std::move(candidate);
          ++out.shrink_steps;
          advanced = true;
          break;
        }
      }
      if (!advanced) break;
    }
    out.counterexample = gen.show(current);
    return out;
  }
  return out;
}

/// A registered property: a named, self-contained runner. The registry is
/// the single source every driver iterates — the test_qa_* gtest suites,
/// qa_fuzz, and the soak loop all see exactly the same set.
struct Property {
  std::string name;
  std::string layer;  ///< "math", "scheme" or "codec" (one gtest suite each)
  int default_iterations = 64;
  std::function<Outcome(const RunConfig&)> run;
};

/// All registered properties (built once, thread-compatible after that).
const std::vector<Property>& registry();
/// Registry subset for one layer (pointers into registry()).
std::vector<const Property*> properties_in_layer(std::string_view layer);
/// Lookup by exact name; nullptr when absent.
const Property* find_property(std::string_view name);

/// gtest prints a test's parameter into its listed name; printing the
/// property name rather than its address keeps test ids stable across runs.
inline void PrintTo(const Property* p, std::ostream* os) { *os << p->name; }

namespace detail {
/// Called by the per-layer registration units; not for direct use.
void add_property(Property p);
}  // namespace detail

/// Defines and registers a property over Gen<T>. `iters` is the tier-1
/// default; MCCLS_QA_ITERS / --iters override it globally.
template <class T>
void define_property(std::string layer, std::string name, int iters, Gen<T> gen,
                     std::function<bool(const T&)> holds) {
  Property p;
  p.name = name;
  p.layer = std::move(layer);
  p.default_iterations = iters;
  p.run = [name = std::move(name), iters, gen = std::move(gen),
           holds = std::move(holds)](const RunConfig& cfg) {
    RunConfig effective = cfg;
    if (effective.iterations <= 0 && effective.soak_seconds <= 0) {
      effective.iterations = iters;
    }
    return for_all<T>(name, effective, gen, holds);
  };
  detail::add_property(std::move(p));
}

}  // namespace mccls::qa
