// manet_paper and manet_scale — the simulated MANET, the paper's own
// evaluation setting.
//
// manet_paper: the paper's scenario (20-node AODV, 1500×300 m, random
// waypoint, 2 pinned black holes) with SecurityMode::kReal, so every routing
// control packet is McCLS-signed and verified one at a time against a
// PairingCache. One round is one seed: the real-crypto replication (timed),
// the same run with the keyed-MAC ModeledClsSecurity provider (whose
// counters must match it exactly) and the unsecured run (whose pooled PDR
// the secured runs must beat). Single-threaded.
//
// manet_scale: a scen::run_matrix sweep with modelled security, AODV and
// DSR at a few hundred nodes under no attack, black holes and a replay
// storm. Crypto costs next to nothing here; the simulator is the load. One
// round is one sweep, and every round sweeps the same (cell, seed) jobs.
// Threads: this one + 3 matrix workers = 4.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "checks.hpp"
#include "cls/mccls.hpp"
#include "corpus.hpp"
#include "layers.hpp"
#include "scen/matrix.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mccls;
using aodv::AttackType;
using aodv::ScenarioConfig;
using aodv::SecurityMode;

constexpr double kPaperDuration = 3;  ///< simulated seconds per replication
constexpr std::size_t kScaleNodes = 160;
constexpr double kScaleDuration = 6;
constexpr unsigned kScaleSeeds = 4;  ///< seeds per cell
constexpr unsigned kScaleWorkers = 3;
/// World set-up takes milliseconds, so it is repeated more often than the
/// other workloads' set-up (this many times before the run and again after
/// it) to give a steady median.
constexpr int kWorldSetupReps = 50;

/// Seed of round `round` of a run with --seed `seed` (never 0).
std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  InputRng rng(seed * 1000003 + round);
  return 1 + rng.next() % 1'000'000'000ULL;
}

ScenarioConfig paper_config(std::uint64_t seed, SecurityMode mode) {
  ScenarioConfig c;  // paper defaults: 20 nodes, 1500x300 m, 10 flows
  c.duration = kPaperDuration;
  c.traffic_start_min = 0.5;
  c.traffic_start_max = 1.5;
  c.attack = AttackType::kBlackHole;
  c.num_attackers = 2;
  c.security = mode;
  c.scheme = "McCLS";
  c.seed = seed;
  return c;
}

/// Layer inputs for manet_paper: McCLS keys of the scenario's own node
/// identities and routing-packet-sized messages.
LayerInputs manet_layer_inputs(std::uint64_t seed, std::unique_ptr<SignerSet>& keep) {
  crypto::HmacDrbg drbg(seed);
  InputRng rng(seed);
  std::vector<std::string> ids;
  for (aodv::NodeId n = 0; n < 8; ++n) ids.push_back(aodv::RealClsSecurity::identity(n));
  keep = std::make_unique<SignerSet>(make_signers(drbg, ids));
  LayerInputs in{.kgc = &keep->kgc, .signers = keep->keys};
  in.messages = make_messages(rng, 16, 48);
  in.frame = in.messages[0];
  return in;
}

}  // namespace

RunResult run_manet_paper(const Options& opts, Tracer& tracer) {
  RunResult r;
  // Set-up of a scenario world (simulator, placement, channel, agents, the
  // KGC and every node's enrolment), timed by running it for a vanishing
  // simulated time.
  std::vector<double> setups;
  const auto measure_setups = [&] {
    for (int i = 0; i < kWorldSetupReps; ++i) {
      const Tracer::Scope s(tracer, "setup.world");
      ScenarioConfig c = paper_config(opts.seed, SecurityMode::kReal);
      c.duration = 1e-3;
      const auto t0 = Clock::now();
      aodv::run_scenario(c);
      setups.push_back(seconds_since(t0));
    }
  };
  measure_setups();

  std::vector<double> real_s, modeled_s;
  std::vector<double> ms_per_op;  ///< per replication: wall / secured operations
  aodv::ScenarioResult pooled_secured{}, pooled_unsecured{};
  std::uint64_t sign_ops = 0, verify_ops = 0;
  const auto run_start = Clock::now();
  const std::uint32_t run_span = tracer.begin("manet_paper.run");
  for (std::size_t round = 0; round == 0 || seconds_since(run_start) < opts.seconds; ++round) {
    const std::uint64_t seed = round_seed(opts.seed, round);
    const std::uint32_t round_span = tracer.begin("round", run_span, round + 1);

    std::uint32_t span = tracer.begin("aodv.real", round_span, round + 1);
    auto t0 = Clock::now();
    const auto real = aodv::run_scenario(paper_config(seed, SecurityMode::kReal));
    real_s.push_back(seconds_since(t0));
    tracer.end(span);

    span = tracer.begin("aodv.modeled", round_span, round + 1);
    t0 = Clock::now();
    const auto modeled = aodv::run_scenario(paper_config(seed, SecurityMode::kModeled));
    modeled_s.push_back(seconds_since(t0));
    tracer.end(span);

    span = tracer.begin("aodv.unsecured", round_span, round + 1);
    const auto unsecured = aodv::run_scenario(paper_config(seed, SecurityMode::kNone));
    tracer.end(span);
    tracer.end(round_span);

    if (const auto diff = differing_counters(real, modeled); !diff.empty()) {
      r.op_wrong("seed " + std::to_string(seed) + ": real and modelled runs differ in " +
             diff.front() + " (" + std::to_string(diff.size()) + " counters)");
    }
    ms_per_op.push_back(real_s.back() * 1e3 /
                        static_cast<double>(real.metrics.sign_ops + real.metrics.verify_ops));
    pooled_secured.metrics += real.metrics;
    pooled_unsecured.metrics += unsecured.metrics;
    sign_ops += real.metrics.sign_ops;
    verify_ops += real.metrics.verify_ops;
  }
  tracer.end(run_span);
  measure_setups();  // once more after the run, so one moment of host load
  const double setup_s = median(setups);  // does not set the whole median
  if (auto why = check_pdr_gain(pooled_secured, pooled_unsecured); !why.empty()) r.fail(why);
  r.attempted = real_s.size();

  double real_total = 0, modeled_total = 0;
  for (const double s : real_s) real_total += s;
  for (const double s : modeled_s) modeled_total += s;
  const double paper_run_s = median(real_s);
  std::printf("manet_paper: %zu secured replications (20 nodes, %.0f s simulated, "
              "2 black holes), PDR secured %.3f vs unsecured %.3f\n",
              real_s.size(), kPaperDuration, pooled_secured.pdr(), pooled_unsecured.pdr());
  std::printf("  paper_run_s    %.4f s (median, n=%zu, min %.4f, max %.4f)\n", paper_run_s,
              real_s.size(), *std::min_element(real_s.begin(), real_s.end()),
              *std::max_element(real_s.begin(), real_s.end()));
  std::printf("  ms_per_op      %.4f ms (median over replications of wall / (signs + "
              "verifies))\n", median(ms_per_op));
  std::printf("  setup_s        %.4f s (median of %zu)\n", setup_s, setups.size());

  if (!opts.trace) {
    // Per secured operation, because a replication's length depends on its
    // seed far more than on the code (see README).
    put_end_to_end(r, setup_s, peak_rss_mb(),
                   static_cast<double>(sign_ops + verify_ops) / real_total,
                   median(ms_per_op));
    return r;
  }
  const double runs = static_cast<double>(real_s.size());
  r.metrics["aodv.crypto_share"] = 1.0 - modeled_total / real_total;
  r.metrics["aodv.sign_ops_per_run"] = static_cast<double>(sign_ops) / runs;
  r.metrics["aodv.verify_ops_per_run"] = static_cast<double>(verify_ops) / runs;
  std::unique_ptr<SignerSet> keys;
  measure_layers(opts.workload, manet_layer_inputs(opts.seed, keys), opts.tmp_dir, tracer,
                 r.metrics);
  return r;
}

namespace {

const char* attack_name(AttackType a) {
  switch (a) {
    case AttackType::kNone: return "none";
    case AttackType::kBlackHole: return "blackhole";
    case AttackType::kReplayStorm: return "replay";
    default: return "other";
  }
}

std::vector<scen::Cell> scale_cells(std::uint64_t seed_base) {
  std::vector<scen::Cell> cells;
  const double scale = std::sqrt(static_cast<double>(kScaleNodes) / 20.0);
  for (const scen::Protocol proto : {scen::Protocol::kAodv, scen::Protocol::kDsr}) {
    for (const AttackType attack :
         {AttackType::kNone, AttackType::kBlackHole, AttackType::kReplayStorm}) {
      scen::Cell cell;
      cell.protocol = proto;
      cell.seeds = kScaleSeeds;
      cell.seed_base = seed_base;
      ScenarioConfig& c = cell.base;
      c.num_nodes = kScaleNodes;
      c.area_width = 1500.0 * scale;  // density of the paper's 20-node field
      c.area_height = 300.0 * scale;
      c.duration = kScaleDuration;
      c.traffic_start_min = 1.0;
      c.traffic_start_max = 3.0;
      c.num_flows = kScaleNodes / 10;
      c.security = SecurityMode::kModeled;
      c.attack = attack;
      c.num_attackers = attack == AttackType::kNone ? 0 : kScaleNodes / 5;
      cell.name = std::string(proto == scen::Protocol::kDsr ? "dsr" : "aodv") + "_" +
                  std::to_string(kScaleNodes) + "_" + attack_name(attack);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

}  // namespace

RunResult run_manet_scale(const Options& opts, Tracer& tracer) {
  RunResult r;
  // Every round sweeps the same cells with the same seeds, so each round is
  // the same work and its wall time compares across rounds and commits.
  const auto cells = scale_cells(round_seed(opts.seed, 0));
  const std::size_t round_jobs = cells.size() * kScaleSeeds;
  std::vector<double> setups;  // world set-up of every job, as in manet_paper
  const auto measure_setups = [&] {
    for (int i = 0; i < kWorldSetupReps; ++i) {
      const Tracer::Scope s(tracer, "setup.world");
      const auto t0 = Clock::now();
      // Every job's world, not one per cell: how many placements a
      // connected field takes depends on the seed.
      for (scen::Cell cell : cells) {
        cell.base.duration = 1e-3;
        for (unsigned s = 0; s < kScaleSeeds; ++s) scen::run_cell_seed(cell, s);
      }
      setups.push_back(seconds_since(t0));
    }
  };
  measure_setups();

  std::vector<double> sweep_s;  ///< wall time of each round's sweep
  scen::MatrixResult first;     ///< round 0, which every later round must equal
  const auto run_start = Clock::now();
  const std::uint32_t run_span = tracer.begin("manet_scale.run");
  for (std::size_t round = 0; round == 0 || seconds_since(run_start) < opts.seconds; ++round) {
    const std::uint32_t span = tracer.begin("scen.run_matrix", run_span, round + 1);
    const auto t0 = Clock::now();
    scen::MatrixResult result = scen::run_matrix(cells, kScaleWorkers);
    sweep_s.push_back(seconds_since(t0));
    tracer.end(span);

    if (round == 0) {
      for (const scen::CellResult& cell : result.cells) {
        for (const auto& seed_result : cell.per_seed) {
          if (auto why = check_conservation(cell.name, seed_result); !why.empty()) {
            r.op_wrong(why);
          }
        }
      }
      // A seed-chosen job re-run serially must match the pooled sweep bit
      // for bit.
      InputRng pick(round_seed(opts.seed, 0) ^ 0x5E41);
      const std::size_t c = pick.below(cells.size());
      const unsigned s = static_cast<unsigned>(pick.below(kScaleSeeds));
      const std::uint32_t check_span = tracer.begin("check.serial_job", run_span, round + 1);
      const auto serial = scen::run_cell_seed(cells[c], s);
      tracer.end(check_span);
      if (const auto diff = differing_counters(serial, result.cells[c].per_seed[s]);
          !diff.empty()) {
        r.op_wrong("cell " + cells[c].name + " seed " + std::to_string(s) +
                   ": serial re-run differs in " + diff.front());
      }
      first = std::move(result);
      continue;
    }
    // Later rounds repeat round 0's jobs and must reproduce them exactly.
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (unsigned s = 0; s < kScaleSeeds; ++s) {
        if (const auto diff =
                differing_counters(result.cells[c].per_seed[s], first.cells[c].per_seed[s]);
            !diff.empty()) {
          r.op_wrong("cell " + cells[c].name + " seed " + std::to_string(s) + " round " +
                     std::to_string(round) + " differs from round 0 in " + diff.front());
        }
      }
    }
  }
  tracer.end(run_span);
  r.attempted = sweep_s.size() * round_jobs;
  measure_setups();  // once more after the run, as in manet_paper
  const double setup_s = median(setups);

  // Worker-seconds per (cell, seed) job: sweep wall × workers / jobs.
  std::vector<double> job_s;
  double sweep_total = 0;
  for (const double s : sweep_s) {
    job_s.push_back(s * kScaleWorkers / static_cast<double>(round_jobs));
    sweep_total += s;
  }
  const double scen_run_s = median(job_s);
  std::printf("manet_scale: %zu jobs (%zu identical sweeps of 6 cells x %u seeds), %zu nodes, "
              "%.0f s simulated, %u workers\n",
              static_cast<std::size_t>(r.attempted), sweep_s.size(), kScaleSeeds, kScaleNodes,
              kScaleDuration, kScaleWorkers);
  std::printf("  sweep_s        %.4f s (median, n=%zu, min %.4f, max %.4f)\n", median(sweep_s),
              sweep_s.size(), *std::min_element(sweep_s.begin(), sweep_s.end()),
              *std::max_element(sweep_s.begin(), sweep_s.end()));
  std::printf("  scen_run_s     %.4f s (median over sweeps of worker-seconds per job)\n",
              scen_run_s);
  std::printf("  setup_s        %.4f s (median of %zu)\n", setup_s, setups.size());

  if (!opts.trace) {
    put_end_to_end(r, setup_s, peak_rss_mb(),
                   static_cast<double>(r.attempted) / sweep_total, scen_run_s * 1e3);
    return r;
  }
  // One job per protocol, serially, for the per-protocol job time and the
  // simulator's cost per transmitted frame.
  double frames = 0, wall = 0;
  for (const std::size_t c : {std::size_t{1}, std::size_t{4}}) {  // aodv / dsr black hole
    const std::uint32_t span = tracer.begin("scen.job." + cells[c].name);
    const auto t0 = Clock::now();
    const auto res = scen::run_cell_seed(cells[c], 0);
    const double s = seconds_since(t0);
    tracer.end(span);
    r.metrics[c == 1 ? "scen.aodv_job_s" : "scen.dsr_job_s"] = s;
    frames += static_cast<double>(res.channel.frames_transmitted);
    wall += s;
  }
  r.metrics["sim.us_per_frame"] = wall * 1e6 / frames;
  return r;
}

}  // namespace perfbench
