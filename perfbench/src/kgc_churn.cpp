// kgc_churn — writes beside reads on the KGC. A closed loop over loopback
// TCP to a KgcdFrontEnd: two connections keep up to 16 kgc frames each in
// flight. Every round mixes Zipf lookups of a preloaded population, lookups
// of never-enrolled ids, and fresh enrolls (partial-key extraction, voucher
// issue, WAL append). No pairing is verified on this path.
//
// The serving daemon runs with fsync off. On a disk shared with other
// tenants, fsync latency swings by several times between runs (p50 100 to
// 400 us, stalls past 10 ms), which moved this workload's throughput by 2.5x
// between runs of one seed; with fsync off it repeats within a few percent.
// The fsync cost itself is measured in the traced run (kgc.enroll_us and
// kgc.fsync_p50_us, on a scratch daemon with fsync on).
//
// Threads: this one (the client) + the netd loop + 1 front-end worker = 3
// (a second worker gave the same throughput with a wider run-to-run
// spread). The preload runs on this thread alone: on three helper threads
// the set-up time spread 22% over ten seeds.
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "checks.hpp"
#include "cls/epoch.hpp"
#include "cls/mccls.hpp"
#include "corpus.hpp"
#include "kgc/kgcd.hpp"
#include "layers.hpp"
#include "netd/client.hpp"
#include "netd/front.hpp"
#include "netd/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mccls;

// The mix; perfbench/README.md gives the source of each value.
constexpr std::size_t kPopulation = 256;
constexpr double kZipfS = 0.8;
constexpr std::size_t kKeyPool = 32;  ///< distinct valid public keys, reused
constexpr std::size_t kLookups = 210;  ///< per round, Zipf over the population
constexpr std::size_t kGhosts = 15;    ///< per round, never-enrolled ids (6%)
constexpr std::size_t kEnrolls = 25;   ///< per round, fresh ids (10%)
constexpr std::size_t kRound = kLookups + kGhosts + kEnrolls;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kPipeline = 16;
/// Peak RSS is read when this many rounds are answered (about a second).
constexpr std::size_t kRssRounds = 64;
constexpr std::size_t kPartialKeyChecks = 8;

struct State {
  explicit State(cls::Kgc k) : kgc(std::move(k)) {}

  cls::Kgc kgc;
  std::vector<crypto::Bytes> keys;         ///< the key pool
  std::vector<std::string> population;     ///< id i holds keys[i % kKeyPool]
  std::vector<kgc::KgcOp> round_ops;       ///< op of each slot of a round
  std::vector<std::size_t> round_targets;  ///< population index / ghost number
  std::unique_ptr<kgc::Kgcd> daemon;
  std::unique_ptr<netd::KgcdFrontEnd> front;
  std::unique_ptr<netd::NetServer> server;  ///< last: stopped first
};

std::unique_ptr<State> build(const Options& opts, int rep, Tracer& tracer) {
  const Tracer::Scope setup(tracer, "setup");
  crypto::HmacDrbg drbg(opts.seed);
  InputRng rng(opts.seed);
  auto st = std::make_unique<State>(cls::Kgc::setup(drbg));
  {
    const Tracer::Scope s(tracer, "cls.key_pool", setup.id());
    const cls::Mccls scheme;
    for (std::size_t i = 0; i < kKeyPool; ++i) {
      st->keys.push_back(
          scheme.derive_public(st->kgc.params(), drbg.next_nonzero_fq()).to_bytes());
    }
    for (std::size_t i = 0; i < kPopulation; ++i) {
      st->population.push_back("user-" + std::to_string(i));
    }
  }
  // The operations of a round; lookup targets are drawn once, so every
  // round repeats the same operations (fresh ids aside). The client sends
  // them in a new order each round.
  st->round_ops.insert(st->round_ops.end(), kLookups + kGhosts, kgc::KgcOp::kLookup);
  st->round_ops.insert(st->round_ops.end(), kEnrolls, kgc::KgcOp::kEnroll);
  st->round_targets = zipf_assignment(kPopulation, kZipfS, kLookups, rng);
  for (std::size_t i = 0; i < kGhosts; ++i) st->round_targets.push_back(kPopulation + i);
  st->round_targets.insert(st->round_targets.end(), kEnrolls, 0);

  const std::string dir = opts.tmp_dir + "/kgcd-" + std::to_string(rep);
  std::filesystem::remove_all(dir);
  {
    // Preload as a bulk import, then restart the daemon: recovery replays
    // what the preload logged.
    const Tracer::Scope s(tracer, "kgc.preload", setup.id());
    kgc::Kgcd loader(st->kgc.master_key_for_tests(),
                     kgc::KgcdConfig{.data_dir = dir, .fsync = false});
    for (std::size_t i = 0; i < kPopulation; ++i) {
      if (loader.enroll(st->population[i], st->keys[i % kKeyPool]).status !=
          kgc::KgcStatus::kOk) {
        throw std::runtime_error("kgc_churn: preload enroll failed");
      }
    }
  }
  {
    const Tracer::Scope s(tracer, "kgc.recover", setup.id());
    st->daemon = std::make_unique<kgc::Kgcd>(
        st->kgc.master_key_for_tests(), kgc::KgcdConfig{.data_dir = dir, .fsync = false});
    if (st->daemon->directory().size() != kPopulation) {
      throw std::runtime_error("kgc_churn: recovery lost preloaded identities");
    }
  }
  {
    const Tracer::Scope s(tracer, "netd.start", setup.id());
    st->front = std::make_unique<netd::KgcdFrontEnd>(*st->daemon,
                                                     netd::KgcdFrontConfig{.workers = 1});
    st->server = std::make_unique<netd::NetServer>(
        netd::NetdConfig{.max_connections = kConnections + 2,
                         .max_inflight_per_conn = kPipeline},
        st->front.get());
    if (!st->server->start()) throw std::runtime_error("kgc_churn: " + st->server->error());
  }
  return st;
}

}  // namespace

RunResult run_kgc_churn(const Options& opts, Tracer& tracer) {
  RunResult r;
  double setup_s = 0;
  auto st = timed_setups<State>(kSetupReps, setup_s,
                                [&](int rep) { return build(opts, rep, tracer); });

  // Per request only what the checks need to rebuild it, in a ring of
  // kWindow slots.
  struct Pending {
    std::uint64_t request_id = 0;  ///< 0 = empty slot
    Clock::time_point sent{};
    std::uint32_t slot = 0;   ///< position in the round
    std::uint32_t fresh = 0;  ///< enroll: number of the fresh identity
    bool answered = false;
  };
  std::vector<Pending> pending(kWindow);  ///< [request id % kWindow]
  std::vector<std::vector<std::uint64_t>> id_of(
      kConnections, std::vector<std::uint64_t>(kWindow));  ///< [conn][seq % kWindow]
  std::vector<float> enroll_ms, lookup_ms;
  std::size_t answered = 0;
  RoundRates rates(kRound);
  RssAfterRounds rss(kRound, kRssRounds);
  const std::string fresh_prefix = "fresh-" + std::to_string(opts.seed) + "-";
  const auto identity = [&](const Pending& p) {
    if (st->round_ops[p.slot] == kgc::KgcOp::kEnroll) {
      return fresh_prefix + std::to_string(p.fresh);
    }
    const std::size_t t = st->round_targets[p.slot];
    return t < kPopulation ? st->population[t] : "ghost-" + std::to_string(t - kPopulation);
  };
  // Partial keys checked against the pairing: a seed-chosen sample of the
  // first round's enrolls (every run completes at least one round).
  std::vector<bool> check_fresh(kEnrolls, false);
  InputRng pick(opts.seed ^ 0xC4EC);
  for (std::size_t i = 0; i < kPartialKeyChecks; ++i) check_fresh[pick.below(kEnrolls)] = true;
  struct Issued {
    std::string scoped_id;
    crypto::Bytes partial_key;
  };
  std::vector<Issued> issued_keys;
  std::size_t issued = 0, fresh = 0;
  bool stopping = false;
  // Each round sends its slots in a fresh seeded order: how many lookups
  // queue behind each enroll decides their latency, and one fixed order
  // would tie the whole run's latency median to that one draw.
  std::vector<std::uint32_t> order(kRound);
  std::iota(order.begin(), order.end(), 0);
  InputRng shuffle(opts.seed ^ 0x5A0F);
  const auto run_start = Clock::now();
  const std::uint32_t run_span = tracer.begin("kgc_churn.run");

  netd::MultiClient client(netd::MultiClient::Config{
      .port = st->server->port(),
      .connections = kConnections,
      .pipeline = kPipeline,
      .run_timeout_ms = static_cast<std::uint32_t>((opts.seconds + 60) * 1000)});
  const bool ok = client.run(
      [&](std::size_t conn, std::size_t seq) -> std::optional<crypto::Bytes> {
        if (issued % kRound == 0 && issued > 0 && rss.done(issued) &&
            (stopping || seconds_since(run_start) >= opts.seconds)) {
          stopping = true;
          return std::nullopt;
        }
        if (issued % kRound == 0) {
          for (std::size_t i = kRound - 1; i > 0; --i) {
            std::swap(order[i], order[shuffle.below(i + 1)]);
          }
        }
        const std::uint32_t slot = order[issued % kRound];
        kgc::KgcRequest req{.op = st->round_ops[slot], .request_id = ++issued};
        Pending p{.request_id = req.request_id, .slot = slot};
        if (req.op == kgc::KgcOp::kEnroll) {
          p.fresh = static_cast<std::uint32_t>(fresh);
          req.pk_bytes = st->keys[fresh % kKeyPool];
          ++fresh;
        }
        req.id = identity(p);
        Pending& ring = pending[req.request_id % kWindow];
        if (ring.request_id != 0 && !ring.answered) r.fail("kgc requests overran the window");
        ring = p;
        id_of[conn][seq % kWindow] = req.request_id;
        return kgc::encode_kgc_request(req);
      },
      [&](std::size_t, crypto::Bytes payload) {
        const auto now = Clock::now();
        rates.answered(now);
        rss.answered();
        const auto resp = kgc::decode_kgc_response(payload);
        if (!resp || resp->request_id == 0 ||
            pending[resp->request_id % kWindow].request_id != resp->request_id) {
          // Its request, if any, is counted below as never answered.
          r.note("undecodable or unmatched kgc response");
          return;
        }
        Pending& p = pending[resp->request_id % kWindow];
        const kgc::KgcOp op = st->round_ops[p.slot];
        if (p.answered) {
          r.op_wrong("kgc request " + std::to_string(resp->request_id) + " answered twice");
          return;
        }
        p.answered = true;
        ++answered;
        if (resp->op != op) {
          r.op_wrong("kgc request " + std::to_string(resp->request_id) +
                     " answered with another op");
          return;
        }
        const double ms = std::chrono::duration<double, std::milli>(now - p.sent).count();
        if (op == kgc::KgcOp::kEnroll) {
          enroll_ms.push_back(ms);
          if (resp->status != kgc::KgcStatus::kOk) {
            r.op_failed("enroll of " + identity(p) + " answered status " +
                        std::to_string(static_cast<int>(resp->status)));
          } else if (p.fresh < kEnrolls && check_fresh[p.fresh]) {
            issued_keys.push_back(
                Issued{cls::scoped_identity(identity(p), resp->epoch), resp->payload});
          }
        } else {
          lookup_ms.push_back(ms);
          const std::size_t t = st->round_targets[p.slot];
          const std::optional<crypto::Bytes> key =
              t < kPopulation ? std::optional(st->keys[t % kKeyPool]) : std::nullopt;
          if (auto why = check_lookup(identity(p), key, *resp); !why.empty()) {
            r.op_wrong(why);
          }
        }
        tracer.record(op == kgc::KgcOp::kEnroll ? "enroll" : "lookup", p.sent, now, run_span,
                      resp->request_id);
      },
      [&](std::size_t conn, std::size_t seq, Clock::time_point when) {
        const std::uint64_t id = id_of[conn][seq % kWindow];
        if (id == 1) rates.start(when);
        pending[id % kWindow].sent = when;
      });
  tracer.end(run_span);
  if (!ok) r.fail("kgc client: " + client.error());
  if (answered != issued) {
    r.op_failed(std::to_string(issued - answered) + " kgc request(s) never answered",
                issued - answered);
  }
  r.attempted = issued;

  {
    const Tracer::Scope s(tracer, "check.partial_keys");
    if (issued_keys.empty()) r.fail("no partial key was sampled for the pairing check");
    for (const Issued& k : issued_keys) {
      if (auto why = check_partial_key(st->kgc.params(), k.scoped_id, k.partial_key);
          !why.empty()) {
        r.op_wrong(why);  // one enroll answered with a wrong partial key
      }
    }
  }

  const double per_s = median(rates.rates());
  std::vector<double> all_ms(enroll_ms.begin(), enroll_ms.end());
  all_ms.insert(all_ms.end(), lookup_ms.begin(), lookup_ms.end());
  std::vector<double> lookup_us;
  for (const float ms : lookup_ms) lookup_us.push_back(ms * 1e3);
  const LatencySummary enroll = summarize({enroll_ms.begin(), enroll_ms.end()});
  const LatencySummary lookup = summarize(lookup_us);
  std::printf("kgc_churn: %zu requests (%zu rounds of %zu lookups + %zu unknown + "
              "%zu enrolls), population %zu zipf(%.1f), fsync off\n",
              issued, issued / kRound, kLookups, kGhosts, kEnrolls, kPopulation, kZipfS);
  print_rate("kgc_ops_per_s", "op/s", rates.rates());
  std::printf("  enroll_p50_ms  %.4f ms (n=%zu)\n", enroll.p50, enroll.count);
  if (enroll.p99) std::printf("  enroll_p99_ms  %.4f ms (n=%zu)\n", *enroll.p99, enroll.count);
  std::printf("  lookup_p50_us  %.2f us (n=%zu)\n", lookup.p50, lookup.count);
  if (lookup.p99) std::printf("  lookup_p99_us  %.2f us (n=%zu)\n", *lookup.p99, lookup.count);
  std::printf("  setup_s        %.4f s (median of %d)\n", setup_s, kSetupReps);

  if (!opts.trace) {
    put_end_to_end(r, setup_s, rss.mb(), per_s, median(all_ms));
    return r;
  }

  const auto net_snap = st->server->metrics().snapshot();
  st->server->stop();
  st->front->shutdown();
  r.metrics["netd.backpressure_pauses"] = static_cast<double>(net_snap.backpressure_pauses);
  r.metrics["netd.bytes_per_request"] =
      static_cast<double>(net_snap.bytes_in + net_snap.bytes_out) /
      static_cast<double>(net_snap.frames_in);

  LayerInputs in{.kgc = &st->kgc};
  {
    crypto::HmacDrbg drbg(opts.seed ^ 0x1A);
    const cls::Mccls scheme;
    for (std::size_t i = 0; i < 8; ++i) {
      in.signers.push_back(scheme.enroll(st->kgc, st->population[i], drbg));
    }
    for (std::size_t i = 0; i < 16; ++i) {
      in.messages.push_back(crypto::Bytes(st->population[i].begin(), st->population[i].end()));
    }
  }
  in.frame = kgc::encode_kgc_request(kgc::KgcRequest{
      .op = kgc::KgcOp::kLookup, .request_id = 1, .id = st->population[0]});
  measure_layers(opts.workload, in, opts.tmp_dir, tracer, r.metrics);
  return r;
}

}  // namespace perfbench
