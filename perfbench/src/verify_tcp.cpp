// verify_tcp — the gateway path. A closed loop over loopback TCP: two
// connections keep up to 32 McCLS verify frames each in flight through netd
// into verifyd. Signers are Zipf-skewed, half the frames are by-identity
// (resolved through a ResilientResolver over a KeyDirectory) and a fixed
// share carry a message altered after signing, which must be rejected.
//
// Threads: this one (the client) + the netd loop + 1 verifyd worker = 3. One
// worker, not the budget's two: on this shared 4-vCPU host, four busy
// threads made run-to-run throughput swing by ±8%; with three it repeats
// within ±4%, and the coalescer, batch_verify, multi_pair, the resolver and
// the transport all still run.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <numeric>

#include "checks.hpp"
#include "cls/mccls.hpp"
#include "corpus.hpp"
#include "kgc/directory.hpp"
#include "layers.hpp"
#include "netd/client.hpp"
#include "netd/front.hpp"
#include "netd/server.hpp"
#include "svc/resolver.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mccls;

// The mix; perfbench/README.md gives the source of each value.
constexpr std::size_t kSigners = 128;
constexpr double kZipfS = 1.0;
constexpr std::size_t kRound = 1024;  ///< frames per round (one corpus pass)
constexpr std::size_t kTampered = 20;  ///< ~2% of a round
constexpr std::size_t kMessageBytes = 64;
constexpr unsigned kWorkers = 1;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kPipeline = 32;
/// Peak RSS is read when this many rounds are answered (a few seconds).
constexpr std::size_t kRssRounds = 4;

struct State {
  explicit State(SignerSet s) : signers(std::move(s)) {}

  SignerSet signers;
  kgc::KeyDirectory directory;
  svc::ResilientResolver resolver{&directory};
  std::vector<svc::VerifyRequest> corpus;  ///< request_id set per send
  std::vector<svc::Status> expected;       ///< verdict each corpus entry must get
  std::unique_ptr<svc::VerifyService> service;
  std::unique_ptr<netd::VerifydFrontEnd> front;
  std::unique_ptr<netd::NetServer> server;  ///< last: stopped first
};

std::unique_ptr<State> build(std::uint64_t seed, Tracer& tracer) {
  const Tracer::Scope setup(tracer, "setup");
  crypto::HmacDrbg drbg(seed);
  InputRng rng(seed);
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kSigners; ++i) ids.push_back("node-" + std::to_string(i));

  std::unique_ptr<State> st;
  {
    const Tracer::Scope s(tracer, "cls.kgc_setup_and_enroll", setup.id());
    st = std::make_unique<State>(make_signers(drbg, ids));
  }
  {
    const Tracer::Scope s(tracer, "kgc.directory_enroll", setup.id());
    for (const auto& k : st->signers.keys) {
      if (st->directory.enroll(k.id, k.public_key.to_bytes(), 0) != kgc::DirStatus::kOk) {
        throw std::runtime_error("verify_tcp: directory enroll failed for " + k.id);
      }
    }
  }
  {
    const Tracer::Scope s(tracer, "cls.sign_corpus", setup.id());
    const auto messages = make_messages(rng, kRound, kMessageBytes);
    // Exactly half by-identity and exactly kTampered tampered, at
    // seed-chosen positions.
    std::vector<std::size_t> order(kRound);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = kRound - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    std::vector<bool> tampered(kRound, false), by_id(kRound, false);
    for (std::size_t i = 0; i < kTampered; ++i) tampered[order[i]] = true;
    for (std::size_t i = 0; i < kRound; i += 2) by_id[order[i]] = true;
    const cls::Mccls scheme;
    st->corpus.reserve(kRound);
    const std::vector<std::size_t> signer_of = zipf_assignment(kSigners, kZipfS, kRound, rng);
    for (std::size_t i = 0; i < kRound; ++i) {
      const cls::UserKeys& signer = st->signers.keys[signer_of[i]];
      svc::VerifyRequest req{.request_id = 0,
                             .scheme = "McCLS",
                             .id = signer.id,
                             .by_identity = by_id[i],
                             .public_key = by_id[i] ? cls::PublicKey{} : signer.public_key,
                             .message = messages[i],
                             .signature = {}};
      req.signature = scheme.sign(st->signers.kgc.params(), signer, req.message, drbg);
      if (tampered[i]) req.message[rng.below(kMessageBytes)] ^= 0x01;
      st->corpus.push_back(std::move(req));
      st->expected.push_back(tampered[i] ? svc::Status::kRejected : svc::Status::kVerified);
    }
  }
  {
    const Tracer::Scope s(tracer, "svc.start_and_cache_warm", setup.id());
    st->service = std::make_unique<svc::VerifyService>(
        st->signers.kgc.params(),
        svc::ServiceConfig{.workers = kWorkers, .resolver = &st->resolver});
    st->resolver.set_metrics(&st->service->metrics());
    st->service->cache().warm(st->signers.kgc.params(), ids);
  }
  {
    const Tracer::Scope s(tracer, "netd.start", setup.id());
    st->front = std::make_unique<netd::VerifydFrontEnd>(*st->service);
    st->server = std::make_unique<netd::NetServer>(
        netd::NetdConfig{.max_connections = kConnections + 2,
                         .max_inflight_per_conn = kPipeline},
        st->front.get());
    if (!st->server->start()) throw std::runtime_error("verify_tcp: " + st->server->error());
  }
  return st;
}

/// The same corpus submitted in-process (no netd), closed loop with the
/// same number of requests in flight; median submit-to-completion, µs.
double inproc_p50_us(State& st, RunResult& r) {
  svc::VerifyService service(st.signers.kgc.params(),
                             svc::ServiceConfig{.workers = kWorkers,
                                                .resolver = &st.resolver});
  std::vector<std::string> ids;
  for (const auto& k : st.signers.keys) ids.push_back(k.id);
  service.cache().warm(st.signers.kgc.params(), ids);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;
  std::vector<double> latencies;
  VerdictLedger ledger(kWindow);
  std::string problem;
  for (std::size_t i = 0; i < kRound; ++i) {
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return in_flight < kConnections * kPipeline; });
      ++in_flight;
    }
    svc::VerifyRequest req = st.corpus[i];
    req.request_id = i + 1;
    if (auto why = ledger.expect(req.request_id, st.expected[i]); !why.empty()) problem = why;
    const auto sent = Clock::now();
    service.submit(std::move(req), [&, sent](const svc::VerifyResponse& resp) {
      const double us = std::chrono::duration<double, std::micro>(Clock::now() - sent).count();
      std::lock_guard lock(mu);
      latencies.push_back(us);
      if (auto why = ledger.answer(resp.request_id, resp.status); !why.empty()) problem = why;
      --in_flight;
      cv.notify_all();
    });
  }
  service.shutdown();
  // The in-process pass is not part of `attempted`, so a problem here fails
  // the run as a whole.
  if (!problem.empty()) r.fail("in-process: " + problem);
  if (auto why = ledger.unanswered(); !why.empty()) r.fail("in-process: " + why);
  return median(latencies);
}

}  // namespace

RunResult run_verify_tcp(const Options& opts, Tracer& tracer) {
  RunResult r;
  double setup_s = 0;
  auto st = timed_setups<State>(kSetupReps, setup_s,
                                [&](int) { return build(opts.seed, tracer); });

  VerdictLedger ledger(kWindow);
  std::vector<Clock::time_point> sent_at(kWindow);  ///< [request id % kWindow]
  std::vector<std::vector<std::uint64_t>> id_of(
      kConnections, std::vector<std::uint64_t>(kWindow));  ///< [conn][seq % kWindow]
  std::vector<float> latency_ms;
  std::size_t issued = 0;
  bool stopping = false;
  RoundRates rates(kRound);
  RssAfterRounds rss(kRound, kRssRounds);
  // Each round sends the whole corpus in a fresh seeded order: which frames
  // share a drained chunk decides how well the coalescer batches, and one
  // fixed order would tie the whole run's throughput to that one draw.
  std::vector<std::size_t> order(kRound);
  std::iota(order.begin(), order.end(), 0);
  InputRng shuffle(opts.seed ^ 0x5A0F);
  const auto run_start = Clock::now();
  const std::uint32_t run_span = tracer.begin("verify_tcp.run");

  netd::MultiClient client(netd::MultiClient::Config{
      .port = st->server->port(),
      .connections = kConnections,
      .pipeline = kPipeline,
      .run_timeout_ms = static_cast<std::uint32_t>((opts.seconds + 60) * 1000)});
  const bool ok = client.run(
      [&](std::size_t conn, std::size_t seq) -> std::optional<crypto::Bytes> {
        // Whole rounds only: once time is up, finish the round in progress.
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
        const std::size_t slot = order[issued % kRound];
        svc::VerifyRequest req = st->corpus[slot];
        req.request_id = ++issued;
        if (auto why = ledger.expect(req.request_id, st->expected[slot]); !why.empty()) {
          r.fail(why);
        }
        id_of[conn][seq % kWindow] = req.request_id;
        return svc::encode_request(req);
      },
      [&](std::size_t, crypto::Bytes payload) {
        const auto now = Clock::now();
        rates.answered(now);
        rss.answered();
        const auto resp = svc::decode_response(payload);
        if (!resp) {  // its request is counted below as never answered
          r.note("undecodable verify response");
          return;
        }
        if (auto why = ledger.answer(resp->request_id, resp->status); !why.empty()) {
          r.op_wrong(why);
          return;
        }
        const std::size_t k = resp->request_id % kWindow;
        latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - sent_at[k]).count());
        tracer.record("request", sent_at[k], now, run_span, resp->request_id);
      },
      [&](std::size_t conn, std::size_t seq, Clock::time_point when) {
        const std::uint64_t id = id_of[conn][seq % kWindow];
        if (id == 1) rates.start(when);
        sent_at[id % kWindow] = when;
      });
  tracer.end(run_span);
  if (!ok) r.fail("verify client: " + client.error());
  if (auto why = ledger.unanswered(); !why.empty()) r.op_failed(why, ledger.missing());
  r.attempted = issued;

  const double per_s = median(rates.rates());
  const LatencySummary lat = summarize({latency_ms.begin(), latency_ms.end()});
  std::printf("verify_tcp: %zu frames (%zu rounds of %zu), %zu signers zipf(%.1f), "
              "%zu tampered/round, half by-identity\n",
              issued, issued / kRound, kRound, kSigners, kZipfS, kTampered);
  print_rate("verify_per_s", "sig/s", rates.rates());
  std::printf("  verify_p50_ms  %.4f ms (n=%zu)\n", lat.p50, lat.count);
  if (lat.p99) std::printf("  verify_p99_ms  %.4f ms (n=%zu)\n", *lat.p99, lat.count);
  std::printf("  setup_s        %.4f s (median of %d)\n", setup_s, kSetupReps);

  if (!opts.trace) {
    put_end_to_end(r, setup_s, rss.mb(), per_s, lat.p50);
    return r;
  }

  const auto svc_snap = st->service->metrics().snapshot();
  const auto net_snap = st->server->metrics().snapshot();
  // Stop the serving threads so the in-process pass below stays within the
  // thread budget.
  st->server->stop();
  st->service->shutdown();
  const double settled = static_cast<double>(svc_snap.verified + svc_snap.rejected);
  r.metrics["svc.mean_batch"] = svc_snap.mean_batch_size();
  r.metrics["svc.singles_share"] = static_cast<double>(svc_snap.single_verifies) / settled;
  r.metrics["svc.fallbacks_per_batch"] =
      svc_snap.batches == 0 ? 0.0
                            : static_cast<double>(svc_snap.batch_fallbacks) /
                                  static_cast<double>(svc_snap.batches);
  r.metrics["svc.resolve_p50_us"] = svc_snap.resolve_p50_ns / 1e3;
  r.metrics["netd.backpressure_pauses"] = static_cast<double>(net_snap.backpressure_pauses);
  r.metrics["netd.bytes_per_request"] =
      static_cast<double>(net_snap.bytes_in + net_snap.bytes_out) /
      static_cast<double>(net_snap.frames_in);
  {
    const Tracer::Scope s(tracer, "svc.inproc");
    r.metrics["svc.inproc_p50_us"] = inproc_p50_us(*st, r);
  }

  LayerInputs in{.kgc = &st->signers.kgc};
  in.signers.assign(st->signers.keys.begin(), st->signers.keys.begin() + 8);
  for (std::size_t i = 0; i < 16; ++i) in.messages.push_back(st->corpus[i].message);
  svc::VerifyRequest sample = st->corpus[0];
  sample.request_id = 1;
  in.frame = svc::encode_request(sample);
  measure_layers(opts.workload, in, opts.tmp_dir, tracer, r.metrics);
  return r;
}

}  // namespace perfbench
