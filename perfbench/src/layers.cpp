#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "cls/batch.hpp"
#include "cls/mccls.hpp"
#include "crypto/hash.hpp"
#include "kgc/kgcd.hpp"
#include "netd/client.hpp"
#include "netd/server.hpp"
#include "pairing/pairing.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace mccls;

/// Keeps a computed value alive so the timed work cannot be elided.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// Median over `reps` timed batches (after one untimed warm-up batch) of the
/// mean ns per call of op(i), i in [0, batch).
template <class F>
double per_op_ns(std::size_t batch, int reps, F&& op) {
  std::vector<double> samples;
  for (int r = -1; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) op(i);
    if (r >= 0) samples.push_back(ns_since(t0) / static_cast<double>(batch));
  }
  return median(samples);
}

/// Median of `n` individually timed calls of op(i) (for millisecond ops).
template <class F>
double each_op_ns(std::size_t n, F&& op) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    op(i);
    samples.push_back(ns_since(t0));
  }
  return median(samples);
}

class EchoSink final : public netd::FrameSink {
 public:
  bool try_dispatch(crypto::Bytes& frame, const Reply& reply) override {
    reply(std::move(frame));
    return true;
  }
};

constexpr int kReps = 7;

}  // namespace

const std::vector<std::string>& micro_layer_metrics() {
  static const std::vector<std::string> names = {
      "math.fp_mul_ns",          "math.fp_inv_us",
      "math.fp2_mul_ns",         "ec.g1_mul_us",
      "ec.g1_mul2_us",           "ec.g1_mul_generator_us",
      "crypto.hash_to_g1_us",    "pairing.pair_us",
      "pairing.miller_loop_us",  "pairing.final_exp_us",
      "pairing.multi_pair_k4_us", "cls.sign_us",
      "cls.verify_us",           "cls.batch_verify_per_sig_us",
      "cls.gt_cache_miss_us",    "kgc.enroll_us",
      "kgc.fsync_p50_us",        "kgc.fsyncs_per_enroll",
      "kgc.lookup_ns",           "kgc.resolve_hot_ns",
      "kgc.resolve_cold_us",     "netd.echo_rtt_us",
  };
  return names;
}

const std::vector<std::string>& micro_layers_of(const std::string& workload) {
  static const std::map<std::string, std::vector<std::string>> on_path = {
      {"verify_tcp",
       {"math.fp_mul_ns", "math.fp_inv_us", "math.fp2_mul_ns", "ec.g1_mul2_us",
        "crypto.hash_to_g1_us", "pairing.multi_pair_k4_us", "cls.verify_us",
        "cls.batch_verify_per_sig_us", "cls.gt_cache_miss_us", "kgc.resolve_hot_ns",
        "kgc.resolve_cold_us", "netd.echo_rtt_us"}},
      {"kgc_churn",
       {"math.fp_mul_ns", "math.fp_inv_us", "math.fp2_mul_ns", "ec.g1_mul_us",
        "crypto.hash_to_g1_us", "kgc.enroll_us", "kgc.fsync_p50_us", "kgc.fsyncs_per_enroll",
        "kgc.lookup_ns", "netd.echo_rtt_us"}},
      {"manet_paper",
       {"math.fp_mul_ns", "math.fp_inv_us", "math.fp2_mul_ns", "ec.g1_mul_us", "ec.g1_mul2_us",
        "ec.g1_mul_generator_us", "crypto.hash_to_g1_us", "pairing.pair_us",
        "pairing.miller_loop_us", "pairing.final_exp_us", "cls.sign_us", "cls.verify_us",
        "cls.gt_cache_miss_us"}},
  };
  static const std::vector<std::string> none;
  const auto it = on_path.find(workload);
  return it == on_path.end() ? none : it->second;
}

void measure_layers(const std::string& workload, const LayerInputs& in,
                    const std::string& tmp_dir, Tracer& tracer,
                    std::map<std::string, double>& out) {
  if (in.kgc == nullptr || in.signers.size() < 4 || in.messages.size() < 16) {
    throw std::invalid_argument("measure_layers: corpus too small");
  }
  const std::vector<std::string>& names = micro_layers_of(workload);
  const auto want = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  const auto want_prefix = [&](const char* prefix) {
    return std::any_of(names.begin(), names.end(),
                       [&](const std::string& n) { return n.rfind(prefix, 0) == 0; });
  };
  const Tracer::Scope all(tracer, "layers");
  const cls::SystemParams& params = in.kgc->params();
  const cls::UserKeys& first = in.signers.front();
  crypto::HmacDrbg rng(std::uint64_t{0x1A7E5});

  // Signatures over the corpus messages, round robin over the signers, and
  // 16 by the first signer alone for the batch equation.
  struct Signed {
    const cls::UserKeys* signer;
    const crypto::Bytes* message;
    cls::McclsSignature sig;
    math::Fq h;
  };
  std::vector<Signed> signed_msgs;
  std::vector<cls::BatchItem> batch;
  {
    const Tracer::Scope prep(tracer, "layers.prepare", all.id());
    for (std::size_t i = 0; i < in.messages.size(); ++i) {
      const cls::UserKeys& signer = in.signers[i % in.signers.size()];
      const auto sig = cls::Mccls::sign_typed(params, signer, in.messages[i], rng);
      signed_msgs.push_back(Signed{&signer, &in.messages[i], sig,
                                   cls::mccls_challenge(in.messages[i], sig.r,
                                                        signer.public_key.primary())});
      batch.push_back(cls::BatchItem{
          in.messages[i], cls::Mccls::sign_typed(params, first, in.messages[i], rng)});
    }
  }
  const std::size_t n = signed_msgs.size();

  if (want_prefix("math.")) {  // Fp from signature coordinates, Fp2 from pairing values.
    const Tracer::Scope s(tracer, "layers.math", all.id());
    std::vector<math::Fp> xs;
    for (const Signed& m : signed_msgs) {
      xs.push_back(m.sig.r.x());
      xs.push_back(m.sig.s.x());
    }
    math::Fp acc = xs[0];
    out["math.fp_mul_ns"] = per_op_ns(8192, kReps, [&](std::size_t i) {
      acc = acc * xs[i % xs.size()];
    });
    keep(acc);
    out["math.fp_inv_us"] = per_op_ns(64, kReps, [&](std::size_t i) {
      keep(xs[i % xs.size()].inv());
    }) / 1e3;
    std::vector<math::Fp2> fs;
    for (std::size_t i = 0; i < 4; ++i) {
      fs.push_back(pairing::pair(signed_msgs[i].signer->partial_key, signed_msgs[i].sig.r)
                       .value());
    }
    math::Fp2 acc2 = fs[0];
    out["math.fp2_mul_ns"] = per_op_ns(4096, kReps, [&](std::size_t i) {
      acc2 = acc2 * fs[i % fs.size()];
    });
    keep(acc2);
  }

  if (want_prefix("ec.")) {  // the scalar multiplications of sign and verify
    const Tracer::Scope s(tracer, "layers.ec", all.id());
    if (want("ec.g1_mul_us")) {
      out["ec.g1_mul_us"] = per_op_ns(16, kReps, [&](std::size_t i) {
        const cls::UserKeys& k = *signed_msgs[i % n].signer;
        keep(k.partial_key.mul(k.secret.inv()));
      }) / 1e3;
    }
    if (want("ec.g1_mul2_us")) {
      out["ec.g1_mul2_us"] = per_op_ns(16, kReps, [&](std::size_t i) {
        const Signed& m = signed_msgs[i % n];
        keep(ec::G1::mul2(m.sig.v.to_u256(), params.p, m.h.neg().to_u256(), m.sig.r));
      }) / 1e3;
    }
    if (want("ec.g1_mul_generator_us")) {
      out["ec.g1_mul_generator_us"] = per_op_ns(32, kReps, [&](std::size_t i) {
        keep(ec::G1::mul_generator(signed_msgs[i % n].sig.v));
      }) / 1e3;
    }
  }

  if (want("crypto.hash_to_g1_us")) {  // H1 onto G1 over the corpus identities
    const Tracer::Scope s(tracer, "layers.crypto", all.id());
    out["crypto.hash_to_g1_us"] = per_op_ns(32, kReps, [&](std::size_t i) {
      const std::string& id = in.signers[i % in.signers.size()].id;
      keep(crypto::hash_to_g1("perfbench-H1",
                              std::span(reinterpret_cast<const std::uint8_t*>(id.data()),
                                        id.size())));
    }) / 1e3;
  }

  if (want_prefix("pairing.")) {
    const Tracer::Scope s(tracer, "layers.pairing", all.id());
    const auto lhs = [&](std::size_t i) -> const ec::G1& {
      return signed_msgs[i % n].signer->partial_key;
    };
    const auto rhs = [&](std::size_t i) -> const ec::G1& { return signed_msgs[i % n].sig.r; };
    if (want("pairing.pair_us")) {
      out["pairing.pair_us"] =
          per_op_ns(8, kReps, [&](std::size_t i) { keep(pairing::pair(lhs(i), rhs(i))); }) /
          1e3;
    }
    if (want("pairing.miller_loop_us")) {
      out["pairing.miller_loop_us"] = per_op_ns(8, kReps, [&](std::size_t i) {
        keep(pairing::miller_loop(lhs(i), rhs(i)));
      }) / 1e3;
    }
    if (want("pairing.final_exp_us")) {
      std::vector<math::Fp2> loops;
      for (std::size_t i = 0; i < 8; ++i) loops.push_back(pairing::miller_loop(lhs(i), rhs(i)));
      out["pairing.final_exp_us"] = per_op_ns(8, kReps, [&](std::size_t i) {
        keep(pairing::final_exponentiation(loops[i]));
      }) / 1e3;
    }
    if (want("pairing.multi_pair_k4_us")) {
      std::vector<std::pair<ec::G1, ec::G1>> quad;
      for (std::size_t i = 0; i < 4; ++i) quad.emplace_back(lhs(i), rhs(i));
      out["pairing.multi_pair_k4_us"] =
          per_op_ns(4, kReps, [&](std::size_t) { keep(pairing::multi_pair(quad)); }) / 1e3;
    }
  }

  if (want_prefix("cls.")) {  // the scheme's operations with and without the GT cache
    const Tracer::Scope s(tracer, "layers.cls", all.id());
    cls::PairingCache cache;
    std::vector<std::string> ids;
    for (const auto& k : in.signers) ids.push_back(k.id);
    cache.warm(params, ids);
    if (want("cls.sign_us")) {
      out["cls.sign_us"] = per_op_ns(16, kReps, [&](std::size_t i) {
        keep(cls::Mccls::sign_typed(params, *signed_msgs[i % n].signer,
                                    *signed_msgs[i % n].message, rng));
      }) / 1e3;
    }
    bool all_ok = true;
    if (want("cls.verify_us")) {
      out["cls.verify_us"] = per_op_ns(16, kReps, [&](std::size_t i) {
        const Signed& m = signed_msgs[i % n];
        all_ok &= cls::Mccls::verify_typed(params, m.signer->id,
                                           m.signer->public_key.primary(), *m.message, m.sig,
                                           &cache);
      }) / 1e3;
    }
    if (want("cls.batch_verify_per_sig_us")) {
      out["cls.batch_verify_per_sig_us"] = per_op_ns(1, kReps, [&](std::size_t) {
        all_ok &= cls::batch_verify(params, first.id, first.public_key.primary(), batch, rng,
                                    &cache);
      }) / 1e3 / static_cast<double>(batch.size());
    }
    if (!all_ok) throw std::runtime_error("measure_layers: corpus signature failed to verify");
    if (want("cls.gt_cache_miss_us")) {
      cls::PairingCache cold;
      out["cls.gt_cache_miss_us"] = each_op_ns(4 * kReps, [&](std::size_t i) {
        cold.clear();
        keep(cold.get(params, ids[i % ids.size()]));
      }) / 1e3;
    }
  }

  if (want_prefix("kgc.")) {  // in-process daemon with the durability default (fsync on)
    const Tracer::Scope s(tracer, "layers.kgc", all.id());
    const std::string dir = tmp_dir + "/layers-kgcd";
    std::filesystem::remove_all(dir);
    kgc::Kgcd daemon(in.kgc->master_key_for_tests(),
                     kgc::KgcdConfig{.data_dir = dir, .fsync = true});
    constexpr std::size_t kEnrolls = 48;
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < kEnrolls; ++i) ids.push_back("layers-" + std::to_string(i));
    bool enrolled = true;
    const double enroll_ns = each_op_ns(kEnrolls, [&](std::size_t i) {
      const auto pk = in.signers[i % in.signers.size()].public_key.to_bytes();
      enrolled &= daemon.enroll(ids[i], pk).status == kgc::KgcStatus::kOk;
    });
    if (!enrolled) throw std::runtime_error("measure_layers: kgcd enroll failed");
    if (want("kgc.enroll_us")) {
      const auto snap = daemon.metrics().snapshot();
      out["kgc.enroll_us"] = enroll_ns / 1e3;
      out["kgc.fsync_p50_us"] = snap.wal_fsync_p50_ns / 1e3;
      out["kgc.fsyncs_per_enroll"] =
          static_cast<double>(snap.wal_fsyncs) / static_cast<double>(kEnrolls);
    }
    if (want("kgc.lookup_ns")) {
      out["kgc.lookup_ns"] = per_op_ns(1024, kReps, [&](std::size_t i) {
        keep(daemon.lookup(ids[i % kEnrolls]).status);
      });
    }
    if (want("kgc.resolve_hot_ns")) {
      out["kgc.resolve_hot_ns"] = per_op_ns(1024, kReps, [&](std::size_t i) {
        keep(daemon.directory().resolve(ids[i % kEnrolls]).outcome);
      });
      std::vector<double> cold;
      for (int r = 0; r < kReps; ++r) {
        daemon.directory().drop_caches();
        const auto t0 = Clock::now();
        for (const std::string& id : ids) keep(daemon.directory().resolve(id).outcome);
        cold.push_back(ns_since(t0) / static_cast<double>(kEnrolls));
      }
      out["kgc.resolve_cold_us"] = median(cold) / 1e3;
    }
  }

  if (want("netd.echo_rtt_us")) {  // one framed round trip through the epoll loop, echoed
    const Tracer::Scope s(tracer, "layers.netd", all.id());
    EchoSink echo;
    netd::NetServer server(netd::NetdConfig{.max_connections = 4, .tick_ms = 5}, &echo);
    if (!server.start()) throw std::runtime_error("measure_layers: " + server.error());
    netd::BlockingClient client;
    if (!client.connect("127.0.0.1", server.port())) {
      throw std::runtime_error("measure_layers: " + client.error());
    }
    bool echoed = true;
    out["netd.echo_rtt_us"] = each_op_ns(1000, [&](std::size_t) {
      const auto reply = client.call(in.frame);
      echoed &= reply.has_value() && *reply == in.frame;
    }) / 1e3;
    client.close();
    server.stop();
    if (!echoed) throw std::runtime_error("measure_layers: netd echo mismatch");
  }
}

}  // namespace perfbench
