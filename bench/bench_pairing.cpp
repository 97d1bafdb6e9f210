// The verification hot path under the microscope: projective vs. affine
// Miller loop, the final exponentiation split, multi-pairing products, and
// the end-to-end McCLS verify that every AODV RREQ/RREP authentication pays
// for.
//
// Unlike the google-benchmark binaries this one hand-rolls its timing so it
// can emit the BENCH_pairing.json trajectory file (see bench_json.hpp) with
// the before and after numbers side by side; the speedup claims are then
// enforced by `tools/bench_compare --gate`:
//   * pair_affine vs pair_projective — the ≥3× projective-loop claim;
//   * pair_projective_x4 vs multi_pair_k4 — the structural share of the
//     multi-pairing win (four single-pair loops against one shared loop on
//     the same field kernel), reported as multi_pair_k4_structural.
// The field share is timed separately: mont_mul_cios against the loop-form
// mont_mul_portable reference, and the lazy against the eager Fp2 multiply.
//
// Knobs: MCCLS_BENCH_JSON (output path, default BENCH_pairing.json),
//        MCCLS_BENCH_SAMPLES (timed batches per op, default 15).
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "cls/mccls.hpp"
#include "crypto/drbg.hpp"
#include "math/fp2.hpp"
#include "math/u256.hpp"
#include "pairing/pairing.hpp"

namespace {

using namespace mccls;
using ec::G1;
using math::U256;

unsigned samples() {
  if (const char* env = std::getenv("MCCLS_BENCH_SAMPLES"); env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 15;
}

}  // namespace

int main() {
  const unsigned n_samples = samples();
  const G1& g = G1::generator();
  const G1 p = g.mul(U256::from_u64(31337));
  const G1 q = g.mul(U256::from_u64(271828));

  // Distinct pair inputs for the multi-pairing products (distinct first AND
  // second arguments, like the coalescer's per-group combined points).
  std::vector<std::pair<G1, G1>> pairs16;
  for (std::uint64_t i = 0; i < 16; ++i) {
    pairs16.emplace_back(g.mul(U256::from_u64(0x1111 * (i + 1))),
                         g.mul(U256::from_u64(0x2222 * (i + 3))));
  }
  const auto pairs_k = [&](std::size_t k) {
    return std::span<const std::pair<G1, G1>>(pairs16).first(k);
  };

  // End-to-end verify fixture.
  crypto::HmacDrbg rng(std::uint64_t{0xbe9c});
  const cls::Kgc kgc = cls::Kgc::setup(rng);
  const cls::Mccls scheme;
  const cls::UserKeys keys = scheme.enroll(kgc, "bench-node", rng);
  const auto message = crypto::as_bytes("bench: RREQ payload equivalent");
  const cls::McclsSignature sig = cls::Mccls::sign_typed(kgc.params(), keys, message, rng);
  cls::PairingCache cache;
  (void)cache.get(kgc.params(), keys.id);  // warm so verify times 1 pairing

  std::vector<bench::BenchResult> results;
  const auto run = [&](const std::string& name, unsigned iters, auto&& fn) {
    results.push_back(bench::time_op(name, n_samples, iters, fn));
    const auto& r = results.back();
    std::printf("%-26s %12.1f ns/op (median), %12.1f ns/op (min)\n", name.c_str(),
                r.median_ns, r.min_ns);
  };
  const auto median_of = [&](const std::string& name) {
    for (const auto& r : results) {
      if (r.name == name) return r.median_ns;
    }
    return 0.0;
  };

  run("pair_affine", 20, [&] { (void)pairing::pair_affine(p, q); });
  run("pair_projective", 100, [&] { (void)pairing::pair(p, q); });
  run("miller_loop_projective", 100, [&] { (void)pairing::miller_loop(p, q); });
  run("final_exponentiation", 1000, [&] {
    static const math::Fp2 f = pairing::miller_loop(p, q);
    (void)pairing::final_exponentiation(f);
  });

  // Four independent pairings vs the same four as one shared-loop product:
  // the structural share of the multi-pairing win.
  run("pair_projective_x4", 25, [&] {
    for (const auto& [a, b] : pairs_k(4)) (void)pairing::pair(a, b);
  });
  run("multi_pair_k2", 50, [&] { (void)pairing::multi_pair(pairs_k(2)); });
  run("multi_pair_k4", 25, [&] { (void)pairing::multi_pair(pairs_k(4)); });
  run("multi_pair_k8", 12, [&] { (void)pairing::multi_pair(pairs_k(8)); });
  run("multi_pair_k16", 6, [&] { (void)pairing::multi_pair(pairs_k(16)); });

  // Field-layer microbenches, so field wins are tracked separately from loop
  // wins: the CIOS Montgomery kernel vs the portable reference, and the
  // lazy-reduction Fp2 multiply vs the eager Karatsuba one.
  {
    const math::Fp2 fa = pairing::miller_loop(p, q);
    const math::Fp2 fb = pairing::miller_loop(q, p);
    const U256& m = math::Fp::modulus();
    run("mont_mul_cios", 2000000, [&] {
      static U256 acc = fa.re().raw();
      acc = math::mont_mul_cios<math::FpParams>(acc, fb.re().raw());
    });
    run("mont_mul_portable", 2000000, [&] {
      static U256 acc = fa.re().raw();
      acc = math::mont_mul_portable(acc, fb.re().raw(), m, math::FpParams::kN0Inv);
    });
    run("fp2_mul", 2000000, [&] {
      static math::Fp2 acc = fa;
      acc = math::Fp2::mul_eager(acc, fb);
    });
    run("fp2_mul_lazy", 2000000, [&] {
      static math::Fp2 acc = fa;
      acc = math::Fp2::mul_lazy(acc, fb);
    });
  }

  run("mccls_verify_cached", 50, [&] {
    (void)cls::Mccls::verify_typed(kgc.params(), keys.id, keys.public_key.primary(),
                                   message, sig, &cache);
  });
  run("g1_mul", 200, [&] { (void)p.mul(U256::from_u64(0x123456789abcdefULL)); });

  const double affine = median_of("pair_affine");
  const double projective = median_of("pair_projective");
  const double speedup = projective > 0 ? affine / projective : 0;
  std::printf("\npair() speedup (affine / projective, medians): %.2fx\n", speedup);

  const double multi_k4 = median_of("multi_pair_k4");
  const double structural =
      multi_k4 > 0 ? median_of("pair_projective_x4") / multi_k4 : 0;
  const double cios_gain = median_of("mont_mul_cios") > 0
                               ? median_of("mont_mul_portable") / median_of("mont_mul_cios")
                               : 0;
  const double lazy_gain = median_of("fp2_mul_lazy") > 0
                               ? median_of("fp2_mul") / median_of("fp2_mul_lazy")
                               : 0;
  std::printf("multi_pair_k4 vs 4x pair_projective: %.2fx (field: mont_mul cios %.2fx, "
              "fp2 lazy %.2fx)\n",
              structural, cios_gain, lazy_gain);

  const char* path_env = std::getenv("MCCLS_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_pairing.json";
  if (!bench::write_bench_json(path, "pairing", results,
                               {{"pair_speedup_median", speedup},
                                {"multi_pair_k4_structural", structural},
                                {"mont_mul_cios_speedup", cios_gain},
                                {"fp2_lazy_speedup", lazy_gain}})) {
    return 1;
  }
  return 0;
}
