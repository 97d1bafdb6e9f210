// Registered properties for the math → pairing layers: algebraic laws the
// optimized kernels must satisfy for ALL inputs, plus the differential
// oracles pair() vs pair_affine() and batched vs individual operations.
//
// Every property consumes a fixed-arity vector of edge-biased U256 scalars
// and derives its field/group elements from them, so counterexamples shrink
// toward small readable integers.
#include <functional>

#include "math/batch_inv.hpp"
#include "pairing/pairing.hpp"
#include "qa/gen.hpp"
#include "qa/property.hpp"

namespace mccls::qa {

namespace {

using math::Fp;
using math::Fp2;
using math::Fq;
using math::U256;
using math::U512;
using Scalars = std::vector<U256>;
using pairing::Gt;

void prop(std::string name, int iters, std::size_t arity,
          std::function<bool(const Scalars&)> holds) {
  define_property<Scalars>("math", std::move(name), iters, scalar_vec_gen(arity),
                           std::move(holds));
}

U256 mod_m(const U256& x, const U256& m) {
  U256 r = x;
  while (cmp(r, m) >= 0) sub(r, r, m);
  return r;
}

ec::G1 point_from(const U256& k) { return ec::G1::mul_generator(mod_m(k, Fq::modulus())); }

// One field's CIOS kernels against mont_mul_portable / mont_redc_portable on
// raw residues: a, b reduced mod m; REDC inputs t < m * 2^256, including the
// largest one, m * 2^256 - 1.
template <class Params>
bool cios_eq_portable(const Scalars& s) {
  constexpr U256 m{Params::kMod};
  constexpr std::uint64_t n0 = Params::kN0Inv;
  const U256 a = mod_m(s[0], m), b = mod_m(s[1], m);
  U256 m_minus_1;
  sub(m_minus_1, m, U256::one());
  const U512 t = U512::from_halves(s[2], mod_m(s[3], m));
  const U512 t_max = U512::from_halves(U256{{~0ULL, ~0ULL, ~0ULL, ~0ULL}}, m_minus_1);
  return mont_mul_cios<Params>(a, b) == mont_mul_portable(a, b, m, n0) &&
         mont_redc_cios<Params>(sqr_wide(a)) == mont_redc_portable(mul_wide(a, a), m, n0) &&
         mont_redc_cios<Params>(t) == mont_redc_portable(t, m, n0) &&
         mont_redc_cios<Params>(t_max) == mont_redc_portable(t_max, m, n0);
}

}  // namespace

void register_math_properties() {
  // ---- u256 ----------------------------------------------------------------
  prop("u256_add_sub_roundtrip", 256, 2, [](const Scalars& s) {
    U256 sum, back;
    add(sum, s[0], s[1]);
    sub(back, sum, s[1]);  // exact mod 2^256, carries included
    return back == s[0];
  });

  prop("u256_mul_wide_laws", 256, 2, [](const Scalars& s) {
    const U512 ab = mul_wide(s[0], s[1]);
    const U512 ba = mul_wide(s[1], s[0]);
    const U512 a1 = mul_wide(s[0], U256::one());
    return ab == ba && a1.lo() == s[0] && a1.hi().is_zero() &&
           mul_wide(s[0], U256::zero()) == U512{};
  });

  prop("u256_hex_roundtrip", 256, 1,
       [](const Scalars& s) { return U256::from_hex(s[0].to_hex()) == s[0]; });

  prop("u256_bytes_roundtrip", 256, 1,
       [](const Scalars& s) { return U256::from_be_bytes(s[0].to_be_bytes()) == s[0]; });

  // ---- Montgomery fields ---------------------------------------------------
  prop("fp_montgomery_roundtrip", 256, 1, [](const Scalars& s) {
    return Fp::from_u256(s[0]).to_u256() == mod_m(s[0], Fp::modulus()) &&
           Fq::from_u256(s[0]).to_u256() == mod_m(s[0], Fq::modulus());
  });

  prop("fp_ring_laws", 128, 3, [](const Scalars& s) {
    const Fp a = Fp::from_u256(s[0]), b = Fp::from_u256(s[1]), c = Fp::from_u256(s[2]);
    return a * b == b * a && (a * b) * c == a * (b * c) &&
           a * (b + c) == a * b + a * c && a + a.neg() == Fp::zero() &&
           a - b == a + b.neg() && a.square() == a * a && a.dbl() == a + a;
  });

  prop("fp_inv_identity", 48, 1, [](const Scalars& s) {
    const Fp a = Fp::from_u256(s[0]);
    if (a.is_zero()) return true;  // inv() precondition excludes zero
    U256 p_minus_1;
    sub(p_minus_1, Fp::modulus(), U256::one());
    // Binary-extgcd inverse must agree with Fermat, and a^{p-1} == 1.
    return a * a.inv() == Fp::one() && a.pow(p_minus_1) == Fp::one();
  });

  prop("fp_batch_inv_matches_inv", 24, 4, [](const Scalars& s) {
    std::vector<Fp> xs;
    for (const U256& x : s) {
      const Fp fx = Fp::from_u256(x);
      if (!fx.is_zero()) xs.push_back(fx);
    }
    if (xs.empty()) return true;
    std::vector<Fp> batched = xs;
    math::batch_invert(batched);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (!(batched[i] == xs[i].inv())) return false;
    }
    return true;
  });

  prop("fp_from_wide_consistent", 128, 2, [](const Scalars& s) {
    // from_wide(lo, hi) must equal lo + hi·2^256 mod p.
    const U512 wide = U512::from_halves(s[0], s[1]);
    U256 two128{};
    two128.w[2] = 1;  // 2^128
    const Fp two256 = Fp::from_u256(two128).square();
    const Fp expected = Fp::from_u256(s[0]) + Fp::from_u256(s[1]) * two256;
    return Fp::from_wide(wide) == expected;
  });

  // ---- Montgomery kernels (CIOS vs portable reference) ---------------------
  prop("montgomery_cios_eq_portable", 96, 4, [](const Scalars& s) {
    // The unrolled compile-time-modulus kernels must be bit-identical to the
    // loop-form runtime-modulus reference on every operation the field layer
    // routes through them — multiply, dedicated squaring, standalone REDC —
    // in both fields. sqr_wide is the CIOS square's front half; pin it to
    // mul_wide exactly on an unreduced input too.
    return sqr_wide(s[2]) == mul_wide(s[2], s[2]) &&
           cios_eq_portable<math::FpParams>(s) && cios_eq_portable<math::FqParams>(s);
  });

  prop("fp2_lazy_eq_eager", 128, 4, [](const Scalars& s) {
    // The lazy-reduction Fp2 multiply against eager Karatsuba: same
    // canonical residues, coefficient for coefficient.
    const Fp2 x{Fp::from_u256(s[0]), Fp::from_u256(s[1])};
    const Fp2 y{Fp::from_u256(s[2]), Fp::from_u256(s[3])};
    return Fp2::mul_lazy(x, y) == Fp2::mul_eager(x, y);
  });

  prop("fp2_field_laws", 96, 6, [](const Scalars& s) {
    const Fp2 x{Fp::from_u256(s[0]), Fp::from_u256(s[1])};
    const Fp2 y{Fp::from_u256(s[2]), Fp::from_u256(s[3])};
    const Fp2 z{Fp::from_u256(s[4]), Fp::from_u256(s[5])};
    if (!(x * y == y * x && (x * y) * z == x * (y * z) && x * (y + z) == x * y + x * z &&
          x.square() == x * x)) {
      return false;
    }
    if (!((x * y).conjugate() == x.conjugate() * y.conjugate() &&
          (x * y).norm() == x.norm() * y.norm())) {
      return false;
    }
    return x.is_zero() || x * x.inv() == Fp2::one();
  });

  // ---- G1 ------------------------------------------------------------------
  prop("g1_group_laws", 24, 3, [](const Scalars& s) {
    const ec::G1 p = point_from(s[0]), q = point_from(s[1]), r = point_from(s[2]);
    const ec::G1 sum = p + q;
    return sum == q + p && (sum + r) == p + (q + r) && p + p.neg() == ec::G1::infinity() &&
           p + ec::G1::infinity() == p && p.dbl() == p + p &&
           (sum.is_infinity() || sum.is_on_curve());
  });

  prop("g1_scalar_laws", 12, 2, [](const Scalars& s) {
    const Fq a = Fq::from_u256(s[0]), b = Fq::from_u256(s[1]);
    const ec::G1& g = ec::G1::generator();
    const ec::G1 ag = g.mul(a), bg = g.mul(b);
    // (a+b)·G == a·G + b·G, fixed-base table agrees with generic mul,
    // and Shamir's mul2 agrees with the two-mul sum.
    return g.mul(a + b) == ag + bg && ec::G1::mul_generator(a) == ag &&
           ec::G1::mul2(a.to_u256(), g, b.to_u256(), ag) == ag + ag.mul(b);
  });

  prop("g1_codec_roundtrip", 48, 1, [](const Scalars& s) {
    const ec::G1 p = s[0].is_zero() ? ec::G1::infinity() : point_from(s[0]);
    const auto decoded = ec::G1::from_bytes(p.to_bytes());
    return decoded.has_value() && *decoded == p;
  });

  prop("g1_subgroup_classifier", 12, 1, [](const Scalars& s) {
    const ec::G1 in = point_from(s[0]);
    if (!in.in_subgroup()) return false;
    // Translating by the 2-torsion point (0,0) leaves the curve but exits
    // the odd-order subgroup (unless the result is infinity itself).
    const auto t2 = ec::G1::from_affine(Fp::zero(), Fp::zero());
    if (!t2.has_value()) return false;
    const ec::G1 out = in + *t2;
    return out.is_on_curve() && !out.in_subgroup();
  });

  // ---- pairing -------------------------------------------------------------
  prop("pair_matches_pair_affine", 6, 2, [](const Scalars& s) {
    // Differential oracle: the inversion-free Jacobian Miller loop against
    // the affine reference, including infinity edges.
    const ec::G1 p = point_from(s[0]), q = point_from(s[1]);
    return pairing::pair(p, q) == pairing::pair_affine(p, q) &&
           pairing::pair(ec::G1::infinity(), q) == Gt::one() &&
           pairing::pair(p, ec::G1::infinity()) == Gt::one();
  });

  prop("pair_bilinear", 4, 2, [](const Scalars& s) {
    const Fq a = Fq::from_u256(s[0]), b = Fq::from_u256(s[1]);
    const ec::G1& g = ec::G1::generator();
    const Gt base = pairing::pair(g, g);
    return pairing::pair(g.mul(a), g.mul(b)) == base.pow(a.to_u256()).pow(b.to_u256()) &&
           pairing::pair(g.mul(a) + g.mul(b), g) == base.pow((a + b).to_u256());
  });

  prop("multi_pair_eq_product_of_pairs", 3, 9, [](const Scalars& s) {
    // One shared Miller loop over k ∈ [0,16] pairs must equal the product of
    // individual pair() AND pair_affine() values — including pairs at
    // infinity (contribute 1) and degenerate non-subgroup inputs (2-torsion
    // translates), whose zero Miller values every path maps to Gt::one().
    const std::uint64_t k = s[8].w[0] % 17;
    const auto t2 = ec::G1::from_affine(Fp::zero(), Fp::zero());
    if (!t2.has_value()) return false;
    std::vector<std::pair<ec::G1, ec::G1>> pairs;
    pairs.reserve(k);
    Gt product = Gt::one();
    Gt product_affine = Gt::one();
    for (std::uint64_t j = 0; j < k; ++j) {
      U256 a = s[j % 4], b = s[4 + (j % 4)];
      a.w[1] ^= j + 1;  // de-duplicate the recycled scalars
      b.w[2] ^= (j + 1) * 0x9e3779b97f4a7c15ULL;
      ec::G1 p = point_from(a);
      ec::G1 q = point_from(b);
      switch ((s[8].w[1] >> (2 * j)) & 3) {
        case 1: p = ec::G1::infinity(); break;
        case 2: p = p + *t2; break;  // on curve, outside the q-subgroup
        case 3: q = q + *t2; break;
        default: break;
      }
      pairs.emplace_back(p, q);
      product *= pairing::pair(p, q);
      product_affine *= pairing::pair_affine(p, q);
    }
    const Gt got = pairing::multi_pair(pairs);
    return got == product && got == product_affine;
  });

  prop("final_exp_batch_matches", 6, 3, [](const Scalars& s) {
    std::vector<Fp2> fs;
    for (const U256& x : s) {
      const Fp2 f{Fp::from_u256(x), Fp::from_u256(x) + Fp::one()};
      if (!f.is_zero()) fs.push_back(f);
    }
    const auto batched = pairing::final_exponentiation_batch(fs);
    if (batched.size() != fs.size()) return false;
    for (std::size_t i = 0; i < fs.size(); ++i) {
      if (!(batched[i] == pairing::final_exponentiation(fs[i]))) return false;
    }
    return true;
  });
}

}  // namespace mccls::qa
