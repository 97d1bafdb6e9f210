// The projective (Jacobian, inversion-free) Miller loop is an optimization
// of the affine reference implementation — they must agree everywhere,
// including on degenerate non-subgroup inputs that exercise the vertical
// line branches. Also covers the batched-inversion primitive the loop's
// surrounding machinery (G1 tables, batch verify, cache warm-up) relies on.
#include <gtest/gtest.h>

#include <vector>

#include "math/batch_inv.hpp"
#include "pairing/pairing.hpp"

namespace mccls::pairing {
namespace {

using ec::G1;
using math::Fp;
using math::Fp2;
using math::Fq;
using math::U256;

// Deterministic pseudo-random scalars (splitmix64 limbs) reduced mod q; no
// dependency on mccls_crypto so the sanitized tier-1 build stays minimal.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

U256 random_scalar(std::uint64_t& state) {
  U256 r{{splitmix64(state), splitmix64(state), splitmix64(state), splitmix64(state)}};
  while (cmp(r, Fq::modulus()) >= 0) sub(r, r, Fq::modulus());
  return r;
}

// A point of order 4 on the full curve (#E = 4q): W·q for a random curve
// point W has order dividing 4. Its Miller loop repeatedly walks through
// infinity, the 2-torsion point and −P, hitting every degenerate branch.
G1 order_four_point() {
  std::uint64_t state = 0xdecafbadULL;
  for (;;) {
    const Fp x = Fp::from_u256(random_scalar(state));
    const auto lifted = G1::lift_x(x);
    if (!lifted) continue;
    const G1 w = lifted->mul(Fq::modulus());  // order divides 4 now
    if (w.is_infinity()) continue;
    if (w.y().is_zero()) continue;  // order 2; keep looking for order 4
    return w;
  }
}

TEST(PairingProjective, MatchesAffineOnGenerator) {
  const G1& g = G1::generator();
  EXPECT_EQ(pair(g, g), pair_affine(g, g));
  EXPECT_FALSE(pair(g, g).is_one());
}

TEST(PairingProjective, MatchesAffineOnRandomPairs) {
  // ≥100 random (aG, bG) pairs; the two implementations must agree exactly.
  const G1& g = G1::generator();
  std::uint64_t state = 42;
  for (int i = 0; i < 100; ++i) {
    const G1 p = g.mul(random_scalar(state));
    const G1 q = g.mul(random_scalar(state));
    ASSERT_EQ(pair(p, q), pair_affine(p, q)) << "pair " << i;
  }
}

TEST(PairingProjective, BilinearOverRandomScalars) {
  const G1& g = G1::generator();
  std::uint64_t state = 7;
  for (int i = 0; i < 20; ++i) {
    const U256 a = random_scalar(state);
    const U256 b = random_scalar(state);
    const Fq ab = Fq::from_u256(a) * Fq::from_u256(b);
    ASSERT_EQ(pair(g.mul(a), g.mul(b)), pair(g, g).pow(ab.to_u256())) << "pair " << i;
  }
}

TEST(PairingProjective, InfinityInputs) {
  const G1& g = G1::generator();
  EXPECT_TRUE(pair(G1::infinity(), g).is_one());
  EXPECT_TRUE(pair(g, G1::infinity()).is_one());
  EXPECT_TRUE(pair(G1::infinity(), G1::infinity()).is_one());
}

TEST(PairingProjective, TwoTorsionFirstArgument) {
  // (0, 0) is 2-torsion: the first doubling has a vertical tangent and the
  // loop then oscillates T between infinity and P, exercising the T == −P
  // (here T == P == −P) vertical-chord branch on every set order bit.
  const auto t2 = G1::from_affine(Fp::zero(), Fp::zero());
  ASSERT_TRUE(t2.has_value());
  const G1& g = G1::generator();
  EXPECT_EQ(pair(*t2, g), pair_affine(*t2, g));
  EXPECT_EQ(pair(g, *t2), pair_affine(g, *t2));
}

TEST(PairingProjective, OrderFourPointHitsVerticalChordBranch) {
  // T walks P → 2P (y = 0, vertical tangent) → ∞ → P → ... and on
  // consecutive set bits reaches 3P = −P, the vertical-chord case with
  // distinct y coordinates. Both implementations must take the same
  // branches and produce the same value.
  const G1 p4 = order_four_point();
  ASSERT_TRUE(p4.is_on_curve());
  ASSERT_FALSE(p4.in_subgroup());
  ASSERT_TRUE(p4.dbl().dbl().is_infinity()) << "order must divide 4";
  const G1& g = G1::generator();
  EXPECT_EQ(pair(p4, g), pair_affine(p4, g));
  EXPECT_EQ(pair(g, p4), pair_affine(g, p4));
  EXPECT_EQ(pair(p4, p4), pair_affine(p4, p4));
}

TEST(PairingProjective, MillerLoopPlusFinalExpEqualsPair) {
  // miller_loop() is multi_pair's shared loop over one pair; a vanishing
  // line makes it return Fp2::zero(), which final_exponentiation maps to
  // the identity (the GT-cache warm-up relies on that). Subgroup inputs,
  // the 2-torsion point (0,0), and 2-torsion translates of subgroup points
  // must all agree with pair() and with the affine reference. For
  // P = P' + (0,0) the chain ends at qP = (0,0), so with Q = (0,0) the last
  // chord passes through φQ = (0,0) and the Miller value vanishes.
  const G1& g = G1::generator();
  const G1 p = g.mul(U256::from_u64(1234567));
  const G1 q = g.mul(U256::from_u64(7654321));
  const auto t2 = G1::from_affine(Fp::zero(), Fp::zero());
  ASSERT_TRUE(t2.has_value());
  std::vector<std::pair<G1, G1>> inputs = {
      {p, q},      {*t2, g},          {g, *t2},           {*t2, *t2},
      {p + *t2, q}, {p, q + *t2},     {p + *t2, q + *t2}, {p + *t2, *t2},
  };
  std::uint64_t state = 0x5005;
  for (int i = 0; i < 4; ++i) {
    const G1 a = g.mul(random_scalar(state));
    const G1 b = g.mul(random_scalar(state));
    inputs.emplace_back(a + *t2, b);
    inputs.emplace_back(a, b + *t2);
    inputs.emplace_back(a + *t2, *t2);
  }
  int zero_values = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [a, b] = inputs[i];
    const Fp2 f = miller_loop(a, b);
    if (f.is_zero()) ++zero_values;
    const Gt want = pair_affine(a, b);
    EXPECT_EQ(final_exponentiation(f), want) << "input " << i;
    EXPECT_EQ(pair(a, b), want) << "input " << i;
  }
  EXPECT_GT(zero_values, 0) << "no input reached the vanishing-line path";
}

TEST(PairingProjective, BatchedFinalExponentiationMatchesScalar) {
  const G1& g = G1::generator();
  std::uint64_t state = 99;
  std::vector<Fp2> fs;
  std::vector<Gt> expected;
  for (int i = 0; i < 8; ++i) {
    const G1 p = g.mul(random_scalar(state));
    const G1 q = g.mul(random_scalar(state));
    fs.push_back(miller_loop(p, q));
    expected.push_back(pair(p, q));
  }
  fs.push_back(Fp2::zero());  // degenerate entry maps to the identity
  const std::vector<Gt> got = final_exponentiation_batch(fs);
  ASSERT_EQ(got.size(), fs.size());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[i], expected[i]) << "entry " << i;
  EXPECT_TRUE(got.back().is_one());
}

// --- batched inversion -----------------------------------------------------

TEST(BatchInvert, EmptySpanIsNoop) {
  std::vector<Fp> xs;
  EXPECT_NO_THROW(math::batch_invert(xs));
  EXPECT_TRUE(xs.empty());
}

TEST(BatchInvert, SingleElement) {
  std::vector<Fp> xs = {Fp::from_u64(7)};
  math::batch_invert(xs);
  EXPECT_EQ(xs[0], Fp::from_u64(7).inv());
}

TEST(BatchInvert, ManyElementsMatchScalarInverse) {
  std::uint64_t state = 5;
  std::vector<Fp> xs;
  for (int i = 0; i < 33; ++i) xs.push_back(Fp::from_u256(random_scalar(state)));
  const std::vector<Fp> orig = xs;
  math::batch_invert(xs);
  for (int i = 0; i < 33; ++i) {
    EXPECT_EQ(xs[i], orig[i].inv()) << "element " << i;
    EXPECT_EQ(xs[i] * orig[i], Fp::one());
  }
}

TEST(BatchInvert, ZeroElementRejected) {
  std::vector<Fp> xs = {Fp::from_u64(3), Fp::zero(), Fp::from_u64(5)};
  const std::vector<Fp> orig = xs;
  EXPECT_THROW(math::batch_invert(xs), std::invalid_argument);
  EXPECT_EQ(xs, orig) << "failed batch must leave inputs untouched";
}

TEST(BatchInvert, WorksOverFq) {
  std::vector<Fq> xs = {Fq::from_u64(2), Fq::from_u64(3), Fq::from_u64(12345)};
  const std::vector<Fq> orig = xs;
  math::batch_invert(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(xs[i] * orig[i], Fq::one());
}

TEST(BatchInvert, WorksOverFp2) {
  std::uint64_t state = 11;
  std::vector<Fp2> xs;
  for (int i = 0; i < 9; ++i) {
    xs.emplace_back(Fp::from_u256(random_scalar(state)), Fp::from_u256(random_scalar(state)));
  }
  const std::vector<Fp2> orig = xs;
  math::batch_invert(xs);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(xs[i] * orig[i], Fp2::one()) << "element " << i;
}

}  // namespace
}  // namespace mccls::pairing
