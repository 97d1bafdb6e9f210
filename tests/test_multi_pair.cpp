// multi_pair — the shared-Miller-loop pairing product behind batch_verify
// and the verifyd coalescer. Its contract is exact equality with the product
// of individual pair() values for EVERY input: empty span, k = 1, pairs at
// infinity, and degenerate non-subgroup points whose Miller value is zero
// (pair() maps those to Gt::one(); the product must drop them the same way).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

std::vector<std::pair<G1, G1>> random_pairs(std::size_t k, std::uint64_t seed) {
  std::uint64_t state = seed;
  std::vector<std::pair<G1, G1>> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.emplace_back(G1::generator().mul(random_scalar(state)),
                     G1::generator().mul(random_scalar(state)));
  }
  return out;
}

Gt product_of_pairs(const std::vector<std::pair<G1, G1>>& pairs) {
  Gt acc = Gt::one();
  for (const auto& [p, q] : pairs) acc *= pair(p, q);
  return acc;
}

TEST(MultiPair, EmptySpanIsOne) {
  EXPECT_TRUE(multi_pair({}).is_one());
}

TEST(MultiPair, SinglePairEqualsPair) {
  const auto pairs = random_pairs(1, 0x1001);
  EXPECT_EQ(multi_pair(pairs), pair(pairs[0].first, pairs[0].second));
}

TEST(MultiPair, MatchesProductForEveryWidth) {
  for (std::size_t k = 2; k <= 9; ++k) {
    const auto pairs = random_pairs(k, 0x2000 + k);
    EXPECT_EQ(multi_pair(pairs), product_of_pairs(pairs)) << "k = " << k;
  }
}

TEST(MultiPair, InfinityPairsContributeIdentity) {
  auto pairs = random_pairs(3, 0x3003);
  pairs[1].first = G1::infinity();
  EXPECT_EQ(multi_pair(pairs), product_of_pairs(pairs));

  pairs[2].second = G1::infinity();
  EXPECT_EQ(multi_pair(pairs), product_of_pairs(pairs));

  // All-infinity product: every pair contributes 1.
  std::vector<std::pair<G1, G1>> all_inf(4, {G1::infinity(), G1::infinity()});
  EXPECT_TRUE(multi_pair(all_inf).is_one());
}

TEST(MultiPair, TwoTorsionFirstArgumentMatchesPair) {
  // P = (0, 0) is 2-torsion: the very first doubling hits the vertical
  // tangent and T walks through infinity — the t_inf resurrection path.
  const auto t2 = G1::from_affine(Fp::zero(), Fp::zero());
  ASSERT_TRUE(t2.has_value());
  auto pairs = random_pairs(3, 0x4004);
  pairs[0].first = *t2;
  EXPECT_EQ(multi_pair(pairs), product_of_pairs(pairs));
}

TEST(MultiPair, DegenerateNonSubgroupInputsDropOutIdentically) {
  // Translating a subgroup point by the 2-torsion point (0,0) leaves the
  // curve but exits the q-subgroup; such pairs can zero their own Miller
  // value. pair() maps a zero Miller value to Gt::one(), so the shared-loop
  // product must drop exactly those pairs and keep the others.
  const auto t2 = G1::from_affine(Fp::zero(), Fp::zero());
  ASSERT_TRUE(t2.has_value());
  std::uint64_t state = 0x5005;
  for (int round = 0; round < 4; ++round) {
    auto pairs = random_pairs(4, splitmix64(state));
    pairs[1].first = pairs[1].first + *t2;
    pairs[3].second = pairs[3].second + *t2;
    EXPECT_EQ(multi_pair(pairs), product_of_pairs(pairs)) << "round " << round;
  }
}

TEST(MultiPair, MixedLiveDeadAndInfinity) {
  // (P' + (0,0), (0,0)) is a dead pair: its chain ends at qP = (0,0), so the
  // last chord vanishes at φ(0,0) = (0,0) and multi_pair must re-run without it.
  const auto t2 = G1::from_affine(Fp::zero(), Fp::zero());
  ASSERT_TRUE(t2.has_value());
  auto pairs = random_pairs(5, 0x6006);
  pairs[0].first = G1::infinity();
  pairs[1] = {pairs[1].first + *t2, *t2};
  ASSERT_TRUE(miller_loop(pairs[1].first, pairs[1].second).is_zero());
  pairs[2].first = pairs[2].first + *t2;
  pairs[4] = {*t2, pairs[4].second};
  EXPECT_EQ(multi_pair(pairs), product_of_pairs(pairs));
}

TEST(FinalExponentiationBatch, EmptySpan) {
  EXPECT_TRUE(final_exponentiation_batch({}).empty());
}

TEST(FinalExponentiationBatch, MatchesScalarOnMixedInputs) {
  std::vector<Fp2> fs = {
      Fp2::one(),
      Fp2::zero(),  // degenerate: scalar path maps it to Gt::one()
      Fp2{Fp::from_u64(7), Fp::from_u64(11)},
  };
  const auto batched = final_exponentiation_batch(fs);
  ASSERT_EQ(batched.size(), fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_EQ(batched[i], final_exponentiation(fs[i])) << "i = " << i;
  }
}

}  // namespace
}  // namespace mccls::pairing
