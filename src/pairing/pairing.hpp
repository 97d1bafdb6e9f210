// Modified Tate pairing ê : G1 × G1 → GT on the supersingular curve
// y^2 = x^3 + x, using the distortion map φ(x, y) = (−x, u·y), u² = −1.
// ê is bilinear, symmetric in distribution (ê(P,Q) and ê(Q,P) are both
// non-degenerate), and satisfies ê(aP, bQ) = ê(P, Q)^{ab}.
//
// Implementation: Miller loop over the bits of the subgroup order q in
// Jacobian coordinates with denominator-free line evaluation — every line
// value is scaled by its (nonzero) Fp denominator, which the final
// exponentiation kills, so the whole loop runs without a single modular
// inversion. Vertical lines are eliminated the usual embedding-degree-2 way
// (their values lie in Fp and die in the final exponentiation). The only
// inversion in pair() is the one inside the final exponentiation
// f^{(p²−1)/q} = (f^{p−1})^{(p+1)/q} = (conj(f)·f^{−1})^4, and
// final_exponentiation_batch amortizes even that across a batch. pair(),
// miller_loop() and multi_pair() run one shared loop implementation; a
// single pairing is its one-pair case.
//
// The pre-optimization affine loop is retained as pair_affine(): it is the
// reference implementation the projective loop is cross-checked against
// (tests/test_pairing_projective.cpp) and the baseline bench_pairing
// measures the speedup over.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "ec/g1.hpp"
#include "math/fp2.hpp"
#include "pairing/gt.hpp"

namespace mccls::pairing {

using ec::G1;

/// Computes ê(P, Q). Returns GT::one() when either input is infinity.
/// Non-degeneracy: ê(P, Q) != 1 whenever P and Q are non-identity points of
/// the order-q subgroup.
Gt pair(const G1& p, const G1& q);

/// Reference implementation: the original affine Miller loop (one field
/// inversion per doubling/addition step). Kept for cross-checking and as
/// the bench_pairing baseline; use pair() everywhere else.
Gt pair_affine(const G1& p, const G1& q);

/// Computes ∏ᵢ ê(Pᵢ, Qᵢ) with ONE shared Miller loop: a single f-squaring
/// chain accumulates every pair's line functions, and one final
/// exponentiation reduces the product. Exactly equal to multiplying the k
/// individual pair() values — including degenerate non-subgroup inputs,
/// whose zero Miller values are detected per pair and contribute Gt::one()
/// just as they do in pair(). Empty span returns Gt::one(); k = 1 equals
/// pair(); infinity pairs contribute Gt::one().
Gt multi_pair(std::span<const std::pair<G1, G1>> pairs);

/// The unreduced Miller-loop value f_{q,P}(φQ) ∈ Fp2 (inversion-free,
/// Jacobian coordinates): multi_pair's shared loop over the single pair.
/// Fp2::zero() when a line vanishes on a degenerate non-subgroup input, and
/// Fp2::one() when either input is infinity.
/// pair(P, Q) == final_exponentiation(miller_loop(P, Q)).
math::Fp2 miller_loop(const G1& p, const G1& q);

/// Final exponentiation f^{(p²−1)/q}; maps a Miller value to canonical GT.
/// Costs one Fp2 (= one Fp) inversion.
Gt final_exponentiation(const math::Fp2& f);

/// Batched final exponentiation: one shared inversion (Montgomery's trick)
/// for the whole span instead of one per element. Used by PairingCache
/// warm-up where many pairings are reduced at once.
std::vector<Gt> final_exponentiation_batch(std::span<const math::Fp2> fs);

}  // namespace mccls::pairing
