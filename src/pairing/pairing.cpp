#include "pairing/pairing.hpp"

#include <array>
#include <cstdint>

#include "math/batch_inv.hpp"
#include "math/fp2.hpp"

namespace mccls::pairing {

namespace {

using math::Fp;
using math::Fp2;
using math::U256;

// ---------------------------------------------------------------------------
// Non-adjacent form of the subgroup order q, most-significant digit first.
//
// q has Hamming weight 130 over 252 bits; its NAF has only 83 nonzero digits,
// so walking the NAF instead of the bits drops ~46 addition steps (~17M each)
// from every Miller loop. A −1 digit adds −P, i.e. runs the ordinary chord
// step against (xp, −yp); the extra vertical-line factors the textbook NAF
// recursion prescribes all take values in Fp at φ(Q) and die in f^(p−1),
// exactly like the denominators already eliminated below.
//
// BOTH Miller loops in this file — the affine reference and the shared
// projective loop — walk THIS digit string. That is a correctness
// requirement, not a style choice: the differential suites assert exact
// equality between the two even on degenerate non-subgroup inputs, where
// different addition chains meet different lines and so have different
// zero-line sets.
struct OrderNaf {
  std::array<signed char, 260> digit{};  // digit[0] is most significant (+1)
  unsigned len = 0;
};

const OrderNaf& order_naf() {
  static const OrderNaf naf = [] {
    // Local 5-limb copy of q (one spare limb so q+1 can never overflow).
    std::uint64_t w[5] = {0, 0, 0, 0, 0};
    {
      const U256& q = math::Fq::modulus();
      for (int i = 0; i < 4; ++i) w[i] = q.w[i];
    }
    signed char lsb_first[260];
    unsigned n = 0;
    while (w[0] | w[1] | w[2] | w[3] | w[4]) {
      signed char d = 0;
      if (w[0] & 1) {
        d = (w[0] & 2) ? -1 : 1;  // d = 2 − (w mod 4) ∈ {−1, +1}
        if (d == 1) {
          for (int i = 0; i < 5; ++i) {
            if (w[i]-- != 0) break;  // borrow ripples through zero limbs
          }
        } else {
          for (int i = 0; i < 5; ++i) {
            if (++w[i] != 0) break;  // carry ripples through ~0 limbs
          }
        }
      }
      lsb_first[n++] = d;
      for (int i = 0; i < 4; ++i) w[i] = (w[i] >> 1) | (w[i + 1] << 63);
      w[4] >>= 1;
    }
    OrderNaf out{};
    out.len = n;
    for (unsigned i = 0; i < n; ++i) out.digit[i] = lsb_first[n - 1 - i];
    return out;
  }();
  return naf;
}

// ---------------------------------------------------------------------------
// Affine reference implementation (pair_affine).
//
// Evaluates the (non-vertical) line through T with slope `lambda` at the
// distorted point φ(Q) = (−xq, u·yq):
//   l(φQ) = u·yq − y_T − λ·(−xq − x_T)  =  (λ·(x_T − (−xq)) − y_T) + u·yq.
Fp2 line_eval(const G1& t, const Fp& lambda, const Fp& xq_neg, const Fp& yq) {
  const Fp re = lambda * (t.x() - xq_neg) - t.y();
  return Fp2{re, yq};
}

Fp2 miller_loop_affine(const G1& p, const G1& q) {
  const Fp xq_neg = q.x().neg();
  const Fp& yq = q.y();
  const Fp yp_neg = p.y().neg();
  const OrderNaf& naf = order_naf();

  Fp2 f = Fp2::one();
  G1 t = p;  // consumes naf.digit[0] == +1
  for (unsigned i = 1; i < naf.len; ++i) {
    // Doubling step: f <- f^2 · l_{T,T}(φQ); T <- 2T.
    f = f.square();
    if (!t.is_infinity()) {
      if (t.y().is_zero()) {
        // Vertical tangent: value lies in Fp, killed by final exponentiation.
        t = G1::infinity();
      } else {
        const Fp x2 = t.x().square();
        const Fp lambda = (x2.dbl() + x2 + Fp::one()) * t.y().dbl().inv();
        f *= line_eval(t, lambda, xq_neg, yq);
        const Fp x3 = lambda.square() - t.x().dbl();
        const Fp y3 = lambda * (t.x() - x3) - t.y();
        t = G1::from_affine_unchecked(x3, y3);
      }
    }
    if (naf.digit[i] != 0) {
      // Addition step: f <- f · l_{T,±P}(φQ); T <- T ± P. A −1 digit is the
      // same chord step against −P = (xp, −yp).
      const Fp& py = naf.digit[i] > 0 ? p.y() : yp_neg;
      if (t.is_infinity()) {
        t = G1::from_affine_unchecked(p.x(), py);
      } else if (t.x() == p.x()) {
        // Vertical chord (T == ∓P; for prime-order P the T == ±P-with-
        // matching-y doubling case cannot occur mid-chain): value in Fp,
        // skip the multiply.
        t = G1::infinity();
      } else {
        const Fp lambda = (py - t.y()) * (p.x() - t.x()).inv();
        f *= line_eval(t, lambda, xq_neg, yq);
        const Fp x3 = lambda.square() - t.x() - p.x();
        const Fp y3 = lambda * (t.x() - x3) - t.y();
        t = G1::from_affine_unchecked(x3, y3);
      }
    }
  }
  return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// Projective (Jacobian) Miller loop — no inversions.
//
// T is kept as (X : Y : Z), x = X/Z², y = Y/Z³. Both step types produce the
// new Z3 as exactly the denominator of their line slope (Z3 = 2YZ for the
// tangent, Z3 = Z·H for the chord), so each line value is scaled by the
// nonzero Fp constant that clears its denominator:
//
//   tangent at T, slope λ = (3X² + Z⁴)/(2YZ), scaled by 2YZ³ = Z3·Z²:
//     l·2YZ³ = (3X² + Z⁴)·(X + xq·Z²) − 2Y²  +  u·(yq·2YZ³)
//   chord through T and affine P, slope λ = (yp·Z³ − Y)/(Z·(xp·Z² − X)),
//   scaled by Z·H = Z3 (H = xp·Z² − X):
//     l·Z3 = (yp·Z³ − Y)·(xp + xq) − yp·Z3  +  u·(yq·Z3)
//
// Scaling a line value by c ∈ Fp* multiplies the final f by an Fp factor,
// and the final exponentiation starts with f^(p−1), where c^(p−1) = 1 by
// Fermat — the scale factors vanish. Per-step cost drops from ~1I + 5M (affine) to
// 12M + 6S (doubling) / 13M + 3S (addition) with I ≈ 60–100M — the whole
// pair() performs exactly one inversion (inside final_exponentiation).
//
// pair(), miller_loop() and multi_pair() all run the one shared loop below:
// a single-pair call is the k = 1 case of the multi-pairing.
namespace {

// One doubling step on T = (X : Y : Z): advances T <- 2T and emits the
// scaled tangent line at φQ into (l_re, l_im). Returns false (T became
// infinity, no line) for the vertical-tangent 2-torsion case. Kept
// out-of-line so the fat multi-state loop does not spill its registers.
[[gnu::noinline]] bool proj_dbl_step(Fp& X, Fp& Y, Fp& Z, const Fp& xq, const Fp& yq,
                                     Fp& l_re, Fp& l_im) {
  if (Y.is_zero()) return false;  // vertical tangent: value in Fp, omitted
  const Fp xx = X.square();
  const Fp yy = Y.square();
  const Fp yyyy = yy.square();
  const Fp zz = Z.square();
  const Fp m = xx.dbl() + xx + zz.square();  // 3X² + Z⁴  (a = 1)
  const Fp s = (X * yy).dbl().dbl();         // 4XY²
  const Fp x3 = m.square() - s.dbl();
  const Fp z3 = (Y * Z).dbl();               // 2YZ — the slope denominator
  const Fp y3 = m * (s - x3) - yyyy.dbl().dbl().dbl();
  l_re = m * (X + xq * zz) - yy.dbl();
  l_im = yq * (z3 * zz);
  X = x3;
  Y = y3;
  Z = z3;
  return true;
}

// One mixed-addition step T <- T + A (A affine, T != infinity): emits the
// scaled chord line at φQ. The NAF loop passes A = P or A = −P = (xp, −yp).
// Returns false (T became infinity, no line) for the vertical chord T == −A;
// the T == A doubling case cannot occur mid-chain for prime-order P.
[[gnu::noinline]] bool proj_add_step(Fp& X, Fp& Y, Fp& Z, const Fp& xp, const Fp& yp,
                                     const Fp& xq, const Fp& yq, Fp& l_re, Fp& l_im) {
  const Fp zz = Z.square();
  const Fp u2 = xp * zz;
  const Fp s2 = yp * (zz * Z);
  if (u2 == X) return false;
  const Fp h = u2 - X;
  const Fp r = s2 - Y;
  const Fp hh = h.square();
  const Fp hhh = h * hh;
  const Fp v = X * hh;
  const Fp x3 = r.square() - hhh - v.dbl();
  const Fp y3 = r * (v - x3) - Y * hhh;
  const Fp z3 = Z * h;                         // the slope denominator
  l_re = r * (xp + xq) - yp * z3;
  l_im = yq * z3;
  X = x3;
  Y = y3;
  Z = z3;
  return true;
}

// Per-pair Miller state of the shared loop.
struct MillerState {
  Fp xp, yp, yp_neg, xq, yq;  // affine inputs (−P precomputed for −1 digits)
  Fp X, Y, Z;                 // running Jacobian T
  bool t_inf;  // Z == 0, tracked explicitly so the hot path never tests it
  bool dead;   // hit a zero line value: this pair's Miller value is zero
};

// T starts at P (affine, Z = 1) — naf.digit[0] == +1.
MillerState start_state(const G1& p, const G1& q) {
  return MillerState{p.x(), p.y(), p.y().neg(), q.x(), q.y(),
                     p.x(), p.y(), Fp::one(),  false,  false};
}

// The shared NAF Miller loop: a single f² per digit covers every pair, then
// each live pair folds its line value in. A zero line (possible only for
// degenerate non-subgroup inputs) zeroes that pair's own Miller value, so
// the pair is marked dead and stops contributing instead of zeroing all of
// f. Line values depend only on the pair's own T-chain, so dead pairs never
// change what the live ones contribute. Returns f and whether any pair died.
std::pair<Fp2, bool> shared_miller_loop(std::span<MillerState> st) {
  const OrderNaf& naf = order_naf();
  Fp2 f = Fp2::one();
  bool any_dead = false;
  Fp l_re, l_im;
  for (unsigned i = 1; i < naf.len; ++i) {
    f = f.square();
    const int d = naf.digit[i];
    for (MillerState& s : st) {
      if (s.dead) continue;
      // Doubling step: f <- f · l_{T,T}(φQ); T <- 2T.
      if (!s.t_inf) {
        if (proj_dbl_step(s.X, s.Y, s.Z, s.xq, s.yq, l_re, l_im)) {
          if (l_re.is_zero() && l_im.is_zero()) {
            s.dead = true;
            any_dead = true;
            continue;
          }
          f *= Fp2{l_re, l_im};
        } else {
          s.t_inf = true;
        }
      }
      if (d != 0) {
        // Addition step: f <- f · l_{T,±P}(φQ); T <- T ± P (mixed, ±P
        // affine, −P = (xp, −yp)).
        const Fp& py = d > 0 ? s.yp : s.yp_neg;
        if (s.t_inf) {
          s.X = s.xp;
          s.Y = py;
          s.Z = Fp::one();
          s.t_inf = false;
        } else if (proj_add_step(s.X, s.Y, s.Z, s.xp, py, s.xq, s.yq, l_re, l_im)) {
          if (l_re.is_zero() && l_im.is_zero()) {
            s.dead = true;
            any_dead = true;
            continue;
          }
          f *= Fp2{l_re, l_im};
        } else {
          s.t_inf = true;
        }
      }
    }
  }
  return {f, any_dead};
}

}  // namespace

math::Fp2 miller_loop(const G1& p, const G1& q) {
  if (p.is_infinity() || q.is_infinity()) return Fp2::one();
  MillerState s = start_state(p, q);
  const auto [f, dead] = shared_miller_loop(std::span<MillerState>(&s, 1));
  return dead ? Fp2::zero() : f;
}

// Final exponentiation: (p²−1)/q = (p−1)·(p+1)/q = (p−1)·4.
// f^(p−1) = conj(f)·f^{−1} (Frobenius on Fp2 is conjugation), then square
// twice for the exponent 4.
Gt final_exponentiation(const math::Fp2& f) {
  // f == 0 can only arise from degenerate non-subgroup inputs whose pairing
  // value is unconstrained; map them to the identity instead of inverting 0.
  if (f.is_zero()) return Gt::one();
  const Fp2 g = f.conjugate() * f.inv();
  return Gt{g.square().square()};
}

std::vector<Gt> final_exponentiation_batch(std::span<const math::Fp2> fs) {
  std::vector<Gt> out(fs.size(), Gt::one());
  std::vector<Fp2> invs;
  invs.reserve(fs.size());
  for (const Fp2& f : fs) {
    if (!f.is_zero()) invs.push_back(f);
  }
  math::batch_invert(std::span<Fp2>(invs));
  std::size_t k = 0;
  for (std::size_t i = 0; i < fs.size(); ++i) {
    if (fs[i].is_zero()) continue;
    const Fp2 g = fs[i].conjugate() * invs[k++];
    out[i] = Gt{g.square().square()};
  }
  return out;
}

Gt pair(const G1& p, const G1& q) {
  return final_exponentiation(miller_loop(p, q));
}

Gt pair_affine(const G1& p, const G1& q) {
  if (p.is_infinity() || q.is_infinity()) return Gt::one();
  return final_exponentiation(miller_loop_affine(p, q));
}

Gt multi_pair(std::span<const std::pair<G1, G1>> pairs) {
  std::vector<MillerState> states;
  states.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    // Infinity pairs contribute ê(P, Q) = 1 — same as pair()'s early return.
    if (p.is_infinity() || q.is_infinity()) continue;
    states.push_back(start_state(p, q));
  }
  if (states.empty()) return Gt::one();

  auto [f, any_dead] = shared_miller_loop(states);
  if (any_dead) {
    // pair() maps a dead pair's zero Miller value to Gt::one(), so the pair
    // must drop out of the product: one re-run without the dead pairs
    // matches ∏ pair() exactly (deterministic per pair: no new deaths).
    std::erase_if(states, [](const MillerState& s) { return s.dead; });
    if (states.empty()) return Gt::one();
    for (MillerState& s : states) {
      s.X = s.xp;
      s.Y = s.yp;
      s.Z = Fp::one();
      s.t_inf = false;
    }
    f = shared_miller_loop(states).first;
  }
  return final_exponentiation(f);
}

}  // namespace mccls::pairing
