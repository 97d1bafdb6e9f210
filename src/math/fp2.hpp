// Quadratic extension Fp2 = Fp[u] / (u^2 + 1). Irreducible because the base
// prime satisfies p ≡ 3 (mod 4), so -1 is a quadratic non-residue. This is
// the codomain of the modified Tate pairing (embedding degree k = 2); the
// Frobenius map x -> x^p coincides with conjugation, which the pairing's
// final exponentiation exploits.
//
// operator* uses lazy reduction: the three Karatsuba limb products are
// accumulated as raw 512-bit integers and reduced once per output
// coefficient (2 REDCs instead of 3 full Montgomery multiplies' worth of
// interleaved reduction). Bounds, with m < 2^254 and reduced inputs:
//   t0, t1 < m^2;  (a0+a1), (b0+b1) < 2m  =>  t2 < 4m^2 < m * 2^256;
//   re = t0 + m^2 - t1 in [0, 2m^2);  im = t2 - t0 - t1 in [0, 2m^2);
// so every REDC input stays below m * 2^256 as required.
#pragma once

#include "math/fe.hpp"

namespace mccls::math {

class Fp2 {
 public:
  constexpr Fp2() = default;
  Fp2(const Fp& a, const Fp& b) : a_(a), b_(b) {}

  static Fp2 zero() { return Fp2{}; }
  static Fp2 one() { return Fp2{Fp::one(), Fp::zero()}; }
  static Fp2 from_fp(const Fp& a) { return Fp2{a, Fp::zero()}; }

  [[nodiscard]] const Fp& re() const { return a_; }
  [[nodiscard]] const Fp& im() const { return b_; }

  [[nodiscard]] bool is_zero() const { return a_.is_zero() && b_.is_zero(); }
  [[nodiscard]] bool is_one() const { return *this == one(); }

  friend Fp2 operator+(const Fp2& x, const Fp2& y) { return {x.a_ + y.a_, x.b_ + y.b_}; }
  friend Fp2 operator-(const Fp2& x, const Fp2& y) { return {x.a_ - y.a_, x.b_ - y.b_}; }

  friend Fp2 operator*(const Fp2& x, const Fp2& y) { return mul_lazy(x, y); }

  /// Karatsuba with one reduction per base multiply (3 total). Kept as the
  /// reference for the lazy path.
  static Fp2 mul_eager(const Fp2& x, const Fp2& y) {
    const Fp t0 = x.a_ * y.a_;
    const Fp t1 = x.b_ * y.b_;
    const Fp t2 = (x.a_ + x.b_) * (y.a_ + y.b_);
    return {t0 - t1, t2 - t0 - t1};
  }

  /// Karatsuba with unreduced double-width accumulation: 3 wide products,
  /// 2 REDCs. Identical result to mul_eager (both compute a*b*R^-1 per
  /// coefficient); the qa property fp2_lazy_eq_eager pins this down.
  static Fp2 mul_lazy(const Fp2& x, const Fp2& y) {
    const U512 t0 = Fp::mul_raw(x.a_, y.a_);
    const U512 t1 = Fp::mul_raw(x.b_, y.b_);
    U256 sx, sy;
    add(sx, x.a_.raw(), x.b_.raw());  // < 2m < 2^255: no carry-out
    add(sy, y.a_.raw(), y.b_.raw());
    const U512 t2 = mul_wide(sx, sy);
    // re = t0 - t1 mod m, lifted non-negative by adding m^2.
    U512 re;
    sub512(re, Fp::kModSquared, t1);
    add512(re, re, t0);
    // im = t2 - t0 - t1; non-negative as integers (t2 = t0 + t1 + cross terms).
    U512 im;
    sub512(im, t2, t0);
    sub512(im, im, t1);
    return {Fp::redc(re), Fp::redc(im)};
  }

  Fp2& operator+=(const Fp2& o) { return *this = *this + o; }
  Fp2& operator-=(const Fp2& o) { return *this = *this - o; }
  Fp2& operator*=(const Fp2& o) { return *this = *this * o; }

  [[nodiscard]] Fp2 neg() const { return {a_.neg(), b_.neg()}; }

  [[nodiscard]] Fp2 square() const {
    // (a + bu)^2 = (a+b)(a-b) + 2ab u.
    const Fp t0 = (a_ + b_) * (a_ - b_);
    const Fp t1 = a_ * b_;
    return {t0, t1.dbl()};
  }

  /// Complex conjugate a - bu; equals the p-power Frobenius on Fp2.
  [[nodiscard]] Fp2 conjugate() const { return {a_, b_.neg()}; }

  /// Field norm a^2 + b^2 (an Fp element).
  [[nodiscard]] Fp norm() const { return a_.square() + b_.square(); }

  [[nodiscard]] Fp2 inv() const {
    const Fp n_inv = norm().inv();
    return {a_ * n_inv, b_.neg() * n_inv};
  }

  [[nodiscard]] Fp2 pow(const U256& e) const {
    Fp2 result = one();
    const unsigned n = e.bit_length();
    for (unsigned i = n; i-- > 0;) {
      result = result.square();
      if (e.bit(i)) result *= *this;
    }
    return result;
  }

  friend bool operator==(const Fp2&, const Fp2&) = default;

 private:
  Fp a_{};  // real part
  Fp b_{};  // coefficient of u
};

}  // namespace mccls::math
