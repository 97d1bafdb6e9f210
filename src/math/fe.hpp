// Prime-field element in Montgomery form, parameterized by a params bundle
// (field_params.hpp). All arithmetic is performed on Montgomery residues;
// the representation only leaves/enters Montgomery form at the
// to_u256/from_* boundary. Moduli are at most 254 bits, so limb sums never
// overflow 4 limbs.
//
// Every multiply and reduction runs on the fully-unrolled compile-time-
// modulus CIOS kernel (u256.hpp). The loop-form portable kernel there is a
// test and bench reference only; no field type routes through it.
#pragma once

#include <cstdint>

#include "math/field_params.hpp"
#include "math/u256.hpp"

namespace mccls::math {

template <class Params>
class Fe {
 public:
  constexpr Fe() = default;

  static Fe zero() { return Fe{}; }
  static Fe one() { return Fe{U256{Params::kR1}}; }
  static const U256& modulus() {
    static const U256 m{Params::kMod};
    return m;
  }

  /// Reduces `x` mod m and converts to Montgomery form.
  static Fe from_u256(const U256& x) {
    U256 r = x;
    // x < 2^256, which is < 5p for the 254-bit p but < 19q for the 252-bit
    // q: the loop subtracts at most 4 times in Fp and 18 times in Fq.
    while (cmp(r, modulus()) >= 0) sub(r, r, modulus());
    return Fe{mont_mul(r, U256{Params::kR2})};
  }

  static Fe from_u64(std::uint64_t x) { return from_u256(U256::from_u64(x)); }

  /// Reduces a 512-bit value (e.g. hash output) mod m into Montgomery form.
  static Fe from_wide(const U512& x) {
    // hi * 2^256 mod m: one Montgomery multiply by R^2 (R = 2^256).
    U256 hi_part = mont_mul(x.hi(), U256{Params::kR2});
    U256 lo = x.lo();
    while (cmp(lo, modulus()) >= 0) sub(lo, lo, modulus());
    U256 plain;
    if (add(plain, hi_part, lo) || cmp(plain, modulus()) >= 0) {
      sub(plain, plain, modulus());
    }
    return Fe{mont_mul(plain, U256{Params::kR2})};
  }

  /// Leaves Montgomery form; returns the canonical representative in [0, m).
  [[nodiscard]] U256 to_u256() const { return mont_mul(v_, U256::one()); }

  [[nodiscard]] bool is_zero() const { return v_.is_zero(); }

  friend Fe operator+(const Fe& a, const Fe& b) {
    U256 r;
    add(r, a.v_, b.v_);  // operands < m < 2^254, no carry-out possible
    if (cmp(r, modulus()) >= 0) sub(r, r, modulus());
    return Fe{r};
  }

  friend Fe operator-(const Fe& a, const Fe& b) {
    U256 r;
    if (sub(r, a.v_, b.v_)) add(r, r, modulus());
    return Fe{r};
  }

  friend Fe operator*(const Fe& a, const Fe& b) { return Fe{mont_mul(a.v_, b.v_)}; }

  Fe& operator+=(const Fe& o) { return *this = *this + o; }
  Fe& operator-=(const Fe& o) { return *this = *this - o; }
  Fe& operator*=(const Fe& o) { return *this = *this * o; }

  [[nodiscard]] Fe neg() const {
    if (is_zero()) return *this;
    U256 r;
    sub(r, modulus(), v_);
    return Fe{r};
  }

  [[nodiscard]] Fe square() const {
    // Dedicated squaring: sqr_wide skips the duplicate off-diagonal limb
    // products (10 instead of 16), then one REDC — the same canonical
    // residue as *this * *this.
    return Fe{mont_redc_cios<Params>(sqr_wide(v_))};
  }

  [[nodiscard]] Fe dbl() const { return *this + *this; }

  /// Multiplicative inverse via binary extended GCD (throws if zero).
  [[nodiscard]] Fe inv() const {
    // v_ = a*R. extgcd gives (a*R)^{-1} = a^{-1} R^{-1}; two Montgomery
    // multiplies by R^2 restore Montgomery form of a^{-1}.
    const U256 raw_inv = mod_inverse(v_, modulus());
    const U256 plain = mont_mul(raw_inv, U256{Params::kR2});
    return Fe{mont_mul(plain, U256{Params::kR2})};
  }

  /// Exponentiation by a plain (non-Montgomery) 256-bit exponent.
  [[nodiscard]] Fe pow(const U256& e) const {
    Fe result = one();
    const unsigned n = e.bit_length();
    for (unsigned i = n; i-- > 0;) {
      result = result.square();
      if (e.bit(i)) result *= *this;
    }
    return result;
  }

  friend bool operator==(const Fe&, const Fe&) = default;

  /// Raw Montgomery limbs (for hashing/serialization of internal state only).
  [[nodiscard]] const U256& raw() const { return v_; }

  // --- Lazy-reduction hooks (see fp2.hpp) ---------------------------------

  /// m^2 as a 512-bit compile-time constant. Adding it keeps a difference of
  /// raw products non-negative without changing its value mod m.
  static constexpr U512 kModSquared =
      mul_wide(U256{Params::kMod}, U256{Params::kMod});

  /// Raw double-width product of two residues, no reduction: < m^2.
  static U512 mul_raw(const Fe& a, const Fe& b) { return mul_wide(a.v_, b.v_); }

  /// Montgomery reduction of an accumulated t < m * 2^256; same semantics as
  /// one mont_mul (divides by R), so lazy and eager paths land in the same
  /// representation.
  static Fe redc(const U512& t) { return Fe{mont_redc_cios<Params>(t)}; }

 private:
  explicit constexpr Fe(const U256& v) : v_(v) {}

  /// Montgomery multiplication, a*b*R^{-1} mod m.
  static U256 mont_mul(const U256& a, const U256& b) { return mont_mul_cios<Params>(a, b); }

  U256 v_{};  // Montgomery residue, always < modulus
};

using Fp = Fe<FpParams>;
using Fq = Fe<FqParams>;

}  // namespace mccls::math
