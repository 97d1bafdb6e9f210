// 256-bit fixed-width unsigned integers (little-endian 64-bit limbs) plus the
// 512-bit product type. This is the arithmetic bedrock for the Montgomery
// prime fields in fe.hpp; nothing here knows about moduli.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace mccls::math {

struct U512;

/// Unsigned 256-bit integer, limbs little-endian (w[0] is least significant).
struct U256 {
  std::array<std::uint64_t, 4> w{};

  static constexpr U256 zero() { return U256{}; }
  static constexpr U256 one() { return U256{{1, 0, 0, 0}}; }
  static constexpr U256 from_u64(std::uint64_t x) { return U256{{x, 0, 0, 0}}; }

  /// Parses a hex string (optionally 0x-prefixed, up to 64 digits).
  /// Throws std::invalid_argument on malformed input.
  static U256 from_hex(std::string_view hex);

  /// Big-endian byte deserialization; `bytes.size()` must be <= 32.
  static U256 from_be_bytes(std::span<const std::uint8_t> bytes);

  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] std::array<std::uint8_t, 32> to_be_bytes() const;

  [[nodiscard]] bool is_zero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
  [[nodiscard]] bool is_even() const { return (w[0] & 1) == 0; }
  /// Value of bit `i` (0 = least significant); i must be < 256.
  [[nodiscard]] bool bit(unsigned i) const { return (w[i / 64] >> (i % 64)) & 1; }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] unsigned bit_length() const;

  friend bool operator==(const U256&, const U256&) = default;
};

/// Three-way compare: -1, 0, +1 for a < b, a == b, a > b.
int cmp(const U256& a, const U256& b);

/// out = a + b, returns the carry-out bit.
std::uint64_t add(U256& out, const U256& a, const U256& b);
/// out = a - b, returns the borrow-out bit.
std::uint64_t sub(U256& out, const U256& a, const U256& b);
/// Logical right shift by one bit.
U256 shr1(const U256& a);

/// Modular inverse of `a` modulo odd modulus `m` via binary extended GCD.
/// Precondition: gcd(a, m) == 1, a != 0, m odd and >= 3. Returns x with
/// a*x == 1 (mod m).
U256 mod_inverse(const U256& a, const U256& m);

/// Unsigned 512-bit integer used for wide products and hash outputs.
struct U512 {
  std::array<std::uint64_t, 8> w{};

  [[nodiscard]] U256 lo() const { return U256{{w[0], w[1], w[2], w[3]}}; }
  [[nodiscard]] U256 hi() const { return U256{{w[4], w[5], w[6], w[7]}}; }

  static U512 from_halves(const U256& lo, const U256& hi) {
    return U512{{lo.w[0], lo.w[1], lo.w[2], lo.w[3], hi.w[0], hi.w[1], hi.w[2], hi.w[3]}};
  }

  /// Big-endian byte deserialization; `bytes.size()` must be <= 64.
  static U512 from_be_bytes(std::span<const std::uint8_t> bytes);

  friend bool operator==(const U512&, const U512&) = default;
};

/// Full 256x256 -> 512-bit product. Header-inline and constexpr: it is the
/// first half of every lazy-reduction multiply, and compile-time use lets
/// field code bake m^2 in as a constant.
constexpr U512 mul_wide(const U256& a, const U256& b) {
  using u128 = unsigned __int128;
  U512 out{};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 s = static_cast<u128>(a.w[i]) * b.w[j] + out.w[i + j] + carry;
      out.w[i + j] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    out.w[i + 4] = carry;
  }
  return out;
}

/// Full 256-bit squaring, a^2 -> 512 bits. Computes each off-diagonal
/// product a_i*a_j (i < j) once, doubles the whole accumulator, then adds
/// the diagonal a_i^2 terms: 10 limb products instead of mul_wide's 16.
constexpr U512 sqr_wide(const U256& a) {
  using u128 = unsigned __int128;
  const std::uint64_t a0 = a.w[0], a1 = a.w[1], a2 = a.w[2], a3 = a.w[3];
  // Off-diagonal rows (the mul_wide schedule with j > i only), kept in
  // named locals so the whole accumulator stays in registers.
  u128 c = static_cast<u128>(a0) * a1;
  std::uint64_t w1 = static_cast<std::uint64_t>(c);
  c = static_cast<u128>(a0) * a2 + static_cast<std::uint64_t>(c >> 64);
  std::uint64_t w2 = static_cast<std::uint64_t>(c);
  c = static_cast<u128>(a0) * a3 + static_cast<std::uint64_t>(c >> 64);
  std::uint64_t w3 = static_cast<std::uint64_t>(c);
  std::uint64_t w4 = static_cast<std::uint64_t>(c >> 64);
  c = static_cast<u128>(a1) * a2 + w3;
  w3 = static_cast<std::uint64_t>(c);
  c = static_cast<u128>(a1) * a3 + w4 + static_cast<std::uint64_t>(c >> 64);
  w4 = static_cast<std::uint64_t>(c);
  std::uint64_t w5 = static_cast<std::uint64_t>(c >> 64);
  c = static_cast<u128>(a2) * a3 + w5;
  w5 = static_cast<std::uint64_t>(c);
  std::uint64_t w6 = static_cast<std::uint64_t>(c >> 64);
  // Double. The off-diagonal sum is at most (a^2 - diag)/2 < 2^511, so the
  // bit shifted out of w6 lands in w7 and nothing is lost.
  const std::uint64_t w7 = w6 >> 63;
  w6 = (w6 << 1) | (w5 >> 63);
  w5 = (w5 << 1) | (w4 >> 63);
  w4 = (w4 << 1) | (w3 >> 63);
  w3 = (w3 << 1) | (w2 >> 63);
  w2 = (w2 << 1) | (w1 >> 63);
  w1 <<= 1;
  // Add the diagonal a_i^2 at limbs (2i, 2i+1); a^2 < 2^512 bounds the
  // final carry at zero.
  u128 d = static_cast<u128>(a0) * a0;
  const std::uint64_t o0 = static_cast<std::uint64_t>(d);
  u128 s = static_cast<u128>(w1) + static_cast<std::uint64_t>(d >> 64);
  const std::uint64_t o1 = static_cast<std::uint64_t>(s);
  d = static_cast<u128>(a1) * a1;
  s = static_cast<u128>(w2) + static_cast<std::uint64_t>(d) + static_cast<std::uint64_t>(s >> 64);
  const std::uint64_t o2 = static_cast<std::uint64_t>(s);
  s = static_cast<u128>(w3) + static_cast<std::uint64_t>(d >> 64) + static_cast<std::uint64_t>(s >> 64);
  const std::uint64_t o3 = static_cast<std::uint64_t>(s);
  d = static_cast<u128>(a2) * a2;
  s = static_cast<u128>(w4) + static_cast<std::uint64_t>(d) + static_cast<std::uint64_t>(s >> 64);
  const std::uint64_t o4 = static_cast<std::uint64_t>(s);
  s = static_cast<u128>(w5) + static_cast<std::uint64_t>(d >> 64) + static_cast<std::uint64_t>(s >> 64);
  const std::uint64_t o5 = static_cast<std::uint64_t>(s);
  d = static_cast<u128>(a3) * a3;
  s = static_cast<u128>(w6) + static_cast<std::uint64_t>(d) + static_cast<std::uint64_t>(s >> 64);
  const std::uint64_t o6 = static_cast<std::uint64_t>(s);
  const std::uint64_t o7 =
      w7 + static_cast<std::uint64_t>(d >> 64) + static_cast<std::uint64_t>(s >> 64);
  return U512{{o0, o1, o2, o3, o4, o5, o6, o7}};
}

/// out = a + b over 512 bits, returns the carry-out bit.
constexpr std::uint64_t add512(U512& out, const U512& a, const U512& b) {
  using u128 = unsigned __int128;
  u128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 s = static_cast<u128>(a.w[i]) + b.w[i] + carry;
    out.w[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  return static_cast<std::uint64_t>(carry);
}

/// out = a - b over 512 bits, returns the borrow-out bit.
constexpr std::uint64_t sub512(U512& out, const U512& a, const U512& b) {
  std::uint64_t borrow = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t bi = b.w[i];
    const std::uint64_t d0 = a.w[i] - bi;
    const std::uint64_t borrow1 = a.w[i] < bi ? 1u : 0u;
    const std::uint64_t d1 = d0 - borrow;
    const std::uint64_t borrow2 = d0 < borrow ? 1u : 0u;
    out.w[i] = d1;
    borrow = borrow1 | borrow2;
  }
  return borrow;
}

// ---------------------------------------------------------------------------
// Montgomery kernels.
//
// Two implementations of the same contract live side by side:
//
//   * mont_mul_cios<Params> / mont_redc_cios<Params> — fully-unrolled
//     interleaved CIOS with the modulus folded in as compile-time constants.
//     The unrolled form keeps the 5-limb accumulator in registers. This is
//     the only kernel the field types (fe.hpp) run on.
//   * mont_mul_portable / mont_redc_portable (u256.cpp) — the original
//     loop-and-array form with a runtime modulus, kept only as the test and
//     bench reference: qa property `montgomery_cios_eq_portable` asserts
//     both agree on Fp and Fq, and bench_pairing times one against the other.
//
// Both require an odd modulus m < 2^254 (true for Fp and Fq); outputs are
// canonical (< m). REDC inputs must satisfy t < m * 2^256, which callers
// guarantee via the lazy-reduction bounds (see fp2.hpp).

/// Portable interleaved CIOS Montgomery multiply: a * b * 2^-256 mod m.
U256 mont_mul_portable(const U256& a, const U256& b, const U256& m,
                       std::uint64_t n0inv);

/// Portable Montgomery reduction of a 512-bit t < m * 2^256: t * 2^-256 mod m.
U256 mont_redc_portable(const U512& t, const U256& m, std::uint64_t n0inv);

/// Fully-unrolled interleaved CIOS Montgomery multiply with compile-time
/// modulus: returns a * b * 2^-256 mod Params::kMod.
template <class Params>
inline U256 mont_mul_cios(const U256& a, const U256& b) {
  using u128 = unsigned __int128;
  constexpr std::uint64_t m0 = Params::kMod[0], m1 = Params::kMod[1],
                          m2 = Params::kMod[2], m3 = Params::kMod[3];
  constexpr std::uint64_t n0 = Params::kN0Inv;
  const std::uint64_t b0 = b.w[0], b1 = b.w[1], b2 = b.w[2], b3 = b.w[3];
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  // Each round: t += a[i]*b (5 limbs), then t = (t + mu*m) >> 64 with
  // mu = t[0]*n0 chosen so the low limb cancels. m < 2^254 keeps the
  // accumulator < 2m after every round, so t4 never exceeds one bit.
#define MCCLS_CIOS_ROUND(ai)                                             \
  do {                                                                   \
    u128 c = static_cast<u128>(ai) * b0 + t0;                            \
    const std::uint64_t r0 = static_cast<std::uint64_t>(c);              \
    std::uint64_t carry = static_cast<std::uint64_t>(c >> 64);           \
    c = static_cast<u128>(ai) * b1 + t1 + carry;                         \
    const std::uint64_t r1 = static_cast<std::uint64_t>(c);              \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(ai) * b2 + t2 + carry;                         \
    const std::uint64_t r2 = static_cast<std::uint64_t>(c);              \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(ai) * b3 + t3 + carry;                         \
    const std::uint64_t r3 = static_cast<std::uint64_t>(c);              \
    const std::uint64_t r4 = t4 + static_cast<std::uint64_t>(c >> 64);   \
    const std::uint64_t mu = r0 * n0;                                    \
    c = static_cast<u128>(mu) * m0 + r0;                                 \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(mu) * m1 + r1 + carry;                         \
    t0 = static_cast<std::uint64_t>(c);                                  \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(mu) * m2 + r2 + carry;                         \
    t1 = static_cast<std::uint64_t>(c);                                  \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(mu) * m3 + r3 + carry;                         \
    t2 = static_cast<std::uint64_t>(c);                                  \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(r4) + carry;                                   \
    t3 = static_cast<std::uint64_t>(c);                                  \
    t4 = static_cast<std::uint64_t>(c >> 64);                            \
  } while (0)
  MCCLS_CIOS_ROUND(a.w[0]);
  MCCLS_CIOS_ROUND(a.w[1]);
  MCCLS_CIOS_ROUND(a.w[2]);
  MCCLS_CIOS_ROUND(a.w[3]);
#undef MCCLS_CIOS_ROUND
  U256 r{{t0, t1, t2, t3}};
  constexpr U256 m{Params::kMod};
  if (t4 != 0 || cmp(r, m) >= 0) sub(r, r, m);
  return r;
}

/// Fully-unrolled Montgomery reduction of t < m * 2^256 with compile-time
/// modulus: returns t * 2^-256 mod Params::kMod. This is the second half of
/// a lazy multiply whose 512-bit accumulation already happened.
template <class Params>
inline U256 mont_redc_cios(const U512& t) {
  using u128 = unsigned __int128;
  constexpr std::uint64_t m0 = Params::kMod[0], m1 = Params::kMod[1],
                          m2 = Params::kMod[2], m3 = Params::kMod[3];
  constexpr std::uint64_t n0 = Params::kN0Inv;
  std::uint64_t t0 = t.w[0], t1 = t.w[1], t2 = t.w[2], t3 = t.w[3];
  // k holds the carry that belongs one limb above the sliding 4-limb window;
  // it is consumed when the next high limb shifts in. t < m*2^256 < 2^510
  // bounds the final result below 2m, so k always ends at 0.
  std::uint64_t k = 0;
#define MCCLS_REDC_ROUND(hi)                                             \
  do {                                                                   \
    const std::uint64_t mu = t0 * n0;                                    \
    u128 c = static_cast<u128>(mu) * m0 + t0;                            \
    std::uint64_t carry = static_cast<std::uint64_t>(c >> 64);           \
    c = static_cast<u128>(mu) * m1 + t1 + carry;                         \
    t0 = static_cast<std::uint64_t>(c);                                  \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(mu) * m2 + t2 + carry;                         \
    t1 = static_cast<std::uint64_t>(c);                                  \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(mu) * m3 + t3 + carry;                         \
    t2 = static_cast<std::uint64_t>(c);                                  \
    carry = static_cast<std::uint64_t>(c >> 64);                         \
    c = static_cast<u128>(hi) + carry + k;                               \
    t3 = static_cast<std::uint64_t>(c);                                  \
    k = static_cast<std::uint64_t>(c >> 64);                             \
  } while (0)
  MCCLS_REDC_ROUND(t.w[4]);
  MCCLS_REDC_ROUND(t.w[5]);
  MCCLS_REDC_ROUND(t.w[6]);
  MCCLS_REDC_ROUND(t.w[7]);
#undef MCCLS_REDC_ROUND
  U256 r{{t0, t1, t2, t3}};
  constexpr U256 m{Params::kMod};
  if (k != 0 || cmp(r, m) >= 0) sub(r, r, m);
  return r;
}

}  // namespace mccls::math
