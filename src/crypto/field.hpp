// Arithmetic modulo the Mersenne prime p = 2^61 - 1.
//
// Substrate for the simulation-grade Schnorr scheme in schnorr.hpp. A 61-bit
// field is far too small to be cryptographically secure; it is chosen so the
// signature scheme is *structurally* complete (real group exponentiation,
// real Fiat–Shamir challenge) while staying fast enough to sign and verify
// every message in a 7-day, 100-peer simulation.
#pragma once

#include <cstdint>

namespace tribvote::crypto {

/// The field modulus: Mersenne prime 2^61 - 1.
inline constexpr std::uint64_t kPrime = (1ULL << 61) - 1;

/// Order of the multiplicative group GF(p)^* = p - 1.
inline constexpr std::uint64_t kGroupOrder = kPrime - 1;

/// A fixed primitive root of GF(p)^*: 37 generates the full multiplicative
/// group (validated in tests against the complete factorization of p-1 =
/// 2 · 3² · 5² · 7 · 11 · 13 · 31 · 41 · 61 · 151 · 331 · 1321).
inline constexpr std::uint64_t kGenerator = 37;

/// (a * b) mod p via 128-bit intermediate.
[[nodiscard]] std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b) noexcept;

/// (a + b) mod p.
[[nodiscard]] std::uint64_t add_mod(std::uint64_t a, std::uint64_t b) noexcept;

/// (a - b) mod p.
[[nodiscard]] std::uint64_t sub_mod(std::uint64_t a, std::uint64_t b) noexcept;

/// a^e mod p by square-and-multiply.
[[nodiscard]] std::uint64_t pow_mod(std::uint64_t a, std::uint64_t e) noexcept;

/// kGenerator^e mod p from a fixed-base table of g^(j * 16^i), built once:
/// one multiply per 4-bit digit of e, 16 in all, against about 90 for
/// pow_mod. Equal to pow_mod(kGenerator, e) for every e.
[[nodiscard]] std::uint64_t pow_generator(std::uint64_t e) noexcept;

/// Multiplicative inverse mod p (Fermat). Precondition: a != 0 (mod p).
[[nodiscard]] std::uint64_t inv_mod(std::uint64_t a) noexcept;

/// (a * b) mod m for arbitrary modulus m (used in the exponent ring mod p-1).
[[nodiscard]] std::uint64_t mul_mod_any(std::uint64_t a, std::uint64_t b,
                                        std::uint64_t m) noexcept;

}  // namespace tribvote::crypto
