#include "crypto/field.hpp"

#include <array>
#include <cassert>

namespace tribvote::crypto {

namespace {

/// (a * b) mod p for a, b already in [0, p).
[[nodiscard]] std::uint64_t mul_reduced(std::uint64_t a,
                                        std::uint64_t b) noexcept {
  const auto prod = static_cast<__uint128_t>(a) * b;
  // Mersenne reduction: x mod (2^61 - 1) = (x >> 61) + (x & (2^61 - 1)),
  // applied twice to cover the carry.
  auto lo = static_cast<std::uint64_t>(prod & kPrime);
  auto hi = static_cast<std::uint64_t>(prod >> 61);
  std::uint64_t r = lo + hi;
  r = (r & kPrime) + (r >> 61);
  if (r >= kPrime) r -= kPrime;
  return r;
}

/// table[i][j] = g^(j * 16^i): one row per 4-bit digit of a 64-bit
/// exponent.
using BaseTable = std::array<std::array<std::uint64_t, 16>, 16>;

[[nodiscard]] BaseTable build_base_table() noexcept {
  BaseTable table{};
  std::uint64_t step = kGenerator;  // g^(16^i)
  for (auto& row : table) {
    row[0] = 1;
    for (std::size_t j = 1; j < row.size(); ++j) {
      row[j] = mul_reduced(row[j - 1], step);
    }
    step = mul_reduced(row[15], step);
  }
  return table;
}

}  // namespace

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b) noexcept {
  return mul_reduced(a % kPrime, b % kPrime);
}

std::uint64_t add_mod(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t r = (a % kPrime) + (b % kPrime);
  if (r >= kPrime) r -= kPrime;
  return r;
}

std::uint64_t sub_mod(std::uint64_t a, std::uint64_t b) noexcept {
  a %= kPrime;
  b %= kPrime;
  return a >= b ? a - b : a + kPrime - b;
}

std::uint64_t pow_mod(std::uint64_t a, std::uint64_t e) noexcept {
  std::uint64_t base = a % kPrime;
  std::uint64_t result = 1;
  while (e > 0) {
    if (e & 1) result = mul_reduced(result, base);
    base = mul_reduced(base, base);
    e >>= 1;
  }
  return result;
}

std::uint64_t pow_generator(std::uint64_t e) noexcept {
  static const BaseTable table = build_base_table();
  std::uint64_t result = 1;
  for (const auto& row : table) {
    result = mul_reduced(result, row[e & 15]);
    e >>= 4;
  }
  return result;
}

std::uint64_t inv_mod(std::uint64_t a) noexcept {
  assert(a % kPrime != 0);
  return pow_mod(a, kPrime - 2);
}

std::uint64_t mul_mod_any(std::uint64_t a, std::uint64_t b,
                          std::uint64_t m) noexcept {
  assert(m > 0);
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(a % m) * (b % m)) % m);
}

}  // namespace tribvote::crypto
