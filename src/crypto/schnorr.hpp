// Simulation-grade Schnorr signatures.
//
// Tribler binds every protocol message to a non-spoofable peer identity via
// a PKI. This module reproduces that structurally: key generation, signing
// and verification follow the classic Schnorr construction
//
//   sk = x,  pk = g^x        (group: subgroup of GF(p)^*, p = 2^61 - 1)
//   sign(m):   k <- random;  r = g^k;  e = H(r, pk, m);  s = k - x*e (mod q)
//   verify:    e' = H(g^s * pk^e, pk, m);  accept iff e' == e
//
// SECURITY NOTE: a 61-bit field offers no real-world security (discrete logs
// here are trivially computable offline). Inside the simulator this does not
// matter — adversary models are explicit code, not attackers grinding group
// math — while every moderation and vote-list message still pays the real
// sign/verify structure and cost model. Documented as a substitution in
// DESIGN.md §2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/field.hpp"
#include "util/rng.hpp"

namespace tribvote::crypto {

/// Public key: group element g^x.
struct PublicKey {
  std::uint64_t y = 0;
  [[nodiscard]] bool operator==(const PublicKey&) const = default;
};

/// Secret key: exponent x in [1, q-1].
struct SecretKey {
  std::uint64_t x = 0;
};

/// A Schnorr signature (e, s).
struct Signature {
  std::uint64_t e = 0;
  std::uint64_t s = 0;
  [[nodiscard]] bool operator==(const Signature&) const = default;
};

/// A peer's signing identity.
struct KeyPair {
  PublicKey pub;
  SecretKey sec;
};

/// Deterministically generate a key pair from `rng` (each simulated peer
/// derives its own child RNG, so identities are reproducible per seed).
[[nodiscard]] KeyPair generate_keypair(util::Rng& rng) noexcept;

/// Sign a 64-bit message digest (see util::digest_fields for building
/// digests from structured messages). `rng` supplies the nonce k.
[[nodiscard]] Signature sign(const KeyPair& keys, std::uint64_t message_digest,
                             util::Rng& rng) noexcept;

/// Slots in each thread's verify memo (see verify).
inline constexpr std::size_t kVerifyMemoSlots = 1024;

/// Verify a signature over a 64-bit message digest. Each thread keeps a
/// 40 KB direct-mapped memo of verdicts, keyed on the whole
/// (pub.y, digest, sig.e, sig.s) tuple and compared in full, so a receiver
/// re-checking a list it has already checked pays one lookup. A remembered
/// verdict is the one the full check gives, rejections included.
[[nodiscard]] bool verify(const PublicKey& pub, std::uint64_t message_digest,
                          const Signature& sig) noexcept;

}  // namespace tribvote::crypto
