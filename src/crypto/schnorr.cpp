#include "crypto/schnorr.hpp"

#include <array>

#include "util/hash.hpp"

namespace tribvote::crypto {

namespace {

/// Fiat–Shamir challenge: hash of (commitment r, public key, message),
/// reduced into the exponent ring mod q = p - 1.
[[nodiscard]] std::uint64_t challenge(std::uint64_t r, std::uint64_t y,
                                      std::uint64_t message) noexcept {
  const std::uint64_t h = util::digest_fields({r, y, message});
  // Keep the challenge nonzero so s carries information about x.
  const std::uint64_t e = h % kGroupOrder;
  return e == 0 ? 1 : e;
}

/// One remembered verdict and the full tuple it answers. y == 0 marks an
/// empty slot: verify rejects a zero key before it consults the memo.
struct Verdict {
  std::uint64_t y = 0;
  std::uint64_t digest = 0;
  std::uint64_t e = 0;
  std::uint64_t s = 0;
  bool valid = false;
};

static_assert(sizeof(Verdict) == 40);
static_assert(kVerifyMemoSlots == 1024, "memo_slot keeps the top 10 bits");
thread_local std::array<Verdict, kVerifyMemoSlots> memo;

[[nodiscard]] std::size_t memo_slot(std::uint64_t y, std::uint64_t digest,
                                    const Signature& sig) noexcept {
  const std::uint64_t mixed =
      (y ^ digest ^ sig.e ^ (sig.s << 1)) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(mixed >> 54);  // top 10 bits
}

[[nodiscard]] bool check(const PublicKey& pub, std::uint64_t message_digest,
                         const Signature& sig) noexcept {
  // r' = g^s * y^e; valid iff H(r', y, m) == e.
  const std::uint64_t r = mul_mod(pow_generator(sig.s), pow_mod(pub.y, sig.e));
  return challenge(r, pub.y, message_digest) == sig.e;
}

}  // namespace

KeyPair generate_keypair(util::Rng& rng) noexcept {
  // x in [1, q-1]
  const std::uint64_t x = 1 + rng.next_below(kGroupOrder - 1);
  return KeyPair{PublicKey{pow_generator(x)}, SecretKey{x}};
}

Signature sign(const KeyPair& keys, std::uint64_t message_digest,
               util::Rng& rng) noexcept {
  const std::uint64_t k = 1 + rng.next_below(kGroupOrder - 1);
  const std::uint64_t r = pow_generator(k);
  const std::uint64_t e = challenge(r, keys.pub.y, message_digest);
  // s = k - x*e (mod q)
  const std::uint64_t xe = mul_mod_any(keys.sec.x, e, kGroupOrder);
  const std::uint64_t s = (k + kGroupOrder - xe % kGroupOrder) % kGroupOrder;
  return Signature{e, s};
}

bool verify(const PublicKey& pub, std::uint64_t message_digest,
            const Signature& sig) noexcept {
  if (pub.y == 0 || pub.y >= kPrime) return false;
  if (sig.e == 0 || sig.e >= kGroupOrder) return false;
  if (sig.s >= kGroupOrder) return false;
  // verify is a pure function of the tuple, so a remembered verdict is the
  // one check() would return. The slot is matched on all four words.
  Verdict& slot = memo[memo_slot(pub.y, message_digest, sig)];
  if (slot.y == pub.y && slot.digest == message_digest && slot.e == sig.e &&
      slot.s == sig.s) {
    return slot.valid;
  }
  slot = Verdict{pub.y, message_digest, sig.e, sig.s,
                 check(pub, message_digest, sig)};
  return slot.valid;
}

}  // namespace tribvote::crypto
