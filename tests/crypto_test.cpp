#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "crypto/field.hpp"
#include "crypto/schnorr.hpp"
#include "util/rng.hpp"

namespace tribvote::crypto {
namespace {

TEST(Field, AddSubWrapCorrectly) {
  EXPECT_EQ(add_mod(kPrime - 1, 1), 0u);
  EXPECT_EQ(add_mod(kPrime - 1, 2), 1u);
  EXPECT_EQ(sub_mod(0, 1), kPrime - 1);
  EXPECT_EQ(sub_mod(5, 3), 2u);
}

TEST(Field, MulModSmallValues) {
  EXPECT_EQ(mul_mod(7, 6), 42u);
  EXPECT_EQ(mul_mod(0, 123456), 0u);
  EXPECT_EQ(mul_mod(1, kPrime - 1), kPrime - 1);
}

TEST(Field, MulModLargeValuesMatch128BitReference) {
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng() % kPrime;
    const std::uint64_t b = rng() % kPrime;
    const auto expected = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(a) * b) % kPrime);
    EXPECT_EQ(mul_mod(a, b), expected);
  }
}

TEST(Field, PowModAgreesWithRepeatedMultiplication) {
  std::uint64_t acc = 1;
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(pow_mod(3, e), acc);
    acc = mul_mod(acc, 3);
  }
}

TEST(Field, PowGeneratorMatchesSquareAndMultiply) {
  // q - 1 is the largest exponent keygen and sign draw; ~0 has every
  // 4-bit digit at 15.
  const std::uint64_t edges[] = {0,           1,      15,
                                 16,          kGroupOrder - 1,
                                 kGroupOrder, kPrime, ~0ULL,
                                 0x0FFFFFFFFFFFFFFFULL,
                                 0x1111111111111111ULL};
  for (const std::uint64_t e : edges) {
    EXPECT_EQ(pow_generator(e), pow_mod(kGenerator, e)) << "e=" << e;
  }
  util::Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    // Half full-width exponents, half in the exponent ring mod q.
    const std::uint64_t e = i % 2 == 0 ? rng() : rng() % kGroupOrder;
    ASSERT_EQ(pow_generator(e), pow_mod(kGenerator, e)) << "e=" << e;
  }
}

TEST(Field, FermatLittleTheorem) {
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = 1 + rng() % (kPrime - 1);
    EXPECT_EQ(pow_mod(a, kPrime - 1), 1u) << "a=" << a;
  }
}

TEST(Field, InverseIsCorrect) {
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = 1 + rng() % (kPrime - 1);
    EXPECT_EQ(mul_mod(a, inv_mod(a)), 1u);
  }
}

TEST(Field, GeneratorHasLargeOrder) {
  // g must not collapse in the small prime-factor subgroups of p-1.
  // p - 1 = 2^61 - 2 = 2 · 3^2 · 5^2 · 7 · 11 · 13 · 31 · 41 · 61 · 151 ·
  //         331 · 1321. Check g^((p-1)/q) != 1 for each prime factor q.
  for (std::uint64_t q :
       {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 31ULL, 41ULL, 61ULL, 151ULL,
        331ULL, 1321ULL}) {
    ASSERT_EQ((kPrime - 1) % q, 0u) << q << " must divide p-1";
    EXPECT_NE(pow_mod(kGenerator, (kPrime - 1) / q), 1u)
        << "generator collapses at factor " << q;
  }
}

TEST(Field, MulModAnyMatchesReference) {
  util::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t m = 1 + rng() % (~0ULL >> 1);
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const auto expected = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(a % m) * (b % m)) % m);
    EXPECT_EQ(mul_mod_any(a, b, m), expected);
  }
}

TEST(Schnorr, KeypairIsConsistent) {
  util::Rng rng(5);
  const KeyPair keys = generate_keypair(rng);
  EXPECT_EQ(keys.pub.y, pow_mod(kGenerator, keys.sec.x));
  EXPECT_GT(keys.sec.x, 0u);
}

TEST(Schnorr, SignVerifyRoundtrip) {
  util::Rng rng(6);
  const KeyPair keys = generate_keypair(rng);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t msg = rng();
    const Signature sig = sign(keys, msg, rng);
    EXPECT_TRUE(verify(keys.pub, msg, sig));
  }
}

TEST(Schnorr, TamperedMessageFails) {
  util::Rng rng(7);
  const KeyPair keys = generate_keypair(rng);
  const std::uint64_t msg = 0xdeadbeef;
  const Signature sig = sign(keys, msg, rng);
  EXPECT_FALSE(verify(keys.pub, msg ^ 1, sig));
  EXPECT_FALSE(verify(keys.pub, msg + 1, sig));
}

TEST(Schnorr, WrongKeyFails) {
  util::Rng rng(8);
  const KeyPair alice = generate_keypair(rng);
  const KeyPair bob = generate_keypair(rng);
  const Signature sig = sign(alice, 42, rng);
  EXPECT_FALSE(verify(bob.pub, 42, sig));
}

TEST(Schnorr, TamperedSignatureFails) {
  util::Rng rng(9);
  const KeyPair keys = generate_keypair(rng);
  const Signature sig = sign(keys, 777, rng);
  Signature bad_e = sig;
  bad_e.e = (bad_e.e + 1) % kGroupOrder;
  EXPECT_FALSE(verify(keys.pub, 777, bad_e));
  Signature bad_s = sig;
  bad_s.s = (bad_s.s + 1) % kGroupOrder;
  EXPECT_FALSE(verify(keys.pub, 777, bad_s));
}

TEST(Schnorr, RejectsMalformedInputs) {
  util::Rng rng(10);
  const KeyPair keys = generate_keypair(rng);
  const Signature sig = sign(keys, 1, rng);
  EXPECT_FALSE(verify(PublicKey{0}, 1, sig));             // zero key
  EXPECT_FALSE(verify(PublicKey{kPrime}, 1, sig));        // out of field
  EXPECT_FALSE(verify(keys.pub, 1, Signature{0, sig.s})); // zero challenge
  EXPECT_FALSE(
      verify(keys.pub, 1, Signature{kGroupOrder, sig.s}));  // e too large
  EXPECT_FALSE(
      verify(keys.pub, 1, Signature{sig.e, kGroupOrder}));  // s too large
}

TEST(Schnorr, NoncesMakeSignaturesDistinct) {
  util::Rng rng(11);
  const KeyPair keys = generate_keypair(rng);
  const Signature a = sign(keys, 5, rng);
  const Signature b = sign(keys, 5, rng);
  EXPECT_NE(a, b);  // different nonce k each time
  EXPECT_TRUE(verify(keys.pub, 5, a));
  EXPECT_TRUE(verify(keys.pub, 5, b));
}

TEST(Schnorr, DistinctSeedsDistinctKeys) {
  util::Rng r1(100), r2(101);
  EXPECT_NE(generate_keypair(r1).pub.y, generate_keypair(r2).pub.y);
}

// ---- verify memo -------------------------------------------------------------

/// A signed tuple with its expected verdict.
struct Case {
  PublicKey pub;
  std::uint64_t digest = 0;
  Signature sig;
  bool valid = false;
};

/// `n` tuples from `keys` distinct keys: every third one damaged in one word.
std::vector<Case> make_cases(std::size_t n, std::size_t keys,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<KeyPair> pairs;
  for (std::size_t k = 0; k < keys; ++k) pairs.push_back(generate_keypair(rng));
  std::vector<Case> cases;
  for (std::size_t i = 0; i < n; ++i) {
    const KeyPair& kp = pairs[i % keys];
    Case c{kp.pub, rng(), Signature{}, true};
    c.sig = sign(kp, c.digest, rng);
    if (i % 3 == 2) {
      c.digest ^= 1ULL << (i % 64);
      c.valid = false;
    }
    cases.push_back(c);
  }
  return cases;
}

TEST(SchnorrMemo, ChangingAnyWordOfAMemoizedTupleIsRejected) {
  util::Rng rng(13);
  const KeyPair keys = generate_keypair(rng);
  const std::uint64_t digest = rng();
  const Signature sig = sign(keys, digest, rng);
  // Enough tampered values per word that some share the valid tuple's memo
  // slot, and re-memoize the valid tuple before each: a memo that skipped a
  // word would answer that tamper with the valid verdict.
  constexpr int kTampers = 8 * static_cast<int>(kVerifyMemoSlots);
  for (int word = 0; word < 4; ++word) {
    for (int t = 0; t < kTampers; ++t) {
      ASSERT_TRUE(verify(keys.pub, digest, sig));
      PublicKey pub = keys.pub;
      std::uint64_t d = digest;
      Signature s = sig;
      switch (word) {
        case 0: pub.y = 1 + rng() % (kPrime - 1); break;
        case 1: d = rng(); break;
        case 2: s.e = 1 + rng() % (kGroupOrder - 1); break;
        default: s.s = rng() % kGroupOrder; break;
      }
      if (pub == keys.pub && d == digest && s == sig) continue;
      ASSERT_FALSE(verify(pub, d, s)) << "word " << word << " tamper " << t;
    }
  }
}

TEST(SchnorrMemo, RejectedTupleStaysRejectedWhenRepeated) {
  util::Rng rng(14);
  const KeyPair keys = generate_keypair(rng);
  const Signature sig = sign(keys, 99, rng);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(verify(keys.pub, 100, sig)) << "repeat " << i;
    EXPECT_TRUE(verify(keys.pub, 99, sig)) << "repeat " << i;
  }
}

TEST(SchnorrMemo, VerdictsHoldWhenTuplesOutnumberTheSlots) {
  const std::vector<Case> cases = make_cases(4 * kVerifyMemoSlots, 50, 15);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      ASSERT_EQ(verify(c.pub, c.digest, c.sig), c.valid)
          << "pass " << pass << " case " << i;
    }
  }
  // Backwards too, so slots are re-filled in a different order.
  for (std::size_t i = cases.size(); i-- > 0;) {
    const Case& c = cases[i];
    ASSERT_EQ(verify(c.pub, c.digest, c.sig), c.valid) << "case " << i;
  }
}

TEST(SchnorrMemo, ConcurrentThreadsGiveTheSameVerdicts) {
  const std::vector<Case> cases = make_cases(3 * kVerifyMemoSlots, 20, 16);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<char>> verdicts(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cases, &out = verdicts[t], t] {
      // Each thread walks the cases from its own offset, twice.
      for (int pass = 0; pass < 2; ++pass) {
        out.assign(cases.size(), 0);
        for (std::size_t k = 0; k < cases.size(); ++k) {
          const std::size_t i = (k + t * 997) % cases.size();
          const Case& c = cases[i];
          out[i] = verify(c.pub, c.digest, c.sig) ? 1 : 0;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      ASSERT_EQ(verdicts[t][i] != 0, cases[i].valid)
          << "thread " << t << " case " << i;
    }
  }
}

// Property sweep: roundtrip holds across many independent identities.
class SchnorrParamTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchnorrParamTest, RoundtripAndCrossRejection) {
  util::Rng rng(GetParam());
  const KeyPair keys = generate_keypair(rng);
  const std::uint64_t msg = rng();
  const Signature sig = sign(keys, msg, rng);
  EXPECT_TRUE(verify(keys.pub, msg, sig));
  EXPECT_FALSE(verify(keys.pub, msg ^ 0x8000000000000000ULL, sig));
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, SchnorrParamTest,
                         ::testing::Range<std::uint64_t>(0, 32));

}  // namespace
}  // namespace tribvote::crypto
