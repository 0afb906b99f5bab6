// Wire-format conformance for the net:: plane (PROTOCOL.md).
//
// Covers: CRC-32 vectors, frame encode/parse round trips (including
// byte-at-a-time feeds), header rejection for every malformed field, CRC
// rejection under payload bit flips, codec round trips for every message
// type, strict-decoder rejection (truncation at every length, trailing
// bytes, out-of-range opinions, oversized counts, unsorted delta
// requests), the PR 4 accounting rule that a decoded-but-forged message
// rejects as kBadSignature, and the doc-freshness gate comparing
// codec_abi_digest() against the machine-readable line in PROTOCOL.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "crypto/schnorr.hpp"
#include "net/codec.hpp"
#include "net/crc32.hpp"
#include "net/frame.hpp"
#include "vote/agent.hpp"
#include "vote/gossip.hpp"

namespace tribvote::net {
namespace {

// ---- CRC-32 ----------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // The standard reflected CRC-32 ("123456789" -> 0xCBF43926).
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 5);
  }
  const std::uint32_t base = crc32(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
    EXPECT_NE(crc32(data), base) << "undetected flip at bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
  }
}

// ---- framing ---------------------------------------------------------------

Frame make_frame(FrameType type, std::uint8_t channel,
                 std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = type;
  f.channel = channel;
  f.payload = std::move(payload);
  return f;
}

TEST(FrameLayer, RoundTripsWholeAndByteAtATime) {
  std::vector<std::uint8_t> wire;
  encode_frame(make_frame(FrameType::kVoteFull, 0, {1, 2, 3, 4, 5}), wire);
  encode_frame(make_frame(FrameType::kBye, 1, {}), wire);
  ASSERT_EQ(wire.size(), 2 * kHeaderSize + 5);

  // Whole-buffer feed.
  FrameReader whole;
  whole.feed(wire.data(), wire.size());
  Frame f;
  ASSERT_TRUE(whole.next(f));
  EXPECT_EQ(f.type, FrameType::kVoteFull);
  EXPECT_EQ(f.channel, 0);
  EXPECT_EQ(f.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  ASSERT_TRUE(whole.next(f));
  EXPECT_EQ(f.type, FrameType::kBye);
  EXPECT_EQ(f.channel, 1);
  EXPECT_TRUE(f.payload.empty());
  EXPECT_FALSE(whole.next(f));
  EXPECT_FALSE(whole.corrupt());
  EXPECT_EQ(whole.pending_bytes(), 0u);
  EXPECT_EQ(whole.stats().frames, 2u);
  EXPECT_EQ(whole.stats().bytes, wire.size());

  // One byte at a time — TCP may fragment arbitrarily.
  FrameReader drip;
  std::size_t popped = 0;
  for (const std::uint8_t b : wire) {
    drip.feed(&b, 1);
    while (drip.next(f)) ++popped;
  }
  EXPECT_EQ(popped, 2u);
  EXPECT_FALSE(drip.corrupt());
}

TEST(FrameLayer, MalformedHeadersAreFatal) {
  std::vector<std::uint8_t> good;
  encode_frame(make_frame(FrameType::kHello, 0, {9, 9}), good);

  struct Case {
    std::size_t offset;
    std::uint8_t value;
    const char* what;
  };
  const Case cases[] = {
      {0, 0x00, "magic0"},    {1, 0x00, "magic1"},
      {2, 0x07, "version"},   {3, 0x7F, "unknown type"},
      {4, 0x02, "channel"},   {5, 0x01, "reserved[0]"},
      {6, 0x01, "reserved[1]"}, {7, 0x01, "reserved[2]"},
      {11, 0xFF, "length > max"},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bad = good;
    bad[c.offset] = c.value;
    FrameReader reader;
    reader.feed(bad.data(), bad.size());
    Frame f;
    EXPECT_FALSE(reader.next(f)) << c.what;
    EXPECT_TRUE(reader.corrupt()) << c.what;
    EXPECT_EQ(reader.stats().malformed, 1u) << c.what;
    EXPECT_EQ(reader.stats().checksum_rejects, 0u) << c.what;
    // Sticky: further bytes are ignored.
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(f)) << c.what;
  }
}

TEST(FrameLayer, PayloadBitFlipsAreChecksumRejects) {
  std::vector<std::uint8_t> wire;
  encode_frame(make_frame(FrameType::kVoteDelta, 1, {10, 20, 30, 40}), wire);
  for (std::size_t i = kHeaderSize; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = wire;
      bad[i] ^= static_cast<std::uint8_t>(1 << bit);
      FrameReader reader;
      reader.feed(bad.data(), bad.size());
      Frame f;
      EXPECT_FALSE(reader.next(f));
      EXPECT_TRUE(reader.corrupt());
      EXPECT_EQ(reader.stats().checksum_rejects, 1u);
      EXPECT_EQ(reader.stats().malformed, 0u);
    }
  }
}

TEST(FrameLayer, IncompleteFrameStaysPending) {
  std::vector<std::uint8_t> wire;
  encode_frame(make_frame(FrameType::kModBatch, 0, {1, 2, 3}), wire);
  FrameReader reader;
  reader.feed(wire.data(), wire.size() - 1);  // one byte short
  Frame f;
  EXPECT_FALSE(reader.next(f));
  EXPECT_FALSE(reader.corrupt());
  EXPECT_GT(reader.pending_bytes(), 0u);  // truncation evidence at close
}

// ---- agent fixtures --------------------------------------------------------

struct Peer {
  crypto::KeyPair keys;
  std::unique_ptr<vote::VoteAgent> agent;
};

Peer make_peer(PeerId id, std::uint64_t seed,
               vote::VoteConfig config = vote::VoteConfig{}) {
  Peer p;
  util::Rng krng(seed);
  p.keys = crypto::generate_keypair(krng);
  p.agent = std::make_unique<vote::VoteAgent>(
      id, p.keys, config, [](PeerId) { return true; },
      util::Rng(seed * 7919 + 1));
  return p;
}

vote::VoteListMessage signed_message(Peer& p, std::size_t votes, Time now) {
  for (std::size_t m = 0; m < votes; ++m) {
    p.agent->cast_vote(static_cast<ModeratorId>(100 + m),
                       (m % 2 == 0) ? Opinion::kPositive : Opinion::kNegative,
                       now - static_cast<Time>(m));
  }
  return p.agent->outgoing_votes(now);
}

// ---- codec round trips -----------------------------------------------------

TEST(NetCodec, HelloRoundTrip) {
  const HelloMessage in{42, crypto::PublicKey{0x0123456789ABCDEFULL}};
  HelloMessage out;
  ASSERT_TRUE(decode_hello(encode_hello(in), out));
  EXPECT_EQ(out.peer, in.peer);
  EXPECT_EQ(out.key.y, in.key.y);
}

TEST(NetCodec, EncounterBeginRoundTrip) {
  for (const std::uint8_t kind : {kEncounterVote, kEncounterModeration}) {
    const EncounterBegin in{kind, -123456789};
    EncounterBegin out;
    ASSERT_TRUE(decode_encounter_begin(encode_encounter_begin(in), out));
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.time, in.time);
  }
  EncounterBegin out;
  EXPECT_FALSE(decode_encounter_begin(encode_encounter_begin({2, 5}), out))
      << "unknown encounter kind must be rejected";
}

TEST(NetCodec, VoteFullRoundTripPreservesSignatureValidity) {
  Peer p = make_peer(1, 101);
  const vote::VoteListMessage in = signed_message(p, 7, 1000);
  vote::VoteListMessage out;
  ASSERT_TRUE(decode_vote_full(encode_vote_full(in), out));
  EXPECT_EQ(out.voter, in.voter);
  EXPECT_EQ(out.key.y, in.key.y);
  EXPECT_EQ(out.signature.e, in.signature.e);
  EXPECT_EQ(out.signature.s, in.signature.s);
  ASSERT_EQ(out.votes.size(), in.votes.size());
  for (std::size_t i = 0; i < in.votes.size(); ++i) {
    EXPECT_EQ(out.votes[i].moderator, in.votes[i].moderator);
    EXPECT_EQ(out.votes[i].opinion, in.votes[i].opinion);
    EXPECT_EQ(out.votes[i].cast_at, in.votes[i].cast_at);
  }
  EXPECT_EQ(out.digest(), in.digest());

  // The decoded message must still verify and merge on a receiving agent.
  Peer q = make_peer(2, 102);
  EXPECT_EQ(q.agent->receive_votes(out, 2000),
            vote::ReceiveResult::kAccepted);
}

TEST(NetCodec, VoteDigestRoundTrip) {
  Peer p = make_peer(1, 103);
  const vote::VoteListMessage full = signed_message(p, 5, 1000);
  const vote::VoteDigestMessage in = vote::make_digest(full);
  vote::VoteDigestMessage out;
  ASSERT_TRUE(decode_vote_digest(encode_vote_digest(in), out));
  EXPECT_EQ(out.voter, in.voter);
  EXPECT_EQ(out.key.y, in.key.y);
  EXPECT_EQ(out.checksum, in.checksum);
  ASSERT_EQ(out.entries.size(), in.entries.size());
  for (std::size_t i = 0; i < in.entries.size(); ++i) {
    EXPECT_EQ(out.entries[i].moderator, in.entries[i].moderator);
    EXPECT_EQ(out.entries[i].check, in.entries[i].check);
  }
  EXPECT_TRUE(vote::digest_intact(out));
}

TEST(NetCodec, DeltaRequestRoundTripAndOrderRule) {
  const std::vector<std::size_t> in{0, 3, 4, 17};
  std::vector<std::size_t> out;
  ASSERT_TRUE(decode_delta_request(encode_delta_request(in), out));
  EXPECT_EQ(out, in);
  ASSERT_TRUE(decode_delta_request(encode_delta_request({}), out));
  EXPECT_TRUE(out.empty());

  // Strictly increasing is normative (PROTOCOL.md §4.6): equal or
  // descending neighbours are malformed.
  EXPECT_FALSE(decode_delta_request(encode_delta_request({3, 3}), out));
  EXPECT_FALSE(decode_delta_request(encode_delta_request({5, 2}), out));
}

TEST(NetCodec, VoteDeltaRoundTripCompletesExchange) {
  Peer p = make_peer(1, 104);
  Peer q = make_peer(2, 105);
  const vote::VoteListMessage full = signed_message(p, 6, 1000);
  const vote::VoteDigestMessage digest = vote::make_digest(full);
  const std::vector<std::size_t> missing = q.agent->scan_digest(digest);
  ASSERT_FALSE(missing.empty());
  const vote::VoteDeltaMessage in = p.agent->build_delta(full, missing);

  vote::VoteDeltaMessage out;
  ASSERT_TRUE(decode_vote_delta(encode_vote_delta(in), out));
  EXPECT_EQ(out.voter, in.voter);
  EXPECT_EQ(out.key.y, in.key.y);
  EXPECT_EQ(out.bound_checksum, in.bound_checksum);
  EXPECT_EQ(out.signature.e, in.signature.e);
  EXPECT_EQ(out.signature.s, in.signature.s);
  ASSERT_EQ(out.votes.size(), in.votes.size());

  // A decoded digest + decoded delta must complete the exchange.
  vote::VoteDigestMessage digest2;
  ASSERT_TRUE(decode_vote_digest(encode_vote_digest(digest), digest2));
  EXPECT_EQ(q.agent->receive_delta(digest2, &out, 2000),
            vote::ReceiveResult::kAccepted);
}

TEST(NetCodec, VoxTopKRoundTrip) {
  const vote::RankedList in{9, 3, 7};
  vote::RankedList out;
  ASSERT_TRUE(decode_vox_topk(encode_vox_topk(in), out));
  EXPECT_EQ(out, in);
  ASSERT_TRUE(decode_vox_topk(encode_vox_topk({}), out));
  EXPECT_TRUE(out.empty());
}

TEST(NetCodec, ModBatchRoundTripPreservesSignatureValidity) {
  util::Rng krng(7);
  const crypto::KeyPair keys = crypto::generate_keypair(krng);
  std::vector<moderation::Moderation> in;
  util::Rng sig_rng(8);
  in.push_back(moderation::make_moderation(3, keys, 0xDEADBEEFCAFEULL,
                                           "First torrent \x01 with bytes",
                                           500, sig_rng));
  in.push_back(moderation::make_moderation(3, keys, 0xFEEDULL, "", 501,
                                           sig_rng));
  std::vector<moderation::Moderation> out;
  ASSERT_TRUE(decode_mod_batch(encode_mod_batch(in), out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].moderator, in[i].moderator);
    EXPECT_EQ(out[i].moderator_key.y, in[i].moderator_key.y);
    EXPECT_EQ(out[i].infohash, in[i].infohash);
    EXPECT_EQ(out[i].description, in[i].description);
    EXPECT_EQ(out[i].created, in[i].created);
    EXPECT_EQ(out[i].digest(), in[i].digest());
    EXPECT_TRUE(moderation::verify_moderation(out[i]));
  }
  ASSERT_TRUE(decode_mod_batch(encode_mod_batch({}), out));
  EXPECT_TRUE(out.empty());
}

TEST(NetCodec, PeerExchangeRoundTripPreservesSignatureValidity) {
  util::Rng krng(9);
  const crypto::KeyPair keys = crypto::generate_keypair(krng);
  util::Rng sig_rng(10);
  PeerExchangeMessage in;
  in.reply_requested = true;
  PeerDescriptor d;
  d.peer = 42;
  d.key = keys.pub;
  d.ip = 0x7f000001;
  d.port = 6881;
  d.heartbeat = 123456;
  d.signature = crypto::sign(keys, descriptor_digest(d), sig_rng);
  in.descriptors.push_back(d);
  d.peer = 43;
  d.heartbeat = -7;  // Time is signed; negative stamps must survive
  d.signature = crypto::sign(keys, descriptor_digest(d), sig_rng);
  in.descriptors.push_back(d);

  PeerExchangeMessage out;
  ASSERT_TRUE(decode_peer_exchange(encode_peer_exchange(in), out));
  EXPECT_TRUE(out.reply_requested);
  ASSERT_EQ(out.descriptors.size(), 2u);
  for (std::size_t i = 0; i < in.descriptors.size(); ++i) {
    EXPECT_EQ(out.descriptors[i].peer, in.descriptors[i].peer);
    EXPECT_EQ(out.descriptors[i].key.y, in.descriptors[i].key.y);
    EXPECT_EQ(out.descriptors[i].ip, in.descriptors[i].ip);
    EXPECT_EQ(out.descriptors[i].port, in.descriptors[i].port);
    EXPECT_EQ(out.descriptors[i].heartbeat, in.descriptors[i].heartbeat);
    EXPECT_EQ(descriptor_digest(out.descriptors[i]),
              descriptor_digest(in.descriptors[i]));
    EXPECT_TRUE(crypto::verify(out.descriptors[i].key,
                               descriptor_digest(out.descriptors[i]),
                               out.descriptors[i].signature));
  }

  PeerExchangeMessage empty;
  ASSERT_TRUE(decode_peer_exchange(encode_peer_exchange(empty), out));
  EXPECT_FALSE(out.reply_requested);
  EXPECT_TRUE(out.descriptors.empty());
}

TEST(NetCodecStrict, PeerExchangeRejectsUnknownFlagsAndOversizedCount) {
  PeerExchangeMessage in;
  in.reply_requested = true;
  in.descriptors.push_back(PeerDescriptor{});
  std::vector<std::uint8_t> payload = encode_peer_exchange(in);
  PeerExchangeMessage out;
  ASSERT_TRUE(decode_peer_exchange(payload, out));

  // Any flag bit beyond bit 0 is reserved-zero → malformed.
  std::vector<std::uint8_t> bad_flags = payload;
  bad_flags[0] = 0x03;
  EXPECT_FALSE(decode_peer_exchange(bad_flags, out));

  // count > kMaxPeerDescriptors rejects before any allocation.
  std::vector<std::uint8_t> bad_count = payload;
  bad_count[1] = 0xFF;
  bad_count[2] = 0xFF;  // count = 65535 > 64
  EXPECT_FALSE(decode_peer_exchange(bad_count, out));
}

// ---- strict decoding: truncation, trailing bytes, bad values ---------------

/// Every strict decoder must reject every proper prefix and any payload
/// with a trailing byte — the spec admits exactly one encoding per message.
template <typename Decode>
void expect_exact_length(const std::vector<std::uint8_t>& payload,
                         Decode decode) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    std::vector<std::uint8_t> cut(payload.begin(),
                                  payload.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode(cut)) << "accepted truncation to " << len << " of "
                              << payload.size() << " bytes";
  }
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(decode(padded)) << "accepted trailing byte";
}

TEST(NetCodecStrict, TruncationAndTrailingBytesRejectEverywhere) {
  Peer p = make_peer(1, 106);
  Peer q = make_peer(2, 107);
  const vote::VoteListMessage full = signed_message(p, 4, 1000);
  const vote::VoteDigestMessage digest = vote::make_digest(full);
  const std::vector<std::size_t> missing = q.agent->scan_digest(digest);
  const vote::VoteDeltaMessage delta = p.agent->build_delta(full, missing);
  util::Rng sig_rng(9);
  const std::vector<moderation::Moderation> batch{moderation::make_moderation(
      3, p.keys, 0xABCULL, "desc", 500, sig_rng)};

  expect_exact_length(encode_hello({1, p.keys.pub}), [](const auto& b) {
    HelloMessage m;
    return decode_hello(b, m);
  });
  expect_exact_length(encode_encounter_begin({kEncounterVote, 77}),
                      [](const auto& b) {
                        EncounterBegin m;
                        return decode_encounter_begin(b, m);
                      });
  expect_exact_length(encode_vote_full(full), [](const auto& b) {
    vote::VoteListMessage m;
    return decode_vote_full(b, m);
  });
  expect_exact_length(encode_vote_digest(digest), [](const auto& b) {
    vote::VoteDigestMessage m;
    return decode_vote_digest(b, m);
  });
  expect_exact_length(encode_delta_request({0, 2}), [](const auto& b) {
    std::vector<std::size_t> m;
    return decode_delta_request(b, m);
  });
  expect_exact_length(encode_vote_delta(delta), [](const auto& b) {
    vote::VoteDeltaMessage m;
    return decode_vote_delta(b, m);
  });
  expect_exact_length(encode_vox_topk({4, 5}), [](const auto& b) {
    vote::RankedList m;
    return decode_vox_topk(b, m);
  });
  expect_exact_length(encode_mod_batch(batch), [](const auto& b) {
    std::vector<moderation::Moderation> m;
    return decode_mod_batch(b, m);
  });
  PeerExchangeMessage exchange;
  exchange.descriptors.push_back(PeerDescriptor{});
  exchange.descriptors.push_back(PeerDescriptor{});
  expect_exact_length(encode_peer_exchange(exchange), [](const auto& b) {
    PeerExchangeMessage m;
    return decode_peer_exchange(b, m);
  });
}

TEST(NetCodecStrict, OutOfRangeOpinionRejects) {
  Peer p = make_peer(1, 108);
  const vote::VoteListMessage full = signed_message(p, 1, 1000);
  std::vector<std::uint8_t> payload = encode_vote_full(full);
  // Layout (§4.4): u32 voter, u64 key, u32 count, then entries of
  // u32 moderator + i8 opinion + i64 cast_at. First opinion at offset 20.
  const std::size_t opinion_off = 4 + 8 + 4 + 4;
  ASSERT_LT(opinion_off, payload.size());
  payload[opinion_off] = 0x02;  // not in {-1, 0, 1}
  vote::VoteListMessage out;
  EXPECT_FALSE(decode_vote_full(payload, out));
}

TEST(NetCodecStrict, OversizedCountsReject) {
  // A vote-full header claiming more entries than kMaxVoteEntries must be
  // rejected before any allocation proportional to the claim.
  Peer p = make_peer(1, 109);
  std::vector<std::uint8_t> payload = encode_vote_full(
      signed_message(p, 1, 1000));
  const std::size_t count_off = 4 + 8;
  payload[count_off] = 0xFF;
  payload[count_off + 1] = 0xFF;  // count = 65535 > 4096
  vote::VoteListMessage out;
  EXPECT_FALSE(decode_vote_full(payload, out));

  vote::RankedList topk_out;
  std::vector<std::uint8_t> topk = encode_vox_topk({1});
  topk[0] = 0xFF;  // u16 count = 0x00FF > kMaxTopK
  EXPECT_FALSE(decode_vox_topk(topk, topk_out));
}

// ---- forged-but-well-formed messages: PR 4 accounting ----------------------

TEST(NetCodecStrict, DecodedForgeryRejectsAsBadSignature) {
  // Above the CRC, integrity is the Schnorr signature's job: a bit-damaged
  // message that still *decodes* must land in kBadSignature — the same
  // verdict the simulator's fault plane assigns (fs.vote.rejected role).
  Peer p = make_peer(1, 110);
  Peer q = make_peer(2, 111);
  vote::VoteListMessage msg = signed_message(p, 5, 1000);
  vote::damage_message(msg, util::PayloadFault::kCorrupted, 42);

  vote::VoteListMessage decoded;
  ASSERT_TRUE(decode_vote_full(encode_vote_full(msg), decoded));
  EXPECT_EQ(q.agent->receive_votes(decoded, 2000),
            vote::ReceiveResult::kBadSignature);
  EXPECT_EQ(q.agent->ballot_box().size(), 0u);
}

// ---- doc-freshness gate ----------------------------------------------------

TEST(ProtocolDoc, CodecAbiDigestMatchesSpec) {
  // PROTOCOL.md embeds the implementation's ABI digest in a machine-
  // readable line. If this test fails you changed the wire format (or its
  // limits) without updating the spec: fix PROTOCOL.md, then refresh the
  // digest line to the value printed below.
  const std::string path = std::string(TRIBVOTE_SOURCE_DIR) + "/PROTOCOL.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();

  char expected[64];
  std::snprintf(expected, sizeof(expected), "<!-- codec-abi: 0x%016llx -->",
                static_cast<unsigned long long>(codec_abi_digest()));
  EXPECT_NE(doc.find(expected), std::string::npos)
      << "PROTOCOL.md is stale: expected the line\n  " << expected
      << "\nUpdate the spec to match the codec change, then refresh the "
         "codec-abi line.";
}

}  // namespace
}  // namespace tribvote::net
