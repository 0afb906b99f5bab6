// The shared spec grammar and chaos model (DESIGN.md "Shared chaos model"):
// value validation through util::read_spec, one set of parse semantics for
// every spec (fault, impair, adversary, streaming), and the guarantee that
// a shared chaos key means the same thing on the sim and the net plane.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "adversary/config.hpp"
#include "bt/streaming.hpp"
#include "net/impairment.hpp"
#include "sim/fault_plane.hpp"
#include "sim/options.hpp"
#include "util/chaos.hpp"
#include "util/rng.hpp"

namespace tribvote {
namespace {

// ---- one parse entry point per spec ------------------------------------------

using ParseFn = std::function<bool(const std::string&, std::string*)>;

bool parse_fault(const std::string& spec, std::string* error) {
  sim::FaultConfig c;
  return sim::parse_fault_spec(spec, c, error);
}
bool parse_impair(const std::string& spec, std::string* error) {
  net::ImpairConfig c;
  return net::parse_impair_spec(spec, c, error);
}
bool parse_adversary(const std::string& spec, std::string* error) {
  adversary::AdversaryConfig c;
  return adversary::parse_adversary_spec(spec, c, error);
}
bool parse_streaming(const std::string& spec, std::string* error) {
  bt::StreamingConfig c;
  return bt::parse_streaming_spec(spec, c, error);
}

struct ValueRow {
  const char* plane;
  ParseFn parse;
  const char* spec;
  bool accepted;
};

// Every `false` row was accepted before the shared reader validated values.
TEST(SpecValues, TypedReadersRejectInvalidValues) {
  const std::vector<ValueRow> rows = {
      // NaN is not a probability.
      {"fault", parse_fault, "loss=nan", false},
      {"impair", parse_impair, "loss=nan", false},
      {"adversary", parse_adversary, "colluder:duty=nan", false},
      {"adversary", parse_adversary, "nuisance:flip=nan", false},
      {"streaming", parse_streaming, "kbps=nan", false},
      // Integers the target type cannot hold.
      {"streaming", parse_streaming, "window=1e30", false},
      {"fault", parse_fault, "max_delay=1e30", false},
      {"fault", parse_fault, "retries=1e30", false},
      {"adversary", parse_adversary, "colluder:n=1e30", false},
      // Negative integers.
      {"impair", parse_impair, "part_period=-1", false},
      {"impair", parse_impair, "part_width=-1", false},
      // Fractional integers.
      {"fault", parse_fault, "part_width=2.9", false},
      {"adversary", parse_adversary, "sybil:region=2.5", false},
      // Infinite reals.
      {"streaming", parse_streaming, "kbps=inf", false},
      {"adversary", parse_adversary, "nuisance:credit=inf", false},
      // Well-formed values of the same keys still parse.
      {"fault", parse_fault, "loss=0.5,max_delay=1e3,retries=32", true},
      {"impair", parse_impair, "part_period=8,part_width=3", true},
      {"adversary", parse_adversary, "sybil:n=8,region=2", true},
      {"adversary", parse_adversary, "colluder:n=4,duty=1", true},
      {"streaming", parse_streaming, "window=16,kbps=0.5", true},
  };
  for (const ValueRow& row : rows) {
    std::string error;
    EXPECT_EQ(row.parse(row.spec, &error), row.accepted)
        << row.plane << " '" << row.spec << "': " << error;
    if (!row.accepted) {
      EXPECT_FALSE(error.empty()) << row.plane << " '" << row.spec << "'";
    }
  }
}

TEST(SpecValues, ErrorsNameTheKeyAndTheRule) {
  std::string error;
  ASSERT_FALSE(parse_fault("part_width=2.9", &error));
  EXPECT_EQ(error, "part_width must be an integer");
  ASSERT_FALSE(parse_fault("retries=33", &error));
  EXPECT_EQ(error, "retries must be <= 32");
  ASSERT_FALSE(parse_fault("max_delay=0", &error));
  EXPECT_EQ(error, "max_delay must be >= 1");
  ASSERT_FALSE(parse_fault("loss=nan", &error));
  EXPECT_EQ(error, "loss must be in [0, 1]");
  ASSERT_FALSE(parse_fault("ge=0.8", &error));
  EXPECT_EQ(error, "ge must be in [0, 0.8)");
  ASSERT_FALSE(parse_streaming("kbps=0", &error));
  EXPECT_EQ(error, "kbps must be > 0");
  ASSERT_FALSE(parse_adversary("colluder:duty=0", &error));
  EXPECT_EQ(error, "duty must be in (0, 1]");
  ASSERT_FALSE(parse_fault("loss=", &error));
  EXPECT_EQ(error, "bad value for loss: ''");
  ASSERT_FALSE(parse_fault("loss", &error));
  EXPECT_EQ(error, "expected key=value, got 'loss'");
}

// ---- one set of parse semantics ----------------------------------------------

TEST(SpecSemantics, FailedParseLeavesTheConfigUntouched) {
  sim::FaultConfig f;
  f.crash_rate = 0.2;
  EXPECT_FALSE(sim::parse_fault_spec("loss=0.4,bogus=1", f));
  EXPECT_EQ(f.loss, 0.0);
  EXPECT_EQ(f.crash_rate, 0.2);

  net::ImpairConfig n;
  n.stall_rate = 0.1;
  EXPECT_FALSE(net::parse_impair_spec("loss=0.4,part_width=0", n));
  EXPECT_EQ(n.loss, 0.0);
  EXPECT_EQ(n.stall_rate, 0.1);

  adversary::AdversaryConfig a;
  ASSERT_TRUE(adversary::parse_adversary_spec("front:n=2", a));
  EXPECT_FALSE(adversary::parse_adversary_spec("attrition:n=3;ddos:n=1", a));
  ASSERT_EQ(a.roster.size(), 1u);
  EXPECT_EQ(a.roster[0].kind, adversary::StrategyKind::kFrontPeer);

  bt::StreamingConfig s;
  ASSERT_TRUE(bt::parse_streaming_spec("window=4", s));
  EXPECT_FALSE(bt::parse_streaming_spec("window=6,startup=0", s));
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.window, 4u);
}

TEST(SpecSemantics, ChaosSpecsLayerOverTheCallersValues) {
  sim::FaultConfig f;
  ASSERT_TRUE(sim::parse_fault_spec("loss=0.3", f));
  ASSERT_TRUE(sim::parse_fault_spec("delay_rate=0.2", f));
  EXPECT_EQ(f.loss, 0.3);
  EXPECT_EQ(f.delay_rate, 0.2);

  net::ImpairConfig n;
  ASSERT_TRUE(net::parse_impair_spec("loss=0.3", n));
  ASSERT_TRUE(net::parse_impair_spec("stall=0.1", n));
  EXPECT_EQ(n.loss, 0.3);
  EXPECT_EQ(n.stall_rate, 0.1);
}

TEST(SpecSemantics, BothChaosPlanesAcceptOff) {
  sim::FaultConfig f;
  ASSERT_TRUE(sim::parse_fault_spec("loss=0.3,crash=0.1,retries=2", f));
  ASSERT_TRUE(sim::parse_fault_spec("off", f));
  EXPECT_FALSE(f.enabled());
  EXPECT_EQ(f.vp_retry_budget, sim::FaultConfig{}.vp_retry_budget);
  EXPECT_EQ(sim::describe(f), "off");

  net::ImpairConfig n;
  ASSERT_TRUE(net::parse_impair_spec("ge=0.3,stall=0.1", n));
  ASSERT_TRUE(net::parse_impair_spec("off", n));
  EXPECT_FALSE(n.enabled());
  EXPECT_EQ(net::describe(n), "off");
}

TEST(SpecSemantics, FaultsEnvAcceptsOffWithoutAWarning) {
  ASSERT_EQ(setenv("TRIBVOTE_FAULTS", "off", 1), 0);
  testing::internal::CaptureStderr();
  const sim::FaultConfig f = sim::options::faults();
  const std::string warned = testing::internal::GetCapturedStderr();
  unsetenv("TRIBVOTE_FAULTS");
  EXPECT_FALSE(f.enabled());
  EXPECT_EQ(warned, "");
}

// ---- one chaos model on both planes ------------------------------------------

bool same_model(const util::ChaosModel& a, const util::ChaosModel& b) {
  return a.loss == b.loss && a.delay_rate == b.delay_rate &&
         a.corrupt_rate == b.corrupt_rate &&
         a.ge_good_to_bad == b.ge_good_to_bad &&
         a.ge_bad_to_good == b.ge_bad_to_good &&
         a.ge_loss_good == b.ge_loss_good &&
         a.ge_loss_bad == b.ge_loss_bad &&
         a.partition_period == b.partition_period &&
         a.partition_width == b.partition_width &&
         a.partition_frac == b.partition_frac;
}

TEST(ChaosModel, SharedKeysSetTheSameFieldsOnBothPlanes) {
  for (const std::string spec :
       {"loss=0.25", "delay=0.125", "corrupt=0.0625", "ge=0.3", "ge_p=0.1",
        "ge_r=0.5", "ge_loss_good=0.01", "ge_loss_bad=0.7", "part_period=8",
        "part_width=3", "part_frac=0.25"}) {
    sim::FaultConfig f;
    net::ImpairConfig n;
    std::string error;
    ASSERT_TRUE(sim::parse_fault_spec(spec, f, &error)) << spec << error;
    ASSERT_TRUE(net::parse_impair_spec(spec, n, &error)) << spec << error;
    EXPECT_TRUE(same_model(f, n)) << spec;
    EXPECT_FALSE(same_model(f, util::ChaosModel{})) << spec;  // it moved
  }
}

TEST(ChaosModel, SharedKeysFailWithIdenticalErrorText) {
  for (const char* spec :
       {"loss=nan", "loss=1.5", "delay=-0.1", "corrupt=x", "ge=0.8",
        "ge_p=2", "part_period=-1", "part_width=0", "part_width=2.9",
        "part_frac=nan", "loss"}) {
    std::string fault_error, impair_error;
    EXPECT_FALSE(parse_fault(spec, &fault_error)) << spec;
    EXPECT_FALSE(parse_impair(spec, &impair_error)) << spec;
    EXPECT_EQ(fault_error, impair_error) << spec;
  }
}

TEST(ChaosModel, EachPlanesExtraKeysAreRejectedByTheOther) {
  for (const char* key : {"crash", "crash_rate", "delay_rate",
                          "corrupt_rate", "max_delay", "retries",
                          "retry_base"}) {
    const std::string spec = std::string(key) + "=1";
    std::string error;
    EXPECT_TRUE(parse_fault(spec, &error)) << spec << ": " << error;
    EXPECT_FALSE(parse_impair(spec, &error)) << spec;
    EXPECT_EQ(error, "unknown impair key '" + std::string(key) + "'");
  }
  for (const char* key : {"truncate", "stall", "max_delay_ms"}) {
    const std::string spec = std::string(key) + "=1";
    std::string error;
    EXPECT_TRUE(parse_impair(spec, &error)) << spec << ": " << error;
    EXPECT_FALSE(parse_fault(spec, &error)) << spec;
    EXPECT_EQ(error, "unknown fault key '" + std::string(key) + "'");
  }
}

TEST(ChaosModel, DescribeSharesThePrefixOfTheSharedKnobs) {
  const std::string spec = "ge=0.3,delay=0.1,part_period=4,part_frac=0.5";
  sim::FaultConfig f;
  net::ImpairConfig n;
  ASSERT_TRUE(sim::parse_fault_spec(spec, f));
  ASSERT_TRUE(net::parse_impair_spec(spec, n));
  const std::string shared = util::describe_chaos(f);
  EXPECT_EQ(shared, util::describe_chaos(n));
  EXPECT_EQ(sim::describe(f).rfind(shared, 0), 0u) << sim::describe(f);
  EXPECT_EQ(net::describe(n).rfind(shared, 0), 0u) << net::describe(n);
}

TEST(ChaosModel, PartitionMembershipAgreesAcrossPlanes) {
  const std::string spec = "part_period=4,part_width=2,part_frac=0.5";
  constexpr std::uint64_t kSeed = 2024;
  sim::FaultConfig f;
  net::ImpairConfig n;
  ASSERT_TRUE(sim::parse_fault_spec(spec, f));
  ASSERT_TRUE(net::parse_impair_spec(spec, n));
  const sim::FaultPlane plane(f, util::Rng(kSeed), 1);
  net::Impairment impair(n, kSeed, 0);
  std::size_t dark = 0;
  for (std::uint64_t round = 0; round < 64; ++round) {
    impair.set_round(round);
    for (PeerId node = 0; node < 32; ++node) {
      const bool partitioned = plane.partitioned(round, node);
      EXPECT_EQ(partitioned, impair.offline(node))
          << "round " << round << " node " << node;
      dark += partitioned ? 1 : 0;
    }
  }
  EXPECT_GT(dark, 0u);
}

TEST(ChaosModel, GeZeroTurnsTheChainOffOnBothPlanes) {
  sim::FaultConfig f;
  net::ImpairConfig n;
  ASSERT_TRUE(sim::parse_fault_spec("ge=0.3,ge=0", f));
  ASSERT_TRUE(net::parse_impair_spec("ge=0.3,ge=0", n));
  EXPECT_FALSE(f.ge_on());
  EXPECT_FALSE(n.ge_on());
  EXPECT_TRUE(same_model(f, util::ChaosModel{}));
  EXPECT_TRUE(same_model(n, util::ChaosModel{}));
}

}  // namespace
}  // namespace tribvote
