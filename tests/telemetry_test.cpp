// Telemetry plane (DESIGN.md §11): registry determinism across lane
// counts, histogram bucket edges, the Chrome-trace exporter's JSON, the
// degradation-counter port, and the whole-runner guarantees — counters
// never perturb a run, and totals are bit-identical at any shard count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "metrics/degradation.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_writer.hpp"
#include "trace/generator.hpp"

namespace tribvote {
namespace {

// ---- registry basics -------------------------------------------------------

TEST(Registry, CounterAddAndTotal) {
  telemetry::Registry reg(1);
  const auto id = reg.counter("a");
  reg.add(id);
  reg.add(id, 41);
  EXPECT_EQ(reg.total(id), 42u);
  EXPECT_EQ(reg.total_by_name("a"), 42u);
  EXPECT_EQ(reg.total_by_name("missing"), 0u);
}

TEST(Registry, RegistrationIsIdempotentPerName) {
  telemetry::Registry reg(2);
  const auto a = reg.counter("x");
  const auto b = reg.counter("x");
  EXPECT_EQ(a.v, b.v);
  reg.add(a);
  reg.add(b);
  EXPECT_EQ(reg.total(a), 2u);
  const auto h1 = reg.histogram("h", {1.0, 2.0});
  const auto h2 = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(h1.v, h2.v);
}

TEST(Registry, SetTotalOverridesAndClearsLaneDeltas) {
  telemetry::Registry reg(2);
  const auto id = reg.counter("mirror");
  telemetry::set_current_lane(1);
  reg.add(id, 7);  // stale lane delta, superseded by the serial mirror
  telemetry::set_current_lane(0);
  reg.set_total(id, 100);
  EXPECT_EQ(reg.total(id), 100u);
  reg.merge_lanes();
  EXPECT_EQ(reg.total(id), 100u);
}

TEST(Registry, GaugeStoresDoubles) {
  telemetry::Registry reg(1);
  const auto id = reg.gauge("g");
  reg.set_gauge(id, 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value(id), 2.5);
  ASSERT_EQ(reg.gauges().size(), 1u);
  EXPECT_EQ(reg.gauges()[0].first, "g");
}

TEST(Registry, NullHandlesAreInertAndCheap) {
  const telemetry::Counter counter;   // telemetry off: no registry behind it
  const telemetry::Histogram histogram;
  counter.add();
  histogram.observe(3.0);
  EXPECT_FALSE(counter.enabled());
  EXPECT_FALSE(histogram.enabled());
}

// ---- histogram edges -------------------------------------------------------

TEST(Histogram, EdgeCases) {
  telemetry::Registry reg(1);
  const auto id = reg.histogram("h", {1.0, 5.0, 10.0});
  reg.observe(id, 0.0);     // below first edge -> bucket 0
  reg.observe(id, 1.0);     // exactly on an edge -> that bucket (v <= edge)
  reg.observe(id, 5.0);     // on the middle edge -> bucket 1
  reg.observe(id, 10.0);    // on the last edge -> bucket 2
  reg.observe(id, 10.5);    // above the last edge -> overflow
  reg.observe(id, std::nan(""));  // NaN -> overflow
  const std::vector<std::uint64_t> buckets = reg.buckets(id);
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(reg.edges(id).size(), 3u);
}

TEST(Histogram, ColumnsExpandBucketNames) {
  telemetry::Registry reg(1);
  (void)reg.counter("c");
  const auto id = reg.histogram("h", {1.0, 2.5, 10.0});
  reg.observe(id, 2.0);
  const auto cols = reg.columns();
  ASSERT_EQ(cols.size(), 5u);  // 1 counter + 3 buckets + overflow
  EXPECT_EQ(cols[0].first, "c");
  EXPECT_EQ(cols[1].first, "h.le1");
  EXPECT_EQ(cols[2].first, "h.le2.5");
  EXPECT_EQ(cols[3].first, "h.le10");
  EXPECT_EQ(cols[4].first, "h.inf");
  EXPECT_EQ(cols[2].second, 1u);
}

// ---- lane-merge determinism ------------------------------------------------

/// Spread the same 1000 increments and observations over `lanes` worker
/// lanes, round-robin, and return the resulting columns.
std::vector<std::pair<std::string, std::uint64_t>> lane_spread_columns(
    std::size_t lanes) {
  telemetry::Registry reg(lanes);
  const auto c = reg.counter("c");
  const auto h = reg.histogram("h", {10.0, 100.0, 500.0});
  for (std::size_t i = 0; i < 1000; ++i) {
    telemetry::set_current_lane(i % lanes);
    reg.add(c, i % 7);
    reg.observe(h, static_cast<double>(i));
    telemetry::set_current_lane(0);
  }
  reg.merge_lanes();
  return reg.columns();
}

TEST(Registry, MergeIsDeterministicAcrossLaneCounts) {
  const auto one = lane_spread_columns(1);
  const auto four = lane_spread_columns(4);
  const auto eight = lane_spread_columns(8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

TEST(Registry, ReadsFoldUnmergedLaneDeltas) {
  telemetry::Registry reg(4);
  const auto id = reg.counter("c");
  telemetry::set_current_lane(3);
  reg.add(id, 5);
  telemetry::set_current_lane(0);
  EXPECT_EQ(reg.total(id), 5u);  // no merge_lanes() yet
  reg.merge_lanes();
  EXPECT_EQ(reg.total(id), 5u);  // merge must not double-count
}

// ---- Chrome-trace writer ---------------------------------------------------

struct ParsedEvent {
  std::string name;
  std::uint32_t tid = 0;
  std::int64_t ts = 0;
  std::int64_t dur = 0;
};

/// Pull one field's numeric value out of a single-event JSON line.
std::int64_t field_of(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  return std::strtoll(line.c_str() + at + key.size() + 3, nullptr, 10);
}

std::vector<ParsedEvent> parse_trace_file(const std::string& path,
                                          std::string* whole = nullptr) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  if (whole != nullptr) *whole = doc;
  // One event per line after the header line; names are simple literals.
  std::vector<ParsedEvent> events;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    ParsedEvent e;
    const std::size_t name_at = line.find("\"name\":\"");
    EXPECT_NE(name_at, std::string::npos);
    const std::size_t name_end = line.find('"', name_at + 8);
    e.name = line.substr(name_at + 8, name_end - (name_at + 8));
    e.tid = static_cast<std::uint32_t>(field_of(line, "tid"));
    e.ts = field_of(line, "ts");
    e.dur = field_of(line, "dur");
    events.push_back(e);
  }
  return events;
}

TEST(ChromeTraceWriter, SortsByTidThenTsParentsFirst) {
  telemetry::TraceBuffer buf;
  // Inserted out of order on purpose; the child shares its parent's start.
  buf.record("child", 100, 40, /*tid=*/0);
  buf.record("other_tid", 5, 10, /*tid=*/1);
  buf.record("parent", 100, 90, /*tid=*/0);
  buf.record("early", 10, 20, /*tid=*/0);
  const std::string path =
      ::testing::TempDir() + "/telemetry_writer_test.json";
  ASSERT_TRUE(telemetry::ChromeTraceWriter::write(path, buf));

  std::string doc;
  const auto events = parse_trace_file(path, &doc);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "early");
  EXPECT_EQ(events[1].name, "parent");  // longer span first at equal ts
  EXPECT_EQ(events[2].name, "child");
  EXPECT_EQ(events[3].name, "other_tid");

  // Well-formed JSON skeleton, no trailing commas.
  EXPECT_NE(doc.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            std::string::npos);
  EXPECT_EQ(doc.find(",]"), std::string::npos);
  EXPECT_EQ(doc.find(",}"), std::string::npos);
  EXPECT_EQ(doc.find("},{"), std::string::npos);  // one event per line

  // Monotone timestamps within each tid.
  std::map<std::uint32_t, std::int64_t> last_ts;
  for (const auto& e : events) {
    const auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second);
    }
    last_ts[e.tid] = e.ts;
  }
}

TEST(ChromeTraceWriter, EscapesNamesAndEmitsArgs) {
  telemetry::TraceBuffer buf;
  buf.record_arg("with\"quote", 0, 1, /*arg=*/7, /*tid=*/0);
  const std::string path =
      ::testing::TempDir() + "/telemetry_writer_escape.json";
  ASSERT_TRUE(telemetry::ChromeTraceWriter::write(path, buf));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("with\\\"quote"), std::string::npos);
  EXPECT_NE(ss.str().find("\"args\":{\"n\":7}"), std::string::npos);
}

TEST(Span, NestedSpansAreContainedAndRecordedInnerFirst) {
  telemetry::TelemetryConfig config;
  config.mode = telemetry::TelemetryMode::kTrace;
  telemetry::Telemetry tel(config);
  {
    telemetry::Span outer(&tel, "outer");
    outer.set_arg(3);
    { telemetry::Span inner(&tel, "inner"); }
  }
  const auto& events = tel.trace().events();
  ASSERT_EQ(events.size(), 2u);  // inner destructs (and records) first
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_TRUE(events[1].has_arg);
  EXPECT_EQ(events[1].arg, 3u);
}

TEST(Span, CountersModeRecordsNoSpans) {
  telemetry::TelemetryConfig config;
  config.mode = telemetry::TelemetryMode::kCounters;
  telemetry::Telemetry tel(config);
  { telemetry::Span span(&tel, "phase"); }
  { telemetry::Span span(nullptr, "off-entirely"); }
  EXPECT_EQ(tel.trace().size(), 0u);
}

// ---- degradation port ------------------------------------------------------

TEST(Degradation, ColumnSchemaIsByteStable) {
  // These names are the abl_fault_sweep.csv golden schema — append-only.
  const std::vector<std::string> expected{
      "encounters_hit",  "dropped_requests", "dropped_replies",
      "delayed",         "late_drops",       "crashes",
      "unreachable",     "corrupted",        "rejected",
      "one_sided",       "vp_timeouts",      "vp_retries",
      "vp_retry_successes", "mod_reoffers",  "pss_drops",
      "partitioned",     "ge_bad_encounters"};
  sim::FaultStats stats;
  const auto cols = metrics::degradation_columns(stats);
  ASSERT_EQ(cols.size(), expected.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(cols[i].first, expected[i]) << "column " << i;
  }
}

TEST(Degradation, RegistryPortMirrorsValues) {
  sim::FaultStats stats;
  stats.vote.dropped_requests = 3;
  stats.vox.timeouts = 2;
  stats.vox.retries = 5;
  stats.moderation.reoffers = 4;
  stats.newscast.dropped_requests = 6;

  telemetry::Registry reg(1);
  const auto ids = metrics::register_degradation(reg);
  ASSERT_EQ(ids.size(), metrics::kDegradationColumnNames.size());
  metrics::update_degradation(reg, ids, stats);

  const auto values = metrics::degradation_values(stats);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string name =
        std::string("fault.") + metrics::kDegradationColumnNames[i];
    EXPECT_EQ(reg.total_by_name(name), values[i]) << name;
  }
  EXPECT_EQ(reg.total_by_name("fault.vp_retries"), 5u);
  EXPECT_EQ(reg.total_by_name("fault.pss_drops"), 6u);
}

// ---- whole-runner guarantees -----------------------------------------------

trace::Trace small_trace(std::uint64_t seed = 5) {
  trace::GeneratorParams params;
  params.n_peers = 20;
  params.n_swarms = 3;
  params.duration = kDay;
  params.founder_fraction = 0.7;
  params.arrival_window = 0.3;
  return trace::generate_trace(params, seed);
}

sim::FaultConfig lossy_faults() {
  sim::FaultConfig f;
  f.loss = 0.2;
  f.delay_rate = 0.1;
  f.max_delay = 40;
  f.crash_rate = 0.05;
  f.corrupt_rate = 0.1;
  return f;
}

bool stats_equal(const core::RunStats& a, const core::RunStats& b) {
  return a.downloads_completed == b.downloads_completed &&
         a.vote_exchanges == b.vote_exchanges &&
         a.moderation_exchanges == b.moderation_exchanges &&
         a.barter_exchanges == b.barter_exchanges &&
         a.votes_accepted == b.votes_accepted &&
         a.votes_rejected_inexperienced == b.votes_rejected_inexperienced &&
         a.vp_requests_answered == b.vp_requests_answered &&
         a.vp_requests_null == b.vp_requests_null;
}

TEST(TelemetryRunner, CountersNeverPerturbTheRun) {
  const trace::Trace tr = small_trace();
  core::ScenarioConfig off_config;
  core::ScenarioConfig on_config;
  on_config.telemetry.mode = telemetry::TelemetryMode::kTrace;
  core::ScenarioRunner off(tr, off_config, 42);
  core::ScenarioRunner on(tr, on_config, 42);
  off.run_until(tr.duration);
  on.run_until(tr.duration);
  EXPECT_TRUE(stats_equal(off.stats(), on.stats()));
  EXPECT_EQ(off.telemetry(), nullptr);
  ASSERT_NE(on.telemetry(), nullptr);
  EXPECT_GT(on.telemetry()->registry().total_by_name("vote.exchanges"), 0u);
  EXPECT_GT(on.telemetry()->trace().size(), 0u);
}

/// Registry columns of a lossy run at a given shard count, with the
/// kernel.* schedule counters (shard-DEPENDENT by design: they describe
/// the parallel schedule itself, see DESIGN.md §11) filtered out.
std::vector<std::pair<std::string, std::uint64_t>> lossy_run_columns(
    std::size_t shards) {
  const trace::Trace tr = small_trace();
  core::ScenarioConfig config;
  config.shards = shards;
  config.faults = lossy_faults();
  config.telemetry.mode = telemetry::TelemetryMode::kCounters;
  core::ScenarioRunner runner(tr, config, 42);
  runner.run_until(tr.duration);
  auto cols = runner.telemetry()->registry().columns();
  std::erase_if(cols, [](const auto& c) {
    return c.first.rfind("kernel.", 0) == 0;
  });
  return cols;
}

TEST(TelemetryRunner, TotalsAreBitIdenticalAtAnyShardCount) {
  const auto one = lossy_run_columns(1);
  const auto four = lossy_run_columns(4);
  const auto eight = lossy_run_columns(8);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  // The lossy config actually exercised the fault columns.
  std::uint64_t fault_total = 0;
  for (const auto& [name, value] : one) {
    if (name.rfind("fault.", 0) == 0) fault_total += value;
  }
  EXPECT_GT(fault_total, 0u);
}

TEST(TelemetryRunner, RoundCsvCarriesRegistryAndFaultColumns) {
  const trace::Trace tr = small_trace();
  core::ScenarioConfig config;
  config.faults = lossy_faults();
  config.telemetry.mode = telemetry::TelemetryMode::kCounters;
  core::ScenarioRunner runner(tr, config, 7);
  runner.run_until(tr.duration);
  ASSERT_NE(runner.telemetry(), nullptr);
  EXPECT_GT(runner.telemetry()->round_samples(), 0u);

  const std::string path = ::testing::TempDir() + "/telemetry_rounds.csv";
  ASSERT_TRUE(runner.telemetry()->write_round_csv(path));
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("t_hours,round,", 0), 0u);
  EXPECT_NE(header.find("vote.exchanges"), std::string::npos);
  EXPECT_NE(header.find("fault.encounters_hit"), std::string::npos);
  EXPECT_NE(header.find("vote.list_size.inf"), std::string::npos);
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, runner.telemetry()->round_samples());
}

TEST(TelemetryRunner, RunnerTraceExportIsWellFormed) {
  const trace::Trace tr = small_trace();
  core::ScenarioConfig config;
  config.telemetry.mode = telemetry::TelemetryMode::kTrace;
  core::ScenarioRunner runner(tr, config, 11);
  runner.run_until(6 * kHour);
  const std::string path = ::testing::TempDir() + "/telemetry_runner.json";
  ASSERT_TRUE(runner.telemetry()->write_chrome_trace(path));

  std::string doc;
  const auto events = parse_trace_file(path, &doc);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(doc.find(",]"), std::string::npos);
  std::map<std::uint32_t, std::int64_t> last_ts;
  bool saw_round = false;
  for (const auto& e : events) {
    const auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second);
    }
    last_ts[e.tid] = e.ts;
    if (e.name == "kernel.round") saw_round = true;
  }
  EXPECT_TRUE(saw_round);
}

TEST(TelemetryRunner, ShardedKernelRecordsOneLaneSpanPerLanePerRound) {
  const trace::Trace tr = small_trace();
  core::ScenarioConfig config;
  config.shards = 4;
  config.telemetry.mode = telemetry::TelemetryMode::kTrace;
  core::ScenarioRunner runner(tr, config, 11);
  runner.run_until(6 * kHour);

  // Rounds with no encounters dispatch no lanes.
  std::vector<const telemetry::SpanEvent*> rounds;
  std::map<std::uint32_t, std::vector<const telemetry::SpanEvent*>> lanes;
  for (const auto& e : runner.telemetry()->trace().events()) {
    const std::string name = e.name;
    if (name == "kernel.round" && e.arg > 0) rounds.push_back(&e);
    if (name == "kernel.lane") lanes[e.tid].push_back(&e);
  }
  ASSERT_FALSE(rounds.empty());
  ASSERT_EQ(lanes.size(), 4u);
  for (std::uint32_t tid = 1; tid <= 4; ++tid) {
    const auto& spans = lanes[tid];
    ASSERT_EQ(spans.size(), rounds.size()) << "lane tid " << tid;
    for (std::size_t r = 0; r < spans.size(); ++r) {
      // The lane ran inside its round and waited at most its whole span.
      EXPECT_GE(spans[r]->ts_us, rounds[r]->ts_us);
      EXPECT_LE(spans[r]->ts_us + spans[r]->dur_us,
                rounds[r]->ts_us + rounds[r]->dur_us);
      EXPECT_TRUE(spans[r]->has_arg);
      EXPECT_LE(static_cast<std::int64_t>(spans[r]->arg), spans[r]->dur_us);
    }
  }
}

}  // namespace
}  // namespace tribvote
