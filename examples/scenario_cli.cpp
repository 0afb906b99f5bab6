// scenario_cli — run a vote-sampling scenario from the command line.
//
// Lets downstream users drive the simulator without writing C++: pick a
// trace (synthetic by seed, or a file in the trace schema), a scenario
// (paper defaults, flash-crowd attack, adaptive threshold, Newscast PSS),
// and get the convergence/pollution series on stdout plus a CSV.
//
// Usage:
//   scenario_cli [options]
//     --trace FILE         replay a trace file (default: synthetic)
//     --seed N             generator + scenario seed      (default 1)
//     --peers N            synthetic trace population     (default 100)
//     --days N             synthetic trace length         (default 7)
//     --threshold MB       experience threshold T         (default 5)
//     --adaptive           use the adaptive threshold (§VII)
//     --newscast           gossip PSS instead of the oracle
//     --core N             pre-converged core size        (default 20; used
//                          when the adversary fields a spam moderator)
//     --shards N           population worker shards       (default TRIBVOTE_SHARDS or 1)
//     --gossip-cache on|off  vote-history cache + delta gossip
//                            (default TRIBVOTE_GOSSIP_CACHE or on)
//     --sample HOURS       sampling period                (default 2)
//     --csv FILE           output CSV                     (default scenario_cli.csv)
//     --loss P             per-message-leg drop probability    (default TRIBVOTE_FAULTS or 0)
//     --delay-rate P       reply delay probability             (")
//     --max-delay S        delay bound in seconds              (")
//     --crash-rate P       mid-encounter responder crash prob. (")
//     --corrupt-rate P     payload truncation/corruption prob. (")
//     --impair SPEC        transport chaos spec (DESIGN.md §16), mapped
//                          onto the simulator's fault plane: Gilbert–
//                          Elliott and scheduled partitions natively (the
//                          sim plane speaks both since the adversary PR),
//                          delay->delay-rate, corrupt+truncate->corrupt-
//                          rate, stall->crash-rate. One spec string drives
//                          the A11 sim sweep and the A12 TCP sweep alike
//     --adversary SPEC     adversary-plane roster (DESIGN.md §17), e.g.
//                          "attrition:n=20,rate=4;sybil:n=16,region=4";
//                          the paper's flash crowd is "colluder:n=40,duty=0.5"
//                          (default TRIBVOTE_ADVERSARY or off)
//     --streaming SPEC     streaming-swarm workload: on|off|
//                          "window=8,startup=4,kbps=512"
//                          (default TRIBVOTE_STREAMING or off)
//     --telemetry MODE     off|counters|trace        (default TRIBVOTE_TELEMETRY or off)
//     --trace-out FILE     Chrome-trace JSON output  (default scenario_trace.json when tracing)
//     --telemetry-csv FILE per-round counter CSV     (default: not written)
//
// The TRIBVOTE_* environment knobs (src/sim/options.hpp) provide the
// defaults where noted, so scripted sweeps can steer the CLI the same way
// they steer the figure benches. Flags are scanned by the strict
// sim::options::CliFlags parser: an unknown flag, a missing value or a
// malformed one prints the usage and exits 2 before any scenario runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "metrics/ordering.hpp"
#include "net/impairment.hpp"
#include "sim/options.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/csv.hpp"

using namespace tribvote;

namespace {

struct Options {
  std::string trace_file;
  std::uint64_t seed = 1;
  std::uint32_t peers = 100;
  int days = 7;
  double threshold_mb = 5.0;
  bool adaptive = false;
  bool newscast = false;
  std::size_t core = 20;
  std::size_t shards = sim::options::shards();
  bool gossip_cache = sim::options::gossip_cache();
  Duration sample = 2 * kHour;
  std::string csv = "scenario_cli.csv";
  sim::FaultConfig faults = sim::options::faults();
  telemetry::TelemetryConfig telemetry = sim::options::telemetry();
  adversary::AdversaryConfig adversary = sim::options::adversary();
  bt::StreamingConfig streaming = sim::options::streaming();
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--trace FILE] [--seed N] [--peers N] [--days N] "
               "[--threshold MB]\n"
               "          [--adaptive] [--newscast] [--core N] "
               "[--shards N] "
               "[--gossip-cache on|off]\n"
               "          [--sample HOURS] [--csv FILE]\n"
               "          [--loss P] [--delay-rate P] [--max-delay S] "
               "[--crash-rate P] [--corrupt-rate P] [--impair SPEC]\n"
               "          [--adversary SPEC] [--streaming SPEC]\n"
               "          [--telemetry off|counters|trace] [--trace-out FILE] "
               "[--telemetry-csv FILE]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  sim::options::CliFlags cli(argc, argv);
  std::string value;
  double hours = 0;
  // Report a spec flag's parser error and exit.
  const auto bad = [&](const std::string& error) {
    std::fprintf(stderr, "bad %s: %s\n", cli.flag().c_str(), error.c_str());
    usage(argv[0]);
  };
  while (cli.next()) {
    std::string error;
    if (cli.value("--trace", opt.trace_file) ||
        cli.u64("--seed", opt.seed) || cli.u32("--peers", opt.peers) ||
        cli.i32("--days", opt.days) ||
        cli.f64("--threshold", opt.threshold_mb) ||
        cli.size("--core", opt.core) || cli.size("--shards", opt.shards) ||
        cli.value("--trace-out", opt.telemetry.trace_out) ||
        cli.value("--telemetry-csv", opt.telemetry.csv_out) ||
        cli.value("--csv", opt.csv)) {
    } else if (cli.is_switch("--adaptive")) {
      opt.adaptive = true;
    } else if (cli.is_switch("--newscast")) {
      opt.newscast = true;
    } else if (cli.f64("--sample", hours)) {
      opt.sample = static_cast<Duration>(hours * static_cast<double>(kHour));
    } else if (cli.value("--gossip-cache", value)) {
      if (value != "on" && value != "off") bad("want on|off, got " + value);
      opt.gossip_cache = value == "on";
    } else if (cli.value("--loss", value) ||
               cli.value("--delay-rate", value) ||
               cli.value("--max-delay", value) ||
               cli.value("--crash-rate", value) ||
               cli.value("--corrupt-rate", value)) {
      // Reuse the TRIBVOTE_FAULTS spec parser so the flags and the env
      // knob validate identically.
      std::string spec = cli.flag().substr(2);
      std::replace(spec.begin(), spec.end(), '-', '_');
      if (!sim::parse_fault_spec(spec + '=' + value, opt.faults, &error)) {
        bad(error);
      }
    } else if (cli.value("--impair", value)) {
      // Validate with the net:: parser, then project the chaos spec onto
      // the sim fault plane so A11-class runs accept the A12 spec string:
      // both planes share the chaos model, and the two net-only verdicts
      // map onto their nearest sim analogues.
      net::ImpairConfig impair;
      if (!net::parse_impair_spec(value, impair, &error)) bad(error);
      static_cast<util::ChaosModel&>(opt.faults) = impair;
      opt.faults.corrupt_rate =
          std::min(1.0, impair.corrupt_rate + impair.truncate_rate);
      opt.faults.crash_rate = impair.stall_rate;
    } else if (cli.value("--adversary", value)) {
      opt.adversary = adversary::AdversaryConfig{};  // flag overrides env
      if (!adversary::parse_adversary_spec(value, opt.adversary, &error)) {
        bad(error);
      }
    } else if (cli.value("--streaming", value)) {
      if (!bt::parse_streaming_spec(value, opt.streaming, &error)) bad(error);
    } else if (cli.value("--telemetry", value)) {
      // Reuse the TRIBVOTE_TELEMETRY spec parser; the flag accepts the
      // full spec grammar, so "--telemetry trace,csv=rounds.csv" works.
      if (!telemetry::parse_telemetry_spec(value, opt.telemetry, &error)) {
        bad(error);
      }
    } else {
      std::fprintf(stderr, "%s option: %s\n",
                   cli.error() ? "missing or malformed value for" : "unknown",
                   cli.flag().c_str());
      usage(argv[0]);
    }
  }
  if (opt.peers < 5 || opt.days < 1 || opt.sample <= 0 || opt.shards < 1) {
    usage(argv[0]);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // Workload.
  trace::Trace tr;
  if (!opt.trace_file.empty()) {
    try {
      tr = trace::read_trace_file(opt.trace_file);
    } catch (const trace::TraceFormatError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else {
    trace::GeneratorParams params;
    params.n_peers = opt.peers;
    params.duration = opt.days * kDay;
    tr = trace::generate_trace(params, opt.seed);
  }
  const trace::TraceStats st = trace::analyze(tr);
  std::printf("trace: %zu peers, %zu events, %.0f%% avg online\n",
              st.n_peers, st.n_events, 100 * st.avg_online_fraction);

  // Scenario.
  core::ScenarioConfig config;
  config.experience_threshold_mb = opt.threshold_mb;
  config.adaptive_threshold = opt.adaptive;
  config.pss =
      opt.newscast ? core::PssKind::kNewscast : core::PssKind::kOracle;
  config.shards = opt.shards;
  config.vote.gossip_cache = opt.gossip_cache;
  config.faults = opt.faults;
  config.telemetry = opt.telemetry;
  config.adversary = opt.adversary;
  config.streaming = opt.streaming;
  if (config.telemetry.tracing() && config.telemetry.trace_out.empty()) {
    config.telemetry.trace_out = "scenario_trace.json";
  }
  core::ScenarioRunner runner(tr, config, opt.seed ^ 0xC11);
  // Everything needed to reproduce this run from its console output alone,
  // including the effective fault and telemetry configuration.
  std::printf("run: seed=%llu scenario-seed=%llu shards=%zu "
              "gossip_cache=%s threshold=%g pss=%s%s faults=%s "
              "telemetry=%s adversary=%s streaming=%s\n",
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(opt.seed ^ 0xC11),
              runner.shard_count(),
              opt.gossip_cache ? "on" : "off", opt.threshold_mb,
              opt.newscast ? "newscast" : "oracle",
              opt.adaptive ? " adaptive" : "",
              sim::describe(opt.faults).c_str(),
              telemetry::describe(config.telemetry).c_str(),
              adversary::describe(config.adversary).c_str(),
              bt::describe(config.streaming).c_str());

  // Standard script: three moderators, 20% voters; optional attack core.
  const auto firsts = trace::earliest_arrivals(tr, 3);
  const ModeratorId m1 = firsts[0], m2 = firsts[1], m3 = firsts[2];
  runner.publish_moderation(m1, 10 * kMinute, "good release");
  runner.publish_moderation(m2, 10 * kMinute, "plain release");
  runner.publish_moderation(m3, 10 * kMinute, "bad release");
  util::Rng pick(opt.seed ^ 0x7007);
  const auto chosen =
      pick.sample_indices(tr.peers.size(), tr.peers.size() / 5);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const auto voter = static_cast<PeerId>(chosen[i]);
    if (voter == m1 || voter == m2 || voter == m3) continue;
    runner.script_vote_on_receipt(
        voter, i % 2 == 0 ? m1 : m3,
        i % 2 == 0 ? Opinion::kPositive : Opinion::kNegative);
  }
  // A vote-lying roster entry fields a spam moderator M0; against it, an
  // experienced core pre-converged on M1 and the pollution column.
  const ModeratorId m0 = runner.adversary_layout().spam_moderator();
  const bool spam_attack = m0 != kInvalidModerator;
  std::vector<PeerId> core_set;
  if (spam_attack) {
    core_set = trace::earliest_arrivals(tr, opt.core);
    for (const PeerId a : core_set) {
      if (a != m1) runner.cast_vote_now(a, m1, Opinion::kPositive);
      for (const PeerId b : core_set) {
        if (a == b) continue;
        runner.preseed_transfer(a, b, 25.0);
        runner.preload_ballot(a, b, m1, Opinion::kPositive);
      }
    }
    std::printf("attack: core=%zu vs spam moderator M0 = peer %u\n",
                core_set.size(), m0);
  }

  // Metrics.
  util::CsvWriter csv(opt.csv);
  csv.write_row({"t_hours", "correct_ordering", "pollution", "online"});
  const std::vector<ModeratorId> expected{m1, m2, m3};
  std::printf("\n%8s  %16s  %10s  %7s\n", "t(h)", "correct-ordering",
              "pollution", "online");
  runner.sample_every(opt.sample, [&](Time t) {
    std::vector<vote::RankedList> rankings, fresh;
    for (PeerId p = 0; p < tr.peers.size(); ++p) {
      if (p == m1 || p == m2 || p == m3) continue;
      rankings.push_back(runner.ranking_of(p));
      if (spam_attack && runner.has_arrived(p, t) &&
          std::find(core_set.begin(), core_set.end(), p) ==
              core_set.end()) {
        fresh.push_back(rankings.back());
      }
    }
    const double correct = metrics::correct_ordering_fraction(
        rankings, std::span<const ModeratorId>(expected));
    const double pollution =
        spam_attack ? metrics::pollution_fraction(fresh, m0) : 0.0;
    std::printf("%8.1f  %16.3f  %10.3f  %7zu\n", to_hours(t), correct,
                pollution, runner.online_count());
    csv.field(to_hours(t)).field(correct).field(pollution);
    csv.field(static_cast<long long>(runner.online_count()));
    csv.end_row();
  });

  runner.run_until(tr.duration);
  std::printf("\ncsv written: %s\n", opt.csv.c_str());

  if (runner.adversary() != nullptr) {
    const adversary::AdversaryStats as = runner.adversary_stats();
    std::printf("adversary: floods=%llu (rejected=%llu) nuisance_flips=%llu "
                "credit_transfers=%llu credit_mb=%.0f presence_flips=%llu\n",
                static_cast<unsigned long long>(as.floods_sent),
                static_cast<unsigned long long>(as.flood_rejected),
                static_cast<unsigned long long>(as.nuisance_flips),
                static_cast<unsigned long long>(as.credit_transfers),
                as.credit_mb,
                static_cast<unsigned long long>(as.presence_flips));
  }
  if (config.streaming.enabled) {
    const bt::StreamingTotals stot = runner.streaming_totals();
    const std::uint64_t played = stot.pieces_on_time + stot.deadline_misses;
    std::printf("streaming: started=%llu finished=%llu on_time=%llu "
                "misses=%llu (miss rate %.3f)\n",
                static_cast<unsigned long long>(stot.started),
                static_cast<unsigned long long>(stot.finished),
                static_cast<unsigned long long>(stot.pieces_on_time),
                static_cast<unsigned long long>(stot.deadline_misses),
                played > 0 ? static_cast<double>(stot.deadline_misses) /
                                 static_cast<double>(played)
                           : 0.0);
  }

  // Telemetry exports — the harness writes files, never the runner.
  if (telemetry::Telemetry* tel = runner.telemetry()) {
    if (tel->tracing() && !tel->config().trace_out.empty()) {
      if (tel->write_chrome_trace(tel->config().trace_out)) {
        std::printf("trace written: %s (%zu spans)\n",
                    tel->config().trace_out.c_str(), tel->trace().size());
      } else {
        std::fprintf(stderr, "error: could not write %s\n",
                     tel->config().trace_out.c_str());
        return 1;
      }
    }
    if (!tel->config().csv_out.empty()) {
      if (tel->write_round_csv(tel->config().csv_out)) {
        std::printf("telemetry csv written: %s (%zu rounds)\n",
                    tel->config().csv_out.c_str(), tel->round_samples());
      } else {
        std::fprintf(stderr, "error: could not write %s\n",
                     tel->config().csv_out.c_str());
        return 1;
      }
    }
    std::printf("telemetry: vote.exchanges=%llu mod.deliveries=%llu "
                "bt.pieces_completed=%llu\n",
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("vote.exchanges")),
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("mod.deliveries")),
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("bt.pieces_completed")));
    std::printf("gossip: bytes_sent=%llu full=%llu delta=%llu "
                "fallbacks=%llu cache_hits=%llu signatures=%llu\n",
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("gossip.bytes_sent")),
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("gossip.full_exchanges")),
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("gossip.delta_exchanges")),
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("gossip.digest_fallbacks")),
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("gossip.cache_hits")),
                static_cast<unsigned long long>(
                    tel->registry().total_by_name("gossip.signatures")));
  }
  return 0;
}
