// tribvote_perf — the end-to-end benchmark program (perf/README.md).
//
//   tribvote_perf --workload W [--seed S] [--seconds T] [--trace 0|1]
//                 [--smoke] [--inject KIND]
//   tribvote_perf --list
//
// One invocation runs one workload (net_loopback adds one server process)
// and prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set, measured with tracing off; with --trace 1 they are the
// per-layer set, folded from the runner's spans and from this program's
// clocks around public library calls. The lines before it are for people: the
// per-layer detail table of a traced run, `digest 0x...` (the output
// digest perf/run.py compares with perf/digests.json) and failed checks.
//
// A run repeats its workload's unit of work (one scenario, one batch of
// gossip rounds, one batch of socket encounters) while another unit still
// fits in --seconds, and always at least twice: repeated units must
// produce the same output digest.
//
// --inject KIND forces one check to fail (perf/run.py --self-test):
//   repeat       flip a bit of the second unit's output digest
//   recorded     flip a bit of the reported output digest
//   shape        make the workload's paper-shape threshold unreachable
//   equivalence  flip a bit of the in-process replay digest (net_loopback)
//   encounter    the server exits mid-run (net_loopback)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "adversary/config.hpp"
#include "core/runner.hpp"
#include "crypto/schnorr.hpp"
#include "metrics/ordering.hpp"
#include "net/engine.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/node_service.hpp"
#include "pss/online_directory.hpp"
#include "pss/oracle.hpp"
#include "sim/fault_plane.hpp"
#include "sim/shard_kernel.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vote/agent.hpp"
#include "vote/encounter.hpp"

namespace {

using namespace tribvote;
using Clock = std::chrono::steady_clock;

// ---- metric catalogue -------------------------------------------------------
//
// Every workload reports every metric of the set its mode asks for, so the
// names are generic and each workload defines its own unit of work and op
// (perf/README.md). BENCHMARK.json lists the same names; perf/run.py
// refuses a build whose names differ from it.

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr std::array<const char*, 4> kWorkloads{"sim_fig6", "sim_attack",
                                                "vote_plane", "net_loopback"};

constexpr std::array<MetricDef, 7> kEndToEnd{{
    {"setup_s", "s", "lower"},
    {"run_s", "s", "lower"},
    {"encounters_per_s", "1/s", "higher"},
    {"op_p50_us", "us", "lower"},
    {"op_p95_us", "us", "lower"},
    {"cpu_us_per_encounter", "us", "lower"},
    {"peak_rss_mb", "MB", "lower"},
}};

// The *.time_frac shares sum to 1 on every workload, and a layer the
// workload never runs reports 0. The one per-layer time in microseconds is
// the layer every workload runs: the vote encounter.
constexpr std::array<MetricDef, 20> kPerLayer{{
    {"bt.time_frac", "fraction", "lower"},
    {"bartercast.time_frac", "fraction", "lower"},
    {"moderation.time_frac", "fraction", "lower"},
    {"vote.time_frac", "fraction", "lower"},
    {"pss.time_frac", "fraction", "lower"},
    {"sim.time_frac", "fraction", "lower"},
    {"net.time_frac", "fraction", "lower"},
    {"metrics.time_frac", "fraction", "lower"},
    {"unattributed.time_frac", "fraction", "lower"},
    {"vote.us_per_encounter", "us", "lower"},
    {"vote.signatures_per_encounter", "count", "lower"},
    {"vote.delta_leg_frac", "fraction", "higher"},
    {"vote.cache_hit_frac", "fraction", "higher"},
    {"vote.bytes_per_encounter", "B", "lower"},
    {"sim.kernel_idle_frac", "fraction", "lower"},
    {"sim.kernel_levels_per_round", "count", "lower"},
    {"sim.kernel_mailed_frac", "fraction", "lower"},
    {"sim.kernel_speedup", "x", "higher"},
    {"net.frames_per_encounter", "count", "lower"},
    {"trace_overhead_frac", "fraction", "lower"},
}};

// ---- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string inject;
};

[[nodiscard]] bool injecting(const Options& opt, const char* kind) {
  return opt.inject == kind;
}

// ---- measurement helpers ----------------------------------------------------

[[nodiscard]] double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double cpu_seconds(const rusage& ru) {
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

[[nodiscard]] double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return cpu_seconds(ru);
}

[[nodiscard]] double peak_rss_mb(const rusage& ru) {
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[nodiscard]] double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return peak_rss_mb(ru);
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]); sorts `v` in place.
[[nodiscard]] double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] double as_double(std::uint64_t v) {
  return static_cast<double>(v);
}

/// Checks of one run: every failure is printed and counted.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("check failed: %s\n", what.c_str());
    }
    return ok;
  }
};

/// One row of a traced run's detail table. The `summed` rows partition the
/// measured window; the rest are nested spans or per-operation costs.
struct Detail {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool summed = false;
};

struct Report {
  Checks checks;
  std::map<std::string, double> metrics;
  std::vector<Detail> details;
  std::uint64_t digest = 0;
  double window = 0.0;  ///< what the summed detail rows add up to
  std::string window_unit = "s";
};

/// Set-up takes milliseconds on every workload, so a run samples it more
/// often than it runs units: the extra samples build and tear down only.
constexpr std::size_t kSetupSamples = 25;

/// Run `unit` at least twice, then again while one more unit of the last
/// one's length still fits in `seconds`. A unit returns false to stop.
void repeat_units(double seconds, const std::function<bool()>& unit) {
  const auto start = Clock::now();
  int done = 0;
  double last = 0.0;
  while (done < 2 || since(start) + last <= seconds) {
    const auto t0 = Clock::now();
    if (!unit()) return;
    last = since(t0);
    ++done;
  }
}

/// The first unit fixes the run's output digest; every later unit must
/// reproduce it.
void expect_repeat(Report& rep, int unit, std::uint64_t digest,
                   const Options& opt) {
  if (unit == 1 && injecting(opt, "repeat")) digest ^= 1;
  if (unit == 0) {
    rep.digest = digest;
    return;
  }
  rep.checks.expect(digest == rep.digest,
                    "unit " + std::to_string(unit) +
                        " output digest differs from unit 0");
}

/// One line per unit, for people reading a run's log.
void print_unit(int unit, double setup_s, double run_s) {
  std::printf("unit %d: setup_s %.6f run_s %.6f\n", unit, setup_s, run_s);
}

[[nodiscard]] std::uint64_t fold_double(std::uint64_t h, double v) {
  return util::hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

// ---- simulator workloads: sim_fig6, sim_attack ------------------------------
//
// The trace and the simulator's own seed are constants of the workload: run
// time swings by about 30 % with the trace seed and by about 10 % with the
// runner seed, more than any regression the bounds must catch. --seed
// draws the scenario script: who votes how (Fig. 6), which early arrivals
// form the experienced core (Fig. 8).

constexpr std::uint64_t kTraceSeed = 1;
constexpr std::uint64_t kSimSeed = 0xF16;
constexpr Duration kStep = kMinute;  ///< one Δ, the op of the sim workloads

[[nodiscard]] Duration sim_duration(const Options& opt) {
  return opt.smoke ? 12 * kHour : 3 * kDay;
}

struct SimScenario {
  std::unique_ptr<core::ScenarioRunner> runner;
  std::vector<double> series;          ///< ordering (fig6) or pollution
  std::vector<double> core_pollution;  ///< attack only
  double generate_s = 0.0;
  double construct_s = 0.0;
  double setup_s = 0.0;
};

[[nodiscard]] std::unique_ptr<SimScenario> build_sim(const Options& opt,
                                                     bool attack,
                                                     bool traced) {
  auto sc = std::make_unique<SimScenario>();
  const auto t0 = Clock::now();
  trace::GeneratorParams params;
  params.duration = sim_duration(opt);
  const trace::Trace tr = trace::generate_trace(params, kTraceSeed);
  sc->generate_s = since(t0);

  const auto t1 = Clock::now();
  core::ScenarioConfig config;  // paper defaults: oracle PSS, one shard
  if (traced) config.telemetry.mode = telemetry::TelemetryMode::kTrace;
  if (attack) {
    std::string err;
    if (!adversary::parse_adversary_spec("colluder:n=60,duty=0.5",
                                         config.adversary, &err) ||
        !sim::parse_fault_spec("loss=0.1", config.faults, &err)) {
      std::fprintf(stderr, "tribvote_perf: bad spec: %s\n", err.c_str());
      std::exit(2);
    }
  }
  sc->runner = std::make_unique<core::ScenarioRunner>(tr, config, kSimSeed);
  sc->construct_s = since(t1);

  core::ScenarioRunner& runner = *sc->runner;
  SimScenario* s = sc.get();
  const std::size_t n = tr.peers.size();
  util::Rng pick(opt.seed);
  if (!attack) {
    // Fig. 6: the first three arrivals moderate; a seeded 20 % of the
    // population votes +M1 or -M3 once the moderation reaches it.
    const auto firsts = trace::earliest_arrivals(tr, 3);
    const std::vector<ModeratorId> expected(firsts.begin(), firsts.end());
    const auto is_moderator = [expected](PeerId p) {
      return std::find(expected.begin(), expected.end(), p) != expected.end();
    };
    for (const ModeratorId m : expected) {
      runner.publish_moderation(m, 10 * kMinute, "release");
    }
    const auto chosen = pick.sample_indices(n, n / 5);
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const auto voter = static_cast<PeerId>(chosen[i]);
      if (is_moderator(voter)) continue;
      if (i % 2 == 0) {
        runner.script_vote_on_receipt(voter, expected[0], Opinion::kPositive);
      } else {
        runner.script_vote_on_receipt(voter, expected[2], Opinion::kNegative);
      }
    }
    runner.sample_every(2 * kHour, [s, expected, is_moderator, n](Time) {
      telemetry::Span span(s->runner->telemetry(), "metrics.sample");
      std::vector<vote::RankedList> rankings;
      for (PeerId p = 0; p < n; ++p) {
        if (!is_moderator(p)) rankings.push_back(s->runner->ranking_of(p));
      }
      s->series.push_back(metrics::correct_ordering_fraction(
          rankings, std::span<const ModeratorId>(expected)));
    });
  } else {
    // Fig. 8 in roster form: a seeded 30 of the 36 earliest arrivals form
    // the experienced core, pre-converged on M1 as in
    // bench/attack_scenario.hpp, against a churning 60-identity colluder
    // crowd under 10 % message loss.
    const auto early = trace::earliest_arrivals(tr, 36);
    auto idx = pick.sample_indices(early.size(), 30);
    std::sort(idx.begin(), idx.end());
    std::vector<PeerId> core;
    for (const std::size_t i : idx) core.push_back(early[i]);
    const ModeratorId m1 = core.front();
    runner.publish_moderation(m1, kMinute, "genuine popular release");
    for (const PeerId a : core) {
      if (a != m1) runner.cast_vote_now(a, m1, Opinion::kPositive);
      for (const PeerId b : core) {
        if (a == b) continue;
        runner.preseed_transfer(a, b, 25.0);
        runner.preload_ballot(a, b, m1, Opinion::kPositive);
      }
    }
    const ModeratorId m0 = runner.adversary_layout().spam_moderator();
    runner.sample_every(kHour, [s, core, m0, n](Time t) {
      telemetry::Span span(s->runner->telemetry(), "metrics.sample");
      std::vector<vote::RankedList> fresh, seasoned;
      for (PeerId p = 0; p < n; ++p) {
        if (std::find(core.begin(), core.end(), p) != core.end()) {
          seasoned.push_back(s->runner->ranking_of(p));
        } else if (s->runner->has_arrived(p, t)) {
          fresh.push_back(s->runner->ranking_of(p));
        }
      }
      s->series.push_back(metrics::pollution_fraction(fresh, m0));
      s->core_pollution.push_back(metrics::pollution_fraction(seasoned, m0));
    });
  }
  sc->setup_s = since(t0);
  return sc;
}

/// Digest of a finished scenario: its sampled series, every agent's vote
/// state and the run counters.
[[nodiscard]] std::uint64_t sim_digest(const SimScenario& sc) {
  std::uint64_t h = 0;
  for (const double v : sc.series) h = fold_double(h, v);
  for (const double v : sc.core_pollution) h = fold_double(h, v);
  const core::ScenarioRunner& r = *sc.runner;
  for (PeerId p = 0; p < r.population_size(); ++p) {
    h = util::hash_combine(h, r.node(p).vote().state_digest());
  }
  const core::RunStats& st = r.stats();
  return util::hash_combine(
      h, util::digest_fields({st.vote_exchanges, st.votes_accepted,
                              st.votes_rejected_inexperienced,
                              st.moderation_exchanges, st.barter_exchanges,
                              st.downloads_completed}));
}

struct SimRun {
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t exchanges = 0;
};

/// Advance the scenario to its end one Δ at a time, timing every step.
SimRun run_sim(SimScenario& sc, std::vector<double>& step_us,
               const Options& opt) {
  core::ScenarioRunner& runner = *sc.runner;
  const Duration end = sim_duration(opt);
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  for (Time t = kStep; t <= end; t += kStep) {
    const auto s0 = Clock::now();
    runner.run_until(t);
    step_us.push_back(since(s0) * 1e6);
  }
  SimRun out;
  out.run_s = since(t0);
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.exchanges = runner.stats().vote_exchanges;
  return out;
}

void check_sim_shape(Report& rep, const SimScenario& sc, bool attack,
                     const Options& opt) {
  const bool forced = injecting(opt, "shape");
  char buf[96];
  if (!attack) {
    // Fig. 6: correct ordering reaches 0.9 by 72 h, and half the nodes are
    // past the VoxPopuli knee by 12 h, the end of a smoke run.
    const double floor = forced ? 1.5 : (opt.smoke ? 0.5 : 0.9);
    const double last = sc.series.empty() ? 0.0 : sc.series.back();
    std::snprintf(buf, sizeof buf, "final correct ordering %.3f < %.2f", last,
                  floor);
    rep.checks.expect(last >= floor, buf);
    return;
  }
  // Fig. 8: the pre-converged core is never polluted.
  const double allowed = forced ? -1.0 : 0.0;
  double worst = 0.0;
  for (const double v : sc.core_pollution) worst = std::max(worst, v);
  std::snprintf(buf, sizeof buf, "core pollution %.3f > %.1f", worst, allowed);
  rep.checks.expect(worst <= allowed, buf);
}

/// Fold a traced scenario's spans into disjoint layer self-times. The
/// runner's round spans are top level; "pair" and "fault.flush" nest in
/// them and are moved out to their own layers.
void fold_sim_spans(Report& rep, const SimScenario& sc, double run_s,
                    double untraced_run_s) {
  const telemetry::Telemetry& tel = *sc.runner->telemetry();
  const auto& events = tel.trace().events();
  static constexpr std::array<const char*, 6> kTop{
      "bt.round",     "vote.round", "moderation.round",
      "barter.round", "pss.gossip", "metrics.sample"};
  const auto is_top = [](const char* name) {
    return std::any_of(kTop.begin(), kTop.end(), [name](const char* t) {
      return std::strcmp(t, name) == 0;
    });
  };
  std::vector<const telemetry::SpanEvent*> top;
  std::map<std::string, double> total;  // seconds per span name
  for (const telemetry::SpanEvent& e : events) {
    total[e.name] += static_cast<double>(e.dur_us) * 1e-6;
    if (is_top(e.name)) top.push_back(&e);
  }
  // Spans are recorded as they end, so a stable sort on start keeps two
  // spans that start in the same microsecond in the order they ran.
  std::stable_sort(
      top.begin(), top.end(),
      [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });
  bool disjoint = true;
  for (std::size_t i = 1; i < top.size(); ++i) {
    // Span ends are truncated to whole microseconds: allow one.
    disjoint &= top[i]->ts_us >= top[i - 1]->ts_us + top[i - 1]->dur_us - 1;
  }
  rep.checks.expect(disjoint, "top-level spans overlap");

  std::map<std::string, double> nested;  // "<parent>/<child>" -> seconds
  for (const telemetry::SpanEvent& e : events) {
    if (std::strcmp(e.name, "pair") != 0 &&
        std::strcmp(e.name, "fault.flush") != 0) {
      continue;
    }
    const auto it = std::upper_bound(
        top.begin(), top.end(), e.ts_us,
        [](std::int64_t ts, const auto* t) { return ts < t->ts_us; });
    if (it == top.begin()) continue;
    nested[std::string((*std::prev(it))->name) + "/" + e.name] +=
        static_cast<double>(e.dur_us) * 1e-6;
  }
  const auto self = [&](const std::string& name) {
    return total[name] - nested[name + "/pair"] - nested[name + "/fault.flush"];
  };
  double top_sum = 0.0;
  for (const char* name : kTop) top_sum += total[name];
  const double unattributed = run_s - top_sum;
  rep.checks.expect(unattributed >= -0.01 * run_s,
                    "top-level spans exceed the traced run by over 1 %");

  const telemetry::Registry& reg = tel.registry();
  const auto counter = [&reg](const char* name) {
    return as_double(reg.total_by_name(name));
  };
  const double exchanges = counter("vote.exchanges");
  const double legs =
      counter("gossip.full_exchanges") + counter("gossip.delta_exchanges");
  const sim::ShardKernelStats& ks = sc.runner->kernel_stats();

  auto& m = rep.metrics;
  m["bt.time_frac"] = ratio(total["bt.round"], run_s);
  m["bartercast.time_frac"] = ratio(self("barter.round"), run_s);
  m["moderation.time_frac"] = ratio(self("moderation.round"), run_s);
  m["vote.time_frac"] = ratio(self("vote.round"), run_s);
  m["pss.time_frac"] = ratio(total["pair"] + total["pss.gossip"], run_s);
  m["sim.time_frac"] = ratio(total["fault.flush"], run_s);
  m["net.time_frac"] = 0.0;
  m["metrics.time_frac"] = ratio(total["metrics.sample"], run_s);
  m["unattributed.time_frac"] = ratio(unattributed, run_s);
  m["vote.us_per_encounter"] = ratio(self("vote.round") * 1e6, exchanges);
  m["vote.signatures_per_encounter"] =
      ratio(counter("gossip.signatures"), exchanges);
  m["vote.delta_leg_frac"] = ratio(counter("gossip.delta_exchanges"), legs);
  m["vote.cache_hit_frac"] = ratio(counter("gossip.cache_hits"), legs);
  m["vote.bytes_per_encounter"] =
      ratio(counter("gossip.bytes_sent"), exchanges);
  // One shard: every round runs inline as one level, with no lanes to idle
  // and nothing to mail or to speed up.
  m["sim.kernel_idle_frac"] = 0.0;
  m["sim.kernel_levels_per_round"] =
      ratio(as_double(ks.levels), as_double(ks.rounds));
  m["sim.kernel_mailed_frac"] =
      ratio(as_double(ks.mailed), as_double(ks.local + ks.mailed));
  m["sim.kernel_speedup"] = 0.0;
  m["net.frames_per_encounter"] = 0.0;
  m["trace_overhead_frac"] = ratio(run_s, untraced_run_s) - 1.0;

  rep.window = run_s;
  rep.details = {
      {"trace.generate_s", sc.generate_s, "s", false},
      {"core.construct_s", sc.construct_s, "s", false},
      {"bt.round_s", total["bt.round"], "s", true},
      {"bartercast.round_s", total["barter.round"], "s", true},
      {"vote.round_s", total["vote.round"], "s", true},
      {"moderation.round_s", total["moderation.round"], "s", true},
      {"pss.gossip_s", total["pss.gossip"], "s", true},
      {"metrics.sample_s", total["metrics.sample"], "s", true},
      {"unattributed_s", unattributed, "s", true},
      {"core.pair_s", total["pair"], "s", false},
      {"sim.kernel_round_s", total["kernel.round"], "s", false},
      {"sim.fault_flush_s", total["fault.flush"], "s", false},
      {"bt.us_per_tick", ratio(total["bt.round"] * 1e6, counter("bt.ticks")),
       "us", false},
      {"bartercast.us_per_exchange",
       ratio(total["barter.round"] * 1e6, counter("barter.exchanges")), "us",
       false},
      {"vote.us_per_exchange", ratio(total["vote.round"] * 1e6, exchanges),
       "us", false},
  };
}

Report run_sim_workload(const Options& opt, bool attack) {
  Report rep;
  int unit = 0;
  const auto finish = [&](const SimScenario& sc) {
    expect_repeat(rep, unit++, sim_digest(sc), opt);
    check_sim_shape(rep, sc, attack, opt);
  };
  std::vector<double> steps;
  if (opt.trace) {
    // The same unit untraced, then with span tracing: telemetry must not
    // perturb the simulation, and the run-time ratio is its overhead.
    auto plain = build_sim(opt, attack, false);
    const SimRun base = run_sim(*plain, steps, opt);
    finish(*plain);
    plain.reset();
    auto traced = build_sim(opt, attack, true);
    const SimRun run = run_sim(*traced, steps, opt);
    finish(*traced);
    fold_sim_spans(rep, *traced, run.run_s, base.run_s);
    return rep;
  }

  std::vector<double> setup, run, rate, cpu;
  double rss_mb = 0.0;
  repeat_units(opt.seconds, [&] {
    auto sc = build_sim(opt, attack, false);
    setup.push_back(sc->setup_s);
    const SimRun r = run_sim(*sc, steps, opt);
    // Read after the first unit: later units only grow this program's own
    // sample buffers, by as much as the time box lets them run.
    if (unit == 0) rss_mb = process_peak_rss_mb();
    run.push_back(r.run_s);
    rate.push_back(ratio(as_double(r.exchanges), r.run_s));
    cpu.push_back(ratio(r.cpu_s * 1e6, as_double(r.exchanges)));
    print_unit(unit, sc->setup_s, r.run_s);
    finish(*sc);
    return true;
  });
  while (setup.size() < kSetupSamples) {
    setup.push_back(build_sim(opt, attack, false)->setup_s);
  }
  rep.metrics = {
      {"setup_s", median(setup)},
      {"run_s", median(run)},
      {"encounters_per_s", median(rate)},
      {"op_p50_us", percentile(steps, 0.50)},
      {"op_p95_us", percentile(steps, 0.95)},
      {"cpu_us_per_encounter", median(cpu)},
      {"peak_rss_mb", rss_mb},
  };
  return rep;
}

// ---- vote_plane -------------------------------------------------------------
//
// The vote layer alone at ten times the paper's population: each round every
// agent casts two votes on moderators 1-24, the oracle PSS pairs every
// agent, and the shard kernel runs vote::vote_encounter over four lanes.
// Ballot boxes sit at B_max after the first rounds, so merges evict.

constexpr std::size_t kAgents = 1000;
constexpr std::size_t kVoteShards = 4;
constexpr std::uint32_t kVoteModerators = 24;

[[nodiscard]] std::size_t vote_rounds(const Options& opt) {
  return opt.smoke ? 10 : 100;
}

/// Per-lane accounting, written only by the lane that owns it.
struct alignas(64) LaneAcc {
  std::vector<double> encounter_us;
  double busy_s = 0.0;
  std::uint64_t encounters = 0;
  std::uint64_t delta_legs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t signatures = 0;
  std::uint64_t bytes = 0;
};

struct VotePlane {
  std::vector<crypto::KeyPair> keys;  ///< agents hold references into it
  std::vector<std::unique_ptr<vote::VoteAgent>> agents;
  pss::OnlineDirectory online{kAgents};
  std::unique_ptr<pss::OraclePss> pss;
  util::Rng cast_rng;
  util::Rng order_rng;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<sim::ShardKernel> kernel;
  std::vector<LaneAcc> lanes;
  double setup_s = 0.0;
};

[[nodiscard]] std::unique_ptr<VotePlane> build_vote_plane(std::uint64_t seed,
                                                          std::size_t shards) {
  const auto t0 = Clock::now();
  auto vp = std::make_unique<VotePlane>();
  const util::Rng root(seed);
  vp->keys.reserve(kAgents);
  for (std::size_t i = 0; i < kAgents; ++i) {
    util::Rng krng = root.derive(i);
    vp->keys.push_back(crypto::generate_keypair(krng));
  }
  for (std::size_t i = 0; i < kAgents; ++i) {
    const auto id = static_cast<PeerId>(i);
    vp->agents.push_back(std::make_unique<vote::VoteAgent>(
        id, vp->keys[i], vote::VoteConfig{}, [](PeerId) { return true; },
        root.derive(kAgents + i)));
    vp->online.set_online(id, true);
  }
  vp->pss =
      std::make_unique<pss::OraclePss>(vp->online, root.derive(0x707373));
  vp->cast_rng = root.derive(0x63617374);
  vp->order_rng = root.derive(0x6f726472);
  if (shards > 1) vp->pool = std::make_unique<util::ThreadPool>(shards);
  vp->kernel =
      std::make_unique<sim::ShardKernel>(kAgents, shards, vp->pool.get());
  vp->lanes.resize(shards);
  vp->setup_s = since(t0);
  return vp;
}

/// Clocks around the public calls of one batch of rounds.
struct VoteTimes {
  double wall_s = 0.0;
  double cast_s = 0.0;
  double pair_s = 0.0;
  double kernel_s = 0.0;
  double cpu_s = 0.0;
};

VoteTimes run_vote_rounds(VotePlane& vp, std::size_t rounds) {
  VoteTimes out;
  std::vector<sim::Encounter> encounters;
  std::vector<PeerId> order(kAgents);
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const Time now = static_cast<Time>(r + 1) * kMinute;
    auto t0 = Clock::now();
    for (auto& agent : vp.agents) {
      for (Time k = 0; k < 2; ++k) {
        const auto m = static_cast<ModeratorId>(
            1 + vp.cast_rng.next_below(kVoteModerators));
        agent->cast_vote(m,
                         vp.cast_rng.next_bool(0.5) ? Opinion::kPositive
                                                    : Opinion::kNegative,
                         now - kMinute + k + 1);
      }
    }
    out.cast_s += since(t0);

    t0 = Clock::now();
    for (std::size_t i = 0; i < kAgents; ++i) order[i] = static_cast<PeerId>(i);
    vp.order_rng.shuffle(order);
    encounters.clear();
    for (const PeerId i : order) {
      const PeerId j = vp.pss->sample(i);
      if (j == kInvalidPeer) continue;
      encounters.push_back(
          {static_cast<std::uint32_t>(encounters.size()), i, j});
    }
    out.pair_s += since(t0);

    t0 = Clock::now();
    vp.kernel->run_round(
        encounters, [&vp, now](const sim::Encounter& e, std::size_t lane) {
          LaneAcc& acc = vp.lanes[lane];
          const auto c0 = Clock::now();
          const vote::VoteEncounterOutcome o = vote::vote_encounter(
              *vp.agents[e.initiator], *vp.agents[e.responder], now);
          const double dt = since(c0);
          acc.encounter_us.push_back(dt * 1e6);
          acc.busy_s += dt;
          ++acc.encounters;
          for (const vote::GossipLegOutcome* leg : {&o.forward, &o.reverse}) {
            acc.delta_legs += leg->delta ? 1 : 0;
            acc.cache_hits += leg->cache_hit ? 1 : 0;
            acc.signatures += leg->signatures;
            acc.bytes += leg->bytes;
          }
        });
    out.kernel_s += since(t0);
  }
  out.wall_s = since(start);
  out.cpu_s = process_cpu_seconds() - cpu0;
  return out;
}

[[nodiscard]] std::uint64_t vote_plane_digest(const VotePlane& vp) {
  std::uint64_t h = 0;
  for (const auto& a : vp.agents) h = util::hash_combine(h, a->state_digest());
  return h;
}

void check_vote_plane_shape(Report& rep, const VotePlane& vp,
                            const Options& opt) {
  const std::size_t bound =
      injecting(opt, "shape") ? 0 : vote::VoteConfig{}.b_max;
  std::size_t worst = 0;
  for (const auto& a : vp.agents) {
    worst = std::max(worst, a->ballot_box().size());
  }
  rep.checks.expect(worst <= bound, "a ballot box holds " +
                                        std::to_string(worst) +
                                        " entries, over " +
                                        std::to_string(bound));
}

Report run_vote_plane(const Options& opt) {
  Report rep;
  const std::size_t rounds = vote_rounds(opt);
  int unit = 0;
  if (opt.trace) {
    auto vp = build_vote_plane(opt.seed, kVoteShards);
    const VoteTimes t = run_vote_rounds(*vp, rounds);
    expect_repeat(rep, unit++, vote_plane_digest(*vp), opt);
    check_vote_plane_shape(rep, *vp, opt);

    // Shard scaling: the same schedule on one lane and on four. The
    // kernel's contract is that both leave identical state.
    const std::size_t short_rounds = rounds / 2;
    std::array<double, 2> wall{};
    std::array<std::uint64_t, 2> digest{};
    for (std::size_t i = 0; i < 2; ++i) {
      auto sp = build_vote_plane(opt.seed, i == 0 ? 1 : kVoteShards);
      wall[i] = run_vote_rounds(*sp, short_rounds).wall_s;
      digest[i] = vote_plane_digest(*sp);
    }
    rep.checks.expect(digest[0] == digest[1],
                      "state digest differs between 1 and 4 shards");

    LaneAcc sum;
    for (const LaneAcc& l : vp->lanes) {
      sum.busy_s += l.busy_s;
      sum.encounters += l.encounters;
      sum.delta_legs += l.delta_legs;
      sum.cache_hits += l.cache_hits;
      sum.signatures += l.signatures;
      sum.bytes += l.bytes;
    }
    const double enc = as_double(sum.encounters);
    const double lanes = as_double(kVoteShards);
    // Wall time the lanes spent inside vote_encounter; the rest of the
    // kernel round is level assignment, barriers and idle lanes.
    const double busy_wall = sum.busy_s / lanes;
    const double unattributed = t.wall_s - t.cast_s - t.pair_s - t.kernel_s;
    rep.checks.expect(unattributed >= -0.01 * t.wall_s,
                      "vote_plane phases exceed the traced unit by over 1 %");
    const sim::ShardKernelStats& ks = vp->kernel->stats();
    double fill = 0.0;
    for (const auto& a : vp->agents) {
      fill += as_double(a->ballot_box().size());
    }
    fill /= as_double(kAgents * vote::VoteConfig{}.b_max);

    rep.metrics = {
        {"bt.time_frac", 0.0},
        {"bartercast.time_frac", 0.0},
        {"moderation.time_frac", 0.0},
        {"vote.time_frac", ratio(t.cast_s + busy_wall, t.wall_s)},
        {"pss.time_frac", ratio(t.pair_s, t.wall_s)},
        {"sim.time_frac", ratio(t.kernel_s - busy_wall, t.wall_s)},
        {"net.time_frac", 0.0},
        {"metrics.time_frac", 0.0},
        {"unattributed.time_frac", ratio(unattributed, t.wall_s)},
        {"vote.us_per_encounter", ratio(sum.busy_s * 1e6, enc)},
        {"vote.signatures_per_encounter",
         ratio(as_double(sum.signatures), enc)},
        {"vote.delta_leg_frac", ratio(as_double(sum.delta_legs), 2 * enc)},
        {"vote.cache_hit_frac", ratio(as_double(sum.cache_hits), 2 * enc)},
        {"vote.bytes_per_encounter", ratio(as_double(sum.bytes), enc)},
        {"sim.kernel_idle_frac", 1.0 - ratio(sum.busy_s, lanes * t.kernel_s)},
        {"sim.kernel_levels_per_round",
         ratio(as_double(ks.levels), as_double(ks.rounds))},
        {"sim.kernel_mailed_frac",
         ratio(as_double(ks.mailed), as_double(ks.local + ks.mailed))},
        {"sim.kernel_speedup", ratio(wall[0], wall[1])},
        {"net.frames_per_encounter", 0.0},
        // Untraced runs carry the same clocks: they time every encounter
        // for the latency percentiles.
        {"trace_overhead_frac", 0.0},
    };
    rep.window = t.wall_s;
    rep.details = {
        {"vote.cast_s", t.cast_s, "s", true},
        {"pss.sample_s", t.pair_s, "s", true},
        {"sim.kernel_round_s", t.kernel_s, "s", true},
        {"unattributed_s", unattributed, "s", true},
        {"sim.kernel_1shard_s", wall[0], "s", false},
        {"sim.kernel_4shard_s", wall[1], "s", false},
        {"vote.ballot_fill", fill, "fraction", false},
    };
    return rep;
  }

  std::vector<double> setup, run, rate, cpu, latency;
  double rss_mb = 0.0;
  repeat_units(opt.seconds, [&] {
    auto vp = build_vote_plane(opt.seed, kVoteShards);
    setup.push_back(vp->setup_s);
    const VoteTimes t = run_vote_rounds(*vp, rounds);
    if (unit == 0) rss_mb = process_peak_rss_mb();  // as on the sims
    std::uint64_t encounters = 0;
    for (const LaneAcc& l : vp->lanes) {
      encounters += l.encounters;
      latency.insert(latency.end(), l.encounter_us.begin(),
                     l.encounter_us.end());
    }
    run.push_back(t.wall_s);
    rate.push_back(ratio(as_double(encounters), t.wall_s));
    cpu.push_back(ratio(t.cpu_s * 1e6, as_double(encounters)));
    print_unit(unit, vp->setup_s, t.wall_s);
    expect_repeat(rep, unit++, vote_plane_digest(*vp), opt);
    check_vote_plane_shape(rep, *vp, opt);
    return true;
  });
  while (setup.size() < kSetupSamples) {
    setup.push_back(build_vote_plane(opt.seed, kVoteShards)->setup_s);
  }
  rep.metrics = {
      {"setup_s", median(setup)},
      {"run_s", median(run)},
      {"encounters_per_s", median(rate)},
      {"op_p50_us", percentile(latency, 0.50)},
      {"op_p95_us", percentile(latency, 0.95)},
      {"cpu_us_per_encounter", median(cpu)},
      {"peak_rss_mb", rss_mb},
  };
  return rep;
}

// ---- net_loopback -----------------------------------------------------------
//
// A closed-loop client on one loopback TCP connection to one NodeService in
// a server process. Before each encounter the client casts two votes. The
// server casts its list once and never again, so its legs close digest-only
// from the vote-history cache: the read-heavy steady state of a long-lived
// peer.

constexpr PeerId kClientId = 1;
constexpr PeerId kServerId = 2;
constexpr Time kRoundPeriod = 1000;
constexpr int kStepMs = 10000;  ///< handshake and per-encounter deadline

[[nodiscard]] std::size_t net_warmup(const Options& opt) {
  return opt.smoke ? 200 : 2000;
}
[[nodiscard]] std::size_t net_timed(const Options& opt) {
  return opt.smoke ? 2000 : 20000;
}
[[nodiscard]] Time round_time(std::size_t r) {
  return static_cast<Time>(r + 1) * kRoundPeriod;
}

struct Endpoint {
  crypto::KeyPair keys;
  std::unique_ptr<vote::VoteAgent> agent;
};

[[nodiscard]] std::unique_ptr<Endpoint> make_endpoint(PeerId id,
                                                      std::uint64_t seed) {
  auto e = std::make_unique<Endpoint>();  // the agent keeps &e->keys
  const util::Rng root = util::Rng(seed).derive(id);
  util::Rng krng = root.derive(1);
  e->keys = crypto::generate_keypair(krng);
  e->agent = std::make_unique<vote::VoteAgent>(
      id, e->keys, vote::VoteConfig{}, [](PeerId) { return true; },
      root.derive(2));
  return e;
}

/// The server's one-time vote list: one vote on each of moderators 1-24.
void server_casts(vote::VoteAgent& agent, std::uint64_t seed) {
  util::Rng rng = util::Rng(seed).derive(0x73657276);
  for (ModeratorId m = 1; m <= kVoteModerators; ++m) {
    agent.cast_vote(
        m, rng.next_bool(0.5) ? Opinion::kPositive : Opinion::kNegative, 0);
  }
}

/// The client's two casts before encounter r, a pure function of (seed, r).
void client_casts(vote::VoteAgent& agent, std::uint64_t seed, std::size_t r) {
  util::Rng rng = util::Rng(seed).derive(0x636c6900000000ULL + r);
  for (Time k = 0; k < 2; ++k) {
    const auto m =
        static_cast<ModeratorId>(1 + rng.next_below(kVoteModerators));
    agent.cast_vote(
        m, rng.next_bool(0.5) ? Opinion::kPositive : Opinion::kNegative,
        round_time(r) - kRoundPeriod + k + 1);
  }
}

/// Server process body (`--serve`): listen on an ephemeral loopback port,
/// announce it on `report_fd`, serve one client until its BYE, report the
/// final state and the CPU spent on the timed encounters, exit.
int serve(std::uint64_t seed, int report_fd, std::size_t warmup,
          std::size_t die_after) {
  auto self = make_endpoint(kServerId, seed);
  server_casts(*self->agent, seed);
  net::EventLoop loop;
  net::NodeService svc(loop, kServerId, self->keys, *self->agent, nullptr);
  double cpu_at_timed = -1.0;
  std::size_t begun = 0;
  svc.set_encounter_begin_hook([&](std::uint8_t, Time now) {
    if (die_after > 0 && ++begun > die_after) _exit(3);
    if (static_cast<std::size_t>(now / kRoundPeriod) == warmup + 1) {
      cpu_at_timed = process_cpu_seconds();
    }
  });
  std::string err;
  if (!svc.listen(0, &err)) {
    std::fprintf(stderr, "tribvote_perf: listen failed: %s\n", err.c_str());
    return 1;
  }
  dprintf(report_fd, "port %u\n", svc.listen_port());
  bool connected = false;
  int client = -1;
  // A unit lasts seconds; give up after three minutes, or as soon as the
  // client's connection is gone without a BYE.
  const bool bye = loop.run_until(
      [&] {
        for (const int c : svc.connections()) {
          connected = true;
          if (svc.bye_received(c)) client = c;
        }
        return client >= 0 || (connected && svc.connection_count() == 0);
      },
      180000);
  if (!bye || client < 0) return 1;
  const double cpu_end = process_cpu_seconds();
  svc.send_bye(client);
  (void)loop.run_until([&] { return svc.connection_count() == 0; }, kStepMs);
  const net::ExchangeEngine::Counters ec = svc.engine_totals();
  const vote::GossipStats& gs = self->agent->gossip_stats();
  const net::NetStats& ns = svc.stats();
  dprintf(report_fd, "done %llu %llu %.9f %llu %llu %llu %llu %llu %llu\n",
          static_cast<unsigned long long>(self->agent->state_digest()),
          static_cast<unsigned long long>(ec.encounters_served),
          cpu_at_timed < 0 ? 0.0 : cpu_end - cpu_at_timed,
          static_cast<unsigned long long>(ec.open_digest),
          static_cast<unsigned long long>(ec.open_full),
          static_cast<unsigned long long>(gs.builds),
          static_cast<unsigned long long>(gs.cache_hits),
          static_cast<unsigned long long>(gs.signatures),
          static_cast<unsigned long long>(ns.checksum_rejects +
                                          ns.protocol_errors +
                                          ec.protocol_errors));
  return 0;
}

/// Read one '\n'-terminated line from `fd` within `timeout_ms`.
bool read_line(int fd, std::string& buf, std::string& line, int timeout_ms) {
  const auto start = Clock::now();
  while (true) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    const int left = timeout_ms - static_cast<int>(since(start) * 1000.0);
    pollfd p{fd, POLLIN, 0};
    if (left <= 0 || poll(&p, 1, left) <= 0) return false;
    char chunk[256];
    const ssize_t n = read(fd, chunk, sizeof chunk);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// The server process. It is a fresh exec of this binary, so its peak RSS
/// is its own; the destructor kills and reaps one that is still running.
class ServerProcess {
 public:
  ServerProcess(const Options& opt, std::size_t die_after) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return;
    read_fd_ = fds[0];
    const std::string fd = std::to_string(fds[1]);
    const std::string seed = std::to_string(opt.seed);
    const std::string warmup = std::to_string(net_warmup(opt));
    const std::string die = std::to_string(die_after);
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the client
      fcntl(fds[1], F_SETFD, 0);
      execl("/proc/self/exe", "tribvote_perf", "--serve", "--seed",
            seed.c_str(), "--report-fd", fd.c_str(), "--warmup",
            warmup.c_str(), "--die-after", die.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
  }
  ~ServerProcess() {
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      (void)reap();
    }
    if (read_fd_ >= 0) close(read_fd_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] bool started() const { return pid_ > 0; }
  bool line(std::string& out) {
    return read_line(read_fd_, buf_, out, kStepMs);
  }
  /// Wait for the exit; true when the server exited with status 0.
  bool reap() {
    int status = 0;
    reaped_ = wait4(pid_, &status, 0, &usage_) == pid_;
    return reaped_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  [[nodiscard]] const rusage& usage() const { return usage_; }

 private:
  pid_t pid_ = -1;
  int read_fd_ = -1;
  bool reaped_ = false;
  std::string buf_;
  rusage usage_{};
};

struct NetUnit {
  bool ok = false;
  double setup_s = 0.0;
  double handshake_s = 0.0;
  double window_s = 0.0;      ///< wall time of the timed encounters
  double client_cpu_s = 0.0;  ///< over the timed encounters
  double server_cpu_s = 0.0;  ///< over the timed encounters
  double server_rss_mb = 0.0;
  std::uint64_t bytes = 0;   ///< client in + out over the timed encounters
  std::uint64_t frames = 0;  ///< client in + out over the timed encounters
  std::uint64_t client_digest = 0;
  std::uint64_t server_digest = 0;
  std::uint64_t legs_digest = 0;  ///< legs opened with a digest, both sides
  std::uint64_t legs = 0;
  std::uint64_t builds = 0;  ///< outgoing vote lists built, both sides
  std::uint64_t cache_hits = 0;
  std::uint64_t signatures = 0;
};

/// One socket unit: start the server, handshake, warm up, time the
/// encounters, exchange BYEs, collect both sides' state. With `timed`
/// false it runs only the set-up and the BYE, for another set-up sample.
NetUnit run_net_unit(const Options& opt, Checks& checks,
                     std::vector<double>* latency, bool timed) {
  NetUnit u;
  const auto t0 = Clock::now();
  auto self = make_endpoint(kClientId, opt.seed);
  const std::size_t warmup = net_warmup(opt);
  const std::size_t total = timed ? warmup + net_timed(opt) : 0;
  ServerProcess server(
      opt, timed && injecting(opt, "encounter") ? warmup / 2 : 0);
  std::string line;
  unsigned port = 0;
  if (!checks.expect(server.started() && server.line(line) &&
                         std::sscanf(line.c_str(), "port %u", &port) == 1,
                     "server did not start")) {
    return u;
  }
  net::EventLoop loop;
  net::NodeService svc(loop, kClientId, self->keys, *self->agent, nullptr);
  const auto h0 = Clock::now();
  const int c = svc.connect("127.0.0.1", static_cast<std::uint16_t>(port));
  if (!checks.expect(
          c >= 0 && loop.run_until([&] { return svc.ready(c); }, kStepMs),
          "HELLO handshake did not complete")) {
    return u;
  }
  u.handshake_s = since(h0);
  u.setup_s = since(t0);

  net::NetStats at_window{};
  double cpu_at_window = 0.0;
  Clock::time_point window_start;
  for (std::size_t r = 0; r < total; ++r) {
    if (r == warmup) {
      at_window = svc.stats();
      cpu_at_window = process_cpu_seconds();
      window_start = Clock::now();
    }
    client_casts(*self->agent, opt.seed, r);
    const auto e0 = Clock::now();
    const std::uint64_t want = r + 1;
    const bool ok =
        svc.initiate_vote_encounter(c, round_time(r)) &&
        loop.run_until(
            [&] {
              return !svc.open(c) ||
                     (svc.initiator_idle(c) &&
                      svc.engine_counters(c)->encounters_completed == want);
            },
            kStepMs) &&
        svc.open(c);
    if (r >= warmup && latency != nullptr) {
      latency->push_back(since(e0) * 1e6);
    }
    if (!checks.expect(ok, "encounter " + std::to_string(r) +
                               " failed or timed out")) {
      return u;
    }
  }
  if (timed) {
    u.window_s = since(window_start);
    u.client_cpu_s = process_cpu_seconds() - cpu_at_window;
    const net::NetStats& s = svc.stats();
    u.bytes = s.bytes_in + s.bytes_out - at_window.bytes_in -
              at_window.bytes_out;
    u.frames = s.frames_in + s.frames_out - at_window.frames_in -
               at_window.frames_out;
  }

  svc.send_bye(c);
  const bool bye =
      loop.run_until([&] { return svc.bye_received(c); }, kStepMs);
  const net::ExchangeEngine::Counters ec = svc.engine_totals();
  const net::NetStats& cs = svc.stats();
  const std::uint64_t client_errors =
      cs.checksum_rejects + cs.protocol_errors + ec.protocol_errors;
  svc.close(c);

  unsigned long long digest = 0, served = 0, open_digest = 0, open_full = 0,
                     builds = 0, hits = 0, sigs = 0, errors = 0;
  double server_cpu = 0.0;
  const bool reported =
      server.line(line) &&
      std::sscanf(line.c_str(),
                  "done %llu %llu %lf %llu %llu %llu %llu %llu %llu", &digest,
                  &served, &server_cpu, &open_digest, &open_full, &builds,
                  &hits, &sigs, &errors) == 9;
  const bool exited = server.reap();
  checks.expect(bye && reported && exited, "server did not finish cleanly");
  checks.expect(client_errors == 0 && errors == 0,
                "checksum or protocol errors on the connection");
  checks.expect(served == total, "server served " + std::to_string(served) +
                                     " of " + std::to_string(total) +
                                     " encounters");
  const vote::GossipStats& gs = self->agent->gossip_stats();
  u.server_cpu_s = server_cpu;
  u.server_rss_mb = peak_rss_mb(server.usage());
  u.client_digest = self->agent->state_digest();
  u.server_digest = digest;
  u.legs_digest = ec.open_digest + open_digest;
  u.legs = ec.open_digest + ec.open_full + open_digest + open_full;
  u.builds = gs.builds + builds;
  u.cache_hits = gs.cache_hits + hits;
  u.signatures = gs.signatures + sigs;
  u.ok = bye && reported && exited && client_errors == 0 && errors == 0 &&
         served == total;
  return u;
}

/// The sim == TCP contract: the same schedule through vote::vote_encounter
/// in this process must leave both agents in the state the sockets did.
void check_equivalence(Report& rep, const Options& opt, const NetUnit& u) {
  auto client = make_endpoint(kClientId, opt.seed);
  auto server = make_endpoint(kServerId, opt.seed);
  server_casts(*server->agent, opt.seed);
  const std::size_t total = net_warmup(opt) + net_timed(opt);
  for (std::size_t r = 0; r < total; ++r) {
    client_casts(*client->agent, opt.seed, r);
    (void)vote::vote_encounter(*client->agent, *server->agent, round_time(r));
  }
  std::uint64_t server_digest = server->agent->state_digest();
  if (injecting(opt, "equivalence")) server_digest ^= 1;
  rep.checks.expect(client->agent->state_digest() == u.client_digest &&
                        server_digest == u.server_digest,
                    "TCP end states differ from the vote_encounter replay");
}

/// Per-side costs of the wire protocol without the sockets: the schedule
/// replayed through two ExchangeEngines, every frame encoded and re-read
/// through a FrameReader as a connection would carry it.
struct FramedReplay {
  bool ok = true;
  double total_s = 0.0;
  double casts_s = 0.0;
  double init_engine_s = 0.0;
  double resp_engine_s = 0.0;
  double init_frame_s = 0.0;
  double resp_frame_s = 0.0;
  std::uint64_t client_digest = 0;
  std::uint64_t server_digest = 0;
};

FramedReplay framed_replay(const Options& opt, bool clocks) {
  FramedReplay out;
  auto client = make_endpoint(kClientId, opt.seed);
  auto server = make_endpoint(kServerId, opt.seed);
  server_casts(*server->agent, opt.seed);
  net::ExchangeEngine a(*client->agent, nullptr, 0);
  net::ExchangeEngine b(*server->agent, nullptr, 1);
  a.set_peer(kServerId);
  b.set_peer(kClientId);
  net::FrameReader into_a, into_b;
  std::vector<std::uint8_t> wire;
  std::vector<net::Frame> to_a, to_b, arrived;
  Clock::time_point t0;
  const auto tick = [&] {
    if (clocks) t0 = Clock::now();
  };
  const auto tock = [&](double& acc) {
    if (clocks) acc += since(t0);
  };
  // Encode `frames` on the sending side, decode them on the receiving one.
  const auto carry = [&](std::vector<net::Frame>& frames,
                         net::FrameReader& reader, double& send_s,
                         double& recv_s) {
    tick();
    wire.clear();
    for (const net::Frame& f : frames) net::encode_frame(f, wire);
    frames.clear();
    tock(send_s);
    tick();
    reader.feed(wire.data(), wire.size());
    arrived.clear();
    net::Frame f;
    while (reader.next(f)) arrived.push_back(std::move(f));
    tock(recv_s);
  };

  const std::size_t total = net_warmup(opt) + net_timed(opt);
  const auto start = Clock::now();
  for (std::size_t r = 0; r < total && out.ok; ++r) {
    tick();
    client_casts(*client->agent, opt.seed, r);
    tock(out.casts_s);
    tick();
    out.ok &= a.begin_vote_encounter(round_time(r), to_b);
    tock(out.init_engine_s);
    while (out.ok && (!to_b.empty() || !to_a.empty())) {
      const bool forward = !to_b.empty();
      if (forward) {
        carry(to_b, into_b, out.init_frame_s, out.resp_frame_s);
      } else {
        carry(to_a, into_a, out.resp_frame_s, out.init_frame_s);
      }
      tick();
      for (const net::Frame& f : arrived) {
        out.ok &= forward ? b.on_frame(f, to_a) : a.on_frame(f, to_b);
      }
      tock(forward ? out.resp_engine_s : out.init_engine_s);
    }
    out.ok &= a.idle() && b.responder_idle();
  }
  out.total_s = since(start);
  out.ok &= !into_a.corrupt() && !into_b.corrupt();
  out.client_digest = client->agent->state_digest();
  out.server_digest = server->agent->state_digest();
  return out;
}

Report run_net(const Options& opt) {
  Report rep;
  std::vector<double> setup, run, rate, cpu, rss, latency;
  int unit = 0;
  const auto one_unit = [&]() -> NetUnit {
    NetUnit u = run_net_unit(opt, rep.checks, &latency, true);
    if (!u.ok) return u;
    print_unit(unit, u.setup_s, u.window_s);
    if (unit == 0) check_equivalence(rep, opt, u);
    expect_repeat(rep, unit++,
                  util::hash_combine(u.client_digest, u.server_digest), opt);
    setup.push_back(u.setup_s);
    const double n = as_double(net_timed(opt));
    run.push_back(u.window_s);
    rate.push_back(ratio(n, u.window_s));
    cpu.push_back(ratio(u.server_cpu_s * 1e6, n));
    rss.push_back(u.server_rss_mb);
    return u;
  };

  if (opt.trace) {
    const NetUnit u = one_unit();
    if (!u.ok) return rep;
    const FramedReplay plain = framed_replay(opt, false);
    const FramedReplay fr = framed_replay(opt, true);
    rep.checks.expect(plain.ok && fr.ok &&
                          fr.client_digest == u.client_digest &&
                          fr.server_digest == u.server_digest,
                      "framed engine replay differs from the TCP end states");
    const double n = as_double(net_timed(opt));
    const double all = as_double(net_warmup(opt) + net_timed(opt));
    const double loop_us = ratio(u.window_s * 1e6, n);
    const double client_us = ratio(u.client_cpu_s * 1e6, n);
    const double server_us = ratio(u.server_cpu_s * 1e6, n);
    const double engine_us =
        ratio((fr.init_engine_s + fr.resp_engine_s) * 1e6, all);
    const double vote_us = engine_us + ratio(fr.casts_s * 1e6, all);
    const double resp_engine_us = ratio(fr.resp_engine_s * 1e6, all);
    const double resp_frame_us = ratio(fr.resp_frame_s * 1e6, all);
    const double wait_us = loop_us - client_us - server_us;
    // Loopback packet processing runs on the sending process's CPU, so the
    // two processes' CPU can add up to more than the wall time: the idle
    // share is then 0 and the network layer takes the rest.
    const double idle_us = std::max(0.0, wait_us);
    const double mean_us =
        latency.empty() ? 0.0
                        : std::accumulate(latency.begin(), latency.end(), 0.0) /
                              as_double(latency.size());
    rep.metrics = {
        {"bt.time_frac", 0.0},
        {"bartercast.time_frac", 0.0},
        {"moderation.time_frac", 0.0},
        {"vote.time_frac", ratio(vote_us, loop_us)},
        {"pss.time_frac", 0.0},
        {"sim.time_frac", 0.0},
        {"net.time_frac", ratio(loop_us - vote_us - idle_us, loop_us)},
        {"metrics.time_frac", 0.0},
        {"unattributed.time_frac", ratio(idle_us, loop_us)},
        {"vote.us_per_encounter", engine_us},
        {"vote.signatures_per_encounter", ratio(as_double(u.signatures), all)},
        {"vote.delta_leg_frac",
         ratio(as_double(u.legs_digest), as_double(u.legs))},
        {"vote.cache_hit_frac",
         ratio(as_double(u.cache_hits), as_double(u.builds))},
        {"vote.bytes_per_encounter", ratio(as_double(u.bytes), n)},
        {"sim.kernel_idle_frac", 0.0},
        {"sim.kernel_levels_per_round", 0.0},
        {"sim.kernel_mailed_frac", 0.0},
        {"sim.kernel_speedup", 0.0},
        {"net.frames_per_encounter", ratio(as_double(u.frames), n)},
        {"trace_overhead_frac", ratio(fr.total_s, plain.total_s) - 1.0},
    };
    rep.window = loop_us;
    rep.window_unit = "us";
    rep.details = {
        {"net.client_cpu_us_per_encounter", client_us, "us", true},
        {"net.server_cpu_us_per_encounter", server_us, "us", true},
        {"net.wait_us_per_encounter", wait_us, "us", true},
        {"net.engine_us_per_encounter", resp_engine_us, "us", false},
        {"net.frame_us_per_encounter", resp_frame_us, "us", false},
        {"net.io_us_per_encounter",
         server_us - resp_engine_us - resp_frame_us, "us", false},
        {"net.client_engine_us_per_encounter",
         ratio(fr.init_engine_s * 1e6, all), "us", false},
        {"net.client_frame_us_per_encounter",
         ratio(fr.init_frame_s * 1e6, all), "us", false},
        {"net.handshake_ms", u.handshake_s * 1e3, "ms", false},
        {"net.encounter_mean_us", mean_us, "us", false},
        {"net.encounter_p999_us", percentile(latency, 0.999), "us", false},
        {"net.latency_samples", as_double(latency.size()), "count", false},
    };
    return rep;
  }

  repeat_units(opt.seconds, [&] { return one_unit().ok; });
  while (rep.checks.failed == 0 && setup.size() < kSetupSamples) {
    const NetUnit u = run_net_unit(opt, rep.checks, nullptr, false);
    if (!u.ok) break;
    setup.push_back(u.setup_s);
  }
  rep.metrics = {
      {"setup_s", median(setup)},
      {"run_s", median(run)},
      {"encounters_per_s", median(rate)},
      {"op_p50_us", percentile(latency, 0.50)},
      {"op_p95_us", percentile(latency, 0.95)},
      {"cpu_us_per_encounter", median(cpu)},
      {"peak_rss_mb", median(rss)},
  };
  return rep;
}

// ---- output -----------------------------------------------------------------

template <std::size_t N>
void print_list(const char* key, const std::array<MetricDef, N>& defs,
                bool last) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < N; ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, defs[i].unit,
                defs[i].better);
  }
  std::printf("]%s", last ? "" : ", ");
}

void print_catalogue() {
  std::printf("{\"workloads\": [");
  for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", kWorkloads[i]);
  }
  std::printf("], ");
  print_list("end_to_end", kEndToEnd, false);
  print_list("per_layer", kPerLayer, true);
  std::printf("}\n");
}

void print_details(const Report& rep, const std::string& workload) {
  std::printf("per-layer detail, %s (traced):\n", workload.c_str());
  double sum = 0.0;
  for (const Detail& d : rep.details) {
    std::printf("  %-36s %14.6f %-8s%s\n", d.name.c_str(), d.value,
                d.unit.c_str(), d.summed ? "  (summed)" : "");
    if (d.summed) sum += d.value;
  }
  std::printf("  %-36s %14.6f %-8s\n", "sum of summed rows", sum,
              rep.window_unit.c_str());
  std::printf("  %-36s %14.6f %-8s\n", "measured window", rep.window,
              rep.window_unit.c_str());
}

template <std::size_t N>
int print_result(Report& rep, const std::array<MetricDef, N>& defs) {
  for (const auto& [name, value] : rep.metrics) {
    rep.checks.expect(std::isfinite(value), name + " is not finite");
  }
  if (rep.metrics.size() != N) {
    std::fprintf(stderr, "tribvote_perf: %zu metrics, catalogue has %zu\n",
                 rep.metrics.size(), N);
    return 2;
  }
  std::printf("digest 0x%016llx\n",
              static_cast<unsigned long long>(rep.digest));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.checks.attempted),
              static_cast<unsigned long long>(rep.checks.failed));
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = rep.metrics.find(defs[i].name);
    if (it == rep.metrics.end()) {
      std::fprintf(stderr, "\ntribvote_perf: metric %s not measured\n",
                   defs[i].name);
      return 2;
    }
    const double v = std::isfinite(it->second) ? it->second : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
  return rep.checks.failed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: tribvote_perf --workload W [--seed S] [--seconds T] "
               "[--trace 0|1] [--smoke] [--inject KIND]\n"
               "       tribvote_perf --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool serve_mode = false;
  int report_fd = -1;
  std::size_t warmup = 0;
  std::size_t die_after = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() -> const char* {
      ++i;
      return val;
    };
    if (arg == "--list") {
      print_catalogue();
      return 0;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--serve") {
      serve_mode = true;
    } else if (val == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      opt.workload = take();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(take(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(take(), "0") != 0;
    } else if (arg == "--inject") {
      opt.inject = take();
    } else if (arg == "--report-fd") {
      report_fd = std::atoi(take());
    } else if (arg == "--warmup") {
      warmup = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--die-after") {
      die_after = std::strtoull(take(), nullptr, 10);
    } else {
      return usage();
    }
  }
  if (serve_mode) return serve(opt.seed, report_fd, warmup, die_after);

  Report rep;
  if (opt.workload == "sim_fig6") {
    rep = run_sim_workload(opt, false);
  } else if (opt.workload == "sim_attack") {
    rep = run_sim_workload(opt, true);
  } else if (opt.workload == "vote_plane") {
    rep = run_vote_plane(opt);
  } else if (opt.workload == "net_loopback") {
    rep = run_net(opt);
  } else {
    return usage();
  }
  if (injecting(opt, "recorded")) rep.digest ^= 1;
  if (opt.trace) {
    print_details(rep, opt.workload);
    return print_result(rep, kPerLayer);
  }
  return print_result(rep, kEndToEnd);
}
