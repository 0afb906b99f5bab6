// Shared TRIBVOTE_* environment-variable options.
//
// Every harness binary (the fig/abl benches via bench/bench_common.hpp and
// examples/scenario_cli.cpp) honours the same environment knobs; this is
// the one place they are named, parsed and defaulted, so a new knob is
// added once and shows up everywhere.
//
//   TRIBVOTE_REPLICAS      trace replicas per experiment (default 10, the
//                          paper's count; set lower for a quick pass)
//   TRIBVOTE_ABL_REPLICAS  replicas for ablations (default min(4, replicas))
//   TRIBVOTE_SEED          base seed for the trace dataset (default
//                          20090525, the IPPS 2009 conference date); a
//                          value that is not unsigned decimal digits falls
//                          back to it with a warning
//   TRIBVOTE_SHARDS        worker shards per ScenarioRunner (default 1);
//                          results are bit-identical for any value
//   TRIBVOTE_FAULTS        network fault spec, e.g.
//                          "loss=0.3,delay=0.1,max_delay=120,crash=0.01,
//                          corrupt=0.05,retries=4,retry_base=15"
//                          (default: no faults — the goldens' setting)
//   TRIBVOTE_TELEMETRY     telemetry spec: "off" (default — the goldens'
//                          setting), "counters", or "trace", optionally
//                          with ",trace_out=FILE" / ",csv=FILE"
//   TRIBVOTE_GOSSIP_CACHE  vote-history cache + delta gossip: "on"
//                          (default) or "off". Semantically transparent —
//                          goldens are byte-identical either way; the knob
//                          exists for A/B perf runs and identity smokes
//   TRIBVOTE_ADVERSARY     adversary-plane roster spec, e.g.
//                          "attrition:n=20,rate=4;sybil:n=16,region=4"
//                          (default: empty — no plane, the goldens'
//                          setting)
//   TRIBVOTE_STREAMING     streaming-swarm workload: "off" (default),
//                          "on", or "window=8,startup=4,kbps=512"
//   TRIBVOTE_NET_IMPAIR    transport chaos spec (DESIGN.md §16), e.g.
//                          "loss=0.1,delay=0.2,max_delay_ms=40,
//                          corrupt=0.01,truncate=0.01,stall=0.005,ge=0.3,
//                          part_period=64,part_width=8,part_frac=0.25"
//                          (default: off — the goldens' setting). Parsed
//                          by net::parse_impair_spec in the binaries; sim
//                          carries it as an opaque string
//
// This header also hosts the shared `--flag value` CLI scanner that
// scenario_cli and the net binaries (tribvote_node, tribvote_load,
// tribvote_cluster) parse with — one strict parser instead of four
// hand-rolled strtol loops, same spirit as the env block above. Flags here are plain integers/strings; nothing
// in sim depends on net::.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adversary/config.hpp"
#include "bt/streaming.hpp"
#include "sim/fault_plane.hpp"
#include "telemetry/config.hpp"

namespace tribvote::sim::options {

/// TRIBVOTE_<name> as a positive size, or `fallback` when unset or empty.
/// Anything else that is not a whole positive decimal ("4x", "abc", "0")
/// falls back with a warning on stderr.
[[nodiscard]] std::size_t env_size(const char* name, std::size_t fallback);

[[nodiscard]] std::uint64_t seed();
[[nodiscard]] std::size_t replicas();
[[nodiscard]] std::size_t ablation_replicas();
[[nodiscard]] std::size_t shards();

/// TRIBVOTE_FAULTS parsed via sim::parse_fault_spec; a malformed spec
/// falls back to no faults with a warning on stderr.
[[nodiscard]] FaultConfig faults();

/// TRIBVOTE_TELEMETRY parsed via telemetry::parse_telemetry_spec; a
/// malformed spec falls back to telemetry off with a warning on stderr.
[[nodiscard]] telemetry::TelemetryConfig telemetry();

/// TRIBVOTE_GOSSIP_CACHE ("on"/"off", also accepts 1/0/true/false); an
/// unknown value falls back to on with a warning on stderr.
[[nodiscard]] bool gossip_cache();

/// TRIBVOTE_ADVERSARY parsed via adversary::parse_adversary_spec; a
/// malformed spec falls back to an empty roster with a warning on stderr.
[[nodiscard]] adversary::AdversaryConfig adversary();

/// TRIBVOTE_STREAMING parsed via bt::parse_streaming_spec; a malformed
/// spec falls back to the download workload with a warning on stderr.
[[nodiscard]] bt::StreamingConfig streaming();

/// The opaque TRIBVOTE_NET_IMPAIR chaos spec ("" when unset), handed to
/// net::parse_impair_spec by the binaries (sim never links net::).
[[nodiscard]] std::string net_impair_spec();

/// One-line "name: k=v k=v ..." banner on `stderr`, echoing the effective
/// configuration a binary runs with — every net binary prints one so a
/// cluster log records which knobs each process resolved.
void banner(const char* name,
            const std::vector<std::pair<std::string, std::string>>& kv);

/// Strict `--flag value` scanner shared by scenario_cli and the net
/// binaries. Usage:
///
///   CliFlags cli(argc, argv);
///   while (cli.next()) {
///     if (cli.is_switch("--oracle")) opt.oracle = true;
///     else if (cli.u64("--seed", opt.seed)) {}
///     else if (cli.i32("--rounds", opt.rounds)) {}
///     else return usage();
///   }
///   if (cli.error()) return usage();
///
/// Each typed matcher returns true only when the current flag matches its
/// name AND the value parses; a matching flag with a missing or malformed
/// value sets error() and stops the scan (next() turns false). Unsigned
/// matchers take decimal digits only (no sign, no blanks) and reject
/// values above their type's range; i32 rejects values outside int; f64
/// rejects NaN and infinities.
class CliFlags {
 public:
  CliFlags(int argc, char** argv);

  /// Advance to the next flag. False when exhausted or after an error.
  bool next();
  [[nodiscard]] const std::string& flag() const noexcept { return flag_; }

  /// Current flag equals `name` and takes no value.
  bool is_switch(const char* name);

  /// Current flag equals `name`; consume its raw value.
  bool value(const char* name, std::string& out);

  // Typed matchers over value().
  bool u64(const char* name, std::uint64_t& out);
  bool u32(const char* name, std::uint32_t& out);
  bool u16(const char* name, std::uint16_t& out);
  bool i32(const char* name, int& out);
  bool f64(const char* name, double& out);
  bool size(const char* name, std::size_t& out);
  /// "HOST:PORT" (port in [1, 65535]).
  bool host_port(const char* name, std::string& host, std::uint16_t& port);

  [[nodiscard]] bool error() const noexcept { return error_; }

 private:
  bool take(const char* name, std::string& raw);
  void fail();

  std::vector<std::string> args_;
  std::size_t pos_ = 0;
  std::string flag_;
  bool have_flag_ = false;
  bool error_ = false;
};

}  // namespace tribvote::sim::options
