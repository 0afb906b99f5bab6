// Shared scaffolding for the experiment harness binaries.
//
// Every bench regenerates one of the paper's figures (or an ablation):
// it prints a human-readable table reproducing the figure's series to
// stdout and writes the same data as CSV next to the working directory.
//
// Environment knobs are shared across all harness binaries and documented
// once in src/sim/options.hpp (TRIBVOTE_REPLICAS, TRIBVOTE_ABL_REPLICAS,
// TRIBVOTE_SEED, TRIBVOTE_SHARDS); the inline wrappers
// below keep the bench::-local names the figure binaries use.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/timeseries.hpp"
#include "sim/options.hpp"
#include "trace/generator.hpp"
#include "util/csv.hpp"
#include "util/time.hpp"

namespace tribvote::bench {

inline std::uint64_t env_seed() { return sim::options::seed(); }

inline std::size_t replica_count() { return sim::options::replicas(); }

inline std::size_t ablation_replica_count() {
  return sim::options::ablation_replicas();
}

/// Worker shards for each replica's population event kernel
/// (ScenarioConfig::shards). Golden CSVs are byte-identical for any value.
inline std::size_t shard_count() { return sim::options::shards(); }

/// Network fault plane (ScenarioConfig::faults, via TRIBVOTE_FAULTS).
/// Goldens are recorded with faults off; a faulty run is still
/// shard-count invariant but produces its own (deterministic) numbers.
inline sim::FaultConfig fault_config() { return sim::options::faults(); }

/// Telemetry plane (ScenarioConfig::telemetry, via TRIBVOTE_TELEMETRY).
/// Goldens are recorded with telemetry off AND are byte-identical with it
/// on — counters never perturb the simulation. Replicas run in parallel,
/// each owning a private registry; the benches never export trace files.
inline telemetry::TelemetryConfig telemetry_config() {
  return sim::options::telemetry();
}

/// Vote-history cache + delta gossip (VoteConfig::gossip_cache, via
/// TRIBVOTE_GOSSIP_CACHE). Semantically transparent: goldens are
/// byte-identical on (the default) and off.
inline bool gossip_cache() { return sim::options::gossip_cache(); }

/// The standard dataset: `n` synthetic 7-day/100-peer traces calibrated to
/// the filelist.org statistics (DESIGN.md §2).
inline std::vector<trace::Trace> paper_dataset(std::size_t n) {
  return trace::generate_dataset(trace::GeneratorParams{}, env_seed(), n);
}

/// Print a banner naming the experiment and its paper anchor.
inline void banner(const char* experiment, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf(
      "replicas=%zu seed=%llu shards=%zu faults=%s telemetry=%s "
      "gossip_cache=%s\n",
      replica_count(), static_cast<unsigned long long>(env_seed()),
      shard_count(),
      sim::describe(fault_config()).c_str(),
      telemetry::describe(telemetry_config()).c_str(),
      gossip_cache() ? "on" : "off");
  std::printf("================================================================\n");
}

/// Print one aggregate series as "t(h)  mean  ±ci" rows under a label.
/// `stride` subsamples the grid for readability (CSV keeps every point).
inline void print_series(const char* label,
                         const metrics::AggregateSeries& agg,
                         std::size_t stride = 1) {
  std::printf("\n-- %s --\n", label);
  std::printf("%8s  %10s  %10s  %10s  %10s\n", "t_hours", "mean", "stderr",
              "min", "max");
  for (std::size_t i = 0; i < agg.times.size(); i += stride) {
    std::printf("%8.1f  %10.4f  %10.4f  %10.4f  %10.4f\n",
                to_hours(agg.times[i]), agg.mean[i], agg.stderr_mean[i],
                agg.min[i], agg.max[i]);
  }
}

/// Write one or more named aggregate series sharing a time grid to CSV.
inline void write_csv(const std::string& filename,
                      const std::vector<std::pair<
                          std::string, metrics::AggregateSeries>>& series) {
  util::CsvWriter csv(filename);
  if (!csv.ok()) {
    std::fprintf(stderr, "warning: cannot write %s\n", filename.c_str());
    return;
  }
  std::vector<std::string> header{"t_hours"};
  for (const auto& [name, agg] : series) {
    header.push_back(name + "_mean");
    header.push_back(name + "_stderr");
  }
  csv.write_row(header);
  if (series.empty()) return;
  const auto& grid = series.front().second.times;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    csv.field(util::format_double(to_hours(grid[i]), 3));
    for (const auto& [name, agg] : series) {
      if (i < agg.mean.size()) {
        csv.field(agg.mean[i]).field(agg.stderr_mean[i]);
      } else {
        csv.field("").field("");
      }
    }
    csv.end_row();
  }
  std::printf("\ncsv written: %s\n", filename.c_str());
}

}  // namespace tribvote::bench
