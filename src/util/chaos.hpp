// The chaos model both fault planes share (DESIGN.md §10 "Shared chaos
// model"). sim::FaultConfig (one verdict per encounter) and
// net::ImpairConfig (one per 512 B chunk) inherit it, so the GE chain, the
// `ge=L` solver, the partition schedule, the shared spec keys and the
// describe() prefix exist once and A11 and A12 sweep one loss axis.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/spec.hpp"

namespace tribvote::util {

struct ChaosModel {
  /// Per-unit probabilities (unit = encounter leg or chunk). `loss` is
  /// ignored while the GE chain is on.
  double loss = 0.0;
  double delay_rate = 0.0;
  double corrupt_rate = 0.0;

  /// Gilbert–Elliott bursty loss, on when ge_good_to_bad > 0.
  double ge_good_to_bad = 0.0;  ///< P(good -> bad) per unit
  double ge_bad_to_good = 0.25; ///< P(bad -> good) per unit
  double ge_loss_good = 0.0;    ///< loss in the good state
  double ge_loss_bad = 0.8;     ///< loss in the bad state

  /// Every partition_period rounds a window of partition_width rounds
  /// opens, in which each node is dark with probability partition_frac.
  /// 0 period = no partitions.
  std::uint64_t partition_period = 0;
  std::uint64_t partition_width = 1;
  double partition_frac = 0.0;

  [[nodiscard]] bool ge_on() const noexcept { return ge_good_to_bad > 0.0; }
  [[nodiscard]] bool partitions_on() const noexcept {
    return partition_period > 0 && partition_frac > 0.0;
  }
  /// Whether a shared knob injects faults (planes OR in their own).
  [[nodiscard]] bool enabled() const noexcept {
    return loss > 0.0 || delay_rate > 0.0 || corrupt_rate > 0.0 || ge_on() ||
           partitions_on();
  }

  /// `ge=L`: bad state loses 0.8, good state L/10, recovery 0.25, and the
  /// good->bad rate is solved so the stationary loss is L (0 <= L < 0.8;
  /// L = 0 turns the chain off).
  void tune_ge(double target) noexcept;

  /// Advance a GE chain in state `bad` by one unit and return the unit's
  /// loss probability. Its one Bernoulli trial comes before any other draw
  /// of the unit; both planes' verdict streams rely on that order. Call
  /// only while ge_on().
  [[nodiscard]] double ge_step(bool& bad, Rng& r) const noexcept {
    if (bad) {
      if (r.next_bool(ge_bad_to_good)) bad = false;
    } else if (r.next_bool(ge_good_to_bad)) {
      bad = true;
    }
    return bad ? ge_loss_bad : ge_loss_good;
  }

  /// Whether `node` is dark in `round`: a pure function of (root, window,
  /// node), so every holder of the same root agrees. The first window
  /// opens one full period in, so bootstrap rounds are never dark.
  [[nodiscard]] bool partitioned(const Rng& root, std::uint64_t round,
                                 std::uint64_t node) const;
};

/// The keys every chaos plane accepts, bound to `model`.
[[nodiscard]] std::vector<SpecKey> chaos_keys(ChaosModel& model);

/// Parse a chaos spec: the shared keys plus the plane's `extra(parsed)`
/// keys. "off" resets `out` to Plane{}; any other spec layers over out's
/// current values. On failure `out` is untouched.
template <class Plane, class ExtraKeys>
[[nodiscard]] bool parse_chaos_spec(std::string_view spec, const char* what,
                                    Plane& out, std::string* error,
                                    ExtraKeys&& extra) {
  Plane parsed = spec == "off" ? Plane{} : out;
  if (spec != "off" &&
      !read_spec(spec, {chaos_keys(parsed), extra(parsed)}, what, error)) {
    return false;
  }
  out = parsed;
  return true;
}

/// The shared knobs that are on, as space-separated tokens: `ge=p/r(g,b)`
/// or `loss=L`, `delay=D`, `corrupt=C`, `part=period/width x frac`.
[[nodiscard]] std::string describe_chaos(const ChaosModel& model);

/// Append one printf-formatted token to `out`, space-separated.
void append_token(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace tribvote::util
