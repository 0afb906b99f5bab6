#include "util/chaos.hpp"

#include <cstdarg>
#include <cstdio>

#include "util/hash.hpp"

namespace tribvote::util {

constexpr double kGeBadLoss = 0.8;

void ChaosModel::tune_ge(double target) noexcept {
  // L = pi * 0.8 + (1 - pi) * L/10  =>  pi = 0.9 L / (0.8 - 0.1 L), and the
  // stationary balance p (1 - pi) = r pi gives the entry rate p.
  ge_loss_bad = kGeBadLoss;
  ge_loss_good = target / 10.0;
  ge_bad_to_good = 0.25;
  const double pi = 0.9 * target / (kGeBadLoss - 0.1 * target);
  ge_good_to_bad = ge_bad_to_good * pi / (1.0 - pi);
}

bool ChaosModel::partitioned(const Rng& root, std::uint64_t round,
                             std::uint64_t node) const {
  if (!partitions_on() || round < partition_period ||
      round % partition_period >= partition_width) {
    return false;
  }
  constexpr std::uint64_t kPartitionStream = 0x70617274;  // "part"
  const std::uint64_t window = round / partition_period;
  Rng r = root.derive(digest_fields({kPartitionStream, window, node}));
  return r.next_bool(partition_frac);
}

std::vector<SpecKey> chaos_keys(ChaosModel& m) {
  const auto ge = [&m](SpecField& f) {
    double target = 0.0;
    if (!f.real(target, 0.0, kGeBadLoss, false, true)) return false;
    m.tune_ge(target);
    return true;
  };
  return {rate_key("loss", m.loss),
          rate_key("delay", m.delay_rate),
          rate_key("corrupt", m.corrupt_rate),
          {"ge", ge},
          rate_key("ge_p", m.ge_good_to_bad),
          rate_key("ge_r", m.ge_bad_to_good),
          rate_key("ge_loss_good", m.ge_loss_good),
          rate_key("ge_loss_bad", m.ge_loss_bad),
          integer_key("part_period", m.partition_period),
          integer_key("part_width", m.partition_width, 1),
          rate_key("part_frac", m.partition_frac)};
}

void append_token(std::string& out, const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (!out.empty()) out += ' ';
  out += buf;
}

std::string describe_chaos(const ChaosModel& m) {
  std::string out;
  if (m.ge_on()) {
    append_token(out, "ge=%g/%g(%g,%g)", m.ge_good_to_bad, m.ge_bad_to_good,
                 m.ge_loss_good, m.ge_loss_bad);
  } else if (m.loss > 0.0) {
    append_token(out, "loss=%g", m.loss);
  }
  if (m.delay_rate > 0.0) append_token(out, "delay=%g", m.delay_rate);
  if (m.corrupt_rate > 0.0) append_token(out, "corrupt=%g", m.corrupt_rate);
  if (m.partitions_on()) {
    append_token(out, "part=%llu/%llux%g",
                 static_cast<unsigned long long>(m.partition_period),
                 static_cast<unsigned long long>(m.partition_width),
                 m.partition_frac);
  }
  return out;
}

}  // namespace tribvote::util
