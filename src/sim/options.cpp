#include "sim/options.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

namespace tribvote::sim::options {

namespace {

/// Decimal digits only: strtoull would wrap "-1" to 2^64-1 and skip
/// leading blanks.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

}  // namespace

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (*end == '\0' && errno == 0 && parsed > 0) {
    return static_cast<std::size_t>(parsed);
  }
  std::fprintf(stderr,
               "warning: %s=%s is not a positive integer; using %zu\n", name,
               v, fallback);
  return fallback;
}

std::uint64_t seed() {
  constexpr std::uint64_t kDefault = 20090525ULL;
  const char* v = std::getenv("TRIBVOTE_SEED");
  if (v == nullptr || *v == '\0') return kDefault;
  std::uint64_t parsed = 0;
  if (parse_u64(v, parsed)) return parsed;
  std::fprintf(stderr,
               "warning: TRIBVOTE_SEED=%s is not an unsigned integer; "
               "using %llu\n",
               v, static_cast<unsigned long long>(kDefault));
  return kDefault;
}

std::size_t replicas() { return env_size("TRIBVOTE_REPLICAS", 10); }

std::size_t ablation_replicas() {
  // Ablations compare configurations against each other, where 4 replicas
  // already separate the curves.
  return env_size("TRIBVOTE_ABL_REPLICAS",
                  std::min<std::size_t>(4, replicas()));
}

std::size_t shards() { return env_size("TRIBVOTE_SHARDS", 1); }

namespace {

/// The spec in environment variable `name`, parsed over a default Config;
/// a malformed spec falls back to Config{} with a warning naming `fallback`.
template <class Config, class Parse>
Config env_spec(const char* name, const char* noun, const char* fallback,
                Parse parse) {
  Config config;
  const char* v = std::getenv(name);
  std::string error;
  if (v != nullptr && !parse(v, config, &error)) {
    std::fprintf(stderr, "warning: %s=%s is not %s (%s); %s\n", name, v,
                 noun, error.c_str(), fallback);
    return Config{};
  }
  return config;
}

}  // namespace

FaultConfig faults() {
  return env_spec<FaultConfig>("TRIBVOTE_FAULTS", "a fault spec",
                               "running fault-free", parse_fault_spec);
}

telemetry::TelemetryConfig telemetry() {
  return env_spec<telemetry::TelemetryConfig>(
      "TRIBVOTE_TELEMETRY", "a telemetry spec", "telemetry off",
      telemetry::parse_telemetry_spec);
}

std::string net_impair_spec() {
  const char* v = std::getenv("TRIBVOTE_NET_IMPAIR");
  return v != nullptr ? v : "";
}

void banner(const char* name,
            const std::vector<std::pair<std::string, std::string>>& kv) {
  std::fprintf(stderr, "%s:", name);
  for (const auto& [k, v] : kv) {
    std::fprintf(stderr, " %s=%s", k.c_str(), v.c_str());
  }
  std::fprintf(stderr, "\n");
}

CliFlags::CliFlags(int argc, char** argv) {
  args_.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
}

bool CliFlags::next() {
  if (error_ || pos_ >= args_.size()) return false;
  flag_ = args_[pos_++];
  have_flag_ = true;
  return true;
}

void CliFlags::fail() {
  error_ = true;
  have_flag_ = false;
}

bool CliFlags::is_switch(const char* name) {
  if (!have_flag_ || flag_ != name) return false;
  have_flag_ = false;
  return true;
}

bool CliFlags::take(const char* name, std::string& raw) {
  if (!have_flag_ || flag_ != name) return false;
  if (pos_ >= args_.size()) {
    fail();
    return false;
  }
  raw = args_[pos_++];
  have_flag_ = false;
  return true;
}

bool CliFlags::value(const char* name, std::string& out) {
  return take(name, out);
}

bool CliFlags::u64(const char* name, std::uint64_t& out) {
  std::string raw;
  if (!take(name, raw)) return false;
  if (!parse_u64(raw, out)) fail();
  return !error_;
}

bool CliFlags::u32(const char* name, std::uint32_t& out) {
  std::uint64_t v = 0;
  std::string raw;
  if (!take(name, raw)) return false;
  if (!parse_u64(raw, v) || v > 0xffffffffULL) {
    fail();
  } else {
    out = static_cast<std::uint32_t>(v);
  }
  return !error_;
}

bool CliFlags::u16(const char* name, std::uint16_t& out) {
  std::uint64_t v = 0;
  std::string raw;
  if (!take(name, raw)) return false;
  if (!parse_u64(raw, v) || v > 0xffffULL) {
    fail();
  } else {
    out = static_cast<std::uint16_t>(v);
  }
  return !error_;
}

bool CliFlags::i32(const char* name, int& out) {
  std::string raw;
  if (!take(name, raw)) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw.c_str(), &end, 10);
  if (raw.empty() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    fail();
  } else {
    out = static_cast<int>(v);
  }
  return !error_;
}

bool CliFlags::f64(const char* name, double& out) {
  std::string raw;
  if (!take(name, raw)) return false;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end == nullptr || *end != '\0' || !std::isfinite(v)) {
    fail();
  } else {
    out = v;
  }
  return !error_;
}

bool CliFlags::size(const char* name, std::size_t& out) {
  std::uint64_t v = 0;
  std::string raw;
  if (!take(name, raw)) return false;
  if (!parse_u64(raw, v)) {
    fail();
  } else {
    out = static_cast<std::size_t>(v);
  }
  return !error_;
}

bool CliFlags::host_port(const char* name, std::string& host,
                         std::uint16_t& port) {
  std::string raw;
  if (!take(name, raw)) return false;
  const std::size_t colon = raw.rfind(':');
  std::uint64_t p = 0;
  if (colon == std::string::npos || colon == 0 ||
      !parse_u64(raw.substr(colon + 1), p) || p == 0 || p > 65535) {
    fail();
    return !error_;
  }
  host = raw.substr(0, colon);
  port = static_cast<std::uint16_t>(p);
  return true;
}

adversary::AdversaryConfig adversary() {
  return env_spec<adversary::AdversaryConfig>(
      "TRIBVOTE_ADVERSARY", "an adversary spec", "running adversary-free",
      adversary::parse_adversary_spec);
}

bt::StreamingConfig streaming() {
  return env_spec<bt::StreamingConfig>(
      "TRIBVOTE_STREAMING", "a streaming spec",
      "running the download workload", bt::parse_streaming_spec);
}

bool gossip_cache() {
  const char* v = std::getenv("TRIBVOTE_GOSSIP_CACHE");
  if (v == nullptr) return true;
  const std::string_view s(v);
  if (s == "on" || s == "1" || s == "true") return true;
  if (s == "off" || s == "0" || s == "false") return false;
  std::fprintf(stderr,
               "warning: TRIBVOTE_GOSSIP_CACHE=%s is not on|off; "
               "cache stays on\n",
               v);
  return true;
}

}  // namespace tribvote::sim::options
