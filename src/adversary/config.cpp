#include "adversary/config.hpp"

#include <cstdio>
#include <limits>
#include <string_view>

#include "util/spec.hpp"

namespace tribvote::adversary {

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool kind_from(const std::string& name, StrategyKind& out) {
  if (name == "colluder") {
    out = StrategyKind::kColluder;
  } else if (name == "front" || name == "front_peer") {
    out = StrategyKind::kFrontPeer;
  } else if (name == "attrition") {
    out = StrategyKind::kAttrition;
  } else if (name == "nuisance") {
    out = StrategyKind::kNuisance;
  } else if (name == "sybil") {
    out = StrategyKind::kSybil;
  } else {
    return false;
  }
  return true;
}

bool parse_strategy(std::string_view text, StrategySpec& s,
                    std::string* error) {
  const std::size_t colon = text.find(':');
  const std::string name(text.substr(0, colon));
  if (!kind_from(name, s.kind)) {
    return set_error(error, "unknown strategy kind '" + name + "'");
  }
  if (colon == std::string_view::npos) return true;

  using util::integer_key;
  using util::SpecField;
  const util::SpecKey keys[] = {
      integer_key("n", s.agents, 0, std::numeric_limits<PeerId>::max()),
      integer_key("agents", s.agents, 0, std::numeric_limits<PeerId>::max()),
      integer_key("start", s.start),
      {"duty", [&s](SpecField& f) { return f.real(s.duty, 0.0, 1.0, true); }},
      integer_key("session", s.session_mean, 1),
      integer_key("rate", s.rate, 1),
      util::rate_key("flip", s.flip),
      integer_key("region", s.region, 2),
      {"credit", [&s](SpecField& f) { return f.real(s.credit_mb, 0.0); }},
      integer_key("fake_exp", s.fake_experience),
      {"fake_mb", [&s](SpecField& f) { return f.real(s.fake_mb, 0.0); }},
      integer_key("victim", s.victim),
  };
  return util::read_spec(text.substr(colon + 1), {keys}, "adversary", error);
}

}  // namespace

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kColluder: return "colluder";
    case StrategyKind::kFrontPeer: return "front";
    case StrategyKind::kAttrition: return "attrition";
    case StrategyKind::kNuisance: return "nuisance";
    case StrategyKind::kSybil: return "sybil";
  }
  return "?";
}

bool parse_adversary_spec(const std::string& spec, AdversaryConfig& out,
                          std::string* error) {
  std::vector<StrategySpec> parsed;
  for (std::string_view rest = spec; !rest.empty();) {
    const std::string_view entry = util::next_token(rest, ';');
    if (entry.empty()) continue;
    StrategySpec s;
    if (!parse_strategy(entry, s, error)) return false;
    parsed.push_back(s);
  }
  out.roster.insert(out.roster.end(), parsed.begin(), parsed.end());
  return true;
}

std::string describe(const AdversaryConfig& config) {
  if (!config.enabled()) return "off";
  std::string out;
  char buf[96];
  for (const StrategySpec& s : config.roster) {
    if (s.agents == 0) continue;
    if (!out.empty()) out += ';';
    std::snprintf(buf, sizeof(buf), "%s:n=%zu", to_string(s.kind), s.agents);
    out += buf;
    if (s.start != 0) {
      std::snprintf(buf, sizeof(buf), ",start=%lld",
                    static_cast<long long>(s.start));
      out += buf;
    }
    if (s.duty < 1.0) {
      std::snprintf(buf, sizeof(buf), ",duty=%g", s.duty);
      out += buf;
    }
    switch (s.kind) {
      case StrategyKind::kAttrition:
        std::snprintf(buf, sizeof(buf), ",rate=%zu", s.rate);
        out += buf;
        break;
      case StrategyKind::kNuisance:
        std::snprintf(buf, sizeof(buf), ",flip=%g,credit=%g", s.flip,
                      s.credit_mb);
        out += buf;
        break;
      case StrategyKind::kSybil:
        std::snprintf(buf, sizeof(buf), ",region=%zu,credit=%g", s.region,
                      s.credit_mb);
        out += buf;
        break;
      case StrategyKind::kColluder:
      case StrategyKind::kFrontPeer:
        break;
    }
  }
  return out.empty() ? "off" : out;
}

}  // namespace tribvote::adversary
