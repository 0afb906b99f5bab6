#include "bt/streaming.hpp"

#include <cstdio>

#include "util/spec.hpp"

namespace tribvote::bt {

bool parse_streaming_spec(const std::string& spec, StreamingConfig& out,
                          std::string* error) {
  if (spec.empty() || spec == "off" || spec == "0" || spec == "false") {
    out = StreamingConfig{};
    return true;
  }
  StreamingConfig parsed;
  parsed.enabled = true;  // "on", or a key=value list, which implies it
  if (spec == "on" || spec == "1" || spec == "true") {
    out = parsed;
    return true;
  }
  const util::SpecKey keys[] = {
      util::integer_key("window", parsed.window, 1),
      util::integer_key("startup", parsed.startup_pieces, 1),
      {"kbps",
       [&](util::SpecField& f) { return f.positive(parsed.playback_kbps); }},
  };
  if (!util::read_spec(spec, {keys}, "streaming", error)) return false;
  out = parsed;
  return true;
}

std::string describe(const StreamingConfig& config) {
  if (!config.enabled) return "off";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "window=%zu,startup=%zu,kbps=%g",
                config.window, config.startup_pieces, config.playback_kbps);
  return buf;
}

}  // namespace tribvote::bt
