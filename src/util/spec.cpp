#include "util/spec.hpp"

#include <cmath>
#include <cstdlib>

namespace tribvote::util {
namespace {

bool set_error(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

std::string bound(double v) {
  std::string s = std::to_string(v);  // "0.800000" -> "0.8"
  s.erase(s.find_last_not_of('0') + 1);
  if (s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

bool SpecField::fail(const std::string& why) {
  return set_error(error_, std::string(key_) + " must be " + why);
}

bool SpecField::number(double& v) {
  const std::string text(value_);
  char* end = nullptr;
  v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') {
    return set_error(error_, "bad value for " + std::string(key_) + ": '" +
                                 text + "'");
  }
  return true;
}

bool SpecField::real(double& slot, double lo, double hi, bool lo_open,
                     bool hi_open) {
  double v = 0.0;
  if (!number(v)) return false;
  // Phrased so that NaN fails every comparison.
  if (!((lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi) &&
        std::isfinite(v))) {
    if (std::isinf(hi)) return fail((lo_open ? "> " : ">= ") + bound(lo));
    return fail(std::string("in ") + (lo_open ? '(' : '[') + bound(lo) +
                ", " + bound(hi) + (hi_open ? ')' : ']'));
  }
  slot = v;
  return true;
}

bool SpecField::integer(std::uint64_t& out, std::uint64_t lo,
                        std::uint64_t hi) {
  double v = 0.0;
  if (!number(v)) return false;
  if (!std::isfinite(v) || v != std::floor(v)) return fail("an integer");
  if (v < static_cast<double>(lo)) return fail(">= " + std::to_string(lo));
  // 2^64 is exact as a double; below it every integral double converts.
  if (v >= 18446744073709551616.0 || static_cast<std::uint64_t>(v) > hi) {
    return fail("<= " + std::to_string(hi));
  }
  out = static_cast<std::uint64_t>(v);
  return true;
}

std::string_view next_token(std::string_view& rest, char sep) {
  const std::size_t at = rest.find(sep);
  const std::string_view token = rest.substr(0, at);
  rest.remove_prefix(at == std::string_view::npos ? rest.size() : at + 1);
  return token;
}

bool read_spec(std::string_view spec,
               std::initializer_list<std::span<const SpecKey>> tables,
               const char* what, std::string* error) {
  while (!spec.empty()) {
    const std::string_view field = next_token(spec, ',');
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return set_error(error,
                       "expected key=value, got '" + std::string(field) + "'");
    }
    SpecField f(field.substr(0, eq), field.substr(eq + 1), error);
    const SpecKey* key = nullptr;
    for (const auto table : tables) {
      for (const SpecKey& k : table) {
        if (key == nullptr && k.name == f.key()) key = &k;
      }
    }
    if (key == nullptr) {
      return set_error(error, std::string("unknown ") + what + " key '" +
                                  std::string(f.key()) + "'");
    }
    if (!key->set(f)) return false;
  }
  return true;
}

}  // namespace tribvote::util
