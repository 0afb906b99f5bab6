// The one `key=value` spec grammar (DESIGN.md §10 "Shared chaos model"):
//
//   spec := [key '=' value] (',' [key '=' value])*
//
// The fault, impairment, adversary and streaming specs all read through
// read_spec. A caller declares its keys as SpecKey setters, and each setter
// reads its value through a typed SpecField reader — the one place values
// are validated. A reader writes its slot only when the value is valid,
// and the first bad field stops the read.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>

namespace tribvote::util {

/// One `key=value` field, handed to the setter of the key that names it.
class SpecField {
 public:
  SpecField(std::string_view key, std::string_view value, std::string* error)
      : key_(key), value_(value), error_(error) {}

  [[nodiscard]] std::string_view key() const noexcept { return key_; }

  /// A probability in [0, 1] (NaN is rejected).
  [[nodiscard]] bool rate(double& slot) { return real(slot, 0.0, 1.0); }
  /// A finite real > 0.
  [[nodiscard]] bool positive(double& slot) {
    return real(slot, 0.0, std::numeric_limits<double>::infinity(), true);
  }
  /// A finite real in [lo, hi]; an end marked open is excluded.
  [[nodiscard]] bool real(double& slot, double lo,
                          double hi = std::numeric_limits<double>::infinity(),
                          bool lo_open = false, bool hi_open = false);

  /// An integral value in [lo, hi].
  [[nodiscard]] bool integer(std::uint64_t& out, std::uint64_t lo,
                             std::uint64_t hi);

 private:
  bool fail(const std::string& why);
  [[nodiscard]] bool number(double& v);

  std::string_view key_;
  std::string_view value_;
  std::string* error_;
};

/// One accepted key and the setter that reads its value.
struct SpecKey {
  std::string_view name;
  std::function<bool(SpecField&)> set;
};

/// A key whose value is a rate, stored in `slot`.
[[nodiscard]] inline SpecKey rate_key(std::string_view name, double& slot) {
  return {name, [&slot](SpecField& f) { return f.rate(slot); }};
}

/// A key whose value is an integer in [lo, hi] (hi defaults to the
/// largest `Int`), stored in `slot`.
template <class Int>
[[nodiscard]] SpecKey integer_key(
    std::string_view name, Int& slot, std::uint64_t lo = 0,
    std::uint64_t hi =
        static_cast<std::uint64_t>(std::numeric_limits<Int>::max())) {
  return {name, [&slot, lo, hi](SpecField& f) {
            std::uint64_t v = 0;
            if (!f.integer(v, lo, hi)) return false;
            slot = static_cast<Int>(v);
            return true;
          }};
}

/// Split the text before the next `sep` (or the end) off the front of
/// `rest`.
[[nodiscard]] std::string_view next_token(std::string_view& rest, char sep);

/// Read `spec`, routing each field to the first key named in `tables`.
/// Stops at the first field that lacks '=', names no key ("unknown <what>
/// key '<key>'") or whose setter rejects its value, and returns false with
/// *error (if given) set.
[[nodiscard]] bool read_spec(
    std::string_view spec,
    std::initializer_list<std::span<const SpecKey>> tables, const char* what,
    std::string* error);

}  // namespace tribvote::util
