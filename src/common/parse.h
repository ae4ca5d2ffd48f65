// Whole-token number parsing for outside input: CLI flags, --sim-faults
// specs and model/checkpoint files. A token parses only if every character
// is consumed ("10x", "0.5x" and "" are errors, never a prefix), and a
// failure throws gbmo::Error naming what was read and the token.
//
// std::from_chars does the conversion: out-of-range values are errors, and
// floats are rounded once to nearest and accept the "inf"/"nan" spellings
// operator<< writes, so a model written at max_digits10 loads back bitwise.
#pragma once

#include <charconv>
#include <string>
#include <type_traits>

#include "common/error.h"

namespace gbmo {

// `what` names the value in the error, e.g. "--trees" or "--sim-faults seed".
template <typename T>
T parse_number(const std::string& token, const std::string& what) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || ptr != last) {
    throw Error("bad " + what + " '" + token + "' (expected " +
                (std::is_floating_point_v<T> ? "a number" : "an integer") +
                ")");
  }
  return value;
}

}  // namespace gbmo
