#include "src/util/strings.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace rap::util {

std::size_t format_fixed_to(char* out, double value, int decimals) {
  if (decimals < 0 || decimals > 17) {
    throw std::invalid_argument("format_fixed: decimals out of range");
  }
  // std::to_chars with a precision is specified as printf in the C locale.
  const auto [end, ec] = std::to_chars(out, out + kFormatFixedMaxChars, value,
                                       std::chars_format::fixed, decimals);
  if (ec != std::errc{}) {
    throw std::runtime_error("format_fixed: formatting failed");
  }
  return static_cast<std::size_t>(end - out);
}

std::string format_fixed(double value, int decimals) {
  char buffer[kFormatFixedMaxChars];
  return std::string(buffer, format_fixed_to(buffer, value, decimals));
}

std::optional<double> parse_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  // from_chars reads a subset of strtod's syntax (no leading whitespace,
  // '+' or hex) and rounds as strtod does, so a normal result is strtod's.
  const char* const end = text.data() + text.size();
  double fast = 0.0;
  const auto [fast_stop, ec] = std::from_chars(text.data(), end, fast);
  if (ec == std::errc{} && fast_stop == end && std::isnormal(fast)) return fast;
  // Everything else (whitespace, '+', hex, inf/nan, zero, range errors) is
  // decided by strtod, std::stod's own engine, on a NUL-terminated copy.
  char small[64];
  std::string large;
  const char* c_text = small;
  if (text.size() < sizeof(small)) {
    std::memcpy(small, text.data(), text.size());
    small[text.size()] = '\0';
  } else {
    large.assign(text);
    c_text = large.c_str();
  }
  errno = 0;
  char* stop = nullptr;
  const double value = std::strtod(c_text, &stop);
  if (stop != c_text + text.size() || errno == ERANGE) return std::nullopt;
  return value;
}

std::string pad(std::string_view text, int width) {
  const std::size_t target =
      static_cast<std::size_t>(width < 0 ? -width : width);
  if (text.size() >= target) return std::string(text);
  const std::string spaces(target - text.size(), ' ');
  return width < 0 ? std::string(text) + spaces : spaces + std::string(text);
}

}  // namespace rap::util
