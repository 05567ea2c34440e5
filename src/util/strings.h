// String helpers shared by the CLI parser, the report formatter and the
// CSV text path (fixed-decimal formatting and whole-field number parsing).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace rap::util {

/// Formats a double with a fixed number of decimals, byte for byte as
/// printf("%.*f") in the C locale (exact ties round to even; -0, inf and
/// nan keep their sign) but locale-independent. Throws
/// std::invalid_argument unless 0 <= decimals <= 17, and std::runtime_error
/// when the text would exceed kFormatFixedMaxChars.
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// The longest text format_fixed produces.
inline constexpr std::size_t kFormatFixedMaxChars = 63;

/// format_fixed's engine, for writers that format in place: writes the text
/// to `out`, which must have room for kFormatFixedMaxChars, and returns its
/// length. Same checks and throws as format_fixed.
std::size_t format_fixed_to(char* out, double value, int decimals);

/// Parses all of `text` as a double, accepting and rejecting exactly what
/// std::stod plus a whole-field check does (leading whitespace, '+', hex
/// floats and inf/nan spellings pass; trailing bytes, overflow and
/// subnormal results fail), but without a std::string temporary: plain
/// decimals go through std::from_chars. nullopt when rejected.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// Left-pads (positive width) or right-pads (negative width) with spaces.
[[nodiscard]] std::string pad(std::string_view text, int width);

/// True if `text` starts with `prefix`.
[[nodiscard]] constexpr bool starts_with(std::string_view text,
                                         std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

}  // namespace rap::util
