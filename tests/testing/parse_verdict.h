// One parse's outcome as text, so a table test can pin both the values a
// text parser accepts (bit for bit) and the exact error text of the inputs
// it rejects.
#pragma once

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

namespace rap::testing {

/// "ok <value as %a>" (NaN as "nan"/"-nan") when `parse()` returns, or
/// "error: <what()>" when it throws.
template <typename Parse>
std::string parse_verdict(Parse&& parse) {
  try {
    const double value = parse();
    if (std::isnan(value)) return std::signbit(value) ? "ok -nan" : "ok nan";
    char text[64];
    std::snprintf(text, sizeof(text), "ok %a", value);
    return text;
  } catch (const std::exception& error) {
    return std::string("error: ") + error.what();
  }
}

}  // namespace rap::testing
