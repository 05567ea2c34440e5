// Writing a whole text file with every I/O error reported, the final flush
// and close included: a full disk must not leave a silently short file.
#pragma once

#include <filesystem>
#include <functional>
#include <ostream>
#include <string_view>

namespace rap::util {

/// Creates `path` (and its parent directories), lets `write` fill it, then
/// closes it. Throws std::runtime_error "<caller>: cannot open <path>" or
/// "<caller>: write failed for <path>" when opening, any write, or the
/// flush and close fail.
void write_text_file(std::string_view caller, const std::filesystem::path& path,
                     const std::function<void(std::ostream&)>& write);

}  // namespace rap::util
