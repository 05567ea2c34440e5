#include "src/util/text_file.h"

#include <fstream>
#include <stdexcept>
#include <string>

namespace rap::util {

void write_text_file(std::string_view caller, const std::filesystem::path& path,
                     const std::function<void(std::ostream&)>& write) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string(caller) + ": cannot open " +
                             path.string());
  }
  write(out);
  out.close();  // flushes; a failed flush or close sets failbit
  if (!out) {
    throw std::runtime_error(std::string(caller) + ": write failed for " +
                             path.string());
  }
}

}  // namespace rap::util
