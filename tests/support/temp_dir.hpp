// Unique scratch directories for test fixtures.
//
// Fixtures that write files must not share a path with any other test
// process: under `ctest -j` several test binaries (and several instances
// of one binary) run at once, and a name derived from a fixture's address
// or a test parameter repeats across processes. mkdtemp(3) creates a
// fresh directory atomically under the system temp directory.

#pragma once

#include <stdlib.h>  // mkdtemp (POSIX)

#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace impress::test_support {

/// Create and return a new, empty directory named `<prefix>XXXXXX` under
/// std::filesystem::temp_directory_path(). The caller removes it.
inline std::filesystem::path make_temp_dir(std::string_view prefix) {
  std::string pattern =
      (std::filesystem::temp_directory_path() / prefix).string() + "XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr)
    throw std::runtime_error("mkdtemp failed for " + pattern);
  return pattern;
}

}  // namespace impress::test_support
