// Minimal command-line argument helper for the CLI tool and examples.
//
// Grammar: positionals, boolean flags ("--verbose"), and valued options
// ("--nodes 64" or "--nodes=64"). Unknown flags are errors, so typos fail
// loudly.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace qsv {

/// Malformed command-line input: unknown flag, missing value, unparsable
/// number, bad usage. The CLI maps this to its documented usage exit code
/// (2), distinct from library errors (1).
class ArgError : public Error {
 public:
  using Error::Error;
};

/// Parses `text` as a base-10 integer in [lo, hi]. Anything else, including
/// a value too large for any integer type, throws ArgError naming `what`.
[[nodiscard]] std::int64_t parse_int(
    const std::string& text, const std::string& what,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());

class ArgParser {
 public:
  /// Declare accepted names before parsing.
  ArgParser& flag(const std::string& name);
  ArgParser& option(const std::string& name);

  /// Parses argv[1..); throws qsv::ArgError on unknown or malformed input.
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> value(
      const std::string& name) const;

  /// Value with a default.
  [[nodiscard]] std::string value_or(const std::string& name,
                                     const std::string& def) const;
  /// parse_int over the range of int: a value outside it is an ArgError,
  /// not a wrapped number.
  [[nodiscard]] int int_or(const std::string& name, int def) const;
  [[nodiscard]] double double_or(const std::string& name, double def) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

 private:
  std::set<std::string> known_flags_;
  std::set<std::string> known_options_;
  std::set<std::string> seen_flags_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace qsv
