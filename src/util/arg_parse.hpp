// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--flag` forms.
// Each main declares the flags it reads (parse_flags), so a misspelled or
// retired flag is an error rather than silently ignored.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ncb {

class ArgParse {
 public:
  ArgParse(int argc, const char* const* argv);

  /// True if `--name` was present (with or without value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Returns `fallback` when the flag is absent or empty; throws
  /// std::invalid_argument when its value is not a number in range.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Returns `fallback` when the flag is absent or empty; throws
  /// std::invalid_argument when its value is not a number in range.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// Throws std::invalid_argument ("unknown flag --name") for the first
  /// flag, in name order, that `known` does not list.
  void require_known(const std::vector<std::string>& known) const;

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// A main's flag parse: the ArgParse of argv, accepting only the `known`
/// flags. On any other flag it prints "<program>: error: unknown flag
/// --<name>" to stderr and exits with status 2.
ArgParse parse_flags(int argc, const char* const* argv,
                     const std::vector<std::string>& known);

}  // namespace ncb
