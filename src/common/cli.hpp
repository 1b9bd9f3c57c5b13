// Minimal command-line flag parsing for examples and benches.
// Supports --flag=value, --flag value, and boolean --flag forms.
#pragma once

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace parva {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Integer flag value. The whole value must parse as a base-10 integer
  /// (optional sign); anything else — including trailing junk like
  /// "4x" or an empty value — returns the fallback.
  long long get_int(const std::string& name, long long fallback) const;

  /// True when `name` parses as a base-10 integer in [min_value, max_value].
  /// Distinguishes "absent" (fine, use the default) from "present but
  /// malformed / out of range" (a user error a CLI should reject loudly,
  /// not silently swallow into the fallback).
  bool int_in_range(const std::string& name, long long min_value, long long max_value) const;

  /// Flags that appeared more than once on the command line, in first-seen
  /// order. Parsing keeps the LAST occurrence's value; strict front ends
  /// treat a non-empty list as a usage error (a repeated flag is almost
  /// always a typo'd edit of the wrong copy).
  const std::vector<std::string>& repeated() const { return repeated_; }

  /// The first flag, in command-line order, whose name is not in `known`
  /// (nullopt when every flag is). Strict front ends refuse it rather than
  /// run with a misspelled or retired flag silently ignored.
  std::optional<std::string> first_unknown(
      std::initializer_list<std::string_view> known) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> names_;  ///< distinct flag names, first-seen order
  std::vector<std::string> repeated_;
  std::vector<std::string> positional_;
};

}  // namespace parva
