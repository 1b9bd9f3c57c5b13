#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/strings.hpp"

namespace parva {
namespace {

/// Full-consumption base-10 integer parse: the strtoll that CLI validation
/// needs (atoll silently accepts "4x" as 4 and "" as 0).
bool parse_int_strict(const std::string& text, long long* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string name;
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      name = arg;
      value = argv[++i];
    } else {
      name = arg;
      value = "true";
    }
    if (flags_.count(name) == 0) {
      names_.push_back(name);
    } else if (std::find(repeated_.begin(), repeated_.end(), name) == repeated_.end()) {
      repeated_.push_back(name);
    }
    flags_[name] = std::move(value);
  }
}

std::optional<std::string> CliArgs::first_unknown(
    std::initializer_list<std::string_view> known) const {
  for (const std::string& name : names_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) return name;
  }
  return std::nullopt;
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) != 0; }

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

long long CliArgs::get_int(const std::string& name, long long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  long long value = 0;
  return parse_int_strict(it->second, &value) ? value : fallback;
}

bool CliArgs::int_in_range(const std::string& name, long long min_value,
                           long long max_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return false;
  long long value = 0;
  if (!parse_int_strict(it->second, &value)) return false;
  return value >= min_value && value <= max_value;
}

}  // namespace parva
