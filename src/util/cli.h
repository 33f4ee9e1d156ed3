// Tiny --key=value command line parser for the bench/example binaries,
// plus the strict readers for numeric BST_* environment knobs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace bst::util {

/// Parses arguments of the form --key=value (or bare --flag => "1").
/// Unrecognized positional arguments are ignored.
class Cli {
 public:
  Cli(int argc, char** argv);

  /// Returns the value for `key`, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;

  /// Numeric accessors parse the *whole* value: trailing garbage
  /// (`--np=4x`, `--panel=8q`) throws std::runtime_error naming the flag
  /// instead of silently truncating to the leading digits.
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Numeric BST_* environment knobs, parsed by the same whole-value rule as
/// the Cli getters.  Unset or empty gives `fallback`; anything else must
/// be a complete non-negative number (every knob read through these is a
/// size, count or threshold) no larger than `max`, or
/// std::invalid_argument names the variable.  Plain strtoull would wrap
/// "-1" to 2^64-1 and read "32x" as 32.
std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t max = UINT64_MAX);
double env_f64(const char* name, double fallback);

}  // namespace bst::util
