#include "util/cli.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace bst::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      kv_.emplace(std::string(arg), "1");
    } else {
      kv_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& key, long fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const char* s = it->second.c_str();
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') {
    throw std::runtime_error("--" + key + ": expected an integer, got '" + it->second + "'");
  }
  return v;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const char* s = it->second.c_str();
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') {
    throw std::runtime_error("--" + key + ": expected a number, got '" + it->second + "'");
  }
  return v;
}

bool Cli::has(const std::string& key) const { return kv_.contains(key); }

namespace {

[[noreturn]] void bad_env(const char* name, const char* what, const char* value) {
  throw std::invalid_argument(std::string(name) + ": expected " + what + ", got '" + value + "'");
}

}  // namespace

std::uint64_t env_u64(const char* name, std::uint64_t fallback, std::uint64_t max) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  // A leading digit rules out the sign and whitespace strtoull would accept.
  if (std::isdigit(static_cast<unsigned char>(*s)) == 0 || *end != '\0' || errno == ERANGE ||
      v > max) {
    bad_env(name, ("an integer in [0, " + std::to_string(max) + "]").c_str(), s);
  }
  return v;
}

double env_f64(const char* name, double fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0.0) {
    bad_env(name, "a non-negative number", s);
  }
  return v;
}

}  // namespace bst::util
