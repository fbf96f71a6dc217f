#pragma once

// Tiny command-line option parser for the examples and benchmark harnesses.
// Accepts "--key=value" and "--flag" arguments; unknown positional arguments
// are collected separately.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace parpde::util {

class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv);

  // Explicitly sets/overrides an option (used by tests).
  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  // Every --key given on the command line (or through set()), sorted.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// Reads an environment variable as bool ("1", "true", "yes" → true).
bool env_flag(const char* name, bool fallback = false);

}  // namespace parpde::util
