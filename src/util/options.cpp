#include "util/options.hpp"

#include <cstdlib>

namespace parpde::util {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

void Options::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Options::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::optional<std::string> Options::lookup(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  return lookup(key).value_or(fallback);
}

int Options::get_int(const std::string& key, int fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  return std::stoi(*v);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  return std::stod(*v);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string s(v);
  return s == "1" || s == "true" || s == "yes" || s == "on";
}

}  // namespace parpde::util
