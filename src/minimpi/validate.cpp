#include "minimpi/validate.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace parpde::mpi::validate {

namespace {

bool env_flag_default() {
#ifdef PARPDE_MPI_VALIDATE_DEFAULT
  return true;
#else
  const char* v = std::getenv("PARPDE_MPI_VALIDATE");
  return v != nullptr && std::string(v) != "0";
#endif
}

long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0) ? parsed : fallback;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_flag_default()};
  return flag;
}

std::atomic<int>& timeout_value() {
  static std::atomic<int> ms{
      static_cast<int>(env_long("PARPDE_MPI_VALIDATE_TIMEOUT_MS", 10000))};
  return ms;
}

}  // namespace

bool enabled() noexcept { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

int timeout_ms() noexcept {
  return timeout_value().load(std::memory_order_relaxed);
}

void set_timeout_ms(int ms) noexcept {
  timeout_value().store(ms > 0 ? ms : 1, std::memory_order_relaxed);
}

void emit_report(const std::string& report) {
  // One fprintf per line under a lock so concurrent rank dumps interleave by
  // line, not by character.
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::size_t start = 0;
  while (start <= report.size()) {
    const std::size_t end = report.find('\n', start);
    const std::string line =
        report.substr(start, end == std::string::npos ? end : end - start);
    if (!line.empty()) {
      std::fprintf(stderr, "[parpde-validate] %s\n", line.c_str());
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  std::fflush(stderr);
}

}  // namespace parpde::mpi::validate
