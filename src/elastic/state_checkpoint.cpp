#include "elastic/state_checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/serialize.hpp"
#include "util/framed_file.hpp"
#include "util/telemetry.hpp"

namespace parpde::elastic {

namespace {

namespace fs = std::filesystem;

using util::read_pod;
using util::write_pod;

constexpr char kMagic[] = "PPES";
constexpr std::uint32_t kVersion = 1;

std::string state_name(int task, int step) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "task%03d_step%06d.ppes", task, step);
  return buf;
}

}  // namespace

std::string save_task_state(const std::string& dir, int task, int step,
                            const Tensor& interior) {
  if (task < 0 || step < 0) {
    throw std::invalid_argument("save_task_state: negative task or step");
  }
  fs::create_directories(dir);

  std::ostringstream body(std::ios::binary);
  write_pod(body, static_cast<std::int32_t>(task));
  write_pod(body, static_cast<std::int32_t>(step));
  write_tensor(body, interior);
  const std::string payload = std::move(body).str();
  const std::string path = (fs::path(dir) / state_name(task, step)).string();
  util::write_atomic(path, util::frame(kMagic, kVersion, payload));

  static telemetry::Counter& writes =
      telemetry::counter("checkpoint.state_writes");
  static telemetry::Counter& bytes =
      telemetry::counter("checkpoint.state_bytes_written");
  writes.add(1);
  bytes.add(payload.size());
  return path;
}

bool load_task_state(const std::string& dir, int task, int step, Tensor* out,
                     std::string* why) {
  const fs::path path = fs::path(dir) / state_name(task, step);
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = path.string() + ": " + reason;
    static telemetry::Counter& invalid =
        telemetry::counter("checkpoint.invalid_skipped");
    invalid.add(1);
    return false;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open");
  try {
    std::istringstream body(util::read_verified(in, kMagic, {kVersion}).payload,
                            std::ios::binary);
    const auto file_task = read_pod<std::int32_t>(body);
    const auto file_step = read_pod<std::int32_t>(body);
    if (file_task != task || file_step != step) {
      return fail("snapshot names task " + std::to_string(file_task) +
                  " step " + std::to_string(file_step) + ", expected task " +
                  std::to_string(task) + " step " + std::to_string(step));
    }
    Tensor interior = read_tensor(body);
    util::expect_end(body);
    *out = std::move(interior);
  } catch (const util::FormatError& e) {
    return fail(e.what());
  }
  return true;
}

}  // namespace parpde::elastic
