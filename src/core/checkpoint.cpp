#include "core/checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/serialize.hpp"
#include "util/framed_file.hpp"

namespace parpde::core {

namespace {

using util::FormatError;
using util::read_pod;
using util::write_pod;

constexpr char kMagic[] = "PPDE";
constexpr std::uint32_t kVersion = 2;

std::string encode(const EnsembleCheckpoint& checkpoint) {
  std::ostringstream out(std::ios::binary);
  const auto& report = checkpoint.report;
  const auto& net = checkpoint.network;
  write_pod(out, static_cast<std::uint32_t>(net.channels.size()));
  for (const auto c : net.channels) write_pod(out, c);
  write_pod(out, net.kernel);
  write_pod(out, net.leaky_slope);
  write_pod(out, static_cast<std::uint8_t>(net.final_activation ? 1 : 0));
  write_pod(out, static_cast<std::uint8_t>(checkpoint.border));

  write_pod(out, static_cast<std::int32_t>(report.ranks));
  write_pod(out, static_cast<std::int32_t>(report.dims.px));
  write_pod(out, static_cast<std::int32_t>(report.dims.py));
  for (const auto& outcome : report.rank_outcomes) {
    write_pod(out, outcome.block.h0);
    write_pod(out, outcome.block.h1);
    write_pod(out, outcome.block.w0);
    write_pod(out, outcome.block.w1);
    write_tensors(out, outcome.parameters);
  }
  if (!out) throw std::runtime_error("write_ensemble: stream failure");
  return util::frame(kMagic, kVersion, std::move(out).str());
}

EnsembleCheckpoint read_body(std::istream& in) {
  EnsembleCheckpoint checkpoint;
  const auto n_channels = read_pod<std::uint32_t>(in);
  if (n_channels < 2 || n_channels > 64) {
    throw FormatError("read_ensemble: implausible channel count");
  }
  checkpoint.network.channels.resize(n_channels);
  for (auto& c : checkpoint.network.channels) c = read_pod<std::int64_t>(in);
  checkpoint.network.kernel = read_pod<std::int64_t>(in);
  checkpoint.network.leaky_slope = read_pod<float>(in);
  checkpoint.network.final_activation = read_pod<std::uint8_t>(in) != 0;
  const auto border = read_pod<std::uint8_t>(in);
  if (border > static_cast<std::uint8_t>(BorderMode::kDeconv)) {
    throw FormatError("read_ensemble: bad border mode");
  }
  checkpoint.border = static_cast<BorderMode>(border);

  auto& report = checkpoint.report;
  report.ranks = read_pod<std::int32_t>(in);
  report.dims.px = read_pod<std::int32_t>(in);
  report.dims.py = read_pod<std::int32_t>(in);
  if (report.ranks <= 0 ||
      std::int64_t{report.dims.px} * report.dims.py != report.ranks) {
    throw FormatError("read_ensemble: inconsistent topology");
  }
  // Grown rank by rank (no reserve): the stream runs out before a lying rank
  // count can cost memory.
  for (int r = 0; r < report.ranks; ++r) {
    auto& outcome = report.rank_outcomes.emplace_back();
    outcome.rank = r;
    outcome.block.h0 = read_pod<std::int64_t>(in);
    outcome.block.h1 = read_pod<std::int64_t>(in);
    outcome.block.w0 = read_pod<std::int64_t>(in);
    outcome.block.w1 = read_pod<std::int64_t>(in);
    outcome.parameters = read_tensors(in, 1024);
  }
  return checkpoint;
}

}  // namespace

void write_ensemble(std::ostream& out, const EnsembleCheckpoint& checkpoint) {
  const std::string bytes = encode(checkpoint);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("write_ensemble: stream failure");
}

EnsembleCheckpoint read_ensemble(std::istream& in) {
  std::istringstream body(util::read_verified(in, kMagic, {kVersion}).payload,
                          std::ios::binary);
  auto checkpoint = read_body(body);
  util::expect_end(body);
  return checkpoint;
}

void save_ensemble(const std::string& path, const EnsembleCheckpoint& checkpoint) {
  util::write_atomic(path, encode(checkpoint));
}

EnsembleCheckpoint load_ensemble(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_ensemble: cannot open " + path);
  return read_ensemble(in);
}

EnsembleCheckpoint make_checkpoint(const TrainConfig& config,
                                   const ParallelTrainReport& report) {
  EnsembleCheckpoint checkpoint;
  checkpoint.network = config.network;
  checkpoint.border = config.border;
  checkpoint.report = report;
  return checkpoint;
}

}  // namespace parpde::core
