#include "core/train_checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "tensor/serialize.hpp"
#include "util/framed_file.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace parpde::core {

namespace {

namespace fs = std::filesystem;

using util::FormatError;
using util::read_pod;
using util::write_pod;

constexpr char kMagic[] = "PPTC";
constexpr std::uint32_t kVersion = 2;  // v1 is refused (see the header)

void write_string(std::ostream& out, const std::string& s) {
  write_pod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& in) {
  const auto len = read_pod<std::uint32_t>(in);
  if (len > util::remaining_bytes(in).value_or(0)) {
    throw FormatError("truncated: string runs past the payload");
  }
  std::string s(len, '\0');
  in.read(s.data(), static_cast<std::streamsize>(len));
  return s;
}

constexpr std::uint32_t kMaxTensors = 4096;

std::string serialize_payload(int rank, const TrainerSnapshot& snap) {
  std::ostringstream out(std::ios::binary);
  write_pod(out, static_cast<std::int32_t>(rank));
  write_pod(out, static_cast<std::int32_t>(snap.next_epoch));
  write_string(out, snap.batcher_rng);
  write_string(out, snap.optimizer.name);
  write_pod(out, snap.optimizer.step_count);
  write_pod(out, snap.optimizer.learning_rate);
  write_tensors(out, snap.optimizer.slots);
  write_tensors(out, snap.parameters);
  write_pod(out, static_cast<std::uint32_t>(snap.epochs.size()));
  for (const auto& e : snap.epochs) {
    write_pod(out, e.loss);
    write_pod(out, e.seconds);
  }
  if (!out) throw std::runtime_error("save_rank_checkpoint: stream failure");
  return std::move(out).str();
}

void parse_payload(const std::string& payload, int* rank,
                   TrainerSnapshot* snap) {
  std::istringstream in(payload, std::ios::binary);
  *rank = read_pod<std::int32_t>(in);
  snap->next_epoch = read_pod<std::int32_t>(in);
  snap->batcher_rng = read_string(in);
  snap->optimizer.name = read_string(in);
  snap->optimizer.step_count = read_pod<std::int64_t>(in);
  snap->optimizer.learning_rate = read_pod<double>(in);
  snap->optimizer.slots = read_tensors(in, kMaxTensors);
  snap->parameters = read_tensors(in, kMaxTensors);
  const auto n_epochs = read_pod<std::uint32_t>(in);
  snap->epochs.clear();
  // Grown entry by entry: a lying count runs out of payload before memory.
  for (std::uint32_t i = 0; i < n_epochs; ++i) {
    auto& e = snap->epochs.emplace_back();
    e.loss = read_pod<double>(in);
    e.seconds = read_pod<double>(in);
  }
  util::expect_end(in);
}

std::string checkpoint_name(int rank, int next_epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rank%d_epoch%06d.ckpt", rank, next_epoch);
  return buf;
}

std::string manifest_name(int rank) {
  return "rank" + std::to_string(rank) + ".latest";
}

}  // namespace

std::string save_rank_checkpoint(const std::string& dir, int rank,
                                 const TrainerSnapshot& snapshot) {
  if (rank < 0) {
    throw std::invalid_argument("save_rank_checkpoint: negative rank");
  }
  fs::create_directories(dir);
  const std::string payload = serialize_payload(rank, snapshot);
  const std::string name = checkpoint_name(rank, snapshot.next_epoch);
  util::write_atomic((fs::path(dir) / name).string(),
                     util::frame(kMagic, kVersion, payload));
  // The manifest points at the newest file; it is advisory (the loader can
  // always fall back to scanning), so writing it after the data is safe.
  util::write_atomic((fs::path(dir) / manifest_name(rank)).string(),
                     name + "\n");

  static telemetry::Counter& writes = telemetry::counter("checkpoint.writes");
  static telemetry::Counter& bytes =
      telemetry::counter("checkpoint.bytes_written");
  writes.add(1);
  bytes.add(payload.size());
  return (fs::path(dir) / name).string();
}

bool read_rank_checkpoint(const std::string& path, int* rank,
                          TrainerSnapshot* out, std::string* why) {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = path + ": " + reason;
    static telemetry::Counter& invalid =
        telemetry::counter("checkpoint.invalid_skipped");
    invalid.add(1);
    return false;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open");
  try {
    parse_payload(util::read_verified(in, kMagic, {kVersion}).payload, rank,
                  out);
  } catch (const FormatError& e) {
    return fail(e.what());
  }
  return true;
}

std::optional<TrainerSnapshot> load_latest_checkpoint(const std::string& dir,
                                                      int rank) {
  const fs::path root(dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return std::nullopt;

  // Candidate files, newest first: the manifest's pick, then every matching
  // checkpoint by descending epoch (covers a stale/missing/corrupt manifest).
  std::vector<std::string> candidates;
  {
    std::ifstream manifest(root / manifest_name(rank));
    std::string name;
    if (manifest && std::getline(manifest, name) && !name.empty() &&
        name.find('/') == std::string::npos) {
      candidates.push_back((root / name).string());
    }
  }
  const std::string prefix = "rank" + std::to_string(rank) + "_epoch";
  std::vector<std::string> scanned;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      scanned.push_back(entry.path().string());
    }
  }
  std::sort(scanned.rbegin(), scanned.rend());  // epoch is zero-padded
  candidates.insert(candidates.end(), scanned.begin(), scanned.end());

  for (const auto& path : candidates) {
    TrainerSnapshot snap;
    int file_rank = -1;
    std::string why;
    if (!read_rank_checkpoint(path, &file_rank, &snap, &why)) {
      util::log_warn() << "checkpoint: skipping invalid file " << why;
      continue;
    }
    if (file_rank != rank) {
      util::log_warn() << "checkpoint: " << path << " belongs to rank "
                       << file_rank << ", expected " << rank << "; skipping";
      continue;
    }
    return snap;
  }
  return std::nullopt;
}

}  // namespace parpde::core
