// The shared checkpoint envelope (util/framed_file) and the four formats
// built on it: PPNN v2/v3 model weights, PPDE ensembles, PPTC training state
// and PPES elastic rollout state. Small fixtures pin each format's bytes with
// a golden CRC-32; every truncation and every single-byte corruption of each
// fixture must be rejected — FormatError from the stream APIs, false plus a
// diagnostic from the skip-on-invalid file APIs — without a crash and without
// any single allocation larger than the file plus one read chunk.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/model.hpp"
#include "core/train_checkpoint.hpp"
#include "data/dataset.hpp"
#include "elastic/state_checkpoint.hpp"
#include "nn/serialize.hpp"
#include "tensor/serialize.hpp"
#include "util/crc32.hpp"
#include "util/framed_file.hpp"
#include "util/random.hpp"

// --- largest-allocation probe -------------------------------------------------
// Global operator new/delete for this test binary. While an AllocWatch is
// alive it records the largest single request; a request above kRefuseBytes
// is refused (bad_alloc) instead of served, so a regression shows up as a
// failed bound rather than gigabytes of RSS.

namespace {

constexpr std::size_t kRefuseBytes = std::size_t{256} << 20;
std::atomic<bool> g_watching{false};
std::atomic<std::size_t> g_largest{0};

void note(std::size_t n) {
  if (!g_watching.load(std::memory_order_relaxed)) return;
  std::size_t prev = g_largest.load(std::memory_order_relaxed);
  while (n > prev && !g_largest.compare_exchange_weak(
                         prev, n, std::memory_order_relaxed)) {
  }
  if (n > kRefuseBytes) throw std::bad_alloc();
}

void* watched_alloc(std::size_t n) {
  note(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* watched_aligned_alloc(std::size_t n, std::align_val_t al) {
  note(n);
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return watched_alloc(n); }
void* operator new[](std::size_t n) { return watched_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return watched_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return watched_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace parpde {
namespace {

constexpr std::size_t kChunkSlack = 64 * 1024;

// Scoped largest-allocation measurement (single-threaded use).
class AllocWatch {
 public:
  AllocWatch() {
    g_largest.store(0);
    g_watching.store(true);
  }
  ~AllocWatch() { g_watching.store(false); }
  AllocWatch(const AllocWatch&) = delete;
  AllocWatch& operator=(const AllocWatch&) = delete;
  [[nodiscard]] static std::size_t largest() { return g_largest.load(); }
};

std::string fresh_dir(const std::string& stem) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / stem;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void put_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// --- fixtures ----------------------------------------------------------------
// Deterministic and independent of weight-init code: every value is set
// explicitly, so the bytes depend only on the file formats.

core::NetworkConfig fixture_network() {
  core::NetworkConfig net;
  net.channels = {2, 3, 2};
  net.kernel = 3;
  return net;
}

std::unique_ptr<nn::Sequential> fixture_model() {
  util::Rng rng(1);
  auto model = core::build_model(fixture_network(), core::BorderMode::kZeroPad,
                                 rng);
  float v = -1.0f;
  for (auto& p : model->parameters()) {
    for (auto& x : p.value->values()) {
      x = v;
      v += 0.0625f;
    }
  }
  return model;
}

const std::vector<float> kCalibration = {0.5f, 1.75f};

std::string ppnn_bytes(const std::vector<float>& calibration) {
  auto model = fixture_model();
  std::ostringstream out(std::ios::binary);
  nn::save_parameters(out, *model, calibration);
  return out.str();
}

std::string ppde_bytes() {
  core::EnsembleCheckpoint checkpoint;
  checkpoint.network = fixture_network();
  checkpoint.border = core::BorderMode::kHaloPad;
  auto& report = checkpoint.report;
  report.ranks = 2;
  report.dims.px = 2;
  report.dims.py = 1;
  auto model = fixture_model();
  for (int r = 0; r < 2; ++r) {
    core::RankOutcome outcome;
    outcome.rank = r;
    outcome.block = {0, 8, 4 * r, 4 * r + 4};
    outcome.parameters = core::export_parameters(*model);
    report.rank_outcomes.push_back(std::move(outcome));
  }
  std::ostringstream out(std::ios::binary);
  core::write_ensemble(out, checkpoint);
  return out.str();
}

core::TrainerSnapshot fixture_snapshot() {
  core::TrainerSnapshot snap;
  snap.next_epoch = 3;
  Tensor w({2, 3});
  for (std::int64_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(i) + 0.5f;
  }
  snap.parameters = {w};
  snap.optimizer.name = "adam";
  snap.optimizer.step_count = 17;
  snap.optimizer.learning_rate = 1e-3;
  snap.optimizer.slots = {w, w};
  snap.batcher_rng = "12345 67890";
  snap.epochs = {{0.5, 0.0, 1.0}, {0.25, 0.0, 1.0}};
  snap.best_monitored = 0.25;
  snap.best_epoch = 1;
  snap.best_params = {w};
  snap.schedule_epochs = 2;
  return snap;
}

Tensor fixture_interior() {
  Tensor interior({1, 4, 5});
  for (std::int64_t i = 0; i < interior.size(); ++i) {
    interior[i] = 0.5f * static_cast<float>(i) - 3.0f;
  }
  return interior;
}

constexpr int kTask = 2;
constexpr int kStep = 9;

// One format under test: its pristine bytes, the CRC-32 of those bytes at
// the commit that introduced this test, and a loader that reports whether a
// byte string was accepted. Loaders may only return or throw FormatError;
// anything else escapes and fails the test.
struct Format {
  std::string name;
  std::string bytes;
  std::uint32_t golden_crc;
  std::function<bool(const std::string&)> accepts;
};

template <typename Load>
bool accepts_stream(const std::string& bytes, Load load) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    load(in);
    return true;
  } catch (const util::FormatError&) {
    return false;
  }
}

Format ppnn_format(const std::string& name, const std::vector<float>& cal,
                   std::uint32_t golden) {
  auto model = std::shared_ptr<nn::Sequential>(fixture_model());
  return {name, ppnn_bytes(cal), golden, [model](const std::string& b) {
            std::vector<float> ranges;
            return accepts_stream(b, [&](std::istream& in) {
              nn::load_parameters(in, *model, &ranges);
            });
          }};
}

Format ppde_format() {
  return {"PPDE", ppde_bytes(), 0x7E080090u, [](const std::string& b) {
            return accepts_stream(
                b, [](std::istream& in) { (void)core::read_ensemble(in); });
          }};
}

// File formats: the loader overwrites the fixture's own file.
Format pptc_format() {
  const std::string path = core::save_rank_checkpoint(
      fresh_dir("framed_pptc"), 1, fixture_snapshot());
  return {"PPTC", file_bytes(path), 0x55F79A14u,
          [path](const std::string& b) {
            put_file(path, b);
            int rank = -1;
            core::TrainerSnapshot snap;
            std::string why;
            const bool ok = core::read_rank_checkpoint(path, &rank, &snap, &why);
            EXPECT_TRUE(ok || !why.empty()) << "rejected without a reason";
            return ok;
          }};
}

Format ppes_format() {
  const std::string dir = fresh_dir("framed_ppes");
  const std::string path =
      elastic::save_task_state(dir, kTask, kStep, fixture_interior());
  return {"PPES", file_bytes(path), 0xF63D4B15u,
          [dir, path](const std::string& b) {
            put_file(path, b);
            Tensor out;
            std::string why;
            const bool ok = elastic::load_task_state(dir, kTask, kStep, &out,
                                                     &why);
            EXPECT_TRUE(ok || !why.empty()) << "rejected without a reason";
            return ok;
          }};
}

std::vector<Format> all_formats() {
  std::vector<Format> formats;
  formats.push_back(ppnn_format("PPNN v2", {}, 0xD5B68B14u));
  formats.push_back(ppnn_format("PPNN v3", kCalibration, 0xEF6C54C3u));
  formats.push_back(ppde_format());
  formats.push_back(pptc_format());
  formats.push_back(ppes_format());
  return formats;
}

// Runs one load that must be rejected and checks its allocation bound.
void expect_rejected(const Format& format, const std::string& bytes,
                     const std::string& what) {
  bool accepted = true;
  std::size_t largest = 0;
  {
    AllocWatch watch;
    accepted = format.accepts(bytes);
    largest = AllocWatch::largest();
  }
  EXPECT_FALSE(accepted) << format.name << ": " << what << " was accepted";
  EXPECT_LE(largest, bytes.size() + kChunkSlack)
      << format.name << ": " << what << " allocated " << largest << " bytes";
}

// --- the golden bytes and the mutation sweep ----------------------------------

TEST(FramedFormats, FixturesMatchTheirGoldenDigestsAndLoad) {
  for (const auto& format : all_formats()) {
    SCOPED_TRACE(format.name);
    EXPECT_LE(format.bytes.size(), 4096u);
    EXPECT_EQ(util::crc32(format.bytes.data(), format.bytes.size()),
              format.golden_crc)
        << "the on-disk format changed";
    EXPECT_TRUE(format.accepts(format.bytes));
  }
}

TEST(FramedFormats, EveryTruncationIsRejected) {
  for (const auto& format : all_formats()) {
    for (std::size_t len = 0; len < format.bytes.size(); ++len) {
      expect_rejected(format, format.bytes.substr(0, len),
                      "truncation to " + std::to_string(len) + " bytes");
    }
  }
}

TEST(FramedFormats, EverySingleByteCorruptionIsRejected) {
  util::Rng rng(2024);
  for (const auto& format : all_formats()) {
    for (std::size_t off = 0; off < format.bytes.size(); ++off) {
      const auto mask = static_cast<char>(1 + rng.index(255));
      std::string mutated = format.bytes;
      mutated[off] = static_cast<char>(mutated[off] ^ mask);
      expect_rejected(format, mutated,
                      "xor " + std::to_string(static_cast<unsigned char>(mask)) +
                          " at offset " + std::to_string(off));
    }
  }
}

// A decoder must consume its whole payload: a valid envelope around a payload
// with one byte too many is rejected, not half-read.
TEST(FramedFormats, TrailingPayloadBytesAreRejected) {
  constexpr std::size_t kHeader = 4 + 4 + 8 + 4;
  for (const auto& format : all_formats()) {
    std::uint32_t version = 0;
    std::memcpy(&version, format.bytes.data() + 4, sizeof(version));
    const std::string reframed = util::frame(
        format.bytes.substr(0, 4), version,
        format.bytes.substr(kHeader) + std::string(1, '\0'));
    expect_rejected(format, reframed, "one trailing payload byte");
  }
}

// The version word sits outside the CRC. Flipping v3 to v2 must not load the
// weights while silently dropping the calibration ranges.
TEST(FramedFormats, PpnnV3FlippedToV2IsRejected) {
  std::string bytes = ppnn_bytes(kCalibration);
  ASSERT_EQ(bytes[4], 3);
  bytes[4] = static_cast<char>(bytes[4] ^ 1);
  auto model = fixture_model();
  std::vector<float> ranges;
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(nn::load_parameters(in, *model, &ranges), util::FormatError);
}

TEST(FramedFormats, PpnnRoundTripsCalibration) {
  auto model = fixture_model();
  std::vector<float> ranges{9.0f};
  std::istringstream v3(ppnn_bytes(kCalibration), std::ios::binary);
  nn::load_parameters(v3, *model, &ranges);
  EXPECT_EQ(ranges, kCalibration);
  std::istringstream v2(ppnn_bytes({}), std::ios::binary);
  nn::load_parameters(v2, *model, &ranges);
  EXPECT_TRUE(ranges.empty());
}

// --- lying lengths ------------------------------------------------------------

// One corrupted high byte of a PPES payload length claims gigabytes; the
// load must fail as truncation after allocating no more than the file.
TEST(FramedFormats, LyingPpesLengthFailsAsTruncationWithoutAllocating) {
  const std::string dir = fresh_dir("framed_ppes_len");
  const std::string path =
      elastic::save_task_state(dir, kTask, kStep, fixture_interior());
  std::string bytes = file_bytes(path);
  bytes[11] = static_cast<char>(0xE0);  // u64 length at 8..15: +3.5 GiB
  put_file(path, bytes);
  Tensor out;
  std::string why;
  bool ok = true;
  std::size_t largest = 0;
  {
    AllocWatch watch;
    ok = elastic::load_task_state(dir, kTask, kStep, &out, &why);
    largest = AllocWatch::largest();
  }
  EXPECT_FALSE(ok);
  EXPECT_NE(why.find("truncated"), std::string::npos) << why;
  EXPECT_LE(largest, bytes.size() + kChunkSlack);
}

// A stream that cannot seek cannot report its length: read_verified then
// reads in bounded chunks, so the lie still costs at most one chunk.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(FramedFile, LyingLengthOnAnUnseekableStreamReadsInBoundedChunks) {
  std::string bytes = util::frame("ABCD", 1, "payload");
  bytes[13] = 0x01;  // length + 2^40
  UnseekableBuf buf(bytes);
  std::istream in(&buf);
  ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));
  std::size_t largest = 0;
  try {
    AllocWatch watch;
    (void)util::read_verified(in, "ABCD", {1});
    ADD_FAILURE() << "lying length accepted";
  } catch (const util::FormatError& e) {
    largest = AllocWatch::largest();
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  EXPECT_LE(largest, bytes.size() + kChunkSlack);
}

// PPFR frame files are unframed; their PPDT tensors must still reject a
// corrupt extent with FormatError before allocating for it (not with
// gigabytes of RSS or an untyped std::bad_alloc).
TEST(FramedFormats, CorruptTensorExtentInAFrameFileIsAFormatError) {
  const std::string path =
      (std::filesystem::path(fresh_dir("framed_ppfr")) / "f.ppfr").string();
  const std::vector<Tensor> frames = {fixture_interior(), fixture_interior()};
  data::save_frames(path, frames);
  const std::string pristine = file_bytes(path);
  // PPFR header (12 bytes), then the first PPDT: magic, version, ndim (12
  // bytes), dims as i64 from offset 24.
  constexpr std::size_t kDim0 = 24;
  const std::pair<std::size_t, unsigned char> edits[] = {
      {kDim0 + 3, 0x7f}, {kDim0 + 4, 0x7f}, {kDim0 + 7, 0x80}};
  for (const auto& [offset, value] : edits) {
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(value);
    put_file(path, bytes);
    std::size_t largest = 0;
    {
      AllocWatch watch;
      EXPECT_THROW((void)data::load_frames(path), util::FormatError)
          << "byte " << offset;
      largest = AllocWatch::largest();
    }
    EXPECT_LE(largest, bytes.size() + kChunkSlack) << "byte " << offset;
  }
}

TEST(FramedFile, TensorShapeWhoseElementCountOverflowsIsRejected) {
  std::ostringstream out(std::ios::binary);
  out.write("PPDT", 4);
  util::write_pod(out, std::uint32_t{1});
  util::write_pod(out, std::uint32_t{2});
  util::write_pod(out, std::int64_t{1} << 40);
  util::write_pod(out, std::int64_t{1} << 40);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)read_tensor(in), util::FormatError);
}

// --- the module's own contract ------------------------------------------------

TEST(FramedFile, FrameRoundTripsAndChecksMagicAndVersion) {
  const std::string bytes = util::frame("ABCD", 7, "hello");
  ASSERT_EQ(bytes.size(), 4u + 4 + 8 + 4 + 5);
  {
    std::istringstream in(bytes, std::ios::binary);
    const auto framed = util::read_verified(in, "ABCD", {6, 7});
    EXPECT_EQ(framed.version, 7u);
    EXPECT_EQ(framed.payload, "hello");
  }
  const auto message = [&](std::string_view magic,
                           std::initializer_list<std::uint32_t> versions) {
    std::istringstream in(bytes, std::ios::binary);
    try {
      (void)util::read_verified(in, magic, versions);
    } catch (const util::FormatError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message("ABCE", {7}).find("magic"), std::string::npos);
  EXPECT_NE(message("ABCD", {1, 2}).find("version 7"), std::string::npos);
  std::string corrupt = bytes;
  corrupt.back() = 'O';
  std::istringstream in(corrupt, std::ios::binary);
  try {
    (void)util::read_verified(in, "ABCD", {7});
    ADD_FAILURE() << "corrupt payload accepted";
  } catch (const util::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(FramedFile, WriteAtomicReplacesTheFileAndLeavesNoTemporary) {
  const std::string path =
      (std::filesystem::path(fresh_dir("framed_atomic")) / "x.bin").string();
  util::write_atomic(path, "first");
  util::write_atomic(path, "second");
  EXPECT_EQ(file_bytes(path), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_THROW(util::write_atomic("/nonexistent-dir/x.bin", "x"),
               std::runtime_error);
}

// save_frames (PPFR) and save_tensor (PPDT) replace their file atomically
// too: when the temporary cannot be written (here `<path>.tmp` is a
// directory) the save throws and the previous file survives byte for byte.
TEST(FramedFile, FailedFrameAndTensorSavesLeaveTheOldFile) {
  const auto dir = std::filesystem::path(fresh_dir("framed_failed_saves"));
  const std::string ppfr = (dir / "f.ppfr").string();
  const std::string ppdt = (dir / "t.ppdt").string();
  const std::vector<Tensor> frames = {fixture_interior(), fixture_interior()};
  data::save_frames(ppfr, frames);
  save_tensor(ppdt, frames[0]);
  const std::string old_ppfr = file_bytes(ppfr);
  const std::string old_ppdt = file_bytes(ppdt);

  const std::vector<Tensor> other = {Tensor({1, 2, 2}), Tensor({1, 2, 2})};
  std::filesystem::create_directory(ppfr + ".tmp");
  std::filesystem::create_directory(ppdt + ".tmp");
  EXPECT_THROW(data::save_frames(ppfr, other), std::runtime_error);
  EXPECT_THROW(save_tensor(ppdt, other[0]), std::runtime_error);
  EXPECT_EQ(file_bytes(ppfr), old_ppfr);
  EXPECT_EQ(file_bytes(ppdt), old_ppdt);

  std::filesystem::remove(ppfr + ".tmp");
  std::filesystem::remove(ppdt + ".tmp");
  data::save_frames(ppfr, other);
  save_tensor(ppdt, other[0]);
  EXPECT_EQ(data::load_frames(ppfr).size(), other.size());
  EXPECT_TRUE(load_tensor(ppdt).same_shape(other[0]));
  EXPECT_FALSE(std::filesystem::exists(ppfr + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(ppdt + ".tmp"));
}

// nn::save_checkpoint and core::save_ensemble go through write_atomic and
// write exactly the stream format.
TEST(FramedFile, WholeFileSavesWriteTheStreamBytes) {
  const auto dir = std::filesystem::path(fresh_dir("framed_saves"));
  auto model = fixture_model();
  nn::save_checkpoint((dir / "m.ppnn").string(), *model, kCalibration);
  EXPECT_EQ(file_bytes((dir / "m.ppnn").string()), ppnn_bytes(kCalibration));
  std::istringstream in(ppde_bytes(), std::ios::binary);
  core::save_ensemble((dir / "e.ppde").string(), core::read_ensemble(in));
  EXPECT_EQ(file_bytes((dir / "e.ppde").string()), ppde_bytes());
  EXPECT_FALSE(std::filesystem::exists(dir / "m.ppnn.tmp"));
}

}  // namespace
}  // namespace parpde
