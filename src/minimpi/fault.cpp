#include "minimpi/fault.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

namespace parpde::mpi::fault {

namespace {

// SplitMix64 finalizer: the deterministic hash behind probability draws and
// corruption positions.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Uniform [0, 1) from a hash value.
double unit_double(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Installed plan plus its runtime bookkeeping. Guarded by g_mutex; the
// fast-path enabled() check is the lone atomic.
struct Engine {
  FaultPlan plan;
  // Per (rule, source, dest, tag) message sequence number.
  std::map<std::tuple<std::size_t, int, int, int>, std::uint64_t> channel_seq;
  std::vector<std::uint64_t> rule_hits;  // total applications per rule
  std::map<int, std::uint64_t> sends_by_rank;
  bool killed = false;  // the kill directive fired already

  explicit Engine(FaultPlan p)
      : plan(std::move(p)), rule_hits(plan.rules().size(), 0) {}
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::unique_ptr<Engine> g_engine;  // guarded by g_mutex

// --- PARPDE_FAULT parsing ---------------------------------------------------

[[noreturn]] void parse_error(const std::string& segment,
                              const std::string& why) {
  throw std::invalid_argument("FaultPlan::parse: bad segment '" + segment +
                              "': " + why);
}

long parse_long(const std::string& segment, const std::string& text) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty()) {
    parse_error(segment, "expected an integer, got '" + text + "'");
  }
  return v;
}

double parse_double(const std::string& segment, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    parse_error(segment, "expected a number, got '" + text + "'");
  }
  return v;
}

std::vector<std::pair<std::string, std::string>> parse_kv(
    const std::string& segment, const std::string& body) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t start = 0;
  while (start < body.size()) {
    std::size_t end = body.find(',', start);
    if (end == std::string::npos) end = body.size();
    const std::string item = body.substr(start, end - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      parse_error(segment, "expected key=value, got '" + item + "'");
    }
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    start = end + 1;
  }
  return out;
}

void parse_tag_range(const std::string& segment, const std::string& text,
                     Rule* rule) {
  const std::size_t dash = text.find('-', 1);  // allow a leading minus sign
  if (dash == std::string::npos) {
    rule->tag_lo = rule->tag_hi = static_cast<int>(parse_long(segment, text));
  } else {
    rule->tag_lo = static_cast<int>(parse_long(segment, text.substr(0, dash)));
    rule->tag_hi = static_cast<int>(parse_long(segment, text.substr(dash + 1)));
  }
  if (rule->tag_lo > rule->tag_hi) parse_error(segment, "empty tag range");
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string segment = spec.substr(start, end - start);
    start = end + 1;
    if (segment.empty()) continue;

    const std::size_t colon = segment.find(':');
    const std::string head = segment.substr(0, colon);
    if (colon == std::string::npos) {
      // Only the bare "seed=N" segment has no action prefix.
      const std::size_t eq = segment.find('=');
      if (eq == std::string::npos || segment.substr(0, eq) != "seed") {
        parse_error(segment, "expected 'seed=N' or '<action>:k=v,...'");
      }
      plan.seed_ = static_cast<std::uint64_t>(
          parse_long(segment, segment.substr(eq + 1)));
      continue;
    }

    const auto kv = parse_kv(segment, segment.substr(colon + 1));
    if (head == "kill") {
      KillSpec kill;
      for (const auto& [k, v] : kv) {
        if (k == "rank") kill.rank = static_cast<int>(parse_long(segment, v));
        else if (k == "epoch") kill.at_epoch = static_cast<int>(parse_long(segment, v));
        else if (k == "step") kill.at_step = static_cast<int>(parse_long(segment, v));
        else if (k == "sends") kill.after_sends = static_cast<std::uint64_t>(parse_long(segment, v));
        else parse_error(segment, "unknown kill key '" + k + "'");
      }
      if (kill.rank < 0) parse_error(segment, "kill needs rank=N");
      if (kill.at_epoch < 0 && kill.at_step < 0 && kill.after_sends == 0) {
        parse_error(segment, "kill needs epoch=N, step=N or sends=N");
      }
      plan.kill_ = kill;
      continue;
    }

    Rule rule;
    if (head == "drop") rule.action = Action::kDrop;
    else if (head == "delay") rule.action = Action::kDelay;
    else if (head == "dup") rule.action = Action::kDuplicate;
    else if (head == "corrupt") rule.action = Action::kCorrupt;
    else parse_error(segment, "unknown action '" + head + "'");
    for (const auto& [k, v] : kv) {
      if (k == "tag") parse_tag_range(segment, v, &rule);
      else if (k == "src") rule.source = static_cast<int>(parse_long(segment, v));
      else if (k == "dst") rule.dest = static_cast<int>(parse_long(segment, v));
      else if (k == "prob") rule.probability = parse_double(segment, v);
      else if (k == "max") rule.max_hits = static_cast<int>(parse_long(segment, v));
      else if (k == "ms") rule.delay_ms = static_cast<int>(parse_long(segment, v));
      else parse_error(segment, "unknown key '" + k + "'");
    }
    if (rule.probability < 0.0 || rule.probability > 1.0) {
      parse_error(segment, "prob must be in [0, 1]");
    }
    if (rule.action == Action::kDelay && rule.delay_ms <= 0) {
      parse_error(segment, "delay needs ms=N");
    }
    plan.rules_.push_back(rule);
  }
  return plan;
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void install(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_engine = std::make_unique<Engine>(std::move(plan));
  g_enabled.store(true, std::memory_order_relaxed);
}

void uninstall() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_enabled.store(false, std::memory_order_relaxed);
  g_engine.reset();
}

bool install_from_env() {
  const char* spec = std::getenv("PARPDE_FAULT");
  if (spec == nullptr || *spec == '\0') return false;
  install(FaultPlan::parse(spec));
  return true;
}

Decision on_send(int source, int dest, int tag) {
  Decision decision;
  if (!enabled()) return decision;
  int delay_ms = 0;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_engine) return decision;
    const auto& rules = g_engine->plan.rules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = rules[i];
      if (!rule.matches(source, dest, tag)) continue;
      if (rule.max_hits >= 0 &&
          g_engine->rule_hits[i] >=
              static_cast<std::uint64_t>(rule.max_hits)) {
        continue;
      }
      // Per-channel sequence number keeps the draw deterministic under any
      // thread interleaving (order within a channel is program order).
      const std::uint64_t seq =
          g_engine->channel_seq[{i, source, dest, tag}]++;
      if (rule.probability < 1.0) {
        const std::uint64_t h = mix64(
            g_engine->plan.seed() ^ mix64(i * 0x10001ull) ^
            mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag))
                   << 32) |
                  (static_cast<std::uint64_t>(static_cast<std::uint16_t>(
                       source))
                   << 16) |
                  static_cast<std::uint16_t>(dest)) ^
            seq);
        if (unit_double(h) >= rule.probability) continue;
      }
      ++g_engine->rule_hits[i];
      switch (rule.action) {
        case Action::kDrop: decision.drop = true; break;
        case Action::kDuplicate: decision.duplicate = true; break;
        case Action::kCorrupt: decision.corrupt = true; break;
        case Action::kDelay: delay_ms = std::max(delay_ms, rule.delay_ms); break;
      }
    }
  }
  // Sleep outside the lock so a delayed sender never stalls other ranks'
  // fault decisions.
  if (delay_ms > 0) {
    decision.delay_ms = delay_ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return decision;
}

void on_send_complete(int rank) {
  if (!enabled()) return;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_engine || g_engine->killed) return;
    const KillSpec& kill = g_engine->plan.kill();
    if (kill.rank != rank || kill.after_sends == 0) return;
    if (++g_engine->sends_by_rank[rank] >= kill.after_sends) {
      g_engine->killed = true;
      fire = true;
    }
  }
  if (fire) {
    throw RankFailure("fault injection: rank " + std::to_string(rank) +
                      " killed after send quota");
  }
}

void check_kill_epoch(int rank, int epoch) {
  if (!enabled()) return;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_engine || g_engine->killed) return;
    const KillSpec& kill = g_engine->plan.kill();
    if (kill.rank != rank || kill.at_epoch < 0 || epoch < kill.at_epoch) return;
    g_engine->killed = true;
    fire = true;
  }
  if (fire) {
    throw RankFailure("fault injection: rank " + std::to_string(rank) +
                          " killed at epoch " + std::to_string(epoch),
                      epoch);
  }
}

void check_kill_step(int rank, int step) {
  if (!enabled()) return;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_engine || g_engine->killed) return;
    const KillSpec& kill = g_engine->plan.kill();
    if (kill.rank != rank || kill.at_step < 0 || step < kill.at_step) return;
    g_engine->killed = true;
    fire = true;
  }
  if (fire) {
    throw RankFailure("fault injection: rank " + std::to_string(rank) +
                          " killed at step " + std::to_string(step),
                      -1, step);
  }
}

void corrupt_payload(std::span<std::byte> payload, std::uint64_t salt) {
  if (payload.empty()) return;
  std::uint64_t seed = 1;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (g_engine) seed = g_engine->plan.seed();
  }
  const std::uint64_t h = mix64(seed ^ mix64(salt));
  const std::size_t pos = static_cast<std::size_t>(h % payload.size());
  // XOR with a nonzero mask so the byte always actually changes.
  const auto mask = static_cast<unsigned char>(((h >> 32) & 0xFFu) | 0x01u);
  payload[pos] ^= std::byte{mask};
}

}  // namespace parpde::mpi::fault
