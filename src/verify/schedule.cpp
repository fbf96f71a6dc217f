#include "verify/schedule.hpp"

#ifndef PARPDE_VERIFY_OFF

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "verify/vector_clock.hpp"

namespace parpde::verify {

namespace {

// SplitMix64 finalizer (same constants as util::Rng's stream fork): the
// decision function is mix(seed ^ key), so decisions are pure in the key.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t key4(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c) {
  return mix(mix(mix(mix(kind) ^ a) ^ b) ^ c);
}

// Event-kind salts so a delivery key can never collide with a barrier key.
constexpr std::uint64_t kKindDelivery = 0xD0;
constexpr std::uint64_t kKindMatch = 0xC0;
constexpr std::uint64_t kKindWait = 0xA0;
constexpr std::uint64_t kKindBarrier = 0xB0;
constexpr std::uint64_t kKindPool = 0xF0;
constexpr std::uint64_t kKindMailboxChain = 0x10;
constexpr std::uint64_t kKindRecvChain = 0x20;

// Sources are >= 0 at the hook sites (kProcNull sends are dropped upstream);
// the +2 keeps kAnySource (-1) distinct anyway.
std::uint64_t src_u(int source) {
  return static_cast<std::uint64_t>(source + 2);
}

// The rank the calling thread executes, -1 off-rank (mirrors telemetry's
// thread rank but kept separate so verify has no util dependency).
thread_local int t_rank = -1;

struct BarrierGen {
  VectorClock clock;
  int exits = 0;
  int size = 0;
};

class Scheduler {
 public:
  void install(Schedule s) {
    std::lock_guard<std::mutex> lock(mu_);
    sched_ = std::move(s);
    only_.clear();
    for (std::uint64_t k : sched_.only) only_.insert(k);
    // Reset all per-run state so reports from different schedules compare.
    clocks_.assign(clocks_.size(), VectorClock{});
    recv_chain_.assign(recv_chain_.size(), 0);
    channel_seq_.clear();
    wait_seq_.clear();
    decisions_.clear();
    fired_.clear();
    push_chain_.clear();
    pool_claims_.clear();
    barrier_gens_.clear();
    barrier_chain_ = 0;
    pool_accum_ = 0;
    pool_jobs_ = 0;
    events_ = deliveries_ = perturbed_ = choice_ = order_sensitive_ = 0;
  }

  void begin_run(int ranks) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto n = static_cast<std::size_t>(ranks);
    if (clocks_.size() < n) clocks_.resize(n);
    if (recv_chain_.size() < n) recv_chain_.resize(n, 0);
  }

  std::size_t delivery_slot(int dest, int source, int tag, std::size_t lo,
                            std::size_t hi,
                            std::vector<std::uint32_t>* clock_out) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t channel =
        key4(kKindDelivery, static_cast<std::uint64_t>(dest), src_u(source),
             static_cast<std::uint64_t>(tag));
    const std::uint64_t seq = channel_seq_[channel]++;
    const std::uint64_t key = mix(channel ^ mix(seq));
    const bool perturb = draw(key);
    decisions_[key] = perturb;
    ++events_;
    ++deliveries_;
    std::size_t pos = hi;
    if (perturb && lo < hi) {
      pos = lo;  // front-run to the earliest legal slot
      ++perturbed_;
      fired_.push_back(key);
    }
    // Trace: per-mailbox delivery chain, ordered by actual queue position so
    // interleavings that reorder visible deliveries hash differently.
    std::uint64_t& chain = push_chain_[dest];
    chain = mix(chain ^ key ^ mix(static_cast<std::uint64_t>(pos)));
    // Send is an event on the sender's clock; the stamped copy rides the
    // message so the receive edge can join it.
    const int r = t_rank;
    if (r >= 0) {
      auto rr = static_cast<std::size_t>(r);
      if (clocks_.size() <= rr) clocks_.resize(rr + 1);
      clocks_[rr].tick(rr);
      if (clock_out != nullptr) *clock_out = clocks_[rr].components();
    }
    return pos;
  }

  void match(int owner, int source_sel, int tag,
             const MatchCandidate* candidates, std::size_t count,
             std::size_t chosen) {
    std::lock_guard<std::mutex> lock(mu_);
    ++events_;
    if (chosen >= count || candidates == nullptr) return;
    const MatchCandidate& pick = candidates[chosen];
    // Per-rank receive sequence: which source fed each receive, in order.
    auto rr = static_cast<std::size_t>(owner);
    if (recv_chain_.size() <= rr) recv_chain_.resize(rr + 1, 0);
    recv_chain_[rr] =
        mix(recv_chain_[rr] ^ key4(kKindMatch, static_cast<std::uint64_t>(owner),
                                   src_u(pick.source),
                                   static_cast<std::uint64_t>(tag)));
    // Any-source audit: more than one eligible sender means the program
    // accepted a scheduling choice; if the candidates are concurrent (no
    // happens-before edge orders them) the chosen value is order-sensitive.
    if (source_sel < 0 && count > 1) {
      bool multi_source = false;
      bool concurrent = false;
      for (std::size_t i = 0; i < count; ++i) {
        if (i == chosen) continue;
        if (candidates[i].source != pick.source) multi_source = true;
        if (pick.clock != nullptr && candidates[i].clock != nullptr &&
            clocks_concurrent(*pick.clock, *candidates[i].clock)) {
          concurrent = true;
        }
      }
      if (multi_source) ++choice_;
      if (multi_source && concurrent) ++order_sensitive_;
    }
    // Receive edge: join the sender's stamped clock, then tick.
    if (clocks_.size() <= rr) clocks_.resize(rr + 1);
    if (pick.clock != nullptr) clocks_[rr].join(*pick.clock);
    clocks_[rr].tick(rr);
  }

  bool wait_jitter(int owner, int source, int tag) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sched_.yields) return false;
    const std::uint64_t channel =
        key4(kKindWait, static_cast<std::uint64_t>(owner), src_u(source),
             static_cast<std::uint64_t>(tag));
    const std::uint64_t seq = wait_seq_[channel]++;
    return yield_draw(mix(channel ^ mix(seq)));
  }

  void barrier_arrive(int rank, std::uint64_t generation, int arrival_index,
                      int size) {
    std::lock_guard<std::mutex> lock(mu_);
    ++events_;
    barrier_chain_ = mix(barrier_chain_ ^
                         key4(kKindBarrier, static_cast<std::uint64_t>(rank),
                              generation,
                              static_cast<std::uint64_t>(arrival_index)));
    auto rr = static_cast<std::size_t>(rank);
    if (clocks_.size() <= rr) clocks_.resize(rr + 1);
    clocks_[rr].tick(rr);
    BarrierGen& gen = barrier_gens_[generation];
    gen.size = size;
    gen.clock.join(clocks_[rr]);
  }

  bool barrier_exit(int rank, std::uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = barrier_gens_.find(generation);
    if (it != barrier_gens_.end()) {
      auto rr = static_cast<std::size_t>(rank);
      if (clocks_.size() <= rr) clocks_.resize(rr + 1);
      clocks_[rr].join(it->second.clock);
      if (++it->second.exits >= it->second.size) barrier_gens_.erase(it);
    }
    if (!sched_.yields) return false;
    return yield_draw(key4(kKindBarrier + 1,
                           static_cast<std::uint64_t>(rank), generation, 0));
  }

  std::uint64_t pool_job_begin() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++pool_jobs_;
  }

  bool pool_chunk(std::uint64_t job_id, std::int64_t begin) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t claim = pool_claims_[job_id]++;
    // Commutative across jobs (job ids are arrival-ordered and therefore
    // racy), ordered within a job by claim index.
    pool_accum_ +=
        key4(kKindPool, claim, static_cast<std::uint64_t>(begin), 0);
    if (!sched_.yields) return false;
    return yield_draw(key4(kKindPool + 1, claim,
                           static_cast<std::uint64_t>(begin), 0));
  }

  RunReport snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    RunReport rep;
    rep.events = events_;
    rep.deliveries = deliveries_;
    rep.perturbed = perturbed_;
    rep.choice_matches = choice_;
    rep.order_sensitive = order_sensitive_;
    rep.fired_keys = fired_;
    // Ordered map view so two runs of the same spec produce identical logs.
    std::map<std::uint64_t, bool> ordered(decisions_.begin(), decisions_.end());
    rep.decisions.assign(ordered.begin(), ordered.end());
    // Trace signature: commutative combination of the per-entity chains, so
    // the hash is independent of which rank's events were *recorded* first
    // but sensitive to every order some rank could observe.
    std::uint64_t sum = barrier_chain_ + pool_accum_;
    for (const auto& [dest, chain] : push_chain_) {
      sum += mix(key4(kKindMailboxChain,
                      static_cast<std::uint64_t>(dest), 0, 0) ^
                 chain);
    }
    for (std::size_t r = 0; r < recv_chain_.size(); ++r) {
      sum += mix(key4(kKindRecvChain, r, 0, 0) ^ recv_chain_[r]);
    }
    rep.trace_hash = mix(sum ^ events_);
    return rep;
  }

 private:
  // Perturbation decision for a delivery key: replay set if present,
  // otherwise a seeded percentage draw.
  bool draw(std::uint64_t key) const {
    if (!only_.empty()) return only_.count(key) != 0;
    if (sched_.perturb_pct <= 0) return false;
    return mix(sched_.seed ^ key) % 100 <
           static_cast<std::uint64_t>(sched_.perturb_pct);
  }
  // Yield jitter fires at a fixed 25% of eligible points.
  bool yield_draw(std::uint64_t key) const {
    if (!only_.empty()) return false;  // replay mode: deliveries only
    return mix(sched_.seed ^ mix(key)) % 4 == 0;
  }

  mutable std::mutex mu_;
  Schedule sched_;
  std::unordered_set<std::uint64_t> only_;
  std::vector<VectorClock> clocks_;           // per rank
  std::vector<std::uint64_t> recv_chain_;     // per rank
  std::unordered_map<std::uint64_t, std::uint64_t> channel_seq_;
  std::unordered_map<std::uint64_t, std::uint64_t> wait_seq_;
  std::unordered_map<std::uint64_t, bool> decisions_;
  std::vector<std::uint64_t> fired_;
  std::unordered_map<int, std::uint64_t> push_chain_;  // per mailbox
  std::unordered_map<std::uint64_t, std::uint64_t> pool_claims_;
  std::unordered_map<std::uint64_t, BarrierGen> barrier_gens_;
  std::uint64_t barrier_chain_ = 0;
  std::uint64_t pool_accum_ = 0;
  std::uint64_t pool_jobs_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t perturbed_ = 0;
  std::uint64_t choice_ = 0;
  std::uint64_t order_sensitive_ = 0;
};

std::atomic<bool> g_active{false};

Scheduler& scheduler() {
  static Scheduler s;
  return s;
}

}  // namespace

bool active() noexcept { return g_active.load(std::memory_order_relaxed); }

void install(Schedule schedule) {
  scheduler().install(std::move(schedule));
  g_active.store(true, std::memory_order_release);
}

void uninstall() { g_active.store(false, std::memory_order_release); }

bool install_from_env() {
  if (active()) return true;
  const char* spec = std::getenv("PARPDE_SCHEDULE");
  if (spec == nullptr || *spec == '\0') return false;
  install(Schedule::parse(spec));
  return true;
}

RunReport report() { return scheduler().snapshot(); }

void hook_run_begin(int ranks) {
  // First-run env pickup: lets any binary be replayed via PARPDE_SCHEDULE
  // without code changes (mirrors fault::install_from_env).
  static const bool env_checked = [] {
    install_from_env();
    return true;
  }();
  (void)env_checked;
  if (active()) scheduler().begin_run(ranks);
}

void hook_thread_rank(int rank) { t_rank = rank; }

std::size_t hook_delivery_slot(int dest, int source, int tag, std::size_t lo,
                               std::size_t hi,
                               std::vector<std::uint32_t>* clock_out) {
  if (!active()) return hi;
  return scheduler().delivery_slot(dest, source, tag, lo, hi, clock_out);
}

void hook_match(int owner, int source_sel, int tag,
                const MatchCandidate* candidates, std::size_t count,
                std::size_t chosen) {
  if (!active()) return;
  scheduler().match(owner, source_sel, tag, candidates, count, chosen);
}

void hook_recv_wait(int owner, int source, int tag) {
  if (!active()) return;
  if (scheduler().wait_jitter(owner, source, tag)) std::this_thread::yield();
}

void hook_barrier_arrive(int rank, std::uint64_t generation, int arrival_index,
                         int size) {
  if (!active()) return;
  scheduler().barrier_arrive(rank, generation, arrival_index, size);
}

void hook_barrier_exit(int rank, std::uint64_t generation) {
  if (!active()) return;
  if (scheduler().barrier_exit(rank, generation)) std::this_thread::yield();
}

std::uint64_t hook_pool_job_begin() {
  if (!active()) return 0;
  return scheduler().pool_job_begin();
}

void hook_pool_chunk(std::uint64_t job_id, std::int64_t begin) {
  if (!active() || job_id == 0) return;
  if (scheduler().pool_chunk(job_id, begin)) std::this_thread::yield();
}

// --- Schedule spec ---------------------------------------------------------

std::string Schedule::spec() const {
  std::string s = "seed=" + std::to_string(seed);
  s += ";p=" + std::to_string(perturb_pct);
  s += ";yields=";
  s += yields ? "1" : "0";
  if (!only.empty()) {
    s += ";only=";
    for (std::size_t i = 0; i < only.size(); ++i) {
      if (i != 0) s += ",";
      char buf[17];
      std::snprintf(buf, sizeof(buf), "%llx",
                    static_cast<unsigned long long>(only[i]));
      s += buf;
    }
  }
  return s;
}

namespace {

std::uint64_t parse_u64(const std::string& tok, int base, const char* what) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(tok, &used, base);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != tok.size() || tok.empty()) {
    throw std::invalid_argument(std::string("PARPDE_SCHEDULE: bad ") + what +
                                " value '" + tok + "'");
  }
  return value;
}

}  // namespace

Schedule Schedule::parse(const std::string& spec) {
  Schedule s;
  bool have_seed = false;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t end = spec.find(';', pos);
    const std::string field =
        spec.substr(pos, end == std::string::npos ? end : end - pos);
    pos = end == std::string::npos ? spec.size() + 1 : end + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("PARPDE_SCHEDULE: field '" + field +
                                  "' is not key=value");
    }
    const std::string k = field.substr(0, eq);
    const std::string v = field.substr(eq + 1);
    if (k == "seed") {
      s.seed = parse_u64(v, 10, "seed");
      have_seed = true;
    } else if (k == "p") {
      const std::uint64_t p = parse_u64(v, 10, "p");
      if (p > 100) {
        throw std::invalid_argument("PARPDE_SCHEDULE: p must be 0..100");
      }
      s.perturb_pct = static_cast<int>(p);
    } else if (k == "yields") {
      if (v != "0" && v != "1") {
        throw std::invalid_argument("PARPDE_SCHEDULE: yields must be 0 or 1");
      }
      s.yields = v == "1";
    } else if (k == "only") {
      std::size_t p2 = 0;
      while (p2 <= v.size()) {
        const std::size_t c = v.find(',', p2);
        const std::string tok =
            v.substr(p2, c == std::string::npos ? c : c - p2);
        p2 = c == std::string::npos ? v.size() + 1 : c + 1;
        if (!tok.empty()) s.only.push_back(parse_u64(tok, 16, "only key"));
      }
    } else {
      throw std::invalid_argument("PARPDE_SCHEDULE: unknown field '" + k +
                                  "'");
    }
  }
  if (!have_seed) {
    throw std::invalid_argument("PARPDE_SCHEDULE: missing seed=");
  }
  return s;
}

}  // namespace parpde::verify

#endif  // PARPDE_VERIFY_OFF
