#pragma once

// Deterministic fault injection for the minimpi substrate.
//
// A FaultPlan is a seeded list of message-fault rules (drop, delay, duplicate,
// bit-corrupt) scoped by tag/source/destination, plus an optional rank-kill
// directive. Installed process-wide (programmatically or via the PARPDE_FAULT
// environment variable), it is consulted by Communicator::send_bytes on every
// message and by the cooperative kill points in the trainers. When no plan is
// installed every hook is one relaxed atomic load, and message semantics are
// byte-identical to a build without this header.
//
// Determinism: each rule keeps an independent hit sequence per message channel
// (source, dest, tag), and the probability draw hashes (seed, rule, channel,
// sequence). Message order within a channel is program order, so a seeded
// plan produces the same faults on every run regardless of thread
// interleaving, provided probabilistic rules are scoped to a single channel
// (exact tag/source/dest) — the recommended usage. Rules matching several
// channels stay per-channel deterministic but share max_hits globally.
//
// PARPDE_FAULT grammar (segments separated by ';'):
//   seed=N                          RNG seed for probability draws
//   drop:tag=4096-4099,src=1,dst=0,prob=0.5,max=3
//   delay:tag=4096,ms=50
//   dup:tag=4200
//   corrupt:tag=4096,prob=0.25
//   kill:rank=2,epoch=1             cooperative kill at an epoch boundary
//   kill:rank=2,step=5              cooperative kill at a rollout step boundary
//   kill:rank=2,sends=10            kill after the rank's 10th send
// Omitted selectors match anything; `tag` accepts "A" or "A-B" (inclusive).
//
// Example:
//   PARPDE_FAULT="seed=7;drop:tag=4096-4099,prob=0.3;kill:rank=1,epoch=2"

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace parpde::mpi::fault {

// Simulated rank death. Environment::run_collect reports it as a failed rank
// instead of rethrowing; the fault-tolerant trainer then restarts that rank
// from its last valid checkpoint. Carries the training epoch or rollout step
// the rank died at (-1 = not applicable) so failure latency is attributable
// in run reports and traces.
class RankFailure : public std::runtime_error {
 public:
  explicit RankFailure(const std::string& what, int epoch = -1, int step = -1)
      : std::runtime_error(what), epoch_(epoch), step_(step) {}

  [[nodiscard]] int epoch() const noexcept { return epoch_; }
  [[nodiscard]] int step() const noexcept { return step_; }

 private:
  int epoch_ = -1;
  int step_ = -1;
};

enum class Action { kDrop, kDelay, kDuplicate, kCorrupt };

// One message-fault rule. Selector fields use -1 for "any".
struct Rule {
  Action action = Action::kDrop;
  int tag_lo = -1;           // inclusive tag range; tag_lo == -1 matches all
  int tag_hi = -1;
  int source = -1;           // sending rank
  int dest = -1;             // receiving rank
  double probability = 1.0;  // per-message chance, drawn deterministically
  int max_hits = -1;         // stop matching after N applications (-1 = never)
  int delay_ms = 0;          // kDelay only

  [[nodiscard]] bool matches(int src, int dst, int tag) const noexcept {
    if (tag_lo >= 0 && (tag < tag_lo || tag > tag_hi)) return false;
    if (source >= 0 && src != source) return false;
    if (dest >= 0 && dst != dest) return false;
    return true;
  }
};

// Cooperative rank-kill directive. Fires at most once per installed plan, so
// the post-failure restart of the same rank (same process, plan still
// installed) trains to completion instead of dying again.
struct KillSpec {
  int rank = -1;                  // -1 = no kill
  int at_epoch = -1;              // check_kill_epoch(rank, epoch) trigger
  int at_step = -1;               // check_kill_step(rank, step) trigger
  std::uint64_t after_sends = 0;  // on_send_complete trigger (0 = disabled)
};

// What the injector decided for one message.
struct Decision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  int delay_ms = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 1) : seed_(seed) {}

  FaultPlan& add_rule(const Rule& rule) {
    rules_.push_back(rule);
    return *this;
  }
  FaultPlan& set_kill(const KillSpec& kill) {
    kill_ = kill;
    return *this;
  }

  // Parses the PARPDE_FAULT grammar; throws std::invalid_argument with the
  // offending segment on malformed input.
  static FaultPlan parse(const std::string& spec);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] const KillSpec& kill() const noexcept { return kill_; }

 private:
  std::uint64_t seed_;
  std::vector<Rule> rules_;
  KillSpec kill_;
};

// --- process-wide installation ----------------------------------------------

// True while a plan is installed (one relaxed atomic load).
[[nodiscard]] bool enabled() noexcept;

// Installs `plan`, replacing any previous one and resetting all hit/kill
// bookkeeping. Not thread-safe against concurrent hook calls — install before
// launching an Environment.
void install(FaultPlan plan);

// Removes the installed plan; every hook becomes a no-op again.
void uninstall();

// Installs FaultPlan::parse(getenv("PARPDE_FAULT")) when the variable is set
// and non-empty. Returns whether a plan was installed. Malformed specs throw.
bool install_from_env();

// --- hooks (cheap no-ops when disabled) -------------------------------------

// Send-side verdict for one message; applies kDelay sleeps internally and
// advances the deterministic per-channel sequences.
[[nodiscard]] Decision on_send(int source, int dest, int tag);

// Counts a completed send by `rank` and throws RankFailure when the plan's
// after_sends kill point is reached.
void on_send_complete(int rank);

// Epoch-boundary kill point; throws RankFailure when the plan says this rank
// dies at this epoch (at most once per installed plan).
void check_kill_epoch(int rank, int epoch);

// Rollout step-boundary kill point (the elastic runtime polls it before any
// of the step's sends, so a death never leaves a step partially published);
// throws RankFailure when the plan says this rank dies at this step (at most
// once per installed plan).
void check_kill_step(int rank, int step);

// Deterministically flips one byte of `payload` (position and XOR mask are
// hashed from the plan seed and `salt`). No-op on empty payloads.
void corrupt_payload(std::span<std::byte> payload, std::uint64_t salt);

}  // namespace parpde::mpi::fault
