#pragma once

// Rank-local communication endpoint. Mirrors the subset of MPI the paper's
// scheme needs: blocking and bounded-wait point-to-point with tags, plus the
// collectives in collectives.hpp. Ranks are threads of one process; payloads
// are copied through shared mailboxes, so the programming model (no shared
// mutable state between ranks, explicit messages) is preserved even though
// the transport is shared memory.
//
// Tags come from the central registry in minimpi/tags.hpp; with the debug
// validator enabled (minimpi/validate.hpp, PARPDE_MPI_VALIDATE) every message
// carries a typed envelope, blocking receives are watchdogged, and
// communication-free phases (PhaseScope) trap any traffic.
//
// With a fault plan installed (minimpi/fault.hpp, PARPDE_FAULT) the send path
// consults the injector — messages may be dropped, delayed, duplicated or
// bit-corrupted — and every payload is CRC-stamped so receivers detect the
// corruption. Without a plan both hooks are one relaxed atomic load.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "minimpi/mailbox.hpp"
#include "minimpi/validate.hpp"

namespace parpde::mpi {

// Outcome of a bounded receive (recv_for).
enum class RecvStatus {
  kOk,       // message delivered
  kTimeout,  // nothing matched within the deadline; nothing consumed
  kCorrupt,  // a matching message arrived but failed its CRC envelope; the
             // corrupt message was consumed and counted (comm.corrupt_detected)
};

// A blocking receive in flight, registered so the deadlock watchdog can dump
// what every rank is waiting on.
struct PendingRecv {
  bool active = false;
  int source = 0;
  int tag = 0;
  const char* phase = "default";
};

// State shared by all ranks of one Environment::run invocation.
struct SharedState {
  explicit SharedState(int size)
      : mailboxes(static_cast<std::size_t>(size)),
        pending_recvs(static_cast<std::size_t>(size)) {
    for (int r = 0; r < size; ++r) {
      mailboxes[static_cast<std::size_t>(r)].set_owner(r);
    }
  }

  std::vector<Mailbox> mailboxes;

  // Central barrier (sense-reversing via generation counter).
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_arrived = 0;
  std::uint64_t barrier_generation = 0;

  // Validator bookkeeping: one slot per rank, guarded by validate_mutex.
  std::mutex validate_mutex;
  std::vector<PendingRecv> pending_recvs;
};

// Whether a phase may generate message traffic. kForbidden phases (the
// paper's communication-free training regions) trap any send or receive with
// validate::PhaseError when the validator is enabled.
enum class CommPolicy { kAllowed, kForbidden };

class Communicator {
 public:
  Communicator(int rank, int size, std::shared_ptr<SharedState> state);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return size_; }

  // --- point-to-point (trivially copyable element types) -----------------

  // Buffered send: copies the payload into the destination mailbox and
  // returns immediately. dest == kProcNull is a no-op (boundary neighbors).
  template <typename T>
  void send(int dest, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, std::as_bytes(values), sizeof(T));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  // Blocking receive matching (source|kAnySource, tag); if `actual_source`
  // is non-null it receives the sender's rank. With the validator enabled the
  // sender's element size is checked against T, and the receive is
  // watchdogged: instead of hanging past validate::timeout_ms() it dumps
  // every rank's pending operations and throws validate::DeadlockError. A
  // payload that fails its CRC envelope throws std::runtime_error (a
  // blocking receiver has no retry protocol).
  template <typename T>
  std::vector<T> recv(int source, int tag, int* actual_source = nullptr) {
    std::vector<T> out;
    recv_into(source, tag, &out, actual_source);
    return out;
  }

  // Blocking receive into the caller's vector, resized to the payload: a
  // vector reused across receives of one size allocates nothing after the
  // first (the rollout's frame gather stages every block through one).
  template <typename T>
  void recv_into(int source, int tag, std::vector<T>* out,
                 int* actual_source = nullptr) {
    (void)receive(source, tag, std::nullopt, out, actual_source);
  }

  template <typename T>
  T recv_value(int source, int tag, int* actual_source = nullptr) {
    const auto v = recv<T>(source, tag, actual_source);
    if (v.size() != 1) throw std::runtime_error("recv_value: wrong element count");
    return v.front();
  }

  // Bounded-wait receive: waits at most `timeout` for a message matching
  // (source|kAnySource, tag). Never hangs and never trips the deadlock
  // watchdog — this is the receive the fault-tolerant inference path uses on
  // halo tags (lint rule `unbounded-halo-recv`). On kOk the payload lands in
  // `*out`; on kTimeout nothing is consumed and the caller may retry or
  // degrade; on kCorrupt an injected-corruption message was detected by its
  // CRC envelope, consumed and discarded.
  template <typename T>
  RecvStatus recv_for(int source, int tag, std::chrono::milliseconds timeout,
                      std::vector<T>* out, int* actual_source = nullptr) {
    return receive(source, tag, timeout, out, actual_source);
  }

  // --- validation phases ---------------------------------------------------

  [[nodiscard]] const char* phase() const noexcept { return phase_; }
  [[nodiscard]] CommPolicy policy() const noexcept { return policy_; }

  // --- traffic accounting (used by the communication benchmarks and the
  // telemetry run reports; send and receive sides are counted symmetrically,
  // so per-rank accounting balances across a communicator) ------------------

  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return messages_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }
  [[nodiscard]] std::uint64_t messages_received() const noexcept {
    return messages_received_;
  }
  void reset_counters() noexcept {
    bytes_sent_ = 0;
    messages_sent_ = 0;
    bytes_received_ = 0;
    messages_received_ = 0;
  }

  [[nodiscard]] SharedState& shared() noexcept { return *state_; }

  // Multi-line description of every rank's blocked receives and queued
  // messages (the watchdog dump; exposed for barrier diagnostics and tests).
  [[nodiscard]] std::string pending_ops_report() const;

 private:
  friend class PhaseScope;

  void check_peer(int peer, const char* what) const;
  // Throws validate::PhaseError if traffic is forbidden in the current phase.
  void check_phase(const char* what, int peer, int tag) const;

  // `elem_size` is the validation envelope (sizeof(T) for typed sends).
  void send_bytes(int dest, int tag, std::span<const std::byte> payload,
                  std::size_t elem_size);

  // The one receive path: takes the earliest message matching
  // (source|kAnySource, tag) into `*payload`. With a `timeout` it waits at
  // most that long (kTimeout, nothing consumed) and reports a payload that
  // fails its CRC envelope as kCorrupt. Without one it is the blocking
  // receive: it waits under the validator's watchdog when that is on
  // (validate::DeadlockError), else for as long as it takes, and throws on a
  // corrupt payload. A corrupt message is consumed and counted either way;
  // with the validator on, an `elem_size` that disagrees with the sender's
  // throws validate::EnvelopeError.
  RecvStatus receive_bytes(int source, int tag,
                           std::optional<std::chrono::milliseconds> timeout,
                           std::size_t elem_size,
                           std::vector<std::byte>* payload,
                           int* actual_source);

  // receive_bytes, then the payload copied into `*out` as T elements.
  template <typename T>
  RecvStatus receive(int source, int tag,
                     std::optional<std::chrono::milliseconds> timeout,
                     std::vector<T>* out, int* actual_source) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes;
    const RecvStatus status = receive_bytes(source, tag, timeout, sizeof(T),
                                            &bytes, actual_source);
    if (status != RecvStatus::kOk) return status;
    if (bytes.size() % sizeof(T) != 0) {
      throw std::runtime_error("recv: payload size not a multiple of T");
    }
    out->resize(bytes.size() / sizeof(T));
    std::memcpy(out->data(), bytes.data(), bytes.size());
    return RecvStatus::kOk;
  }

  int rank_;
  int size_;
  std::shared_ptr<SharedState> state_;
  const char* phase_ = "default";
  CommPolicy policy_ = CommPolicy::kAllowed;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t messages_received_ = 0;
};

// RAII phase bracket: names the enclosed communication epoch (watchdog dumps
// and per-phase counters use the name) and optionally forbids traffic inside
// it. Restores the previous phase on destruction; `name` must outlive the
// scope (string literals in practice).
class PhaseScope {
 public:
  PhaseScope(Communicator& comm, const char* name,
             CommPolicy policy = CommPolicy::kAllowed) noexcept
      : comm_(comm), prev_phase_(comm.phase_), prev_policy_(comm.policy_) {
    comm_.phase_ = name;
    comm_.policy_ = policy;
  }
  ~PhaseScope() {
    comm_.phase_ = prev_phase_;
    comm_.policy_ = prev_policy_;
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Communicator& comm_;
  const char* prev_phase_;
  CommPolicy prev_policy_;
};

}  // namespace parpde::mpi
