#pragma once

// Per-rank message queue. Messages are matched MPI-style by (source, tag);
// within a matching (source, tag) pair, delivery order equals send order
// (non-overtaking), as required by the halo-exchange protocol.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace parpde::mpi {

// Matches any source in recv operations.
inline constexpr int kAnySource = -1;
// Null neighbor (off-domain); sends to it are dropped, recvs are invalid.
inline constexpr int kProcNull = -2;

// Waits on `cv` until `ready()` holds: at most `timeout` when one is given
// (false if it never did), else without bound (always true). The mailbox pop
// and the CV barrier share it.
template <typename Ready>
bool wait_ready(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                std::optional<std::chrono::milliseconds> timeout,
                Ready ready) {
  if (!timeout) {
    cv.wait(lock, ready);
    return true;
  }
  return cv.wait_for(lock, *timeout, ready);
}

struct Message {
  int source = 0;
  int tag = 0;
  // Validation envelope: sizeof(T) stamped by the sender (0 = unstamped).
  // Checked against the receiving type when the validator is enabled
  // (minimpi/validate.hpp).
  std::size_t elem_size = 0;
  // Integrity envelope: CRC-32 of the payload as it left the sender, stamped
  // only while fault injection is active (0 = unstamped). Lets receivers
  // detect injected bit corruption instead of consuming garbage tensors.
  std::uint32_t crc = 0;
  // Trace context: process-unique flow id stamped by the sender while span
  // tracing is enabled (0 = untraced). The receive side closes the flow, so
  // the merged Chrome trace links each send span to its receive/unpack span
  // across ranks (telemetry::record_flow_start/finish).
  std::uint64_t flow_id = 0;
  // parpde-mc envelope: the sender's vector clock at send time, stamped only
  // while a verification schedule is installed (src/verify/schedule.hpp).
  // Empty (no allocation) otherwise.
  std::vector<std::uint32_t> vclock;
  std::vector<std::byte> payload;
};

// Header-only view of a queued message, for watchdog / leak diagnostics.
struct MessageInfo {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

class Mailbox {
 public:
  // Enqueues a message and wakes matching receivers. Never blocks: the
  // substrate implements buffered (eager) sends, so any send/recv ordering
  // that is deadlock-free under buffered MPI semantics is deadlock-free here.
  void push(Message message);

  // Removes the earliest message matching (source|kAnySource, tag) into
  // `*out`, waiting for one to arrive: at most `timeout` when one is given
  // (false if none matched in time; nothing is removed), else without bound
  // (always true).
  bool pop_matching(int source, int tag, Message* out,
                    std::optional<std::chrono::milliseconds> timeout);

  // The rank whose inbox this is; lets the parpde-mc scheduler key delivery
  // decisions and receive audits by destination. Set once by SharedState.
  void set_owner(int rank) noexcept { owner_ = rank; }
  [[nodiscard]] int owner() const noexcept { return owner_; }

  // Headers of all queued messages in queue order (payloads not copied).
  [[nodiscard]] std::vector<MessageInfo> snapshot() const;

 private:
  // Finds the first queued index matching the criteria, or npos.
  [[nodiscard]] std::size_t find_locked(int source, int tag) const;

  // Collects the queued messages matching (source|kAnySource, tag) for the
  // parpde-mc order-sensitivity audit. Must hold mutex_.
  void audit_match_locked(int source, int tag, std::size_t chosen_idx) const;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  int owner_ = -1;
};

}  // namespace parpde::mpi
