#include "elastic/rollout.hpp"

#include <algorithm>
#include <array>

#include "minimpi/tags.hpp"
#include "util/timer.hpp"

namespace parpde::elastic {

namespace {

std::int64_t key(std::uint32_t epoch, std::uint32_t step) {
  return (static_cast<std::int64_t>(epoch) << 32) |
         static_cast<std::int64_t>(step);
}

}  // namespace

Heartbeat::Heartbeat(mpi::Communicator& comm, std::chrono::milliseconds lease,
                     int missed_leases)
    : comm_(comm),
      lease_(std::max(lease, std::chrono::milliseconds(1))),
      budget_ms_(lease_.count() *
                 static_cast<std::int64_t>(std::max(missed_leases, 1))),
      seen_(static_cast<std::size_t>(comm.size()), -1),
      waited_ms_(static_cast<std::size_t>(comm.size()), 0) {}

// Threading (src/minimpi/README.md): the barrier runs on the rank's own
// thread, and the heartbeat tag is disjoint from the halo strip tags, so
// each channel keeps a single consumer.
void Heartbeat::barrier(int epoch, int step, const std::vector<char>& live,
                        bool resend) {
  const int rank = comm_.rank();
  const int nranks = comm_.size();
  const auto e = static_cast<std::uint32_t>(epoch);
  const auto s = static_cast<std::uint32_t>(step);
  if (resend) {
    const std::array<std::uint32_t, 2> hb = {e, s};
    for (int p = 0; p < nranks; ++p) {
      if (p == rank || !live[static_cast<std::size_t>(p)]) continue;
      comm_.send<std::uint32_t>(p, mpi::tags::elastic_heartbeat_tag(), hb);
    }
  }
  const std::int64_t target = key(e, s);
  std::fill(waited_ms_.begin(), waited_ms_.end(), 0);
  util::WallTimer wait_timer;
  for (;;) {
    bool all = true;
    for (int p = 0; p < nranks; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      if (p == rank || !live[pi] || seen_[pi] >= target) continue;
      const mpi::RecvStatus status = comm_.recv_for<std::uint32_t>(
          p, mpi::tags::elastic_heartbeat_tag(), lease_, &buf_);
      if (status == mpi::RecvStatus::kOk && buf_.size() == 2) {
        seen_[pi] = std::max(seen_[pi], key(buf_[0], buf_[1]));
      } else {
        waited_ms_[pi] += lease_.count();
        if (waited_ms_[pi] >= budget_ms_) {
          // Batch every peer whose budget expired in this same round so
          // simultaneous deaths produce one deterministic rebalance.
          DeathNotice notice;
          notice.waited_seconds = wait_timer.seconds();
          for (int q = 0; q < nranks; ++q) {
            const auto qi = static_cast<std::size_t>(q);
            if (q != rank && live[qi] && seen_[qi] < target &&
                waited_ms_[qi] >= budget_ms_) {
              notice.failed.push_back(q);
            }
          }
          throw notice;
        }
      }
      if (seen_[pi] < target) all = false;
    }
    if (all) return;
  }
}

}  // namespace parpde::elastic
