#include "minimpi/collectives.hpp"

#include <chrono>
#include <optional>
#include <string>

#include "minimpi/validate.hpp"
#include "verify/schedule.hpp"

namespace parpde::mpi {

void barrier(Communicator& comm) {
  SharedState& state = comm.shared();
  std::unique_lock<std::mutex> lock(state.barrier_mutex);
  const std::uint64_t generation = state.barrier_generation;
  if (verify::active()) {
    verify::hook_barrier_arrive(comm.rank(), generation, state.barrier_arrived,
                                comm.size());
  }
  // Watchdogged wait under the validator: a rank that never reaches the
  // barrier must produce a diagnostic, not a hang.
  std::optional<std::chrono::milliseconds> watchdog;
  if (validate::enabled()) {
    watchdog = std::chrono::milliseconds(validate::timeout_ms());
  }
  if (++state.barrier_arrived == comm.size()) {
    state.barrier_arrived = 0;
    ++state.barrier_generation;
    state.barrier_cv.notify_all();
  } else if (!wait_ready(state.barrier_cv, lock, watchdog, [&] {
               return state.barrier_generation != generation;
             })) {
    const std::string report =
        "deadlock watchdog: rank " + std::to_string(comm.rank()) +
        " stuck in barrier (" + std::to_string(state.barrier_arrived) +
        " of " + std::to_string(comm.size()) + " ranks arrived) after " +
        std::to_string(validate::timeout_ms()) +
        " ms; pending operations:\n" + comm.pending_ops_report();
    lock.unlock();
    validate::emit_report(report);
    throw validate::DeadlockError(report);
  }
  lock.unlock();
  if (verify::active()) verify::hook_barrier_exit(comm.rank(), generation);
}

}  // namespace parpde::mpi
