#include "minimpi/environment.hpp"

#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "minimpi/validate.hpp"
#include "util/telemetry.hpp"
#include "verify/schedule.hpp"

namespace parpde::mpi {

Environment::Environment(int size) : size_(size) {
  if (size <= 0) throw std::invalid_argument("Environment: size must be > 0");
}

RunOutcome Environment::run_impl(const std::function<void(Communicator&)>& fn,
                                 bool collect_failures) const {
  auto state = std::make_shared<SharedState>(size_);
  // parpde-mc: size the vector clocks (and pick up PARPDE_SCHEDULE on the
  // first run of the process) before any rank can touch a mailbox.
  verify::hook_run_begin(size_);
  RunOutcome outcome;
  outcome.ranks.resize(static_cast<std::size_t>(size_));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      // Telemetry spans emitted from this thread land in the per-rank trace
      // lane (pid = rank in the Chrome trace).
      telemetry::set_thread_rank(r);
      verify::hook_thread_rank(r);
      telemetry::Span span("mpi.rank", "mpi");
      try {
        Communicator comm(r, size_, state);
        fn(comm);
      } catch (const fault::RankFailure& failure) {
        if (collect_failures) {
          outcome.ranks[static_cast<std::size_t>(r)] = {
              true, failure.what(), failure.epoch(), failure.step()};
          static telemetry::Counter& failures =
              telemetry::counter("mpi.rank_failures");
          failures.add(1);
        } else {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
        }
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Finalize leak check: with the validator on, a clean run must leave every
  // mailbox empty — an unconsumed message is an unmatched send (wrong tag,
  // wrong destination, or a receive that was optimized away). A run with
  // failed ranks is exempt: a rank that died mid-protocol legitimately leaves
  // messages addressed to it (and messages it sent) undelivered.
  if (validate::enabled() && outcome.all_ok()) {
    std::string report;
    for (int r = 0; r < size_; ++r) {
      const auto queued =
          state->mailboxes[static_cast<std::size_t>(r)].snapshot();
      for (const MessageInfo& m : queued) {
        report += "rank " + std::to_string(r) +
                  ": unconsumed message from rank " + std::to_string(m.source) +
                  ", tag=" + tags::describe(m.tag) + ", " +
                  std::to_string(m.bytes) + " bytes\n";
      }
    }
    if (!report.empty()) {
      report = "finalize leak check: mailbox(es) not drained\n" + report;
      validate::emit_report(report);
      throw validate::LeakError(report);
    }
  }
  return outcome;
}

void Environment::run(const std::function<void(Communicator&)>& fn) const {
  run_impl(fn, /*collect_failures=*/false);
}

RunOutcome Environment::run_collect(
    const std::function<void(Communicator&)>& fn) const {
  return run_impl(fn, /*collect_failures=*/true);
}

}  // namespace parpde::mpi
