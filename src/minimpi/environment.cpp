#include "minimpi/environment.hpp"

#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/collectives.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "minimpi/validate.hpp"
#include "util/telemetry.hpp"
#include "verify/schedule.hpp"

namespace parpde::mpi {

namespace {

// NTP-style clock-offset handshake against rank 0, run once per rank at
// startup while span tracing is enabled. Each non-root rank sends K pings;
// rank 0 answers each with its own now_us(). The ping with the smallest
// round-trip gives offset = t_root − (t0 + t2)/2, i.e. how far this rank's
// clock sits behind rank 0's. The offsets are registered with telemetry so
// write_chrome_trace can shift every lane onto rank 0's timeline, and are
// surfaced as clock.* gauges in the run report. On this threads-as-ranks
// substrate the ranks physically share one clock, so estimated offsets are
// noise bounded by ±RTT/2 — the handshake exists so the trace pipeline stays
// correct when the substrate grows real per-process clocks.
//
// Fault robustness: every receive is bounded (recv_for) and both sides drain
// their channel before returning, so an injected drop degrades the estimate
// instead of hanging the run or tripping the finalize leak check.
//
// Threading (src/minimpi/README.md): all four recv_for sites here run on the
// rank's own thread inside Environment::run, and the kClockSync channels have
// no other consumer — the single-consumer-per-channel contract holds, and the
// CV barrier sequences the handshake phase before the stale-drain phase.
void align_rank_clock(Communicator& comm) {
  constexpr int kRounds = 8;
  constexpr std::chrono::milliseconds kReplyTimeout(200);
  const int ping_tag = tags::kClockSync.base;
  const int reply_tag = tags::kClockSync.base + 1;
  if (comm.size() < 2) {
    telemetry::set_rank_clock_offset(0, 0);
    return;
  }
  if (comm.rank() == 0) {
    telemetry::set_rank_clock_offset(0, 0);
    for (int peer = 1; peer < comm.size(); ++peer) {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::int64_t> ping;
        if (comm.recv_for<std::int64_t>(peer, ping_tag, kReplyTimeout,
                                        &ping) != RecvStatus::kOk) {
          break;  // peer gave up (or its pings were dropped); stop serving
        }
        comm.send_value<std::int64_t>(peer, reply_tag, telemetry::now_us());
      }
    }
  } else {
    std::int64_t best_rtt = std::numeric_limits<std::int64_t>::max();
    std::int64_t best_offset = 0;
    for (int round = 0; round < kRounds; ++round) {
      const std::int64_t t0 = telemetry::now_us();
      comm.send_value<std::int64_t>(0, ping_tag, t0);
      std::vector<std::int64_t> reply;
      if (comm.recv_for<std::int64_t>(0, reply_tag, kReplyTimeout, &reply) !=
              RecvStatus::kOk ||
          reply.size() != 1) {
        break;  // reply lost; keep whatever estimate earlier rounds produced
      }
      const std::int64_t t2 = telemetry::now_us();
      const std::int64_t rtt = t2 - t0;
      if (rtt < best_rtt) {
        best_rtt = rtt;
        best_offset = reply[0] - (t0 + t2) / 2;
      }
    }
    if (best_rtt == std::numeric_limits<std::int64_t>::max()) {
      best_offset = 0;  // no round completed; fall back to the shared epoch
      best_rtt = -1;
    }
    telemetry::set_rank_clock_offset(comm.rank(), best_offset);
    const std::string suffix = ".r" + std::to_string(comm.rank());
    telemetry::gauge("clock.offset_us" + suffix)
        .set(static_cast<double>(best_offset));
    telemetry::gauge("clock.sync_rtt_us" + suffix)
        .set(static_cast<double>(best_rtt));
  }
  // The barrier is the process-local CV barrier (no messages), so it cannot
  // be dropped by fault injection. After it, no rank sends handshake traffic
  // again, which makes the stale-message drain below race-free — nothing may
  // linger in a mailbox or the finalize leak check would trip.
  barrier(comm);
  std::vector<std::int64_t> stale;
  if (comm.rank() == 0) {
    for (int peer = 1; peer < comm.size(); ++peer) {
      while (comm.recv_for<std::int64_t>(peer, ping_tag,
                                         std::chrono::milliseconds(0),
                                         &stale) == RecvStatus::kOk) {
      }
    }
  } else {
    while (comm.recv_for<std::int64_t>(0, reply_tag,
                                       std::chrono::milliseconds(0),
                                       &stale) == RecvStatus::kOk) {
    }
  }
}

}  // namespace

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
        // Rank-aligned trace timestamps: estimate this rank's clock offset
        // against rank 0 before user code runs. Only while tracing — the
        // handshake adds messages, and untraced runs must keep byte-exact
        // traffic counts.
        if (telemetry::enabled() && size_ > 1) align_rank_clock(comm);
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
