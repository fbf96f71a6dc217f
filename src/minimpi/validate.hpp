#pragma once

// Debug message-matching validator for the minimpi substrate.
//
// Off by default; enabled by the PARPDE_MPI_VALIDATE environment variable
// (any value except "0"), by validate::set_enabled(true), or by configuring
// with -DPARPDE_MPI_VALIDATE=ON (which flips the compiled-in default). When
// enabled, the transport gains four checks, none of which change message
// semantics:
//
//  * envelope check — typed sends stamp sizeof(T) into the message; a
//    recv<T> whose element size disagrees throws EnvelopeError instead of
//    reinterpreting bytes.
//  * deadlock watchdog — a blocking recv (or barrier) that makes no progress
//    for timeout_ms() dumps every rank's pending receives and queued
//    messages to stderr, then throws DeadlockError instead of hanging.
//  * finalize leak check — Environment::run, after all ranks return cleanly,
//    throws LeakError if any mailbox still holds unconsumed messages,
//    reporting each (destination, source, tag) with the owning subsystem
//    from the tag registry.
//  * phase policy — regions bracketed as communication-free (PhaseScope with
//    CommPolicy::kForbidden, e.g. the paper's zero-comm training phase)
//    throw PhaseError on any send or receive; per-phase message counters
//    land in the telemetry registry under "validate.phase.<name>.messages".
//
// Cost when disabled: one relaxed atomic load per transport call.

#include <stdexcept>
#include <string>

namespace parpde::mpi::validate {

// --- enablement and knobs ---------------------------------------------------

[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

// Watchdog timeout for blocking receives and barriers. Environment override:
// PARPDE_MPI_VALIDATE_TIMEOUT_MS. Default 10000.
[[nodiscard]] int timeout_ms() noexcept;
void set_timeout_ms(int ms) noexcept;

// --- diagnostics ------------------------------------------------------------

// Typed-envelope mismatch at recv<T>.
class EnvelopeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Watchdog fired: no progress on a blocking operation within timeout_ms().
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Unconsumed mailbox messages at Environment::run finalize.
class LeakError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Communication attempted inside a CommPolicy::kForbidden phase.
class PhaseError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// Writes `report` to stderr with a "[parpde-validate]" prefix on each line.
void emit_report(const std::string& report);

}  // namespace parpde::mpi::validate
