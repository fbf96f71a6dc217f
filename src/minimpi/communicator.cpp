#include "minimpi/communicator.hpp"

#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "util/crc32.hpp"
#include "util/telemetry.hpp"

namespace parpde::mpi {

namespace {

// Per-tag byte accounting only runs while telemetry tracing is active: the
// registry lookup is a mutex + string build, too heavy for the default path.
void count_tag_bytes(const char* direction, int tag, std::size_t bytes) {
  if (!telemetry::enabled()) return;
  telemetry::counter("comm.tag." + std::to_string(tag) + "." + direction)
      .add(bytes);
}

// Per-phase message accounting, validator only (same cost argument).
void count_phase_message(const char* phase) {
  telemetry::counter(std::string("validate.phase.") + phase + ".messages")
      .add(1);
}

// Flow events bind on id+cat+name, so both ends derive the name from the tag
// registry owner — the sender and receiver agree without shipping a string.
constexpr const char* kFlowCategory = "flow";

void close_flow(const Message& m) {
  if (m.flow_id != 0) {
    telemetry::record_flow_finish(tags::owner(m.tag), kFlowCategory,
                                  m.flow_id);
  }
}

}  // namespace

Communicator::Communicator(int rank, int size, std::shared_ptr<SharedState> state)
    : rank_(rank), size_(size), state_(std::move(state)) {
  if (size <= 0 || rank < 0 || rank >= size) {
    throw std::invalid_argument("Communicator: bad rank/size");
  }
  if (!state_) throw std::invalid_argument("Communicator: null shared state");
}

void Communicator::check_peer(int peer, const char* what) const {
  if (peer < 0 || peer >= size_) {
    throw std::invalid_argument(std::string(what) + ": peer rank " +
                                std::to_string(peer) + " out of range");
  }
}

void Communicator::check_phase(const char* what, int peer, int tag) const {
  if (policy_ != CommPolicy::kForbidden) return;
  const std::string msg =
      std::string("rank ") + std::to_string(rank_) + ": " + what +
      " during communication-free phase '" + phase_ + "' (peer " +
      std::to_string(peer) + ", tag " + tags::describe(tag) + ")";
  validate::emit_report(msg);
  throw validate::PhaseError(msg);
}

std::string Communicator::pending_ops_report() const {
  std::string out;
  std::lock_guard<std::mutex> lock(state_->validate_mutex);
  for (int r = 0; r < size_; ++r) {
    const PendingRecv& p = state_->pending_recvs[static_cast<std::size_t>(r)];
    if (p.active) {
      out += "rank " + std::to_string(r) + ": blocked recv(source=" +
             (p.source == kAnySource ? std::string("any")
                                     : std::to_string(p.source)) +
             ", tag=" + tags::describe(p.tag) + ", phase='" + p.phase + "')\n";
    }
    const auto queued =
        state_->mailboxes[static_cast<std::size_t>(r)].snapshot();
    for (const MessageInfo& m : queued) {
      out += "rank " + std::to_string(r) + ": queued message from rank " +
             std::to_string(m.source) + ", tag=" + tags::describe(m.tag) +
             ", " + std::to_string(m.bytes) + " bytes\n";
    }
  }
  if (out.empty()) out = "no pending operations recorded\n";
  return out;
}

void Communicator::send_bytes(int dest, int tag,
                              std::span<const std::byte> payload,
                              std::size_t elem_size) {
  if (dest == kProcNull) return;
  check_peer(dest, "send");
  if (validate::enabled()) {
    check_phase("send", dest, tag);
    count_phase_message(phase_);
  }
  Message m;
  m.source = rank_;
  m.tag = tag;
  m.elem_size = elem_size;
  m.payload.assign(payload.begin(), payload.end());
  if (telemetry::enabled()) {
    // Trace context: stamp a process-unique flow id and open the flow here;
    // the matching receive closes it, drawing a cross-rank arrow in the
    // merged trace. Stamped before fault injection so a dropped message
    // shows up as an unterminated flow — which is exactly what happened.
    m.flow_id = telemetry::next_flow_id();
    telemetry::record_flow_start(tags::owner(tag), kFlowCategory, m.flow_id);
  }
  bytes_sent_ += payload.size();
  ++messages_sent_;
  static telemetry::Counter& bytes = telemetry::counter("comm.bytes_sent");
  static telemetry::Counter& msgs = telemetry::counter("comm.messages_sent");
  bytes.add(payload.size());
  msgs.add(1);
  count_tag_bytes("bytes_sent", tag, payload.size());
  bool deliver = true;
  Mailbox& box = state_->mailboxes[static_cast<std::size_t>(dest)];
  if (fault::enabled()) {
    // CRC of the payload as it left the sender; the injected corruption below
    // happens "on the wire", after the checksum — which is what lets the
    // receiver detect it.
    m.crc = util::crc32(m.payload.data(), m.payload.size());
    const fault::Decision verdict = fault::on_send(rank_, dest, tag);
    if (verdict.corrupt) {
      fault::corrupt_payload(m.payload,
                             (static_cast<std::uint64_t>(messages_sent_) << 16) ^
                                 static_cast<std::uint64_t>(tag));
    }
    if (verdict.drop) {
      // The message never reaches the destination mailbox.
      static telemetry::Counter& dropped = telemetry::counter("comm.dropped");
      dropped.add(1);
      deliver = false;
    } else if (verdict.duplicate) {
      Message copy = m;
      copy.flow_id = 0;  // keep flows 1:1 — the injected twin is untraced
      box.push(std::move(copy));
    }
  }
  if (deliver) box.push(std::move(m));
  fault::on_send_complete(rank_);
}

RecvStatus Communicator::receive_bytes(
    int source, int tag, std::optional<std::chrono::milliseconds> timeout,
    std::size_t elem_size, std::vector<std::byte>* payload,
    int* actual_source) {
  if (source == kProcNull) {
    throw std::invalid_argument("recv: source is kProcNull");
  }
  if (source != kAnySource) check_peer(source, "recv");
  // Only a blocking receive is watchdogged; a bounded one has its own
  // deadline and never trips the watchdog.
  const bool bounded = timeout.has_value();
  const bool watchdog = !bounded && validate::enabled();
  if (validate::enabled()) check_phase("recv", source, tag);
  if (watchdog) {
    timeout = std::chrono::milliseconds(validate::timeout_ms());
    std::lock_guard<std::mutex> lock(state_->validate_mutex);
    state_->pending_recvs[static_cast<std::size_t>(rank_)] = {true, source,
                                                              tag, phase_};
  }
  Mailbox& box = state_->mailboxes[static_cast<std::size_t>(rank_)];
  Message m;
  if (!box.pop_matching(source, tag, &m, timeout)) {
    if (!watchdog) return RecvStatus::kTimeout;
    // Leave this rank's pending slot active so the dump shows the receive
    // that starved; other timed-out ranks produce their own dumps.
    const std::string report =
        "deadlock watchdog: rank " + std::to_string(rank_) +
        " made no progress on recv(source=" +
        (source == kAnySource ? std::string("any") : std::to_string(source)) +
        ", tag=" + tags::describe(tag) + ") within " +
        std::to_string(validate::timeout_ms()) +
        " ms; pending operations:\n" + pending_ops_report();
    validate::emit_report(report);
    throw validate::DeadlockError(report);
  }
  if (watchdog) {
    std::lock_guard<std::mutex> lock(state_->validate_mutex);
    state_->pending_recvs[static_cast<std::size_t>(rank_)].active = false;
  }
  if (m.crc != 0 && util::crc32(m.payload.data(), m.payload.size()) != m.crc) {
    static telemetry::Counter& corrupt =
        telemetry::counter("comm.corrupt_detected");
    corrupt.add(1);
    if (bounded) return RecvStatus::kCorrupt;
    throw std::runtime_error(
        "rank " + std::to_string(rank_) + ": CRC mismatch on recv(source=" +
        std::to_string(m.source) + ", tag=" + tags::describe(tag) +
        "): payload corrupted in transit");
  }
  if (validate::enabled() && m.elem_size != 0 && m.elem_size != elem_size) {
    const std::string msg =
        "rank " + std::to_string(rank_) + ": typed-envelope mismatch on "
        "recv(source=" + std::to_string(m.source) + ", tag=" +
        tags::describe(tag) + "): sender element size " +
        std::to_string(m.elem_size) + " bytes, receiver expects " +
        std::to_string(elem_size) + " bytes";
    validate::emit_report(msg);
    throw validate::EnvelopeError(msg);
  }
  if (actual_source != nullptr) *actual_source = m.source;
  bytes_received_ += m.payload.size();
  ++messages_received_;
  static telemetry::Counter& bytes = telemetry::counter("comm.bytes_received");
  static telemetry::Counter& msgs =
      telemetry::counter("comm.messages_received");
  bytes.add(m.payload.size());
  msgs.add(1);
  count_tag_bytes("bytes_received", tag, m.payload.size());
  close_flow(m);
  *payload = std::move(m.payload);
  return RecvStatus::kOk;
}

}  // namespace parpde::mpi
