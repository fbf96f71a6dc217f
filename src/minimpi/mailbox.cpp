#include "minimpi/mailbox.hpp"

#include "verify/schedule.hpp"

namespace parpde::mpi {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}  // namespace

void Mailbox::push(Message message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t pos = queue_.size();
    if (verify::active()) {
      // Earliest legal slot: just past the last queued message of the same
      // (source, tag) channel, so front-running can never violate the
      // non-overtaking guarantee.
      std::size_t lo = 0;
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (queue_[i].source == message.source && queue_[i].tag == message.tag) {
          lo = i + 1;
        }
      }
      pos = verify::hook_delivery_slot(owner_, message.source, message.tag, lo,
                                       queue_.size(), &message.vclock);
    }
    queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(message));
  }
  cv_.notify_all();
}

std::size_t Mailbox::find_locked(int source, int tag) const {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (m.tag == tag && (source == kAnySource || m.source == source)) return i;
  }
  return kNpos;
}

void Mailbox::audit_match_locked(int source, int tag,
                                 std::size_t chosen_idx) const {
  std::vector<verify::MatchCandidate> candidates;
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (m.tag != tag || (source != kAnySource && m.source != source)) continue;
    if (i == chosen_idx) chosen = candidates.size();
    candidates.push_back({m.source, &m.vclock});
  }
  verify::hook_match(owner_, source, tag, candidates.data(), candidates.size(),
                     chosen);
}

bool Mailbox::pop_matching(int source, int tag, Message* out,
                           std::optional<std::chrono::milliseconds> timeout) {
  if (verify::active()) verify::hook_recv_wait(owner_, source, tag);
  std::unique_lock<std::mutex> lock(mutex_);
  std::size_t idx = kNpos;
  const bool matched = wait_ready(cv_, lock, timeout, [&] {
    idx = find_locked(source, tag);
    return idx != kNpos;
  });
  if (!matched) return false;
  if (verify::active()) audit_match_locked(source, tag, idx);
  *out = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  return true;
}

std::vector<MessageInfo> Mailbox::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MessageInfo> out;
  out.reserve(queue_.size());
  for (const Message& m : queue_) {
    out.push_back({m.source, m.tag, m.payload.size()});
  }
  return out;
}

}  // namespace parpde::mpi
