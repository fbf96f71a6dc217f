#pragma once

// Versioned task -> rank ownership map for the elastic runtime.
//
// The paper's topology bakes `(cx, cy) == rank` into every partition call
// site; the elastic runtime instead over-decomposes the grid into M >= P
// subdomain *tasks* and routes all traffic through this explicit map. The
// map is versioned by an epoch counter that increments on every rebalance,
// and rebalancing is a *pure function* of the initial layout and the
// cumulative failed-rank set — every survivor computes the identical new
// map locally, with no coordinator and no post-failure collectives (which
// would hang on the dead rank anyway).

#include <vector>

namespace parpde::elastic {

class Assignment {
 public:
  // M tasks striped round-robin over P ranks: owner(t) = t % P at epoch 0.
  Assignment(int tasks, int ranks);

  [[nodiscard]] int tasks() const { return static_cast<int>(owner_.size()); }
  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] int epoch() const { return epoch_; }
  [[nodiscard]] int owner(int task) const { return owner_[task]; }
  // owner(t) for every task t.
  [[nodiscard]] const std::vector<int>& owners() const { return owner_; }
  [[nodiscard]] bool alive(int rank) const { return alive_[rank]; }
  [[nodiscard]] int live_ranks() const;

  // Tasks currently owned by `rank`, ascending task id.
  [[nodiscard]] std::vector<int> tasks_of(int rank) const;

  // Deterministic rebalance: marks every rank in `failed` dead, then hands
  // each orphaned task (ascending id) to the live rank owning the fewest
  // tasks, ties broken by lowest rank id. Bumps the epoch. Returns the list
  // of reassigned task ids. Survivors calling this with the same failed set
  // in any order converge on bit-identical maps.
  std::vector<int> rebalance(const std::vector<int>& failed);

 private:
  int ranks_;
  int epoch_ = 0;
  std::vector<int> owner_;   // task -> rank
  std::vector<char> alive_;  // rank -> liveness
};

}  // namespace parpde::elastic
