#pragma once

// Collective operations built on the point-to-point layer. All ranks of a
// communicator must call each collective in the same order (standard MPI
// contract). Broadcast and reduction use binomial trees (log P rounds); the
// message tags live in a reserved range so collectives and user p2p traffic
// never match each other.

#include <algorithm>
#include <span>
#include <vector>

#include "minimpi/communicator.hpp"
#include "minimpi/tags.hpp"

namespace parpde::mpi {

enum class ReduceOp { kSum, kMin, kMax };

// Collective traffic uses the reserved tags::kCollectives block (see
// minimpi/tags.hpp); re-exported here so call sites keep their names.
using tags::kTagBcast;
using tags::kTagGather;
using tags::kTagReduce;

// Blocks until all ranks have entered the barrier. A shared condition
// variable, not messages: it sends nothing and no fault plan can drop it.
void barrier(Communicator& comm);

namespace detail {

template <typename T>
void apply_op(ReduceOp op, std::span<T> acc, std::span<const T> other) {
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case ReduceOp::kSum:
        acc[i] += other[i];
        break;
      case ReduceOp::kMin:
        acc[i] = std::min(acc[i], other[i]);
        break;
      case ReduceOp::kMax:
        acc[i] = std::max(acc[i], other[i]);
        break;
    }
  }
}

}  // namespace detail

// Broadcasts `data` from `root` to all ranks (binomial tree). Non-root ranks
// resize `data` to the root's payload.
template <typename T>
void bcast(Communicator& comm, std::vector<T>& data, int root) {
  const int size = comm.size();
  const int vrank = (comm.rank() - root + size) % size;
  // Receive once from the parent...
  for (int mask = 1; mask < size; mask <<= 1) {
    if (vrank >= mask && vrank < 2 * mask) {
      const int parent = (vrank - mask + root) % size;
      data = comm.recv<T>(parent, kTagBcast);
      break;
    }
  }
  // ...then forward to all children.
  for (int mask = 1; mask < size; mask <<= 1) {
    if (vrank < mask && vrank + mask < size) {
      const int child = (vrank + mask + root) % size;
      comm.send<T>(child, kTagBcast, data);
    }
  }
}

// Reduces elementwise into `inout` at `root` (binomial tree); other ranks'
// `inout` is left as their contribution.
template <typename T>
void reduce(Communicator& comm, std::span<T> inout, ReduceOp op, int root) {
  const int size = comm.size();
  const int vrank = (comm.rank() - root + size) % size;
  for (int mask = 1; mask < size; mask <<= 1) {
    if ((vrank & mask) != 0) {
      const int parent = ((vrank & ~mask) + root) % size;
      comm.send<T>(parent, kTagReduce, std::span<const T>(inout.data(), inout.size()));
      return;
    }
    if (vrank + mask < size) {
      const int child = (vrank + mask + root) % size;
      const auto partial = comm.recv<T>(child, kTagReduce);
      if (partial.size() != inout.size()) {
        throw std::runtime_error("reduce: contribution size mismatch");
      }
      detail::apply_op<T>(op, inout, partial);
    }
  }
}

// Elementwise reduction visible on every rank: tree-reduce to rank 0, then
// broadcast the result.
template <typename T>
void allreduce(Communicator& comm, std::span<T> inout, ReduceOp op) {
  reduce(comm, inout, op, /*root=*/0);
  std::vector<T> buffer;
  if (comm.rank() == 0) buffer.assign(inout.begin(), inout.end());
  bcast(comm, buffer, /*root=*/0);
  std::copy(buffer.begin(), buffer.end(), inout.begin());
}

// Concatenates each rank's `local` block at `root` in rank order. Non-root
// ranks receive an empty vector. Blocks may have different lengths.
template <typename T>
std::vector<T> gather(Communicator& comm, std::span<const T> local, int root) {
  if (comm.rank() != root) {
    comm.send<T>(root, kTagGather, local);
    return {};
  }
  std::vector<T> out;
  for (int r = 0; r < comm.size(); ++r) {
    if (r == comm.rank()) {
      out.insert(out.end(), local.begin(), local.end());
    } else {
      const auto block = comm.recv<T>(r, kTagGather);
      out.insert(out.end(), block.begin(), block.end());
    }
  }
  return out;
}

// Gather to rank 0 followed by broadcast: every rank gets the concatenation.
template <typename T>
std::vector<T> allgather(Communicator& comm, std::span<const T> local) {
  std::vector<T> out = gather(comm, local, /*root=*/0);
  bcast(comm, out, /*root=*/0);
  return out;
}

}  // namespace parpde::mpi
