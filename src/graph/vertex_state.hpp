/// \file vertex_state.hpp
/// Per-vertex algorithm state: one value per local slot plus one per ghost
/// slot.  Each partition that contains v holds (its own copy of) v's state
/// — replicated for split vertices, exactly as the paper prescribes
/// (§III-A1: "Each partition that contains v also contains the algorithm
/// state for v").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sfg::graph {

template <typename T>
class vertex_state {
 public:
  vertex_state(std::size_t num_slots, std::size_t num_ghosts, T init)
      : local_(num_slots, init), ghost_(num_ghosts, init), init_(init) {}

  [[nodiscard]] T& local(std::size_t slot) { return local_[slot]; }
  [[nodiscard]] const T& local(std::size_t slot) const { return local_[slot]; }
  [[nodiscard]] T& ghost(std::size_t gslot) { return ghost_[gslot]; }
  [[nodiscard]] const T& ghost(std::size_t gslot) const { return ghost_[gslot]; }

  [[nodiscard]] std::span<T> locals() { return local_; }
  [[nodiscard]] std::span<const T> locals() const { return local_; }
  [[nodiscard]] std::span<T> ghosts() { return ghost_; }

  /// The value every slot and ghost started from.  A monotone visitor's
  /// sender-side filters (ghosts, the queue's send cache) start a fresh
  /// entry from it.
  [[nodiscard]] const T& init() const { return init_; }

 private:
  std::vector<T> local_;
  std::vector<T> ghost_;
  T init_;
};

}  // namespace sfg::graph
