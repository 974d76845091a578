// Map from int keys held as one sorted vector, for the few VMs of a host
// and the destinations of each: a lookup binary-searches contiguous memory
// instead of chasing tree nodes, and iteration visits keys in ascending
// order, as std::map's does. Inserting shifts the tail, so it invalidates
// references to other entries.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

namespace silo::sim {

template <class V>
class IntMap {
 public:
  /// The entry for `key`, or null.
  V* find(int key) {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? &it->second : nullptr;
  }

  /// The entry for `key`, default-constructed on first use.
  V& operator[](int key) {
    auto it = lower_bound(key);
    if (it == items_.end() || it->first != key)
      it = items_.emplace(it, key, V{});
    return it->second;
  }

  auto begin() { return items_.begin(); }
  auto end() { return items_.end(); }

 private:
  using Items = std::vector<std::pair<int, V>>;

  typename Items::iterator lower_bound(int key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const std::pair<int, V>& e, int k) { return e.first < k; });
  }

  Items items_;
};

}  // namespace silo::sim
