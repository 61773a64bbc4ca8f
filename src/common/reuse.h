#ifndef HOMETS_COMMON_REUSE_H_
#define HOMETS_COMMON_REUSE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace homets {

/// \brief Resizes `*items` to `n` without destroying an element: a shrink
/// moves the dropped elements to `*spare`, and a grow takes elements back
/// from `*spare` before it default-constructs new ones. Elements that own
/// buffers (series, device traces) thereby keep them for a later, larger
/// use. The elements taken back hold stale contents; the caller rewrites
/// them.
template <typename T>
void ResizeKeepingElements(std::vector<T>* items, size_t n,
                           std::vector<T>* spare) {
  while (items->size() > n) {
    spare->push_back(std::move(items->back()));
    items->pop_back();
  }
  while (items->size() < n) {
    if (spare->empty()) {
      items->emplace_back();
      continue;
    }
    items->push_back(std::move(spare->back()));
    spare->pop_back();
  }
}

}  // namespace homets

#endif  // HOMETS_COMMON_REUSE_H_
