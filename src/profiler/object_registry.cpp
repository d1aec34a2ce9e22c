#include "profiler/object_registry.hpp"

#include "common/assert.hpp"

namespace hmem::profiler {

void ObjectRegistry::on_alloc(Address addr, std::uint64_t size, SiteId site) {
  HMEM_ASSERT(size > 0);
  // Disjointness check against neighbours only — ranges are disjoint by
  // induction, so overlap can only involve the immediate neighbours.
  auto next = objects_.lower_bound(addr);
  if (next != objects_.end()) {
    HMEM_ASSERT_MSG(addr + size <= next->second.addr,
                    "allocation overlaps a live object");
  }
  if (next != objects_.begin()) {
    const auto& prev = std::prev(next)->second;
    HMEM_ASSERT_MSG(prev.addr + prev.size <= addr,
                    "allocation overlaps a live object");
  }
  objects_[addr] = LiveObject{addr, size, site};
}

std::optional<LiveObject> ObjectRegistry::on_free(Address addr) {
  const auto it = objects_.find(addr);
  if (it == objects_.end()) return std::nullopt;
  const LiveObject obj = it->second;
  objects_.erase(it);
  return obj;
}

std::optional<LiveObject> ObjectRegistry::lookup(Address addr) const {
  auto it = objects_.upper_bound(addr);
  if (it == objects_.begin()) return std::nullopt;
  const LiveObject& candidate = std::prev(it)->second;
  if (addr >= candidate.addr && addr < candidate.addr + candidate.size) {
    return candidate;
  }
  return std::nullopt;
}

void ObjectRegistry::clear() {
  objects_.clear();
}

}  // namespace hmem::profiler
