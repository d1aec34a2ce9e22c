// Live-object interval map: address -> owning allocation site.
//
// Extrae "registers the allocated address range through the returned pointer
// and the size of the allocation" and attributes each sampled reference "by
// matching the accessed address against the previously allocated object's
// address ranges". This is that matcher: an ordered map of disjoint live
// ranges supporting O(log n) point lookup.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "callstack/sitedb.hpp"
#include "memsim/address.hpp"

namespace hmem::profiler {

using callstack::SiteId;
using memsim::Address;

struct LiveObject {
  Address addr = 0;
  std::uint64_t size = 0;
  SiteId site = callstack::kInvalidSite;
};

class ObjectRegistry {
 public:
  /// Registers a live range. Overlapping an existing live range is a logic
  /// error (allocators hand out disjoint memory) and asserts.
  void on_alloc(Address addr, std::uint64_t size, SiteId site);

  /// Removes a live range; returns the removed record, nullopt when addr is
  /// not the base of a live object (e.g. free of an unmonitored small
  /// allocation — the caller decides whether that is expected).
  std::optional<LiveObject> on_free(Address addr);

  /// Object whose range contains addr, if any.
  std::optional<LiveObject> lookup(Address addr) const;

  std::size_t live_count() const { return objects_.size(); }

  void clear();

 private:
  std::map<Address, LiveObject> objects_;  ///< keyed by base address
};

}  // namespace hmem::profiler
