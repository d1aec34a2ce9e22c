// Incremental trace aggregation — the thread-safe face of AggregateVisitor,
// fed by `hmem_advise --stream`.
//
// AggregateVisitor is the library's one aggregation core: single-writer,
// lock-free, with non-destructive const reads. IncrementalAggregator is
// one AggregateVisitor behind one mutex: every visitor callback and every
// reader takes the lock and forwards, so one writer thread may stream
// events while other threads take snapshots or refresh an
// IncrementalAdvisor. The writer must still be a single thread (events
// must arrive in time order, as in the batch path).
//
// Because both paths run the same core, the contract
//
//   snapshot() after the first k events  ==  batch aggregation of the same
//                                            k events
//
// is checked against an independent re-implementation of the rules,
// hmem::oracle::BatchAggregator in tests/oracle/, field for field (all 10
// bundled apps × 4 presets in tests/test_incremental.cpp, random cut points
// in the prefix property of tests/test_fuzz.cpp).
#pragma once

#include <cstdint>
#include <mutex>

#include "analysis/aggregator.hpp"
#include "callstack/sitedb.hpp"
#include "trace/visitor.hpp"

namespace hmem::analysis {

class IncrementalAggregator : public trace::EventVisitor {
 public:
  explicit IncrementalAggregator(const callstack::SiteDb& sites);

  void on_alloc(const trace::AllocEvent& e) override;
  void on_free(const trace::FreeEvent& e) override;
  void on_sample(const trace::SampleEvent& e) override;
  void on_phase(const trace::PhaseEvent& e) override;
  void on_counter(const trace::CounterEvent& e) override;

  /// Each read is one atomic (single-lock) AggregateVisitor read; the view
  /// structs carry the version counters current at that read.
  AggregateResult snapshot() const;
  ObjectsView objects_view() const;
  PhaseView phase_view(std::size_t phase) const;

  /// The dirty-tracking counters of AggregateVisitor, read under the lock.
  std::uint64_t profile_version() const;
  std::uint64_t version() const;
  std::size_t phase_count() const;
  std::uint64_t phase_version(std::size_t phase) const;
  std::uint64_t phase_misses(std::size_t phase) const;

  std::uint64_t events_seen() const;
  std::uint64_t attributed_misses() const;

 private:
  mutable std::mutex mu_;
  AggregateVisitor core_;
};

}  // namespace hmem::analysis
