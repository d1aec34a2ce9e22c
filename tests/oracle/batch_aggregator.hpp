// Test oracle for stage 2 (trace aggregation): an independent batch
// implementation of the attribution rules of analysis::AggregateVisitor.
//
// It replays events in time order against its own live-object map and
// per-site accumulators and reports, per allocation site, the weighted
// sampled LLC misses attributed to live ranges and the maximum requested
// size. It shares no accumulator, phase-binning or builder code with
// src/analysis, so the differential tests (test_incremental, the prefix
// property of test_fuzz) compare the library with a second reading of the
// same rules rather than with itself. Test-only: nothing in src/ links it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/aggregator.hpp"
#include "callstack/sitedb.hpp"
#include "profiler/object_registry.hpp"
#include "trace/format.hpp"
#include "trace/visitor.hpp"

namespace hmem::oracle {

/// Single-shot batch aggregation. Feed events (in non-decreasing time
/// order — asserted), then call finish() exactly once.
class BatchAggregator : public trace::EventVisitor {
 public:
  explicit BatchAggregator(const callstack::SiteDb& sites);

  void on_alloc(const trace::AllocEvent& e) override;
  void on_free(const trace::FreeEvent& e) override;
  void on_sample(const trace::SampleEvent& e) override;
  void on_phase(const trace::PhaseEvent& e) override;
  void on_counter(const trace::CounterEvent& e) override;

  /// Finalizes: one ObjectInfo per seen site, sorted by descending misses.
  analysis::AggregateResult finish();

 private:
  struct SiteAccum {
    std::uint64_t max_size = 0;
    std::uint64_t misses = 0;
    bool seen = false;
  };
  /// Per-phase miss accumulator (max_size/is_dynamic stay whole-run).
  struct PhaseAccum {
    std::string name;
    std::vector<std::uint64_t> misses;  ///< indexed by SiteId
  };

  void check_order(double t);
  SiteAccum& accum_for(callstack::SiteId site);
  std::size_t phase_accum_for(const std::string& name);

  const callstack::SiteDb* sites_;
  std::vector<SiteAccum> accum_;
  std::vector<PhaseAccum> phase_accum_;  ///< first-seen phase-name order
  /// Begins are stacked; a sample is binned into the most recently begun
  /// phase still open (merged multi-rank streams interleave phase names).
  std::vector<std::size_t> open_phases_;  ///< indices into phase_accum_
  profiler::ObjectRegistry registry_;
  double last_time_ = -1.0;
  analysis::AggregateResult result_;
};

/// The oracle's result for the first `count` events of `events`.
analysis::AggregateResult batch_aggregate(
    const std::vector<trace::Event>& events, std::size_t count,
    const callstack::SiteDb& sites);

}  // namespace hmem::oracle
