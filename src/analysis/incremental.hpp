// Incremental trace aggregation — the streaming counterpart of
// AggregateVisitor, fed by `hmem_advise --stream`.
//
// AggregateVisitor is single-shot: feed the whole stream, call finish()
// once, the accumulators are consumed. IncrementalAggregator keeps the
// identical accumulator semantics — per-site miss counters, live max-size
// tracking, the open-phase binning stack — but exposes a non-destructive
// snapshot() that can be taken at ANY point mid-stream, any number of
// times, concurrently with the writer feeding events. The contract that
// makes the batch path a usable oracle:
//
//   snapshot() after the first k events  ==  AggregateVisitor fed the same
//                                            k events, then finish()
//
// field for field, bit for bit (asserted by tests/test_incremental.cpp and
// the prefix property in tests/test_fuzz.cpp). The implementations are
// deliberately independent — sharing the accumulator code would make the
// differential suite test nothing.
//
// Thread safety: all mutating visitor callbacks and all readers
// (snapshot(), the version counters, the views) synchronize on one
// internal mutex, so one writer thread may stream events while other
// threads take snapshots or refresh an IncrementalAdvisor. The writer must
// still be a single thread (events must arrive in time order, as in the
// batch path).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/aggregator.hpp"
#include "callstack/sitedb.hpp"
#include "profiler/object_registry.hpp"
#include "trace/visitor.hpp"

namespace hmem::analysis {

/// Atomic (single-lock) read of the whole-run object profile plus the
/// version counters that were current when it was taken — what
/// IncrementalAdvisor stores per solve so a concurrent writer can never
/// make a solved state look fresher than its input.
struct ObjectsView {
  std::vector<advisor::ObjectInfo> objects;  ///< == snapshot().objects
  std::uint64_t profile_version = 0;
  std::uint64_t version = 0;  ///< whole-run change counter at read time
  std::uint64_t attributed_misses = 0;
};

/// Same idea for one phase slice: == snapshot().phases[index].
struct PhaseView {
  advisor::PhaseObjects objects;
  std::uint64_t profile_version = 0;
  std::uint64_t version = 0;  ///< this phase's change counter at read time
  std::uint64_t misses = 0;   ///< weighted misses binned into this phase
};

class IncrementalAggregator : public trace::EventVisitor {
 public:
  explicit IncrementalAggregator(const callstack::SiteDb& sites);

  void on_alloc(const trace::AllocEvent& e) override;
  void on_free(const trace::FreeEvent& e) override;
  void on_sample(const trace::SampleEvent& e) override;
  void on_phase(const trace::PhaseEvent& e) override;
  void on_counter(const trace::CounterEvent& e) override;

  /// The batch-equivalent view of everything seen so far. Non-destructive;
  /// equals AggregateVisitor::finish() over the same event prefix exactly.
  AggregateResult snapshot() const;

  /// O(sites log sites) single-phase / whole-run reads for the amortized
  /// re-solve path (snapshot() is O(phases * sites log sites)).
  ObjectsView objects_view() const;
  PhaseView phase_view(std::size_t phase) const;

  // ---- Dirty-tracking counters -----------------------------------------
  // profile_version() moves when the *shape* of the profile changes — a new
  // site is seen or a site's max observed size grows — which invalidates
  // every phase slice (max_size/is_dynamic are whole-run properties).
  // version() moves with every whole-run-visible change (profile shape or
  // an attributed sample); phase_version(p) moves only when a sample is
  // binned into phase p. A reader that stored the counters alongside its
  // last consumed view can decide staleness without touching the profile.
  std::uint64_t profile_version() const;
  std::uint64_t version() const;
  std::size_t phase_count() const;
  std::string phase_name(std::size_t phase) const;
  std::uint64_t phase_version(std::size_t phase) const;
  std::uint64_t phase_misses(std::size_t phase) const;

  std::uint64_t events_seen() const;
  std::uint64_t samples_seen() const;
  std::uint64_t attributed_misses() const;

 private:
  struct SiteAccum {
    std::uint64_t max_size = 0;
    std::uint64_t misses = 0;
    bool seen = false;
  };
  struct PhaseAccum {
    std::string name;
    std::vector<std::uint64_t> misses;  ///< indexed by SiteId
    std::uint64_t total = 0;
    std::uint64_t version = 0;
  };

  void check_order(double t);
  SiteAccum& accum_for(callstack::SiteId site);
  std::size_t phase_accum_for(const std::string& name);
  std::vector<advisor::ObjectInfo> build_objects() const;  // caller holds mu_
  advisor::PhaseObjects build_phase(
      const PhaseAccum& pa, const std::vector<advisor::ObjectInfo>& whole)
      const;

  mutable std::mutex mu_;
  const callstack::SiteDb* sites_;
  std::vector<SiteAccum> accum_;
  std::vector<PhaseAccum> phase_accum_;   ///< first-seen phase-name order
  std::vector<std::size_t> open_phases_;  ///< indices into phase_accum_
  profiler::ObjectRegistry registry_;
  double last_time_ = -1.0;

  std::uint64_t events_ = 0;
  std::uint64_t total_samples_ = 0;
  std::uint64_t total_weighted_misses_ = 0;
  std::uint64_t unattributed_samples_ = 0;
  std::uint64_t unattributed_misses_ = 0;
  std::uint64_t profile_version_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace hmem::analysis
