// Trace aggregation — the Paramedir substitute (stage 2).
//
// Replays a trace in time order, maintaining the live-object map, and
// produces one ObjectInfo row per allocation site: the access cost
// (weighted sampled LLC misses attributed to live ranges) and the object's
// size. "If an application loops over a data allocation, the call-stack will
// be the same for each iteration ... we report the maximum requested size
// observed for each repeated allocation site."
//
// The aggregation is a single-pass streaming visitor: it holds per-site
// accumulators and the live-range map, never the trace itself, so it scales
// to arbitrarily long event streams (feed it from a TraceReader — possibly
// a k-way merge over per-rank shards — or straight from the profiler via a
// VisitorSink). aggregate_trace() is the buffered-path adapter. This is
// the library's only implementation of the rules; the streaming
// IncrementalAggregator is one of these behind a lock, and the independent
// re-implementation the differential tests compare against lives in
// tests/oracle/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advisor/object_info.hpp"
#include "advisor/phase_advisor.hpp"
#include "callstack/sitedb.hpp"
#include "profiler/object_registry.hpp"
#include "trace/format.hpp"
#include "trace/visitor.hpp"

namespace hmem::analysis {

struct AggregateResult {
  std::vector<advisor::ObjectInfo> objects;
  /// Per-phase slices of `objects`, in first-seen phase order: the same
  /// sites (same max_size/is_dynamic, same descending-miss sort) with
  /// llc_misses restricted to samples taken while that phase was open.
  /// Single-phase traces therefore yield phases[0].objects == objects,
  /// which is what makes a single-phase PlacementSchedule bit-identical to
  /// the static placement. Input for advisor::PhaseAdvisor.
  std::vector<advisor::PhaseObjects> phases;
  /// Samples whose address matched no live object (stack/static traffic the
  /// allocation instrumentation never saw; BT/CGPOP before the paper's
  /// hand modification are the canonical case).
  std::uint64_t unattributed_samples = 0;
  std::uint64_t unattributed_misses = 0;
  std::uint64_t total_samples = 0;
  std::uint64_t total_weighted_misses = 0;

  double unattributed_fraction() const {
    return total_samples > 0 ? static_cast<double>(unattributed_samples) /
                                   static_cast<double>(total_samples)
                             : 0.0;
  }
};

/// Atomic read of the whole-run object profile plus the version counters
/// that were current when it was taken — what IncrementalAdvisor stores per
/// solve so a concurrent writer can never make a solved state look fresher
/// than its input.
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

/// The one aggregation core: a single-pass, single-writer streaming visitor.
/// Feed events in non-decreasing time order (asserted). Every read is
/// const and non-destructive, so the profile can be read at any point
/// mid-stream, any number of times; finish() is simply the last snapshot().
/// The SiteDb may still be growing while events stream in (the format
/// readers intern sites lazily); it is only consulted per referenced site
/// and when a read builds ObjectInfo rows. Takes no lock: a writer racing
/// readers goes through IncrementalAggregator, which wraps one of these.
class AggregateVisitor : public trace::EventVisitor {
 public:
  explicit AggregateVisitor(const callstack::SiteDb& sites);

  void on_alloc(const trace::AllocEvent& e) override;
  void on_free(const trace::FreeEvent& e) override;
  void on_sample(const trace::SampleEvent& e) override;
  void on_phase(const trace::PhaseEvent& e) override;
  void on_counter(const trace::CounterEvent& e) override;

  /// Everything seen so far: one ObjectInfo per seen site, sorted by
  /// descending misses, plus every phase slice and the totals.
  AggregateResult snapshot() const;
  AggregateResult finish() const { return snapshot(); }

  /// O(sites log sites) whole-run / single-phase reads for the amortized
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
  std::uint64_t profile_version() const { return profile_version_; }
  std::uint64_t version() const { return version_; }
  std::size_t phase_count() const { return phase_accum_.size(); }
  std::uint64_t phase_version(std::size_t phase) const;
  std::uint64_t phase_misses(std::size_t phase) const;

  std::uint64_t events_seen() const { return events_; }
  std::uint64_t attributed_misses() const {
    return total_weighted_misses_ - unattributed_misses_;
  }

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
    std::uint64_t total = 0;
    std::uint64_t version = 0;
  };

  void admit(double t);
  SiteAccum& accum_for(callstack::SiteId site);
  std::size_t phase_accum_for(const std::string& name);
  const PhaseAccum& phase_at(std::size_t phase) const;
  std::vector<advisor::ObjectInfo> build_objects() const;
  advisor::PhaseObjects build_phase(
      const PhaseAccum& pa,
      const std::vector<advisor::ObjectInfo>& whole) const;

  const callstack::SiteDb* sites_;
  std::vector<SiteAccum> accum_;
  std::vector<PhaseAccum> phase_accum_;  ///< first-seen phase-name order
  /// Open-phase tracking. A single-rank trace opens/closes phases strictly
  /// sequentially; a k-way *merged* multi-rank stream interleaves the same
  /// phase names across ranks (phase events carry no rank id), so begins
  /// are stacked and a sample is binned into the most recently begun phase
  /// still open — deterministic, exact for single-rank traces, and at worst
  /// a boundary smear for merged ones.
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

/// Aggregates a buffered trace against the site database that produced it
/// (the profiled run's in-memory TraceBuffer): AggregateVisitor over
/// visit_buffer(), then finish().
AggregateResult aggregate_trace(const trace::TraceBuffer& trace,
                                const callstack::SiteDb& sites);

/// Aggregates a pull stream (single shard or k-way merge) in one pass.
/// `sites` must be the database the reader interns into.
AggregateResult aggregate_stream(trace::TraceReader& reader,
                                 const callstack::SiteDb& sites);

/// Paramedir's CSV view of the aggregation: one row per object, sorted by
/// descending misses. Columns: name, site, dynamic, max_size, llc_misses,
/// density(misses/KiB).
std::string objects_to_csv(const std::vector<advisor::ObjectInfo>& objects);

/// Parses the CSV back (tests + tool interop). Call-stacks are not part of
/// the CSV, so the result carries name/size/misses only; full round-trip
/// object identity flows through the placement report instead.
std::vector<advisor::ObjectInfo> objects_from_csv(const std::string& text);

}  // namespace hmem::analysis
