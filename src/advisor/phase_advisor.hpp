// Phase-aware placement — the dynamic extension of hmem_advisor.
//
// The static advisor assumes every object is live (and equally hot) for the
// whole run; the folding stage exists precisely because that is not true.
// PhaseAdvisor closes the loop: it solves the same knapsack cascade once per
// folded phase and emits a PlacementSchedule — one Placement per phase plus,
// for every phase transition, the list of live objects whose tier assignment
// changes (the migrations the runtime must perform, and whose traffic the
// engine charges through the memory model: bytes moved = live size, served
// at source-tier read + destination-tier write cost).
//
// A single-phase profile degenerates to the static advisor exactly: the
// schedule holds one placement, bit-identical to HmemAdvisor::advise on the
// whole-run profile, and an empty migration list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advisor/advisor.hpp"

namespace hmem::advisor {

/// Per-phase slice of the profile: the same ObjectInfo records as the
/// whole-run aggregation, with llc_misses restricted to samples taken while
/// the phase was open (max_size/is_dynamic stay whole-run properties).
/// Produced by analysis::AggregateVisitor, consumed here.
struct PhaseObjects {
  std::string name;
  std::vector<ObjectInfo> objects;
};

/// One object whose tier assignment changes at a phase boundary. Tier ids
/// are placement-tier indices (0 = fastest; tiers-1 = the fallback).
struct Migration {
  std::string object_name;
  callstack::SymbolicCallStack stack;
  std::uint64_t bytes = 0;  ///< live size moved (per instance)
  std::size_t from_tier = 0;
  std::size_t to_tier = 0;

  bool is_demotion() const { return to_tier > from_tier; }
};

struct PhasePlacement {
  std::string phase;
  Placement placement;
};

/// The dynamic advisor's output: per-phase placements plus the migration
/// diff between consecutive phases.
struct PlacementSchedule {
  std::vector<PhasePlacement> phases;
  /// migrations[p] is applied on *entering* phase p from the previous phase
  /// in cycle order ((p - 1 + P) % P) — migrations[0] is the wrap-around
  /// applied at each iteration boundary. Demotions are listed before
  /// promotions so a full fast tier drains before it refills. Empty lists
  /// everywhere when the schedule has a single phase.
  std::vector<std::vector<Migration>> migrations;

  /// Placement for a phase name; nullptr when the name is unknown.
  const Placement* placement_for(const std::string& phase) const;
  /// Total bytes moved over one full phase cycle (all transitions).
  std::uint64_t migration_bytes_per_cycle() const;
};

/// Recomputes the migration lists from the per-phase placements (the diff is
/// a pure function of them; the schedule report does not serialize it).
void compute_migrations(PlacementSchedule& schedule);

/// Runs the static advisor once per phase over the same memory spec.
class PhaseAdvisor {
 public:
  PhaseAdvisor(MemorySpec spec, Options options);

  PlacementSchedule advise(const std::vector<PhaseObjects>& phases) const;

  const MemorySpec& spec() const { return advisor_.spec(); }
  const Options& options() const { return advisor_.options(); }

 private:
  HmemAdvisor advisor_;
};

}  // namespace hmem::advisor
