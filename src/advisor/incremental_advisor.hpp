// Incremental placement advisor — the amortized re-solve wrapper around the
// per-phase knapsack cascade, behind `hmem_advise --stream`.
//
// PhaseAdvisor::advise is batch: every phase's knapsack re-runs on every
// call, whether or not that phase's profile moved. IncrementalAdvisor keeps
// one solved Placement per phase (plus the whole-run placement) together
// with the IncrementalAggregator version counters its inputs carried, and
// on refresh() re-solves ONLY:
//
//   * phases never solved before (or newly appeared in the stream),
//   * phases whose profile shape changed (new site / grown max-size —
//     profile_version moved), and
//   * phases whose binned miss mass drifted by more than
//     resolve_threshold since their last solve.
//
// A clean phase costs two integer compares; a dirty one costs one
// O(sites log sites) slice build plus the knapsack cascade — the target
// refresh cost from the roadmap. Migration lists are recomputed (a pure
// function of the placements) only when some placement actually changed.
//
// Convergence contract, asserted by tests/test_incremental.cpp: after the
// stream ends, refresh(agg, /*finalize=*/true) re-solves every phase with
// ANY unconsumed change (the drift threshold is an amortization device for
// mid-stream refreshes, never a correctness trade), making schedule()
// bit-identical to PhaseAdvisor::advise on the batch aggregation — a clean
// phase's last solve already consumed the final accumulator state, and the
// knapsack is a pure function of its input.
#pragma once

#include <cstdint>
#include <vector>

#include "advisor/phase_advisor.hpp"
#include "analysis/incremental.hpp"

namespace hmem::advisor {

struct IncrementalAdvisorOptions {
  /// Fraction of a phase's last-solved miss mass that must drift before a
  /// mid-stream refresh re-runs its knapsack. Profile-shape changes and
  /// never-solved phases re-solve regardless; finalize ignores the
  /// threshold entirely.
  double resolve_threshold = 0.05;
};

/// What one refresh() did — the bench and the tool's progress line.
struct RefreshStats {
  std::size_t phases_seen = 0;      ///< phases in the stream so far
  std::size_t phases_dirty = 0;     ///< had unconsumed changes
  std::size_t phases_resolved = 0;  ///< knapsacks actually re-run
  bool whole_run_resolved = false;
  bool schedule_changed = false;    ///< migrations were recomputed
};

class IncrementalAdvisor {
 public:
  IncrementalAdvisor(MemorySpec spec, Options options,
                     IncrementalAdvisorOptions incremental = {});

  /// Brings the schedule and the whole-run placement up to date with the
  /// aggregator. Safe to call while another thread is still feeding the
  /// aggregator (each slice is read atomically with its version counters);
  /// the finalize pass must run after the stream has been fully fed for
  /// the convergence contract to hold.
  RefreshStats refresh(const analysis::IncrementalAggregator& profile,
                       bool finalize = false);

  /// Per-phase schedule over everything consumed so far; empty (no phases)
  /// until the stream carries phase events. refresh() mutates the object
  /// in place and reports it in RefreshStats::schedule_changed; a refresh
  /// that changed nothing leaves it untouched.
  const PlacementSchedule& schedule() const { return schedule_; }
  bool has_phases() const { return !schedule_.phases.empty(); }
  /// Whole-run (static) placement over everything consumed so far.
  const Placement& placement() const { return placement_; }

  /// Lifetime knapsack-solve count (phases + whole-run) — what the
  /// amortization tests and the refresh bench measure.
  std::uint64_t total_resolves() const { return resolves_; }

  const MemorySpec& spec() const { return advisor_.spec(); }
  const Options& options() const { return advisor_.options(); }

 private:
  struct SolveState {
    bool solved = false;
    std::uint64_t profile_version = 0;  ///< consumed at last solve
    std::uint64_t version = 0;          ///< consumed at last solve
    std::uint64_t solved_misses = 0;    ///< drift baseline
  };

  static bool drifted(std::uint64_t now, std::uint64_t solved,
                      double threshold);

  HmemAdvisor advisor_;
  IncrementalAdvisorOptions incremental_;
  PlacementSchedule schedule_;
  Placement placement_;
  std::vector<SolveState> phase_states_;  ///< parallel to schedule_.phases
  SolveState whole_run_;
  std::uint64_t resolves_ = 0;
};

}  // namespace hmem::advisor
