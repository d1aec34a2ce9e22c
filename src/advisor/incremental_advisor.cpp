#include "advisor/incremental_advisor.hpp"

#include <algorithm>

namespace hmem::advisor {

IncrementalAdvisor::IncrementalAdvisor(MemorySpec spec, Options options,
                                       IncrementalAdvisorOptions incremental)
    : advisor_(std::move(spec), options), incremental_(incremental) {}

bool IncrementalAdvisor::drifted(std::uint64_t now, std::uint64_t solved,
                                 double threshold) {
  const std::uint64_t delta = now > solved ? now - solved : solved - now;
  const double base =
      static_cast<double>(std::max<std::uint64_t>(1, solved));
  return static_cast<double>(delta) > threshold * base;
}

RefreshStats IncrementalAdvisor::refresh(
    const analysis::IncrementalAggregator& profile, bool finalize) {
  RefreshStats stats;

  // ---- Whole-run placement (the static advisor's answer) -----------------
  {
    const std::uint64_t pv = profile.profile_version();
    const std::uint64_t v = profile.version();
    const bool dirty = !whole_run_.solved ||
                       whole_run_.profile_version != pv ||
                       whole_run_.version != v;
    const bool shape = !whole_run_.solved || whole_run_.profile_version != pv;
    if (dirty &&
        (finalize || shape ||
         drifted(profile.attributed_misses(), whole_run_.solved_misses,
                 incremental_.resolve_threshold))) {
      const analysis::ObjectsView view = profile.objects_view();
      placement_ = advisor_.advise(view.objects);
      whole_run_.solved = true;
      whole_run_.profile_version = view.profile_version;
      whole_run_.version = view.version;
      whole_run_.solved_misses = view.attributed_misses;
      ++resolves_;
      stats.whole_run_resolved = true;
    }
  }

  // ---- Per-phase placements ----------------------------------------------
  const std::size_t phases = profile.phase_count();
  bool placements_changed = false;
  if (phases > schedule_.phases.size()) {
    schedule_.phases.resize(phases);
    phase_states_.resize(phases);
    placements_changed = true;  // the cycle shape changed
  }
  for (std::size_t p = 0; p < phases; ++p) {
    ++stats.phases_seen;
    SolveState& st = phase_states_[p];
    const std::uint64_t pv = profile.profile_version();
    const std::uint64_t v = profile.phase_version(p);
    const bool dirty =
        !st.solved || st.profile_version != pv || st.version != v;
    if (!dirty) continue;
    ++stats.phases_dirty;
    const bool shape = !st.solved || st.profile_version != pv;
    if (!finalize && !shape &&
        !drifted(profile.phase_misses(p), st.solved_misses,
                 incremental_.resolve_threshold)) {
      continue;  // below the drift threshold: amortize, solve later
    }
    // One atomic slice read: the stored versions are exactly the ones the
    // solved input carried, so a concurrent writer can only make the state
    // look staler than it is, never fresher.
    const analysis::PhaseView view = profile.phase_view(p);
    schedule_.phases[p].phase = view.objects.name;
    schedule_.phases[p].placement = advisor_.advise(view.objects.objects);
    st.solved = true;
    st.profile_version = view.profile_version;
    st.version = view.version;
    st.solved_misses = view.misses;
    ++resolves_;
    ++stats.phases_resolved;
    placements_changed = true;
  }
  if (placements_changed && phases > 0) {
    compute_migrations(schedule_);
    stats.schedule_changed = true;
  }
  return stats;
}

}  // namespace hmem::advisor
