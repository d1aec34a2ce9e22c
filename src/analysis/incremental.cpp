#include "analysis/incremental.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hmem::analysis {

namespace {

/// The one ordering every profile consumer sees: descending misses, site id
/// as the total tie-break. Identical to AggregateVisitor::finish() — the
/// comparator is a strict total order, so sorted output is independent of
/// input order and bit-comparable across the two implementations.
bool by_misses(const advisor::ObjectInfo& a, const advisor::ObjectInfo& b) {
  if (a.llc_misses != b.llc_misses) return a.llc_misses > b.llc_misses;
  return a.site < b.site;
}

}  // namespace

IncrementalAggregator::IncrementalAggregator(const callstack::SiteDb& sites)
    : sites_(&sites) {
  accum_.resize(sites.size());
}

void IncrementalAggregator::check_order(double t) {
  HMEM_ASSERT_MSG(t >= last_time_, "trace events out of time order");
  last_time_ = t;
}

IncrementalAggregator::SiteAccum& IncrementalAggregator::accum_for(
    callstack::SiteId site) {
  HMEM_ASSERT_MSG(site < sites_->size(),
                  "event references a site missing from the SiteDb");
  if (site >= accum_.size()) accum_.resize(sites_->size());
  return accum_[site];
}

void IncrementalAggregator::on_alloc(const trace::AllocEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  check_order(e.time_ns);
  ++events_;
  SiteAccum& sa = accum_for(e.site);
  if (!sa.seen || e.size > sa.max_size) {
    // A new site or a grown max-size reshapes every phase slice (max_size
    // is a whole-run property carried into each phase), so this is the
    // profile-wide invalidation signal.
    ++profile_version_;
    ++version_;
  }
  sa.seen = true;
  sa.max_size = std::max(sa.max_size, e.size);
  registry_.on_alloc(e.addr, e.size, e.site);
}

void IncrementalAggregator::on_free(const trace::FreeEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  check_order(e.time_ns);
  ++events_;
  registry_.on_free(e.addr);
}

void IncrementalAggregator::on_sample(const trace::SampleEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  check_order(e.time_ns);
  ++events_;
  ++total_samples_;
  total_weighted_misses_ += e.weight;
  const auto obj = registry_.lookup(e.addr);
  if (!obj) {
    ++unattributed_samples_;
    unattributed_misses_ += e.weight;
    return;
  }
  ++version_;
  accum_for(obj->site).misses += e.weight;
  if (!open_phases_.empty()) {
    PhaseAccum& pa = phase_accum_[open_phases_.back()];
    if (obj->site >= pa.misses.size()) pa.misses.resize(sites_->size(), 0);
    pa.misses[obj->site] += e.weight;
    pa.total += e.weight;
    ++pa.version;
  }
}

std::size_t IncrementalAggregator::phase_accum_for(const std::string& name) {
  for (std::size_t i = 0; i < phase_accum_.size(); ++i) {
    if (phase_accum_[i].name == name) return i;
  }
  phase_accum_.push_back(PhaseAccum{name, {}, 0, 0});
  return phase_accum_.size() - 1;
}

void IncrementalAggregator::on_phase(const trace::PhaseEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  check_order(e.time_ns);
  ++events_;
  const std::size_t idx = phase_accum_for(e.name);
  if (e.begin) {
    open_phases_.push_back(idx);
    return;
  }
  // Close the most recent begin of this name (merged multi-rank streams may
  // deliver ends out of stack order); an unmatched end is ignored — the
  // same rules as the batch aggregator.
  for (std::size_t i = open_phases_.size(); i-- > 0;) {
    if (open_phases_[i] == idx) {
      open_phases_.erase(open_phases_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void IncrementalAggregator::on_counter(const trace::CounterEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  check_order(e.time_ns);
  ++events_;
}

std::vector<advisor::ObjectInfo> IncrementalAggregator::build_objects()
    const {
  std::vector<advisor::ObjectInfo> objects;
  for (callstack::SiteId id = 0; id < accum_.size(); ++id) {
    if (!accum_[id].seen) continue;
    const auto& info = sites_->get(id);
    advisor::ObjectInfo obj;
    obj.site = id;
    obj.name = info.object_name;
    obj.stack = info.stack;
    obj.max_size_bytes = accum_[id].max_size;
    obj.llc_misses = accum_[id].misses;
    obj.is_dynamic = info.is_dynamic;
    objects.push_back(std::move(obj));
  }
  std::sort(objects.begin(), objects.end(), by_misses);
  return objects;
}

advisor::PhaseObjects IncrementalAggregator::build_phase(
    const PhaseAccum& pa,
    const std::vector<advisor::ObjectInfo>& whole) const {
  advisor::PhaseObjects phase;
  phase.name = pa.name;
  phase.objects.reserve(whole.size());
  for (const advisor::ObjectInfo& whole_obj : whole) {
    advisor::ObjectInfo obj = whole_obj;
    obj.llc_misses =
        whole_obj.site < pa.misses.size() ? pa.misses[whole_obj.site] : 0;
    phase.objects.push_back(std::move(obj));
  }
  std::sort(phase.objects.begin(), phase.objects.end(), by_misses);
  return phase;
}

AggregateResult IncrementalAggregator::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  AggregateResult out;
  out.objects = build_objects();
  out.phases.reserve(phase_accum_.size());
  for (const PhaseAccum& pa : phase_accum_) {
    out.phases.push_back(build_phase(pa, out.objects));
  }
  out.unattributed_samples = unattributed_samples_;
  out.unattributed_misses = unattributed_misses_;
  out.total_samples = total_samples_;
  out.total_weighted_misses = total_weighted_misses_;
  return out;
}

ObjectsView IncrementalAggregator::objects_view() const {
  std::lock_guard<std::mutex> lock(mu_);
  ObjectsView view;
  view.objects = build_objects();
  view.profile_version = profile_version_;
  view.version = version_;
  view.attributed_misses = total_weighted_misses_ - unattributed_misses_;
  return view;
}

PhaseView IncrementalAggregator::phase_view(std::size_t phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  HMEM_ASSERT_MSG(phase < phase_accum_.size(), "phase index out of range");
  const PhaseAccum& pa = phase_accum_[phase];
  PhaseView view;
  view.objects = build_phase(pa, build_objects());
  view.profile_version = profile_version_;
  view.version = pa.version;
  view.misses = pa.total;
  return view;
}

std::uint64_t IncrementalAggregator::profile_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_version_;
}

std::uint64_t IncrementalAggregator::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::size_t IncrementalAggregator::phase_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_accum_.size();
}

std::string IncrementalAggregator::phase_name(std::size_t phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  HMEM_ASSERT_MSG(phase < phase_accum_.size(), "phase index out of range");
  return phase_accum_[phase].name;
}

std::uint64_t IncrementalAggregator::phase_version(std::size_t phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  HMEM_ASSERT_MSG(phase < phase_accum_.size(), "phase index out of range");
  return phase_accum_[phase].version;
}

std::uint64_t IncrementalAggregator::phase_misses(std::size_t phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  HMEM_ASSERT_MSG(phase < phase_accum_.size(), "phase index out of range");
  return phase_accum_[phase].total;
}

std::uint64_t IncrementalAggregator::events_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::uint64_t IncrementalAggregator::samples_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_samples_;
}

std::uint64_t IncrementalAggregator::attributed_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_weighted_misses_ - unattributed_misses_;
}

}  // namespace hmem::analysis
