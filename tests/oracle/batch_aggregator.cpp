#include "oracle/batch_aggregator.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hmem::oracle {

BatchAggregator::BatchAggregator(const callstack::SiteDb& sites)
    : sites_(&sites) {
  accum_.resize(sites.size());
}

void BatchAggregator::check_order(double t) {
  HMEM_ASSERT_MSG(t >= last_time_, "trace events out of time order");
  last_time_ = t;
}

BatchAggregator::SiteAccum& BatchAggregator::accum_for(
    callstack::SiteId site) {
  HMEM_ASSERT_MSG(site < sites_->size(),
                  "event references a site missing from the SiteDb");
  if (site >= accum_.size()) accum_.resize(sites_->size());
  return accum_[site];
}

void BatchAggregator::on_alloc(const trace::AllocEvent& e) {
  check_order(e.time_ns);
  SiteAccum& sa = accum_for(e.site);
  sa.seen = true;
  sa.max_size = std::max(sa.max_size, e.size);
  registry_.on_alloc(e.addr, e.size, e.site);
}

void BatchAggregator::on_free(const trace::FreeEvent& e) {
  check_order(e.time_ns);
  registry_.on_free(e.addr);
}

std::size_t BatchAggregator::phase_accum_for(const std::string& name) {
  for (std::size_t i = 0; i < phase_accum_.size(); ++i) {
    if (phase_accum_[i].name == name) return i;
  }
  phase_accum_.push_back(PhaseAccum{name, {}});
  return phase_accum_.size() - 1;
}

void BatchAggregator::on_sample(const trace::SampleEvent& e) {
  check_order(e.time_ns);
  ++result_.total_samples;
  result_.total_weighted_misses += e.weight;
  const auto obj = registry_.lookup(e.addr);
  if (obj) {
    accum_for(obj->site).misses += e.weight;
    if (!open_phases_.empty()) {
      PhaseAccum& pa = phase_accum_[open_phases_.back()];
      if (obj->site >= pa.misses.size()) pa.misses.resize(sites_->size(), 0);
      pa.misses[obj->site] += e.weight;
    }
  } else {
    ++result_.unattributed_samples;
    result_.unattributed_misses += e.weight;
  }
}

void BatchAggregator::on_phase(const trace::PhaseEvent& e) {
  check_order(e.time_ns);
  const std::size_t idx = phase_accum_for(e.name);
  if (e.begin) {
    open_phases_.push_back(idx);
    return;
  }
  // Close the most recent begin of this name (merged multi-rank streams may
  // deliver ends out of stack order); an unmatched end is ignored.
  for (std::size_t i = open_phases_.size(); i-- > 0;) {
    if (open_phases_[i] == idx) {
      open_phases_.erase(open_phases_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void BatchAggregator::on_counter(const trace::CounterEvent& e) {
  check_order(e.time_ns);
}

analysis::AggregateResult BatchAggregator::finish() {
  const auto by_misses = [](const advisor::ObjectInfo& a,
                            const advisor::ObjectInfo& b) {
    if (a.llc_misses != b.llc_misses) return a.llc_misses > b.llc_misses;
    return a.site < b.site;
  };
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
    result_.objects.push_back(std::move(obj));
  }
  std::sort(result_.objects.begin(), result_.objects.end(), by_misses);

  // Every whole-run site appears in every phase slice, with the misses
  // binned into that phase (zero when the phase never touched it).
  for (const PhaseAccum& pa : phase_accum_) {
    advisor::PhaseObjects phase;
    phase.name = pa.name;
    phase.objects.reserve(result_.objects.size());
    for (const advisor::ObjectInfo& whole : result_.objects) {
      advisor::ObjectInfo obj = whole;
      obj.llc_misses =
          whole.site < pa.misses.size() ? pa.misses[whole.site] : 0;
      phase.objects.push_back(std::move(obj));
    }
    std::sort(phase.objects.begin(), phase.objects.end(), by_misses);
    result_.phases.push_back(std::move(phase));
  }
  return std::move(result_);
}

analysis::AggregateResult batch_aggregate(
    const std::vector<trace::Event>& events, std::size_t count,
    const callstack::SiteDb& sites) {
  HMEM_ASSERT_MSG(count <= events.size(), "prefix longer than the trace");
  BatchAggregator oracle(sites);
  for (std::size_t i = 0; i < count; ++i) {
    trace::dispatch_event(events[i], oracle);
  }
  return oracle.finish();
}

}  // namespace hmem::oracle
