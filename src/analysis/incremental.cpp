#include "analysis/incremental.hpp"

namespace hmem::analysis {

IncrementalAggregator::IncrementalAggregator(const callstack::SiteDb& sites)
    : core_(sites) {}

void IncrementalAggregator::on_alloc(const trace::AllocEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  core_.on_alloc(e);
}

void IncrementalAggregator::on_free(const trace::FreeEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  core_.on_free(e);
}

void IncrementalAggregator::on_sample(const trace::SampleEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  core_.on_sample(e);
}

void IncrementalAggregator::on_phase(const trace::PhaseEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  core_.on_phase(e);
}

void IncrementalAggregator::on_counter(const trace::CounterEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  core_.on_counter(e);
}

AggregateResult IncrementalAggregator::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.snapshot();
}

ObjectsView IncrementalAggregator::objects_view() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.objects_view();
}

PhaseView IncrementalAggregator::phase_view(std::size_t phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.phase_view(phase);
}

std::uint64_t IncrementalAggregator::profile_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.profile_version();
}

std::uint64_t IncrementalAggregator::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.version();
}

std::size_t IncrementalAggregator::phase_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.phase_count();
}

std::uint64_t IncrementalAggregator::phase_version(std::size_t phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.phase_version(phase);
}

std::uint64_t IncrementalAggregator::phase_misses(std::size_t phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.phase_misses(phase);
}

std::uint64_t IncrementalAggregator::events_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.events_seen();
}

std::uint64_t IncrementalAggregator::attributed_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.attributed_misses();
}

}  // namespace hmem::analysis
