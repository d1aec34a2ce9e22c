#include "trace/merge.hpp"

#include <algorithm>
#include <string>

#include "common/logging.hpp"
#include "trace/salvage.hpp"

namespace hmem::trace {

bool OffsetTraceReader::next(Event& out) {
  if (!inner_->next(out)) return false;
  if (offset_ == 0) return true;
  if (auto* alloc = std::get_if<AllocEvent>(&out)) {
    alloc->addr += offset_;
  } else if (auto* free_ev = std::get_if<FreeEvent>(&out)) {
    free_ev->addr += offset_;
  } else if (auto* sample = std::get_if<SampleEvent>(&out)) {
    sample->addr += offset_;
  }
  return true;
}

MergeTraceReader::MergeTraceReader(
    std::vector<std::unique_ptr<TraceReader>> inputs)
    : MergeTraceReader(std::move(inputs), MergeOptions{}) {}

MergeTraceReader::MergeTraceReader(
    std::vector<std::unique_ptr<TraceReader>> inputs, MergeOptions options)
    : inputs_(std::move(inputs)),
      pending_(inputs_.size()),
      options_(std::move(options)) {
  heap_.reserve(inputs_.size());
  for (std::size_t i = 0; i < inputs_.size(); ++i) refill(i);
  std::make_heap(heap_.begin(), heap_.end(), heap_after);
}

bool MergeTraceReader::refill(std::size_t source) {
  try {
    if (!inputs_[source]->next(pending_[source])) return false;  // exhausted
  } catch (const std::exception& e) {
    if (!options_.drop_failed_inputs) throw;
    // The shard died mid-stream: its remaining events are gone, but the
    // other inputs still merge — a degraded aggregate beats no aggregate.
    const std::string label = source < options_.labels.size()
                                  ? options_.labels[source]
                                  : "input " + std::to_string(source);
    log_warn("trace merge: dropping " + label + ": " + e.what());
    if (options_.report != nullptr) {
      options_.report->add_incident(e.what(), label, source);
      ++options_.report->shards_dropped;
    }
    return false;
  }
  heap_.push_back(Key{event_time_ns(pending_[source]), source});
  return true;
}

bool MergeTraceReader::next(Event& out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), heap_after);
  const std::size_t source = heap_.back().source;
  heap_.pop_back();
  out = std::move(pending_[source]);
  if (refill(source))
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  return true;
}

}  // namespace hmem::trace
