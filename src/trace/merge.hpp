// Multi-rank trace readers.
//
// A profiled multi-rank run produces one trace shard per rank. The
// aggregator wants a single time-ordered stream, so MergeTraceReader
// performs a k-way merge over any set of TraceReaders by event timestamp
// (stable: ties go to the lower input index). Combined with the format
// readers' site remapping into one shared SiteDb, k shards read exactly
// like one trace — this is what makes Figure 4's per-rank fast-tier
// budgets meaningful at scale.
//
// BufferTraceReader adapts an in-memory TraceBuffer to the pull interface
// so buffered and streamed paths can share every downstream consumer.
#pragma once

#include <memory>
#include <vector>

#include "trace/format.hpp"

namespace hmem::trace {

/// Shard address-space separation. Every simulated rank reuses the same
/// physical layout (DDR at 4 GiB, MCDRAM at 256 GiB), so two ranks' traces
/// contain colliding addresses; rebasing shard k by k * kRankAddressStride
/// keeps the merged stream's live ranges disjoint, which the aggregator's
/// address->object map requires. The stride clears any per-rank tier
/// capacity by orders of magnitude.
inline constexpr Address kRankAddressStride = 1ULL << 42;

/// Decorator that shifts every address-carrying event (alloc/free/sample)
/// of an input by a fixed offset; phase and counter events pass through.
class OffsetTraceReader final : public TraceReader {
 public:
  OffsetTraceReader(std::unique_ptr<TraceReader> inner, Address offset)
      : inner_(std::move(inner)), offset_(offset) {}

  bool next(Event& out) override;

 private:
  std::unique_ptr<TraceReader> inner_;
  Address offset_;
};

/// Pull-reads a TraceBuffer. Site ids are *not* remapped: the buffer must
/// already reference the SiteDb the consumer uses.
class BufferTraceReader final : public TraceReader {
 public:
  explicit BufferTraceReader(const TraceBuffer& buffer) : buffer_(&buffer) {}

  bool next(Event& out) override {
    if (pos_ >= buffer_->size()) return false;
    out = buffer_->events()[pos_++];
    return true;
  }

 private:
  const TraceBuffer* buffer_;
  std::size_t pos_ = 0;
};

/// Degraded-mode knobs for MergeTraceReader.
struct MergeOptions {
  /// An input that throws (or was already dead at construction) is treated
  /// as exhausted — its remaining events are lost, the merge continues with
  /// the surviving inputs — instead of propagating the exception.
  bool drop_failed_inputs = false;
  SalvageReport* report = nullptr;  ///< where dropped inputs are recorded
  /// Optional per-input labels (shard paths) for warnings and the report.
  std::vector<std::string> labels;
};

/// K-way timestamp merge over any number of readers. Each input must itself
/// be in non-decreasing time order (the writers guarantee this); the merged
/// stream then is too.
class MergeTraceReader final : public TraceReader {
 public:
  explicit MergeTraceReader(std::vector<std::unique_ptr<TraceReader>> inputs);
  MergeTraceReader(std::vector<std::unique_ptr<TraceReader>> inputs,
                   MergeOptions options);

  bool next(Event& out) override;

 private:
  /// The time of input `source`'s pending event: the heap moves these
  /// 16-byte keys, never the events.
  struct Key {
    double time_ns;
    std::size_t source;
  };

  /// Min-heap ordering on (time, source index) via std::push_heap's
  /// max-heap convention.
  static bool heap_after(const Key& a, const Key& b) {
    if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
    return a.source > b.source;
  }

  /// Decodes input `source`'s next event into its slot and pushes its key;
  /// false when the input is exhausted (or died, under drop_failed_inputs).
  bool refill(std::size_t source);

  std::vector<std::unique_ptr<TraceReader>> inputs_;
  std::vector<Event> pending_;  ///< one slot per input: its next event
  std::vector<Key> heap_;       ///< one key per input with a pending event
  MergeOptions options_;
};

}  // namespace hmem::trace
