// Replay front-end over recorded trace shards.
//
// A profiled run leaves one shard per rank on disk (text v1 or chunked
// binary v2). ReplayReader owns everything needed to read such a recording
// back as one ordered event stream: the open shards, a per-shard format
// reader (format sniffed independently per shard), per-rank address
// rebasing by kRankAddressStride so live ranges never collide, a k-way
// timestamp merge, and the shared SiteDb every shard's sites are
// re-interned into. hmem_advise aggregates through it; the engine's
// replay_run drives a simulation from it (hmem_run --replay).
#pragma once

#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "callstack/sitedb.hpp"
#include "trace/format.hpp"
#include "trace/merge.hpp"
#include "trace/salvage.hpp"

namespace hmem::trace {

/// Damage-tolerance knob for ReplayReader (distinct from the engine's
/// ReplayOptions, which configures the simulated machine).
struct ReplayReaderOptions {
  /// Read every shard through chunk-level salvage: damaged chunks are
  /// skipped, dead shards dropped with a warning, and the losses
  /// accumulate in salvage_report(). Default is the strict contract —
  /// throw on the first malformed byte, naming the shard and chunk.
  bool salvage = false;
};

class ReplayReader {
 public:
  /// Opens every shard (rank order = argument order). Throws an
  /// hmem::Error (a std::runtime_error) naming the offending path when a
  /// shard cannot be opened or its header does not sniff as a known trace
  /// format — unless options.salvage is set, in which case the shard is
  /// dropped and recorded instead.
  explicit ReplayReader(const std::vector<std::string>& paths);
  ReplayReader(const std::vector<std::string>& paths,
               const ReplayReaderOptions& options);
  /// Reads shards that are already open (e.g. recorded in memory), through
  /// the same front; labels[i] names shard i in errors and the report.
  ReplayReader(std::vector<std::unique_ptr<std::istream>> shards,
               const std::vector<std::string>& labels,
               const ReplayReaderOptions& options);

  /// The merged, time-ordered event stream (single pass; not rewindable).
  TraceReader& reader() { return *merged_; }

  /// Allocation sites of all shards, re-interned into one database.
  callstack::SiteDb& sites() { return sites_; }
  const callstack::SiteDb& sites() const { return sites_; }

  std::size_t shard_count() const { return shard_count_; }

  /// What salvage had to drop (meaningful when options.salvage was set;
  /// clean() otherwise). Populated lazily as the stream is consumed.
  const SalvageReport& salvage_report() const { return report_; }

 private:
  /// Builds the front over `shards`; a null stream is a shard already
  /// dropped (and recorded) by salvage.
  void open(std::vector<std::unique_ptr<std::istream>> shards,
            const std::vector<std::string>& labels,
            const ReplayReaderOptions& options);

  callstack::SiteDb sites_;
  std::vector<std::unique_ptr<std::istream>> streams_;
  std::unique_ptr<MergeTraceReader> merged_;
  std::size_t shard_count_ = 0;
  SalvageReport report_;
};

}  // namespace hmem::trace
