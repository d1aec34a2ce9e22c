#include "trace/replay.hpp"

#include <fstream>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace hmem::trace {

ReplayReader::ReplayReader(const std::vector<std::string>& paths)
    : ReplayReader(paths, ReplayReaderOptions{}) {}

ReplayReader::ReplayReader(const std::vector<std::string>& paths,
                           const ReplayReaderOptions& options) {
  std::vector<std::unique_ptr<std::istream>> shards;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto in = std::make_unique<std::ifstream>(paths[i], std::ios::binary);
    if (!*in) {
      if (!options.salvage) {
        throw IoError("cannot open " + paths[i],
                      ErrorContext{paths[i], i, std::nullopt});
      }
      log_warn("trace salvage: cannot open " + paths[i] + "; dropping shard");
      report_.add_incident("cannot open " + paths[i], paths[i], i);
      ++report_.shards_dropped;
      in.reset();
    }
    shards.push_back(std::move(in));
  }
  open(std::move(shards), paths, options);
}

ReplayReader::ReplayReader(std::vector<std::unique_ptr<std::istream>> shards,
                           const std::vector<std::string>& labels,
                           const ReplayReaderOptions& options) {
  HMEM_ASSERT_MSG(labels.size() == shards.size(), "one label per shard");
  open(std::move(shards), labels, options);
}

void ReplayReader::open(std::vector<std::unique_ptr<std::istream>> shards,
                        const std::vector<std::string>& labels,
                        const ReplayReaderOptions& options) {
  if (shards.empty()) throw ConfigError("no trace shards given");
  std::vector<std::unique_ptr<TraceReader>> readers;
  MergeOptions merge_options;
  merge_options.drop_failed_inputs = options.salvage;
  merge_options.report = &report_;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i] == nullptr) continue;
    std::istream& in = *shards[i];
    ReaderOptions reader_options;
    reader_options.salvage = options.salvage;
    reader_options.report = &report_;
    reader_options.source = labels[i];
    reader_options.shard = i;
    if (options.salvage) {
      // RecoveringTraceReader absorbs header damage (the shard is dropped,
      // not fatal) and residual read errors.
      readers.push_back(std::make_unique<OffsetTraceReader>(
          std::make_unique<RecoveringTraceReader>(in, sites_, reader_options),
          static_cast<Address>(i) * kRankAddressStride));
    } else {
      try {
        readers.push_back(std::make_unique<OffsetTraceReader>(
            open_trace_reader(in, sites_, reader_options),
            static_cast<Address>(i) * kRankAddressStride));
      } catch (const Error&) {
        throw;  // already carries the shard path and index
      } catch (const std::exception& e) {
        throw FormatError(labels[i] + ": " + e.what(),
                          ErrorContext{labels[i], i, std::nullopt});
      }
    }
    merge_options.labels.push_back(labels[i]);
    streams_.push_back(std::move(shards[i]));
  }
  // Salvage keeps going past individual dead shards, but an input set with
  // *nothing* readable must not degrade into an empty (and plausible-
  // looking) trace: that is a hard error in both modes.
  if (readers.empty()) {
    throw IoError("all " + std::to_string(shards.size()) +
                  " trace shard(s) unreadable");
  }
  shard_count_ = shards.size();
  merged_ = std::make_unique<MergeTraceReader>(std::move(readers),
                                               std::move(merge_options));
}

}  // namespace hmem::trace
