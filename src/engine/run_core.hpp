// Stages shared by run_app (execution.cpp) and replay_run (replay.cpp):
//
//  * rank view         — the per-rank slice of the node: capacity and LLC
//                        shares, the tier performance order, per-tier
//                        bandwidth shares;
//  * placement runtime — one allocator per tier plus the condition's
//                        placement policy (auto-hbwmalloc for the framework);
//  * roofline          — a phase's compute time, summed access latency and
//                        per-tier traffic combined into seconds;
//  * allocator result  — the HWM and interposer fields of a RunResult.
//
// Each caller keeps its own thread count and tier order: run_app sizes the
// bandwidth shares by the app's threads per rank and walks tiers in machine
// order, replay_run uses the rank's full core share and the policy's
// fastest-first order. The order matters: it decides which tier wins a tie
// for dominant and the order the other tiers are summed in.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <vector>

#include "alloc/allocator.hpp"
#include "callstack/unwind.hpp"
#include "engine/execution.hpp"
#include "runtime/auto_hbwmalloc.hpp"

namespace hmem::engine {

/// Outstanding misses per core for the latency term (hardware prefetchers
/// keep many line fills in flight on KNL).
inline constexpr double kMlp = 30.0;
/// Compute/memory overlap imperfection: phase time is max(compute, memory)
/// + kOverlapBeta * min(compute, memory). Zero would be perfect overlap (pure
/// roofline), one fully serialised.
inline constexpr double kOverlapBeta = 0.25;
/// Cross-tier contention: tiers stream in parallel, but the shared
/// mesh/controllers keep the combination short of perfect overlap. Memory
/// time is the dominant tier's time plus kTierMixPenalty times the sum of
/// every other tier's.
inline constexpr double kTierMixPenalty = 0.3;
/// autohbw size threshold (paper: 1 MiB).
inline constexpr std::uint64_t kAutoHbwThreshold = 1ULL << 20;

struct RankView {
  /// The node with per-rank tier capacities (bases laid out), a per-rank
  /// LLC share and flat memory mode.
  memsim::MachineConfig cfg;
  /// Machine-tier indices fastest first; back() is the unbounded default.
  std::vector<memsim::TierIndex> perf;
  /// Per-rank achievable bandwidth of every machine tier (GB/s).
  std::vector<double> tier_bw_gbs;
};

/// Slices `node` for one of `ranks` ranks whose `threads` stream memory.
/// Cache mode derates the cache-front tier's bandwidth. Throws ConfigError
/// when the node has no tiers.
RankView rank_view(const memsim::MachineConfig& node, int ranks,
                   double threads, bool cache_mode);

struct PlacementRuntime {
  /// One allocator per machine tier; null where the condition addresses
  /// none (cache mode keeps only the backing tier).
  std::vector<std::unique_ptr<alloc::Allocator>> allocs;
  /// The policy's view: allocators fastest first, the default last.
  std::vector<alloc::Allocator*> tiers;
  std::unique_ptr<runtime::PlacementPolicy> policy;
  /// The policy when it is auto-hbwmalloc (framework and dynamic).
  runtime::AutoHbwMalloc* framework = nullptr;

  /// Fills the allocator fields of `result`: the resident HWM over every
  /// tier, the fast-tier HWM and, for the framework, its statistics.
  void fill_result(RunResult& result, Condition condition) const;
};

/// Builds the allocators and `condition`'s policy over `view`. The
/// framework and dynamic conditions need `placement` (dynamic: the first
/// schedule phase's); `unwinder` and `translator` must outlive the result.
PlacementRuntime placement_runtime(const RankView& view, Condition condition,
                                   const advisor::Placement* placement,
                                   const runtime::AutoHbwOptions& options,
                                   callstack::Unwinder& unwinder,
                                   callstack::Translator& translator,
                                   std::pmr::memory_resource* scratch);

/// Roofline duration of one phase in seconds. `tier_bytes[k]` is the real
/// traffic tier k carried and `tier_bw_gbs[k]` its bandwidth, in the
/// caller's tier order. `latency_ns` is the real summed access latency
/// spread over `cores` cores of kMlp outstanding misses each; zero where
/// latencies are not known.
double roofline_s(double compute_s, double latency_ns, double cores,
                  std::span<const double> tier_bytes,
                  std::span<const double> tier_bw_gbs);

}  // namespace hmem::engine
