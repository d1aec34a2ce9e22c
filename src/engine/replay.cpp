#include "engine/replay.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <variant>
#include <vector>

#include "callstack/modulemap.hpp"
#include "callstack/unwind.hpp"
#include "common/error.hpp"
#include "engine/run_core.hpp"

namespace hmem::engine {

namespace {

using memsim::Address;

/// A recorded allocation re-hosted by the replay policy: where the bytes
/// live now, and which policy tier serves samples landing inside it.
struct LiveRange {
  Address end = 0;       ///< recorded [base, end)
  Address new_addr = 0;  ///< address the replay policy assigned
  std::size_t tier = 0;  ///< policy tier (fastest-first index)
};

}  // namespace

RunResult replay_run(trace::TraceReader& events,
                     const callstack::SiteDb& sites,
                     const ReplayOptions& options) {
  if (options.condition == Condition::kCacheMode ||
      options.condition == Condition::kDynamic) {
    throw ConfigError(
        "replay supports the ddr, numactl, autohbw and framework conditions "
        "(cache and dynamic need the live object stream, not samples)");
  }
  if (options.condition == Condition::kFramework &&
      options.placement == nullptr) {
    throw ConfigError("framework replay requires a placement");
  }
  const int ranks = std::max(1, options.ranks);
  const int shards = std::max(1, options.shards);
  // Compute and bandwidth shares use the rank's full core share.
  const double threads =
      std::max(1.0, static_cast<double>(options.node.cores) / ranks);

  const RankView view =
      rank_view(options.node, ranks, threads, /*cache_mode=*/false);
  const memsim::MachineConfig& cfg = view.cfg;
  const std::vector<memsim::TierIndex>& perf = view.perf;
  const std::size_t slow_policy_tier = perf.size() - 1;

  // AllocOutcome::tier indexes the *policy's own* allocator list, which for
  // DdrPolicy holds a single entry — it does not line up with the
  // fastest-first policy order. The assigned address is unambiguous: tier
  // base ranges partition the simulated address space, so locate the
  // address instead.
  const auto policy_tier_of = [&](Address addr) -> std::size_t {
    for (std::size_t p = 0; p < perf.size(); ++p) {
      const memsim::TierSpec& tier = cfg.tiers[perf[p]];
      if (addr >= tier.base && addr - tier.base < tier.capacity_bytes) {
        return p;
      }
    }
    return slow_policy_tier;
  };

  // The framework unwinds/translates through a module map; every module a
  // recorded call-stack mentions must be registered (a recording does not
  // say which binary produced it). Trace readers intern sites lazily while
  // events stream, so registration happens on first sight, not up front.
  callstack::ModuleMap modules;
  std::set<std::string> module_names;
  Address module_base = 0x400000;
  const auto ensure_modules = [&](const callstack::SymbolicCallStack& stack) {
    for (const auto& frame : stack.frames) {
      if (!module_names.insert(frame.module).second) continue;
      modules.add_module(frame.module, module_base, 1ULL << 20);
      module_base += 1ULL << 24;
    }
  };
  for (const auto& site : sites.all()) ensure_modules(site.stack);
  callstack::Unwinder unwinder(modules);
  callstack::Translator translator(modules);

  const PlacementRuntime rt =
      placement_runtime(view, options.condition, options.placement,
                        options.runtime_options, unwinder, translator,
                        std::pmr::get_default_resource());
  runtime::PlacementPolicy& policy = *rt.policy;

  // ---- Replay loop ------------------------------------------------------
  // Live map keyed by *recorded* base address (shards arrive pre-rebased by
  // the reader, so bases are unique across ranks). Samples look up the
  // covering range; anything outside every live range — the stack, regions
  // below the profiler's min-alloc threshold, or bytes from a corrupted
  // shard — is unattributed and served by the slowest tier, which is where
  // every replayable policy leaves unmanaged data.
  std::map<Address, LiveRange> live;
  std::vector<std::uint64_t> tier_bytes(perf.size(), 0);
  std::uint64_t misses = 0;
  std::uint64_t sample_events = 0;
  std::uint64_t alloc_calls = 0;
  double alloc_ns = 0;
  double max_instructions = 0;

  trace::Event event;
  while (events.next(event)) {
    if (const auto* alloc = std::get_if<trace::AllocEvent>(&event)) {
      const bool known_site = alloc->site < sites.size();
      const bool is_dynamic =
          known_site ? sites.get(alloc->site).is_dynamic : true;
      static const callstack::SymbolicCallStack kEmptyStack;
      const callstack::SymbolicCallStack& stack =
          known_site ? sites.get(alloc->site).stack : kEmptyStack;
      ensure_modules(stack);
      const runtime::AllocOutcome out =
          is_dynamic ? policy.allocate(alloc->size, stack)
                     : policy.allocate_static(alloc->size);
      if (out.addr == 0) {
        throw ResourceError(
            "simulated out of memory during replay (the recorded allocation "
            "stream exceeds the machine's per-rank tier capacities)");
      }
      // A recorded base seen twice (possible only in a damaged shard) would
      // make sample lookup ambiguous: drop the stale range first.
      if (const auto stale = live.find(alloc->addr); stale != live.end()) {
        policy.deallocate(stale->second.new_addr);
        live.erase(stale);
      }
      live[alloc->addr] =
          LiveRange{alloc->addr + std::max<std::uint64_t>(1, alloc->size),
                    out.addr, policy_tier_of(out.addr)};
      if (is_dynamic) ++alloc_calls;
      alloc_ns += out.cost_ns;
    } else if (const auto* free = std::get_if<trace::FreeEvent>(&event)) {
      // Frees of never-recorded regions (stack, filtered allocations) are
      // silently ignored, like a malloc registry seeing a foreign pointer.
      const auto it = live.find(free->addr);
      if (it != live.end()) {
        alloc_ns += policy.deallocate(it->second.new_addr);
        live.erase(it);
      }
    } else if (const auto* sample = std::get_if<trace::SampleEvent>(&event)) {
      ++sample_events;
      misses += sample->weight;
      std::size_t tier = slow_policy_tier;
      auto it = live.upper_bound(sample->addr);
      if (it != live.begin()) {
        --it;
        if (sample->addr < it->second.end) tier = it->second.tier;
      }
      tier_bytes[tier] += sample->weight * memsim::kCacheLineBytes;
    } else if (const auto* counter = std::get_if<trace::CounterEvent>(&event)) {
      // Cumulative per rank; after a multi-rank merge the maximum is the
      // per-rank instruction count (ranks execute in parallel).
      if (counter->name == "instructions") {
        max_instructions = std::max(max_instructions, counter->value);
      }
    }
    // Phase markers carry no replayable work (placement is static here).
  }

  // ---- Modeled time (per rank): the roofline in policy order, with no
  // latency term.
  const double instr_rate = threads * cfg.ipc * cfg.freq_ghz * 1e9;
  std::vector<double> real_bytes(perf.size());
  std::vector<double> bw_gbs(perf.size());
  for (std::size_t t = 0; t < perf.size(); ++t) {
    real_bytes[t] = static_cast<double>(tier_bytes[t]) / shards;
    bw_gbs[t] = view.tier_bw_gbs[perf[t]];
  }
  const double time_s = roofline_s(max_instructions / instr_rate, 0.0,
                                   threads, real_bytes, bw_gbs) +
                        alloc_ns * 1e-9;

  // ---- Result (per-rank means over the merged shards; exact for a
  // single-shard replay) --------------------------------------------------
  RunResult result;
  result.app = "replay";
  result.condition = condition_name(options.condition);
  result.fom_unit = "n/a";
  result.time_s = std::max(time_s, 1e-12);
  result.fom = 0;
  result.tier_traffic.reserve(perf.size());
  for (std::size_t t = 0; t < perf.size(); ++t) {
    TierTraffic traffic;
    traffic.name = cfg.tiers[perf[t]].name;
    traffic.bytes = tier_bytes[t] / static_cast<std::uint64_t>(shards);
    result.tier_traffic.push_back(std::move(traffic));
  }
  result.achieved_bw_gbs =
      static_cast<double>(result.dram_bytes()) / result.time_s / 1e9;
  result.llc_misses = misses / static_cast<std::uint64_t>(shards);
  result.samples = sample_events;
  result.alloc_calls = alloc_calls / static_cast<std::uint64_t>(shards);
  result.allocs_per_second =
      static_cast<double>(result.alloc_calls) / result.time_s;
  result.interposition_overhead_ns = alloc_ns;
  rt.fill_result(result, options.condition);
  return result;
}

}  // namespace hmem::engine
