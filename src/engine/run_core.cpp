#include "engine/run_core.hpp"

#include <algorithm>

#include "alloc/allocators.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "runtime/policy.hpp"

namespace hmem::engine {

namespace {

std::uint64_t floor_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

RankView rank_view(const memsim::MachineConfig& node, int ranks,
                   double threads, bool cache_mode) {
  if (node.tiers.empty()) throw ConfigError("node config has no memory tiers");
  RankView view;
  // The machine always runs flat: run_app models cache mode with an
  // analytic residency model, because the sampled access stream's touched
  // footprint is a scaled-down image of the real working set.
  view.cfg = node;
  view.cfg.mode = memsim::MemMode::kFlat;
  view.cfg.llc.size_bytes = std::max<std::uint64_t>(
      16ULL * 1024, floor_pow2(view.cfg.llc.size_bytes / ranks));
  for (memsim::TierSpec& tier : view.cfg.tiers) {
    tier.capacity_bytes /= static_cast<std::uint64_t>(ranks);
  }
  // Hand-built configs may come in with unassigned (zero) bases; lay the
  // tiers out here so the allocators and the Machine agree on the map.
  memsim::assign_tier_bases(view.cfg.tiers);
  view.perf = view.cfg.tiers_by_performance();

  // Cache mode cannot stream at the front tier's flat bandwidth:
  // tag/fill/writeback traffic rides on the memory side.
  const memsim::TierIndex front =
      cache_mode ? view.cfg.resolved_cache_front() : view.cfg.tiers.size();
  for (memsim::TierIndex t = 0; t < node.tiers.size(); ++t) {
    const memsim::TierSpec& tier = node.tiers[t];
    view.tier_bw_gbs.push_back(
        std::min(threads * tier.per_core_bw_gbs, tier.peak_bw_gbs / ranks) *
        (t == front ? node.cache_mode_bw_derate : 1.0));
  }
  return view;
}

PlacementRuntime placement_runtime(const RankView& view, Condition condition,
                                   const advisor::Placement* placement,
                                   const runtime::AutoHbwOptions& options,
                                   callstack::Unwinder& unwinder,
                                   callstack::Translator& translator,
                                   std::pmr::memory_resource* scratch) {
  const memsim::MachineConfig& cfg = view.cfg;
  PlacementRuntime rt;
  rt.allocs.resize(cfg.tiers.size());
  // The slowest (in cache mode, the backing) tier gets the glibc-malloc
  // stand-in, every faster tier a memkind-style one. Cache mode addresses
  // only the backing tier.
  const auto make_alloc = [&](memsim::TierIndex t, bool posix) {
    const memsim::TierSpec& tier = cfg.tiers[t];
    if (posix) {
      rt.allocs[t] = std::make_unique<alloc::PosixAllocator>(
          tier.base, tier.capacity_bytes, scratch);
    } else {
      rt.allocs[t] = std::make_unique<alloc::MemkindAllocator>(
          tier.base, tier.capacity_bytes, scratch);
    }
    rt.tiers.push_back(rt.allocs[t].get());
  };
  if (condition == Condition::kCacheMode) {
    make_alloc(cfg.resolved_cache_backing(), true);
  } else {
    for (const memsim::TierIndex t : view.perf) {
      make_alloc(t, t == view.perf.back());
    }
  }

  switch (condition) {
    case Condition::kDdr:
    case Condition::kCacheMode:
      rt.policy = std::make_unique<runtime::DdrPolicy>(*rt.tiers.back());
      return rt;
    case Condition::kNumactl:
      HMEM_ASSERT(rt.tiers.size() >= 2);
      rt.policy = std::make_unique<runtime::NumactlPolicy>(rt.tiers);
      return rt;
    case Condition::kAutoHbw:
      HMEM_ASSERT(rt.tiers.size() >= 2);
      rt.policy = std::make_unique<runtime::AutoHbwLibPolicy>(
          rt.tiers, kAutoHbwThreshold);
      return rt;
    case Condition::kFramework:
    case Condition::kDynamic:
      break;
  }
  HMEM_ASSERT_MSG(placement != nullptr,
                  "framework condition requires a Placement");
  HMEM_ASSERT(rt.tiers.size() >= 2);
  auto fw = std::make_unique<runtime::AutoHbwMalloc>(
      *placement, rt.tiers, unwinder, translator, options);
  rt.framework = fw.get();
  rt.policy = std::move(fw);
  return rt;
}

void PlacementRuntime::fill_result(RunResult& result,
                                   Condition condition) const {
  result.total_hwm_bytes = 0;
  for (const auto& a : allocs) {
    if (a != nullptr) result.total_hwm_bytes += a->stats().high_water_mark;
  }
  if (framework != nullptr) {
    result.autohbw = framework->stats();
    result.fast_hwm_bytes = framework->stats().fast_hwm;
  } else if (condition == Condition::kNumactl ||
             condition == Condition::kAutoHbw) {
    result.fast_hwm_bytes = tiers.front()->stats().high_water_mark;
  }
}

double roofline_s(double compute_s, double latency_ns, double cores,
                  std::span<const double> tier_bytes,
                  std::span<const double> tier_bw_gbs) {
  // The slowest tier dominates; every other tier's time is charged at
  // kTierMixPenalty.
  double dominant_s = 0;
  std::size_t dominant = 0;
  for (std::size_t k = 0; k < tier_bytes.size(); ++k) {
    const double s = tier_bytes[k] / (tier_bw_gbs[k] * 1e9);
    if (s > dominant_s) {
      dominant_s = s;
      dominant = k;
    }
  }
  double overlapped_s = 0;
  for (std::size_t k = 0; k < tier_bytes.size(); ++k) {
    if (k != dominant) overlapped_s += tier_bytes[k] / (tier_bw_gbs[k] * 1e9);
  }
  const double latency_s = latency_ns * 1e-9 / (cores * kMlp);
  const double memory_s =
      std::max(latency_s, dominant_s + kTierMixPenalty * overlapped_s);
  return std::max(compute_s, memory_s) +
         kOverlapBeta * std::min(compute_s, memory_s);
}

}  // namespace hmem::engine
