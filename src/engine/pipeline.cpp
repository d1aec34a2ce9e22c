#include "engine/pipeline.hpp"

#include <memory>
#include <sstream>

#include "advisor/schedule_report.hpp"
#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "trace/replay.hpp"

namespace hmem::engine {

advisor::MemorySpec machine_memory_spec(const memsim::MachineConfig& node,
                                        std::uint64_t fast_budget_per_rank,
                                        int ranks) {
  HMEM_ASSERT(!node.tiers.empty());
  HMEM_ASSERT(ranks >= 1);
  std::vector<advisor::TierBudget> budgets;
  const auto perf = node.tiers_by_performance();
  for (std::size_t k = 0; k < perf.size(); ++k) {
    const memsim::TierSpec& tier = node.tiers[perf[k]];
    advisor::TierBudget budget;
    budget.name = to_lower(tier.name);
    budget.capacity_bytes =
        k == 0 ? fast_budget_per_rank
               : tier.capacity_bytes / static_cast<std::uint64_t>(ranks);
    budget.relative_performance = tier.relative_performance;
    budgets.push_back(std::move(budget));
  }
  return advisor::MemorySpec(std::move(budgets));
}

std::uint64_t clamp_fast_budget(const memsim::MachineConfig& node,
                                std::uint64_t requested_bytes,
                                bool* clamped) {
  HMEM_ASSERT(!node.tiers.empty());
  const std::uint64_t capacity =
      node.tiers[node.fastest_tier()].capacity_bytes;
  const bool over = requested_bytes > capacity;
  if (clamped != nullptr) *clamped = over;
  return over ? capacity : requested_bytes;
}

RunOptions profile_run_options(const PipelineOptions& options,
                               const memsim::MachineConfig& node) {
  RunOptions po;
  po.condition = Condition::kDdr;
  po.profile = true;
  po.sampler = options.sampler;
  po.min_alloc_bytes = options.min_alloc_bytes;
  po.seed = options.profile_seed;
  po.node = node;
  po.kernel = options.kernel;
  return po;
}

PlacementAdvice advise_placement(const analysis::AggregateResult& report,
                                 const memsim::MachineConfig& node,
                                 std::uint64_t fast_budget_per_rank,
                                 int ranks, const advisor::Options& options) {
  const advisor::HmemAdvisor adv(
      machine_memory_spec(node, fast_budget_per_rank, ranks), options);
  PlacementAdvice advice;
  advice.report_text =
      advisor::write_placement_report(adv.advise(report.objects));
  advice.placement = advisor::read_placement_report(advice.report_text);
  return advice;
}

ScheduleAdvice advise_schedule(const analysis::AggregateResult& report,
                               const memsim::MachineConfig& node,
                               std::uint64_t fast_budget_per_rank, int ranks,
                               const advisor::Options& options) {
  const advisor::PhaseAdvisor adv(
      machine_memory_spec(node, fast_budget_per_rank, ranks), options);
  ScheduleAdvice advice;
  advice.report_text =
      advisor::write_schedule_report(adv.advise(report.phases));
  advice.schedule = advisor::read_schedule_report(advice.report_text);
  return advice;
}

RunOptions production_run_options(const PipelineOptions& options,
                                  Condition condition,
                                  const memsim::MachineConfig& node) {
  RunOptions opts;
  opts.condition = condition;
  opts.runtime_options = options.runtime_options;
  opts.seed = options.production_seed;
  opts.node = node;
  opts.kernel = options.kernel;
  return opts;
}

PipelineResult run_pipeline(const apps::AppSpec& app_in,
                            const PipelineOptions& options) {
  PipelineResult result;

  // Sharded profiling simulates exactly profile_ranks ranks: the per-rank
  // machine shares (LLC, capacity, bandwidth) must reflect that count for
  // every stage, matching the hmem_profile --ranks flow.
  apps::AppSpec app = app_in;
  if (options.profile_ranks > 1) app.ranks = options.profile_ranks;

  if (options.profile_ranks <= 1) {
    // Stage 1: profile the application in its default placement (DDR).
    result.profile_run =
        run_app(app, profile_run_options(options, options.node));
    HMEM_ASSERT(result.profile_run.trace != nullptr);

    // Stage 2: aggregate the trace into per-object statistics.
    result.report =
        analysis::aggregate_trace(*result.profile_run.trace,
                                  *result.profile_run.sites);
  } else {
    // Stage 1, sharded: one profiled execution per simulated rank, each
    // streaming its trace into a serialized shard as it runs (the run
    // itself never buffers events). The ranks are fully independent — each
    // owns its machine, allocators, profiler, RNG streams and (crucially) a
    // private SiteDb its shard serializes against, with site identity
    // re-merged symbolically in stage 2 — so they execute concurrently
    // under options.jobs workers. Every rank derives its seed from its rank
    // index and writes to its own slot: scheduling order cannot influence
    // any result, and parallel runs are bit-identical to serial ones.
    const int ranks = options.profile_ranks;
    std::vector<std::string>& shards = result.shards;
    shards.resize(static_cast<std::size_t>(ranks));
    result.rank_profile_runs.resize(static_cast<std::size_t>(ranks));
    parallel_for(options.jobs, static_cast<std::size_t>(ranks),
                 [&](std::size_t r) {
                   callstack::SiteDb rank_sites;
                   std::ostringstream shard;
                   const auto writer = trace::make_trace_writer(
                       shard, rank_sites, options.shard_format);
                   RunOptions po = profile_run_options(options, options.node);
                   po.seed = options.profile_seed +
                             static_cast<std::uint64_t>(r) * kRankSeedStride;
                   po.sites = &rank_sites;
                   po.trace_sink = writer.get();
                   RunResult run = run_app(app, po);
                   writer->finish();
                   run.sites.reset();  // rank_sites dies with this scope
                   shards[r] = std::move(shard).str();
                   result.rank_profile_runs[r] = std::move(run);
                 });
    std::vector<std::unique_ptr<std::istream>> streams;
    std::vector<std::string> labels;
    for (std::size_t r = 0; r < shards.size(); ++r) {
      result.shard_bytes.push_back(shards[r].size());
      streams.push_back(std::make_unique<std::istringstream>(shards[r]));
      std::string label = "rank";
      label += std::to_string(r);
      labels.push_back(std::move(label));
    }
    result.profile_run = result.rank_profile_runs.front();

    // Stage 2: k-way timestamp merge of the shards through the strict
    // replay front (each shard rebased into its own slice of the address
    // space, sites re-interned into one database), aggregated in one
    // streaming pass.
    trace::ReplayReader merged(std::move(streams), labels,
                               trace::ReplayReaderOptions{});
    analysis::AggregateVisitor aggregate(merged.sites());
    result.merged_events = trace::pump(merged.reader(), aggregate);
    result.report = aggregate.finish();
  }

  // Stage 3: the static placement for the requested budget.
  PlacementAdvice advice =
      advise_placement(result.report, options.node,
                       options.fast_budget_per_rank, app.ranks,
                       options.advisor);
  result.placement = std::move(advice.placement);
  result.placement_report_text = std::move(advice.report_text);

  // Stage 4: production run, consuming the *parsed text report* under a
  // fresh ASLR image.
  RunOptions production =
      production_run_options(options, Condition::kFramework, options.node);
  production.placement = &result.placement;
  result.production_run = run_app(app, production);

  // Phase-aware stages: per-phase knapsacks over the folded profiles, then
  // a dynamic production run consuming the parsed schedule report (same
  // text round-trip and ASLR discipline as the static path).
  if (options.per_phase) {
    ScheduleAdvice schedule =
        advise_schedule(result.report, options.node,
                        options.fast_budget_per_rank, app.ranks,
                        options.advisor);
    result.schedule = std::move(schedule.schedule);
    result.schedule_report_text = std::move(schedule.report_text);
    RunOptions dynamic =
        production_run_options(options, Condition::kDynamic, options.node);
    dynamic.schedule = &result.schedule;
    result.dynamic_run = run_app(app, dynamic);
  }
  return result;
}

}  // namespace hmem::engine
