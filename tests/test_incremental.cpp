// Differential suite for the incremental streaming advisor. The aggregation
// oracle is hmem::oracle::BatchAggregator (tests/oracle/), an independent
// re-implementation of the attribution rules: the library's batch path and
// its incremental snapshots must both equal it exactly. The batch
// PhaseAdvisor is the advisor oracle, and the incremental advisor must
// converge to it exactly — on every bundled app, on every machine preset.
// The aggregation comparison also reads 8-rank merged churn recordings:
// the only inputs whose phases nest, and (with uneven ranks) whose sites
// request different sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advisor/incremental_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "analysis/incremental.hpp"
#include "apps/workloads.hpp"
#include "engine/execution.hpp"
#include "engine/pipeline.hpp"
#include "memsim/machine.hpp"
#include "oracle/batch_aggregator.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/visitor.hpp"

namespace hmem {
namespace {

using analysis::AggregateResult;
using analysis::IncrementalAggregator;

/// The full 10-app roster: the 8 paper workloads plus the phase-shifting
/// pair introduced for the dynamic condition.
std::vector<apps::AppSpec> all_ten_apps() {
  auto apps = apps::all_apps();
  for (auto& app : apps::phase_shift_apps()) apps.push_back(app);
  return apps;
}

std::vector<memsim::MachineConfig> all_presets() {
  using memsim::MachineConfig;
  using memsim::MemMode;
  return {MachineConfig::knl7250(MemMode::kFlat),
          MachineConfig::spr_hbm(MemMode::kFlat),
          MachineConfig::ddr_cxl(MemMode::kFlat),
          MachineConfig::hbm_ddr_pmem(MemMode::kFlat)};
}

engine::RunResult profiled_run(const apps::AppSpec& app,
                               const memsim::MachineConfig& node) {
  engine::RunOptions opts;
  opts.profile = true;
  opts.node = node;
  return engine::run_app(app, opts);
}

/// Field-by-field equality of the whole AggregateResult, phase slices
/// included (test_analysis' helper predates phases; the incremental
/// contract covers them too).
void expect_identical_results(const AggregateResult& a,
                              const AggregateResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.total_samples, b.total_samples) << label;
  EXPECT_EQ(a.total_weighted_misses, b.total_weighted_misses) << label;
  EXPECT_EQ(a.unattributed_samples, b.unattributed_samples) << label;
  EXPECT_EQ(a.unattributed_misses, b.unattributed_misses) << label;
  ASSERT_EQ(a.objects.size(), b.objects.size()) << label;
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].site, b.objects[i].site) << label << " obj " << i;
    EXPECT_EQ(a.objects[i].name, b.objects[i].name) << label << " obj " << i;
    EXPECT_EQ(a.objects[i].stack, b.objects[i].stack) << label;
    EXPECT_EQ(a.objects[i].max_size_bytes, b.objects[i].max_size_bytes)
        << label;
    EXPECT_EQ(a.objects[i].llc_misses, b.objects[i].llc_misses) << label;
    EXPECT_EQ(a.objects[i].is_dynamic, b.objects[i].is_dynamic) << label;
  }
  ASSERT_EQ(a.phases.size(), b.phases.size()) << label;
  for (std::size_t p = 0; p < a.phases.size(); ++p) {
    EXPECT_EQ(a.phases[p].name, b.phases[p].name) << label;
    ASSERT_EQ(a.phases[p].objects.size(), b.phases[p].objects.size())
        << label << " phase " << a.phases[p].name;
    for (std::size_t i = 0; i < a.phases[p].objects.size(); ++i) {
      EXPECT_EQ(a.phases[p].objects[i].site, b.phases[p].objects[i].site)
          << label << " phase " << a.phases[p].name << " obj " << i;
      EXPECT_EQ(a.phases[p].objects[i].llc_misses,
                b.phases[p].objects[i].llc_misses)
          << label << " phase " << a.phases[p].name << " obj " << i;
      EXPECT_EQ(a.phases[p].objects[i].max_size_bytes,
                b.phases[p].objects[i].max_size_bytes)
          << label;
    }
  }
}

advisor::MemorySpec spec_for(const memsim::MachineConfig& node) {
  // A quarter GiB ask, clamped to what the preset's fastest tier can
  // physically host — the same derivation hmem_advise --machine performs.
  const std::uint64_t budget = engine::clamp_fast_budget(
      node, 256ull << 20, nullptr);
  return engine::machine_memory_spec(node, budget, /*ranks=*/1);
}

// ---- Aggregator: batch finish() and converged snapshot == oracle ----------

/// The library's batch aggregate and its converged incremental snapshot
/// (taken twice: snapshot() is non-destructive) both equal the oracle's.
void expect_matches_oracle(const trace::TraceBuffer& trace,
                           const callstack::SiteDb& sites,
                           const std::string& label) {
  const auto& events = trace.events();
  const AggregateResult expected =
      oracle::batch_aggregate(events, events.size(), sites);
  expect_identical_results(expected, analysis::aggregate_trace(trace, sites),
                           label + " (batch)");
  IncrementalAggregator inc(sites);
  trace::visit_buffer(trace, inc);
  expect_identical_results(expected, inc.snapshot(), label);
  expect_identical_results(expected, inc.snapshot(), label + " (again)");
}

/// churn recorded at 8 ranks on knl as `hmem_profile --ranks 8 --format
/// binary` writes it, read back merged through hmem_advise's salvage front
/// into one buffer. Unlike a single-rank run, the merged stream nests the
/// ranks' phases. With `shrink_bytes`, rank r's objects are r * shrink_bytes
/// smaller, as an uneven domain decomposition allocates them: each site
/// then requests a different size on every rank.
struct MergedRecording {
  trace::TraceBuffer trace;
  std::unique_ptr<trace::ReplayReader> reader;  ///< owns the merged sites
};

MergedRecording merged_churn_recording(std::uint64_t shrink_bytes) {
  constexpr int kRanks = 8;
  std::vector<std::unique_ptr<std::istream>> shards;
  std::vector<std::string> labels;
  for (int r = 0; r < kRanks; ++r) {
    apps::AppSpec app = apps::make_churn();
    app.ranks = kRanks;
    for (apps::ObjectSpec& object : app.objects) {
      object.size_bytes -= static_cast<std::uint64_t>(r) * shrink_bytes;
    }
    callstack::SiteDb sites;
    std::ostringstream out;
    const auto writer =
        trace::make_trace_writer(out, sites, trace::TraceFormat::kBinary);
    engine::RunOptions opts;
    opts.profile = true;
    opts.node = memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
    opts.seed = 42 + static_cast<std::uint64_t>(r) * engine::kRankSeedStride;
    opts.sites = &sites;
    opts.trace_sink = writer.get();
    engine::run_app(app, opts);
    writer->finish();
    shards.push_back(
        std::make_unique<std::istringstream>(std::move(out).str()));
    std::string label = "churn.trace.rank";
    label += std::to_string(r);
    labels.push_back(std::move(label));
  }
  trace::ReplayReaderOptions options;
  options.salvage = true;
  MergedRecording recording;
  recording.reader = std::make_unique<trace::ReplayReader>(std::move(shards),
                                                           labels, options);
  trace::pump(recording.reader->reader(), recording.trace);
  EXPECT_TRUE(recording.reader->salvage_report().clean());
  return recording;
}

TEST(IncrementalAggregator, ConvergedSnapshotMatchesBatchOnAllAppsPresets) {
  for (const auto& node : all_presets()) {
    for (const auto& app : all_ten_apps()) {
      const std::string label = app.name + " @ " + node.name;
      const auto run = profiled_run(app, node);
      ASSERT_NE(run.trace, nullptr) << label;
      expect_matches_oracle(*run.trace, *run.sites, label);
    }
  }
  const MergedRecording merged = merged_churn_recording(0);
  expect_matches_oracle(merged.trace, merged.reader->sites(),
                        "churn, 8 ranks merged @ knl7250");
  const MergedRecording uneven = merged_churn_recording(4096);
  expect_matches_oracle(uneven.trace, uneven.reader->sites(),
                        "churn, 8 uneven ranks merged @ knl7250");
}

TEST(IncrementalAggregator, MidStreamSnapshotMatchesBatchOverPrefix) {
  const auto run = profiled_run(apps::make_lulesh(), all_presets().front());
  const auto& events = run.trace->events();
  const std::size_t cuts[] = {0, 1, events.size() / 3, events.size() / 2,
                              events.size() - 1, events.size()};

  IncrementalAggregator inc(*run.sites);
  std::size_t fed = 0;
  for (const std::size_t cut : cuts) {
    for (; fed < cut; ++fed) trace::dispatch_event(events[fed], inc);
    expect_identical_results(oracle::batch_aggregate(events, cut, *run.sites),
                             inc.snapshot(),
                             "lulesh prefix " + std::to_string(cut));
  }
}

TEST(IncrementalAggregator, ViewsMatchSnapshotSlices) {
  const auto run = profiled_run(apps::make_snap(), all_presets().front());
  IncrementalAggregator inc(*run.sites);
  trace::visit_buffer(*run.trace, inc);
  const AggregateResult snap = inc.snapshot();

  const analysis::ObjectsView whole = inc.objects_view();
  ASSERT_EQ(whole.objects.size(), snap.objects.size());
  for (std::size_t i = 0; i < whole.objects.size(); ++i) {
    EXPECT_EQ(whole.objects[i].site, snap.objects[i].site);
    EXPECT_EQ(whole.objects[i].llc_misses, snap.objects[i].llc_misses);
  }
  ASSERT_EQ(inc.phase_count(), snap.phases.size());
  for (std::size_t p = 0; p < snap.phases.size(); ++p) {
    const analysis::PhaseView view = inc.phase_view(p);
    EXPECT_EQ(view.objects.name, snap.phases[p].name);
    ASSERT_EQ(view.objects.objects.size(), snap.phases[p].objects.size());
    for (std::size_t i = 0; i < view.objects.objects.size(); ++i) {
      EXPECT_EQ(view.objects.objects[i].site,
                snap.phases[p].objects[i].site);
      EXPECT_EQ(view.objects.objects[i].llc_misses,
                snap.phases[p].objects[i].llc_misses);
    }
  }
}

// ---- Advisor: converged schedule bit-identical to batch PhaseAdvisor ------

TEST(IncrementalAdvisor, ConvergedScheduleBitIdenticalOnAllAppsPresets) {
  const advisor::Options options;
  for (const auto& node : all_presets()) {
    const advisor::MemorySpec spec = spec_for(node);
    for (const auto& app : all_ten_apps()) {
      const std::string label = app.name + " @ " + node.name;
      const auto run = profiled_run(app, node);
      const AggregateResult batch =
          analysis::aggregate_trace(*run.trace, *run.sites);
      ASSERT_FALSE(batch.phases.empty()) << label;

      const advisor::PhaseAdvisor batch_advisor(spec, options);
      const advisor::PlacementSchedule oracle =
          batch_advisor.advise(batch.phases);
      const advisor::HmemAdvisor whole_advisor(spec, options);
      const advisor::Placement oracle_placement =
          whole_advisor.advise(batch.objects);

      // Stream the trace in slices, refreshing as a live client would.
      IncrementalAggregator agg(*run.sites);
      advisor::IncrementalAdvisor inc(spec, options);
      const auto& events = run.trace->events();
      for (std::size_t i = 0; i < events.size(); ++i) {
        trace::dispatch_event(events[i], agg);
        if (i % 500 == 499) inc.refresh(agg);
      }
      inc.refresh(agg, /*finalize=*/true);

      // Bit-identical: the serialized reports are byte-equal, which is the
      // strongest equality the tool chain can observe.
      EXPECT_EQ(advisor::write_schedule_report(oracle),
                advisor::write_schedule_report(inc.schedule()))
          << label;
      EXPECT_EQ(advisor::write_placement_report(oracle_placement),
                advisor::write_placement_report(inc.placement()))
          << label;
    }
  }
}

TEST(IncrementalAdvisor, CleanPhasesAreNotResolved) {
  const auto node = all_presets().front();
  const auto run = profiled_run(apps::make_lulesh(), node);
  IncrementalAggregator agg(*run.sites);
  trace::visit_buffer(*run.trace, agg);

  advisor::IncrementalAdvisor inc(spec_for(node), advisor::Options{});
  const advisor::RefreshStats first = inc.refresh(agg, /*finalize=*/true);
  EXPECT_GT(first.phases_resolved, 0u);
  const std::uint64_t solves = inc.total_resolves();

  // Nothing moved: the refresh must be a no-op (two integer compares per
  // phase), not a re-solve.
  const advisor::RefreshStats second = inc.refresh(agg);
  EXPECT_EQ(second.phases_dirty, 0u);
  EXPECT_EQ(second.phases_resolved, 0u);
  EXPECT_FALSE(second.whole_run_resolved);
  EXPECT_FALSE(second.schedule_changed);
  EXPECT_EQ(inc.total_resolves(), solves);
}

TEST(IncrementalAdvisor, DriftThresholdDefersButFinalizeConverges) {
  const auto node = all_presets().front();
  const auto run = profiled_run(apps::make_churn(), node);
  const advisor::MemorySpec spec = spec_for(node);
  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);

  // An absurd threshold: every mid-stream refresh defers miss-only drift.
  advisor::IncrementalAdvisorOptions lazy;
  lazy.resolve_threshold = 1e9;
  IncrementalAggregator agg(*run.sites);
  advisor::IncrementalAdvisor inc(spec, advisor::Options{}, lazy);
  const auto& events = run.trace->events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    trace::dispatch_event(events[i], agg);
    if (i % 200 == 199) inc.refresh(agg);
  }
  inc.refresh(agg, /*finalize=*/true);

  const advisor::PhaseAdvisor batch_advisor(spec, advisor::Options{});
  EXPECT_EQ(advisor::write_schedule_report(batch_advisor.advise(batch.phases)),
            advisor::write_schedule_report(inc.schedule()));
}

// ---- Concurrency: snapshot is a reader racing the writer -----------------
// One thread feeds events while others take snapshots or refresh.
// Run under TSan in CI; the final convergence check keeps it meaningful
// without a sanitizer too.

TEST(IncrementalAggregator, SnapshotConcurrentWithWriter) {
  const auto run = profiled_run(apps::make_minife(), all_presets().front());
  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);

  IncrementalAggregator inc(*run.sites);
  std::atomic<bool> done{false};

  std::thread reader([&] {
    std::uint64_t last_events = 0;
    while (!done.load(std::memory_order_acquire)) {
      const AggregateResult snap = inc.snapshot();
      // Monotone progress: a later snapshot can never report fewer events.
      EXPECT_GE(snap.total_samples + inc.events_seen(), last_events);
      last_events = inc.events_seen();
      for (std::size_t p = 0; p < inc.phase_count(); ++p) {
        (void)inc.phase_view(p);
      }
      (void)inc.objects_view();
    }
  });
  trace::visit_buffer(*run.trace, inc);
  done.store(true, std::memory_order_release);
  reader.join();

  expect_identical_results(batch, inc.snapshot(), "minife concurrent");
}

TEST(IncrementalAdvisor, RefreshConcurrentWithWriter) {
  const auto node = all_presets().front();
  const auto run = profiled_run(apps::make_hpcg(), node);
  const advisor::MemorySpec spec = spec_for(node);

  IncrementalAggregator agg(*run.sites);
  advisor::IncrementalAdvisor inc(spec, advisor::Options{});
  std::atomic<bool> done{false};
  std::thread refresher([&] {
    while (!done.load(std::memory_order_acquire)) inc.refresh(agg);
  });
  trace::visit_buffer(*run.trace, agg);
  done.store(true, std::memory_order_release);
  refresher.join();
  inc.refresh(agg, /*finalize=*/true);

  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);
  const advisor::PhaseAdvisor batch_advisor(spec, advisor::Options{});
  EXPECT_EQ(advisor::write_schedule_report(batch_advisor.advise(batch.phases)),
            advisor::write_schedule_report(inc.schedule()));
}

}  // namespace
}  // namespace hmem
