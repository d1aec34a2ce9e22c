// Committed goldens: paper-facing numbers compared exactly against files
// under tests/golden/, so a change that moves every code path together (a
// preset constant, the roofline math, the phase tables) still fails here.
// Every other suite compares one path with another; this one compares with
// numbers recorded before the change.
//
//  * sweep_dynamic_smoke.txt — the `hmem_sweep --smoke --dynamic
//    --machines knl,spr-hbm,ddr-cxl,hbm-ddr-pmem` grid: the ten bundled
//    apps × four presets, one DDR baseline cell per (app, machine) plus one
//    static-vs-dynamic cell per budget. One line per cell: the store key and
//    the %.17g store value, so the comparison has no tolerance.
//  * merged_advise_<app>.txt — churn and transient recorded at 8 ranks on
//    knl as `hmem_profile --ranks 8 --format binary` writes them, read back
//    through hmem_advise's default salvage front (trace::ReplayReader:
//    RecoveringTraceReader inside OffsetTraceReader, k-way merged with
//    drop_failed_inputs) and advised as `hmem_advise ... 96M --machine knl
//    --per-phase --csv` would: the aggregate totals, the per-object CSV
//    (density at %.17g), every phase slice and the schedule report. Phase
//    slices depend on how the ranks' phase markers and samples interleave.
//    Flipping the merge's tie order moves no line of these files; the tie
//    order is pinned by test_fuzz's merge property instead.
//  * fig4_knl_smoke.txt — the eight Figure 4 rows on knl at `bench_fig4
//    --smoke` scale: the profile run, the ddr/numactl/autohbw/cache
//    baselines and every strategy x budget framework cell, each as the full
//    RunResult at %.17g (all but `kernel`, the one field kernels may differ
//    in). The cell FOMs are checked against Fig4Runner, so these are the
//    rows bench_fig4 prints.
//  * replay_churn_knl.txt — replay_run of the 8-rank churn recording above
//    under ddr, numactl, autohbw and framework (the 96M static placement of
//    the same recording), every RunResult field at %.17g.
//  * latency_bound.txt — a test-only app whose phase time is bound by the
//    roofline's latency term (one rank and thread, an LLC-resident object
//    taking 97% of the accesses, a large random one the rest) under ddr,
//    numactl and cache on all four presets, so a change to any latency
//    constant the runs read fails here. The Figure 4 rows and the sweep
//    grid are bandwidth-bound and would not notice.
//  * pipeline_churn_knl.txt — run_pipeline(per_phase = true) on a shrunk
//    churn with a 96M budget on knl, profiled as one rank and as four
//    sharded ranks: every profile, production and dynamic RunResult at
//    %.17g, the aggregate totals, the merged event count and shard sizes,
//    and the placement and schedule reports. The sweep's dynamic cells run
//    the same stage functions, so this golden is what pins those stages.
//
// On a mismatch the test writes what it computed next to the test binary
// and prints the command that would accept it. A golden only changes with a
// reason stated in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/advisor.hpp"
#include "advisor/phase_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "apps/workloads.hpp"
#include "engine/execution.hpp"
#include "engine/experiment.hpp"
#include "engine/pipeline.hpp"
#include "engine/replay.hpp"
#include "engine/sweep.hpp"
#include "memsim/machine.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/visitor.hpp"

namespace {

using namespace hmem;

std::string golden_path(const std::string& name) {
  return std::string(HMEM_REPO_DIR) + "/tests/golden/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Compares `actual` with the committed golden `name` byte for byte. On a
/// mismatch, reports the first differing line and the regeneration command.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  const std::string expected = slurp(path);
  if (actual == expected) return;

  const std::filesystem::path out_dir =
      std::filesystem::current_path() / "golden_actual";
  std::filesystem::create_directories(out_dir);
  const std::filesystem::path out = out_dir / name;
  std::ofstream(out, std::ios::binary) << actual;

  const std::vector<std::string> want = lines_of(expected);
  const std::vector<std::string> got = lines_of(actual);
  std::size_t line = 0;
  while (line < want.size() && line < got.size() && want[line] == got[line]) {
    ++line;
  }
  ADD_FAILURE() << name << " differs from the committed golden ("
                << want.size() << " expected line(s), " << got.size()
                << " computed) first at line " << line + 1 << ":\n"
                << "  golden:   "
                << (line < want.size() ? want[line] : "<end of file>") << "\n"
                << "  computed: "
                << (line < got.size() ? got[line] : "<end of file>") << "\n"
                << "If the change is intended, state why in CHANGES.md and "
                   "regenerate with:\n  cp "
                << out.string() << " " << path;
}

/// One run as a single line: every RunResult number at %.17g behind its
/// label, tier traffic fastest first, then the interposer's counters. The
/// `kernel` field is left out: it names the backend, which is the one thing
/// allowed to differ between HMEM_KERNEL settings.
std::string format_run(const std::string& label, const engine::RunResult& r) {
  std::string out = label + " app=" + r.app + " condition=" + r.condition +
                    " fom_unit=" + r.fom_unit;
  const auto num = [&out](const char* key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += ' ';
    out += key;
    out += '=';
    out += buf;
  };
  const auto count = [&out](const char* key, std::uint64_t value) {
    out += ' ';
    out += key;
    out += '=';
    out += std::to_string(value);
  };
  num("time_s", r.time_s);
  num("fom", r.fom);
  count("fast_hwm", r.fast_hwm_bytes);
  count("total_hwm", r.total_hwm_bytes);
  for (const engine::TierTraffic& t : r.tier_traffic) {
    out += " tier." + t.name + '=' + std::to_string(t.bytes) + '/' +
           std::to_string(t.migration_bytes);
  }
  num("achieved_bw_gbs", r.achieved_bw_gbs);
  count("migration_bytes", r.migration_bytes);
  count("migration_count", r.migration_count);
  num("migration_cost_s", r.migration_cost_s);
  count("llc_misses", r.llc_misses);
  count("samples", r.samples);
  num("monitoring_overhead", r.monitoring_overhead);
  count("alloc_calls", r.alloc_calls);
  num("allocs_per_second", r.allocs_per_second);
  num("interposition_overhead_ns", r.interposition_overhead_ns);
  if (r.autohbw) {
    const runtime::AutoHbwStats& a = *r.autohbw;
    count("intercepted", a.intercepted_allocs);
    count("size_filtered", a.size_filtered_out);
    count("cache_hits", a.cache_hits);
    count("cache_misses", a.cache_misses);
    count("matched", a.matched);
    count("promoted", a.promoted);
    count("budget_rejections", a.budget_rejections);
    count("migrations", a.migrations);
    count("migrated_bytes", a.migrated_bytes);
    count("fast_in_use", a.fast_bytes_in_use);
    count("fast_hwm_autohbw", a.fast_hwm);
    count("overflow", a.any_overflow ? 1 : 0);
    const auto list = [&out](const char* key,
                             const std::vector<std::uint64_t>& values) {
      out += ' ';
      out += key;
      out += '=';
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(values[i]);
      }
    };
    list("tier_in_use", a.tier_bytes_in_use);
    list("tier_hwm", a.tier_hwm);
    list("tier_promoted", a.tier_promoted);
    list("tier_budget_rejections", a.tier_budget_rejections);
  }
  out += '\n';
  return out;
}

TEST(Golden, DynamicSweepSmokeGridOverAllPresets) {
  // The grid `hmem_sweep --smoke --dynamic --machines
  // knl,spr-hbm,ddr-cxl,hbm-ddr-pmem` builds: default apps, DDR baseline,
  // paper budget ladder, and the tool's --smoke shrink.
  engine::SweepSpec spec;
  spec.apps = apps::all_apps();
  for (apps::AppSpec& app : apps::phase_shift_apps()) {
    spec.apps.push_back(std::move(app));
  }
  for (apps::AppSpec& app : spec.apps) {
    app.iterations = std::min<std::uint64_t>(app.iterations, 4);
    app.accesses_per_iteration =
        std::min<std::uint64_t>(app.accesses_per_iteration, 6000);
  }
  for (const char* preset : {"knl", "spr-hbm", "ddr-cxl", "hbm-ddr-pmem"}) {
    std::string error;
    const auto machine = memsim::load_machine_config(preset, &error);
    ASSERT_TRUE(machine.has_value()) << preset << ": " << error;
    spec.machines.push_back(*machine);
  }
  spec.baselines = {engine::Condition::kDdr};
  spec.dynamic_cells = true;

  engine::SweepEngine sweep(std::move(spec));
  std::string actual;
  for (const engine::SweepOutcome& outcome : sweep.run()) {
    ASSERT_TRUE(outcome.computed);
    actual += engine::sweep_cell_key(sweep.spec(), outcome.cell);
    actual += ' ';
    actual += engine::serialize_sweep_result(outcome.result);
    actual += '\n';
  }
  expect_golden("sweep_dynamic_smoke.txt", actual);
}

/// One object table: `objects_to_csv`'s columns with the density at %.17g.
void append_objects(std::string& out,
                    const std::vector<advisor::ObjectInfo>& objects) {
  out += "name,site,dynamic,max_size_bytes,llc_misses,misses_per_kib\n";
  for (const advisor::ObjectInfo& obj : objects) {
    const double per_kib =
        obj.max_size_bytes > 0
            ? static_cast<double>(obj.llc_misses) * 1024.0 /
                  static_cast<double>(obj.max_size_bytes)
            : 0.0;
    char density[32];
    std::snprintf(density, sizeof(density), "%.17g", per_kib);
    out += obj.name + ',' + std::to_string(obj.site) + ',' +
           (obj.is_dynamic ? '1' : '0') + ',' +
           std::to_string(obj.max_size_bytes) + ',' +
           std::to_string(obj.llc_misses) + ',' + density + '\n';
  }
}

constexpr int kRecordedRanks = 8;

/// `app_name` recorded at 8 ranks on knl as `hmem_profile --ranks 8
/// --format binary` writes it: one binary shard per rank, kept in memory.
struct Recording {
  std::vector<std::string> shards;
  std::vector<std::string> labels;

  /// A fresh read of the shards through hmem_advise's default front
  /// (salvage on); the merged stream is single-pass.
  std::unique_ptr<trace::ReplayReader> open() const {
    std::vector<std::unique_ptr<std::istream>> streams;
    for (const std::string& shard : shards) {
      streams.push_back(std::make_unique<std::istringstream>(shard));
    }
    trace::ReplayReaderOptions options;
    options.salvage = true;
    return std::make_unique<trace::ReplayReader>(std::move(streams), labels,
                                                 options);
  }
};

memsim::MachineConfig knl() {
  std::string error;
  return memsim::load_machine_config("knl", &error).value();
}

Recording record(const std::string& app_name) {
  apps::AppSpec app = apps::app_by_name(app_name);
  app.ranks = kRecordedRanks;
  Recording recording;
  for (int r = 0; r < kRecordedRanks; ++r) {
    callstack::SiteDb sites;
    std::ostringstream out;
    const auto writer =
        trace::make_trace_writer(out, sites, trace::TraceFormat::kBinary);
    engine::RunOptions opts;
    opts.profile = true;
    opts.node = knl();
    opts.seed = 42 + static_cast<std::uint64_t>(r) * engine::kRankSeedStride;
    opts.sites = &sites;
    opts.trace_sink = writer.get();
    engine::run_app(app, opts);
    writer->finish();
    recording.shards.push_back(std::move(out).str());
    recording.labels.push_back(app_name + ".trace.rank" + std::to_string(r));
  }
  return recording;
}

/// The merged aggregate of a recording, as hmem_advise computes it.
analysis::AggregateResult aggregate(const Recording& recording,
                                    std::size_t* events) {
  const auto reader = recording.open();
  analysis::AggregateVisitor visitor(reader->sites());
  *events = trace::pump(reader->reader(), visitor);
  EXPECT_TRUE(reader->salvage_report().clean())
      << reader->salvage_report().summary();
  return visitor.finish();
}

/// Records `app_name` at 8 ranks on knl, merges the shards through the
/// hmem_advise salvage front and renders the aggregate plus the 96M
/// per-phase schedule.
std::string merged_advise(const std::string& app_name) {
  std::size_t events = 0;
  const analysis::AggregateResult result = aggregate(record(app_name), &events);

  std::string out = "# " + app_name + ", " + std::to_string(kRecordedRanks) +
                    " ranks on knl, merged through the salvage front\n";
  out += "events = " + std::to_string(events) + '\n';
  out += "total_samples = " + std::to_string(result.total_samples) + '\n';
  out += "total_weighted_misses = " +
         std::to_string(result.total_weighted_misses) + '\n';
  out += "unattributed_samples = " +
         std::to_string(result.unattributed_samples) + '\n';
  out += "unattributed_misses = " +
         std::to_string(result.unattributed_misses) + '\n';
  out += "[objects]\n";
  append_objects(out, result.objects);
  for (const advisor::PhaseObjects& phase : result.phases) {
    out += "[phase objects " + phase.name + "]\n";
    append_objects(out, phase.objects);
  }
  const advisor::MemorySpec spec =
      engine::machine_memory_spec(knl(), 96ULL << 20, /*ranks=*/1);
  out += advisor::write_schedule_report(
      advisor::PhaseAdvisor(spec, advisor::Options{}).advise(result.phases));
  return out;
}

TEST(Golden, MergedAdviseChurnAtEightRanks) {
  expect_golden("merged_advise_churn.txt", merged_advise("churn"));
}

TEST(Golden, MergedAdviseTransientAtEightRanks) {
  expect_golden("merged_advise_transient.txt", merged_advise("transient"));
}

TEST(Golden, Fig4RowsOnKnlAtSmokeScale) {
  // bench_fig4 --app <name> --smoke for the paper's eight apps: the flow of
  // SweepEngine::run_cell, one run_app per cell, so every RunResult field
  // is visible rather than just the row's FOM and HWM.
  const memsim::MachineConfig node = knl();
  const engine::PipelineOptions base;
  const std::vector<engine::StrategyConfig> strategies =
      engine::paper_strategies();
  std::string actual;
  for (apps::AppSpec app : apps::all_apps()) {
    app.iterations = std::min<std::uint64_t>(app.iterations, 4);
    app.accesses_per_iteration =
        std::min<std::uint64_t>(app.accesses_per_iteration, 6000);
    const std::vector<std::uint64_t> budgets = engine::default_budgets(app);
    const engine::Fig4Row row =
        engine::Fig4Runner(app, base).run(budgets, strategies);

    engine::RunOptions profile;
    profile.profile = true;
    profile.seed = base.profile_seed;
    profile.node = node;
    const engine::RunResult profiled = engine::run_app(app, profile);
    actual += format_run(app.name + " profile", profiled);
    const analysis::AggregateResult report =
        analysis::aggregate_trace(*profiled.trace, *profiled.sites);

    const std::pair<engine::Condition, const engine::BaselineResult*>
        baselines[] = {{engine::Condition::kDdr, &row.ddr},
                       {engine::Condition::kNumactl, &row.numactl},
                       {engine::Condition::kAutoHbw, &row.autohbw},
                       {engine::Condition::kCacheMode, &row.cache}};
    for (const auto& [condition, expected] : baselines) {
      engine::RunOptions opts;
      opts.condition = condition;
      opts.seed = base.production_seed;
      opts.node = node;
      const engine::RunResult run = engine::run_app(app, opts);
      EXPECT_EQ(run.fom, expected->fom) << app.name << ' ' << run.condition;
      actual += format_run(app.name + ' ' + run.condition, run);
    }
    for (const engine::StrategyConfig& strategy : strategies) {
      for (const std::uint64_t budget : budgets) {
        const advisor::Placement placement = advisor::read_placement_report(
            advisor::write_placement_report(
                advisor::HmemAdvisor(
                    engine::machine_memory_spec(node, budget, app.ranks),
                    strategy.options)
                    .advise(report.objects)));
        engine::RunOptions opts;
        opts.condition = engine::Condition::kFramework;
        opts.placement = &placement;
        opts.seed = base.production_seed;
        opts.node = node;
        const engine::RunResult run = engine::run_app(app, opts);
        EXPECT_EQ(run.fom, row.cell(strategy.label, budget).fom)
            << app.name << ' ' << strategy.label << ' ' << budget;
        actual += format_run(app.name + " framework " + strategy.label + ' ' +
                                 std::to_string(budget >> 20) + "M",
                             run);
      }
    }
  }
  expect_golden("fig4_knl_smoke.txt", actual);
}

TEST(Golden, ReplayOfChurnAtEightRanks) {
  // `hmem_run --replay churn.trace.rank* --machine knl --ranks 8 --condition
  // ddr,numactl,autohbw --placement <96M static placement>`.
  const Recording recording = record("churn");
  std::size_t events = 0;
  const analysis::AggregateResult report = aggregate(recording, &events);
  const advisor::Placement placement = advisor::read_placement_report(
      advisor::write_placement_report(
          advisor::HmemAdvisor(
              engine::machine_memory_spec(knl(), 96ULL << 20, /*ranks=*/1),
              advisor::Options{})
              .advise(report.objects)));

  std::string actual;
  for (const engine::Condition condition :
       {engine::Condition::kDdr, engine::Condition::kNumactl,
        engine::Condition::kAutoHbw, engine::Condition::kFramework}) {
    engine::ReplayOptions opts;
    opts.condition = condition;
    opts.placement = &placement;
    opts.node = knl();
    opts.ranks = kRecordedRanks;
    opts.shards = kRecordedRanks;
    const auto reader = recording.open();
    const engine::RunResult run =
        engine::replay_run(reader->reader(), reader->sites(), opts);
    actual += format_run(std::string("churn replay ") +
                             engine::condition_name(condition),
                         run);
  }
  expect_golden("replay_churn_knl.txt", actual);
}

/// One rank, one thread: 97% of the accesses go to a 256 KiB object that
/// stays LLC-resident, the rest to a 64 MiB random object. The phase's
/// memory time is then the summed access latency over the MLP, not the
/// tier traffic over the bandwidth.
apps::AppSpec latency_bound_app() {
  apps::AppSpec app;
  app.name = "latency-bound";
  app.fom_unit = "it/s";
  app.ranks = 1;
  app.threads_per_rank = 1;
  app.iterations = 4;
  app.accesses_per_iteration = 6000;
  app.objects = {
      apps::ObjectSpec{.name = "resident",
                       .size_bytes = 256ULL << 10,
                       .pattern = apps::AccessPattern::kRandom},
      apps::ObjectSpec{.name = "far",
                       .size_bytes = 64ULL << 20,
                       .pattern = apps::AccessPattern::kRandom},
  };
  apps::PhaseSpec phase;
  phase.name = "main";
  phase.object_weights = {0.97, 0.03};
  app.phases = {phase};
  return app;
}

TEST(Golden, LatencyBoundAppOnAllPresets) {
  const apps::AppSpec app = latency_bound_app();
  std::string actual;
  for (const char* preset : {"knl", "spr-hbm", "ddr-cxl", "hbm-ddr-pmem"}) {
    std::string error;
    const auto machine = memsim::load_machine_config(preset, &error);
    ASSERT_TRUE(machine.has_value()) << preset << ": " << error;
    for (const engine::Condition condition :
         {engine::Condition::kDdr, engine::Condition::kNumactl,
          engine::Condition::kCacheMode}) {
      engine::RunOptions opts;
      opts.condition = condition;
      opts.node = *machine;
      actual += format_run(std::string(preset) + ' ' +
                               engine::condition_name(condition),
                           engine::run_app(app, opts));
    }
  }
  expect_golden("latency_bound.txt", actual);
}

std::string pipeline_run(int profile_ranks) {
  apps::AppSpec churn = apps::make_churn();
  churn.iterations = std::min<std::uint64_t>(churn.iterations, 3);
  churn.accesses_per_iteration =
      std::min<std::uint64_t>(churn.accesses_per_iteration, 3000);
  engine::PipelineOptions options;
  options.per_phase = true;
  options.fast_budget_per_rank = 96ULL << 20;
  options.node = knl();
  options.profile_ranks = profile_ranks;
  const engine::PipelineResult result = engine::run_pipeline(churn, options);

  const std::string head = "ranks=" + std::to_string(profile_ranks) + ' ';
  std::string out = "# run_pipeline(per_phase) of churn, " +
                    std::to_string(profile_ranks) + " profiled rank(s)\n";
  if (result.rank_profile_runs.empty()) {
    out += format_run(head + "profile", result.profile_run);
  }
  for (std::size_t r = 0; r < result.rank_profile_runs.size(); ++r) {
    out += format_run(head + "profile rank" + std::to_string(r),
                      result.rank_profile_runs[r]);
  }
  out += format_run(head + "production", result.production_run);
  out += format_run(head + "dynamic", result.dynamic_run);
  const analysis::AggregateResult& report = result.report;
  out += head + "total_samples = " + std::to_string(report.total_samples) +
         '\n';
  out += head + "total_weighted_misses = " +
         std::to_string(report.total_weighted_misses) + '\n';
  out += head + "unattributed_samples = " +
         std::to_string(report.unattributed_samples) + '\n';
  out += head + "unattributed_misses = " +
         std::to_string(report.unattributed_misses) + '\n';
  out += head + "merged_events = " + std::to_string(result.merged_events) +
         '\n';
  out += head + "shard_bytes =";
  for (const std::size_t bytes : result.shard_bytes) {
    out += ' ' + std::to_string(bytes);
  }
  out += '\n';
  out += "[placement]\n" + result.placement_report_text;
  out += "[schedule]\n" + result.schedule_report_text;
  return out;
}

TEST(Golden, PipelineOfChurnAtOneAndFourRanks) {
  expect_golden("pipeline_churn_knl.txt", pipeline_run(1) + pipeline_run(4));
}

}  // namespace
