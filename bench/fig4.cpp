// Figure 4: one paper row per application, or this repo's dynamic row.
//
//   usage: bench_fig4 (--app <name> | --dynamic) [--jobs N]
//          [--machine preset|config.ini] [--kernel kind] [--smoke]
//     --app      the paper's row for one application: four baselines plus
//                the four strategies x budget sweep, printed as the three
//                panels (FOM / fast-tier HWM / dFOM-per-MByte) and a CSV
//                block
//     --dynamic  static knapsack placement vs the phase-aware schedule, as
//                a dFOM/MByte comparison across every bundled workload (the
//                paper's eight plus the two phase-shifting stress apps) and
//                every machine preset
//     --jobs     sweep independent cells concurrently (bit-identical to
//                serial)
//     --machine  the row's machine (--app, default: the paper's KNL), or
//                the one machine the dynamic sweep is restricted to
//                (--dynamic, default: all four presets)
//     --kernel   access-loop backend (auto/interp/bytecode/native)
//     --smoke    shrink every app for CI (structure preserved)
//
// Both modes run on the sweep engine. The dynamic grid is one DDR baseline
// cell plus one dynamic cell per (app, machine), sharing stage-1 profiles
// and compiled kernel programs across cells. The static pipeline
// structurally cannot beat dynamic on the phase-shift apps (churn,
// transient): their hot sets do not fit the budget *together* but do fit
// it *per phase*. On single-phase apps the two conditions are bit-identical
// by construction, which the `=` rows show. Checkpointed, resumable or
// sharded sweeps of the same grid are `hmem_sweep --dynamic`.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "engine/experiment.hpp"
#include "engine/sweep.hpp"

namespace {

using namespace hmem;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--app <name> | --dynamic) [--jobs N] "
               "[--machine preset|config.ini] [--kernel %s] [--smoke]\n",
               argv0, engine::kernel::kernel_list().c_str());
  return kExitUsage;
}

void shrink_for_smoke(apps::AppSpec& app) {
  app.iterations = std::min<std::uint64_t>(app.iterations, 4);
  app.accesses_per_iteration =
      std::min<std::uint64_t>(app.accesses_per_iteration, 6000);
}

int run_row(const apps::AppSpec& app, const bench::BenchOptions& options) {
  engine::Fig4Runner runner(app, bench::pipeline_options(options));
  const auto budgets = app.ranks == 1 ? engine::paper_budgets_openmp()
                                      : engine::paper_budgets_mpi();
  const auto strategies = engine::paper_strategies();
  const auto row = runner.run(budgets, strategies);

  std::printf("Figure 4 row — %s (%s), %d rank(s) x %d thread(s) on %s\n",
              app.name.c_str(), app.fom_unit.c_str(), app.ranks,
              app.threads_per_rank, row.machine.c_str());
  std::printf("%s\n",
              engine::format_fig4_row(row, budgets, strategies).c_str());
  std::printf("--- CSV ---\n%s\n", engine::fig4_row_to_csv(row).c_str());
  return kExitOk;
}

/// One presentation row of the dynamic sweep: the (app, machine) grid point
/// with its DDR anchor and the static/dynamic comparison.
struct DynamicRow {
  std::string app;
  std::string machine;
  std::string fast_tier;
  std::uint64_t budget = 0;  ///< per rank
  double ddr_fom = 0;
  double static_fom = 0;
  double dynamic_fom = 0;
  double static_dfom = 0;
  double dynamic_dfom = 0;
  std::size_t phases = 0;
  std::uint64_t migration_bytes = 0;  ///< per rank
  double migration_cost_s = 0;
};

/// Per-rank fast-tier budget of a dynamic cell. The phase-shift apps are
/// sized against 96 MiB (one hot set fits, the union does not); the
/// OpenMP-only BT sweeps node-wide budgets in Figure 4, so it gets a
/// node-wide 2 GiB; everything else uses the paper's largest per-rank point.
std::uint64_t dynamic_budget(const apps::AppSpec& app) {
  if (app.phases.size() > 1 && app.ranks == 8) return 96 * kMiB;
  if (app.ranks == 1) return 2ULL * kGiB;
  return 256 * kMiB;
}

int run_dynamic(std::vector<apps::AppSpec> apps,
                std::vector<memsim::MachineConfig> machines,
                const bench::BenchOptions& options) {
  engine::SweepSpec sweep;
  sweep.apps = std::move(apps);
  sweep.machines = std::move(machines);
  sweep.baselines = {engine::Condition::kDdr};
  sweep.budgets_for = [](const apps::AppSpec& app) {
    return std::vector<std::uint64_t>{dynamic_budget(app)};
  };
  sweep.dynamic_cells = true;
  sweep.base = bench::pipeline_options(options);
  sweep.jobs = options.jobs;
  engine::SweepEngine sweep_engine(std::move(sweep));
  const std::vector<engine::SweepOutcome> outcomes = sweep_engine.run();
  const engine::SweepSpec& grid = sweep_engine.spec();
  const engine::SweepStats& stats = sweep_engine.stats();

  // Reshape: enumeration order is (app-major, machine-minor), and each grid
  // point contributes exactly [baseline ddr, dynamic] in that order.
  std::vector<DynamicRow> rows(grid.apps.size() * grid.machines.size());
  for (const engine::SweepOutcome& outcome : outcomes) {
    const engine::SweepCell& sc = outcome.cell;
    const memsim::MachineConfig& machine = grid.machines[sc.machine];
    DynamicRow& row = rows[sc.app * grid.machines.size() + sc.machine];
    row.app = grid.apps[sc.app].name;
    row.machine = machine.name;
    row.fast_tier = machine.tiers[machine.fastest_tier()].name;
    if (sc.kind == engine::CellKind::kBaseline) {
      row.ddr_fom = outcome.result.fom;
    } else {
      row.budget = sc.budget_bytes;
      row.static_fom = outcome.result.static_fom;
      row.dynamic_fom = outcome.result.fom;
      row.phases = outcome.result.phases;
      row.migration_bytes = outcome.result.migration_bytes;
      row.migration_cost_s = outcome.result.migration_cost_s;
    }
  }
  for (DynamicRow& row : rows) {
    row.static_dfom =
        engine::dfom_per_mb(row.static_fom, row.ddr_fom, row.budget);
    row.dynamic_dfom =
        engine::dfom_per_mb(row.dynamic_fom, row.ddr_fom, row.budget);
  }

  std::printf(
      "Figure 4, dynamic row — static knapsack vs phase-aware schedule\n"
      "(dFOM/MByte per the paper's metric; '>' = dynamic wins, '=' = "
      "bit-identical single-phase placement)\n\n");
  std::printf("%-10s %-13s %8s %3s %12s %12s %12s %2s %14s\n", "app",
              "machine", "budget", "ph", "ddr FOM", "static dFOM",
              "dyn dFOM", "", "migrated/rank");
  for (const DynamicRow& row : rows) {
    const char* verdict = row.dynamic_dfom > row.static_dfom    ? ">"
                          : row.dynamic_dfom == row.static_dfom ? "="
                                                                : "<";
    std::printf("%-10s %-13s %8s %3zu %12.4g %12.4g %12.4g %2s %14s\n",
                row.app.c_str(), row.machine.c_str(),
                format_bytes(row.budget).c_str(), row.phases, row.ddr_fom,
                row.static_dfom, row.dynamic_dfom, verdict,
                format_bytes(row.migration_bytes).c_str());
  }
  std::printf(
      "\nsweep: %zu cell(s) in %.2fs (%.2f cells/s), profile reuse "
      "%.0f%%, program cache %.0f%% (%zu entries), peak cell scratch %s\n",
      stats.cells_computed, stats.wall_seconds, stats.cells_per_second,
      100.0 * stats.profile_hit_rate(), 100.0 * stats.program_hit_rate(),
      stats.program_cache_entries,
      format_bytes(stats.arena_peak_cell_bytes).c_str());

  std::printf("\n--- CSV ---\n");
  std::printf(
      "app,machine,fast_tier,budget_mib,phases,ddr_fom,static_fom,"
      "dynamic_fom,static_dfom_per_mb,dynamic_dfom_per_mb,"
      "migration_mib_per_rank,migration_cost_s\n");
  for (const DynamicRow& row : rows) {
    std::printf("%s,%s,%s,%llu,%zu,%.6g,%.6g,%.6g,%.6g,%.6g,%.3f,%.4f\n",
                row.app.c_str(), row.machine.c_str(), row.fast_tier.c_str(),
                static_cast<unsigned long long>(row.budget / kMiB),
                row.phases, row.ddr_fom, row.static_fom, row.dynamic_fom,
                row.static_dfom, row.dynamic_dfom,
                static_cast<double>(row.migration_bytes) /
                    static_cast<double>(kMiB),
                row.migration_cost_s);
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options;
  std::optional<memsim::MachineConfig> machine;
  std::string app_name;
  bool dynamic = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--app") == 0 && i + 1 < argc) {
      app_name = argv[++i];
    } else if (std::strcmp(argv[i], "--dynamic") == 0) {
      dynamic = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      options.jobs = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--machine") == 0 && i + 1 < argc) {
      machine = bench::parse_machine_value(argv[++i]);
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      options.kernel = bench::parse_kernel_value(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (dynamic == !app_name.empty()) return usage(argv[0]);

  try {
    if (dynamic) {
      std::vector<apps::AppSpec> apps = apps::all_apps();
      for (apps::AppSpec& app : apps::phase_shift_apps()) {
        apps.push_back(std::move(app));
      }
      if (smoke) {
        for (apps::AppSpec& app : apps) shrink_for_smoke(app);
      }
      std::vector<memsim::MachineConfig> machines;
      if (machine) {
        machines.push_back(*machine);
      } else {
        for (const char* name : {"knl", "spr-hbm", "ddr-cxl", "hbm-ddr-pmem"}) {
          machines.push_back(
              *memsim::MachineConfig::preset(name, memsim::MemMode::kFlat));
        }
      }
      return run_dynamic(std::move(apps), std::move(machines), options);
    }

    std::string names;
    for (apps::AppSpec& app : apps::all_apps()) {
      if (app.name != app_name) {
        if (!names.empty()) names += ", ";
        names += app.name;
        continue;
      }
      if (smoke) shrink_for_smoke(app);
      if (machine) options.node = *machine;
      return run_row(app, options);
    }
    std::fprintf(stderr, "--app: unknown Figure 4 app '%s' (one of %s)\n",
                 app_name.c_str(), names.c_str());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e);
  }
}
