#include "engine/experiment.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/units.hpp"
#include "engine/sweep.hpp"

namespace hmem::engine {

std::vector<StrategyConfig> paper_strategies() {
  std::vector<StrategyConfig> strategies;
  {
    StrategyConfig s;
    s.label = "Density";
    s.options.strategy = advisor::Strategy::kDensity;
    strategies.push_back(s);
  }
  for (double threshold : {0.0, 1.0, 5.0}) {
    StrategyConfig s;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "Misses(%g%%)", threshold);
    s.label = buf;
    s.options.strategy = advisor::Strategy::kMisses;
    s.options.threshold_pct = threshold;
    strategies.push_back(s);
  }
  return strategies;
}

std::vector<std::uint64_t> paper_budgets_mpi() {
  return {32ULL << 20, 64ULL << 20, 128ULL << 20, 256ULL << 20};
}

std::vector<std::uint64_t> paper_budgets_openmp() {
  return {32ULL << 20,  128ULL << 20, 512ULL << 20,
          2ULL << 30,   8ULL << 30,   16ULL << 30};
}

const Fig4Cell& Fig4Row::cell(const std::string& strategy,
                              std::uint64_t budget) const {
  for (const auto& c : cells) {
    if (c.strategy == strategy && c.budget_bytes == budget) return c;
  }
  HMEM_ASSERT_MSG(false, "no such figure-4 cell");
  return cells.front();
}

double dfom_per_mb(double fom, double ddr_fom, std::uint64_t mem_bytes) {
  HMEM_ASSERT(mem_bytes > 0);
  const double mem_mb =
      static_cast<double>(mem_bytes) / static_cast<double>(kMiB);
  return (fom - ddr_fom) / mem_mb;
}

Fig4Runner::Fig4Runner(apps::AppSpec app, PipelineOptions base_options)
    : app_(std::move(app)), base_(std::move(base_options)) {}

Fig4Row Fig4Runner::run(const std::vector<std::uint64_t>& budgets,
                        const std::vector<StrategyConfig>& strategies) {
  Fig4Row row;
  row.app = app_.name;
  row.fom_unit = app_.fom_unit;
  row.machine = base_.node.name;
  row.fast_tier_name = base_.node.tiers[base_.node.fastest_tier()].name;

  // One row is a 1x1 slice of the sweep grid: delegate enumeration,
  // shared-profile reuse, program caching and the worker pool to the sweep
  // engine, then reshape its outcomes into the historical Fig4Row.
  SweepSpec sweep;
  sweep.apps = {app_};
  sweep.machines = {base_.node};
  sweep.baselines = {Condition::kDdr, Condition::kNumactl,
                     Condition::kAutoHbw, Condition::kCacheMode};
  sweep.strategies = strategies;
  sweep.budgets_for = [budgets](const apps::AppSpec&) { return budgets; };
  sweep.base = base_;
  sweep.jobs = base_.jobs;
  SweepEngine engine(std::move(sweep));
  const std::vector<SweepOutcome> outcomes = engine.run();

  // Enumeration order is baselines (in listed order) then strategy-major,
  // budget-minor framework cells — the same order Fig4Row::cells uses.
  row.cells.resize(strategies.size() * budgets.size());
  BaselineResult baselines[4];
  for (const SweepOutcome& outcome : outcomes) {
    const SweepCell& cell = outcome.cell;
    if (cell.kind == CellKind::kBaseline) {
      BaselineResult& b = baselines[cell.index];
      b.condition = condition_name(cell.baseline);
      b.fom = outcome.result.fom;
      b.fast_hwm_bytes = outcome.result.fast_hwm_bytes;
      continue;
    }
    Fig4Cell& out = row.cells[cell.index - 4];
    out.strategy = strategies[cell.strategy].label;
    out.budget_bytes = cell.budget_bytes;
    out.fom = outcome.result.fom;
    out.hwm_bytes = outcome.result.fast_hwm_bytes;
    out.any_overflow = outcome.result.any_overflow;
  }
  row.ddr = baselines[0];
  row.numactl = baselines[1];
  row.autohbw = baselines[2];
  row.cache = baselines[3];

  // dFOM/MByte needs the DDR baseline, so it is filled in after the sweep.
  // The paper assigns the full fast-tier capacity (16 GiB MCDRAM on KNL) as
  // MEM_x for the two budget-less conditions; autohbw is excluded from the
  // metric (unknown promoted volume).
  const std::uint64_t budgetless_mem =
      base_.node.tiers[base_.node.fastest_tier()].capacity_bytes;
  row.numactl.dfom_per_mb =
      dfom_per_mb(row.numactl.fom, row.ddr.fom, budgetless_mem);
  row.cache.dfom_per_mb =
      dfom_per_mb(row.cache.fom, row.ddr.fom, budgetless_mem);
  for (Fig4Cell& cell : row.cells) {
    cell.dfom_per_mb = dfom_per_mb(cell.fom, row.ddr.fom, cell.budget_bytes);
  }
  return row;
}

namespace {

std::string fmt_double(double v) {
  char buf[48];
  if (v != 0 && (std::abs(v) < 0.01 || std::abs(v) >= 1e6)) {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

}  // namespace

std::string format_fig4_row(const Fig4Row& row,
                            const std::vector<std::uint64_t>& budgets,
                            const std::vector<StrategyConfig>& strategies) {
  std::ostringstream os;
  auto print_table = [&](const std::string& title, auto cell_value,
                         bool with_baselines) {
    os << "== " << row.app << " - " << title << " ==\n";
    os << "  budget";
    for (const auto& s : strategies) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %14s", s.label.c_str());
      os << buf;
    }
    os << '\n';
    for (const std::uint64_t b : budgets) {
      char head[32];
      std::snprintf(head, sizeof(head), "%8s",
                    format_bytes(b).c_str());
      os << head;
      for (const auto& s : strategies) {
        const Fig4Cell& c = row.cell(s.label, b);
        char buf[48];
        std::snprintf(buf, sizeof(buf), " %14s",
                      fmt_double(cell_value(c)).c_str());
        os << buf;
      }
      os << '\n';
    }
    if (with_baselines) {
      os << "  lines: DDR=" << fmt_double(row.ddr.fom) << " "
         << row.fast_tier_name << "*=" << fmt_double(row.numactl.fom)
         << " cache=" << fmt_double(row.cache.fom)
         << " autohbw/1m=" << fmt_double(row.autohbw.fom) << " ("
         << row.fom_unit << ")\n";
    }
    os << '\n';
  };

  print_table("FOM (" + row.fom_unit + ")",
              [](const Fig4Cell& c) { return c.fom; }, true);
  print_table(row.fast_tier_name + " HWM (MiB/rank)",
              [](const Fig4Cell& c) {
                return static_cast<double>(c.hwm_bytes) /
                       static_cast<double>(kMiB);
              },
              false);
  print_table("dFOM/MByte",
              [](const Fig4Cell& c) { return c.dfom_per_mb; }, false);
  os << "  dFOM/MByte lines: " << row.fast_tier_name
     << "*=" << fmt_double(row.numactl.dfom_per_mb)
     << " cache=" << fmt_double(row.cache.dfom_per_mb) << '\n';
  return os.str();
}

std::string fig4_row_to_csv(const Fig4Row& row) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_row({"app", "kind", "strategy", "budget_mib", "fom",
                    "hwm_mib", "dfom_per_mb"});
  auto baseline = [&](const BaselineResult& b) {
    writer.write_row({row.app, "baseline", b.condition, "",
                      fmt_double(b.fom),
                      fmt_double(static_cast<double>(b.fast_hwm_bytes) /
                                 static_cast<double>(kMiB)),
                      fmt_double(b.dfom_per_mb)});
  };
  baseline(row.ddr);
  baseline(row.numactl);
  baseline(row.autohbw);
  baseline(row.cache);
  for (const auto& c : row.cells) {
    writer.write_row(
        {row.app, "framework", c.strategy,
         std::to_string(c.budget_bytes / kMiB), fmt_double(c.fom),
         fmt_double(static_cast<double>(c.hwm_bytes) /
                    static_cast<double>(kMiB)),
         fmt_double(c.dfom_per_mb)});
  }
  return os.str();
}

}  // namespace hmem::engine
