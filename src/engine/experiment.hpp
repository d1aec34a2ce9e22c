// Experiment driver for the paper's evaluation (Figure 4 and Table I).
//
// For one application it reproduces a full Figure 4 row: the four baseline
// execution conditions (DDR, numactl -p 1, autohbw/1m, cache mode) plus the
// framework under every strategy x budget combination — sharing a single
// stage-1 profile across all framework cells, exactly as a user of the
// framework would.
//
// It also computes the paper's novel efficiency metric:
//   dFOM/MByte_x = (FOM_x - FOM_ddr) / MEM_x
// where MEM_x is the per-process MCDRAM budget of experiment x, and 16 GiB
// for the cache / numactl conditions (the paper's convention, since those
// have no budget).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advisor/advisor.hpp"
#include "engine/pipeline.hpp"

namespace hmem::engine {

struct StrategyConfig {
  std::string label;
  advisor::Options options;
};

/// The paper's four selection configurations: Density, Misses(0%),
/// Misses(1%), Misses(5%).
std::vector<StrategyConfig> paper_strategies();

/// The paper's per-rank budget sweep for MPI apps: 32..256 MiB.
std::vector<std::uint64_t> paper_budgets_mpi();
/// The paper's node-wide sweep for the OpenMP-only app (BT): 32 MiB..16 GiB.
std::vector<std::uint64_t> paper_budgets_openmp();

struct Fig4Cell {
  std::string strategy;
  std::uint64_t budget_bytes = 0;  ///< per rank
  double fom = 0;
  std::uint64_t hwm_bytes = 0;     ///< fast-tier HWM per rank (middle column)
  double dfom_per_mb = 0;          ///< right column
  bool any_overflow = false;       ///< advisor-selected object did not fit
};

struct BaselineResult {
  std::string condition;
  double fom = 0;
  std::uint64_t fast_hwm_bytes = 0;
  double dfom_per_mb = 0;
};

struct Fig4Row {
  std::string app;
  std::string fom_unit;
  /// Machine preset the row ran on and its fastest tier's name — the
  /// budget sweep targets that tier ("MCDRAM" on the paper's KNL).
  std::string machine = "knl7250";
  std::string fast_tier_name = "MCDRAM";
  BaselineResult ddr;
  BaselineResult numactl;
  BaselineResult autohbw;
  BaselineResult cache;
  std::vector<Fig4Cell> cells;  ///< strategy-major, budget-minor

  const Fig4Cell& cell(const std::string& strategy,
                       std::uint64_t budget) const;
};

class Fig4Runner {
 public:
  Fig4Runner(apps::AppSpec app, PipelineOptions base_options);

  /// Profiles once, then evaluates every baseline and framework cell.
  Fig4Row run(const std::vector<std::uint64_t>& budgets,
              const std::vector<StrategyConfig>& strategies);

 private:
  apps::AppSpec app_;
  PipelineOptions base_;
};

/// dFOM/MByte with the paper's conventions; mem_bytes is per process.
double dfom_per_mb(double fom, double ddr_fom, std::uint64_t mem_bytes);

/// Renders a Figure 4 row as three aligned text tables (FOM / HWM /
/// dFOM-per-MByte), the format the bench binaries print.
std::string format_fig4_row(const Fig4Row& row,
                            const std::vector<std::uint64_t>& budgets,
                            const std::vector<StrategyConfig>& strategies);

/// CSV export (one line per cell + baselines) for plotting.
std::string fig4_row_to_csv(const Fig4Row& row);

}  // namespace hmem::engine
