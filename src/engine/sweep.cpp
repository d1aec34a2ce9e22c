#include "engine/sweep.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/arena.hpp"
#include "common/assert.hpp"
#include "common/parallel.hpp"

namespace hmem::engine {

const char* cell_kind_name(CellKind kind) {
  switch (kind) {
    case CellKind::kBaseline:
      return "baseline";
    case CellKind::kFramework:
      return "framework";
    case CellKind::kDynamic:
      return "dynamic";
  }
  return "?";
}

std::vector<std::uint64_t> default_budgets(const apps::AppSpec& app) {
  return app.ranks == 1 ? paper_budgets_openmp() : paper_budgets_mpi();
}

namespace {

std::vector<std::uint64_t> budgets_of(const SweepSpec& spec,
                                      const apps::AppSpec& app) {
  return spec.budgets_for ? spec.budgets_for(app) : default_budgets(app);
}

/// FNV-1a digest of a placement/schedule report. Two cells whose reports
/// print identically share compiled programs; the length rider makes an
/// accidental collision need both a hash and a size match.
std::string report_digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx-%zu",
                static_cast<unsigned long long>(h), text.size());
  return buf;
}

/// Program-cache key prefix of one execution. Everything the compiled
/// stream can depend on is named: the grid point (app, machine), the
/// condition, the seed (allocation and generator state), and the digest of
/// the placement/schedule text when one drives the run. run_app appends
/// the per-phase epoch suffix.
std::string cache_prefix(std::size_t app, std::size_t machine,
                         const char* what, std::uint64_t seed,
                         const std::string& report_text) {
  std::string prefix = "a";
  prefix += std::to_string(app);
  prefix += "|m";
  prefix += std::to_string(machine);
  prefix += '|';
  prefix += what;
  prefix += "|s";
  prefix += std::to_string(seed);
  if (!report_text.empty()) {
    prefix += "|d";
    prefix += report_digest(report_text);
  }
  return prefix;
}

}  // namespace

struct SweepEngine::ProfileEntry {
  std::once_flag once;
  analysis::AggregateResult report;
};

SweepEngine::SweepEngine(SweepSpec spec) : spec_(std::move(spec)) {
  HMEM_ASSERT_MSG(!spec_.apps.empty(), "sweep needs at least one app");
  HMEM_ASSERT_MSG(!spec_.machines.empty(),
                  "sweep needs at least one machine");
  HMEM_ASSERT_MSG(spec_.shard_count >= 1 && spec_.shard_index >= 0 &&
                      spec_.shard_index < spec_.shard_count,
                  "shard index out of range");
  HMEM_ASSERT_MSG(spec_.base.profile_ranks <= 1,
                  "sweep profiles are shared per cell, not rank-sharded");
  for (const Condition condition : spec_.baselines) {
    HMEM_ASSERT_MSG(condition != Condition::kFramework &&
                        condition != Condition::kDynamic,
                    "advisor-driven conditions are cells, not baselines");
  }

  // Deterministic enumeration: app-major, machine, then baselines in
  // listed order, framework cells strategy-major budget-minor, and the
  // dynamic cells last. Everything downstream (shard partition, store
  // keys, the merge) leans on this order.
  std::size_t index = 0;
  for (std::size_t a = 0; a < spec_.apps.size(); ++a) {
    const std::vector<std::uint64_t> budgets =
        budgets_of(spec_, spec_.apps[a]);
    for (std::size_t m = 0; m < spec_.machines.size(); ++m) {
      for (const Condition condition : spec_.baselines) {
        SweepCell cell;
        cell.index = index++;
        cell.app = a;
        cell.machine = m;
        cell.kind = CellKind::kBaseline;
        cell.baseline = condition;
        cells_.push_back(cell);
      }
      for (std::size_t s = 0; s < spec_.strategies.size(); ++s) {
        for (const std::uint64_t budget : budgets) {
          SweepCell cell;
          cell.index = index++;
          cell.app = a;
          cell.machine = m;
          cell.kind = CellKind::kFramework;
          cell.strategy = s;
          cell.budget_bytes = budget;
          cells_.push_back(cell);
        }
      }
      if (spec_.dynamic_cells) {
        for (const std::uint64_t budget : budgets) {
          SweepCell cell;
          cell.index = index++;
          cell.app = a;
          cell.machine = m;
          cell.kind = CellKind::kDynamic;
          cell.budget_bytes = budget;
          cells_.push_back(cell);
        }
      }
    }
  }

  profiles_.resize(spec_.apps.size() * spec_.machines.size());
  for (auto& entry : profiles_) entry = std::make_unique<ProfileEntry>();
}

SweepEngine::~SweepEngine() = default;

const analysis::AggregateResult& SweepEngine::profile_for(std::size_t app,
                                                          std::size_t machine) {
  ProfileEntry& entry = *profiles_[app * spec_.machines.size() + machine];
  bool computed_here = false;
  std::call_once(entry.once, [&] {
    // Stages 1 + 2 of run_pipeline. The profile deliberately runs on the
    // default memory resource — its artefacts (trace, sites, report)
    // outlive the cell that happened to compute it, so they must not live
    // in a worker's reset-between-cells arena.
    RunOptions po = profile_run_options(spec_.base, spec_.machines[machine]);
    po.program_cache = &programs_;
    po.program_cache_prefix =
        cache_prefix(app, machine, "profile", po.seed, "");
    const RunResult profile = run_app(spec_.apps[app], po);
    HMEM_ASSERT(profile.trace != nullptr);
    entry.report = analysis::aggregate_trace(*profile.trace, *profile.sites);
    computed_here = true;
  });
  // Waiters blocked on the call_once count as hits too: they reused a
  // profile another cell was computing.
  (computed_here ? profile_misses_ : profile_hits_)
      .fetch_add(1, std::memory_order_relaxed);
  return entry.report;
}

SweepCellResult SweepEngine::run_cell(const SweepCell& cell, Arena* arena) {
  const apps::AppSpec& app = spec_.apps[cell.app];
  const memsim::MachineConfig& node = spec_.machines[cell.machine];
  // Every run of a cell draws its scratch from the worker's arena and its
  // programs from the shared cache, keyed by the condition and the text of
  // the advice that drives it.
  const auto run = [&](Condition condition, const std::string& report_text,
                       const advisor::Placement* placement,
                       const advisor::PlacementSchedule* schedule) {
    RunOptions opts = production_run_options(spec_.base, condition, node);
    opts.placement = placement;
    opts.schedule = schedule;
    opts.scratch = arena;
    opts.program_cache = &programs_;
    opts.program_cache_prefix =
        cache_prefix(cell.app, cell.machine, condition_name(condition),
                     opts.seed, report_text);
    return run_app(app, opts);
  };
  SweepCellResult result;
  if (cell.kind == CellKind::kBaseline) {
    const RunResult r = run(cell.baseline, "", nullptr, nullptr);
    result.fom = r.fom;
    result.fast_hwm_bytes = r.fast_hwm_bytes;
    return result;
  }

  // Framework and dynamic cells advise on the shared profile; a dynamic
  // cell is a framework cell with the base advisor plus the phase-aware
  // stages, as in run_pipeline(per_phase = true).
  const analysis::AggregateResult& report = profile_for(cell.app, cell.machine);
  advisor::Options adv_options = spec_.base.advisor;
  if (cell.kind == CellKind::kFramework) {
    adv_options = spec_.strategies[cell.strategy].options;
    if (spec_.base.advisor.virtual_budget_bytes > 0) {
      adv_options.virtual_budget_bytes =
          spec_.base.advisor.virtual_budget_bytes;
    }
  }
  const PlacementAdvice advice = advise_placement(
      report, node, cell.budget_bytes, app.ranks, adv_options);
  const RunResult static_run =
      run(Condition::kFramework, advice.report_text, &advice.placement,
          nullptr);
  result.fom = static_run.fom;
  result.fast_hwm_bytes = static_run.fast_hwm_bytes;
  if (cell.kind == CellKind::kFramework) {
    result.any_overflow =
        static_run.autohbw.has_value() && static_run.autohbw->any_overflow;
    return result;
  }

  const ScheduleAdvice schedule = advise_schedule(
      report, node, cell.budget_bytes, app.ranks, spec_.base.advisor);
  const RunResult dynamic_run = run(Condition::kDynamic, schedule.report_text,
                                    nullptr, &schedule.schedule);
  result.fom = dynamic_run.fom;
  result.fast_hwm_bytes = dynamic_run.fast_hwm_bytes;
  result.static_fom = static_run.fom;
  result.phases = schedule.schedule.phases.size();
  result.migration_bytes = dynamic_run.migration_bytes;
  result.migration_cost_s = dynamic_run.migration_cost_s;
  return result;
}

std::vector<SweepOutcome> SweepEngine::run(SweepStore* store, bool resume) {
  const auto t0 = std::chrono::steady_clock::now();
  HMEM_ASSERT_MSG(!resume || store != nullptr, "resume requires a store");

  std::vector<SweepOutcome> outcomes(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) outcomes[i].cell = cells_[i];

  // This shard's slice, in enumeration order.
  std::vector<std::size_t> shard_cells;
  for (const SweepCell& cell : cells_) {
    if (cell.index % static_cast<std::size_t>(spec_.shard_count) ==
        static_cast<std::size_t>(spec_.shard_index)) {
      shard_cells.push_back(cell.index);
    }
  }

  std::size_t resumed = 0;
  if (store != nullptr && resume) {
    for (const std::size_t idx : shard_cells) {
      const auto value = store->find(sweep_cell_key(spec_, cells_[idx]));
      if (!value.has_value()) continue;
      SweepCellResult r;
      if (!parse_sweep_result(*value, r)) continue;  // damaged: recompute
      outcomes[idx].result = r;
      outcomes[idx].resumed = true;
      ++resumed;
    }
  }

  std::vector<std::size_t> work;
  work.reserve(shard_cells.size());
  for (const std::size_t idx : shard_cells) {
    if (!outcomes[idx].resumed) work.push_back(idx);
  }

  // Ordered commit: a finished cell's record is appended only once every
  // earlier shard cell has finished (resumed cells count as flushed).
  // Store order is therefore pure enumeration order regardless of --jobs,
  // at the cost of buffering at most the in-flight window of values. The
  // first failed put ends the run: no task starts or commits after it, so
  // the stored prefix does not depend on --jobs either.
  std::mutex commit_mutex;
  std::size_t commit_pos = 0;
  bool commit_failed = false;
  std::vector<std::string> values(cells_.size());
  std::vector<char> finished(cells_.size(), 0);
  for (const std::size_t idx : shard_cells) {
    if (outcomes[idx].resumed) finished[idx] = 1;
  }
  std::size_t arena_peak_cell = 0;
  std::size_t arena_reserved = 0;

  parallel_for(spec_.jobs, work.size(), [&](std::size_t w) {
    {
      std::lock_guard<std::mutex> lock(commit_mutex);
      if (commit_failed) return;
    }
    const std::size_t idx = work[w];
    // One arena per worker thread, reset between cells: every chunk the
    // biggest cell so far forced is reused by all later cells.
    thread_local Arena arena;
    arena.reset();
    outcomes[idx].result = run_cell(cells_[idx], &arena);
    outcomes[idx].computed = true;
    std::string value = serialize_sweep_result(outcomes[idx].result);

    std::lock_guard<std::mutex> lock(commit_mutex);
    arena_peak_cell = std::max(arena_peak_cell, arena.peak_since_reset());
    arena_reserved = std::max(arena_reserved, arena.reserved_bytes());
    values[idx] = std::move(value);
    finished[idx] = 1;
    if (store != nullptr && !commit_failed) {
      while (commit_pos < shard_cells.size() &&
             finished[shard_cells[commit_pos]] != 0) {
        const std::size_t c = shard_cells[commit_pos];
        if (!outcomes[c].resumed) {
          try {
            store->put(sweep_cell_key(spec_, cells_[c]), values[c]);
          } catch (...) {
            commit_failed = true;
            throw;
          }
        }
        ++commit_pos;
      }
    }
  });

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats_.cells_total = cells_.size();
  stats_.cells_in_shard = shard_cells.size();
  stats_.cells_computed = work.size();
  stats_.cells_resumed = resumed;
  stats_.profile_hits = profile_hits_.load(std::memory_order_relaxed);
  stats_.profile_misses = profile_misses_.load(std::memory_order_relaxed);
  stats_.program_hits = programs_.hits();
  stats_.program_misses = programs_.misses();
  stats_.program_cache_entries = programs_.size();
  stats_.arena_peak_cell_bytes =
      std::max(stats_.arena_peak_cell_bytes, arena_peak_cell);
  stats_.arena_reserved_bytes =
      std::max(stats_.arena_reserved_bytes, arena_reserved);
  stats_.wall_seconds = wall;
  stats_.cells_per_second =
      wall > 0 ? static_cast<double>(work.size()) / wall : 0.0;
  return outcomes;
}

std::string sweep_cell_key(const SweepSpec& spec, const SweepCell& cell) {
  char head[16];
  std::snprintf(head, sizeof(head), "%06zu", cell.index);
  std::string key = head;
  key += '|';
  key += spec.apps[cell.app].name;
  key += '|';
  key += spec.machines[cell.machine].name;
  key += '|';
  key += cell_kind_name(cell.kind);
  switch (cell.kind) {
    case CellKind::kBaseline:
      key += '|';
      key += condition_name(cell.baseline);
      break;
    case CellKind::kFramework:
      key += '|';
      key += spec.strategies[cell.strategy].label;
      key += '|';
      key += std::to_string(cell.budget_bytes);
      break;
    case CellKind::kDynamic:
      key += '|';
      key += std::to_string(cell.budget_bytes);
      break;
  }
  return key;
}

std::string serialize_sweep_result(const SweepCellResult& result) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.17g|%llu|%d|%.17g|%zu|%llu|%.17g",
                result.fom,
                static_cast<unsigned long long>(result.fast_hwm_bytes),
                result.any_overflow ? 1 : 0, result.static_fom, result.phases,
                static_cast<unsigned long long>(result.migration_bytes),
                result.migration_cost_s);
  return buf;
}

bool parse_sweep_result(const std::string& value, SweepCellResult& result) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= value.size(); ++i) {
    if (i == value.size() || value[i] == '|') {
      parts.push_back(value.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() != 7) return false;
  char* end = nullptr;
  result.fom = std::strtod(parts[0].c_str(), &end);
  result.fast_hwm_bytes = std::strtoull(parts[1].c_str(), &end, 10);
  result.any_overflow = parts[2] == "1";
  result.static_fom = std::strtod(parts[3].c_str(), &end);
  result.phases = std::strtoull(parts[4].c_str(), &end, 10);
  result.migration_bytes = std::strtoull(parts[5].c_str(), &end, 10);
  result.migration_cost_s = std::strtod(parts[6].c_str(), &end);
  return true;
}

void merge_sweep_stores(const std::vector<std::string>& inputs,
                        const std::string& out_path) {
  std::map<std::string, std::string> merged;
  for (const std::string& path : inputs) {
    const SweepStore in(path);
    for (auto& [key, value] : in.snapshot()) {
      merged[key] = value;  // later inputs win
    }
  }
  std::remove(out_path.c_str());
  SweepStore out(out_path);
  for (const auto& [key, value] : merged) out.put(key, value);
}

}  // namespace hmem::engine
