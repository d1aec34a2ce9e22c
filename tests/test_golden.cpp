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

#include "advisor/phase_advisor.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "apps/workloads.hpp"
#include "engine/execution.hpp"
#include "engine/pipeline.hpp"
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

/// Records `app_name` at 8 ranks on knl (binary shards kept in memory),
/// merges them through the hmem_advise salvage front and renders the
/// aggregate plus the 96M per-phase schedule.
std::string merged_advise(const std::string& app_name) {
  constexpr int kRanks = 8;
  apps::AppSpec app = apps::app_by_name(app_name);
  app.ranks = kRanks;
  std::string error;
  const memsim::MachineConfig node =
      memsim::load_machine_config("knl", &error).value();

  // Shards in memory, in rank order, labelled as hmem_profile names them.
  std::vector<std::unique_ptr<std::istream>> shards;
  std::vector<std::string> labels;
  for (int r = 0; r < kRanks; ++r) {
    callstack::SiteDb sites;
    std::ostringstream out;
    const auto writer =
        trace::make_trace_writer(out, sites, trace::TraceFormat::kBinary);
    engine::RunOptions opts;
    opts.profile = true;
    opts.node = node;
    opts.seed = 42 + static_cast<std::uint64_t>(r) * engine::kRankSeedStride;
    opts.sites = &sites;
    opts.trace_sink = writer.get();
    engine::run_app(app, opts);
    writer->finish();
    shards.push_back(
        std::make_unique<std::istringstream>(std::move(out).str()));
    labels.push_back(app_name + ".trace.rank" + std::to_string(r));
  }

  // hmem_advise's default front: salvage on.
  trace::ReplayReaderOptions options;
  options.salvage = true;
  trace::ReplayReader recording(std::move(shards), labels, options);
  analysis::AggregateVisitor aggregate(recording.sites());
  const std::size_t events = trace::pump(recording.reader(), aggregate);
  const analysis::AggregateResult result = aggregate.finish();
  EXPECT_TRUE(recording.salvage_report().clean())
      << recording.salvage_report().summary();

  std::string out = "# " + app_name + ", " + std::to_string(kRanks) +
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
      engine::machine_memory_spec(node, 96ULL << 20, /*ranks=*/1);
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

}  // namespace
