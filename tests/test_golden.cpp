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
//
// On a mismatch the test writes what it computed next to the test binary
// and prints the command that would accept it. A golden only changes with a
// reason stated in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "engine/sweep.hpp"
#include "memsim/machine.hpp"

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

}  // namespace
