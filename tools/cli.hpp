// Tiny argv helpers shared by the hmem_* tools so their flag handling
// cannot drift apart.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "engine/kernel/kernel.hpp"
#include "memsim/machine.hpp"

namespace hmem::tools {

/// Shared exit-code convention (common/error.hpp): 0 success, 2 usage or
/// configuration error, 3 data/IO error, 4 resource exhaustion.
using hmem::kExitData;
using hmem::kExitOk;
using hmem::kExitResource;
using hmem::kExitUsage;

/// Returns the value of the flag at argv[i], advancing i past it. Exits
/// with the usage status when the value is missing.
inline const char* cli_value(int argc, char** argv, int& i,
                             const char* flag) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", flag);
    std::exit(2);
  }
  return argv[++i];
}

/// Parses the --kernel value at argv[i], advancing i past it. Exits with
/// the usage status on an unknown kernel name.
inline engine::kernel::KernelKind cli_kernel(int argc, char** argv, int& i) {
  const char* value = cli_value(argc, argv, i, "--kernel");
  const auto kind = engine::kernel::parse_kernel(value);
  if (!kind) {
    std::fprintf(stderr, "--kernel: unknown kernel '%s' (one of %s)\n", value,
                 engine::kernel::kernel_list().c_str());
    std::exit(kExitUsage);
  }
  return *kind;
}

/// True for "--something" tokens: an unknown one is a user error, not a
/// positional argument.
inline bool cli_is_flag(const char* arg) {
  return std::strncmp(arg, "--", 2) == 0;
}

/// Comma-separated preset list for usage texts: "knl, spr-hbm, ...".
inline std::string machine_preset_list() {
  return memsim::machine_preset_list();
}

/// Resolves a --machine argument (preset name or machine config file);
/// prints the error and returns nullopt on failure.
inline std::optional<memsim::MachineConfig> load_machine(
    const std::string& arg) {
  std::string error;
  auto machine = memsim::load_machine_config(arg, &error);
  if (!machine) std::fprintf(stderr, "--machine: %s\n", error.c_str());
  return machine;
}

/// Validates the HMEM_FAULTS environment schedule at tool startup. A typo
/// disarms injection (library behavior) — but a tool should say so rather
/// than silently run fault-free.
inline void cli_init_faults() {
  const std::string err = fault::configure_from_env();
  if (!err.empty())
    std::fprintf(stderr, "warning: HMEM_FAULTS ignored: %s\n", err.c_str());
}

/// Installs a --faults schedule (overriding HMEM_FAULTS). Exits with the
/// usage status on a malformed spec.
inline void cli_configure_faults(const char* spec) {
  const std::string err = fault::configure(spec);
  if (!err.empty()) {
    std::fprintf(stderr, "--faults: %s\n", err.c_str());
    std::exit(kExitUsage);
  }
}

/// Standard tail of a tool's catch(const std::exception&) block: print the
/// error, return the taxonomy's exit code for it.
inline int cli_fail(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return exit_code_for(e);
}

}  // namespace hmem::tools
