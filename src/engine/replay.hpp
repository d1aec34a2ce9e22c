// Replay-backed execution: drive a simulation from a recorded trace.
//
// Where run_app interprets a synthetic AppSpec, replay_run interprets a
// *recording* — the alloc/free/sample/phase/counter stream hmem_profile
// wrote — against a (possibly different) machine and placement condition.
// Each recorded allocation is re-routed through the chosen policy, and each
// PEBS sample charges its weight in cache lines to whichever tier now hosts
// the recorded address. Because a profiled run emits one sample of weight
// `access_scale` per simulated miss (sampling period 1), replaying a shard
// under the condition it was recorded in reproduces the source run's
// per-tier DRAM traffic and miss counts exactly; replaying under another
// condition answers "where would this recorded traffic have been served?".
//
// What a recording cannot carry over: the figure of merit (work per
// iteration is an AppSpec notion — fom stays 0), the latency roofline term
// (per-access latencies are not recorded), and the cache/dynamic conditions
// (the analytic cache model and phase-aware migration need the live object
// stream, not samples) — replay_run rejects those two with a clean throw.
// Compute time comes from the recorded "instructions" counter when present.
#pragma once

#include "callstack/sitedb.hpp"
#include "engine/execution.hpp"
#include "trace/format.hpp"

namespace hmem::engine {

struct ReplayOptions {
  /// kDdr, kNumactl, kAutoHbw or kFramework; the cache and dynamic
  /// conditions cannot be replayed (see above) and throw.
  Condition condition = Condition::kDdr;
  /// Required when condition == kFramework.
  const advisor::Placement* placement = nullptr;
  runtime::AutoHbwOptions runtime_options;

  /// Node-level machine; per-rank tier capacity and bandwidth shares come
  /// from the same rank view run_app uses, with the rank's full core share
  /// (cores / ranks, at least one) as its thread count.
  memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  /// Rank count of the *recorded job*: sizes the per-rank tier capacity
  /// and bandwidth shares exactly as run_app does (a 64-rank app profiled
  /// to one shard still ran against 1/64th of the machine).
  int ranks = 1;
  /// Number of rank shards merged into the event stream being replayed;
  /// per-rank results (traffic, misses, allocations) divide by this.
  int shards = 1;
};

/// Replays one recorded event stream (e.g. trace::ReplayReader::reader())
/// whose sites live in `sites`. Returns per-rank figures like run_app:
/// tier traffic, misses, HWMs and a modeled time; fom stays 0 (no work
/// model in a recording). Throws std::runtime_error on unsupported
/// conditions or when the recorded allocations exceed the simulated
/// machine's capacity.
RunResult replay_run(trace::TraceReader& events,
                     const callstack::SiteDb& sites,
                     const ReplayOptions& options);

}  // namespace hmem::engine
