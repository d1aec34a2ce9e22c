// The benchmark's three op generators. Every op calls the library's public
// functions in the order the hmem_* CLIs call them, then checks its own
// outputs; a failed check marks the op failed and never aborts the run.
//
//  * pipeline     — one (app, machine) pair through profile -> aggregate ->
//                   advise -> report round trip -> DDR/framework/dynamic
//                   runs: what a user trying the framework on one app waits
//                   for. Dominated by engine + memsim + profiler time.
//  * sweep_rows   — one fresh SweepEngine::run over a smoke-scale Fig. 4
//                   row: per-cell fixed costs (compile, ProgramCache,
//                   arenas, thread pool, shared-profile waits) dominate.
//  * trace_advise — one recorded multi-rank job advised from its in-memory
//                   shards, batch and streamed: trace decode/merge,
//                   analysis and advisor work with no engine at all.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "advisor/advisor.hpp"
#include "advisor/incremental_advisor.hpp"
#include "advisor/phase_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "analysis/incremental.hpp"
#include "apps/app_config.hpp"
#include "bench.hpp"
#include "engine/execution.hpp"
#include "engine/experiment.hpp"
#include "engine/pipeline.hpp"
#include "engine/sweep.hpp"
#include "memsim/machine.hpp"
#include "trace/format.hpp"
#include "trace/merge.hpp"
#include "trace/salvage.hpp"

namespace hmem::perfbench {

double Workload::fom_gain(const std::vector<OpResult>& first_cycle) {
  double log_sum = 0;
  std::size_t n = 0;
  for (const OpResult& r : first_cycle) {
    if (r.fom_ratio > 0) {
      log_sum += std::log(r.fom_ratio);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

namespace {

/// The ten bundled apps, in the paper's order plus the two phase-shift apps.
const std::vector<std::string>& bundled_apps() {
  static const std::vector<std::string> names = {
      "hpcg", "lulesh",    "bt",    "minife", "cgpop",
      "snap", "maxw-dgtd", "gtc-p", "churn",  "transient"};
  return names;
}

/// Per-rank fast-tier budget of the pipeline ops (hmem_advise's usual
/// 256M), clamped to what the machine provides.
constexpr std::uint64_t kPipelineBudget = 256ULL << 20;
/// hmem_advise --stream's default refresh cadence.
constexpr std::uint64_t kRefreshEvery = 8192;
/// Rank cap of the recorded trace_advise jobs.
constexpr int kMaxRecordedRanks = 8;

/// FNV-1a over the bytes of everything an op computed.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  void add(const engine::RunResult& run) {
    add(run.fom);
    add(run.time_s);
    add(run.fast_hwm_bytes);
    add(run.total_hwm_bytes);
    for (const engine::TierTraffic& t : run.tier_traffic) {
      add(t.bytes);
      add(t.migration_bytes);
    }
    add(run.migration_bytes);
    add(run.migration_count);
    add(run.migration_cost_s);
    add(run.llc_misses);
    add(run.samples);
    add(run.alloc_calls);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

bool positive_finite(double v) { return std::isfinite(v) && v > 0; }

apps::AppSpec load_app(const BenchOptions& options, const std::string& name) {
  std::string error;
  auto app =
      apps::load_app_file(options.configs_dir + "/" + name + ".ini", &error);
  if (!app) throw std::runtime_error(error);
  if (options.tiny) {
    app->iterations = std::min<std::uint64_t>(app->iterations, 2);
    app->accesses_per_iteration =
        std::min<std::uint64_t>(app->accesses_per_iteration, 1500);
  }
  return *app;
}

std::vector<apps::AppSpec> load_apps(const BenchOptions& options,
                                     const std::vector<std::string>& names) {
  std::vector<apps::AppSpec> result;
  for (const std::string& name : names.empty() ? bundled_apps() : names) {
    result.push_back(load_app(options, name));
  }
  return result;
}

memsim::MachineConfig load_machine(const std::string& name) {
  std::string error;
  auto machine = memsim::load_machine_config(name, &error);
  if (!machine) throw std::runtime_error(error);
  return *machine;
}

/// Simulated accesses one run executes (the engine rounds each phase's
/// share of the per-iteration accesses).
std::uint64_t accesses_per_run(const apps::AppSpec& app) {
  std::uint64_t per_iteration = 0;
  for (const apps::PhaseSpec& phase : app.phases) {
    per_iteration += static_cast<std::uint64_t>(std::llround(
        static_cast<double>(app.accesses_per_iteration) *
        phase.access_share));
  }
  return per_iteration * app.iterations;
}

/// A (app, machine) grid, op i = app i / machines, machine i % machines.
class GridWorkload : public Workload {
 public:
  GridWorkload(std::vector<apps::AppSpec> apps,
               std::vector<std::string> machine_names, std::uint64_t seed)
      : apps_(std::move(apps)),
        machine_names_(std::move(machine_names)),
        profile_seed_(42 + seed),
        production_seed_(1042 + seed) {
    for (const std::string& name : machine_names_) {
      machines_.push_back(load_machine(name));
    }
  }
  std::size_t op_count() const override {
    return apps_.size() * machines_.size();
  }
  std::string op_label(std::size_t op) const override {
    return app_of(op).name + "/" + machine_names_[op % machines_.size()];
  }

 protected:
  const apps::AppSpec& app_of(std::size_t op) const {
    return apps_[op / machines_.size()];
  }
  const memsim::MachineConfig& machine_of(std::size_t op) const {
    return machines_[op % machines_.size()];
  }

  std::vector<apps::AppSpec> apps_;
  std::vector<std::string> machine_names_;
  std::vector<memsim::MachineConfig> machines_;
  std::uint64_t profile_seed_;
  std::uint64_t production_seed_;
};

/// One recording's shards, read the way hmem_advise reads them by default
/// (trace::ReplayReader with salvage on): each shard a RecoveringTraceReader
/// over its own stream, rebased into its own address slice, every shard
/// decoded into one shared SiteDb, and the k-way merge dropping (and
/// reporting) a failed input instead of throwing.
class MergedShards {
 public:
  MergedShards(const std::vector<std::string>& shards,
               callstack::SiteDb& sites) {
    std::vector<std::unique_ptr<trace::TraceReader>> readers;
    trace::MergeOptions merge;
    merge.drop_failed_inputs = true;
    merge.report = &report_;
    for (std::size_t r = 0; r < shards.size(); ++r) {
      streams_.push_back(std::make_unique<std::istringstream>(shards[r]));
      trace::ReaderOptions options;
      options.salvage = true;
      options.report = &report_;
      options.source = "shard ";
      options.source += std::to_string(r);
      options.shard = r;
      merge.labels.push_back(options.source);
      readers.push_back(std::make_unique<trace::OffsetTraceReader>(
          std::make_unique<trace::RecoveringTraceReader>(*streams_.back(),
                                                         sites, options),
          static_cast<trace::Address>(r) * trace::kRankAddressStride));
    }
    merged_ = std::make_unique<trace::MergeTraceReader>(std::move(readers),
                                                        std::move(merge));
  }
  MergedShards(const MergedShards&) = delete;
  MergedShards& operator=(const MergedShards&) = delete;

  trace::TraceReader& reader() { return *merged_; }
  /// What salvage dropped; a shard the benchmark wrote itself must read
  /// back clean.
  const trace::SalvageReport& salvage_report() const { return report_; }

 private:
  trace::SalvageReport report_;
  std::vector<std::unique_ptr<std::istringstream>> streams_;
  std::unique_ptr<trace::MergeTraceReader> merged_;
};

void check_clean(OpResult& result, const MergedShards& input) {
  result.check(input.salvage_report().clean(),
               "reading the recorded trace needed salvage: " +
                   input.salvage_report().summary());
}

// ---------------------------------------------------------------------------
// pipeline

class PipelineWorkload final : public GridWorkload {
 public:
  PipelineWorkload(const BenchOptions& options,
                   const std::vector<std::string>& apps)
      : GridWorkload(load_apps(options, apps), {"knl", "hbm-ddr-pmem"},
                     options.seed) {}

  OpResult run_op(std::size_t op, Tracer& tracer) override {
    const apps::AppSpec& app = app_of(op);
    const memsim::MachineConfig& node = machine_of(op);
    OpResult result;
    Digest digest;

    // Stage 1: the profiled run streams into a binary trace writer
    // (hmem_profile --format binary).
    callstack::SiteDb sites;
    std::ostringstream shard_out;
    engine::RunResult profile;
    std::size_t events_written = 0;
    {
      auto span = tracer.span("engine.profile_run");
      const auto writer = trace::make_trace_writer(
          shard_out, sites, trace::TraceFormat::kBinary);
      engine::RunOptions opts;
      opts.profile = true;
      opts.node = node;
      opts.seed = profile_seed_;
      opts.sites = &sites;
      opts.trace_sink = writer.get();
      profile = engine::run_app(app, opts);
      writer->finish();
      events_written = writer->events_written();
    }
    const std::string shard = std::move(shard_out).str();
    tracer.count("profiler.samples", static_cast<double>(profile.samples));
    tracer.count("trace.events_written", static_cast<double>(events_written));
    tracer.count("trace.bytes_written", static_cast<double>(shard.size()));

    // Stage 2: read the trace back and aggregate it (hmem_advise; the
    // visitor, pump and finish are analysis::aggregate_stream's body, kept
    // open for the event count).
    analysis::AggregateResult report;
    std::size_t events_read = 0;
    {
      auto span = tracer.span("analysis.batch");
      callstack::SiteDb read_sites;
      MergedShards input({shard}, read_sites);
      analysis::AggregateVisitor aggregate(read_sites);
      events_read = trace::pump(input.reader(), aggregate);
      report = aggregate.finish();
      check_clean(result, input);
    }
    tracer.count("analysis.events", static_cast<double>(events_read));
    result.check(events_read == events_written,
                 "aggregated event count differs from the events written");

    // Stage 3: static and per-phase advice, then the report round trip
    // hmem_run consumes. hmem_advise --machine sizes the spec for one rank.
    const advisor::MemorySpec spec = engine::machine_memory_spec(
        node, engine::clamp_fast_budget(node, kPipelineBudget), /*ranks=*/1);
    const advisor::Options options;
    advisor::Placement placement;
    advisor::PlacementSchedule schedule;
    {
      auto span = tracer.span("advisor.advise");
      placement = advisor::HmemAdvisor(spec, options).advise(report.objects);
      schedule = advisor::PhaseAdvisor(spec, options).advise(report.phases);
    }
    std::string placement_text;
    std::string schedule_text;
    advisor::Placement parsed;
    advisor::PlacementSchedule parsed_schedule;
    {
      auto span = tracer.span("advisor.report_roundtrip");
      placement_text = advisor::write_placement_report(placement);
      parsed = advisor::read_placement_report(placement_text);
      schedule_text = advisor::write_schedule_report(schedule);
      parsed_schedule = advisor::read_schedule_report(schedule_text);
    }
    result.check(advisor::write_placement_report(parsed) == placement_text,
                 "parsed placement report does not re-serialize identically");
    result.check(advisor::write_schedule_report(parsed_schedule) ==
                     schedule_text,
                 "parsed schedule report does not re-serialize identically");
    result.check(!parsed_schedule.phases.empty(),
                 "the trace produced an empty schedule");

    // Stage 4: DDR baseline, framework and dynamic runs under a fresh
    // ASLR image (hmem_run).
    engine::RunOptions base;
    base.node = node;
    base.seed = production_seed_;
    engine::RunResult ddr;
    engine::RunResult framework;
    engine::RunResult dynamic;
    {
      auto span = tracer.span("engine.ddr_run");
      ddr = engine::run_app(app, base);
    }
    {
      auto span = tracer.span("engine.framework_run");
      engine::RunOptions opts = base;
      opts.condition = engine::Condition::kFramework;
      opts.placement = &parsed;
      framework = engine::run_app(app, opts);
    }
    if (!parsed_schedule.phases.empty()) {
      auto span = tracer.span("engine.dynamic_run");
      engine::RunOptions opts = base;
      opts.condition = engine::Condition::kDynamic;
      opts.schedule = &parsed_schedule;
      dynamic = engine::run_app(app, opts);
    }
    tracer.count("engine.sim_accesses",
                 3.0 * static_cast<double>(accesses_per_run(app)));
    tracer.count("runtime.migrations",
                 static_cast<double>(dynamic.migration_count));

    for (const engine::RunResult* run :
         {&profile, &ddr, &framework, &dynamic}) {
      result.check(positive_finite(run->fom),
                   "non-positive or non-finite FOM in the " + run->condition +
                       " run");
      digest.add(*run);
    }
    digest.add(shard);
    digest.add(placement_text);
    digest.add(schedule_text);
    result.digest = digest.value();
    result.fom_ratio = framework.fom / ddr.fom;
    return result;
  }
};

// ---------------------------------------------------------------------------
// sweep_rows

std::vector<apps::AppSpec> smoke_apps(const BenchOptions& options,
                                      const std::vector<std::string>& names) {
  std::vector<apps::AppSpec> result = load_apps(options, names);
  // hmem_sweep --smoke: structure preserved, kernel work shrunk.
  for (apps::AppSpec& app : result) {
    app.iterations = std::min<std::uint64_t>(app.iterations, 4);
    app.accesses_per_iteration =
        std::min<std::uint64_t>(app.accesses_per_iteration, 6000);
  }
  return result;
}

class SweepRowsWorkload final : public GridWorkload {
 public:
  SweepRowsWorkload(const BenchOptions& options,
                    const std::vector<std::string>& apps)
      : GridWorkload(smoke_apps(options, apps),
                     {"knl", "spr-hbm", "ddr-cxl", "hbm-ddr-pmem"},
                     options.seed) {}

  std::size_t threads() const override { return 2; }

  OpResult run_op(std::size_t op, Tracer& tracer) override {
    engine::SweepSpec spec;
    spec.apps = {app_of(op)};
    spec.machines = {machine_of(op)};
    spec.baselines = {engine::Condition::kDdr, engine::Condition::kNumactl,
                      engine::Condition::kAutoHbw,
                      engine::Condition::kCacheMode};
    spec.strategies = engine::paper_strategies();
    spec.dynamic_cells = true;
    spec.base.profile_seed = profile_seed_;
    spec.base.production_seed = production_seed_;
    spec.jobs = static_cast<int>(threads());

    std::vector<engine::SweepOutcome> outcomes;
    engine::SweepStats stats;
    {
      auto span = tracer.span("engine.sweep.row");
      engine::SweepEngine sweep(std::move(spec));
      outcomes = sweep.run();
      stats = sweep.stats();
    }
    tracer.count("engine.sweep.cells",
                 static_cast<double>(stats.cells_computed));
    tracer.count("engine.sweep.profile_hits",
                 static_cast<double>(stats.profile_hits));
    tracer.count("engine.sweep.profile_lookups",
                 static_cast<double>(stats.profile_hits +
                                     stats.profile_misses));
    tracer.count("engine.kernel.program_hits",
                 static_cast<double>(stats.program_hits));
    tracer.count("engine.kernel.program_lookups",
                 static_cast<double>(stats.program_hits +
                                     stats.program_misses));
    tracer.count("engine.kernel.program_cache_entries",
                 static_cast<double>(stats.program_cache_entries));
    tracer.count("engine.sweep.arena_peak_cell_bytes",
                 static_cast<double>(stats.arena_peak_cell_bytes));
    tracer.count("engine.sweep.arena_reserved_bytes",
                 static_cast<double>(stats.arena_reserved_bytes));

    OpResult result;
    Digest digest;
    double ddr_fom = 0;
    double best_framework_fom = 0;
    result.check(!outcomes.empty(), "the row has no cells");
    for (const engine::SweepOutcome& outcome : outcomes) {
      const engine::SweepCell& cell = outcome.cell;
      const engine::SweepCellResult& r = outcome.result;
      result.check(outcome.has_result(),
                   "cell " + std::to_string(cell.index) + " has no result");
      result.check(positive_finite(r.fom),
                   "cell " + std::to_string(cell.index) +
                       " has a non-positive or non-finite FOM");
      if (cell.kind == engine::CellKind::kDynamic) {
        result.check(positive_finite(r.static_fom),
                     "dynamic cell " + std::to_string(cell.index) +
                         " has no static FOM");
      }
      if (cell.kind == engine::CellKind::kBaseline &&
          cell.baseline == engine::Condition::kDdr) {
        ddr_fom = r.fom;
      }
      if (cell.kind == engine::CellKind::kFramework) {
        best_framework_fom = std::max(best_framework_fom, r.fom);
      }
      digest.add(static_cast<std::uint64_t>(cell.index));
      digest.add(engine::serialize_sweep_result(r));
    }
    result.digest = digest.value();
    result.fom_ratio = ddr_fom > 0 ? best_framework_fom / ddr_fom : 0.0;
    return result;
  }
};

// ---------------------------------------------------------------------------
// trace_advise

class TraceAdviseWorkload final : public Workload {
 public:
  TraceAdviseWorkload(const BenchOptions& options,
                      const std::vector<std::string>& names)
      : node_(load_machine("knl")),
        production_seed_(1042 + options.seed),
        flip_stream_report_(options.flip_stream_report) {
    const std::uint64_t profile_seed = 42 + options.seed;
    const int max_ranks = options.tiny ? 2 : kMaxRecordedRanks;
    // Recording is seconds of single-threaded engine work: each rank runs
    // pinned to the next CPU, like the measured ops, so setup_s samples
    // every CPU rather than the one the scheduler happened to pick.
    CpuRotation cpus;
    std::size_t recorded = 0;
    for (apps::AppSpec& app : load_apps(options, names)) {
      Job job;
      job.app = std::move(app);
      job.app.ranks = std::min(job.app.ranks, max_ranks);
      // Record each rank as hmem_profile --ranks N --format binary does,
      // one thread, shards kept in memory.
      for (int r = 0; r < job.app.ranks; ++r) {
        cpus.pin(recorded++);
        callstack::SiteDb sites;
        std::ostringstream out;
        const auto writer =
            trace::make_trace_writer(out, sites, trace::TraceFormat::kBinary);
        engine::RunOptions opts;
        opts.profile = true;
        opts.node = node_;
        opts.seed = profile_seed +
                    static_cast<std::uint64_t>(r) * engine::kRankSeedStride;
        opts.sites = &sites;
        opts.trace_sink = writer.get();
        engine::run_app(job.app, opts);
        writer->finish();
        job.events += writer->events_written();
        job.shards.push_back(std::move(out).str());
      }
      job.budgets = engine::default_budgets(job.app);
      // The streamed advisor answers for the largest ladder budget up to
      // hmem_advise's usual 256M.
      job.stream_budget = job.budgets.front();
      for (const std::uint64_t b : job.budgets) {
        if (b <= kPipelineBudget) {
          job.stream_budget = std::max(job.stream_budget, b);
        }
      }
      jobs_.push_back(std::move(job));
    }
    advised_.resize(jobs_.size());
  }

  std::size_t op_count() const override { return jobs_.size(); }
  std::string op_label(std::size_t op) const override {
    return jobs_[op].app.name + "/knl";
  }

  OpResult run_op(std::size_t op, Tracer& tracer) override {
    const Job& job = jobs_[op];
    OpResult result;
    Digest digest;

    // Batch: merge -> aggregate -> every strategy x budget, static and
    // per-phase, with the reports written.
    analysis::AggregateResult report;
    std::size_t merged_events = 0;
    {
      auto span = tracer.span("analysis.batch");
      callstack::SiteDb sites;
      MergedShards input(job.shards, sites);
      analysis::AggregateVisitor aggregate(sites);
      merged_events = trace::pump(input.reader(), aggregate);
      report = aggregate.finish();
      check_clean(result, input);
    }
    tracer.count("analysis.events", static_cast<double>(merged_events));
    result.check(merged_events == job.events,
                 "merged event count differs from the sum of the shards");

    const std::vector<engine::StrategyConfig> strategies =
        engine::paper_strategies();
    std::string batch_placement;
    std::string batch_schedule;
    std::uint64_t solves = 0;
    {
      auto span = tracer.span("advisor.ladder");
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        for (const std::uint64_t budget : job.budgets) {
          const advisor::MemorySpec spec =
              engine::machine_memory_spec(node_, budget, /*ranks=*/1);
          const advisor::Options& options = strategies[s].options;
          std::string placement = advisor::write_placement_report(
              advisor::HmemAdvisor(spec, options).advise(report.objects));
          const advisor::PlacementSchedule schedule =
              advisor::PhaseAdvisor(spec, options).advise(report.phases);
          std::string schedule_text = advisor::write_schedule_report(schedule);
          solves += 1 + schedule.phases.size();
          digest.add(placement);
          digest.add(schedule_text);
          if (s == kStreamStrategy && budget == job.stream_budget) {
            batch_placement = std::move(placement);
            batch_schedule = std::move(schedule_text);
          }
        }
      }
    }
    tracer.count("advisor.solves", static_cast<double>(solves));

    // Streamed: the same merged stream through the incremental aggregator,
    // refreshing the incremental advisor every kRefreshEvery events
    // (hmem_advise --stream --per-phase).
    std::string streamed_placement;
    std::string streamed_schedule;
    std::uint64_t seen = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t resolve_slots = 0;
    std::uint64_t resolves = 0;
    {
      auto span = tracer.span("analysis.stream");
      callstack::SiteDb sites;
      MergedShards input(job.shards, sites);
      analysis::IncrementalAggregator aggregate(sites);
      advisor::IncrementalAdvisor incremental(
          engine::machine_memory_spec(node_, job.stream_budget,
                                      /*ranks=*/1),
          strategies[kStreamStrategy].options);
      trace::Event event;
      while (input.reader().next(event)) {
        trace::dispatch_event(event, aggregate);
        if (++seen % kRefreshEvery == 0) {
          auto refresh = tracer.span("advisor.refresh");
          incremental.refresh(aggregate);
          ++refreshes;
          resolve_slots += aggregate.phase_count() + 1;
        }
      }
      {
        auto refresh = tracer.span("advisor.refresh");
        incremental.refresh(aggregate, /*finalize=*/true);
        ++refreshes;
        resolve_slots += aggregate.phase_count() + 1;
      }
      resolves = incremental.total_resolves();
      streamed_placement =
          advisor::write_placement_report(incremental.placement());
      streamed_schedule =
          advisor::write_schedule_report(incremental.schedule());
      check_clean(result, input);
    }
    tracer.count("advisor.refreshes", static_cast<double>(refreshes));
    tracer.count("advisor.resolves", static_cast<double>(resolves));
    tracer.count("advisor.resolve_slots", static_cast<double>(resolve_slots));

    if (flip_stream_report_ && !streamed_schedule.empty()) {
      streamed_schedule[streamed_schedule.size() / 2] ^= 0x01;
    }
    result.check(seen == job.events,
                 "streamed event count differs from the sum of the shards");
    result.check(streamed_placement == batch_placement,
                 "streamed placement report differs from the batch report");
    result.check(streamed_schedule == batch_schedule,
                 "streamed schedule report differs from the batch report");
    if (advised_[op].empty()) advised_[op] = batch_placement;
    result.digest = digest.value();
    return result;
  }

  void layer_passes(std::size_t op, Tracer& tracer) override {
    const Job& job = jobs_[op];
    trace::EventVisitor discard;
    {
      auto span = tracer.span("trace.decode");
      for (const std::string& shard : job.shards) {
        callstack::SiteDb sites;
        std::istringstream in(shard);
        trace::ReaderOptions options;
        options.salvage = true;
        trace::RecoveringTraceReader reader(in, sites, options);
        trace::pump(reader, discard);
      }
    }
    {
      auto span = tracer.span("trace.merge_decode");
      callstack::SiteDb sites;
      MergedShards input(job.shards, sites);
      trace::pump(input.reader(), discard);
    }
  }

  /// No op of this workload runs the engine, so the FOM gain of its advice
  /// is measured after the loop: each job's streamed-config placement
  /// against DDR, run at the recorded rank count (hmem_run --ranks N).
  double fom_gain(const std::vector<OpResult>& /*first_cycle*/) override {
    double log_sum = 0;
    std::size_t n = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (advised_[j].empty()) continue;
      const advisor::Placement placement =
          advisor::read_placement_report(advised_[j]);
      engine::RunOptions opts;
      opts.node = node_;
      opts.seed = production_seed_;
      const double ddr = engine::run_app(jobs_[j].app, opts).fom;
      opts.condition = engine::Condition::kFramework;
      opts.placement = &placement;
      const double framework = engine::run_app(jobs_[j].app, opts).fom;
      if (!positive_finite(ddr) || !positive_finite(framework)) return 0.0;
      log_sum += std::log(framework / ddr);
      ++n;
    }
    return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
  }

 private:
  /// The streamed advisor runs paper strategy Misses(0%), hmem_advise's
  /// default.
  static constexpr std::size_t kStreamStrategy = 1;

  struct Job {
    apps::AppSpec app;  ///< ranks = the recorded rank count
    std::vector<std::string> shards;
    std::size_t events = 0;  ///< sum of the shards' written events
    std::vector<std::uint64_t> budgets;
    std::uint64_t stream_budget = 0;
  };

  memsim::MachineConfig node_;
  std::uint64_t production_seed_;
  bool flip_stream_report_;
  std::vector<Job> jobs_;
  std::vector<std::string> advised_;  ///< batch placement text per job
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"pipeline", "sweep_rows", "trace_advise"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const BenchOptions& options,
                                        const std::vector<std::string>& apps) {
  if (name == "pipeline") {
    return std::make_unique<PipelineWorkload>(options, apps);
  }
  if (name == "sweep_rows") {
    return std::make_unique<SweepRowsWorkload>(options, apps);
  }
  if (name == "trace_advise") {
    return std::make_unique<TraceAdviseWorkload>(options, apps);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace hmem::perfbench
