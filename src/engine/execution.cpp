#include "engine/execution.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/generator.hpp"
#include "callstack/modulemap.hpp"
#include "callstack/unwind.hpp"
#include "common/alias.hpp"
#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/prng.hpp"
#include "engine/kernel/ir.hpp"
#include "engine/kernel/native.hpp"
#include "engine/run_core.hpp"
#include "profiler/profiler.hpp"

namespace hmem::engine {

namespace {

using apps::AppSpec;
using apps::ObjectSpec;
using memsim::Address;

/// Per-object live state during a run.
struct ObjectState {
  std::vector<Address> instances;  ///< live instance base addresses
  /// Policy tier currently hosting each instance (parallel to instances);
  /// only maintained — and only needed — under the dynamic condition.
  std::vector<std::size_t> tiers;
  std::unique_ptr<apps::AccessGenerator> generator;
};

// LLC-miss records share the kernel layer's type so a compiled-kernel burst
// can append to the same buffer the interpreter fills.
using MissRecord = kernel::MissRecord;

/// Compiled form of one phase plus the epochs it was compiled against. The
/// program bakes live-instance addresses, so it is stale the moment the
/// live set changes (live_epoch) OR a dynamic-schedule migration moves an
/// instance without any alloc/free (addr_epoch — the case live_epoch alone
/// cannot see).
struct PhaseKernel {
  kernel::Program program;
  kernel::NativeKernel native;
  bool use_native = false;
  std::uint64_t live_epoch = ~0ULL;
  std::uint64_t addr_epoch = ~0ULL;
};

// ---- Per-access randomness ------------------------------------------------
// Every access consumes exactly ONE 64-bit generator draw, split into three
// documented fields (the alias method leaves the high bits free; see
// common/alias.hpp):
//   bits [0,32)  target column   (multiply-shift over the phase's slots)
//   bits [32,53) alias coin      (21-bit fixed point vs the slot threshold)
//   bits [53,64) write/read coin (11-bit fixed point vs write_fraction)
// Address-level draws (instance pick, stack line) still draw separately when
// needed, and per-object offset generators keep their own streams. The
// quantization this packing introduces — 2^-21 on the target distribution,
// 2^-11 on the write fraction — is orders of magnitude below the sampling
// noise of the simulated stream, and the stream stays deterministic: the
// draw sequence is a pure function of the seed.
constexpr int kAliasCoinBits = 21;
constexpr int kWriteCoinBits = 11;
constexpr int kWriteCoinShift = 64 - kWriteCoinBits;

/// Access-target sampling table for one phase, cached across iterations.
/// Valid for a given live-set epoch: it only depends on which objects are
/// live (weights are static per phase), so it is rebuilt exactly when an
/// object transitions between live and dead — not once per iteration.
struct PhaseTable {
  std::vector<std::size_t> target;  ///< slot -> object index; SIZE_MAX = stack
  AliasTable alias;                 ///< O(1) sampler over the slots
  std::uint64_t write_threshold = 0;  ///< write_fraction in 2^11 units
  std::uint64_t epoch = ~0ULL;        ///< live-set epoch at build time
};

void rebuild_phase_table(PhaseTable& table, const apps::PhaseSpec& phase,
                         const std::vector<ObjectState>& state,
                         std::uint64_t live_epoch) {
  table.target.clear();
  std::vector<double> weights;
  for (std::size_t i = 0; i < phase.object_weights.size(); ++i) {
    const double w = phase.object_weights[i];
    if (w <= 0 || state[i].instances.empty()) continue;
    weights.push_back(w);
    table.target.push_back(i);
  }
  if (phase.stack_weight > 0) {
    weights.push_back(phase.stack_weight);
    table.target.push_back(SIZE_MAX);
  }
  HMEM_ASSERT_MSG(!weights.empty(), "phase with no live access targets");
  table.alias = AliasTable(weights, kAliasCoinBits);
  table.write_threshold = std::min<std::uint64_t>(
      1ULL << kWriteCoinBits,
      static_cast<std::uint64_t>(std::llround(
          phase.write_fraction * static_cast<double>(1ULL << kWriteCoinBits))));
  table.epoch = live_epoch;
}

/// Analytic MCDRAM-as-cache model. Residency is built up by miss traffic
/// (the steady state of an LRU-like replacement at memory-side granularity);
/// the hit probability of a target is its resident fraction, derated by a
/// direct-mapped conflict factor once demand exceeds capacity. Operating on
/// *real* footprints keeps the capacity behaviour faithful even though the
/// simulated stream is a scaled-down sample.
class CacheModeModel {
 public:
  CacheModeModel(double capacity_bytes, std::vector<double> footprints,
                 double chunk_bytes, double conflict_k)
      : capacity_(capacity_bytes),
        footprints_(std::move(footprints)),
        resident_(footprints_.size(), 0.0),
        chunk_(chunk_bytes) {
    double demand = 0;
    for (double f : footprints_) demand += f;
    const double pressure =
        std::max(0.0, demand / std::max(1.0, capacity_) - 1.0);
    conflict_factor_ = 1.0 / (1.0 + conflict_k * pressure);
  }

  double hit_probability(std::size_t target) const {
    const double f = footprints_[target];
    if (f <= 0) return 0;
    double p = std::min(1.0, resident_[target] / f);
    if (total_ >= capacity_ * 0.999) p *= conflict_factor_;
    return p;
  }

  void on_miss(std::size_t target) {
    const double gain =
        std::min(chunk_, footprints_[target] - resident_[target]);
    if (gain <= 0) return;
    resident_[target] += gain;
    total_ += gain;
    if (total_ > capacity_) {
      const double shrink = capacity_ / total_;
      for (double& r : resident_) r *= shrink;
      total_ = capacity_;
    }
  }

  double resident_bytes(std::size_t target) const {
    return resident_[target];
  }

 private:
  double capacity_;
  std::vector<double> footprints_;
  std::vector<double> resident_;
  double total_ = 0;
  double chunk_;
  double conflict_factor_;
};

/// The dynamic condition's phase-aware schedule, resolved against the app:
/// the schedule phase of every app phase and, per schedule phase, the policy
/// tier every object belongs in. Empty unless the schedule has more than
/// one phase (a single-phase schedule never transitions, making the run
/// bit-identical to kFramework on the same placement).
struct ResolvedSchedule {
  std::vector<std::size_t> sched_of_phase;             ///< app -> schedule
  std::vector<std::vector<std::size_t>> desired_tier;  ///< [sched][object]

  bool active() const { return !sched_of_phase.empty(); }
};

ResolvedSchedule resolve_schedule(
    const AppSpec& app, const advisor::PlacementSchedule& schedule,
    const std::vector<callstack::SymbolicCallStack>& stacks,
    std::size_t slow_policy_tier) {
  ResolvedSchedule resolved;
  if (schedule.phases.size() <= 1) return resolved;
  // Resolve every app phase upfront and insist on full coverage.
  resolved.sched_of_phase.resize(app.phases.size());
  for (std::size_t p = 0; p < app.phases.size(); ++p) {
    std::size_t found = schedule.phases.size();
    for (std::size_t sp = 0; sp < schedule.phases.size(); ++sp) {
      if (schedule.phases[sp].phase == app.phases[p].name) {
        found = sp;
        break;
      }
    }
    HMEM_ASSERT_MSG(found < schedule.phases.size(),
                    "schedule is missing a placement for an app phase");
    resolved.sched_of_phase[p] = found;
  }
  // Matched by allocation call-stack, the same identity auto-hbwmalloc
  // uses.
  const std::size_t n_objects = app.objects.size();
  const std::size_t promotable =
      std::min(schedule.phases.front().placement.tiers.size() - 1,
               slow_policy_tier);
  resolved.desired_tier.assign(
      schedule.phases.size(),
      std::vector<std::size_t>(n_objects, slow_policy_tier));
  for (std::size_t sp = 0; sp < schedule.phases.size(); ++sp) {
    const advisor::Placement& pl = schedule.phases[sp].placement;
    std::unordered_map<callstack::SymbolicCallStack, std::size_t> tier_of;
    for (std::size_t t = 0; t + 1 < pl.tiers.size(); ++t) {
      for (const auto& obj : pl.tiers[t].objects) {
        tier_of.emplace(obj.stack, t);
      }
    }
    for (std::size_t i = 0; i < n_objects; ++i) {
      if (app.objects[i].is_static) continue;
      const auto it = tier_of.find(stacks[i]);
      if (it != tier_of.end() && it->second < promotable) {
        resolved.desired_tier[sp][i] = it->second;
      }
    }
  }
  return resolved;
}

/// The placement the runtime starts from: the framework's, or the first
/// schedule phase's under the dynamic condition.
const advisor::Placement* initial_placement(const RunOptions& options) {
  if (options.condition != Condition::kDynamic) return options.placement;
  HMEM_ASSERT_MSG(
      options.schedule != nullptr && !options.schedule->phases.empty(),
      "dynamic condition requires a PlacementSchedule");
  return &options.schedule->phases.front().placement;
}

callstack::ModuleMap app_modules(const AppSpec& app, std::uint64_t seed) {
  callstack::ModuleMap modules;
  modules.add_module(app.name + ".x", 0x400000, 1ULL << 20);
  modules.randomize_slides(seed * 0x9e3779b97f4a7c15ULL + 1);
  return modules;
}

/// The state of one run_app call. The constructor is the setup stage (rank
/// view, placement runtime, profiler, process image); each phase of each
/// iteration then runs transition -> burst -> account, and result() reads
/// the totals out.
///
/// Scratch state (allocator bookkeeping, miss records, per-phase
/// accumulators) comes from RunOptions::scratch and lives exactly as long
/// as the AppRun, so a sweep worker may reset its arena the moment run_app
/// returns.
class AppRun {
 public:
  AppRun(const AppSpec& app, const RunOptions& options);
  // The unwinder, translator and policy point into the run's own members.
  AppRun(const AppRun&) = delete;
  AppRun& operator=(const AppRun&) = delete;

  /// Iteration start: the wrap-around schedule transition, then the churn
  /// reallocations (so churned objects are born under the placement of the
  /// phase about to run instead of being migrated right after allocation).
  void begin_iteration();
  /// Phase entry: the schedule transition, transient allocations, the
  /// profiler's phase marker, and the phase's sampling table and compiled
  /// program, rebuilt only when the live set or an address moved.
  void transition(std::size_t p);
  /// Runs the phase's simulated access stream on the resolved kernel into
  /// the phase accumulators; returns its summed access latency (sim ns).
  double burst(std::size_t p);
  /// Roofline phase duration, the profiler's miss/counter/phase events,
  /// the run totals and the transient frees.
  void account(std::size_t p, double latency_ns);
  RunResult result();

 private:
  void alloc_object(std::size_t i);
  void free_object(std::size_t i);
  /// Swaps the runtime to schedule phase `sp` and migrates every live
  /// object whose tier changed, charged through the memory model: each
  /// moved region costs its size as a source-tier read plus a
  /// destination-tier write at the per-rank roofline bandwidths, serialized
  /// at the boundary (a real migration stalls the ranks the same way).
  void migrate_to(std::size_t sp);
  void compile(std::size_t p);
  double interpret(std::size_t p);
  double run_compiled(std::size_t p);

  const AppSpec& app_;
  const RunOptions& options_;
  const std::size_t n_objects_;
  const bool cache_mode_;
  std::pmr::memory_resource* const scratch_;
  const RankView view_;
  const std::size_t n_tiers_;
  memsim::Machine machine_;
  const memsim::TierIndex cache_front_;
  const memsim::TierIndex cache_backing_;
  callstack::ModuleMap modules_;
  callstack::Unwinder unwinder_;
  callstack::Translator translator_;
  PlacementRuntime rt_;
  std::shared_ptr<callstack::SiteDb> sites_;
  std::optional<profiler::Profiler> prof_;
  std::vector<callstack::SiteId> site_ids_;
  std::vector<callstack::SymbolicCallStack> stacks_;
  std::vector<ObjectState> state_;
  Xoshiro256 rng_;

  double now_ns_ = 0;
  double interpose_ns_ = 0;
  std::uint64_t alloc_calls_ = 0;
  // Live-set epoch: bumped whenever any object transitions between live
  // and dead. The per-phase sampling tables are valid for one epoch —
  // steady iterations (no churn, no transients) never rebuild them.
  std::uint64_t live_epoch_ = 0;
  // Address epoch: bumped when a migration moves a live instance without
  // touching the live set (dynamic-condition phase transitions). Compiled
  // kernels bake instance addresses, so they key on BOTH epochs.
  std::uint64_t addr_epoch_ = 0;
  runtime::AllocOutcome stack_region_;

  // Derived rates.
  const double scale_;
  const double eff_cores_;
  const double instr_rate_;  ///< instructions per second
  const std::uint64_t miss_count_per_sim_;
  std::vector<std::uint64_t> accesses_;  ///< simulated accesses per phase
  std::unique_ptr<CacheModeModel> mc_model_;

  // Dynamic-condition schedule and migration accounting.
  ResolvedSchedule schedule_;
  std::size_t applied_ = 0;  ///< schedule phase the runtime holds
  std::pmr::vector<std::uint64_t> migration_real_;  ///< real bytes per tier
  std::pmr::vector<std::uint64_t> mig_scratch_;
  std::uint64_t migration_bytes_ = 0;
  std::uint64_t migration_moves_ = 0;
  double migration_cost_ns_ = 0;

  // Run totals and per-phase accumulators (re-zeroed each phase).
  std::pmr::vector<std::uint64_t> total_tier_sim_;
  std::uint64_t total_misses_sim_ = 0;
  double cumulative_instructions_ = 0;
  std::pmr::vector<MissRecord> miss_records_;
  std::pmr::vector<std::uint64_t> phase_tier_sim_;
  std::pmr::vector<double> phase_tier_bytes_;

  std::vector<PhaseTable> tables_;
  // The interpreter loop is the oracle; the compiled kernels
  // (engine/kernel) execute the identical per-access semantics from a
  // flattened program and are bit-identical on every result field. The
  // request resolves through the fallback ladder (cache mode -> interp, no
  // native support -> bytecode).
  const kernel::KernelKind kern_;
  std::vector<std::unique_ptr<PhaseKernel>> kprograms_;
};

AppRun::AppRun(const AppSpec& app, const RunOptions& options)
    : app_(app),
      options_(options),
      n_objects_(app.objects.size()),
      cache_mode_(options.condition == Condition::kCacheMode),
      scratch_(options.scratch != nullptr ? options.scratch
                                          : std::pmr::get_default_resource()),
      view_(rank_view(options.node, app.ranks,
                      static_cast<double>(app.threads_per_rank),
                      cache_mode_)),
      n_tiers_(view_.cfg.tiers.size()),
      machine_(view_.cfg),
      cache_front_(view_.cfg.resolved_cache_front()),
      cache_backing_(view_.cfg.resolved_cache_backing()),
      modules_(app_modules(app, options.seed)),
      unwinder_(modules_),
      translator_(modules_),
      rt_(placement_runtime(view_, options.condition,
                            initial_placement(options),
                            options.runtime_options, unwinder_, translator_,
                            scratch_)),
      // An external SiteDb (streamed-shard runs, shared multi-rank
      // databases) is aliased without ownership; otherwise the run owns a
      // fresh one.
      sites_(options.sites != nullptr
                 ? std::shared_ptr<callstack::SiteDb>(
                       options.sites, [](callstack::SiteDb*) {})
                 : std::make_shared<callstack::SiteDb>()),
      site_ids_(n_objects_),
      stacks_(n_objects_),
      state_(n_objects_),
      rng_(options.seed ^ 0xace5500dULL),
      scale_(app.access_scale),
      eff_cores_(std::min(static_cast<double>(app.threads_per_rank),
                          static_cast<double>(options.node.cores) /
                              app.ranks)),
      instr_rate_(eff_cores_ * view_.cfg.ipc * (view_.cfg.freq_ghz * 1e9)),
      miss_count_per_sim_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(app.access_scale)))),
      migration_real_(n_tiers_, 0, scratch_),
      mig_scratch_(n_tiers_, 0, scratch_),
      total_tier_sim_(n_tiers_, 0, scratch_),
      miss_records_(scratch_),
      phase_tier_sim_(n_tiers_, 0, scratch_),
      phase_tier_bytes_(n_tiers_, 0.0, scratch_),
      tables_(app.phases.size()),
      kern_(kernel::resolve_kernel(options.kernel, cache_mode_)) {
  if (options.profile) {
    profiler::ProfilerConfig pcfg;
    pcfg.min_alloc_bytes = options.min_alloc_bytes;
    pcfg.sampler = options.sampler;
    pcfg.sampler.seed ^= options.seed;
    prof_.emplace(pcfg, options.trace_sink);
  }

  for (std::size_t i = 0; i < n_objects_; ++i) {
    const ObjectSpec& obj = app.objects[i];
    if (obj.is_static) {
      callstack::SymbolicCallStack st;
      st.frames.push_back(callstack::CodeLocation{
          app.name + ".x", "static_" + obj.name,
          static_cast<std::uint32_t>(1000 + i)});
      stacks_[i] = st;
      site_ids_[i] = sites_->intern(obj.name, st, /*is_dynamic=*/false);
    } else {
      stacks_[i] = app.alloc_stack(i);
      site_ids_[i] = sites_->intern(obj.name, stacks_[i], /*is_dynamic=*/true);
    }
    state_[i].generator = std::make_unique<apps::AccessGenerator>(
        obj, options.seed ^ (0x51ed2700ULL + i * 0x9e3779b9ULL));
  }

  // ---- Process image: stack first, then statics, then persistent heap.
  // The stack is *not* registered with the profiler: references to
  // automatic variables stay unattributed, exactly as in the paper.
  stack_region_ = rt_.policy->allocate_static(app.stack_bytes);
  HMEM_ASSERT(stack_region_.addr != 0);
  now_ns_ += stack_region_.cost_ns;
  for (std::size_t i = 0; i < n_objects_; ++i) {
    if (app.objects[i].is_static) alloc_object(i);
  }
  for (std::size_t i = 0; i < n_objects_; ++i) {
    const ObjectSpec& obj = app.objects[i];
    if (!obj.is_static && !obj.churn && obj.transient_phase < 0) {
      alloc_object(i);
    }
  }

  if (cache_mode_) {
    std::vector<double> footprints(n_objects_ + 1, 0.0);
    for (std::size_t i = 0; i < n_objects_; ++i) {
      footprints[i] = static_cast<double>(app.objects[i].total_bytes());
    }
    footprints[n_objects_] = static_cast<double>(app.stack_bytes);
    mc_model_ = std::make_unique<CacheModeModel>(
        static_cast<double>(view_.cfg.tiers[cache_front_].capacity_bytes),
        std::move(footprints),
        static_cast<double>(memsim::kCacheLineBytes) * scale_,
        options.node.cache_mode_conflict_k);
  }
  if (options.condition == Condition::kDynamic) {
    schedule_ = resolve_schedule(app, *options.schedule, stacks_,
                                 rt_.tiers.size() - 1);
  }

  std::uint64_t max_accesses = 0;
  for (const apps::PhaseSpec& phase : app.phases) {
    accesses_.push_back(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(app.accesses_per_iteration) *
                     phase.access_share)));
    max_accesses = std::max(max_accesses, accesses_.back());
  }
  // Worst case: every access of the longest phase misses.
  if (prof_) miss_records_.reserve(max_accesses);
  if (kern_ != kernel::KernelKind::kInterp) {
    kprograms_.resize(app.phases.size());
  }
}

void AppRun::alloc_object(std::size_t i) {
  const ObjectSpec& obj = app_.objects[i];
  ObjectState& os = state_[i];
  if (os.instances.empty()) ++live_epoch_;
  for (int inst = 0; inst < obj.instances; ++inst) {
    const runtime::AllocOutcome out =
        obj.is_static ? rt_.policy->allocate_static(obj.size_bytes)
                      : rt_.policy->allocate(obj.size_bytes, stacks_[i]);
    HMEM_ASSERT_MSG(out.addr != 0, "simulated out of memory");
    os.instances.push_back(out.addr);
    os.tiers.push_back(out.tier);
    now_ns_ += out.cost_ns;
    interpose_ns_ += out.cost_ns;
    if (!obj.is_static) ++alloc_calls_;
    if (prof_) prof_->on_alloc(now_ns_, site_ids_[i], out.addr, obj.size_bytes);
  }
}

void AppRun::free_object(std::size_t i) {
  ObjectState& os = state_[i];
  if (!os.instances.empty()) ++live_epoch_;
  for (const Address addr : os.instances) {
    if (prof_) prof_->on_free(now_ns_, addr);
    const double cost = rt_.policy->deallocate(addr);
    now_ns_ += cost;
    interpose_ns_ += cost;
  }
  os.instances.clear();
  os.tiers.clear();
}

void AppRun::migrate_to(std::size_t sp) {
  if (sp == applied_) return;
  applied_ = sp;
  rt_.framework->set_placement(options_.schedule->phases[sp].placement);
  std::fill(mig_scratch_.begin(), mig_scratch_.end(), 0);
  double alloc_ns = 0;
  // Demotions first so the fast tiers drain before they refill; the policy
  // cascades FCFS toward slower tiers when a target is full.
  for (const bool demotion_pass : {true, false}) {
    for (std::size_t i = 0; i < n_objects_; ++i) {
      if (app_.objects[i].is_static) continue;
      const std::size_t desired = schedule_.desired_tier[sp][i];
      ObjectState& os = state_[i];
      for (std::size_t j = 0; j < os.instances.size(); ++j) {
        const std::size_t cur = os.tiers[j];
        if (cur == desired) continue;
        if ((desired > cur) != demotion_pass) continue;
        const runtime::AllocOutcome out =
            rt_.policy->retarget(os.instances[j], desired);
        if (out.addr == 0 || out.addr == os.instances[j]) continue;
        const std::uint64_t moved = app_.objects[i].size_bytes;
        mig_scratch_[view_.perf[cur]] += moved;       // source-tier read
        mig_scratch_[view_.perf[out.tier]] += moved;  // destination write
        migration_bytes_ += moved;
        ++migration_moves_;
        alloc_ns += out.cost_ns;
        os.instances[j] = out.addr;
        os.tiers[j] = out.tier;
        ++addr_epoch_;
      }
    }
  }
  double mig_s = 0;
  for (memsim::TierIndex t = 0; t < n_tiers_; ++t) {
    migration_real_[t] += mig_scratch_[t];
    mig_s += static_cast<double>(mig_scratch_[t]) /
             (view_.tier_bw_gbs[t] * 1e9);
  }
  const double mig_ns = mig_s * 1e9 + alloc_ns;
  now_ns_ += mig_ns;
  interpose_ns_ += alloc_ns;
  migration_cost_ns_ += mig_ns;
}

void AppRun::begin_iteration() {
  if (schedule_.active()) migrate_to(schedule_.sched_of_phase[0]);
  for (std::size_t i = 0; i < n_objects_; ++i) {
    if (app_.objects[i].churn) {
      if (!state_[i].instances.empty()) free_object(i);
      alloc_object(i);
    }
  }
}

void AppRun::transition(std::size_t p) {
  const apps::PhaseSpec& phase = app_.phases[p];
  if (schedule_.active()) migrate_to(schedule_.sched_of_phase[p]);
  for (std::size_t i = 0; i < n_objects_; ++i) {
    if (app_.objects[i].transient_phase == static_cast<int>(p)) {
      alloc_object(i);
    }
  }
  if (prof_) prof_->on_phase(now_ns_, phase.name, /*begin=*/true);

  // O(1) target sampling table, reused across iterations until an
  // alloc/free changes the live set.
  PhaseTable& table = tables_[p];
  if (table.epoch != live_epoch_) {
    rebuild_phase_table(table, phase, state_, live_epoch_);
  }
  if (kern_ != kernel::KernelKind::kInterp) compile(p);
}

void AppRun::compile(std::size_t p) {
  if (!kprograms_[p]) kprograms_[p] = std::make_unique<PhaseKernel>();
  PhaseKernel& kp = *kprograms_[p];
  if (kp.live_epoch == live_epoch_ && kp.addr_epoch == addr_epoch_) return;
  const PhaseTable& table = tables_[p];
  std::vector<kernel::SlotTarget> targets;
  targets.reserve(table.target.size());
  for (const std::size_t obj : table.target) {
    kernel::SlotTarget t;
    if (obj == SIZE_MAX) {
      t.is_stack = true;
      t.stack_base = stack_region_.addr;
      t.stack_lines = app_.stack_bytes / memsim::kCacheLineBytes;
    } else {
      t.instances = &state_[obj].instances;
      t.gen = state_[obj].generator.get();
      t.size_bytes = app_.objects[obj].size_bytes;
    }
    targets.push_back(t);
  }
  // Shared-cache lookup: compilation is deterministic, so any run with the
  // same cache prefix would emit this exact program. Cached entries carry
  // no generator bindings (those are run-local) — re-bind from this run's
  // targets in the order compile_program builds them, then re-verify.
  bool from_cache = false;
  std::string cache_key;
  if (options_.program_cache != nullptr) {
    cache_key = options_.program_cache_prefix;
    cache_key += "|p";
    cache_key += std::to_string(p);
    cache_key += "|e";
    cache_key += std::to_string(live_epoch_);
    cache_key += "|a";
    cache_key += std::to_string(addr_epoch_);
    if (const auto hit = options_.program_cache->find(cache_key)) {
      kp.program = *hit;
      std::size_t g = 0;
      for (const kernel::SlotTarget& t : targets) {
        if (!t.is_stack) {
          HMEM_ASSERT(g < kp.program.gens.size());
          kp.program.gens[g++] = t.gen;
        }
      }
      HMEM_ASSERT(g == kp.program.gens.size());
      HMEM_ASSERT(kernel::verify_program(kp.program).empty());
      from_cache = true;
    }
  }
  if (!from_cache) {
    kp.program = kernel::compile_program(table.alias, table.write_threshold,
                                         kWriteCoinShift, targets, machine_);
    if (options_.program_cache != nullptr) {
      options_.program_cache->insert(cache_key, kp.program);
    }
  }
  kp.live_epoch = live_epoch_;
  kp.addr_epoch = addr_epoch_;
  kp.use_native = false;
  if (kern_ == kernel::KernelKind::kNative) {
    const memsim::Cache::Tables llc = machine_.llc().tables();
    // An injected compile fault behaves exactly like compile() returning
    // false: this phase runs on bytecode instead.
    kp.use_native = !fault::inject(fault::Site::kKernelCompile) &&
                    kp.native.compile(kp.program, llc.ways, llc.line_shift,
                                      llc.set_mask, prof_.has_value());
  }
}

double AppRun::burst(std::size_t p) {
  std::fill(phase_tier_sim_.begin(), phase_tier_sim_.end(), 0);
  miss_records_.clear();
  return kern_ == kernel::KernelKind::kInterp ? interpret(p)
                                              : run_compiled(p);
}

double AppRun::run_compiled(std::size_t p) {
  // The frame aliases the live LLC way state (the kernel mutates tags/LRU
  // in place, exactly as Cache::access would) and the phase accumulators.
  const std::uint64_t n_accesses = accesses_[p];
  PhaseKernel& kp = *kprograms_[p];
  const memsim::Cache::Tables llc = machine_.llc().tables();
  kernel::Frame frame;
  frame.tags = llc.tags;
  frame.lru = llc.lru;
  frame.ways = llc.ways;
  frame.line_shift = llc.line_shift;
  frame.set_mask = llc.set_mask;
  frame.tick = *llc.tick;
  frame.n_accesses = n_accesses;
  frame.tier_sim = phase_tier_sim_.data();
  if (kp.use_native) {
    if (prof_) {
      // The kernel writes records through a raw cursor: give it room for a
      // burst that misses every access, then trim to what it wrote (within
      // the reserved capacity, so no reallocation).
      miss_records_.resize(n_accesses);
      frame.miss_out = miss_records_.data();
    }
    rng_.save_state(frame.rng_state);
    kp.native.run(frame);
    rng_.restore_state(frame.rng_state);
    if (prof_) {
      miss_records_.resize(
          static_cast<std::size_t>(frame.miss_out - miss_records_.data()));
    }
  } else {
    kernel::run_bytecode(kp.program, frame, rng_,
                         prof_ ? &miss_records_ : nullptr);
  }
  *llc.tick = frame.tick;
  total_misses_sim_ += frame.misses;
  return frame.latency_ns;
}

double AppRun::interpret(std::size_t p) {
  // The oracle: semantics mirrored insn-for-insn by the compiled kernels.
  // Per-access state lives in locals, written back once per burst.
  const std::uint64_t n_accesses = accesses_[p];
  const PhaseTable& table = tables_[p];
  Xoshiro256 rng = rng_;
  memsim::Machine& machine = machine_;
  const ObjectState* const state = state_.data();
  const ObjectSpec* const objects = app_.objects.data();
  CacheModeModel* const mc_model = mc_model_.get();
  std::uint64_t* const tier_sim = phase_tier_sim_.data();
  std::pmr::vector<MissRecord>* const records =
      prof_ ? &miss_records_ : nullptr;
  const Address stack_base = stack_region_.addr;
  const std::uint64_t stack_lines = app_.stack_bytes / memsim::kCacheLineBytes;
  const memsim::TierIndex front = cache_front_;
  const memsim::TierIndex backing = cache_backing_;
  const memsim::MachineConfig& node = options_.node;
  const double front_ns = node.tiers[front].latency_ns + node.mem_cache_tag_ns;
  const double backing_ns =
      node.tiers[backing].latency_ns + node.mem_cache_tag_ns;
  const std::size_t stack_target = n_objects_;
  double latency_sum = 0;
  std::uint64_t misses = 0;
  for (std::uint64_t k = 0; k < n_accesses; ++k) {
    // One structured draw per access: target column + alias coin + write
    // coin (field layout documented at kAliasCoinBits above).
    const std::uint64_t draw = rng.next();
    const std::size_t idx = table.target[table.alias.sample(draw)];
    const bool is_write = (draw >> kWriteCoinShift) < table.write_threshold;

    Address addr = 0;
    if (idx == SIZE_MAX) {
      addr = stack_base + rng.below(stack_lines) * memsim::kCacheLineBytes;
    } else {
      const ObjectState& os = state[idx];
      const Address base = os.instances.size() == 1
                               ? os.instances[0]
                               : os.instances[rng.below(os.instances.size())];
      std::uint64_t offset = os.generator->next_offset();
      if (offset >= objects[idx].size_bytes) offset = 0;
      addr = base + offset;
    }
    const memsim::AccessResult res = machine.access(addr, is_write);
    double latency_ns = res.latency_ns;
    memsim::TierIndex serve_tier = res.tier;
    if (!res.llc_hit && mc_model != nullptr) {
      // Analytic memory-side cache decision (see CacheModeModel). The flat
      // routing above served the backing tier; rewrite it.
      const std::size_t mc_target = idx == SIZE_MAX ? stack_target : idx;
      if (rng.uniform() < mc_model->hit_probability(mc_target)) {
        latency_ns = front_ns;
        serve_tier = front;
      } else {
        mc_model->on_miss(mc_target);
        latency_ns = backing_ns;
        serve_tier = backing;
        // The memory-side fill writes the line into the front tier.
        tier_sim[front] += memsim::kCacheLineBytes;
      }
    }
    latency_sum += latency_ns;
    tier_sim[serve_tier] += res.tier_bytes;
    if (!res.llc_hit) {
      ++misses;
      if (records != nullptr) records->push_back({k, addr, is_write});
    }
  }
  rng_ = rng;
  total_misses_sim_ += misses;
  return latency_sum;
}

void AppRun::account(std::size_t p, double latency_ns) {
  const apps::PhaseSpec& phase = app_.phases[p];
  const std::uint64_t n_accesses = accesses_[p];
  const double real_instr =
      static_cast<double>(n_accesses) * scale_ * phase.insts_per_access;
  for (memsim::TierIndex t = 0; t < n_tiers_; ++t) {
    phase_tier_bytes_[t] = static_cast<double>(phase_tier_sim_[t]) * scale_;
  }
  const double phase_ns =
      roofline_s(real_instr / instr_rate_, latency_ns * scale_, eff_cores_,
                 phase_tier_bytes_, view_.tier_bw_gbs) *
      1e9;

  if (prof_) {
    for (const MissRecord& rec : miss_records_) {
      const double t =
          now_ns_ + phase_ns * static_cast<double>(rec.order) /
                        static_cast<double>(
                            std::max<std::uint64_t>(1, n_accesses));
      prof_->on_llc_miss(t, rec.addr, rec.is_write, miss_count_per_sim_);
    }
  }
  cumulative_instructions_ += real_instr;
  now_ns_ += phase_ns;
  if (prof_) {
    prof_->on_counter(now_ns_, "instructions", cumulative_instructions_);
    prof_->on_phase(now_ns_, phase.name, /*begin=*/false);
  }
  for (memsim::TierIndex t = 0; t < n_tiers_; ++t) {
    total_tier_sim_[t] += phase_tier_sim_[t];
  }
  for (std::size_t i = 0; i < n_objects_; ++i) {
    if (app_.objects[i].transient_phase == static_cast<int>(p)) {
      free_object(i);
    }
  }
}

RunResult AppRun::result() {
  if (prof_) now_ns_ += prof_->overhead_ns();

  RunResult result;
  result.app = app_.name;
  result.condition = condition_name(options_.condition);
  result.fom_unit = app_.fom_unit;
  result.kernel = kernel::kernel_name(kern_);
  result.time_s = now_ns_ * 1e-9;
  HMEM_ASSERT(result.time_s > 0);
  result.fom = app_.work_per_iteration *
               static_cast<double>(app_.iterations) * app_.ranks /
               result.time_s;

  // Per-tier traffic, fastest tier first (the order callers reason in).
  // Migration traffic is real (not sampled), so it joins after scaling.
  result.tier_traffic.reserve(n_tiers_);
  for (const memsim::TierIndex t : view_.perf) {
    TierTraffic traffic;
    traffic.name = view_.cfg.tiers[t].name;
    traffic.bytes = static_cast<std::uint64_t>(
                        static_cast<double>(total_tier_sim_[t]) * scale_) +
                    migration_real_[t];
    traffic.migration_bytes = migration_real_[t];
    result.tier_traffic.push_back(std::move(traffic));
  }
  result.migration_bytes = migration_bytes_;
  result.migration_count = migration_moves_;
  result.migration_cost_s = migration_cost_ns_ * 1e-9;
  result.achieved_bw_gbs =
      static_cast<double>(result.dram_bytes()) / result.time_s / 1e9;
  result.llc_misses = total_misses_sim_ * miss_count_per_sim_;
  result.alloc_calls = alloc_calls_;
  result.allocs_per_second =
      static_cast<double>(alloc_calls_) / result.time_s;
  result.interposition_overhead_ns = interpose_ns_;
  rt_.fill_result(result, options_.condition);

  if (prof_) {
    result.samples = prof_->sampler().samples_taken();
    result.monitoring_overhead = prof_->overhead_ns() / now_ns_;
    if (options_.trace_sink == nullptr) {
      result.trace = std::make_shared<trace::TraceBuffer>(prof_->take_trace());
    }
    result.sites = sites_;
  }
  return result;
}

}  // namespace

const char* condition_name(Condition condition) {
  switch (condition) {
    case Condition::kDdr:
      return "ddr";
    case Condition::kNumactl:
      return "numactl";
    case Condition::kAutoHbw:
      return "autohbw";
    case Condition::kCacheMode:
      return "cache";
    case Condition::kFramework:
      return "framework";
    case Condition::kDynamic:
      return "dynamic";
  }
  return "?";
}

RunResult run_app(const AppSpec& app, const RunOptions& options) {
  const std::string problem = apps::validate(app);
  HMEM_ASSERT_MSG(problem.empty(), problem.c_str());
  AppRun run(app, options);
  for (std::uint64_t iter = 0; iter < app.iterations; ++iter) {
    run.begin_iteration();
    for (std::size_t p = 0; p < app.phases.size(); ++p) {
      run.transition(p);
      run.account(p, run.burst(p));
    }
  }
  return run.result();
}

}  // namespace hmem::engine
