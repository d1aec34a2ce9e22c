// Shared pieces of the hmem benchmark program: the span tracer the traced
// run records layer timings with, and the interface each workload's
// closed-loop op generator implements.
//
// Spans are taken from outside the library: the benchmark wraps each public
// call it makes (run_app, aggregate, advise, SweepEngine::run, ...) in a
// scope. Nothing inside the library is instrumented, so an untraced run
// executes exactly the code a CLI user runs.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hmem::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spreads single-threaded work over every CPU the process may use: step k
/// (an op, a set-up's warm-up op, or one rank trace_advise's set-up
/// records) runs pinned to CPU k (mod the CPU count). On a shared host each
/// CPU's speed drifts on its own, for minutes at a time, and the scheduler
/// leaves a single-threaded run on one CPU for its whole length; cycling the
/// CPUs makes every run sample all of them. Multi-threaded ops stay unpinned:
/// their threads already spread over the CPUs, and pinning them to a fixed
/// subset slowed them.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t k) {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[k % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// One timed call: [start_s, end_s) since the tracer's origin, the span
/// that was open when it began (-1 for none) and the op it belongs to.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  std::size_t op = 0;
};

/// A count taken at a layer boundary (events written, cache hits, ...).
struct Count {
  std::string name;
  std::size_t op = 0;
  double value = 0;
};

/// In-memory span/count recorder. When disabled, span() and count() do no
/// work and read no clock, so the untraced run pays nothing for it.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::size_t op) { op_ = op; }

  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }
  void count(const char* name, double value) {
    if (enabled_) counts_.push_back({name, op_, value});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Count>& counts() const { return counts_; }

 private:
  bool enabled_ = false;
  std::size_t op_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<int> open_;  ///< indices of the spans currently open
};

inline Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(
      {name, seconds_between(tracer_->origin_, Clock::now()), 0,
       tracer_->open_.empty() ? -1 : tracer_->open_.back(), tracer_->op_});
  tracer_->open_.push_back(index_);
}

inline Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_between(tracer_->origin_, Clock::now());
  tracer_->open_.pop_back();
}

/// Outcome of one op's correctness checks.
struct OpResult {
  bool ok = true;
  std::string failure;  ///< first failed check, empty when ok
  /// Digest of the op's simulated/advised outputs; a recurring op must
  /// reproduce it bit for bit.
  std::uint64_t digest = 0;
  /// Simulated framework FOM / DDR FOM of this op (0 when the op has none).
  double fom_ratio = 0;

  void check(bool condition, const std::string& what) {
    if (!condition && ok) {
      ok = false;
      failure = what;
    }
  }
};

/// Knobs shared by every workload.
struct BenchOptions {
  std::string configs_dir = "configs/apps";
  std::uint64_t seed = 1;
  /// Shrink every app to a few thousand accesses: the benchmark's own
  /// tests run the full op set in well under a second per op.
  bool tiny = false;
  /// Negative test of the trace_advise oracle: flip one byte of every
  /// streamed schedule report before it is compared with the batch report.
  bool flip_stream_report = false;
};

/// A closed-loop op generator: `op_count()` distinct ops, each run to
/// completion and checked before the next one starts.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t op_count() const = 0;
  /// "<app>/<machine>" — the op-mix report groups latencies by it.
  virtual std::string op_label(std::size_t op) const = 0;
  /// Threads one op runs on.
  virtual std::size_t threads() const { return 1; }
  virtual OpResult run_op(std::size_t op, Tracer& tracer) = 0;
  /// Traced run only, outside the op's timed interval: extra passes that
  /// isolate one layer's cost (e.g. decode without aggregation).
  virtual void layer_passes(std::size_t /*op*/, Tracer& /*tracer*/) {}
  /// Geomean of framework FOM / DDR FOM over one full cycle of ops,
  /// `first_cycle[i]` being op i's result.
  virtual double fom_gain(const std::vector<OpResult>& first_cycle);
};

/// Workload names, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// Builds a workload, loading its apps and machine presets (and, for
/// trace_advise, recording its trace shards). `apps` restricts the app
/// roster to the given names (empty = all ten bundled apps).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const BenchOptions& options,
                                        const std::vector<std::string>& apps =
                                            {});

}  // namespace hmem::perfbench
