// hmem_bench — closed-loop benchmark of the hmem pipeline.
//
//   hmem_bench --workload pipeline|sweep_rows|trace_advise --seed N
//              --seconds S --trace 0|1 [--spans-out file]
//              [--configs dir] [--tiny] [--flip-stream-report]
//
// One client, one op in flight: the next op starts when the previous one
// has finished and passed its checks. The seed permutes the op order of
// every cycle and offsets the profile and production seeds. The loop runs
// whole cycles (each distinct op once, in a fresh permutation) until
// --seconds have passed, so every run measures the same op mix. Each op
// runs pinned to the next CPU in turn (CpuRotation, bench.hpp).
//
// Set-up (app/preset loading, trace_advise's shard recording, one untimed
// warm-up op) is repeated at least kMinSetups times and for at least
// kMinSetupSeconds; setup_s is their median.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
// untraced cycles: traced cycles record a span around every library call
// the ops make, the untraced ones give the tracing overhead. Layers the
// workload never calls are timed on two traced ops of each other workload,
// run after the loop. Spans, counts and per-layer self times go to
// --spans-out as JSON lines.
//
// Stderr carries the op-mix report (latency per app/machine cluster; a
// p50 or tail in a gap between app clusters fails the run) and the
// self-time table; the last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using namespace hmem::perfbench;

/// An untraced run sets up at least kMinSetups times and for at least
/// kMinSetupSeconds (pipeline's and sweep_rows' set-ups take tenths and
/// hundredths of a second); setup_s is their median.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  BenchOptions bench;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload pipeline|sweep_rows|trace_advise "
               "--seed N --seconds S --trace 0|1\n"
               "          [--spans-out file] [--configs dir] [--tiny] "
               "[--flip-stream-report]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage(argv[0]);
      args.trace = v == "1";
    } else if (arg == "--spans-out") {
      args.spans_out = value();
    } else if (arg == "--configs") {
      args.bench.configs_dir = value();
    } else if (arg == "--tiny") {
      args.bench.tiny = true;
    } else if (arg == "--flip-stream-report") {
      args.bench.flip_stream_report = true;
    } else {
      usage(argv[0]);
    }
  }
  const auto names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end() ||
      !(args.seconds > 0)) {
    usage(argv[0]);
  }
  args.bench.seed = args.seed;
  return args;
}

/// splitmix64: a seeded, platform-independent op-order permutation.
class OrderRng {
 public:
  explicit OrderRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[next() % i]);
    }
    return order;
  }

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest nearest-rank percentile with at least ten samples beyond it
/// (the maximum when there are fewer than eleven samples).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t k = n >= 11 ? n - 11 : n - 1;
  t.value = v[k];
  t.beyond = n - 1 - k;
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

double peak_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct OpRecord {
  std::string label;
  bool main = true;  ///< false: an op of another workload (traced run)
  bool traced = false;
  double latency_s = 0;
  OpResult result;
};

/// Runs one op, timed and checked. Exceptions count as a failed check.
OpRecord run_checked(Workload& workload, std::size_t index, Tracer& tracer,
                     std::size_t id) {
  OpRecord rec;
  rec.label = workload.op_label(index);
  rec.traced = tracer.enabled();
  tracer.set_op(id);
  const auto start = Clock::now();
  try {
    auto span = tracer.span("op");
    rec.result = workload.run_op(index, tracer);
  } catch (const std::exception& e) {
    rec.result.check(false, std::string("exception: ") + e.what());
  }
  rec.latency_s = seconds_between(start, Clock::now());
  if (rec.traced) {
    try {
      workload.layer_passes(index, tracer);
    } catch (const std::exception& e) {
      rec.result.check(false, std::string("layer pass: ") + e.what());
    }
  }
  return rec;
}

std::vector<double> latencies_of(const std::vector<OpRecord>& ops) {
  std::vector<double> latencies;
  for (const OpRecord& op : ops) latencies.push_back(op.latency_s);
  return latencies;
}

// ---- Per-layer metrics ------------------------------------------------------

enum class Agg {
  kMedian,  ///< median span duration
  kTail,    ///< tail span duration (Tail above)
  kMean,    ///< mean of a per-op count
  kRate,    ///< sum of a count / sum of span durations
  kRatio,   ///< sum of a count / sum of another count
};

struct LayerMetric {
  const char* name;
  const char* unit;
  Agg agg;
  std::vector<const char*> spans;  ///< kMedian/kTail/kRate
  const char* count = nullptr;     ///< kMean/kRate/kRatio numerator
  const char* per = nullptr;       ///< kRatio denominator count
  double scale = 1;                ///< seconds -> unit for span metrics
};

LayerMetric timed(const char* name, const char* span, const char* unit,
                  Agg agg = Agg::kMedian) {
  return {name, unit, agg, {span}, nullptr, nullptr,
          std::string(unit) == "ms" ? 1e3 : 1e6};
}
/// Count metrics share their name with the count they average.
LayerMetric mean(const char* name, const char* unit) {
  return {name, unit, Agg::kMean, {}, name};
}
LayerMetric rate(const char* name, const char* count,
                 std::vector<const char*> spans) {
  return {name, "1/s", Agg::kRate, std::move(spans), count};
}
LayerMetric ratio(const char* name, const char* count, const char* per) {
  return {name, "ratio", Agg::kRatio, {}, count, per};
}

/// The per-layer metrics, in BENCHMARK.json order (bench.trace_overhead_ms
/// is computed separately).
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      timed("engine.profile_run_ms", "engine.profile_run", "ms"),
      timed("engine.ddr_run_ms", "engine.ddr_run", "ms"),
      timed("engine.framework_run_ms", "engine.framework_run", "ms"),
      timed("engine.dynamic_run_ms", "engine.dynamic_run", "ms"),
      rate("engine.sim_accesses_per_s", "engine.sim_accesses",
           {"engine.ddr_run", "engine.framework_run", "engine.dynamic_run"}),
      mean("profiler.samples", "count"),
      mean("trace.events_written", "count"),
      mean("trace.bytes_written", "bytes"),
      timed("trace.decode_ms", "trace.decode", "ms"),
      timed("trace.merge_decode_ms", "trace.merge_decode", "ms"),
      timed("analysis.batch_ms", "analysis.batch", "ms"),
      timed("analysis.stream_ms", "analysis.stream", "ms"),
      rate("analysis.events_per_s", "analysis.events", {"analysis.batch"}),
      timed("advisor.advise_us", "advisor.advise", "us"),
      timed("advisor.report_roundtrip_us", "advisor.report_roundtrip", "us"),
      timed("advisor.ladder_us", "advisor.ladder", "us"),
      mean("advisor.solves", "count"),
      timed("advisor.refresh_us_p50", "advisor.refresh", "us"),
      timed("advisor.refresh_us_tail", "advisor.refresh", "us", Agg::kTail),
      mean("advisor.refreshes", "count"),
      ratio("advisor.resolve_ratio", "advisor.resolves",
            "advisor.resolve_slots"),
      timed("engine.sweep.row_ms", "engine.sweep.row", "ms"),
      rate("engine.sweep.cells_per_s", "engine.sweep.cells",
           {"engine.sweep.row"}),
      ratio("engine.sweep.profile_hit_rate", "engine.sweep.profile_hits",
            "engine.sweep.profile_lookups"),
      ratio("engine.kernel.program_hit_rate", "engine.kernel.program_hits",
            "engine.kernel.program_lookups"),
      mean("engine.kernel.program_cache_entries", "count"),
      mean("engine.sweep.arena_peak_cell_bytes", "bytes"),
      mean("engine.sweep.arena_reserved_bytes", "bytes"),
      mean("runtime.migrations", "count"),
  };
  return metrics;
}

/// Evaluates one layer metric over the spans/counts of the ops `use`
/// selects; nullopt when those ops never reached the layer.
template <typename Select>
std::optional<double> evaluate(const LayerMetric& m, const Tracer& tracer,
                               Select use) {
  const auto in_spans = [&](const Span& s) {
    return std::find_if(m.spans.begin(), m.spans.end(), [&](const char* n) {
             return s.name == n;
           }) != m.spans.end();
  };
  std::vector<double> durations;
  for (const Span& s : tracer.spans()) {
    if (use(s.op) && in_spans(s)) durations.push_back(s.end_s - s.start_s);
  }
  double num = 0;
  double den = 0;
  std::size_t counted = 0;
  for (const Count& c : tracer.counts()) {
    if (!use(c.op)) continue;
    if (m.count != nullptr && c.name == m.count) {
      num += c.value;
      ++counted;
    }
    if (m.per != nullptr && c.name == m.per) den += c.value;
  }
  switch (m.agg) {
    case Agg::kMedian:
      if (durations.empty()) return std::nullopt;
      return median(durations) * m.scale;
    case Agg::kTail:
      if (durations.empty()) return std::nullopt;
      return tail_of(durations).value * m.scale;
    case Agg::kMean:
      if (counted == 0) return std::nullopt;
      return num / static_cast<double>(counted);
    case Agg::kRate: {
      double seconds = 0;
      for (const double d : durations) seconds += d;
      if (counted == 0 || seconds <= 0) return std::nullopt;
      return num / seconds;
    }
    case Agg::kRatio:
      if (counted == 0) return std::nullopt;
      return den > 0 ? num / den : 0.0;
  }
  return std::nullopt;
}

struct SelfTime {
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Per span name: calls, total time and self time (duration minus the time
/// its direct children cover; spans of one op nest and never overlap).
std::map<std::string, SelfTime> self_times(const Tracer& tracer,
                                           const std::vector<OpRecord>& ops) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, SelfTime> table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!ops[spans[i].op].main) continue;
    SelfTime& t = table[spans[i].name];
    const double d = spans[i].end_s - spans[i].start_s;
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return table;
}

void write_spans(const std::string& path, const Args& args,
                 const Tracer& tracer, const std::vector<OpRecord>& ops,
                 const std::map<std::string, SelfTime>& table) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  std::fprintf(out, "{\"kind\":\"run\",\"workload\":\"%s\",\"seed\":%llu}\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  for (std::size_t id = 0; id < ops.size(); ++id) {
    std::fprintf(out,
                 "{\"kind\":\"op\",\"id\":%zu,\"label\":\"%s\",\"main\":%s,"
                 "\"traced\":%s,\"latency_s\":%.9f,\"ok\":%s}\n",
                 id, ops[id].label.c_str(), ops[id].main ? "true" : "false",
                 ops[id].traced ? "true" : "false", ops[id].latency_s,
                 ops[id].result.ok ? "true" : "false");
  }
  for (const Span& s : tracer.spans()) {
    std::fprintf(out,
                 "{\"kind\":\"span\",\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%d,\"op\":%zu}\n",
                 s.name.c_str(), s.start_s, s.end_s, s.parent, s.op);
  }
  for (const Count& c : tracer.counts()) {
    std::fprintf(out,
                 "{\"kind\":\"count\",\"name\":\"%s\",\"op\":%zu,"
                 "\"value\":%.17g}\n",
                 c.name.c_str(), c.op, c.value);
  }
  for (const auto& [name, t] : table) {
    std::fprintf(out,
                 "{\"kind\":\"self\",\"name\":\"%s\",\"count\":%zu,"
                 "\"total_s\":%.9f,\"self_s\":%.9f}\n",
                 name.c_str(), t.count, t.total_s, t.self_s);
  }
  if (std::fclose(out) != 0) {
    throw std::runtime_error("cannot write spans to " + path);
  }
}

/// Whether the statistic made of the sorted samples lo..hi (lo == hi for one
/// sample, lo + 1 == hi for the mean of the two middle ones) falls inside one
/// app's latency cluster: some app's [min, max] covers those samples and
/// their rank neighbours. A statistic whose neighbours come from clusters
/// with a gap between them jumps from one cluster to the other when the mix
/// shifts by one op: a tail taken at the edge of a small heavy cluster.
std::string cluster_of(
    const std::vector<std::pair<double, std::string>>& sorted,
    const std::map<std::string, std::pair<double, double>>& apps,
    std::size_t lo, std::size_t hi) {
  const double low = sorted[lo > 0 ? lo - 1 : 0].first;
  const double high = sorted[std::min(hi + 1, sorted.size() - 1)].first;
  std::string inside;
  for (const auto& [app, range] : apps) {
    if (range.first <= low && high <= range.second) {
      inside += (inside.empty() ? "" : ",") + app;
    }
  }
  return inside;
}

/// The op-mix report: op count and latency summary per (app, machine).
/// Returns false when latency_p50 or latency_tail falls in a gap between the
/// apps' clusters rather than inside one (cluster_of).
bool report_op_mix(const std::string& workload,
                   const std::vector<OpRecord>& ops, const Tail& tail) {
  std::map<std::string, std::vector<double>> clusters;
  std::map<std::string, std::pair<double, double>> apps;  // app -> min, max
  std::vector<std::pair<double, std::string>> sorted;
  for (const OpRecord& op : ops) {
    clusters[op.label].push_back(op.latency_s);
    const std::string app = op.label.substr(0, op.label.find('/'));
    auto& range =
        apps.try_emplace(app, op.latency_s, op.latency_s).first->second;
    range.first = std::min(range.first, op.latency_s);
    range.second = std::max(range.second, op.latency_s);
    sorted.emplace_back(op.latency_s, app);
  }
  std::sort(sorted.begin(), sorted.end());
  std::fprintf(stderr, "op mix (%s, %zu ops):\n  %-22s %5s %10s %10s %10s\n",
               workload.c_str(), ops.size(), "app/machine", "ops",
               "p50_ms", "min_ms", "max_ms");
  for (const auto& [label, v] : clusters) {
    std::fprintf(stderr, "  %-22s %5zu %10.3f %10.3f %10.3f\n", label.c_str(),
                 v.size(), median(v) * 1e3,
                 *std::min_element(v.begin(), v.end()) * 1e3,
                 *std::max_element(v.begin(), v.end()) * 1e3);
  }
  if (sorted.empty()) return true;
  bool inside_all = true;
  const auto locate = [&](const std::string& what, double value,
                          std::size_t lo, std::size_t hi) {
    const std::string inside = cluster_of(sorted, apps, lo, hi);
    std::fprintf(stderr, "  %s %.3f ms: %s\n", what.c_str(), value * 1e3,
                 inside.empty() ? "in a gap between clusters"
                                : ("inside " + inside).c_str());
    inside_all = inside_all && !inside.empty();
  };
  const std::size_t n = sorted.size();
  locate("latency_p50", median(latencies_of(ops)), (n - 1) / 2, n / 2);
  char what[96];
  std::snprintf(what, sizeof(what),
                "latency_tail (p%.1f, %zu of %zu samples beyond)",
                tail.percentile, tail.beyond, tail.samples);
  locate(what, tail.value, n - 1 - tail.beyond, n - 1 - tail.beyond);
  return inside_all;
}

void print_self_times(const std::map<std::string, SelfTime>& table) {
  double op_total = 0;
  if (const auto it = table.find("op"); it != table.end()) {
    op_total = it->second.total_s;
  }
  std::fprintf(stderr,
               "layer self time (traced ops):\n  %-28s %6s %11s %11s %7s\n",
               "span", "calls", "total_ms", "self_ms", "self%");
  for (const auto& [name, t] : table) {
    std::fprintf(stderr, "  %-28s %6zu %11.3f %11.3f %6.1f%%\n", name.c_str(),
                 t.count, t.total_s * 1e3, t.self_s * 1e3,
                 op_total > 0 ? 100.0 * t.self_s / op_total : 0.0);
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Args& args) {
  Tracer tracer;
  bool correct = true;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    correct = false;
  };

  // ---- Set-up, repeated; the last one's workload is measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  std::optional<std::uint64_t> warm_digest;
  // setup_s is an end-to-end metric; the traced run sets up once.
  const auto setups_start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (args.trace ? k == 1
                   : k >= kMinSetups &&
                         seconds_between(setups_start, Clock::now()) >=
                             kMinSetupSeconds) {
      break;
    }
    workload.reset();
    const auto start = Clock::now();
    workload = make_workload(args.workload, args.bench);
    std::optional<OpRecord> warm;
    {
      // Set-up k's single-threaded warm-up op runs on CPU k, as the
      // measured ops rotate (trace_advise's recording rotates on its own).
      std::optional<CpuRotation> rotation;
      if (workload->threads() == 1) rotation.emplace();
      if (rotation) rotation->pin(k);
      warm = run_checked(*workload, 0, tracer, 0);
    }
    setup_s.push_back(seconds_between(start, Clock::now()));
    if (!warm->result.ok) fail("warm-up op: " + warm->result.failure);
    if (warm_digest && *warm_digest != warm->result.digest) {
      fail("warm-up op digest differs between set-ups");
    }
    warm_digest = warm->result.digest;
  }

  // ---- Measured closed loop: whole cycles until --seconds have passed.
  const std::size_t distinct = workload->op_count();
  OrderRng order(args.seed);
  std::vector<OpRecord> ops;
  std::map<std::size_t, std::uint64_t> digests = {{0, *warm_digest}};
  std::vector<OpResult> first_cycle(distinct);
  const int min_cycles = args.trace ? 2 : 1;
  const auto loop_start = Clock::now();
  double loop_s = 0;
  std::optional<CpuRotation> rotation;
  if (workload->threads() == 1) rotation.emplace();
  for (int cycle = 0;; ++cycle) {
    tracer.set_enabled(args.trace && cycle % 2 == 0);
    for (const std::size_t i : order.permutation(distinct)) {
      if (rotation) rotation->pin(ops.size());
      OpRecord rec = run_checked(*workload, i, tracer, ops.size());
      const auto [it, first] = digests.emplace(i, rec.result.digest);
      rec.result.check(first || it->second == rec.result.digest,
                       "recurring op did not reproduce its digest");
      if (cycle == 0) first_cycle[i] = rec.result;
      ops.push_back(std::move(rec));
    }
    loop_s = seconds_between(loop_start, Clock::now());
    if (loop_s >= args.seconds && cycle + 1 >= min_cycles) break;
  }
  const std::size_t main_ops = ops.size();
  rotation.reset();

  // ---- Traced run: two traced ops of every other workload, for the layers
  // this workload never calls.
  if (args.trace) {
    tracer.set_enabled(true);
    BenchOptions other_options = args.bench;
    other_options.flip_stream_report = false;
    for (const std::string& other : workload_names()) {
      if (other == args.workload) continue;
      const auto w = make_workload(other, other_options, {"snap", "churn"});
      for (const std::size_t i : {std::size_t{0}, w->op_count() - 1}) {
        OpRecord rec = run_checked(*w, i, tracer, ops.size());
        rec.main = false;
        ops.push_back(std::move(rec));
      }
    }
  }

  std::size_t failed = 0;
  for (const OpRecord& op : ops) {
    if (!op.result.ok) {
      ++failed;
      std::fprintf(stderr, "op %s failed: %s\n", op.label.c_str(),
                   op.result.failure.c_str());
    }
  }
  if (failed > 0) correct = false;

  // Latency statistics come from untraced ops of this workload only.
  std::vector<OpRecord> timed;
  std::vector<double> traced_latencies;
  for (std::size_t id = 0; id < main_ops; ++id) {
    if (ops[id].traced) {
      traced_latencies.push_back(ops[id].latency_s);
    } else {
      timed.push_back(ops[id]);
    }
  }
  const std::vector<double> latencies = latencies_of(timed);
  const double p50 = median(latencies);
  const Tail tail = tail_of(latencies);
  if (!report_op_mix(args.workload, timed, tail)) {
    fail("a latency statistic falls in a gap between app clusters");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::size_t ok = 0;
    for (std::size_t id = 0; id < main_ops; ++id) ok += ops[id].result.ok;
    double fom_gain = 0;
    try {
      fom_gain = workload->fom_gain(first_cycle);
    } catch (const std::exception& e) {
      fail(std::string("fom_gain: ") + e.what());
    }
    if (!(fom_gain > 0)) fail("fom_gain is not positive");
    metrics = {
        {"ops_per_s", static_cast<double>(main_ops) / loop_s, "1/s"},
        {"latency_p50_ms", p50 * 1e3, "ms"},
        {"latency_tail_ms", tail.value * 1e3, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"ok_ratio",
         static_cast<double>(ok) / static_cast<double>(main_ops), "ratio"},
        {"fom_gain", fom_gain, "ratio"},
    };
  } else {
    const auto main_op = [&](std::size_t id) { return ops[id].main; };
    const auto other_op = [&](std::size_t id) { return !ops[id].main; };
    for (const LayerMetric& m : layer_metrics()) {
      std::optional<double> v = evaluate(m, tracer, main_op);
      if (!v) v = evaluate(m, tracer, other_op);
      if (!v) fail(std::string("no traced op reached ") + m.name);
      metrics.push_back({m.name, v.value_or(0.0), m.unit});
    }
    metrics.push_back({"bench.trace_overhead_ms",
                       (median(traced_latencies) - p50) * 1e3, "ms"});
    const auto table = self_times(tracer, ops);
    print_self_times(table);
    if (!args.spans_out.empty()) {
      write_spans(args.spans_out, args, tracer, ops, table);
    }
  }

  std::fprintf(stderr,
               "%s: %zu ops in %.2f s, setup median %.3f s of %zu, build %s\n",
               args.workload.c_str(), main_ops, loop_s, median(setup_s),
               setup_s.size(), HMEM_BENCH_BUILD_TYPE);
  std::string json = "{\"correct\": ";
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) fail(m.name + " is not finite");
  }
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.size()) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    json += buf;
    std::fprintf(stderr, "  %-36s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
