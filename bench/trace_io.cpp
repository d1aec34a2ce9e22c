// Trace serialization throughput: text (v1) vs binary (v2), write and read,
// plus the multi-rank merged read.
//
// Generates a synthetic profiled-run-shaped event stream (PEBS samples
// dominate, with periodic phase toggles, counters, and alloc/free churn),
// serializes it through each format writer and reads it back through the
// format front, reporting events/second and bytes/event. Results go to
// stdout and, as JSON, to --out (default BENCH_trace_io.json) so CI can
// track the trajectory. The binary format's reason to exist is read
// throughput at production trace volumes: the JSON records the speedup.
//
// The `merged` row deals the same stream round-robin into 8 binary shards
// and reads them back through hmem_advise's default front
// (trace::ReplayReader with salvage on: each shard a RecoveringTraceReader
// inside an OffsetTraceReader, k-way merged with drop_failed_inputs).
// merge_overhead = binary read_eps / merged read_eps,
// so 1.0 would be a merge that costs nothing beyond decoding.
//
//   usage: bench_trace_io [--smoke] [--events N] [--reps R] [--out file]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/visitor.hpp"

namespace {

using namespace hmem;

struct Measurement {
  double write_eps = 0;  ///< events/second, serialize
  double read_eps = 0;   ///< events/second, parse
  std::size_t bytes = 0;
};

/// Profiled-run-shaped stream: ~82% samples, 8% counters, 6% phase
/// toggles, 4% alloc/free churn across 48 sites.
void build_trace(std::size_t events, callstack::SiteDb& sites,
                 trace::TraceBuffer& buf) {
  Xoshiro256 rng(0x7ace10);
  std::vector<callstack::SiteId> ids;
  for (int s = 0; s < 48; ++s) {
    callstack::SymbolicCallStack stack;
    stack.frames.push_back(callstack::CodeLocation{
        "app.x", "alloc_site_" + std::to_string(s),
        static_cast<std::uint32_t>(100 + s)});
    stack.frames.push_back(
        callstack::CodeLocation{"app.x", "main", 10});
    ids.push_back(sites.intern("obj" + std::to_string(s), stack, true));
  }
  std::uint64_t ticks = 0;
  std::uint64_t next_addr = 0x1'0000'0000ULL;
  std::vector<trace::Address> live;
  bool phase_open = false;
  for (std::size_t i = 0; i < events; ++i) {
    ticks += 1000 + rng.below(800'000);
    const double t = static_cast<double>(ticks) / 1000.0;
    const std::uint64_t pick = rng.below(100);
    if (pick < 82) {
      const trace::Address base =
          live.empty() ? 0x1'0000'0000ULL : live[rng.below(live.size())];
      buf.add(trace::SampleEvent{t, base + rng.below(1u << 21),
                                 rng.below(4) == 0, 37589});
    } else if (pick < 90) {
      buf.add(trace::CounterEvent{t, "instructions",
                                  static_cast<double>(ticks) * 2.5});
    } else if (pick < 96) {
      buf.add(trace::PhaseEvent{t, "sweep_octant", phase_open = !phase_open});
    } else if (live.size() > 24 && rng.below(2) == 0) {
      buf.add(trace::FreeEvent{t, live.back()});
      live.pop_back();
    } else {
      const trace::Address addr = next_addr;
      next_addr += 4u << 20;
      live.push_back(addr);
      buf.add(trace::AllocEvent{t, ids[rng.below(ids.size())], addr,
                                1u << 21});
    }
  }
}

/// Sink that decodes without storing — isolates parse cost from buffering.
struct NullSink final : trace::EventSink {
  std::size_t count = 0;
  void on_event(const trace::Event&) override { ++count; }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Measurement measure(const callstack::SiteDb& sites,
                    const trace::TraceBuffer& buf, trace::TraceFormat format,
                    int reps) {
  Measurement m;
  std::string serialized;
  double best_write = 1e300;
  double best_read = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::ostringstream os;
    const auto w0 = std::chrono::steady_clock::now();
    const auto writer = trace::make_trace_writer(os, sites, format);
    for (const auto& event : buf.events()) writer->on_event(event);
    writer->finish();
    best_write = std::min(best_write, seconds_since(w0));
    serialized = std::move(os).str();

    NullSink sink;
    callstack::SiteDb read_sites;
    std::istringstream is(serialized);
    const auto r0 = std::chrono::steady_clock::now();
    const auto reader = trace::open_trace_reader(is, read_sites);
    trace::pump(*reader, sink);
    best_read = std::min(best_read, seconds_since(r0));
    if (sink.count != buf.size()) {
      std::fprintf(stderr, "event count mismatch: %zu != %zu\n", sink.count,
                   buf.size());
      std::exit(1);
    }
  }
  const auto n = static_cast<double>(buf.size());
  m.write_eps = n / best_write;
  m.read_eps = n / best_read;
  m.bytes = serialized.size();
  return m;
}

/// Shards of the merged row: hmem_profile --ranks 8.
constexpr std::size_t kShards = 8;

/// Best-of-`reps` events/second of the merged read of `buf` dealt
/// round-robin into kShards binary shards.
double measure_merged(const callstack::SiteDb& sites,
                      const trace::TraceBuffer& buf, int reps) {
  std::vector<std::ostringstream> outs(kShards);
  std::vector<std::unique_ptr<trace::TraceWriter>> writers;
  for (std::ostringstream& out : outs) {
    writers.push_back(
        trace::make_trace_writer(out, sites, trace::TraceFormat::kBinary));
  }
  for (std::size_t i = 0; i < buf.size(); ++i) {
    writers[i % kShards]->on_event(buf.events()[i]);
  }
  std::vector<std::string> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    writers[s]->finish();
    shards.push_back(std::move(outs[s]).str());
  }

  double best_read = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::unique_ptr<std::istream>> streams;
    std::vector<std::string> labels;
    for (const std::string& shard : shards) {
      streams.push_back(std::make_unique<std::istringstream>(shard));
      labels.push_back("shard " + std::to_string(labels.size()));
    }
    NullSink sink;
    trace::ReplayReaderOptions options;
    options.salvage = true;
    const auto r0 = std::chrono::steady_clock::now();
    trace::ReplayReader recording(std::move(streams), labels, options);
    trace::pump(recording.reader(), sink);
    best_read = std::min(best_read, seconds_since(r0));
    const trace::SalvageReport& report = recording.salvage_report();
    if (sink.count != buf.size() || !report.clean()) {
      std::fprintf(stderr, "merged read: %zu of %zu events, %s\n",
                   sink.count, buf.size(), report.summary().c_str());
      std::exit(1);
    }
  }
  return static_cast<double>(buf.size()) / best_read;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t events = 2'000'000;
  int reps = 3;
  const char* out_path = "BENCH_trace_io.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      events = 50'000;
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--events N] [--reps R] [--out f]\n",
                   argv[0]);
      return 2;
    }
  }

  callstack::SiteDb sites;
  trace::TraceBuffer buf;
  build_trace(events, sites, buf);

  const Measurement text =
      measure(sites, buf, trace::TraceFormat::kText, reps);
  const Measurement binary =
      measure(sites, buf, trace::TraceFormat::kBinary, reps);
  const double merged_read_eps = measure_merged(sites, buf, reps);
  const double merge_overhead = binary.read_eps / merged_read_eps;
  const double read_speedup = binary.read_eps / text.read_eps;
  const double size_ratio =
      static_cast<double>(text.bytes) / static_cast<double>(binary.bytes);

  std::printf("trace_io: %zu events, best of %d reps\n", events, reps);
  std::printf("  %-8s %12s %12s %14s %10s\n", "format", "write ev/s",
              "read ev/s", "bytes", "B/event");
  for (const auto& [name, m] :
       {std::pair<const char*, const Measurement&>{"text", text},
        {"binary", binary}}) {
    std::printf("  %-8s %12.0f %12.0f %14zu %10.2f\n", name, m.write_eps,
                m.read_eps, m.bytes,
                static_cast<double>(m.bytes) / static_cast<double>(events));
  }
  std::printf("  %-8s %12s %12.0f   (%zu binary shards, salvage front)\n",
              "merged", "-", merged_read_eps, kShards);
  std::printf("  binary read speedup: %.2fx, size ratio: %.2fx, "
              "merge overhead: %.2fx\n",
              read_speedup, size_ratio, merge_overhead);

  char buffer[1024];
  std::snprintf(buffer, sizeof(buffer),
                "{\n"
                "  \"bench\": \"trace_io\",\n"
                "  \"events\": %zu,\n"
                "  \"reps\": %d,\n"
                "  \"shards\": %zu,\n"
                "  \"cores\": %d,\n"
                "  \"text\": {\"write_eps\": %.0f, \"read_eps\": %.0f, "
                "\"bytes\": %zu},\n"
                "  \"binary\": {\"write_eps\": %.0f, \"read_eps\": %.0f, "
                "\"bytes\": %zu},\n"
                "  \"merged\": {\"read_eps\": %.0f},\n"
                "  \"binary_read_speedup\": %.3f,\n"
                "  \"binary_size_ratio\": %.3f,\n"
                "  \"merge_overhead\": %.3f\n"
                "}\n",
                events, reps, kShards, hardware_jobs(), text.write_eps,
                text.read_eps, text.bytes, binary.write_eps, binary.read_eps,
                binary.bytes, merged_read_eps, read_speedup, size_ratio,
                merge_overhead);
  std::string error;
  if (!write_file_atomic(out_path, buffer, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path, error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
