// Tests for the object registry and the Extrae-substitute profiler.
#include <gtest/gtest.h>

#include "profiler/object_registry.hpp"
#include "profiler/profiler.hpp"

namespace hmem::profiler {
namespace {

// ----------------------------------------------------- object registry ----

TEST(ObjectRegistry, LookupInsideRange) {
  ObjectRegistry reg;
  reg.on_alloc(0x1000, 256, 3);
  EXPECT_EQ(reg.lookup(0x1000)->site, 3u);
  EXPECT_EQ(reg.lookup(0x10ff)->site, 3u);
  EXPECT_FALSE(reg.lookup(0x1100).has_value());
  EXPECT_FALSE(reg.lookup(0xfff).has_value());
}

TEST(ObjectRegistry, FreeRemovesAndReturns) {
  ObjectRegistry reg;
  reg.on_alloc(0x1000, 256, 3);
  const auto removed = reg.on_free(0x1000);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->size, 256u);
  EXPECT_FALSE(reg.lookup(0x1000).has_value());
  EXPECT_FALSE(reg.on_free(0x1000).has_value());
}

TEST(ObjectRegistry, ManyDisjointObjects) {
  ObjectRegistry reg;
  for (std::uint32_t i = 0; i < 100; ++i) {
    reg.on_alloc(0x10000 + i * 0x1000, 0x800, i);
  }
  EXPECT_EQ(reg.live_count(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(reg.lookup(0x10000 + i * 0x1000 + 0x7ff)->site, i);
    EXPECT_FALSE(reg.lookup(0x10000 + i * 0x1000 + 0x800).has_value());
  }
}

TEST(ObjectRegistry, AddressReuseAfterFree) {
  ObjectRegistry reg;
  reg.on_alloc(0x1000, 64, 1);
  reg.on_free(0x1000);
  reg.on_alloc(0x1000, 128, 2);  // same base, new object
  EXPECT_EQ(reg.lookup(0x1040)->site, 2u);
}

TEST(ObjectRegistryDeathTest, OverlapAsserts) {
  ObjectRegistry reg;
  reg.on_alloc(0x1000, 256, 1);
  EXPECT_DEATH(reg.on_alloc(0x1080, 16, 2), "overlap");
}

// ------------------------------------------------------------ profiler ----

ProfilerConfig test_config(std::uint64_t period = 10) {
  ProfilerConfig cfg;
  cfg.min_alloc_bytes = 4096;
  cfg.sampler.period = period;
  cfg.sampler.jitter = 0.0;
  return cfg;
}

TEST(Profiler, SmallAllocationsUnmonitored) {
  Profiler prof(test_config());
  prof.on_alloc(0, 0, 0x1000, 1024);   // below 4 KiB: skipped
  prof.on_alloc(1, 0, 0x8000, 8192);   // monitored
  EXPECT_EQ(prof.skipped_small_allocs(), 1u);
  EXPECT_EQ(prof.monitored_allocs(), 1u);
  EXPECT_EQ(prof.trace().size(), 1u);
  EXPECT_FALSE(prof.registry().lookup(0x1000).has_value());
  EXPECT_TRUE(prof.registry().lookup(0x8000).has_value());
}

TEST(Profiler, SamplesEveryPeriodMisses) {
  Profiler prof(test_config(10));
  for (int i = 0; i < 100; ++i) {
    prof.on_llc_miss(static_cast<double>(i), 0x1000, false);
  }
  EXPECT_EQ(prof.sampler().samples_taken(), 10u);
  // 10 sample events in the trace, each weighted by the period.
  std::uint64_t weight = 0;
  for (const auto& ev : prof.trace().events()) {
    if (const auto* s = std::get_if<trace::SampleEvent>(&ev)) {
      weight += s->weight;
    }
  }
  EXPECT_EQ(weight, 100u);
}

TEST(Profiler, WeightedMissFeedAggregatesWeight) {
  Profiler prof(test_config(100));
  prof.on_llc_miss(0, 0x1000, false, 1000);  // 10 overflows at once
  ASSERT_EQ(prof.trace().size(), 1u);
  const auto* s = std::get_if<trace::SampleEvent>(&prof.trace().events()[0]);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->weight, 1000u);
  EXPECT_EQ(prof.sampler().samples_taken(), 10u);
}

TEST(Profiler, OverheadGrowsWithActivity) {
  Profiler prof(test_config(10));
  EXPECT_DOUBLE_EQ(prof.overhead_ns(), 0.0);
  prof.on_alloc(0, 0, 0x8000, 8192);
  const double after_alloc = prof.overhead_ns();
  EXPECT_GT(after_alloc, 0.0);
  for (int i = 0; i < 10; ++i) prof.on_llc_miss(1, 0x8000, false);
  EXPECT_GT(prof.overhead_ns(), after_alloc);
  prof.on_free(2, 0x8000);
  EXPECT_EQ(prof.registry().live_count(), 0u);
}

TEST(Profiler, FreeOfUnmonitoredAllocationIsSilent) {
  Profiler prof(test_config());
  prof.on_alloc(0, 0, 0x1000, 100);  // unmonitored
  prof.on_free(1, 0x1000);           // must not add a Free event
  EXPECT_EQ(prof.trace().size(), 0u);
}

TEST(Profiler, PhaseAndCounterEventsRecorded) {
  Profiler prof(test_config());
  prof.on_phase(1.0, "solve", true);
  prof.on_counter(2.0, "instructions", 123.0);
  prof.on_phase(3.0, "solve", false);
  ASSERT_EQ(prof.trace().size(), 3u);
  const auto* p = std::get_if<trace::PhaseEvent>(&prof.trace().events()[0]);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->begin);
  EXPECT_EQ(p->name, "solve");
}

TEST(Profiler, TakeTraceMoves) {
  Profiler prof(test_config());
  prof.on_phase(1.0, "p", true);
  auto taken = prof.take_trace();
  EXPECT_EQ(taken.size(), 1u);
}

TEST(Profiler, EmitsIntoExternalSink) {
  // With an external sink, events stream out as they happen and the
  // internal buffer stays empty — the streaming stage-1 path.
  trace::TraceBuffer external;
  Profiler prof(test_config(), &external);
  prof.on_alloc(0, 0, 0x8000, 8192);
  prof.on_phase(1.0, "solve", true);
  prof.on_free(2.0, 0x8000);
  EXPECT_EQ(prof.trace().size(), 0u);
  ASSERT_EQ(external.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<trace::AllocEvent>(external.events()[0]));
  EXPECT_TRUE(std::holds_alternative<trace::PhaseEvent>(external.events()[1]));
  EXPECT_TRUE(std::holds_alternative<trace::FreeEvent>(external.events()[2]));
  // Monitoring accounting is sink-independent.
  EXPECT_EQ(prof.monitored_allocs(), 1u);
  EXPECT_GT(prof.overhead_ns(), 0.0);
}

}  // namespace
}  // namespace hmem::profiler
