#include "analysis/aggregator.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/logging.hpp"

namespace hmem::analysis {

namespace {

/// The one ordering every profile consumer sees: descending misses, site id
/// as the total tie-break, so sorted output is independent of input order.
bool by_misses(const advisor::ObjectInfo& a, const advisor::ObjectInfo& b) {
  if (a.llc_misses != b.llc_misses) return a.llc_misses > b.llc_misses;
  return a.site < b.site;
}

}  // namespace

AggregateVisitor::AggregateVisitor(const callstack::SiteDb& sites)
    : sites_(&sites) {
  accum_.resize(sites.size());
}

// Every event passes here once: the time-order invariant plus the count.
void AggregateVisitor::admit(double t) {
  HMEM_ASSERT_MSG(t >= last_time_, "trace events out of time order");
  last_time_ = t;
  ++events_;
}

AggregateVisitor::SiteAccum& AggregateVisitor::accum_for(
    callstack::SiteId site) {
  HMEM_ASSERT_MSG(site < sites_->size(),
                  "event references a site missing from the SiteDb");
  if (site >= accum_.size()) accum_.resize(sites_->size());
  return accum_[site];
}

void AggregateVisitor::on_alloc(const trace::AllocEvent& e) {
  admit(e.time_ns);
  SiteAccum& sa = accum_for(e.site);
  if (!sa.seen || e.size > sa.max_size) {
    // A new site or a grown max-size reshapes every phase slice (max_size
    // is a whole-run property carried into each phase), so this is the
    // profile-wide invalidation signal.
    ++profile_version_;
    ++version_;
  }
  sa.seen = true;
  sa.max_size = std::max(sa.max_size, e.size);
  registry_.on_alloc(e.addr, e.size, e.site);
}

void AggregateVisitor::on_free(const trace::FreeEvent& e) {
  admit(e.time_ns);
  registry_.on_free(e.addr);
}

std::size_t AggregateVisitor::phase_accum_for(const std::string& name) {
  for (std::size_t i = 0; i < phase_accum_.size(); ++i) {
    if (phase_accum_[i].name == name) return i;
  }
  phase_accum_.push_back(PhaseAccum{name, {}, 0, 0});
  return phase_accum_.size() - 1;
}

void AggregateVisitor::on_sample(const trace::SampleEvent& e) {
  admit(e.time_ns);
  ++total_samples_;
  total_weighted_misses_ += e.weight;
  const auto obj = registry_.lookup(e.addr);
  if (!obj) {
    ++unattributed_samples_;
    unattributed_misses_ += e.weight;
    return;
  }
  ++version_;
  accum_for(obj->site).misses += e.weight;
  if (!open_phases_.empty()) {
    PhaseAccum& pa = phase_accum_[open_phases_.back()];
    if (obj->site >= pa.misses.size()) pa.misses.resize(sites_->size(), 0);
    pa.misses[obj->site] += e.weight;
    pa.total += e.weight;
    ++pa.version;
  }
}

// Phase events drive the per-phase profile slicing; counter events are a
// folding concern. Both participate in the time-order invariant.
void AggregateVisitor::on_phase(const trace::PhaseEvent& e) {
  admit(e.time_ns);
  const std::size_t idx = phase_accum_for(e.name);
  if (e.begin) {
    open_phases_.push_back(idx);
    return;
  }
  // Close the most recent begin of this name (merged multi-rank streams may
  // deliver ends out of stack order); an unmatched end is ignored.
  for (std::size_t i = open_phases_.size(); i-- > 0;) {
    if (open_phases_[i] == idx) {
      open_phases_.erase(open_phases_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void AggregateVisitor::on_counter(const trace::CounterEvent& e) {
  admit(e.time_ns);
}

const AggregateVisitor::PhaseAccum& AggregateVisitor::phase_at(
    std::size_t phase) const {
  HMEM_ASSERT_MSG(phase < phase_accum_.size(), "phase index out of range");
  return phase_accum_[phase];
}

std::uint64_t AggregateVisitor::phase_version(std::size_t phase) const {
  return phase_at(phase).version;
}

std::uint64_t AggregateVisitor::phase_misses(std::size_t phase) const {
  return phase_at(phase).total;
}

std::vector<advisor::ObjectInfo> AggregateVisitor::build_objects() const {
  std::vector<advisor::ObjectInfo> objects;
  for (callstack::SiteId id = 0; id < accum_.size(); ++id) {
    if (!accum_[id].seen) continue;
    const auto& info = sites_->get(id);
    advisor::ObjectInfo obj;
    obj.site = id;
    obj.name = info.object_name;
    obj.stack = info.stack;
    obj.max_size_bytes = accum_[id].max_size;
    obj.llc_misses = accum_[id].misses;
    obj.is_dynamic = info.is_dynamic;
    objects.push_back(std::move(obj));
  }
  std::sort(objects.begin(), objects.end(), by_misses);
  return objects;
}

// Every whole-run site appears in every phase slice (objects a phase never
// touches simply carry zero misses and are never selected), so a
// single-phase trace reproduces the whole-run list exactly.
advisor::PhaseObjects AggregateVisitor::build_phase(
    const PhaseAccum& pa,
    const std::vector<advisor::ObjectInfo>& whole) const {
  advisor::PhaseObjects phase;
  phase.name = pa.name;
  phase.objects.reserve(whole.size());
  for (const advisor::ObjectInfo& whole_obj : whole) {
    advisor::ObjectInfo obj = whole_obj;
    obj.llc_misses =
        whole_obj.site < pa.misses.size() ? pa.misses[whole_obj.site] : 0;
    phase.objects.push_back(std::move(obj));
  }
  std::sort(phase.objects.begin(), phase.objects.end(), by_misses);
  return phase;
}

AggregateResult AggregateVisitor::snapshot() const {
  AggregateResult out;
  out.objects = build_objects();
  out.phases.reserve(phase_accum_.size());
  for (const PhaseAccum& pa : phase_accum_) {
    out.phases.push_back(build_phase(pa, out.objects));
  }
  out.unattributed_samples = unattributed_samples_;
  out.unattributed_misses = unattributed_misses_;
  out.total_samples = total_samples_;
  out.total_weighted_misses = total_weighted_misses_;
  return out;
}

ObjectsView AggregateVisitor::objects_view() const {
  ObjectsView view;
  view.objects = build_objects();
  view.profile_version = profile_version_;
  view.version = version_;
  view.attributed_misses = attributed_misses();
  return view;
}

PhaseView AggregateVisitor::phase_view(std::size_t phase) const {
  const PhaseAccum& pa = phase_at(phase);
  PhaseView view;
  view.objects = build_phase(pa, build_objects());
  view.profile_version = profile_version_;
  view.version = pa.version;
  view.misses = pa.total;
  return view;
}

AggregateResult aggregate_trace(const trace::TraceBuffer& trace,
                                const callstack::SiteDb& sites) {
  AggregateVisitor visitor(sites);
  trace::visit_buffer(trace, visitor);
  return visitor.finish();
}

AggregateResult aggregate_stream(trace::TraceReader& reader,
                                 const callstack::SiteDb& sites) {
  AggregateVisitor visitor(sites);
  trace::pump(reader, visitor);
  return visitor.finish();
}

std::string objects_to_csv(const std::vector<advisor::ObjectInfo>& objects) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_row(
      {"name", "site", "dynamic", "max_size_bytes", "llc_misses",
       "misses_per_kib"});
  for (const auto& obj : objects) {
    const double per_kib =
        obj.max_size_bytes > 0
            ? static_cast<double>(obj.llc_misses) * 1024.0 /
                  static_cast<double>(obj.max_size_bytes)
            : 0.0;
    char density[32];
    std::snprintf(density, sizeof(density), "%.3f", per_kib);
    writer.write_row({obj.name, std::to_string(obj.site),
                      obj.is_dynamic ? "1" : "0",
                      std::to_string(obj.max_size_bytes),
                      std::to_string(obj.llc_misses), density});
  }
  return os.str();
}

namespace {

/// Strict non-negative integer parse: the whole field, no sign, no
/// whitespace, no overflow. std::stoull would accept "12junk" and throw on
/// "junk" — neither is acceptable for a file a user may have truncated or
/// hand-edited.
std::optional<std::uint64_t> parse_u64_field(const std::string& field) {
  // Digits only: strtoull alone would skip leading whitespace and accept a
  // sign (" -4096" wraps to ~2^64) or trailing junk ("12tail").
  if (field.empty()) return std::nullopt;
  for (const char c : field) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
  if (errno == ERANGE || end != field.c_str() + field.size()) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::vector<advisor::ObjectInfo> objects_from_csv(const std::string& text) {
  // Defensive by design: this is the one ingest path fed by files from
  // outside the process (hmem_advise --csv output, possibly truncated or
  // edited). Malformed rows are skipped with a warning, never thrown on.
  static const std::vector<std::string> kHeader = {
      "name", "site", "dynamic", "max_size_bytes", "llc_misses",
      "misses_per_kib"};
  std::vector<advisor::ObjectInfo> objects;
  const auto rows = CsvReader::parse(text);
  if (rows.empty()) return objects;
  std::size_t start = 0;
  if (rows[0] == kHeader) {
    start = 1;
  } else {
    // No (or an unexpected) header: warn and try every row as data — a
    // variant header row then simply fails the numeric checks below.
    log_warn("objects CSV: missing or unexpected header row (expected ",
             kHeader.size(), " columns name,site,...)");
  }
  for (std::size_t r = start; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() < 5) {
      log_warn("objects CSV: skipping row ", r + 1, " (", row.size(),
               " columns, need at least 5)");
      continue;
    }
    const auto site = parse_u64_field(row[1]);
    const auto size = parse_u64_field(row[3]);
    const auto misses = parse_u64_field(row[4]);
    if (!site || *site > callstack::kInvalidSite || !size || !misses) {
      log_warn("objects CSV: skipping malformed row ", r + 1, " (\"",
               row[0], "\")");
      continue;
    }
    advisor::ObjectInfo obj;
    obj.name = row[0];
    obj.site = static_cast<callstack::SiteId>(*site);
    obj.is_dynamic = row[2] == "1";
    obj.max_size_bytes = *size;
    obj.llc_misses = *misses;
    objects.push_back(std::move(obj));
  }
  return objects;
}

}  // namespace hmem::analysis
