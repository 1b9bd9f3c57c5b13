#include "core/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace parva::core {

Status validate(const ServiceSpec& spec) {
  const auto refuse = [&spec](const char* why) {
    return Status(ErrorCode::kInvalidArgument,
                  "service " + std::to_string(spec.id) + " (" + spec.model + "): " + why);
  };
  if (spec.id < 0) return refuse("id must be non-negative");
  // Negated comparisons, so a NaN fails them too.
  if (!(std::isfinite(spec.slo_latency_ms) && spec.slo_latency_ms > 0.0)) {
    return refuse("SLO latency must be finite and positive");
  }
  if (!(spec.request_rate >= 0.0)) return refuse("request rate must be non-negative");
  if (!std::isfinite(spec.request_rate)) return refuse("request rate is not finite");
  return Status::Ok();
}

Result<std::vector<ServiceSpec>> services_from_csv(std::string_view csv) {
  std::vector<ServiceSpec> services;
  std::set<int> ids;
  bool first = true;
  for (const std::string& line : split(csv, '\n')) {
    const std::string_view row = trim(line);
    if (row.empty()) continue;
    if (first) {  // header
      first = false;
      continue;
    }
    const auto refuse = [&](std::string_view why) {
      return Error(ErrorCode::kInvalidArgument,
                   std::string(why) + " in services row: " + std::string(row));
    };
    const auto fields = split(row, ',');
    if (fields.size() != 4) return refuse("expected id,model,slo_latency_ms,request_rate");
    unsigned long long id = 0;
    if (!parse_uint(trim(fields[0]), id)) return refuse("bad id");
    if (id > static_cast<unsigned long long>(std::numeric_limits<int>::max())) {
      return refuse("id above INT_MAX");
    }
    ServiceSpec spec;
    spec.id = static_cast<int>(id);
    spec.model = std::string(trim(fields[1]));
    if (!parse_double(trim(fields[2]), spec.slo_latency_ms)) return refuse("bad slo");
    if (!parse_double(trim(fields[3]), spec.request_rate)) return refuse("bad rate");
    if (Status valid = validate(spec); !valid.ok()) return refuse(valid.error().message());
    if (!ids.insert(spec.id).second) return refuse("repeated id");
    services.push_back(std::move(spec));
  }
  return services;
}

Triplet to_triplet(const profiler::ProfilePoint& point) {
  PARVA_REQUIRE(!point.oom, "cannot build a triplet from an OOM point");
  Triplet triplet;
  triplet.gpcs = point.gpcs;
  triplet.batch = point.batch;
  triplet.procs = point.procs;
  triplet.throughput = point.throughput;
  triplet.latency_ms = point.latency_ms;
  triplet.sm_occupancy = point.sm_occupancy;
  triplet.memory_gib = point.memory_gib;
  return triplet;
}

int instance_size_index(int gpcs) {
  switch (gpcs) {
    case 1: return 0;
    case 2: return 1;
    case 3: return 2;
    case 4: return 3;
    case 7: return 4;
    default: return -1;
  }
}

int instance_size_from_index(int index) {
  switch (index) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 3;
    case 3: return 4;
    case 4: return 7;
    default: return -1;
  }
}

namespace {

/// 2^64 over the golden ratio: multiplying by it and keeping the top bits
/// spreads ids that differ only in high bits or by a power-of-two stride.
constexpr std::uint64_t kIdHashMultiplier = 0x9E3779B97F4A7C15ull;

}  // namespace

template <typename IdOf>
ServiceIdIndex::ServiceIdIndex(std::size_t count, IdOf id_of)
    : slots_(std::bit_ceil(std::max<std::size_t>(2, 2 * count))),
      shift_(64 - std::countr_zero(slots_.size())) {
  for (std::size_t position = 0; position < count; ++position) {
    const int id = id_of(position);
    Slot& slot = slots_[probe(id)];
    if (slot.position == kEmpty) {
      slot = Slot{id, position};
    } else if (!first_repeat_) {
      first_repeat_ = position;
    }
  }
}

ServiceIdIndex::ServiceIdIndex(std::span<const ServiceSpec> services)
    : ServiceIdIndex(services.size(), [services](std::size_t i) { return services[i].id; }) {}

ServiceIdIndex ServiceIdIndex::for_configured(std::span<const ConfiguredService> services) {
  return ServiceIdIndex(services.size(),
                        [services](std::size_t i) { return services[i].spec.id; });
}

std::size_t ServiceIdIndex::probe(int id) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) * kIdHashMultiplier) >>
      shift_);
  while (slots_[slot].position != kEmpty && slots_[slot].id != id) slot = (slot + 1) & mask;
  return slot;
}

Status validate(std::span<const ServiceSpec> services, const ServiceIdIndex& by_id) {
  for (const ServiceSpec& spec : services) {
    if (Status valid = validate(spec); !valid.ok()) return valid;
  }
  const auto repeat = by_id.first_repeat();
  if (!repeat) return Status::Ok();
  return Status(ErrorCode::kInvalidArgument,
                "service " + std::to_string(services[*repeat].id) + " at position " +
                    std::to_string(*repeat) + " repeats an earlier service's id");
}

std::optional<std::size_t> ServiceIdIndex::find(int id) const {
  const Slot& slot = slots_[probe(id)];
  if (slot.position == kEmpty) return std::nullopt;
  return slot.position;
}

}  // namespace parva::core
