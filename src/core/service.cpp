#include "core/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace parva::core {

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
    const auto refuse = [&](const char* why) {
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
    if (!std::isfinite(spec.slo_latency_ms) || spec.slo_latency_ms <= 0.0) {
      return refuse("slo must be finite and positive");
    }
    if (!parse_double(trim(fields[3]), spec.request_rate)) return refuse("bad rate");
    if (!std::isfinite(spec.request_rate) || spec.request_rate < 0.0) {
      return refuse("rate must be finite and non-negative");
    }
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

ServiceIdIndex::ServiceIdIndex(std::span<const ServiceSpec> services) {
  by_id_.reserve(services.size());
  for (std::size_t i = 0; i < services.size(); ++i) by_id_.emplace_back(services[i].id, i);
  sort_by_id();
}

ServiceIdIndex ServiceIdIndex::for_configured(std::span<const ConfiguredService> services) {
  ServiceIdIndex index(std::span<const ServiceSpec>{});
  index.by_id_.reserve(services.size());
  for (std::size_t i = 0; i < services.size(); ++i) {
    index.by_id_.emplace_back(services[i].spec.id, i);
  }
  index.sort_by_id();
  return index;
}

void ServiceIdIndex::sort_by_id() {
  // Positions are unique, so sorting the pairs orders equal ids by
  // position: the stable order by id, without stable_sort's extra buffer.
  std::sort(by_id_.begin(), by_id_.end());
}

std::optional<std::size_t> ServiceIdIndex::first_repeat() const {
  // Equal ids sit side by side in position order, so every entry that
  // follows one with its id is a repeat.
  std::optional<std::size_t> first;
  for (std::size_t i = 1; i < by_id_.size(); ++i) {
    if (by_id_[i].first == by_id_[i - 1].first && (!first || by_id_[i].second < *first)) {
      first = by_id_[i].second;
    }
  }
  return first;
}

Status check_unique_ids(std::span<const ServiceSpec> services, const ServiceIdIndex& by_id) {
  const auto repeat = by_id.first_repeat();
  if (!repeat) return Status::Ok();
  return Status(ErrorCode::kInvalidArgument,
                "service " + std::to_string(services[*repeat].id) + " at position " +
                    std::to_string(*repeat) + " repeats an earlier service's id");
}

std::optional<std::size_t> ServiceIdIndex::find(int id) const {
  const auto it = std::lower_bound(by_id_.begin(), by_id_.end(), id,
                                   [](const std::pair<int, std::size_t>& entry, int key) {
                                     return entry.first < key;
                                   });
  if (it == by_id_.end() || it->first != id) return std::nullopt;
  return it->second;
}

}  // namespace parva::core
