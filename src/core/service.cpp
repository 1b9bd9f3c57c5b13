#include "core/service.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace parva::core {

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
  // Positions are unique, so sorting the pairs orders equal ids by
  // position: the stable order by id, without stable_sort's extra buffer.
  std::sort(by_id_.begin(), by_id_.end());
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
