#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "gpu/mig_geometry.hpp"

namespace parvabench {

using parva::core::DeploymentPlan;
using parva::core::ServiceSpec;

std::vector<std::string> check_plan(const DeploymentPlan& plan) {
  std::vector<std::string> problems;
  for (std::size_t g = 0; g < plan.gpu_count(); ++g) {
    const auto& gpu = plan.gpu(g);
    const std::string where = "gpu " + std::to_string(g) + ": ";
    int gpcs = 0;
    std::uint8_t mask = 0;
    for (const auto& segment : gpu.segments()) {
      gpcs += segment.placement.gpcs;
      if (!parva::gpu::is_legal_placement(segment.placement)) {
        problems.push_back(where + "illegal placement " + std::to_string(segment.placement.gpcs) +
                           "g@" + std::to_string(segment.placement.start_slot));
      }
      if (segment.placement.gpcs != segment.triplet.gpcs) {
        problems.push_back(where + "placement size differs from its segment");
      }
      if ((mask & segment.placement.slot_mask()) != 0) {
        problems.push_back(where + "overlapping placements");
      }
      mask = static_cast<std::uint8_t>(mask | segment.placement.slot_mask());
    }
    if (gpcs > 7) problems.push_back(where + std::to_string(gpcs) + " GPCs allocated");
    if (gpcs != gpu.allocated_gpcs()) problems.push_back(where + "GPC count disagrees");
  }
  return problems;
}

std::vector<std::string> check_capacity(const DeploymentPlan& plan,
                                        std::span<const ServiceSpec> services) {
  // Ids are validated non-negative; index capacity by id (-1 = unknown id).
  int max_id = -1;
  for (const ServiceSpec& spec : services) max_id = std::max(max_id, spec.id);
  std::vector<double> capacity(static_cast<std::size_t>(max_id + 1), -1.0);
  for (const ServiceSpec& spec : services) capacity[static_cast<std::size_t>(spec.id)] = 0.0;
  std::vector<std::string> problems;
  for (const auto& [gpu, segment] : plan.all_segments()) {
    const int id = segment->service_id;
    if (id < 0 || id > max_id || capacity[static_cast<std::size_t>(id)] < 0.0) {
      problems.push_back("gpu " + std::to_string(gpu) + ": segment of unknown service " +
                         std::to_string(id));
      continue;
    }
    capacity[static_cast<std::size_t>(id)] += segment->triplet.throughput;
  }
  for (const ServiceSpec& spec : services) {
    const double have = capacity[static_cast<std::size_t>(spec.id)];
    if (have < spec.request_rate * (1.0 - 1e-9)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "service %d: capacity %.3f below rate %.3f", spec.id, have,
                    spec.request_rate);
      problems.emplace_back(buf);
    }
  }
  return problems;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string replay_signature(const parva::serving::SimulationResult& result) {
  std::string out;
  char buf[200];
  for (const auto& s : result.services) {
    std::snprintf(buf, sizeof(buf), "%d:%zu/%zu/%zu/%zu/%zu/%zu/%llu;", s.service_id, s.requests,
                  s.batches, s.violated_batches, s.shed_requests, s.rejected_requests,
                  s.evicted_requests, static_cast<unsigned long long>(s.generated_tokens));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "events=%zu compliance=%.17g", result.events_processed,
                result.overall_compliance());
  return out + buf;
}

std::string replay_counts(const parva::serving::SimulationResult& result) {
  std::string out;
  for (const auto& s : result.services) {
    out += std::to_string(s.service_id) + ":" + std::to_string(s.requests) + "/" +
           std::to_string(s.shed_requests) + ";";
  }
  return out;
}

void ServingTotals::add(const parva::serving::SimulationResult& result,
                        std::span<const ServiceSpec> services) {
  std::map<int, double> slo;
  for (const ServiceSpec& spec : services) slo[spec.id] = spec.slo_latency_ms;
  for (const auto& s : result.services) {
    const double limit = slo.at(s.service_id);
    const double done = static_cast<double>(s.requests);
    const double lost =
        static_cast<double>(s.shed_requests + s.rejected_requests + s.evicted_requests);
    const double late = std::round(s.request_latency_ms.fraction_above(limit) *
                                   static_cast<double>(s.request_latency_ms.count()));
    completed += done;
    offered += done + lost;
    missed += late + lost;
    this->late += late;
    batches += static_cast<double>(s.batches);
    violated_batches += static_cast<double>(s.violated_batches);
    if (!s.request_latency_ms.empty()) {
      p99_over_slo_max = std::max(p99_over_slo_max, s.request_latency_ms.p99() / limit);
    }
  }
}

}  // namespace parvabench
